#include "core/signature_index.h"

#include <algorithm>

namespace ssjoin {

void SignatureIndex::Add(std::span<const Signature> sigs, SetId id) {
  for (Signature sig : sigs) postings_[sig].push_back(id);
}

uint64_t SignatureIndex::Probe(std::span<const Signature> sigs,
                               std::vector<SetId>* partners) const {
  partners->clear();
  for (Signature sig : sigs) {
    auto it = postings_.find(sig);
    if (it == postings_.end()) continue;
    partners->insert(partners->end(), it->second.begin(), it->second.end());
  }
  const uint64_t collisions = partners->size();
  std::sort(partners->begin(), partners->end());
  partners->erase(std::unique(partners->begin(), partners->end()),
                  partners->end());
  return collisions;
}

}  // namespace ssjoin
