#include "core/similarity_index.h"

#include <algorithm>

#include "core/driver_internal.h"

namespace ssjoin {

SimilarityIndex::SimilarityIndex(SignatureSchemePtr scheme,
                                 std::shared_ptr<const Predicate> predicate)
    : scheme_(std::move(scheme)), predicate_(std::move(predicate)) {
  SSJOIN_CHECK(scheme_ != nullptr, "SimilarityIndex needs a scheme");
  SSJOIN_CHECK(predicate_ != nullptr, "SimilarityIndex needs a predicate");
}

SetId SimilarityIndex::Insert(std::span<const ElementId> set) {
  SetId id = static_cast<SetId>(stored_.size());
  stored_.push_back(Entry{stored_elements_.size(),
                          static_cast<uint32_t>(set.size())});
  stored_elements_.insert(stored_elements_.end(), set.begin(), set.end());

  std::vector<Signature> sigs;
  detail::GenerateSorted(*scheme_, set, &sigs);
  Add(sigs, id);
  ++stats_.inserted;
  return id;
}

void SimilarityIndex::InsertAll(const SetCollection& collection) {
  for (SetId id = 0; id < collection.size(); ++id) {
    Insert(collection.set(id));
  }
}

void SimilarityIndex::Add(std::span<const Signature> sigs, SetId id) {
  for (Signature sig : sigs) postings_[sig].push_back(id);
}

void SimilarityIndex::Probe(std::span<const Signature> sigs,
                            std::vector<SetId>* partners) const {
  partners->clear();
  for (Signature sig : sigs) {
    auto it = postings_.find(sig);
    if (it == postings_.end()) continue;
    partners->insert(partners->end(), it->second.begin(), it->second.end());
  }
  std::sort(partners->begin(), partners->end());
  partners->erase(std::unique(partners->begin(), partners->end()),
                  partners->end());
}

std::vector<SetId> SimilarityIndex::Lookup(
    std::span<const ElementId> probe) const {
  ++stats_.lookups;
  std::vector<Signature> sigs;
  detail::GenerateSorted(*scheme_, probe, &sigs);
  std::vector<SetId> candidates;
  Probe(sigs, &candidates);
  stats_.candidates += candidates.size();

  std::vector<SetId> results;
  for (SetId id : candidates) {
    if (predicate_->Evaluate(set(id), probe)) {
      results.push_back(id);
    }
  }
  stats_.results += results.size();
  return results;
}

}  // namespace ssjoin
