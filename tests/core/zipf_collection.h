// Skewed test input shared by the advisor tests: fixed-size sets whose
// elements follow a Zipf distribution, like real token vocabularies.
// The skew guarantees signature collisions.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/collection.h"
#include "util/random.h"
#include "util/zipf.h"

namespace ssjoin {

inline SetCollection ZipfCollection(size_t num_sets, uint32_t set_size,
                                    uint32_t domain, double theta,
                                    uint64_t seed) {
  Rng rng(seed);
  ZipfSampler sampler(domain, theta);
  SetCollectionBuilder builder;
  std::vector<ElementId> elements;
  for (size_t i = 0; i < num_sets; ++i) {
    elements.clear();
    while (elements.size() < set_size) {
      ElementId e = sampler.Sample(rng);
      if (std::find(elements.begin(), elements.end(), e) ==
          elements.end()) {
        elements.push_back(e);
      }
    }
    builder.Add(elements);
  }
  return builder.Build();
}

}  // namespace ssjoin
