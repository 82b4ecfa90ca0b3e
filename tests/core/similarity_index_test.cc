#include "core/similarity_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "baselines/lsh.h"
#include "core/partenum.h"
#include "core/partenum_jaccard.h"
#include "data/generators.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace ssjoin {
namespace {

// Ground truth: linear scan of the indexed sets.
std::vector<SetId> ScanLookup(const SetCollection& indexed,
                              std::span<const ElementId> probe,
                              const Predicate& predicate) {
  std::vector<SetId> out;
  for (SetId id = 0; id < indexed.size(); ++id) {
    if (predicate.Evaluate(indexed.set(id), probe)) out.push_back(id);
  }
  return out;
}

TEST(SimilarityIndexTest, BasicInsertAndLookup) {
  auto predicate = std::make_shared<JaccardPredicate>(0.75);
  PartEnumJaccardParams params;
  params.gamma = 0.75;
  params.max_set_size = 8;
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  SimilarityIndex index(
      std::make_shared<PartEnumJaccardScheme>(std::move(scheme).value()),
      predicate);

  std::vector<ElementId> a = {1, 2, 3, 4};
  std::vector<ElementId> b = {1, 2, 3, 5};
  std::vector<ElementId> c = {9, 10, 11};
  EXPECT_EQ(index.Insert(a), 0u);
  EXPECT_EQ(index.Insert(b), 1u);
  EXPECT_EQ(index.Insert(c), 2u);
  EXPECT_EQ(index.size(), 3u);

  // Probe equal to a: matches a (jaccard 1) but not b (3/5 = 0.6).
  EXPECT_EQ(index.Lookup(a), (std::vector<SetId>{0}));
  EXPECT_EQ(index.Lookup(c), (std::vector<SetId>{2}));
  std::vector<ElementId> unrelated = {100, 200};
  EXPECT_TRUE(index.Lookup(unrelated).empty());
  EXPECT_EQ(index.stats().lookups, 3u);
}

TEST(SimilarityIndexTest, ExactAgainstLinearScan) {
  AddressOptions options;
  options.num_strings = 500;
  options.duplicate_fraction = 0.2;
  WordTokenizer tokenizer;
  SetCollection data =
      tokenizer.TokenizeAll(GenerateAddressStrings(options));

  // One token-level typo on an ~11-token record gives jaccard 10/12 ≈
  // 0.83, so thresholds above that make the cross-check vacuous.
  for (double gamma : {0.7, 0.8}) {
    auto predicate = std::make_shared<JaccardPredicate>(gamma);
    PartEnumJaccardParams params;
    params.gamma = gamma;
    params.max_set_size = data.max_set_size();
    auto scheme = PartEnumJaccardScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    SimilarityIndex index(
        std::make_shared<PartEnumJaccardScheme>(std::move(scheme).value()),
        predicate);

    // Index the first 400 sets; probe with the remaining 100.
    SetCollectionBuilder indexed_builder;
    for (SetId id = 0; id < 400; ++id) indexed_builder.Add(data.set(id));
    SetCollection indexed = indexed_builder.Build();
    index.InsertAll(indexed);

    size_t total_hits = 0;
    for (SetId probe = 400; probe < data.size(); ++probe) {
      std::vector<SetId> hits = index.Lookup(data.set(probe));
      EXPECT_EQ(hits, ScanLookup(indexed, data.set(probe), *predicate))
          << "gamma=" << gamma << " probe=" << probe;
      total_hits += hits.size();
    }
    EXPECT_GT(total_hits, 0u) << "vacuous test";
  }
}

TEST(SimilarityIndexTest, HammingScheme) {
  auto predicate = std::make_shared<HammingPredicate>(2);
  auto scheme = PartEnumScheme::Create(PartEnumParams::Default(2));
  ASSERT_TRUE(scheme.ok());
  SimilarityIndex index(
      std::make_shared<PartEnumScheme>(std::move(scheme).value()),
      predicate);

  Rng rng(5);
  SetCollectionBuilder builder;
  for (int i = 0; i < 300; ++i) {
    builder.Add(SampleWithoutReplacement(100, 10, rng));
  }
  SetCollection data = builder.Build();
  index.InsertAll(data);
  for (SetId probe = 0; probe < 50; ++probe) {
    EXPECT_EQ(index.Lookup(data.set(probe)),
              ScanLookup(data, data.set(probe), *predicate));
  }
}

TEST(SimilarityIndexTest, StoredSetsAccessible) {
  auto predicate = std::make_shared<JaccardPredicate>(0.9);
  auto scheme = PartEnumScheme::Create(PartEnumParams::Default(1));
  ASSERT_TRUE(scheme.ok());
  SimilarityIndex index(
      std::make_shared<PartEnumScheme>(std::move(scheme).value()),
      predicate);
  std::vector<ElementId> s = {4, 7, 9};
  SetId id = index.Insert(s);
  std::span<const ElementId> stored = index.set(id);
  EXPECT_EQ(std::vector<ElementId>(stored.begin(), stored.end()), s);
}

TEST(SimilarityIndexDeathTest, SetRejectsUnknownId) {
  auto predicate = std::make_shared<JaccardPredicate>(0.9);
  auto scheme = PartEnumScheme::Create(PartEnumParams::Default(1));
  ASSERT_TRUE(scheme.ok());
  SimilarityIndex index(
      std::make_shared<PartEnumScheme>(std::move(scheme).value()),
      predicate);
  index.Insert(std::vector<ElementId>{4, 7, 9});
  EXPECT_DEATH((void)index.set(1), "SSJOIN_CHECK failed: id < size\\(\\)");
}

TEST(SimilarityIndexTest, LshSchemeHasHighRecall) {
  auto predicate = std::make_shared<JaccardPredicate>(0.8);
  auto scheme = LshScheme::Create(LshParams::ForAccuracy(0.8, 0.05, 3));
  ASSERT_TRUE(scheme.ok());
  SimilarityIndex index(
      std::make_shared<LshScheme>(std::move(scheme).value()), predicate);

  Rng rng(17);
  SetCollectionBuilder builder;
  std::vector<std::vector<ElementId>> base;
  for (int i = 0; i < 200; ++i) {
    base.push_back(SampleWithoutReplacement(100000, 40, rng));
    builder.Add(base.back());
  }
  SetCollection data = builder.Build();
  index.InsertAll(data);

  // Probes: perturbed copies with jaccard ~ 36/44 > 0.8.
  int found = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<ElementId> probe = base[i];
    for (int m = 0; m < 4; ++m) probe[m] = 200000 + i * 10 + m;
    std::sort(probe.begin(), probe.end());  // Lookup expects sorted input
    std::vector<SetId> hits = index.Lookup(probe);
    for (SetId hit : hits) {
      if (hit == static_cast<SetId>(i)) ++found;
    }
  }
  EXPECT_GE(found, 180);  // 95% configured recall, generous margin
}

}  // namespace
}  // namespace ssjoin
