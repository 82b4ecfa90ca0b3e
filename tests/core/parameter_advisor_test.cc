#include "core/parameter_advisor.h"

#include <gtest/gtest.h>

#include "core/ssjoin.h"
#include "core/predicate.h"
#include "data/generators.h"
#include "obs/explain.h"
#include "zipf_collection.h"

namespace ssjoin {
namespace {

SetCollection Synthetic(size_t n, uint64_t seed = 5) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = 30;
  options.domain_size = 2000;
  options.similar_fraction = 0.05;
  options.mutations = 2;
  options.seed = seed;
  return GenerateUniformSets(options);
}

TEST(AdvisorTest, EvaluateReturnsSortedChoices) {
  SetCollection input = Synthetic(400);
  AdvisorOptions options;
  options.sample_size = 200;
  std::vector<PartEnumChoice> choices =
      EvaluatePartEnumParams(input, 6, 0, options);
  ASSERT_GT(choices.size(), 1u);
  for (size_t i = 1; i < choices.size(); ++i) {
    EXPECT_LE(choices[i - 1].estimated_f2, choices[i].estimated_f2);
  }
  for (const PartEnumChoice& c : choices) {
    EXPECT_TRUE(c.params.Validate().ok());
    EXPECT_EQ(c.signatures_per_set, c.params.SignaturesPerSet());
  }
}

TEST(AdvisorTest, ChooseReturnsBest) {
  SetCollection input = Synthetic(400);
  auto best = ChoosePartEnumParams(input, 6);
  ASSERT_TRUE(best.ok());
  std::vector<PartEnumChoice> all = EvaluatePartEnumParams(input, 6, 0, {});
  EXPECT_EQ(best->params.n1, all.front().params.n1);
  EXPECT_EQ(best->params.n2, all.front().params.n2);
}

TEST(AdvisorTest, LargerTargetPrefersMoreSignatures) {
  // Table 1's trend: as input size grows, the optimal setting spends more
  // signatures per set to buy filtering effectiveness.
  SetCollection input = Synthetic(500);
  AdvisorOptions options;
  options.sample_size = 300;
  auto small = ChoosePartEnumParams(input, 8, 2000, options);
  auto large = ChoosePartEnumParams(input, 8, 2000000, options);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GE(large->signatures_per_set, small->signatures_per_set);
}

TEST(AdvisorTest, EstimateSchemeF2TracksExact) {
  // On the full input (sample == everything) the exact-mode estimate must
  // equal the driver's F2 accounting.
  SetCollection input = Synthetic(300);
  PartEnumParams params = PartEnumParams::Default(6);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  AdvisorOptions options;
  options.sample_size = input.size();  // no sampling
  double estimate = EstimateSchemeF2(input, *scheme, 0, options);

  HammingPredicate predicate(6);
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
  EXPECT_NEAR(estimate, static_cast<double>(result.stats.F2()),
              estimate * 1e-9);
}

TEST(AdvisorTest, SketchModeApproximatesExactMode) {
  SetCollection input = Synthetic(300);
  PartEnumParams params = PartEnumParams::Default(6);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  AdvisorOptions exact, sketch;
  exact.sample_size = sketch.sample_size = 300;
  sketch.use_ams_sketch = true;
  double e = EstimateSchemeF2(input, *scheme, 0, exact);
  double s = EstimateSchemeF2(input, *scheme, 0, sketch);
  // Signature term dominates for PartEnum on random data; the sketch only
  // perturbs the (small) collision estimate.
  EXPECT_GT(s, e * 0.5);
  EXPECT_LT(s, e * 1.5);
}

TEST(AdvisorTest, LshChoicesRespectAccuracy) {
  SetCollection input = Synthetic(300);
  std::vector<LshChoice> choices =
      EvaluateLshParams(input, 0.8, 0.05, 6, 0, {});
  ASSERT_FALSE(choices.empty());
  for (const LshChoice& c : choices) {
    // Every candidate must reach >= 95% recall at similarity 0.8.
    EXPECT_GE(c.params.CollisionProbability(0.8), 0.95 - 1e-9);
  }
  auto best = ChooseLshParams(input, 0.8, 0.05);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->params.g, choices.front().params.g);
}

TEST(AdvisorTest, WtEnumThresholdSweep) {
  SetCollection input = Synthetic(300);
  WeightFunction weights = [](ElementId e) {
    return 1.0 + static_cast<double>(e % 5);
  };
  std::vector<double> candidates = {3.0, 6.0, 9.0, 12.0};
  std::vector<WtEnumChoice> choices = EvaluateWtEnumPruningThresholds(
      input, weights, weights, 20.0, candidates);
  ASSERT_FALSE(choices.empty());
  for (size_t i = 1; i < choices.size(); ++i) {
    EXPECT_LE(choices[i - 1].estimated_f2, choices[i].estimated_f2);
  }
  auto best = ChooseWtEnumPruningThreshold(input, weights, weights, 20.0,
                                           candidates);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->pruning_threshold, choices.front().pruning_threshold);
  // The winner must be one of the candidates.
  EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                      best->pruning_threshold),
            candidates.end());
}

TEST(AdvisorTest, WtEnumEmptyCandidatesIsNotFound) {
  SetCollection input = Synthetic(50);
  WeightFunction unit = [](ElementId) { return 1.0; };
  auto best =
      ChooseWtEnumPruningThreshold(input, unit, unit, 5.0, {});
  EXPECT_FALSE(best.ok());
}

TEST(AdvisorTest, NoValidSettingIsNotFound) {
  SetCollection input = Synthetic(50);
  AdvisorOptions options;
  options.max_signatures_per_set = 0;  // nothing fits
  auto best = ChoosePartEnumParams(input, 4, 0, options);
  EXPECT_FALSE(best.ok());
  EXPECT_EQ(best.status().code(), StatusCode::kNotFound);
}

TEST(AdvisorTest, EqualEstimatesRankInEnumerationOrder) {
  // Pairwise-disjoint sets: no two share a signature, so every estimate
  // is its signature term alone. For k = 2 all thirty n1 = 3 settings
  // spend 3 signatures per set and tie exactly on (F2, cost); the first
  // enumerated, (3, 2), must win, and the tied rest follow in order.
  SetCollectionBuilder builder;
  for (ElementId i = 0; i < 200; ++i) {
    std::vector<ElementId> set;
    for (ElementId j = 0; j < 30; ++j) set.push_back(i * 30 + j);
    builder.Add(set);
  }
  SetCollection input = builder.Build();
  obs::AdvisorTrace trace;
  AdvisorOptions options;
  options.trace = &trace;
  std::vector<PartEnumChoice> all = EvaluatePartEnumParams(input, 2, 0,
                                                           options);
  for (const obs::AdvisorCandidate& row : trace.candidates) {
    ASSERT_EQ(row.sample_collisions, 0) << row.label;
  }
  ASSERT_GE(all.size(), 30u);
  for (uint32_t i = 0; i < 30; ++i) {
    EXPECT_EQ(all[i].params.n1, 3u);
    EXPECT_EQ(all[i].params.n2, 2 + i);
    EXPECT_EQ(all[i].estimated_f2, all[0].estimated_f2);
  }
  auto best = ChoosePartEnumParams(input, 2);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->params.n1, 3u);
  EXPECT_EQ(best->params.n2, 2u);
}

TEST(AdvisorTest, PrunedSearchMatchesExhaustiveFront) {
  // Branch-and-bound drops a setting only once its signature term alone
  // exceeds the best estimate so far, so every Choose* must return the
  // exhaustive Evaluate* front: the same setting and the bit-identical
  // estimate.
  const SetCollection inputs[] = {Synthetic(400),
                                  ZipfCollection(400, 24, 4000, 0.8, 17)};
  WeightFunction weights = [](ElementId e) {
    return 1.0 + static_cast<double>(e % 5);
  };
  const std::vector<double> thresholds = {2.0, 4.0, 6.0};
  uint64_t pruned_on_skewed = 0;
  for (size_t which = 0; which < 2; ++which) {
    const SetCollection& input = inputs[which];
    for (size_t target : {size_t{2000}, size_t{2000000}}) {
      for (bool ams : {false, true}) {
        SCOPED_TRACE(testing::Message() << "input " << which << " target "
                                        << target << " ams " << ams);
        AdvisorOptions options;
        options.sample_size = 200;
        options.max_signatures_per_set = 64;
        options.use_ams_sketch = ams;
        obs::AdvisorTrace trace;
        AdvisorOptions traced = options;
        traced.trace = &trace;

        std::vector<PartEnumChoice> all =
            EvaluatePartEnumParams(input, 4, target, options);
        auto best = ChoosePartEnumParams(input, 4, target, traced);
        ASSERT_TRUE(best.ok());
        EXPECT_EQ(best->params.n1, all.front().params.n1);
        EXPECT_EQ(best->params.n2, all.front().params.n2);
        EXPECT_EQ(best->signatures_per_set, all.front().signatures_per_set);
        EXPECT_EQ(best->estimated_f2, all.front().estimated_f2);
        EXPECT_EQ(trace.candidates.size() + trace.pruned_settings,
                  all.size());
        if (which == 1) pruned_on_skewed += trace.pruned_settings;

        std::vector<LshChoice> lsh =
            EvaluateLshParams(input, 0.8, 0.05, 6, target, options);
        auto lsh_best = ChooseLshParams(input, 0.8, 0.05, 6, target, options);
        ASSERT_TRUE(lsh_best.ok());
        EXPECT_EQ(lsh_best->params.g, lsh.front().params.g);
        EXPECT_EQ(lsh_best->params.l, lsh.front().params.l);
        EXPECT_EQ(lsh_best->estimated_f2, lsh.front().estimated_f2);

        std::vector<WtEnumChoice> wt = EvaluateWtEnumPruningThresholds(
            input, weights, weights, 20.0, thresholds, target, options);
        auto wt_best = ChooseWtEnumPruningThreshold(
            input, weights, weights, 20.0, thresholds, target, options);
        ASSERT_TRUE(wt_best.ok());
        EXPECT_EQ(wt_best->pruning_threshold, wt.front().pruning_threshold);
        EXPECT_EQ(wt_best->estimated_f2, wt.front().estimated_f2);
      }
    }
  }
  EXPECT_GT(pruned_on_skewed, 0u);
}

}  // namespace
}  // namespace ssjoin
