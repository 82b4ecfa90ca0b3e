// Randomized property tests ("fuzz"): random predicates from the paper's
// general class, random thresholds and random seeds, always checked
// against brute force. These are the tests that catch boundary rounding,
// interval construction and partition-assignment bugs that hand-picked
// cases miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/nested_loop.h"
#include "baselines/prefix_filter.h"
#include "core/general_join.h"
#include "core/partenum.h"
#include "core/partenum_jaccard.h"
#include "core/ssjoin.h"
#include "util/random.h"

namespace ssjoin {
namespace {

SetCollection RandomWorkload(Rng& rng, int base, int dups,
                             uint32_t domain, uint32_t max_size) {
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < base; ++i) {
    uint32_t size = 1 + rng.Uniform(max_size);
    sets.push_back(SampleWithoutReplacement(domain, size, rng));
  }
  for (int i = 0; i < dups; ++i) {
    std::vector<ElementId> dup = sets[rng.Uniform(base)];
    uint32_t drops = rng.Uniform(3);
    for (uint32_t d = 0; d < drops && dup.size() > 1; ++d) {
      dup.erase(dup.begin() + rng.Uniform(static_cast<uint32_t>(dup.size())));
    }
    sets.push_back(std::move(dup));
  }
  return SetCollection::FromVectors(sets);
}

TEST(FuzzTest, JaccardPartEnumRandomGammasAndSeeds) {
  Rng rng(0xF122);
  for (int round = 0; round < 12; ++round) {
    double gamma = 0.5 + 0.5 * rng.NextDouble();  // (0.5, 1.0)
    SetCollection input = RandomWorkload(rng, 80, 30, 200, 25);
    PartEnumJaccardParams params;
    params.gamma = gamma;
    params.max_set_size = input.max_set_size();
    params.seed = rng.Next64();
    auto scheme = PartEnumJaccardScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    JaccardPredicate predicate(gamma);
    JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
    EXPECT_EQ(result.pairs, NestedLoopSelfJoin(input, predicate))
        << "round " << round << " gamma=" << gamma;
  }
}

// The same differential over binary joins and forced spill, at every
// bitmap width: each candidate path (in-memory probe, per-partition probe
// plus merge) and the bitmap test placed inside it must keep every pair.
TEST(FuzzTest, JaccardPartEnumBinaryAndSpillEveryBitmapWidth) {
  Rng rng(0xF126);
  for (int round = 0; round < 6; ++round) {
    double gamma = 0.5 + 0.5 * rng.NextDouble();  // (0.5, 1.0)
    SetCollection r = RandomWorkload(rng, 70, 30, 150, 20);
    SetCollection s = RandomWorkload(rng, 60, 20, 150, 20);
    PartEnumJaccardParams params;
    params.gamma = gamma;
    params.max_set_size = std::max(r.max_set_size(), s.max_set_size());
    params.seed = rng.Next64();
    auto scheme = PartEnumJaccardScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    JaccardPredicate predicate(gamma);
    const std::vector<SetPair> self_truth = NestedLoopSelfJoin(r, predicate);
    const std::vector<SetPair> binary_truth = NestedLoopJoin(r, s, predicate);
    for (uint32_t bits : {0u, 64u, 128u, 256u}) {
      for (SpillPolicy spill : {SpillPolicy::kDisabled, SpillPolicy::kForced}) {
        JoinOptions options;
        options.bitmap_bits = bits;
        options.spill.policy = spill;
        std::string cell = "round " + std::to_string(round) +
                           " gamma=" + std::to_string(gamma) +
                           " bits=" + std::to_string(bits) + " spill=" +
                           std::to_string(spill == SpillPolicy::kForced);
        JoinResult self =
            Join(SelfJoinRequest(r, *scheme, predicate, options));
        ASSERT_TRUE(self.status.ok()) << cell;
        EXPECT_EQ(self.pairs, self_truth) << cell;
        JoinResult binary =
            Join(BinaryJoinRequest(r, s, *scheme, predicate, options));
        ASSERT_TRUE(binary.status.ok()) << cell;
        EXPECT_EQ(binary.pairs, binary_truth) << cell;
      }
    }
  }
}

TEST(FuzzTest, HammingPartEnumRandomShapes) {
  Rng rng(0xF123);
  for (int round = 0; round < 12; ++round) {
    uint32_t k = rng.Uniform(9);  // 0..8
    std::vector<PartEnumParams> valid =
        PartEnumParams::EnumerateValid(k, 200, rng.Next64());
    ASSERT_FALSE(valid.empty());
    PartEnumParams params =
        valid[rng.Uniform(static_cast<uint32_t>(valid.size()))];
    auto scheme = PartEnumScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    SetCollection input = RandomWorkload(rng, 70, 40, 150, 20);
    HammingPredicate predicate(k);
    JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
    EXPECT_EQ(result.pairs, NestedLoopSelfJoin(input, predicate))
        << "round " << round << " k=" << k << " n1=" << params.n1
        << " n2=" << params.n2;
  }
}

TEST(FuzzTest, RandomConjunctivePredicatesThroughGeneralJoin) {
  Rng rng(0xF124);
  for (int round = 0; round < 10; ++round) {
    // Random conjunction of 1-3 terms |r∩s| >= c0 + cr|r| + cs|s| with
    // nonnegative size coefficients (so larger sets require more overlap
    // — the monotone shape the Section 6 machinery expects) and at least
    // one term that forces a fraction of both sides.
    std::vector<LinearOverlapTerm> terms;
    double fr = 0.3 + 0.5 * rng.NextDouble();
    double fs = 0.3 + 0.5 * rng.NextDouble();
    terms.push_back(LinearOverlapTerm{0, fr / 2, fs / 2});
    uint32_t extra = rng.Uniform(3);
    for (uint32_t t = 0; t < extra; ++t) {
      terms.push_back(LinearOverlapTerm{rng.NextDouble() * 2,
                                        0.6 * rng.NextDouble(),
                                        0.6 * rng.NextDouble()});
    }
    auto predicate = std::make_shared<ConjunctivePredicate>(
        terms, "fuzz-" + std::to_string(round));

    SetCollection input = RandomWorkload(rng, 70, 40, 150, 20);
    GeneralPartEnumParams params;
    params.max_set_size = input.max_set_size();
    params.seed = rng.Next64();
    auto scheme = GeneralPartEnumScheme::Create(predicate, params);
    ASSERT_TRUE(scheme.ok());
    JoinResult result = Join(SelfJoinRequest(input, *scheme, *predicate));
    EXPECT_EQ(result.pairs, NestedLoopSelfJoin(input, *predicate))
        << "round " << round;
  }
}

TEST(FuzzTest, PrefixFilterRandomGammas) {
  Rng rng(0xF125);
  for (int round = 0; round < 10; ++round) {
    double gamma = 0.55 + 0.4 * rng.NextDouble();
    SetCollection input = RandomWorkload(rng, 90, 40, 250, 22);
    auto predicate = std::make_shared<JaccardPredicate>(gamma);
    auto scheme = PrefixFilterScheme::Create(predicate, input);
    ASSERT_TRUE(scheme.ok());
    JoinResult result = Join(SelfJoinRequest(input, *scheme, *predicate));
    EXPECT_EQ(result.pairs, NestedLoopSelfJoin(input, *predicate))
        << "round " << round << " gamma=" << gamma;
  }
}

TEST(FuzzTest, BoundaryGammasExactlyRepresentableRatios) {
  // Pairs lying exactly on the threshold (jaccard == gamma) are the
  // rounding danger zone; construct them deliberately: jaccard m/(m+2)
  // with gamma = m/(m+2).
  for (uint32_t m : {2u, 4u, 8u, 16u}) {
    double gamma = static_cast<double>(m) / (m + 2);
    std::vector<ElementId> shared;
    for (uint32_t e = 0; e < m; ++e) shared.push_back(e);
    std::vector<ElementId> a = shared, b = shared;
    a.push_back(1000);
    b.push_back(2000);
    // |a∩b| = m, |a∪b| = m+2 => jaccard exactly gamma.
    SetCollection input = SetCollection::FromVectors({a, b});
    JaccardPredicate predicate(gamma);
    ASSERT_TRUE(predicate.Evaluate(input.set(0), input.set(1)));

    PartEnumJaccardParams params;
    params.gamma = gamma;
    params.max_set_size = input.max_set_size();
    auto scheme = PartEnumJaccardScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
    EXPECT_EQ(result.pairs, (std::vector<SetPair>{{0, 1}})) << "m=" << m;
  }
}

}  // namespace
}  // namespace ssjoin
