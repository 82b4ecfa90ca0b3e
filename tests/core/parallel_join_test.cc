// Parallel execution must be invisible: for every thread count the three
// drivers return byte-identical pairs AND byte-identical stats counters
// (signatures, collisions, candidates, results, false positives) to the
// num_threads == 1 serial reference — across predicate families
// (hamming / jaccard / weighted), self- and binary joins, and degenerate
// inputs. The GeneratorExactnessTest cases pin the candidate generator
// itself to a brute-force oracle at 1-4 threads and every bitmap width.
// These tests also run under the tsan preset (ctest -L parallel) to
// prove the pool and the stat reductions are race-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/identity_scheme.h"
#include "baselines/prefix_filter.h"
#include "core/execution_guard.h"
#include "core/kernels/bitmap_filter.h"
#include "core/partenum.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "core/types.h"
#include "core/weighted.h"
#include "core/wtenum.h"
#include "data/generators.h"
#include "text/idf.h"
#include "text/tokenizer.h"

namespace ssjoin {
namespace {

std::vector<size_t> ThreadGrid() {
  size_t hw = std::thread::hardware_concurrency();
  std::vector<size_t> grid = {2, 4};
  if (hw > 1 && hw != 2 && hw != 4) grid.push_back(hw);
  return grid;
}

void ExpectSameStats(const JoinStats& a, const JoinStats& b,
                     const char* label, size_t threads) {
  EXPECT_EQ(a.signatures_r, b.signatures_r) << label << " t=" << threads;
  EXPECT_EQ(a.signatures_s, b.signatures_s) << label << " t=" << threads;
  EXPECT_EQ(a.signature_collisions, b.signature_collisions)
      << label << " t=" << threads;
  EXPECT_EQ(a.candidates, b.candidates) << label << " t=" << threads;
  EXPECT_EQ(a.results, b.results) << label << " t=" << threads;
  EXPECT_EQ(a.false_positives, b.false_positives)
      << label << " t=" << threads;
}

// The self-join at every thread count must match the serial reference
// byte for byte.
void ExpectSelfJoinInvariant(const SetCollection& input,
                             const SignatureScheme& scheme,
                             const Predicate& predicate, const char* label) {
  JoinOptions serial;
  serial.num_threads = 1;
  JoinResult reference = Join(SelfJoinRequest(input, scheme, predicate, serial));
  for (size_t threads : ThreadGrid()) {
    JoinOptions options;
    options.num_threads = threads;
    JoinResult parallel = Join(SelfJoinRequest(input, scheme, predicate,
                                            options));
    EXPECT_EQ(reference.pairs, parallel.pairs) << label << " t=" << threads;
    ExpectSameStats(reference.stats, parallel.stats, label, threads);
  }
}

void ExpectBinaryJoinInvariant(const SetCollection& r,
                               const SetCollection& s,
                               const SignatureScheme& scheme,
                               const Predicate& predicate,
                               const char* label) {
  JoinOptions serial;
  serial.num_threads = 1;
  JoinResult reference = Join(BinaryJoinRequest(r, s, scheme, predicate, serial));
  for (size_t threads : ThreadGrid()) {
    JoinOptions options;
    options.num_threads = threads;
    JoinResult parallel = Join(BinaryJoinRequest(r, s, scheme, predicate, options));
    EXPECT_EQ(reference.pairs, parallel.pairs) << label << " t=" << threads;
    ExpectSameStats(reference.stats, parallel.stats, label, threads);
  }
}

SetCollection HammingWorkload(size_t n) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = 30;
  options.domain_size = 400;
  options.similar_fraction = 0.15;
  options.mutations = 2;
  options.seed = 21;
  return GenerateUniformSets(options);
}

TEST(ParallelJoinTest, HammingSelfJoin) {
  SetCollection input = HammingWorkload(600);
  PartEnumParams params = PartEnumParams::Default(4);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  HammingPredicate predicate(4);
  ExpectSelfJoinInvariant(input, *scheme, predicate, "hamming/self");
}

TEST(ParallelJoinTest, HammingBinaryJoin) {
  SetCollection r = HammingWorkload(400);
  UniformSetOptions options;
  options.num_sets = 300;
  options.set_size = 30;
  options.domain_size = 400;
  options.similar_fraction = 0.15;
  options.mutations = 2;
  options.seed = 22;
  SetCollection s = GenerateUniformSets(options);
  PartEnumParams params = PartEnumParams::Default(4);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  HammingPredicate predicate(4);
  ExpectBinaryJoinInvariant(r, s, *scheme, predicate, "hamming/binary");
}

SetCollection JaccardWorkload(size_t n, uint64_t seed) {
  AddressOptions options;
  options.num_strings = n;
  options.duplicate_fraction = 0.2;
  options.max_typos = 2;
  options.seed = seed;
  WordTokenizer tokenizer;
  return tokenizer.TokenizeAll(GenerateAddressStrings(options));
}

TEST(ParallelJoinTest, JaccardSelfJoinPartEnum) {
  SetCollection input = JaccardWorkload(500, 31);
  for (double gamma : {0.8, 0.9}) {
    PartEnumJaccardParams params;
    params.gamma = gamma;
    params.max_set_size = input.max_set_size();
    auto scheme = PartEnumJaccardScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    JaccardPredicate predicate(gamma);
    ExpectSelfJoinInvariant(input, *scheme, predicate, "jaccard/pen");
  }
}

TEST(ParallelJoinTest, JaccardSelfJoinPrefixFilter) {
  SetCollection input = JaccardWorkload(400, 32);
  auto predicate = std::make_shared<JaccardPredicate>(0.85);
  auto scheme = PrefixFilterScheme::Create(predicate, input);
  ASSERT_TRUE(scheme.ok());
  ExpectSelfJoinInvariant(input, *scheme, *predicate, "jaccard/pf");
}

TEST(ParallelJoinTest, JaccardBinaryJoin) {
  SetCollection r = JaccardWorkload(350, 33);
  SetCollection s = JaccardWorkload(300, 34);
  PartEnumJaccardParams params;
  params.gamma = 0.85;
  params.max_set_size = std::max(r.max_set_size(), s.max_set_size());
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);
  ExpectBinaryJoinInvariant(r, s, *scheme, predicate, "jaccard/binary");
}

TEST(ParallelJoinTest, WeightedSelfJoin) {
  SetCollection input = JaccardWorkload(350, 35);
  auto idf = std::make_shared<IdfWeights>(IdfWeights::Compute(input));
  WeightFunction weights = [idf](ElementId e) {
    return idf->Weight(e) + 0.01;
  };
  double min_ws = std::numeric_limits<double>::infinity();
  for (SetId id = 0; id < input.size(); ++id) {
    if (input.set_size(id) == 0) continue;
    min_ws = std::min(min_ws, WeightedSize(input.set(id), weights));
  }
  ASSERT_FALSE(std::isinf(min_ws));
  double gamma = 0.8;
  WtEnumParams params;
  params.pruning_threshold = idf->DefaultPruningThreshold();
  auto scheme =
      WtEnumScheme::CreateJaccard(weights, weights, gamma, min_ws, params);
  ASSERT_TRUE(scheme.ok());
  WeightedJaccardPredicate predicate(gamma, weights);
  ExpectSelfJoinInvariant(input, *scheme, predicate, "weighted/wen");
}

TEST(ParallelJoinTest, EmptyCollection) {
  SetCollection empty;
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  ExpectSelfJoinInvariant(empty, scheme, predicate, "empty/self");
  ExpectBinaryJoinInvariant(empty, empty, scheme, predicate,
                            "empty/binary");
  for (size_t threads : ThreadGrid()) {
    JoinOptions options;
    options.num_threads = threads;
    JoinResult result = Join(SelfJoinRequest(empty, scheme, predicate,
                                          options));
    EXPECT_TRUE(result.pairs.empty());
    EXPECT_EQ(result.stats.F2(), 0u);
  }
}

TEST(ParallelJoinTest, SingleSetCollection) {
  SetCollection one = SetCollection::FromVectors({{1, 2, 3}});
  IdentityScheme scheme;
  JaccardPredicate predicate(0.5);
  ExpectSelfJoinInvariant(one, scheme, predicate, "single/self");
  SetCollection other = SetCollection::FromVectors({{1, 2, 3}, {4, 5}});
  ExpectBinaryJoinInvariant(one, other, scheme, predicate,
                            "single/binary");
}

TEST(ParallelJoinTest, CollectionWithEmptySets) {
  SetCollection input = SetCollection::FromVectors(
      {{}, {1, 2, 3}, {}, {1, 2, 3}, {7, 8}});
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  ExpectSelfJoinInvariant(input, scheme, predicate, "empty-sets/self");
}

TEST(ParallelJoinTest, DuplicateHeavyWorkload) {
  // Many identical sets: maximal candidate density, the stress case for
  // the per-set partner dedup over long signature groups.
  std::vector<std::vector<ElementId>> sets(60, {1, 2, 3, 4, 5});
  sets.resize(75, {6, 7, 8});
  SetCollection input = SetCollection::FromVectors(sets);
  IdentityScheme scheme;
  JaccardPredicate predicate(1.0);
  ExpectSelfJoinInvariant(input, scheme, predicate, "duplicates/self");
}

TEST(ParallelJoinTest, ZeroMeansHardwareConcurrency) {
  SetCollection input = JaccardWorkload(200, 36);
  PartEnumJaccardParams params;
  params.gamma = 0.85;
  params.max_set_size = input.max_set_size();
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);
  JoinOptions serial;
  serial.num_threads = 1;
  JoinOptions hardware;
  hardware.num_threads = 0;
  JoinResult a = Join(SelfJoinRequest(input, *scheme, predicate, serial));
  JoinResult b = Join(SelfJoinRequest(input, *scheme, predicate, hardware));
  EXPECT_EQ(a.pairs, b.pairs);
  ExpectSameStats(a.stats, b.stats, "hw/self", 0);
}

// ---- Candidate generation against a brute-force oracle ----------------
//
// The oracle reads the signature table directly: collisions are
// sum C(|g|, 2) over the signature groups (self-join) or
// sum |R_g| * |S_g| (binary join), candidates are the distinct pairs that
// share a signature, and the bitmap tallies and pairs follow from
// visiting those pairs in (r, s) order. `limit` stops the visit after
// that many candidates: the verify-side stats of a join that tripped at
// the chunk barrier there.

// Every non-empty set shares one signature and keeps its elements as
// signatures too: one near-universal group beside many small ones.
class NearUniversalScheme final : public SignatureScheme {
 public:
  std::string Name() const override { return "NearUniversal"; }
  void Generate(std::span<const ElementId> set,
                std::vector<Signature>* out) const override {
    if (set.empty()) return;
    out->push_back(Signature{1} << 40);
    for (ElementId e : set) out->push_back(e);
  }
};

// Identity signatures, except that the set {0} signs as every element
// 1..kLeaves: one small probe set whose partners are all the sets that
// hold one of those elements.
class StarScheme final : public SignatureScheme {
 public:
  static constexpr ElementId kLeaves = 17000;
  std::string Name() const override { return "Star"; }
  void Generate(std::span<const ElementId> set,
                std::vector<Signature>* out) const override {
    if (set.size() == 1 && set[0] == 0) {
      for (ElementId e = 1; e <= kLeaves; ++e) out->push_back(e);
      return;
    }
    for (ElementId e : set) out->push_back(e);
  }
};

struct OracleStats {
  uint64_t collisions = 0;
  uint64_t candidates = 0;
  uint64_t checked = 0;
  uint64_t pruned = 0;
  uint64_t results = 0;
  std::vector<SetPair> pairs;
};

OracleStats BruteForce(const SetCollection& r, const SetCollection* s,
                       const SignatureScheme& scheme,
                       const Predicate& predicate, uint32_t bitmap_bits,
                       uint64_t limit = std::numeric_limits<uint64_t>::max()) {
  const SetCollection& right = s != nullptr ? *s : r;
  std::map<Signature, std::pair<std::vector<SetId>, std::vector<SetId>>>
      groups;
  auto post = [&](const SetCollection& c, bool right_side) {
    for (SetId id = 0; id < c.size(); ++id) {
      std::vector<Signature> sigs;
      scheme.Generate(c.set(id), &sigs);
      std::sort(sigs.begin(), sigs.end());
      sigs.erase(std::unique(sigs.begin(), sigs.end()), sigs.end());
      for (Signature sig : sigs) {
        auto& g = groups[sig];
        (right_side ? g.second : g.first).push_back(id);
      }
    }
  };
  post(r, false);
  if (s != nullptr) post(*s, true);

  OracleStats out;
  std::vector<uint64_t> shared;
  for (const auto& [sig, g] : groups) {
    const std::vector<SetId>& a = g.first;
    if (s == nullptr) {
      out.collisions += a.size() * (a.size() - 1) / 2;
      for (size_t i = 0; i < a.size(); ++i) {
        for (size_t j = i + 1; j < a.size(); ++j) {
          shared.push_back(PackPair(a[i], a[j]));
        }
      }
    } else {
      out.collisions += a.size() * g.second.size();
      for (SetId x : a) {
        for (SetId y : g.second) shared.push_back(PackPair(x, y));
      }
    }
  }
  std::sort(shared.begin(), shared.end());
  shared.erase(std::unique(shared.begin(), shared.end()), shared.end());
  out.candidates = shared.size();

  kernels::BitmapTable bm_r, bm_s;
  if (bitmap_bits != 0) {
    bm_r = kernels::BitmapTable::Build(r, bitmap_bits);
    bm_s = kernels::BitmapTable::Build(right, bitmap_bits);
  }
  for (size_t i = 0; i < shared.size() && i < limit; ++i) {
    auto [a, b] = UnpackPair(shared[i]);
    if (bitmap_bits != 0) {
      ++out.checked;
      if (!kernels::BitmapTable::MayMatch(
              predicate, bm_r.row(a), bm_s.row(b), bm_r.words_per_set(),
              static_cast<uint32_t>(r.set_size(a)),
              static_cast<uint32_t>(right.set_size(b)))) {
        ++out.pruned;
        continue;
      }
    }
    if (predicate.Evaluate(r.set(a), right.set(b))) {
      out.pairs.emplace_back(a, b);
      ++out.results;
    }
  }
  return out;
}

void ExpectMatchesOracle(const JoinResult& got, const OracleStats& want,
                         bool pairs_kept, const std::string& label) {
  const JoinStats& st = got.stats;
  EXPECT_EQ(st.signature_collisions, want.collisions) << label;
  EXPECT_EQ(st.candidates, want.candidates) << label;
  EXPECT_EQ(st.bitmap_filter_checked, want.checked) << label;
  EXPECT_EQ(st.bitmap_filter_pruned, want.pruned) << label;
  EXPECT_EQ(st.results, want.results) << label;
  if (pairs_kept) {
    EXPECT_EQ(got.pairs, want.pairs) << label;
  }
}

// The in-memory and the forced-spill join, self or binary, at 1-4
// threads and every bitmap width.
void ExpectGeneratorExact(const SetCollection& r, const SetCollection* s,
                          const SignatureScheme& scheme,
                          const Predicate& predicate, const char* label) {
  for (uint32_t bits : {0u, 64u, 128u, 256u}) {
    OracleStats want = BruteForce(r, s, scheme, predicate, bits);
    ASSERT_EQ(want.checked, bits == 0 ? 0 : want.candidates) << label;
    for (size_t threads = 1; threads <= 4; ++threads) {
      for (bool spill : {false, true}) {
        JoinOptions options;
        options.num_threads = threads;
        options.bitmap_bits = bits;
        options.spill.policy =
            spill ? SpillPolicy::kForced : SpillPolicy::kDisabled;
        JoinRequest request =
            s != nullptr
                ? BinaryJoinRequest(r, *s, scheme, predicate, options)
                : SelfJoinRequest(r, scheme, predicate, options);
        JoinResult got = Join(request);
        std::string cell = std::string(label) + " bits=" +
                           std::to_string(bits) + " t=" +
                           std::to_string(threads) + " spill=" +
                           std::to_string(spill);
        ASSERT_TRUE(got.status.ok()) << cell << ": " << got.status.ToString();
        ExpectMatchesOracle(got, want, /*pairs_kept=*/true, cell);
        EXPECT_EQ(got.stats.false_positives,
                  want.candidates - want.results)
            << cell;
      }
    }
  }
}

TEST(GeneratorExactnessTest, EmptyCollection) {
  SetCollection empty;
  IdentityScheme scheme;
  JaccardPredicate predicate(0.5);
  ExpectGeneratorExact(empty, nullptr, scheme, predicate, "empty/self");
  ExpectGeneratorExact(empty, &empty, scheme, predicate, "empty/binary");
}

TEST(GeneratorExactnessTest, SetsWithoutSignatures) {
  // Empty sets have no identity signatures; most sets here sign nothing.
  SetCollection input = SetCollection::FromVectors(
      {{}, {1, 2}, {}, {}, {1, 2, 3}, {}, {2, 3}, {}, {9}});
  IdentityScheme scheme;
  JaccardPredicate predicate(0.5);
  ExpectGeneratorExact(input, nullptr, scheme, predicate, "nosig/self");
  SetCollection other = SetCollection::FromVectors({{}, {2, 3}, {}, {9}});
  ExpectGeneratorExact(input, &other, scheme, predicate, "nosig/binary");
}

TEST(GeneratorExactnessTest, NearUniversalSignatureGroup) {
  // 19,900 candidates: two verify chunks.
  SetCollection input = HammingWorkload(200);
  NearUniversalScheme scheme;
  JaccardPredicate predicate(0.7);
  ExpectGeneratorExact(input, nullptr, scheme, predicate, "universal/self");
  SetCollection other = HammingWorkload(90);
  ExpectGeneratorExact(input, &other, scheme, predicate,
                       "universal/binary");
}

TEST(GeneratorExactnessTest, AllIdenticalSets) {
  std::vector<std::vector<ElementId>> sets(150, {3, 5, 8, 13});
  SetCollection input = SetCollection::FromVectors(sets);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  ExpectGeneratorExact(input, nullptr, scheme, predicate, "identical/self");
  ExpectGeneratorExact(input, &input, scheme, predicate,
                       "identical/binary");
}

TEST(GeneratorExactnessTest, BinarySidesShareNoSignature) {
  std::vector<std::vector<ElementId>> left, right;
  for (ElementId i = 0; i < 50; ++i) {
    left.push_back({i, i + 1, i + 2});
    right.push_back({1000 + i, 1001 + i});
  }
  SetCollection r = SetCollection::FromVectors(left);
  SetCollection s = SetCollection::FromVectors(right);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.5);
  ExpectGeneratorExact(r, &s, scheme, predicate, "disjoint/binary");
}

TEST(GeneratorExactnessTest, PartnersStraddleChunkWithBreakerTrip) {
  // Sets 0-4 are identical (10 matching candidates); set 5 is the star
  // hub, a partner of each of the 17,000 leaf sets after it, so its
  // candidates cover pre-filter offsets [10, 17010) and straddle the
  // 16,384-candidate verify chunk. With 10 results after the first
  // chunk, ratio 100 trips the breaker at the second chunk's barrier.
  constexpr ElementId kTail = StarScheme::kLeaves;
  std::vector<std::vector<ElementId>> sets(5, {500000, 500001});
  sets.push_back({0});
  for (ElementId i = 1; i <= kTail; ++i) sets.push_back({i, 100000 + i});
  SetCollection input = SetCollection::FromVectors(sets);
  StarScheme scheme;
  JaccardPredicate predicate(0.5);
  constexpr uint64_t kChunk = 16384;
  for (uint32_t bits : {0u, 64u, 128u, 256u}) {
    OracleStats full = BruteForce(input, nullptr, scheme, predicate, bits);
    ASSERT_EQ(full.candidates, 10u + kTail);
    OracleStats first = BruteForce(input, nullptr, scheme, predicate, bits,
                                   kChunk);
    for (size_t threads = 1; threads <= 4; ++threads) {
      for (bool spill : {false, true}) {
        std::string cell = "straddle bits=" + std::to_string(bits) +
                           " t=" + std::to_string(threads) +
                           (spill ? " spill" : "");
        JoinOptions options;
        options.num_threads = threads;
        options.bitmap_bits = bits;
        if (spill) options.spill.policy = SpillPolicy::kForced;
        JoinResult untripped =
            Join(SelfJoinRequest(input, scheme, predicate, options));
        ASSERT_TRUE(untripped.status.ok()) << cell;
        ExpectMatchesOracle(untripped, full, /*pairs_kept=*/true, cell);

        ExecutionBudget budget;
        budget.max_candidate_ratio = 100;
        ExecutionGuard guard(budget);
        options.guard = &guard;
        JoinResult tripped =
            Join(SelfJoinRequest(input, scheme, predicate, options));
        ASSERT_EQ(tripped.status.code(), StatusCode::kResourceExhausted)
            << cell;
        EXPECT_EQ(guard.trip_reason(),
                  ExecutionGuard::TripReason::kCandidateExplosion)
            << cell;
        OracleStats partial = first;
        partial.collisions = full.collisions;
        partial.candidates = full.candidates;
        ExpectMatchesOracle(tripped, partial, /*pairs_kept=*/false, cell);
        EXPECT_TRUE(tripped.pairs.empty()) << cell;
        EXPECT_EQ(tripped.stats.false_positives, kChunk - first.results)
            << cell;
      }
    }
  }
}

}  // namespace
}  // namespace ssjoin
