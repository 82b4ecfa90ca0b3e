// Per-operator pipeline metrics (core/pipeline/operator.h +
// obs/join_telemetry.h): the pipeline.<op>.rows_in / rows_out counters
// are kStable — exactly equal at any thread count and spill mode for the
// same (input, mode) — and the runtime batches/ns counters exist without
// leaking into the stable export. Runs under the `obs` ctest label so
// the TSan CI job covers the instrument + heartbeat interleaving too.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "baselines/identity_scheme.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "text/tokenizer.h"

namespace ssjoin::obs {
namespace {

SetCollection Workload(size_t n, uint64_t seed) {
  AddressOptions options;
  options.num_strings = n;
  options.duplicate_fraction = 0.2;
  options.max_typos = 2;
  options.seed = seed;
  WordTokenizer tokenizer;
  return tokenizer.TokenizeAll(GenerateAddressStrings(options));
}

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct PipelineCounters {
  std::map<std::string, uint64_t> stable_rows;  // .rows_in / .rows_out
  std::map<std::string, uint64_t> runtime;      // .batches / .ns
  uint64_t results = 0;
  uint64_t candidates = 0;
  JoinStats stats;
};

PipelineCounters RunAndCollect(const SetCollection& input,
                               const PartEnumJaccardScheme& scheme,
                               const JaccardPredicate& predicate,
                               ExecutionMode mode, size_t threads,
                               SpillPolicy spill, bool verify = true) {
  MetricsRegistry metrics;
  JoinRequest request;
  request.left = &input;
  request.scheme = &scheme;
  request.predicate = &predicate;
  request.mode = mode;
  request.options.num_threads = threads;
  request.options.metrics = &metrics;
  request.options.spill.policy = spill;
  request.options.verify = verify;
  JoinResult result = Join(request);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();

  PipelineCounters out;
  out.stats = result.stats;
  out.results = result.stats.results;
  out.candidates = result.stats.candidates;
  for (const MetricRecord& record : metrics.Snapshot()) {
    if (record.name.rfind("pipeline.", 0) != 0) continue;
    if (EndsWith(record.name, ".rows_in") ||
        EndsWith(record.name, ".rows_out")) {
      EXPECT_EQ(record.stability, Stability::kStable) << record.name;
      out.stable_rows[record.name] = record.counter_value;
    } else {
      EXPECT_EQ(record.stability, Stability::kRuntime) << record.name;
      out.runtime[record.name] = record.counter_value;
    }
  }
  return out;
}

class PipelineMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    input_ = Workload(400, 81);
    PartEnumJaccardParams params;
    params.gamma = 0.85;
    params.max_set_size = input_.max_set_size();
    auto scheme = PartEnumJaccardScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    scheme_.emplace(std::move(*scheme));
  }

  SetCollection input_;
  std::optional<PartEnumJaccardScheme> scheme_;
  JaccardPredicate predicate_{0.85};
};

TEST_F(PipelineMetricsTest, RowCountersExactlyEqualAcrossThreadCounts) {
  PipelineCounters serial =
      RunAndCollect(input_, *scheme_, predicate_, ExecutionMode::kSelfJoin, 1,
                    SpillPolicy::kDisabled);
  ASSERT_FALSE(serial.stable_rows.empty());
  for (size_t threads : {2u, 4u}) {
    PipelineCounters parallel =
        RunAndCollect(input_, *scheme_, predicate_, ExecutionMode::kSelfJoin,
                      threads, SpillPolicy::kDisabled);
    EXPECT_EQ(serial.stable_rows, parallel.stable_rows)
        << "threads=" << threads;
    EXPECT_EQ(serial.results, parallel.results);
  }
}

TEST_F(PipelineMetricsTest, RowCountersExactlyEqualUnderForcedSpill) {
  PipelineCounters serial =
      RunAndCollect(input_, *scheme_, predicate_, ExecutionMode::kSelfJoin, 1,
                    SpillPolicy::kForced);
  ASSERT_FALSE(serial.stable_rows.empty());
  PipelineCounters parallel =
      RunAndCollect(input_, *scheme_, predicate_, ExecutionMode::kSelfJoin, 4,
                    SpillPolicy::kForced);
  EXPECT_EQ(serial.stable_rows, parallel.stable_rows);
  EXPECT_EQ(serial.results, parallel.results);
}

TEST_F(PipelineMetricsTest, CountersTieOutToJoinStats) {
  PipelineCounters c =
      RunAndCollect(input_, *scheme_, predicate_, ExecutionMode::kSelfJoin,
                    1, SpillPolicy::kDisabled);
  // The verify operator consumes every deduplicated candidate and emits
  // every result; the emit operator passes the results through.
  ASSERT_TRUE(c.stable_rows.count("pipeline.verify.rows_out"));
  EXPECT_EQ(c.stable_rows["pipeline.verify.rows_out"], c.results);
  ASSERT_TRUE(c.stable_rows.count("pipeline.siggen.rows_in"));
  EXPECT_EQ(c.stable_rows["pipeline.siggen.rows_in"], input_.size());
  // Runtime detail exists for every instrumented operator (one batches
  // and one ns counter per rows_out counter).
  size_t rows_out_counters = 0;
  for (const auto& [name, value] : c.stable_rows) {
    rows_out_counters += EndsWith(name, ".rows_out");
  }
  size_t ns_counters = 0;
  for (const auto& [name, value] : c.runtime) {
    ns_counters += EndsWith(name, ".ns");
  }
  EXPECT_EQ(rows_out_counters, ns_counters);
}

// One timing vocabulary: the JoinStats phase seconds are the operator
// self-times summed by paper phase, from the same nanoseconds the
// pipeline.<op>.ns counters publish. SigGen is siggen; CandPair is the
// candidate source (candgen, or the fused spill_partition, each running
// the bitmap test); PostFilter is verify + dedup_emit.
// Without verification dedup_emit only drains the source: it counts
// under CandPair and postfilter_seconds stays 0.
TEST_F(PipelineMetricsTest, PhaseSecondsTieOutToOperatorSelfTimes) {
  struct Chain {
    ExecutionMode mode;
    SpillPolicy spill;
    bool verify;
  };
  for (Chain c : {Chain{ExecutionMode::kSelfJoin, SpillPolicy::kDisabled, true},
                  Chain{ExecutionMode::kSelfJoin, SpillPolicy::kForced, true},
                  Chain{ExecutionMode::kSelfJoin, SpillPolicy::kDisabled,
                        false}}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(ExecutionModeName(c.mode)) + " spill=" +
                   std::to_string(static_cast<int>(c.spill)) + " verify=" +
                   std::to_string(c.verify) + " threads=" +
                   std::to_string(threads));
      PipelineCounters p = RunAndCollect(input_, *scheme_, predicate_, c.mode,
                                         threads, c.spill, c.verify);
      auto s = [&](const std::string& op) {
        return static_cast<double>(p.runtime["pipeline." + op + ".ns"]) / 1e9;
      };
      EXPECT_DOUBLE_EQ(p.stats.siggen_seconds, s("siggen"));
      EXPECT_DOUBLE_EQ(p.stats.candpair_seconds,
                       s("candgen") + s("spill_partition") +
                           (c.verify ? 0.0 : s("dedup_emit")));
      EXPECT_DOUBLE_EQ(p.stats.postfilter_seconds,
                       c.verify ? s("verify") + s("dedup_emit") : 0.0);
      EXPECT_GT(p.stats.candpair_seconds, 0.0);
    }
  }
}

TEST_F(PipelineMetricsTest, RuntimeCountersStayOutOfStableExport) {
  MetricsRegistry metrics;
  JoinRequest request;
  request.left = &input_;
  request.scheme = &*scheme_;
  request.predicate = &predicate_;
  request.options.metrics = &metrics;
  // The siggen operator exists only in memory; pin the policy rather
  // than inherit a CI-wide SSJOIN_SPILL=force.
  request.options.spill.policy = SpillPolicy::kDisabled;
  JoinResult result = Join(request);
  ASSERT_TRUE(result.status.ok());
  std::string stable = MetricsJsonl(metrics);
  EXPECT_NE(stable.find("pipeline.siggen.rows_out"), std::string::npos);
  EXPECT_EQ(stable.find("pipeline.siggen.batches"), std::string::npos);
  EXPECT_EQ(stable.find(".ns\""), std::string::npos);
}

// The verify-chunk latency histogram needs only a metrics sink: an
// unguarded join records one sample per chunk Verify pulls.
TEST_F(PipelineMetricsTest, VerifyChunkHistogramRecordedWithoutGuard) {
  MetricsRegistry metrics;
  JoinOptions options;
  options.metrics = &metrics;
  JoinResult result =
      Join(SelfJoinRequest(input_, *scheme_, predicate_, options));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const uint64_t batches = metrics.counter("pipeline.verify.batches").value();
  EXPECT_GT(batches, 0u);
  EXPECT_EQ(metrics.histogram("join.verify.chunk_micros").count(), batches);
}

// Verify forks the pool only for a chunk that holds enough surviving
// candidates to pay for it. A hub element shared by every set makes
// every pair an identity-signature candidate: dozens of 16,384-candidate
// chunks, of which the bitmap test leaves only the planted
// near-duplicates. A 4-thread join then forks only for siggen, the
// signature grouping, the bitmap table and the probe — four fork-joins,
// not one more per chunk — and returns the 1-thread pairs. A 1-thread
// pool runs every job inline and counts no fork-join at all.
TEST(VerifyForkJoinTest, SparseChunksAreEvaluatedInline) {
  SetCollectionBuilder builder;
  ElementId next = 1;
  for (size_t i = 0; i < 1200; ++i) {
    std::vector<ElementId> set = {0};
    for (int j = 0; j < 19; ++j) set.push_back(next++);
    builder.Add(set);
    if (i % 100 == 0) {  // a near-duplicate: jaccard 19/21
      set.back() = next++;
      builder.Add(set);
    }
  }
  SetCollection input = builder.Build();
  IdentityScheme scheme;
  JaccardPredicate predicate(0.8);

  struct Run {
    JoinResult result;
    std::map<std::string, uint64_t> counters;
  };
  auto run = [&](size_t threads) {
    MetricsRegistry metrics;
    JoinOptions options;
    options.num_threads = threads;
    options.metrics = &metrics;
    // The fork-join count is the in-memory chain's; a CI-wide
    // SSJOIN_SPILL=force must not reroute the run.
    options.spill.policy = SpillPolicy::kDisabled;
    Run out{Join(SelfJoinRequest(input, scheme, predicate, options)), {}};
    EXPECT_TRUE(out.result.status.ok()) << out.result.status.ToString();
    for (const MetricRecord& record : metrics.Snapshot()) {
      if (record.kind == MetricKind::kCounter) {
        out.counters[record.name] = record.counter_value;
      }
    }
    return out;
  };
  Run serial = run(1);
  Run parallel = run(4);

  EXPECT_GE(parallel.counters["pipeline.verify.batches"], 40u);
  EXPECT_EQ(parallel.result.stats.results, 12u);
  EXPECT_LT(parallel.counters["pipeline.verify.rows_in"], 100u);
  EXPECT_EQ(parallel.counters["threadpool.forkjoins"], 4u);
  EXPECT_EQ(serial.counters["threadpool.forkjoins"], 0u);
  EXPECT_EQ(parallel.result.pairs, serial.result.pairs);
  EXPECT_EQ(parallel.result.stats.candidates, serial.result.stats.candidates);
  EXPECT_EQ(parallel.result.stats.bitmap_filter_pruned,
            serial.result.stats.bitmap_filter_pruned);
  EXPECT_EQ(parallel.result.stats.false_positives,
            serial.result.stats.false_positives);
}

}  // namespace
}  // namespace ssjoin::obs
