// Out-of-core join coverage (ctest label `spill`; DESIGN.md Section
// 12). The contracts under test:
//   - forced-spill output is byte-identical (pairs AND legacy stats) to
//     the in-memory join for every driver, thread count, and partition
//     count;
//   - SpillPolicy::kAuto degrades to disk where kDisabled trips the
//     memory budget, and still produces the reference output, signing
//     each set once: the spill writer takes over SigGen's signatures;
//   - every injected I/O fault surfaces as a structured Status, retries
//     halve the partition count, and no spill file outlives the join on
//     any path — success, trip, or exhausted retries.
// Runs under the asan-ubsan CI preset via `ctest -L spill`.

#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "baselines/identity_scheme.h"
#include "core/execution_guard.h"
#include "core/predicate.h"
#include "core/spill/spill_join.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "util/temp_dir.h"

namespace ssjoin {
namespace {

using enum JoinPhase;
using fault::IoFault;
using fault::IoOp;
using TripReason = ExecutionGuard::TripReason;

SetCollection Workload(size_t n, uint64_t seed = 77) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = 30;
  options.domain_size = 500;
  options.similar_fraction = 0.2;
  options.mutations = 2;
  options.seed = seed;
  return GenerateUniformSets(options);
}

// A workload whose signature table dwarfs its candidate set: a huge
// element domain keeps cross-set collisions (and so candidate-pair
// memory) small while the posting count stays large. The auto-degrade
// tests need a memory budget the in-memory table cannot fit but the
// spilled join's per-partition reads and candidate buffers can.
SetCollection SparseWorkload(size_t n = 2000, uint64_t seed = 99,
                             uint32_t set_size = 30) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = set_size;
  options.domain_size = 1000000;
  options.similar_fraction = 0.1;
  options.mutations = 2;
  options.seed = seed;
  return GenerateUniformSets(options);
}

// Every comparable field: the spilled join must reproduce the legacy
// stats exactly; only the spill_* accounting and wall-clock may differ.
void ExpectSameOutput(const JoinResult& got, const JoinResult& want,
                      const std::string& label) {
  EXPECT_TRUE(got.status.ok()) << label << ": " << got.status.ToString();
  EXPECT_EQ(got.pairs, want.pairs) << label;
  EXPECT_EQ(got.stats.signatures_r, want.stats.signatures_r) << label;
  EXPECT_EQ(got.stats.signatures_s, want.stats.signatures_s) << label;
  EXPECT_EQ(got.stats.signature_collisions,
            want.stats.signature_collisions)
      << label;
  EXPECT_EQ(got.stats.candidates, want.stats.candidates) << label;
  EXPECT_EQ(got.stats.results, want.stats.results) << label;
  EXPECT_EQ(got.stats.false_positives, want.stats.false_positives) << label;
}

// Counts Sign(set) calls, so a test can see how often each set was
// signed. Generate runs on pool workers, hence the atomic.
class CountingScheme final : public SignatureScheme {
 public:
  std::string Name() const override { return "Counting"; }
  void Generate(std::span<const ElementId> set,
                std::vector<Signature>* out) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    inner_.Generate(set, out);
  }
  uint64_t calls() const { return calls_.load(); }
  void Reset() { calls_.store(0); }

 private:
  IdentityScheme inner_;
  mutable std::atomic<uint64_t> calls_{0};
};

// The CSR signature table footprint of one side under IdentityScheme:
// one signature per element plus one offset per set and a leading one.
size_t TableBytes(const SetCollection& input) {
  return input.total_elements() * sizeof(Signature) +
         (input.size() + 1) * sizeof(size_t);
}

size_t DirEntryCount(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") ++count;
  }
  ::closedir(dir);
  return count;
}

class SpillJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Clear();
    Result<util::ScopedTempDir> dir = util::ScopedTempDir::Create();
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    spill_base_ = std::move(dir.value());
  }
  void TearDown() override { fault::Clear(); }

  JoinRequest Request(const SetCollection& input, ExecutionMode mode,
                      SpillPolicy policy, size_t threads = 1,
                      uint32_t partitions = 0) {
    JoinRequest request;
    request.left = &input;
    request.scheme = &scheme_;
    request.predicate = &predicate_;
    request.mode = mode;
    request.options.num_threads = threads;
    request.options.spill.policy = policy;
    request.options.spill.partitions = partitions;
    // Always spill under a test-owned directory so leak checks can
    // enumerate it afterwards.
    request.options.spill.dir = spill_base_.path();
    return request;
  }

  IdentityScheme scheme_;
  JaccardPredicate predicate_{0.6};
  util::ScopedTempDir spill_base_;
};

TEST_F(SpillJoinTest, ForcedSpillMatchesInMemorySelfJoins) {
  SetCollection input = Workload(400);
  JoinResult reference =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kDisabled));
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_GT(reference.stats.results, 0u);
  EXPECT_EQ(reference.stats.spill_partitions, 0u);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (uint32_t partitions : {1u, 3u, 8u}) {
      JoinResult spilled = Join(Request(input, ExecutionMode::kSelfJoin,
                                        SpillPolicy::kForced, threads,
                                        partitions));
      std::string label = "threads=" + std::to_string(threads) +
                          " partitions=" + std::to_string(partitions);
      ExpectSameOutput(spilled, reference, label);
      EXPECT_EQ(spilled.stats.spill_partitions, partitions) << label;
      EXPECT_GT(spilled.stats.spill_bytes_written, 0u) << label;
      EXPECT_EQ(spilled.stats.spill_bytes_read,
                spilled.stats.spill_bytes_written)
          << label;
      EXPECT_EQ(spilled.stats.spill_retries, 0u) << label;
    }
  }
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u) << "leaked spill dirs";
}

TEST_F(SpillJoinTest, ForcedSpillMatchesInMemoryBinaryJoin) {
  SetCollection r = Workload(300, 7);
  SetCollection s = Workload(250, 8);
  JoinRequest reference_request =
      Request(r, ExecutionMode::kBinaryJoin, SpillPolicy::kDisabled);
  reference_request.right = &s;
  JoinResult reference = Join(reference_request);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_GT(reference.stats.candidates, 0u);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    JoinRequest request =
        Request(r, ExecutionMode::kBinaryJoin, SpillPolicy::kForced, threads);
    request.right = &s;
    JoinResult spilled = Join(request);
    std::string label = "binary threads=" + std::to_string(threads);
    ExpectSameOutput(spilled, reference, label);
    EXPECT_GT(spilled.stats.spill_partitions, 0u) << label;
  }
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u) << "leaked spill dirs";
}

TEST_F(SpillJoinTest, AutoDegradesWhereDisabledTrips) {
  SetCollection input = SparseWorkload();
  JoinResult reference =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kDisabled));
  ASSERT_TRUE(reference.status.ok());
  // Under half of the table's 16-bytes-per-posting floor, but several
  // times the spilled join's high-water (one partition's postings plus
  // the sparse candidate set and the verify bitmap).
  ExecutionBudget budget;
  budget.memory_budget_bytes = input.total_elements() * 7;

  ExecutionGuard trip_guard(budget);
  JoinRequest disabled =
      Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kDisabled);
  disabled.options.guard = &trip_guard;
  JoinResult tripped = Join(disabled);
  ASSERT_FALSE(tripped.status.ok());
  EXPECT_EQ(tripped.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(trip_guard.trip_reason(), TripReason::kMemory);
  EXPECT_TRUE(tripped.pairs.empty());

  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecutionGuard degrade_guard(budget);
    JoinRequest auto_request = Request(input, ExecutionMode::kSelfJoin,
                                       SpillPolicy::kAuto, threads);
    auto_request.options.guard = &degrade_guard;
    JoinResult degraded = Join(auto_request);
    ExpectSameOutput(degraded, reference,
                     "auto degrade threads=" + std::to_string(threads));
    EXPECT_FALSE(degrade_guard.tripped());
    EXPECT_GT(degraded.stats.spill_partitions, 0u);
  }
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u);
}

// An auto-spill degrade signs every set exactly once: SigGen checks the
// budget per detail::kSigGenChunkSets chunk and the spill write stage
// appends what SigGen handed over instead of generating it again. The
// sides span two chunks so the check can fire mid-side.
TEST_F(SpillJoinTest, AutoDegradeGeneratesEachSetOnce) {
  SetCollection big = SparseWorkload(9000, 31, 10);
  // Samples of `big`, so the binary joins find pairs.
  SetCollection small = big.Sample(4000, 32);
  SetCollection other = big.Sample(9000, 33);
  struct Case {
    const char* name;
    const SetCollection* left;
    const SetCollection* right;  // null: self-join
    size_t budget;
    bool fires_on_last_chunk;
  };
  const Case cases[] = {
      {"self", &big, nullptr, TableBytes(big) / 2, false},
      {"binary_inside_l", &big, &small, TableBytes(big) / 2, false},
      {"binary_inside_r", &big, &other,
       TableBytes(big) + TableBytes(other) / 2, false},
      {"last_chunk", &big, nullptr, TableBytes(big) - 1, true},
  };
  CountingScheme counting;
  for (const Case& c : cases) {
    const ExecutionMode mode = c.right != nullptr
                                   ? ExecutionMode::kBinaryJoin
                                   : ExecutionMode::kSelfJoin;
    const uint64_t input_sets =
        c.left->size() + (c.right != nullptr ? c.right->size() : 0);
    JoinRequest forced_request = Request(*c.left, mode, SpillPolicy::kForced);
    forced_request.right = c.right;
    forced_request.scheme = &counting;
    JoinResult forced = Join(forced_request);
    ASSERT_TRUE(forced.status.ok()) << c.name;
    ASSERT_GT(forced.stats.results, 0u) << c.name;
    for (size_t threads = 1; threads <= 4; ++threads) {
      const std::string label =
          std::string(c.name) + " threads=" + std::to_string(threads);
      ExecutionBudget budget;
      budget.memory_budget_bytes = c.budget;
      ExecutionGuard guard(budget);
      obs::MetricsRegistry metrics;
      JoinRequest request =
          Request(*c.left, mode, SpillPolicy::kAuto, threads);
      request.right = c.right;
      request.scheme = &counting;
      request.options.guard = &guard;
      request.options.metrics = &metrics;
      counting.Reset();
      JoinResult degraded = Join(request);
      EXPECT_EQ(counting.calls(), input_sets) << label;
      EXPECT_FALSE(guard.tripped()) << label;
      ExpectSameOutput(degraded, forced, label);
      EXPECT_EQ(degraded.stats.bitmap_filter_checked,
                forced.stats.bitmap_filter_checked)
          << label;
      EXPECT_EQ(degraded.stats.bitmap_filter_pruned,
                forced.stats.bitmap_filter_pruned)
          << label;
      EXPECT_EQ(degraded.stats.spill_partitions,
                forced.stats.spill_partitions)
          << label;
      EXPECT_EQ(degraded.stats.spill_retries, 0u) << label;
      EXPECT_EQ(degraded.stats.spill_bytes_written,
                forced.stats.spill_bytes_written)
          << label;
      EXPECT_EQ(degraded.stats.spill_bytes_read,
                forced.stats.spill_bytes_read)
          << label;
      // The degraded SigGen's pass stays visible in the returned stats,
      // and its rows_out counts the signatures it handed over.
      EXPECT_GT(degraded.stats.siggen_seconds, 0.0) << label;
      const uint64_t handed =
          metrics.counter("pipeline.siggen.rows_out").value();
      const uint64_t all = forced.stats.signatures_r +
                           (c.right != nullptr ? forced.stats.signatures_s
                                               : 0);
      EXPECT_GT(handed, 0u) << label;
      if (c.fires_on_last_chunk) {
        EXPECT_EQ(handed, all) << label;
      } else {
        EXPECT_LT(handed, all) << label;
      }
    }
  }
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u) << "leaked spill dirs";
}

// An I/O failure in the first attempt's write stage, after SigGen handed
// its signatures over: the retry at half the partitions generates every
// set again and lands on the forced-spill output.
TEST_F(SpillJoinTest, AutoDegradeRetryAfterHandover) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  SetCollection input = SparseWorkload(9000, 31, 10);
  JoinResult forced =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced));
  ASSERT_TRUE(forced.status.ok());

  ExecutionBudget budget;
  budget.memory_budget_bytes = TableBytes(input) / 2;
  ExecutionGuard guard(budget);
  JoinRequest request =
      Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kAuto);
  request.options.guard = &guard;
  fault::FaultPlan plan;
  plan.specs.push_back(fault::IoFaultAfter(IoOp::kWrite, IoFault::kEnospc));
  fault::SetPlan(plan);
  JoinResult result = Join(request);
  ExpectSameOutput(result, forced, "auto degrade retry");
  EXPECT_FALSE(guard.tripped());
  EXPECT_EQ(result.stats.spill_retries, 1u);
  EXPECT_EQ(result.stats.spill_partitions, spill::kDefaultPartitions / 2);
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u) << "leaked spill dirs";
}

TEST_F(SpillJoinTest, DiskBudgetTripsAsResourceExhausted) {
  SetCollection input = Workload(400);
  ExecutionBudget budget;
  budget.disk_budget_bytes = 256;  // a fraction of one partition file
  ExecutionGuard guard(budget);
  JoinRequest request =
      Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced);
  request.options.guard = &guard;
  JoinResult result = Join(request);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.trip_reason(), TripReason::kDiskBudget);
  EXPECT_EQ(guard.trip_phase(), kSpill);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u) << "leaked spill dirs";
}

TEST_F(SpillJoinTest, EveryIoFaultSurfacesStructuredAndLeaksNothing) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  SetCollection input = Workload(300);
  struct Case {
    IoOp op;
    IoFault io;
    const char* name;
  };
  const Case cases[] = {
      {IoOp::kOpen, IoFault::kFailOpen, "fail_open"},
      {IoOp::kWrite, IoFault::kShortWrite, "short_write"},
      {IoOp::kWrite, IoFault::kEnospc, "enospc"},
      {IoOp::kRead, IoFault::kCorruptRead, "corrupt_read"},
  };
  for (const Case& c : cases) {
    fault::FaultPlan plan;
    plan.specs.push_back(fault::IoFaultAfter(c.op, c.io));
    fault::SetPlan(plan);
    JoinRequest request =
        Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced);
    request.options.spill.max_retries = 0;
    JoinResult result = Join(request);
    ASSERT_FALSE(result.status.ok()) << c.name;
    EXPECT_EQ(result.status.code(), StatusCode::kIOError) << c.name;
    EXPECT_TRUE(result.pairs.empty()) << c.name;
    EXPECT_EQ(result.stats.spill_retries, 0u) << c.name;
    EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u)
        << c.name << ": leaked spill files";
    fault::Clear();
  }
}

TEST_F(SpillJoinTest, RetryRecoversFromTransientFault) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  SetCollection input = Workload(300);
  JoinResult reference =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kDisabled));
  ASSERT_TRUE(reference.status.ok());

  fault::FaultPlan plan;
  plan.specs.push_back(fault::IoFaultAfter(IoOp::kWrite, IoFault::kEnospc));
  fault::SetPlan(plan);
  JoinResult result =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced));
  ExpectSameOutput(result, reference, "retry after transient ENOSPC");
  EXPECT_EQ(result.stats.spill_retries, 1u);
  // The default 8 partitions were halved once for the retry.
  EXPECT_EQ(result.stats.spill_partitions, spill::kDefaultPartitions / 2);
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u);
}

TEST_F(SpillJoinTest, RetriesHalvePartitionsEachAttempt) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  SetCollection input = Workload(300);
  JoinResult reference =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kDisabled));
  ASSERT_TRUE(reference.status.ok());

  // One fault per attempt for two attempts: 8 -> 4 -> 2 partitions.
  fault::FaultPlan plan;
  plan.specs.push_back(fault::IoFaultAfter(IoOp::kWrite, IoFault::kEnospc));
  plan.specs.push_back(
      fault::IoFaultAfter(IoOp::kWrite, IoFault::kShortWrite));
  fault::SetPlan(plan);
  JoinResult result =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced));
  ExpectSameOutput(result, reference, "two-retry recovery");
  EXPECT_EQ(result.stats.spill_retries, 2u);
  EXPECT_EQ(result.stats.spill_partitions, spill::kDefaultPartitions / 4);
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u);
}

TEST_F(SpillJoinTest, ExhaustedRetriesSurfaceIOError) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  SetCollection input = Workload(300);
  // Short writes (not ENOSPC) so every attempt lands at least a header
  // prefix on disk and the failed-attempt byte accounting is visible.
  fault::FaultPlan plan;
  for (int i = 0; i < 3; ++i) {
    plan.specs.push_back(
        fault::IoFaultAfter(IoOp::kWrite, IoFault::kShortWrite));
  }
  fault::SetPlan(plan);
  JoinRequest request =
      Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced);
  // max_retries defaults to 2: three faulted attempts exhaust it.
  JoinResult result = Join(request);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kIOError);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.stats.spill_retries, 2u);
  // Failed attempts still account their spill traffic.
  EXPECT_GT(result.stats.spill_bytes_written, 0u);
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u) << "leaked spill files";
}

TEST_F(SpillJoinTest, SpillStatsAppearInToString) {
  SetCollection input = Workload(200);
  JoinResult spilled =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced));
  ASSERT_TRUE(spilled.status.ok());
  EXPECT_NE(spilled.stats.ToString().find("spill"), std::string::npos);
  JoinResult in_memory =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kDisabled));
  ASSERT_TRUE(in_memory.status.ok());
  EXPECT_EQ(in_memory.stats.ToString().find("spill"), std::string::npos);
}

// FaultPlan seam semantics, independent of the join drivers.
class FaultPlanTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Clear(); }
  void TearDown() override { fault::Clear(); }
};

TEST_F(FaultPlanTest, IoSpecFiresOnNthMatchingEventThenIsSpent) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::FaultPlan plan;
  plan.specs.push_back(
      fault::IoFaultAfter(IoOp::kWrite, IoFault::kEnospc, /*after=*/2));
  fault::SetPlan(plan);
  // Non-matching operations never advance the spec's counter.
  EXPECT_EQ(fault::ConsumeIo(IoOp::kRead), std::nullopt);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), std::nullopt);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), std::nullopt);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), IoFault::kEnospc);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), std::nullopt);  // one-shot
}

TEST_F(FaultPlanTest, CheckpointSpecIsPhaseTargeted) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::FaultPlan plan;
  plan.specs.push_back(
      fault::CheckpointTrip(kCandGen, StatusCode::kDeadlineExceeded));
  fault::SetPlan(plan);
  EXPECT_EQ(fault::ConsumeCheckpoint(kSigGen), std::nullopt);
  EXPECT_EQ(fault::ConsumeCheckpoint(kSpill), std::nullopt);
  EXPECT_EQ(fault::ConsumeCheckpoint(kCandGen),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fault::ConsumeCheckpoint(kCandGen), std::nullopt);
}

TEST_F(FaultPlanTest, SpecsFireInPlanOrder) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::FaultPlan plan;
  plan.specs.push_back(fault::IoFaultAfter(IoOp::kWrite, IoFault::kEnospc));
  plan.specs.push_back(
      fault::IoFaultAfter(IoOp::kWrite, IoFault::kShortWrite));
  fault::SetPlan(plan);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), IoFault::kEnospc);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), IoFault::kShortWrite);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), std::nullopt);
}

TEST_F(FaultPlanTest, ClearDisarmsPendingSpecs) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::FaultPlan plan;
  plan.specs.push_back(fault::IoFaultAfter(IoOp::kOpen, IoFault::kFailOpen));
  fault::SetPlan(plan);
  fault::Clear();
  EXPECT_EQ(fault::ConsumeIo(IoOp::kOpen), std::nullopt);
}

}  // namespace
}  // namespace ssjoin
