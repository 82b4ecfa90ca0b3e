// The observability determinism suite (DESIGN.md Section 8) plus the
// Join() facade contract:
//
//   * the deterministic JSONL trace/metrics exports must be
//     byte-identical for num_threads 1 and 4, for every execution mode;
//   * a guard trip must surface as a span event, a root-span attribute,
//     and a guard.trips.<reason> counter;
//   * the facade must reproduce the legacy entry points exactly and
//     reject malformed requests with InvalidArgument;
//   * JoinOptions::verify == false must skip PostFilter (no pairs, no
//     verification counters) while still producing candidates.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "baselines/identity_scheme.h"
#include "core/execution_guard.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "core/string_join.h"
#include "data/generators.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/sql_ssjoin.h"
#include "text/tokenizer.h"

namespace ssjoin {
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

Result<PartEnumJaccardScheme> MakeScheme(const SetCollection& input,
                                         double gamma) {
  PartEnumJaccardParams params;
  params.gamma = gamma;
  params.max_set_size = input.max_set_size();
  return PartEnumJaccardScheme::Create(params);
}

// The stable span skeleton of a Join() run: one span per pipeline
// operator under the join root, carrying its deterministic row totals.
void ExpectOperatorSpans(const std::string& trace,
                         std::initializer_list<std::string> ops) {
  for (const std::string& op : ops) {
    EXPECT_NE(trace.find("\"name\":\"" + op + "\",\"attrs\":{\"rows_in\":"),
              std::string::npos)
        << op;
  }
  // A Join() trace has no Figure 2 phase spans.
  for (std::string phase : {"SigGen", "CandPair", "PostFilter"}) {
    EXPECT_EQ(trace.find("\"name\":\"" + phase + "\""), std::string::npos)
        << phase;
  }
}

// Runs `request` (with sinks attached) and returns the concatenated
// deterministic JSONL exports; `metrics` false attaches the tracer only.
std::string DeterministicExport(JoinRequest request, size_t threads,
                                bool metrics = true) {
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  request.options.num_threads = threads;
  request.options.tracer = &tracer;
  request.options.metrics = metrics ? &registry : nullptr;
  JoinResult result = Join(request);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  return obs::TraceJsonl(tracer) + obs::MetricsJsonl(registry);
}

TEST(ObsDeterminismTest, SelfJoinExportIsThreadCountInvariant) {
  SetCollection input = Workload(400, 51);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  JoinRequest request;
  request.left = &input;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kSelfJoin;
  // The in-memory skeleton first: pin the policy rather than inherit a
  // CI-wide SSJOIN_SPILL=force.
  request.options.spill.policy = SpillPolicy::kDisabled;

  std::string serial = DeterministicExport(request, 1);
  std::string parallel = DeterministicExport(request, 4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // The stable skeleton: join root plus one span per operator.
  EXPECT_NE(serial.find("\"name\":\"join\""), std::string::npos);
  ExpectOperatorSpans(serial, {"siggen", "candgen", "verify",
                               "dedup_emit"});
  // No wall-clock leakage into the deterministic stream.
  EXPECT_EQ(serial.find("seconds"), std::string::npos);
  EXPECT_EQ(serial.find("_us"), std::string::npos);

  // The forced-spill export must be thread-count invariant too.
  request.options.spill.policy = SpillPolicy::kForced;
  std::string spilled = DeterministicExport(request, 1);
  EXPECT_EQ(spilled, DeterministicExport(request, 4));
  EXPECT_NE(spilled.find("\"spill\":\"forced\""), std::string::npos);
  ExpectOperatorSpans(spilled, {"spill_partition", "verify", "dedup_emit"});
}

TEST(ObsDeterminismTest, BinaryJoinExportIsThreadCountInvariant) {
  SetCollection r = Workload(300, 52);
  SetCollection s = Workload(250, 53);
  auto scheme = MakeScheme(r, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  JoinRequest request;
  request.left = &r;
  request.right = &s;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kBinaryJoin;

  std::string serial = DeterministicExport(request, 1);
  EXPECT_EQ(serial, DeterministicExport(request, 4));
  EXPECT_NE(serial.find("\"mode\":\"binary\""), std::string::npos);
  EXPECT_NE(serial.find("input_sets_r"), std::string::npos);
}

// Operator spans need only a tracer: a join without a MetricsRegistry
// records the same stable skeleton, identical at every thread count.
TEST(ObsDeterminismTest, TracerOnlyJoinEmitsOperatorSkeleton) {
  SetCollection input = Workload(300, 56);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  JoinRequest request = SelfJoinRequest(input, *scheme, predicate);
  request.options.spill.policy = SpillPolicy::kDisabled;
  std::string serial = DeterministicExport(request, 1, /*metrics=*/false);
  EXPECT_EQ(serial, DeterministicExport(request, 4, /*metrics=*/false));
  ExpectOperatorSpans(serial, {"siggen", "candgen", "verify",
                               "dedup_emit"});
}

// The auto-spill degrade: the in-memory chain abandons its tables under
// the memory budget and the same join reruns out-of-core. The rebuild
// must be thread-count invariant too, and must never latch the guard.
TEST(ObsDeterminismTest, AutoSpillDegradeExportIsThreadCountInvariant) {
  // A huge element domain keeps candidates sparse while the posting
  // count stays large, so the budget below fits the spilled join but
  // not the in-memory signature table.
  UniformSetOptions workload;
  workload.num_sets = 2000;
  workload.set_size = 30;
  workload.domain_size = 1000000;
  workload.similar_fraction = 0.1;
  workload.mutations = 2;
  workload.seed = 99;
  SetCollection input = GenerateUniformSets(workload);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.6);
  ExecutionBudget budget;
  budget.memory_budget_bytes = input.total_elements() * 7;

  std::string exports[2];
  size_t threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ExecutionGuard guard(budget);
    JoinRequest request = SelfJoinRequest(input, scheme, predicate);
    request.options.guard = &guard;
    request.options.spill.policy = SpillPolicy::kAuto;
    exports[i] = DeterministicExport(request, threads[i]);
    EXPECT_FALSE(guard.tripped()) << "threads=" << threads[i];
  }
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_NE(exports[0].find("\"spill\":\"auto\""), std::string::npos);
}

TEST(ObsDeterminismTest, GuardTripSurfacesEverywhere) {
  SetCollection input = Workload(300, 55);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  CancellationToken token;
  token.RequestCancel();  // trips at the first checkpoint
  ExecutionGuard guard(ExecutionBudget{}, token);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  JoinRequest request;
  request.left = &input;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.options.guard = &guard;
  request.options.tracer = &tracer;
  request.options.metrics = &metrics;

  JoinResult result = Join(request);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);

  // Counter: guard.trips.cancelled == 1.
  EXPECT_EQ(metrics.counter("guard.trips.cancelled").value(), 1u);

  // Span event + attribute on the root span.
  auto spans = tracer.Snapshot();
  ASSERT_FALSE(spans.empty());
  const obs::SpanRecord& root = spans[0];
  EXPECT_EQ(root.name, "join");
  bool event_found = false;
  for (const obs::SpanEvent& event : root.events) {
    if (event.name == "guard_trip" && event.detail == "cancelled") {
      event_found = true;
    }
  }
  EXPECT_TRUE(event_found);
  bool attr_found = false;
  for (const auto& [key, value] : root.attrs) {
    if (key == "trip" && value.s == "cancelled") attr_found = true;
  }
  EXPECT_TRUE(attr_found);
}

TEST(JoinFacadeTest, BuildersMatchExplicitRequests) {
  SetCollection input = Workload(300, 56);
  SetCollection other = Workload(250, 57);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  {
    JoinRequest request;
    request.left = &input;
    request.scheme = &*scheme;
    request.predicate = &predicate;
    JoinResult facade = Join(request);
    JoinResult legacy = Join(SelfJoinRequest(input, *scheme, predicate));
    EXPECT_EQ(facade.pairs, legacy.pairs);
    EXPECT_EQ(facade.stats.candidates, legacy.stats.candidates);
    EXPECT_EQ(facade.stats.results, legacy.stats.results);
  }
  {
    JoinRequest request;
    request.left = &input;
    request.right = &other;
    request.scheme = &*scheme;
    request.predicate = &predicate;
    request.mode = ExecutionMode::kBinaryJoin;
    JoinResult facade = Join(request);
    JoinResult legacy = Join(BinaryJoinRequest(input, other, *scheme, predicate));
    EXPECT_EQ(facade.pairs, legacy.pairs);
    EXPECT_EQ(facade.stats.results, legacy.stats.results);
  }
}

TEST(JoinFacadeTest, RejectsMalformedRequests) {
  SetCollection input = Workload(50, 58);
  SetCollection other = Workload(40, 59);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  JoinRequest valid;
  valid.left = &input;
  valid.scheme = &*scheme;
  valid.predicate = &predicate;
  ASSERT_TRUE(Join(valid).status.ok());

  {
    JoinRequest request = valid;
    request.left = nullptr;
    EXPECT_EQ(Join(request).status.code(), StatusCode::kInvalidArgument);
  }
  {
    JoinRequest request = valid;
    request.scheme = nullptr;
    EXPECT_EQ(Join(request).status.code(), StatusCode::kInvalidArgument);
  }
  {
    JoinRequest request = valid;
    request.predicate = nullptr;
    EXPECT_EQ(Join(request).status.code(), StatusCode::kInvalidArgument);
  }
  {
    // A distinct right side on a self-join is a contract violation...
    JoinRequest request = valid;
    request.right = &other;
    EXPECT_EQ(Join(request).status.code(), StatusCode::kInvalidArgument);
    // ...but right == left is tolerated (a self-join spelled binary-ish).
    request.right = &input;
    EXPECT_TRUE(Join(request).status.ok());
  }
  {
    JoinRequest request = valid;
    request.mode = ExecutionMode::kBinaryJoin;
    request.right = nullptr;
    EXPECT_EQ(Join(request).status.code(), StatusCode::kInvalidArgument);
  }
}

TEST(JoinFacadeTest, ExecutionModeNames) {
  EXPECT_EQ(ExecutionModeName(ExecutionMode::kSelfJoin), "self");
  EXPECT_EQ(ExecutionModeName(ExecutionMode::kBinaryJoin), "binary");
}

// Regression: JoinOptions::verify was documented but never read. With
// verify == false the join must stop after candidate generation —
// signatures and candidates as in a full run, but no pairs, no
// results/false_positives, and no PostFilter time.
TEST(JoinVerifyOptionTest, VerifyFalseSkipsPostFilter) {
  SetCollection input = Workload(300, 60);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  JoinResult full = Join(SelfJoinRequest(input, *scheme, predicate));
  ASSERT_GT(full.stats.candidates, 0u);
  ASSERT_GT(full.stats.results, 0u);

  JoinRequest serial;
  serial.left = &input;
  serial.scheme = &*scheme;
  serial.predicate = &predicate;
  serial.options.verify = false;
  JoinResult result = Join(serial);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.stats.results, 0u);
  EXPECT_EQ(result.stats.false_positives, 0u);
  EXPECT_EQ(result.stats.postfilter_seconds, 0.0);
  EXPECT_EQ(result.stats.candidates, full.stats.candidates);
  EXPECT_EQ(result.stats.signatures_r, full.stats.signatures_r);

  // Parallel verify=false must agree with serial verify=false.
  JoinRequest request;
  request.left = &input;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.options.verify = false;
  request.options.num_threads = 4;
  JoinResult parallel = Join(request);
  ASSERT_TRUE(parallel.status.ok());
  EXPECT_EQ(parallel.stats.candidates, full.stats.candidates);
  EXPECT_TRUE(parallel.pairs.empty());
}

TEST(ObsIntegrationTest, StringJoinEmitsOperatorSkeleton) {
  std::vector<std::string> strings = {"washington", "woshington",
                                      "seattle", "seattlle", "portland"};
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  StringJoinOptions options;
  options.edit_threshold = 1;
  options.tracer = &tracer;
  options.metrics = &metrics;
  auto result = StringSimilaritySelfJoin(strings, options);
  ASSERT_TRUE(result.ok());
  // A string join is a Join() over q-gram bags: same root, same
  // operator chain. StringJoinOptions has no spill knob, so a CI-wide
  // SSJOIN_SPILL=force runs the spilled chain.
  std::string jsonl = obs::TraceJsonl(tracer);
  EXPECT_NE(jsonl.find("\"mode\":\"self\""), std::string::npos);
  if (result->stats.spill_partitions > 0) {
    ExpectOperatorSpans(jsonl, {"spill_partition", "verify", "dedup_emit"});
  } else {
    ExpectOperatorSpans(jsonl, {"siggen", "candgen", "verify",
                                "dedup_emit"});
  }
  EXPECT_EQ(metrics.counter("join.candidates").value(),
            result->stats.candidates);
  EXPECT_GT(result->stats.candidates, 0u);
}

TEST(ObsIntegrationTest, DbmsPlanPublishesRowCounts) {
  SetCollection input = Workload(150, 61);
  // A permissive threshold so the tiny workload yields output rows —
  // this test is about the counters, not the join selectivity.
  auto scheme = MakeScheme(input, 0.6);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.6);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  auto result = relational::DbmsSelfJoin(
      input, *scheme, predicate, relational::IntersectPlan::kHashJoin,
      /*guard=*/nullptr, &tracer, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(metrics.counter("dbms.rows.signature").value(), 0u);
  EXPECT_GT(metrics.counter("dbms.rows.output").value(), 0u);
  std::string jsonl = obs::TraceJsonl(tracer);
  EXPECT_NE(jsonl.find("\"mode\":\"dbms_self\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"plan\":\"hash_join\""), std::string::npos);
}

}  // namespace
}  // namespace ssjoin
