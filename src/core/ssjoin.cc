#include "core/ssjoin.h"

#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/driver_internal.h"
#include "core/kernels/bitmap_filter.h"
#include "core/kernels/intersect.h"
#include "core/pipeline/operator.h"
#include "core/pipeline/plan_builder.h"
#include "core/spill/spill_join.h"
#include "obs/explain.h"
#include "obs/join_telemetry.h"
#include "obs/log.h"
#include "util/thread_pool.h"

// The execution engine lives in core/pipeline: every mode is an operator
// chain (DESIGN.md Section 13) and the shared building blocks sit in
// core/driver_internal.cc. What remains here is the public API — request
// validation — plus the one plan runner: set up telemetry/pool/guard,
// build the chain, run it, publish the accounting.

namespace ssjoin {

std::string JoinStats::ToString() const {
  std::ostringstream os;
  os << "time=" << TotalSeconds() << "s (sig=" << siggen_seconds
     << " cand=" << candpair_seconds << " post=" << postfilter_seconds
     << ") sigs=" << signatures_r << "+" << signatures_s
     << " collisions=" << signature_collisions << " F2=" << F2()
     << " candidates=" << candidates << " results=" << results
     << " false_pos=" << false_positives
     << " bitmap_checked=" << bitmap_filter_checked
     << " bitmap_pruned=" << bitmap_filter_pruned;
  if (spill_partitions > 0) {
    os << " spill_partitions=" << spill_partitions
       << " spill_written=" << spill_bytes_written
       << " spill_read=" << spill_bytes_read
       << " spill_retries=" << spill_retries;
  }
  return os.str();
}

namespace {

// Publishes the end-of-join accounting — root-span attributes plus the
// join.* metrics — and, when the guard tripped, the trip cause as a span
// event on the root. Called on every exit path, so traces and metrics of
// tripped runs still carry the partial accounting the stats report.
// Everything published here is derived from JoinStats, which is
// byte-identical for every thread count (the determinism contract) —
// except the intersect-kernel dispatch deltas, which depend on the host
// CPU and are therefore published as kRuntime counters only.
// `isect_start` is the process-wide dispatch snapshot the runner took at
// entry; the delta is this join's kernel mix.
void FinishJoin(obs::JoinTelemetry& telem, const JoinResult& result,
                ExecutionGuard* guard, obs::ExplainReport* explain,
                const kernels::IntersectCounts& isect_start) {
  if (guard != nullptr && guard->tripped()) {
    std::string_view reason = TripReasonName(guard->trip_reason());
    telem.Event("guard_trip", reason);
    telem.Attr("trip", reason);
    if (explain != nullptr) explain->trip = std::string(reason);
  }
  const JoinStats& stats = result.stats;
  telem.Attr("signatures_r", stats.signatures_r);
  telem.Attr("signatures_s", stats.signatures_s);
  telem.Attr("signature_collisions", stats.signature_collisions);
  telem.Attr("candidates", stats.candidates);
  telem.Attr("results", stats.results);
  telem.Attr("false_positives", stats.false_positives);
  telem.AddCount("join.runs", 1);
  telem.AddCount("join.signatures", stats.signatures_r + stats.signatures_s);
  telem.AddCount("join.signature_collisions", stats.signature_collisions);
  telem.AddCount("join.candidates", stats.candidates);
  telem.AddCount("join.results", stats.results);
  telem.AddCount("join.false_positives", stats.false_positives);
  // Candidates kept per signature collision: the dedup effectiveness of
  // candidate generation (1.0 = every collision was a distinct pair).
  telem.SetGauge("join.candidate_dedup_ratio",
                 stats.signature_collisions > 0
                     ? static_cast<double>(stats.candidates) /
                           static_cast<double>(stats.signature_collisions)
                     : 1.0);
  telem.SetGauge("join.seconds.total", stats.TotalSeconds(),
                 obs::Stability::kRuntime);
  // Bitmap pre-filter effectiveness (DESIGN.md Section 11). The counters
  // derive from JoinStats, so they are deterministic; a disabled filter
  // reports 0 checked / 0 pruned and a 0.0 rate.
  telem.Attr("bitmap_filter_checked", stats.bitmap_filter_checked);
  telem.Attr("bitmap_filter_pruned", stats.bitmap_filter_pruned);
  telem.AddCount("join.bitmap_filter_checked", stats.bitmap_filter_checked);
  telem.AddCount("join.bitmap_filter_pruned", stats.bitmap_filter_pruned);
  telem.SetGauge("join.bitmap_prune_rate",
                 stats.bitmap_filter_checked > 0
                     ? static_cast<double>(stats.bitmap_filter_pruned) /
                           static_cast<double>(stats.bitmap_filter_checked)
                     : 0.0);
  // Which IntersectSize kernel verification actually ran: runtime-only
  // (the mix depends on __builtin_cpu_supports and the SSJOIN_SIMD build
  // gate, so it must stay out of the deterministic export).
  kernels::IntersectCounts isect = kernels::IntersectDispatchCounts();
  telem.AddCount("join.intersect.scalar", isect.scalar - isect_start.scalar,
                 obs::Stability::kRuntime);
  telem.AddCount("join.intersect.galloping",
                 isect.galloping - isect_start.galloping,
                 obs::Stability::kRuntime);
  telem.AddCount("join.intersect.simd", isect.simd - isect_start.simd,
                 obs::Stability::kRuntime);
  // Drift actuals: everything stable the advisor can predict, plus the
  // run outcome quantities (one-sided entries render without a ratio).
  // RecordActual is null-safe — a detached explain costs one compare.
  obs::RecordActual(explain, "join.signatures",
                    static_cast<double>(stats.signatures_r +
                                        stats.signatures_s));
  obs::RecordActual(explain, "join.signature_collisions",
                    static_cast<double>(stats.signature_collisions));
  obs::RecordActual(explain, "join.f2",
                    static_cast<double>(stats.F2()));
  obs::RecordActual(explain, "join.candidates",
                    static_cast<double>(stats.candidates));
  obs::RecordActual(explain, "join.results",
                    static_cast<double>(stats.results));
  obs::RecordActual(explain, "join.false_positives",
                    static_cast<double>(stats.false_positives));
  obs::RecordActual(explain, "join.bitmap_filter_checked",
                    static_cast<double>(stats.bitmap_filter_checked));
  obs::RecordActual(explain, "join.bitmap_filter_pruned",
                    static_cast<double>(stats.bitmap_filter_pruned));
  // Out-of-core accounting, emitted only when the join actually spilled
  // so in-memory runs keep their pre-spill telemetry shape (DESIGN.md
  // Section 12). All four counters are deterministic for a fixed input
  // and spill configuration.
  if (stats.spill_partitions > 0) {
    telem.Attr("spill_partitions", stats.spill_partitions);
    telem.Attr("spill_retries", stats.spill_retries);
    telem.AddCount("join.spill.partitions", stats.spill_partitions);
    telem.AddCount("join.spill.bytes_written", stats.spill_bytes_written);
    telem.AddCount("join.spill.bytes_read", stats.spill_bytes_read);
    telem.AddCount("join.spill.retries", stats.spill_retries);
    obs::RecordActual(explain, "join.spill.bytes_written",
                      static_cast<double>(stats.spill_bytes_written));
  }
  if (explain != nullptr) {
    explain->joins += 1;
    explain->siggen_seconds += stats.siggen_seconds;
    explain->candpair_seconds += stats.candpair_seconds;
    explain->postfilter_seconds += stats.postfilter_seconds;
  }
}

// The one plan runner behind Join(). `spill` selects the out-of-core
// source (SpillPartition); otherwise SigGen -> CandidateGen runs the
// join in memory. When SigGen degrades under the auto-spill budget (its
// tables never charged), the runner reruns the same request out of
// core, handing over the signatures generated so far and SigGen's time;
// that rerun opens its own telemetry root and accounts its footprint
// from zero.
JoinResult RunPlan(const JoinRequest& request, bool spill,
                   pipeline::SignaturePrefix handover = {},
                   double siggen_seconds = 0) {
  const JoinOptions& options = request.options;
  const SetCollection& left = *request.left;
  const SetCollection* right =
      request.mode == ExecutionMode::kBinaryJoin ? request.right : nullptr;
  const std::string_view mode = ExecutionModeName(request.mode);
  const std::string_view spill_mode =
      options.spill.policy == SpillPolicy::kForced ? "forced" : "auto";
  const uint64_t input_sets =
      left.size() + (right != nullptr ? right->size() : 0);

  JoinResult result;
  result.stats.siggen_seconds = siggen_seconds;
  obs::JoinTelemetry telem(options.tracer, options.metrics, "join");
  telem.Attr("mode", mode);
  if (right != nullptr) {
    telem.Attr("input_sets_r", static_cast<uint64_t>(left.size()));
    telem.Attr("input_sets_s", static_cast<uint64_t>(right->size()));
  } else {
    telem.Attr("input_sets", static_cast<uint64_t>(left.size()));
  }
  if (spill) {
    telem.Attr("spill", spill_mode);
    obs::LogEvent(options.log, obs::LogLevel::kDebug, "join_start",
                  {{"mode", mode},
                   {"spill", spill_mode},
                   {"input_sets", input_sets}});
    if (obs::ExplainReport* ex = options.explain) {
      ex->SetParam("spill", spill_mode);
      ex->SetParam("spill_partitions",
                   std::to_string(options.spill.partitions != 0
                                      ? options.spill.partitions
                                      : spill::kDefaultPartitions));
    }
  } else {
    obs::LogEvent(options.log, obs::LogLevel::kDebug, "join_start",
                  {{"mode", mode}, {"input_sets", input_sets}});
  }
  ThreadPool pool(ResolveThreadCount(options.num_threads));
  pool.BindMetrics(options.metrics);
  ExecutionGuard* guard = options.guard;
  if (guard != nullptr) guard->BindMetrics(options.metrics);
  kernels::IntersectCounts isect0 = kernels::IntersectDispatchCounts();

  pipeline::ExecContext ctx;
  ctx.left = &left;
  ctx.right = right;
  ctx.scheme = request.scheme;
  ctx.predicate = request.predicate;
  ctx.options = &options;
  ctx.pool = &pool;
  ctx.guard = guard;
  ctx.telem = &telem;
  ctx.result = &result;
  pipeline::Plan plan(&ctx);
  pipeline::BuildPlan(&plan, &ctx, spill, std::move(handover));
  Status st = plan.Run();
  if (ctx.degrade) {
    // The in-memory source decided the memory budget cannot hold its
    // tables (an auto-spill degrade never latches the guard).
    obs::LogEvent(options.log, obs::LogLevel::kWarn, "spill_degrade",
                  {{"mode", mode}});
    return RunPlan(request, /*spill=*/true, std::move(*ctx.degrade),
                   result.stats.siggen_seconds);
  }
  if (!st.ok()) {
    result.pairs.clear();
    result.status = std::move(st);
  }
  FinishJoin(telem, result, guard, options.explain, isect0);
  if (!result.status.ok()) {
    obs::LogEvent(options.log, obs::LogLevel::kWarn, "join_abort",
                  {{"error", result.status.ToString()}});
  } else if (spill) {
    obs::LogEvent(options.log, obs::LogLevel::kInfo, "join_finish",
                  {{"results", result.stats.results},
                   {"candidates", result.stats.candidates},
                   {"spill_partitions", result.stats.spill_partitions},
                   {"spill_retries", result.stats.spill_retries}});
  } else {
    obs::LogEvent(options.log, obs::LogLevel::kInfo, "join_finish",
                  {{"results", result.stats.results},
                   {"candidates", result.stats.candidates}});
  }
  return result;
}

JoinResult InvalidResult(Status st) {
  JoinResult result;
  result.status = std::move(st);
  return result;
}

}  // namespace

std::string_view ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kSelfJoin:
      return "self";
    case ExecutionMode::kBinaryJoin:
      return "binary";
  }
  return "unknown";
}

Status ValidateJoinOptions(const JoinOptions& options) {
  if (!kernels::IsValidBitmapBits(options.bitmap_bits)) {
    return Status::InvalidArgument(
        "JoinOptions::bitmap_bits must be 0 (off), 64, 128, or 256");
  }
  if (options.num_threads > kMaxJoinThreads) {
    return Status::InvalidArgument(
        "JoinOptions::num_threads must be at most 4096 (0 = one per core)");
  }
  if (options.spill.partitions > kMaxSpillPartitions) {
    return Status::InvalidArgument(
        "SpillOptions::partitions must be at most 4096 (0 = default)");
  }
  if (options.spill.max_retries > kMaxSpillRetries) {
    return Status::InvalidArgument(
        "SpillOptions::max_retries must be at most 16");
  }
  return Status::OK();
}

Status JoinRequest::Validate() const {
  if (left == nullptr) {
    return Status::InvalidArgument("JoinRequest::left is required");
  }
  if (scheme == nullptr) {
    return Status::InvalidArgument("JoinRequest::scheme is required");
  }
  if (predicate == nullptr) {
    return Status::InvalidArgument("JoinRequest::predicate is required");
  }
  SSJOIN_RETURN_NOT_OK(ValidateJoinOptions(options));
  switch (mode) {
    case ExecutionMode::kSelfJoin:
      if (right != nullptr && right != left) {
        return Status::InvalidArgument(
            "self-join modes take a single input; JoinRequest::right must "
            "be null or alias left");
      }
      return Status::OK();
    case ExecutionMode::kBinaryJoin:
      if (right == nullptr) {
        return Status::InvalidArgument(
            "ExecutionMode::kBinaryJoin requires JoinRequest::right");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown ExecutionMode");
}

JoinRequest SelfJoinRequest(const SetCollection& input,
                            const SignatureScheme& scheme,
                            const Predicate& predicate, JoinOptions options) {
  JoinRequest request;
  request.left = &input;
  request.scheme = &scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kSelfJoin;
  request.options = std::move(options);
  return request;
}

JoinRequest BinaryJoinRequest(const SetCollection& r, const SetCollection& s,
                              const SignatureScheme& scheme,
                              const Predicate& predicate,
                              JoinOptions options) {
  JoinRequest request;
  request.left = &r;
  request.right = &s;
  request.scheme = &scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kBinaryJoin;
  request.options = std::move(options);
  return request;
}

JoinResult Join(const JoinRequest& request) {
  if (Status st = request.Validate(); !st.ok()) {
    // Invalid requests return before any observability attaches: the
    // explain header is only stamped for requests that will execute.
    return InvalidResult(std::move(st));
  }
  // EXPLAIN header: the execution mode and the stable input-size params.
  // Thread count is deliberately absent — the report's stable fields
  // must be byte-identical across thread counts (DESIGN.md Section 9).
  if (obs::ExplainReport* ex = request.options.explain) {
    ex->mode = std::string(ExecutionModeName(request.mode));
    ex->SetParam("input_sets", std::to_string(request.left->size()));
    ex->SetParam("bitmap_bits", std::to_string(request.options.bitmap_bits));
    if (request.mode == ExecutionMode::kBinaryJoin &&
        request.right != nullptr) {
      ex->SetParam("input_sets_r", std::to_string(request.left->size()));
      ex->SetParam("input_sets_s", std::to_string(request.right->size()));
    }
  }
  // Resolve SpillPolicy::kDefault (the SSJOIN_SPILL env hook) once here,
  // so the runner and the spill layer only ever see explicit policies.
  JoinRequest resolved = request;
  resolved.options.spill.policy =
      spill::ResolvePolicy(request.options.spill.policy);
  return RunPlan(resolved, resolved.options.spill.policy ==
                               SpillPolicy::kForced);
}

}  // namespace ssjoin
