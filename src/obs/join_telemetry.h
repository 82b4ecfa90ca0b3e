// Per-join instrumentation handle: the one seam through which the join
// drivers open spans and publish metrics.
//
// JoinTelemetry wraps an optional Tracer and an optional MetricsRegistry
// (either or both may be null — the null-sink default). Its contract:
//
//   * Null sinks cost nothing: every call is a branch on a null pointer;
//     no allocation, no locking, no clock reads beyond the timing that
//     feeds JoinStats seconds. The zero-allocation property is enforced
//     by tests/obs.
//   * One timing vocabulary: a join is timed only by Operator::Pull
//     through OpInstrument below, whose self-times feed the JoinStats
//     seconds. The clock stays in src/obs (the `no-raw-timing` lint
//     rule).
//   * Stable vs runtime recording: operator spans are kStable (the
//     deterministic skeleton under the root); Sample() opens kRuntime
//     spans for shard/chunk detail and feeds latency histograms.
//
// Construction opens the root span; destruction closes it.
//
// Thread-safety (DESIGN.md Section 10): JoinTelemetry itself holds no
// lock because it owns no shared mutable state — root_ is written once
// in the constructor. Worker threads may use Sample(), Event(), Attr(),
// AddCount() and SetGauge() freely: those delegate to the Tracer and
// MetricsRegistry sinks, whose capabilities (their internal
// util::Mutex, see obs/trace.h and obs/metrics.h) serialize the actual
// mutation.

#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "obs/metrics.h"
#include "obs/stability.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ssjoin::obs {

class JoinTelemetry {
 public:
  /// Either sink may be null. `root_name` names the root span (the
  /// drivers use "join" with a "mode" attribute so the stable span
  /// skeleton is identical for every execution path of one mode).
  JoinTelemetry(Tracer* tracer, MetricsRegistry* metrics,
                std::string_view root_name);
  ~JoinTelemetry();

  JoinTelemetry(const JoinTelemetry&) = delete;
  JoinTelemetry& operator=(const JoinTelemetry&) = delete;

  Tracer* tracer() const { return tracer_; }
  MetricsRegistry* metrics() const { return metrics_; }
  SpanId root() const { return root_; }
  bool tracing() const { return tracer_ != nullptr; }

  /// RAII sampling scope for runtime detail: opens a kRuntime span (when
  /// tracing) under the root and, when `latency` is non-null, records
  /// the elapsed microseconds into it on destruction. With neither sink
  /// it is inert: no span, no clock read. Safe to use from worker
  /// threads (lane disambiguates concurrent scopes).
  class SampleScope {
   public:
    SampleScope(JoinTelemetry* telemetry, Histogram* latency, SpanId span)
        : telemetry_(telemetry), latency_(latency), span_(span) {
      if (latency_ != nullptr) watch_.emplace();
    }
    SampleScope(const SampleScope&) = delete;
    SampleScope& operator=(const SampleScope&) = delete;
    ~SampleScope();

    SpanId span() const { return span_; }

   private:
    JoinTelemetry* telemetry_;
    Histogram* latency_;
    SpanId span_;
    std::optional<Stopwatch> watch_;  // engaged only when latency_ is non-null
  };

  SampleScope Sample(std::string_view name, Histogram* latency = nullptr,
                     uint32_t lane = 0);

  /// Root-span helpers (all no-ops without the corresponding sink).
  void Event(std::string_view name, std::string_view detail);
  void Attr(std::string_view key, uint64_t value);
  void Attr(std::string_view key, double value);
  void Attr(std::string_view key, std::string_view value);

  /// Metric helpers (no-ops without a registry). These take the registry
  /// mutex — fine for end-of-join accounting, not for per-item loops
  /// (cache a Counter*/Histogram* for those).
  void AddCount(std::string_view name, uint64_t delta,
                Stability stability = Stability::kStable);
  void SetGauge(std::string_view name, double value,
                Stability stability = Stability::kStable);

 private:
  Tracer* tracer_;
  MetricsRegistry* metrics_;
  SpanId root_ = kNoSpan;
};

/// Per-operator pipeline instrumentation (DESIGN.md Section 14), the one
/// clock of a Join() run. One OpInstrument lives in each pipeline
/// Operator and times every Pull whatever sinks are attached;
/// Operator::Close adds self_ns() into the operator's JoinStats phase
/// field. Plan::Run binds it to the run's sinks: with a registry it
/// publishes "pipeline.<tag>." + {batches, rows_in, rows_out, ns} from
/// the same nanoseconds — row totals kStable (functions of input and
/// plan), batches and ns kRuntime — and with a tracer it owns the
/// operator's kStable span, closed with the rows_in/rows_out totals.
/// Unbound, enabled() is false and the timing allocates nothing.
///
/// The clock reads live here, in the obs layer, so src/core stays clean
/// under the `no-raw-timing` lint: core calls the opaque NowNs()/
/// RecordPull() seams. Self-time attribution: Pull passes the elapsed
/// time of the nested input Pull (via inclusive_ns()) and RecordPull
/// charges only the difference, so operator times sum to the chain's
/// wall time instead of multiply counting.
///
/// Thread-confinement: an OpInstrument is control-thread-confined — the
/// Volcano pull loop is single-threaded (parallelism lives inside
/// operators), so the members need no lock.
/// The counters it publishes to are atomic, which is what the heartbeat
/// thread reads.
class OpInstrument {
 public:
  OpInstrument() = default;
  OpInstrument(const OpInstrument&) = delete;
  OpInstrument& operator=(const OpInstrument&) = delete;

  /// Binds to the run's sinks: registers the four pipeline.<tag>.*
  /// counters in telemetry->metrics() and opens the operator's kStable
  /// span under the root when tracing (each a no-op when its sink is
  /// null). `lane` is the operator's position in the chain.
  void Bind(JoinTelemetry* telemetry, std::string_view tag, uint32_t lane);

  /// True when the pipeline.<tag>.* counters are bound.
  bool enabled() const { return batches_ != nullptr; }

  /// Monotonic nanoseconds; only meaningful for differences.
  int64_t NowNs() const;

  /// Accounts one Pull: `start_ns` from NowNs() before the call, `nested_ns` the
  /// inclusive time the input operator consumed inside it, `produced`
  /// whether a data batch came out. When bound, publishes the row
  /// totals as deltas against the last published values, so the
  /// heartbeat sees live counts mid-join.
  void RecordPull(int64_t start_ns, uint64_t nested_ns, bool produced,
                  uint64_t rows_in, uint64_t rows_out);

  /// Total time spent inside this operator's Pull calls (including its
  /// inputs) — the parent's nested_ns.
  uint64_t inclusive_ns() const { return inclusive_ns_; }

  /// This operator's own time: inclusive_ns() minus its inputs' share.
  uint64_t self_ns() const { return self_ns_total_; }

  /// Flushes the final row totals and closes the operator span with
  /// them. Called from Operator::Close on every exit path; idempotent.
  void FinishCounts(uint64_t rows_in, uint64_t rows_out);

 private:
  void PublishRows(uint64_t rows_in, uint64_t rows_out);

  Counter* batches_ = nullptr;
  Counter* rows_in_ = nullptr;
  Counter* rows_out_ = nullptr;
  Counter* self_ns_ = nullptr;
  Tracer* tracer_ = nullptr;
  SpanId span_ = kNoSpan;
  uint64_t inclusive_ns_ = 0;
  uint64_t self_ns_total_ = 0;
  uint64_t published_rows_in_ = 0;
  uint64_t published_rows_out_ = 0;
};

}  // namespace ssjoin::obs
