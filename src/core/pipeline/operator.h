// The batch-at-a-time operator API behind Join(JoinRequest) (DESIGN.md
// Section 13).
//
// Every execution mode is a Plan: a linear chain of Operators pulled
// sink-first (Volcano style, one Batch at a time). The one runner in
// core/ssjoin.cc builds its chain with BuildPlan
// (core/pipeline/plan_builder.h); the phase logic — guard checkpoints,
// stats commits — lives in exactly one operator each.
//
// Cross-cutting concerns attach ONCE here at the base:
//
//   * Timing (DESIGN.md Section 14): Pull() is the run's only clock.
//     Close() adds the operator's self-time (its obs::OpInstrument)
//     into its one JoinStats phase field.
//   * Telemetry: Plan::Run() binds each instrument to the run's sinks —
//     pipeline.<tag>.* counters with a MetricsRegistry, one kStable span
//     per operator (with rows_in/rows_out) with a Tracer. Close() also
//     feeds the final rows_out into EXPLAIN's drift table.
//   * ExplainReport plan tree: Operator::Close() records one PlanOp
//     (name, detail, rows in/out) per operator, in chain order. Row
//     counts must be derived from deterministic stats (signatures,
//     candidates, results) — never batch counts, which vary with
//     scheduling.
//   * Lifecycle: Plan::Run() pulls the sink to exhaustion or error and
//     closes every operator on every exit path (Close must be safe
//     after an aborted or skipped pull loop). An operator builds its
//     resources on its first pull.
//
// Contract: every Operator subclass overrides Close() and finishes it
// with Operator::Close() (the `operator-contract` lint rule);
// operators never read clocks, pull their input only via input_->Pull
// (NextBatch would bypass the clock and drop the input's time from
// JoinStats) and never emit unregistered metric names.
//
// Thread-safety: operators run on the control thread; they fan work out
// through ParallelFor/RunOnAll internally, exactly as the drivers did.
// A Plan is single-use: build, Run once, destroy.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline/chunk.h"
#include "core/ssjoin.h"
#include "obs/join_telemetry.h"
#include "util/status.h"

namespace ssjoin {
class ExecutionGuard;
class ThreadPool;
}  // namespace ssjoin

namespace ssjoin::pipeline {

/// Everything a chain shares for one join execution. Plain pointers —
/// the runner owns all of it; the context just wires operators to the
/// same join-scoped state.
struct ExecContext {
  const SetCollection* left = nullptr;
  /// Null for the self-join modes (the spilled self path included).
  const SetCollection* right = nullptr;
  const SignatureScheme* scheme = nullptr;
  const Predicate* predicate = nullptr;
  /// Spill policy already resolved (never SpillPolicy::kDefault).
  const JoinOptions* options = nullptr;
  ThreadPool* pool = nullptr;
  ExecutionGuard* guard = nullptr;
  obs::JoinTelemetry* telem = nullptr;
  JoinResult* result = nullptr;

  /// Set by CandidateGen when the auto-spill budget check fires: the
  /// chain winds down cleanly (no guard latch, nothing charged for the
  /// dropped tables) and the runner reruns the join with the spilled
  /// chain.
  bool degrade = false;
};

/// The JoinStats field an operator's self-time adds into: its paper
/// phase (Figure 2).
using PhaseSeconds = double JoinStats::*;

class Operator {
 public:
  virtual ~Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Produces the next batch into `*out` (Reset by the caller). An end
  /// batch (Batch::Kind::kEnd) terminates the pull loop; a non-OK
  /// Status aborts it (guard trips surface here).
  virtual Status NextBatch(Batch* out) = 0;

  /// Tears down, adds the operator's self-time into its JoinStats phase
  /// field, records this operator's PlanOp into the explain report,
  /// flushes the instrument (final row totals, span close), and records
  /// the operator's rows_out as an EXPLAIN drift actual. Runs on every
  /// exit path, including after an aborted pull loop.
  /// Subclasses MUST override (the operator-contract lint rule) and end
  /// with Operator::Close().
  virtual void Close();

  /// Timed pull: callers (the downstream operator and Plan::Run) use
  /// this, never NextBatch directly. Charges the operator its self-time
  /// (the elapsed time minus the nested input pulls) and, when bound,
  /// the pipeline.<tag>.* counters.
  Status Pull(Batch* out);

  /// Binds the per-operator instrument to the run's sinks (called once
  /// by Plan::Run before the first pull; `lane` is the operator's chain
  /// position).
  void BindInstrument(obs::JoinTelemetry* telemetry, uint32_t lane) {
    inst_.Bind(telemetry, tag_, lane);
  }

  void set_input(Operator* input) { input_ = input; }
  const std::string& name() const { return name_; }

 protected:
  /// `tag` is the operator's stable metric tag and span name (a
  /// names::kOp* constant from obs/stability.h); `phase` the JoinStats
  /// field its self-time counts under.
  Operator(ExecContext* ctx, std::string name, std::string detail,
           std::string_view tag, PhaseSeconds phase)
      : ctx_(ctx), name_(std::move(name)), detail_(std::move(detail)),
        tag_(tag), phase_(phase) {}

  ExecContext* ctx_;
  Operator* input_ = nullptr;
  /// Deterministic row counts for the explain plan tree, maintained by
  /// the subclass (from stats totals, never batch counts).
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;

 private:
  std::string name_;
  std::string detail_;
  std::string_view tag_;  // static-storage names:: constant
  PhaseSeconds phase_;
  obs::OpInstrument inst_;
};

/// A linear operator chain, source first. Owns its operators.
class Plan {
 public:
  explicit Plan(ExecContext* ctx) : ctx_(ctx) {}

  /// Appends `op`, wiring its input to the previous operator.
  Operator* Add(std::unique_ptr<Operator> op);

  /// Pulls the sink until an end batch or error, then closes every
  /// operator in chain order (always — the close pass is what records
  /// the executed plan tree). Returns the first error.
  Status Run();

 private:
  ExecContext* ctx_;
  std::vector<std::unique_ptr<Operator>> ops_;
};

}  // namespace ssjoin::pipeline
