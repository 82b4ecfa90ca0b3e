#include "core/pipeline/plan_builder.h"

#include <memory>

#include "core/pipeline/candidate_gen_operator.h"
#include "core/pipeline/dedup_emit_operator.h"
#include "core/pipeline/pipelined_scan_operator.h"
#include "core/pipeline/siggen_operator.h"
#include "core/pipeline/spill_partition_operator.h"
#include "core/pipeline/verify_operator.h"

namespace ssjoin::pipeline {

void BuildPlan(Plan* plan, ExecContext* ctx, bool spill) {
  // The one fact the verify tail depends on: a PipelinedScan source
  // streams candidates per unit in discovery order, so the tail verifies
  // unchunked and sorts at end of stream.
  const bool pipelined =
      !spill && ctx->mode == ExecutionMode::kPipelinedSelfJoin;
  if (spill) {
    plan->Add(std::make_unique<SpillPartitionOperator>(ctx));
  } else if (pipelined) {
    plan->Add(std::make_unique<PipelinedScanOperator>(ctx));
  } else {
    plan->Add(std::make_unique<SigGenOperator>(ctx));
    plan->Add(std::make_unique<CandidateGenOperator>(ctx));
  }
  if (ctx->options->verify) {
    plan->Add(std::make_unique<VerifyOperator>(ctx, /*chunked=*/!pipelined));
  }
  plan->Add(std::make_unique<DedupEmitOperator>(ctx,
                                                /*sort_on_end=*/pipelined));
}

}  // namespace ssjoin::pipeline
