#include "core/pipeline/plan_builder.h"

#include <memory>

#include "core/pipeline/candidate_gen_operator.h"
#include "core/pipeline/dedup_emit_operator.h"
#include "core/pipeline/siggen_operator.h"
#include "core/pipeline/spill_partition_operator.h"
#include "core/pipeline/verify_operator.h"

namespace ssjoin::pipeline {

void BuildPlan(Plan* plan, ExecContext* ctx, bool spill) {
  if (spill) {
    plan->Add(std::make_unique<SpillPartitionOperator>(ctx));
  } else {
    plan->Add(std::make_unique<SigGenOperator>(ctx));
    plan->Add(std::make_unique<CandidateGenOperator>(ctx));
  }
  if (ctx->options->verify) plan->Add(std::make_unique<VerifyOperator>(ctx));
  plan->Add(std::make_unique<DedupEmitOperator>(ctx));
}

}  // namespace ssjoin::pipeline
