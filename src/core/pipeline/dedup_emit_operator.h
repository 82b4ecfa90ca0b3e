// DedupEmitOperator: the plan's sink — appends each chunk's verified
// pairs to the JoinResult in stream order (DESIGN.md Section 13).
//
// Both sources generate candidates globally deduplicated and sorted,
// so plain appending already yields the final sorted pair vector.
// Its self-time counts under PostFilter — or under CandPair when
// verification is off and the sink only drains the candidate source.

#pragma once

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class DedupEmitOperator : public Operator {
 public:
  explicit DedupEmitOperator(ExecContext* ctx)
      : Operator(ctx, "DedupEmit", "append", obs::names::kOpDedupEmit,
                 ctx->options->verify ? &JoinStats::postfilter_seconds
                                      : &JoinStats::candpair_seconds) {}

  Status NextBatch(Batch* out) override;
  void Close() override;
};

}  // namespace ssjoin::pipeline
