// SpillPartitionOperator: source for the out-of-core execution path
// (DESIGN.md Sections 12 and 13). Wraps the spill layer's retry loop —
// each attempt writes both sides into partition files and merges
// per-partition candidate generation (spill::internal::RunAttempt),
// halving the partition count after a transient I/O failure — and then
// streams the merged, globally sorted candidate vector out in verify
// super-chunks, running the bitmap test on each chunk as it is cut (the
// tables are built once the candidates are merged). Guard trips are
// final; exhausted retries surrender with
// the completed-signature counts but no candidate accounting, exactly
// like the legacy spilled driver. After an auto-spill degrade the first
// attempt writes the handed-over signatures instead of generating them
// again, freeing each side once written; a retry generates every set. Partitioning interleaves signature generation with
// candidate generation, so the operator's self-time — every attempt,
// failed ones included, and the bitmap test — counts under CandPair;
// siggen_seconds holds only a degraded SigGen's time.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/driver_internal.h"
#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class SpillPartitionOperator : public Operator {
 public:
  SpillPartitionOperator(ExecContext* ctx, SignaturePrefix handover)
      : Operator(ctx, "SpillPartition", "partitioned",
                 obs::names::kOpSpillPartition, &JoinStats::candpair_seconds),
        handover_(std::move(handover)) {}

  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  Status Produce();

  // A degraded SigGen's signatures; the first attempt's write stage
  // empties it.
  SignaturePrefix handover_;
  bool produced_ = false;
  std::vector<uint64_t> candidates_;
  size_t pos_ = 0;
  detail::PairBitmap bitmap_;
};

}  // namespace ssjoin::pipeline
