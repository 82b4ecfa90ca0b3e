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
// like the legacy spilled driver. Partitioning interleaves signature
// generation with candidate generation, so the operator's self-time —
// every attempt, failed ones included, and the bitmap test — counts
// under CandPair and siggen_seconds stays 0.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/driver_internal.h"
#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class SpillPartitionOperator : public Operator {
 public:
  explicit SpillPartitionOperator(ExecContext* ctx)
      : Operator(ctx, "SpillPartition", "partitioned",
                 obs::names::kOpSpillPartition, &JoinStats::candpair_seconds) {}

  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  Status Produce();

  bool produced_ = false;
  std::vector<uint64_t> candidates_;
  size_t pos_ = 0;
  detail::PairBitmap bitmap_;
};

}  // namespace ssjoin::pipeline
