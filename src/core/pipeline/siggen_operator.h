// SigGenOperator: the sorted drivers' signature-generation phase as a
// source operator (DESIGN.md Section 13). Emits exactly one
// kSignatures batch — the whole left (and, for the binary mode, right)
// side as CSR SignatureChunks — then an end batch.
//
// Phase contract: the kSigGen checkpoint runs first; generation runs in
// detail::GenerateChunk chunks appended in set order, so the tables are
// byte-identical for every thread count; signatures_r/s are committed
// only when generation completed untripped. Under the auto-spill budget
// (DESIGN.md Section 12) a chunk that overflows it moves the tables into
// ctx->degrade and ends the stream, rows_out counting the signatures
// handed over. The operator's self-time is the join's siggen_seconds.

#pragma once

#include <cstddef>
#include <vector>

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class SigGenOperator : public Operator {
 public:
  explicit SigGenOperator(ExecContext* ctx)
      : Operator(ctx, "SigGen", "csr", obs::names::kOpSigGen,
                 &JoinStats::siggen_seconds) {}

  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  bool AppendSide(const SetCollection& input, SignatureChunk* table,
                  size_t degrade_above);

  bool done_ = false;
  SignatureChunk left_;
  SignatureChunk right_;
  // Per-set signature lists of the chunk being generated.
  std::vector<std::vector<Signature>> scratch_;
};

}  // namespace ssjoin::pipeline
