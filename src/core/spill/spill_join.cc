#include "core/spill/spill_join.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/driver_internal.h"
#include "core/execution_guard.h"
#include "core/spill/spill_file.h"
#include "core/spill/spill_internal.h"
#include "obs/join_telemetry.h"
#include "util/hashing.h"
#include "util/status.h"
#include "util/temp_dir.h"
#include "util/thread_pool.h"

namespace ssjoin::spill {
namespace {

// Partition routing. Routing by the signature alone is what keeps every
// signature group inside one partition (the exactness invariant); the
// fixed seed only pins which partition a signature lands in, and with it
// the byte layout of the partition files.
constexpr uint64_t kPartitionSeed = 0xc3a5c85c97cb3127ull;

size_t PartitionOf(Signature sig, uint32_t partitions) {
  return partitions == 1
             ? 0
             : static_cast<size_t>(Mix64(sig ^ kPartitionSeed) % partitions);
}

// Tracks what one spill attempt has charged against the guard and
// releases the outstanding balance when the attempt ends — success,
// trip, I/O failure, or exception all return the guard to its entry
// accounting (minus what the caller explicitly keeps charging itself).
class ChargeLedger {
 public:
  explicit ChargeLedger(ExecutionGuard* guard) : guard_(guard) {}
  ~ChargeLedger() {
    if (guard_ == nullptr) return;
    if (memory_ > 0) guard_->ReleaseMemory(memory_);
    if (disk_ > 0) guard_->ReleaseDisk(disk_);
  }
  ChargeLedger(const ChargeLedger&) = delete;
  ChargeLedger& operator=(const ChargeLedger&) = delete;

  void ChargeMemory(size_t bytes) {
    if (guard_ == nullptr) return;
    guard_->ChargeMemory(bytes);
    memory_ += bytes;
  }
  void ReleaseMemory(size_t bytes) {
    if (guard_ == nullptr) return;
    guard_->ReleaseMemory(bytes);
    memory_ -= bytes;
  }
  void ChargeDisk(size_t bytes) {
    if (guard_ == nullptr) return;
    guard_->ChargeDisk(bytes);
    disk_ += bytes;
  }

 private:
  ExecutionGuard* guard_;
  size_t memory_ = 0;
  size_t disk_ = 0;
};

uint64_t WriterBytes(const std::vector<SpillFileWriter>& writers) {
  uint64_t total = 0;
  for (const SpillFileWriter& w : writers) total += w.bytes_written();
  return total;
}

// Write stage for one input side: streams Sign(set) postings into the
// partition writers one detail::kSigGenChunkSets chunk at a time; guard
// checkpoints and disk charges happen only at chunk boundaries. Chunks
// covered by `handover` (a degraded SigGen's table, which ends on a
// chunk boundary or at the side's end) are taken from it, the rest
// generated. The append pass is sequential in set order, so the file
// bytes are identical for every thread count and every handover.
// `*signatures` is only meaningful
// when the function returns OK (a stopped chunk leaves it partial; the
// caller commits it to stats only on success).
Status WriteSide(const SetCollection& input,
                 const pipeline::SignatureChunk& handover,
                 const SignatureScheme& scheme, ThreadPool& pool,
                 ExecutionGuard* guard, ChargeLedger* ledger,
                 uint32_t partitions, const util::ScopedTempDir& tmp,
                 const char* prefix, std::vector<SpillFileWriter>* writers,
                 uint64_t* signatures) {
  writers->resize(partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    SSJOIN_RETURN_NOT_OK((*writers)[p].Open(
        tmp.FilePath(std::string(prefix) + std::to_string(p) + ".spill")));
  }
  uint64_t charged = 0;
  auto charge_delta = [&] {
    uint64_t total = WriterBytes(*writers);
    ledger->ChargeDisk(static_cast<size_t>(total - charged));
    charged = total;
  };
  charge_delta();  // the per-file headers
  std::vector<std::vector<Signature>> sigs;
  for (size_t c0 = 0; c0 < input.size(); c0 += detail::kSigGenChunkSets) {
    if (guard != nullptr) {
      SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSpill));
    }
    size_t c1 = std::min(static_cast<size_t>(input.size()),
                         c0 + detail::kSigGenChunkSets);
    const bool handed_over = c1 <= handover.sets();
    if (!handed_over) {
      detail::GenerateChunk(input, scheme, c0, c1, pool, guard, &sigs);
      if (guard != nullptr && guard->tripped()) return guard->trip_status();
    }
    const Signature* handed = handover.values.data();
    for (size_t id = c0; id < c1; ++id) {
      std::span<const Signature> set_sigs =
          handed_over ? std::span<const Signature>(
                            handed + handover.offsets[id],
                            handed + handover.offsets[id + 1])
                      : std::span<const Signature>(sigs[id - c0]);
      *signatures += set_sigs.size();
      for (Signature sig : set_sigs) {
        SSJOIN_RETURN_NOT_OK((*writers)[PartitionOf(sig, partitions)].Append(
            sig, static_cast<SetId>(id)));
      }
    }
    charge_delta();
  }
  for (SpillFileWriter& w : *writers) {
    SSJOIN_RETURN_NOT_OK(w.Finish());
  }
  charge_delta();  // the tail blocks Finish() flushed
  return Status::OK();
}

}  // namespace

namespace internal {

// One spill attempt at a fixed partition count: write both sides, then
// run candidate generation partition by partition and merge. Fills
// `stats` (signature/collision/candidate counters, spill byte counters —
// always, so failed attempts still account their I/O) and `*candidates`
// (only valid on OK). The attempt's temp directory and guard charges are
// released on every path; the merged candidate vector is the only thing
// that escapes. Each side of `*handover` is written in place of its
// first sets and freed as that side's write ends.
Status RunAttempt(const SetCollection& left, const SetCollection* right,
                  const SignatureScheme& scheme, const JoinOptions& options,
                  uint32_t partitions, pipeline::SignaturePrefix* handover,
                  ThreadPool& pool, ExecutionGuard* guard,
                  obs::JoinTelemetry& telem, JoinStats* stats,
                  std::vector<uint64_t>* candidates) {
  util::ScopedTempDir tmp;
  SSJOIN_ASSIGN_OR_RETURN(tmp, util::ScopedTempDir::Create(options.spill.dir));
  ChargeLedger ledger(guard);

  std::vector<SpillFileWriter> writers_l;
  std::vector<SpillFileWriter> writers_r;
  uint64_t signatures_l = 0;
  uint64_t signatures_r = 0;
  Status write_status =
      WriteSide(left, handover->left, scheme, pool, guard, &ledger,
                partitions, tmp, "part-r-", &writers_l, &signatures_l);
  handover->left = {};
  if (write_status.ok() && right != nullptr) {
    write_status =
        WriteSide(*right, handover->right, scheme, pool, guard, &ledger,
                  partitions, tmp, "part-s-", &writers_r, &signatures_r);
  }
  handover->right = {};
  // Bytes any writer durably handed off count into the attempt's I/O
  // accounting even when the stage failed mid-file.
  stats->spill_bytes_written += WriterBytes(writers_l) + WriterBytes(writers_r);
  SSJOIN_RETURN_NOT_OK(write_status);
  stats->signatures_r = signatures_l;
  stats->signatures_s = right != nullptr ? signatures_r : signatures_l;
  if (guard != nullptr) {
    // Deterministic post-write barrier: the disk-budget check sees the
    // attempt's full footprint here, and injected kCandGen trips land
    // with completed signature counts — mirroring the in-memory
    // driver's SigGen → CandGen checkpoint.
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSpill));
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  }

  const bool binary = right != nullptr;
  std::function<bool()> stop = detail::StopFn(guard, JoinPhase::kCandGen);
  std::vector<uint64_t> merged;
  for (uint32_t p = 0; p < partitions; ++p) {
    std::vector<Posting> postings_l;
    std::vector<Posting> postings_r;
    SSJOIN_ASSIGN_OR_RETURN(
        postings_l, SpillFileReader::ReadAll(writers_l[p].path(),
                                             &stats->spill_bytes_read));
    if (binary) {
      SSJOIN_ASSIGN_OR_RETURN(
          postings_r, SpillFileReader::ReadAll(writers_r[p].path(),
                                               &stats->spill_bytes_read));
    }
    const size_t partition_bytes =
        (postings_l.size() + postings_r.size()) * sizeof(Posting);
    ledger.ChargeMemory(partition_bytes);
    if (guard != nullptr) {
      // The deterministic memory-pressure point of the spilled path: one
      // partition's postings are the peak the budget is checked against.
      SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
    }
    // The in-memory generator over this partition's postings, keeping
    // every candidate: a pair can share signatures in two partitions, so
    // the bitmap test waits until the partitions are merged.
    detail::ProbedCandidates part = detail::ProbeAll(
        detail::BuildProbeIndex(&postings_l, left.size(),
                                binary ? &postings_r : nullptr,
                                binary ? right->size() : 0, pool),
        /*keep=*/true, detail::PairBitmap(), pool, stop, &telem);
    if (guard != nullptr && guard->tripped()) return guard->trip_status();
    stats->signature_collisions += part.collisions;
    if (merged.empty()) {
      merged = std::move(part.kept);
    } else if (!part.kept.empty()) {
      // Sorted union with the candidates so far: a pair reachable via
      // signatures in two partitions dedups here.
      std::vector<uint64_t> unioned;
      unioned.reserve(merged.size() + part.kept.size());
      std::set_union(merged.begin(), merged.end(), part.kept.begin(),
                     part.kept.end(), std::back_inserter(unioned));
      merged = std::move(unioned);
    }
    ledger.ReleaseMemory(partition_bytes);
  }
  stats->candidates = merged.size();
  *candidates = std::move(merged);
  return Status::OK();
}

}  // namespace internal

SpillPolicy ResolvePolicy(SpillPolicy requested) {
  if (requested != SpillPolicy::kDefault) return requested;
  const char* env = std::getenv("SSJOIN_SPILL");
  if (env == nullptr) return SpillPolicy::kDisabled;
  std::string_view value(env);
  if (value == "auto") return SpillPolicy::kAuto;
  if (value == "force") return SpillPolicy::kForced;
  return SpillPolicy::kDisabled;
}

}  // namespace ssjoin::spill
