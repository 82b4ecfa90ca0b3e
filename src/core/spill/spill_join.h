// Out-of-core execution of the Figure-2 driver (DESIGN.md Section 12).
//
// When memory pressure would trip the guard — or the spill policy forces
// it — the join runner (core/ssjoin.cc) builds the spilled plan instead
// of failing: its SpillPartition source (core/pipeline) streams the
// signature postings into K hash-partitioned, checksummed spill files
// (core/spill/spill_file.h), and candidate generation runs one partition
// at a time, each through the *same* index/probe building blocks as the
// in-memory path (core/driver_internal.h). The attempt itself is
// core/spill/spill_internal.h; this header holds the policy knobs.
//
// The partitioning invariant that makes this exact: postings are routed
// by a hash of the signature alone, so every signature group lands
// wholly inside one partition. Per-partition collision counts therefore
// sum to exactly the serial total, and the only cross-partition overlap
// — a candidate pair reachable via two signatures in two partitions —
// is removed by the sorted set_union merge, which stands in for the
// in-memory probe's per-set dedup. A spilled join returns
// byte-identical pairs and exactly-equal legacy stats at any thread
// count and any partition count; only the spill_* stats and wall-clock
// differ.
//
// Failure-first: every file operation returns a structured Status, spill
// files live in a util::ScopedTempDir that is removed on every exit path
// (success, trip, I/O failure), disk usage is charged against the
// guard's disk budget at deterministic JoinPhase::kSpill checkpoints,
// and an I/O failure retries with half the partitions (bounded by
// SpillOptions::max_retries) before surrendering with kIOError.

#pragma once

#include <cstdint>

#include "core/ssjoin.h"

namespace ssjoin::spill {

/// Partition count used when SpillOptions::partitions is 0.
inline constexpr uint32_t kDefaultPartitions = 8;

/// Resolves SpillPolicy::kDefault through the SSJOIN_SPILL environment
/// variable ("off" / "auto" / "force"; unset or unrecognized reads as
/// off). Explicit policies pass through untouched, so call sites that
/// pin kDisabled escape a CI-wide force.
SpillPolicy ResolvePolicy(SpillPolicy requested);

}  // namespace ssjoin::spill
