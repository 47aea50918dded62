// GainMemo: epoch-stamped memoization of after-toggle residue
// evaluations, the second half of this codebase's gain-kernel story
// (DESIGN.md "The gain kernel"; the first half is the lane-split scan in
// src/core/residue.cc).
//
// FLOC evaluates the residue a cluster would have after toggling each
// row/column -- (N + M) x k evaluations per determination sweep, each an
// O(volume) scan -- and then, with fresh_gains_at_apply, re-decides
// every entity once more during the apply sweep. Most of those repeat
// evaluations are against clusters that have not changed since the
// evaluation was first made: the apply sweep mutates one cluster per
// performed action, leaving the other k-1 exactly as the determination
// sweep saw them. Once a few dozen toggles have landed, though, nearly
// every cluster is stale for the entities still ahead, so the apply
// sweep refreshes the memo on the pool one window of entities at a
// time (WarmGainMemo); the memo is then the validity table telling each
// serial re-decision which clusters moved since the warm-up.
//
// The memo exploits that. It holds one Entry per (entity, cluster) pair
// storing the after-toggle residue and post-toggle volume, stamped with
// the ClusterWorkspace membership epoch (cluster_workspace.h) the
// evaluation was made at. A lookup is valid exactly when the stored
// epoch equals the cluster's live epoch: epochs are process-unique and
// advance on every mutation, so epoch equality guarantees the
// membership -- and the incremental stats bits the scan reads -- are
// unchanged, which makes a cache hit *bit-identical* to the recompute
// (audit mode verifies this, see BestActionFor in gain_determiner.cc).
//
// Only the pure function (membership -> after-toggle residue/volume) is
// cached. Gains are always re-derived from the caller's current score
// vector, and constraint-block checks always run fresh: both depend on
// state outside the one cluster's membership (other clusters' scores,
// the overlap/coverage tracker) that the epoch does not cover.
//
// The table is (rows + cols) x clusters entries, sized once per run.
//
// Thread-safety -- DC_LOCK_FREE: no atomics and no locks, by
// construction. Two writers, each a disjoint-slots protocol:
//
//   * The determination sweep's shards write disjoint entity ranges
//     (entries are laid out entity-major, matching the engine's
//     shard-stable partitioning of the entity axis -- engine::ShardGrain),
//     so parallel shards never touch the same Entry.
//   * The apply sweep's warm-up (WarmGainMemo, floc_phases.h) fans one
//     window of distinct entities x all clusters out as flattened
//     (entity, cluster) pairs; every pair is one Entry, each pair
//     belongs to exactly one shard, so shards again write disjoint
//     entries. The views they read are not mutated until the window's
//     ParallelFor has joined, and the coordinator's serial commit loop
//     only reads/writes the memo between warm-ups.
//
// In both, the coordinator's join-side mutex acquire in
// ThreadPool::ParallelFor publishes every shard's writes before anyone
// reads them, and no Entry is read concurrently with its write. Results
// stay bit-identical at any thread count. Clang TSA cannot express a
// disjoint-slots protocol, hence this comment carries the argument
// (tools/lint/dclint.py rule `lock-free-comment` keeps it present).
#ifndef DELTACLUS_CORE_GAIN_MEMO_H_
#define DELTACLUS_CORE_GAIN_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace deltaclus {

class GainMemo {
 public:
  struct Entry {
    /// Membership epoch of the cluster at evaluation time; 0 = never
    /// filled (ClusterWorkspace epochs start at 1).
    uint64_t epoch = 0;
    /// Residue the cluster would have after toggling this entity.
    double after_residue = 0.0;
    /// Post-toggle volume (feeds the objective's volume term).
    size_t new_volume = 0;
  };

  GainMemo() = default;

  /// Sizes the table for a rows x cols matrix and `clusters` clusters and
  /// clears every entry. Must be called before Slot().
  void Configure(size_t rows, size_t cols, size_t clusters) {
    rows_ = rows;
    clusters_ = clusters;
    entries_.assign((rows + cols) * clusters, Entry{});
  }

  /// The entry for (row index | column index, cluster). Entity-major
  /// layout: one contiguous stripe of cluster entries per entity, so the
  /// per-entity cluster loop is stride-1 and parallel shards over the
  /// entity axis own disjoint ranges.
  Entry* Slot(bool is_row, size_t index, size_t cluster) {
    size_t entity = is_row ? index : rows_ + index;
    return &entries_[entity * clusters_ + cluster];
  }

  /// Bytes the entry table occupies.
  size_t bytes() const { return entries_.size() * sizeof(Entry); }

 private:
  size_t rows_ = 0;
  size_t clusters_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_GAIN_MEMO_H_
