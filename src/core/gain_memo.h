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
// every cluster is stale for the entities still ahead, so pool helpers
// keep refreshing the memo for the next few entities ahead of the
// serial apply loop (ActionApplier); the memo is then the validity
// table telling each serial re-decision which clusters moved since.
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
// Thread-safety -- DC_LOCK_FREE: every field of an Entry is accessed
// atomically, through std::atomic_ref in the Entry methods: the payload
// (after-toggle residue, post-toggle volume) relaxed, the epoch stamp
// with a release store after the payload and an acquire load before it.
// So a reader that sees a stamp also sees the payload stored with it.
// Two writers may store one slot at once, and that is safe too, because
// they always store the same bits:
//
//   * The determination sweep's shards write disjoint entity ranges
//     (entries are laid out entity-major, matching the engine's
//     shard-stable partitioning of the entity axis --
//     engine::ShardGrain), so there, no two threads touch one Entry.
//   * In the pipelined apply sweep (ActionApplier,
//     src/core/action_applier.cc) pool helpers refresh slots ahead of
//     the serial coordinator, and the coordinator may look up or rescan
//     a slot a helper is storing. A helper scans cluster c, and stores
//     the stamp it read, only while holding c's reader/writer guard
//     shared; the coordinator, the only thread that mutates a cluster,
//     does so only with that guard held exclusively. So every store that
//     can overlap a lookup or another store is made at c's live epoch,
//     and a stamp equal to the live epoch means the same bits whoever
//     scanned (DESIGN.md "The gain kernel"): the overlapping stores carry
//     identical payloads, and a lookup cannot mix two evaluations.
//
// Results therefore stay bit-identical at any thread count and schedule.
// On x86 these atomic accesses compile to ordinary moves, with no
// locked instruction or fence. Clang TSA cannot express the protocol, hence this
// comment carries the argument (tools/lint/dclint.py rule
// `lock-free-comment` keeps it present).
#ifndef DELTACLUS_CORE_GAIN_MEMO_H_
#define DELTACLUS_CORE_GAIN_MEMO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace deltaclus {

class GainMemo {
 public:
  /// One (entity, cluster) slot. Read and written only through these
  /// methods, which access every field atomically (see the file
  /// comment): the stamp with release/acquire, the payload relaxed.
  class Entry {
   public:
    /// The stamp: the membership epoch the payload was evaluated at; 0 =
    /// never filled (ClusterWorkspace epochs start at 1). Relaxed: a
    /// staleness hint only, not a licence to read the payload.
    uint64_t Stamp() {
      return std::atomic_ref<uint64_t>(epoch_).load(std::memory_order_relaxed);
    }

    /// When the slot is stamped `epoch`, yields its after-toggle residue
    /// and post-toggle volume and returns true.
    bool Lookup(uint64_t epoch, double* after_residue, size_t* new_volume) {
      if (std::atomic_ref<uint64_t>(epoch_).load(std::memory_order_acquire) !=
          epoch) {
        return false;
      }
      *after_residue = std::atomic_ref<double>(after_residue_).load(
          std::memory_order_relaxed);
      *new_volume =
          std::atomic_ref<size_t>(new_volume_).load(std::memory_order_relaxed);
      return true;
    }

    /// Stores an evaluation made at `epoch`: the payload, then the stamp
    /// (release) that publishes it.
    void Store(uint64_t epoch, double after_residue, size_t new_volume) {
      std::atomic_ref<double>(after_residue_).store(after_residue,
                                                    std::memory_order_relaxed);
      std::atomic_ref<size_t>(new_volume_).store(new_volume,
                                                 std::memory_order_relaxed);
      std::atomic_ref<uint64_t>(epoch_).store(epoch, std::memory_order_release);
    }

   private:
    uint64_t epoch_ = 0;
    /// Residue the cluster would have after toggling this entity.
    double after_residue_ = 0.0;
    /// Post-toggle volume (feeds the objective's volume term).
    size_t new_volume_ = 0;
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
