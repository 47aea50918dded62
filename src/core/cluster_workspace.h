// ClusterWorkspace: the per-cluster mutable state FLOC carries through a
// run -- a ClusterView (Cluster membership + incrementally-maintained
// ClusterStats), a monotone membership *epoch*, and a *cached* residue
// numerator/volume pair stamped with that epoch.
//
// The epoch is the workspace's memoization key: it is assigned from a
// process-wide monotone counter at construction and re-assigned by every
// membership mutation (ToggleRow / ToggleCol / Reset), so two reads of
// epoch() returning the same value guarantee the membership -- and the
// incrementally-maintained stats bits -- have not changed in between.
// Everything derived purely from the membership (the cached residue
// below, and the per-(entity, cluster) gain memo in
// src/core/gain_memo.h) is stamped with the epoch at computation time
// and served from cache exactly while the epoch still matches. Because
// the counter is process-unique, a stamp can never collide with a stamp
// taken from a different workspace or an earlier membership: equal
// epochs always mean "same object, same membership". Copies share their
// source's epoch, which is correct -- they hold the same membership.
// The mining session reads the epoch at step boundaries too: a cluster
// whose epoch moved during a step is rebuilt with Reset(), so its stats
// equal a Build() again, and one whose epoch stayed keeps every cache.
//
// The residue cache exists because the hot loop asks for a cluster's
// residue far more often than the cluster changes: every gain
// evaluation, score refresh, telemetry snapshot, and stagnation check
// wants Residue(c), but membership only moves on an applied action.
// Pre-workspace, each of those calls paid a full O(volume) rescan of the
// submatrix; with the workspace, the first call after a toggle pays the
// scan and every subsequent call is O(1). Invalidation is exact and
// implicit: a mutation advances the epoch, which un-matches the stamp.
//
// The cache stores the residue's numerator (the accumulated |r_ij| or
// r_ij^2 mass) and the volume it was computed over, not the quotient, so
// audit mode can verify both factors against a from-scratch recompute
// (src/core/audit.h) and the quotient is formed the same way as the
// uncached path -- cached and uncached reads are bit-identical.
//
// The workspace also carries a *packed pane*: the cluster's submatrix
// copied into a row-major block, epoch-stamped like the residue cache.
// The gain kernels' inner loops are gather loops over scattered column
// ids when run against the raw matrix; against the pane they are
// unit-stride streams the vector kernels eat 4-wide, which is where the
// bulk of the kernel speedup comes from (DESIGN.md "The gain kernel").
// Each pane row is the row's *specified-entry run*: its specified values
// left-packed in column order, plus -- for a row with holes -- a
// parallel uint16 array of their pane-column slots. A dense row's run
// is the plain contiguous row; a holey row's run is read with each
// entry's column base fetched through its slot. Every base and the
// volume are defined over specified entries only, so a scan streams
// exactly the entries it needs: nothing is computed for an unspecified
// cell and then thrown away, and a row's mask is paid for once, when
// its run is built, not on every evaluation.
//
// The pane is *incrementally patched*: a single row toggle splices or
// erases one `row_slots` entry (gathering the new row's run in O(|J|) on
// an addition), and a single column toggle updates each live row's run
// in place -- a dense row shifts its tail with memmove as before; a
// holey row finds the column's position in its slots by lower_bound,
// inserts or erases the entry if (i, j) is specified, and shifts its
// tail slots by +-1 -- instead of the full |I| x |J| gather rebuild a
// stale pane pays. The column patch moves O(|I| x |J|) bytes in the
// worst case, but they are contiguous moves over rows already resident
// in cache, measured several times cheaper than the rebuild's scattered
// matrix gathers. Each row stays one run at all times, so every kernel
// scan after any patch sequence is the same single pass a fresh rebuild
// serves -- patches never tax reads, and reads vastly outnumber
// toggles. (An earlier design kept a column span list and let patches
// split it; the per-span kernel restarts on read made that a net loss.)
// A patch declines -- leaving the pane stale for a compacting rebuild on
// the next EnsurePane() -- when dead rows cross half the live count or
// physical capacity runs out. floc.pane.{rebuilds,patches,compactions}
// count the outcomes.
//
// Filling the caches (residue cache, pane) is NOT thread-safe: all cache
// fills and mutations happen on the coordinating thread. The parallel
// determination sweep reads the pane concurrently, so GainDeterminer
// pre-builds every cluster's pane (EnsurePane) before fanning out; once
// the pane's epoch stamp matches, EnsurePane is a read-only no-op and
// concurrent calls are safe. The pipelined apply sweep (ActionApplier)
// likewise builds every pane first, and afterwards mutates a workspace,
// and refills its caches, only under that cluster's exclusive guard. (The epoch counter itself is atomic only so
// that unrelated workspaces on different threads can be constructed
// safely.)
#ifndef DELTACLUS_CORE_CLUSTER_WORKSPACE_H_
#define DELTACLUS_CORE_CLUSTER_WORKSPACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/cluster_stats.h"
#include "src/core/data_matrix.h"

namespace deltaclus {

/// Identifies which residue norm a cached numerator was accumulated
/// under. Mirrors ResidueNorm (src/core/residue.h); duplicated here as a
/// plain tag so the workspace header does not depend on the engine's.
enum class CachedNormTag : int {
  kNone = -1,       ///< Cache empty / invalidated.
  kMeanAbsolute = 0,
  kMeanSquared = 1,
};

/// Next value of the process-wide membership-epoch counter. Starts at 1
/// so 0 is free to mean "never stamped" in caches keyed on epochs.
inline uint64_t NextMembershipEpoch() {
  // DC_LOCK_FREE: relaxed fetch_add. Only uniqueness and per-workspace
  // monotonicity matter (each workspace stores the value it was handed
  // under its own single-writer discipline); cross-thread ordering of
  // epoch *draws* is never compared, so no stronger ordering is needed.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Widest pane a run's uint16 slots can address: a cluster may span at
/// most this many columns (checked when a pane is built or widened).
constexpr size_t kMaxPaneCols = size_t{1} << 16;

/// The cluster's submatrix packed contiguous: rows in
/// cluster().row_ids() order resolved through `row_slots`, each physical
/// row holding that row's *specified-entry run* -- its specified values
/// left-packed in cluster().col_ids() order, `run_len` of them. A fully
/// specified (dense) row's run is the whole row: values[0..num_cols) in
/// column order, one unit-stride stream. A holey row's run is shorter,
/// and `slots` holds each run entry's pane column (its index into
/// col_ids), so a scan reads entry k's column base at col_bases[slot[k]]
/// and never touches an unspecified cell. Slots are kept for holey rows
/// only: a dense row's are implied (slot k = k) and may hold anything.
/// Both arrays carry kRunReadPad trailing entries so a run pass may read
/// a few entries past any run (src/core/simd_dispatch.h). Per physical
/// row the pane also keeps the run length and the row's base d_iJ
/// (ClusterStats::RowBase, the same bits): a scan reads them beside the
/// row instead of paying a division and two loads keyed by row id per
/// row, which on a skinny cluster is much of a row's cost. Owned
/// and epoch-stamped by ClusterWorkspace (EnsurePane); patched in place
/// by single membership toggles.
struct PackedPane {
  std::vector<double> values;
  std::vector<uint16_t> slots;
  std::vector<uint32_t> run_len;  ///< physical row -> specified entries
  std::vector<double> row_base;   ///< physical row -> the row's base d_iJ
  size_t num_cols = 0;      ///< logical column count
  size_t phys_stride = 0;   ///< physical row width, >= num_cols
  std::vector<uint32_t> row_slots;  ///< logical pane row -> physical row
  size_t next_phys_row = 0;  ///< first unused physical row
  size_t dead_rows = 0;      ///< logically-deleted physical rows

  /// The run of logical pane row `pane_row`: values[0..RunLength) from
  /// this base.
  const double* Row(size_t pane_row) const {
    return values.data() + row_slots[pane_row] * phys_stride;
  }
  /// Pane-column slots of the run (meaningful while the row is holey).
  const uint16_t* Slots(size_t pane_row) const {
    return slots.data() + row_slots[pane_row] * phys_stride;
  }
  size_t RunLength(size_t pane_row) const {
    return run_len[row_slots[pane_row]];
  }
  double RowBase(size_t pane_row) const {
    return row_base[row_slots[pane_row]];
  }
  bool RowDense(size_t pane_row) const {
    return RunLength(pane_row) == num_cols;
  }
};

class ClusterWorkspace {
 public:
  /// Binds to `matrix` (which must outlive the workspace) with empty
  /// membership.
  explicit ClusterWorkspace(const DataMatrix& matrix)
      : view_(matrix), epoch_(NextMembershipEpoch()) {}

  /// Binds to `matrix` and adopts `cluster`, building stats.
  ClusterWorkspace(const DataMatrix& matrix, Cluster cluster)
      : view_(matrix, std::move(cluster)), epoch_(NextMembershipEpoch()) {}

  ClusterWorkspace(const ClusterWorkspace&) = default;
  ClusterWorkspace& operator=(const ClusterWorkspace&) = default;
  ClusterWorkspace(ClusterWorkspace&&) = default;
  ClusterWorkspace& operator=(ClusterWorkspace&&) = default;

  const ClusterView& view() const { return view_; }
  const Cluster& cluster() const { return view_.cluster(); }
  const ClusterStats& stats() const { return view_.stats(); }
  const DataMatrix& matrix() const { return view_.matrix(); }

  /// The membership epoch: advances on every mutation, process-unique.
  /// Equal epochs guarantee unchanged membership (see file comment).
  uint64_t epoch() const { return epoch_; }

  /// Replaces the membership wholesale, rebuilds stats, and advances the
  /// epoch -- even when the new membership equals the old one, because
  /// the rebuilt stats may differ from the incremental ones by
  /// floating-point reassociation and epoch-stamped caches must not
  /// serve numbers derived from the pre-rebuild bits. The pane goes
  /// stale (wholesale changes are what the compacting rebuild is for).
  void Reset(Cluster cluster) {
    view_.Reset(std::move(cluster));
    epoch_ = NextMembershipEpoch();
  }

  /// Membership toggles: stats stay incrementally consistent and the
  /// epoch advances (implicitly invalidating the residue cache and any
  /// gain memo entries stamped with the old epoch). A pane that was
  /// fresh going in is *patched* to the new membership in place (row
  /// splice for rows, run upkeep for columns; see file comment) and
  /// re-stamped with the new epoch, so single toggles -- the only
  /// mutations the FLOC sweeps perform -- never trigger a full pane
  /// rebuild (unless the compaction threshold declines the patch).
  void ToggleRow(size_t i) {
    bool pane_was_fresh = pane_epoch_ == epoch_;
    bool removed = view_.cluster().HasRow(i);
    view_.ToggleRow(i);
    epoch_ = NextMembershipEpoch();
    if (pane_was_fresh) PatchPaneRow(i, removed);
  }
  void ToggleCol(size_t j) {
    bool pane_was_fresh = pane_epoch_ == epoch_;
    bool removed = view_.cluster().HasCol(j);
    view_.ToggleCol(j);
    epoch_ = NextMembershipEpoch();
    if (pane_was_fresh) PatchPaneCol(j, removed);
  }

  // --- Residue cache plumbing (used by ResidueEngine and audit) ---

  /// True if a residue numerator/volume accumulated under `norm` is
  /// cached and membership has not changed since (the cache's epoch
  /// stamp still matches the live epoch).
  bool ResidueCached(CachedNormTag norm) const {
    return cached_norm_ == norm && norm != CachedNormTag::kNone &&
           cached_epoch_ == epoch_;
  }

  /// Cached numerator / volume. Only meaningful when ResidueCached().
  double CachedResidueNumerator() const { return cached_numerator_; }
  size_t CachedResidueVolume() const { return cached_volume_; }

  /// Stores a freshly-accumulated numerator/volume pair, stamped with
  /// the current epoch. `const` because caching is an
  /// observable-behaviour-preserving optimization performed on
  /// logically-immutable reads (ResidueEngine::Residue takes the
  /// workspace const).
  void CacheResidue(CachedNormTag norm, double numerator,
                    size_t volume) const {
    cached_norm_ = norm;
    cached_numerator_ = numerator;
    cached_volume_ = volume;
    cached_epoch_ = epoch_;
  }

  /// Drops the cached residue without touching the epoch. Mutations no
  /// longer need this (the epoch advance un-matches the stamp); public
  /// so tests and audits can force the recompute path.
  void InvalidateResidue() const { cached_norm_ = CachedNormTag::kNone; }

  // --- Packed pane (used by ResidueEngine's workspace kernels) ---

  /// Returns the packed pane for the current membership, rebuilding it
  /// if its epoch stamp is stale. The rebuild is one gather pass over
  /// the submatrix into the canonical compact layout (with physical
  /// slack for future patches). NOT safe to call concurrently while
  /// stale: callers that fan evaluations out over threads must call
  /// this once per cluster on the coordinating thread first
  /// (GainDeterminer does); once fresh, concurrent calls only read.
  const PackedPane& EnsurePane() const {
    if (pane_epoch_ != epoch_) RebuildPane();
    return pane_;
  }

  /// True if the pane is fresh for the current membership (test hook).
  bool PaneValid() const { return pane_epoch_ == epoch_; }

  /// Drops the pane's epoch stamp so the next EnsurePane() pays a full
  /// gather rebuild. Test/bench hook (mirrors InvalidateResidue): lets
  /// patch-vs-rebuild costs be compared on identical toggle sequences.
  void InvalidatePane() const { pane_epoch_ = 0; }

  /// Bytes the packed pane currently holds (values + slots + per-row
  /// run lengths and bases, including patch slack), fresh or stale. Feeds the
  /// session-status memory ledger (src/session/mining_session.h); costs
  /// three vector-size reads.
  size_t PaneBytes() const {
    return pane_.values.size() * sizeof(double) +
           pane_.slots.size() * sizeof(uint16_t) +
           pane_.run_len.size() * sizeof(uint32_t) +
           pane_.row_base.size() * sizeof(double);
  }

 private:
  /// Full gather rebuild into the canonical layout (cluster_workspace.cc;
  /// counts floc.pane.rebuilds).
  void RebuildPane() const;
  /// Single-toggle patches (row splice / run upkeep). Applied only when
  /// the pane was fresh for the pre-toggle membership; on success the
  /// pane is re-stamped with the (already advanced) epoch and
  /// floc.pane.patches counts, otherwise the pane stays stale and
  /// floc.pane.compactions counts the declined patch.
  void PatchPaneRow(size_t i, bool removed);
  void PatchPaneCol(size_t j, bool removed);

  ClusterView view_;
  uint64_t epoch_;
  mutable CachedNormTag cached_norm_ = CachedNormTag::kNone;
  mutable double cached_numerator_ = 0.0;
  mutable size_t cached_volume_ = 0;
  mutable uint64_t cached_epoch_ = 0;
  mutable PackedPane pane_;
  mutable uint64_t pane_epoch_ = 0;
};

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_CLUSTER_WORKSPACE_H_
