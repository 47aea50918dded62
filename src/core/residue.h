// Residue computation for delta-clusters (paper Definitions 3.4 / 3.5).
//
// The residue of a specified entry is
//     r_ij = d_ij - d_iJ - d_Ij + d_IJ
// and the residue of a cluster is the arithmetic mean of |r_ij| over its
// specified entries (the paper also mentions square mean; both are
// supported via ResidueNorm).
//
// ResidueEngine computes the residue of a ClusterWorkspace's cluster and
// evaluates the residue the cluster *would* have after toggling one row
// or column membership, without mutating the cluster and without copying
// its stats -- this is the kernel behind FLOC's gain computation
// (Section 4.1), where gain(Action(x, c)) is the reduction of c's residue
// caused by the action.
//
// Every scan runs over the workspace's epoch-cached *packed pane* (a
// contiguous copy of the submatrix, src/core/cluster_workspace.h), so
// member rows stream unit-stride instead of gathering through the
// column-id list. The kernels are lane-split: each row's contributions
// accumulate into four independent lanes (the p-th *visited* entry lands
// in lane p mod 4) that reduce as (l0 + l1) + (l2 + l3). Each pane row
// is stored as its *specified-entry run*: its specified values
// left-packed in column order. A fully specified (dense) row's run is
// the whole row and takes the dense pass; a holey row's run carries
// parallel uint16 pane-column slots, and the run pass reads each entry's
// column base through its slot. Both visit exactly the specified entries
// in column order and add them in the same lane pattern, so the result
// never depends on which pass ran. A cluster scan and a row-toggle scan
// are each one call of the runtime-dispatched SIMD table's pane-scan
// slot, which walks the rows and picks the pass per row; a row being
// added is gathered into a run and scanned last in that same call. Up
// to four row toggles of one cluster are scanned in one pane pass
// (ResidueAfterToggleRows), each to the bits its own scan gives. See
// DESIGN.md "The gain kernel".
#ifndef DELTACLUS_CORE_RESIDUE_H_
#define DELTACLUS_CORE_RESIDUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/cluster_workspace.h"
#include "src/core/data_matrix.h"
#include "src/core/residue_kernels.h"

namespace deltaclus {

/// How per-entry residues are aggregated into a cluster residue.
enum class ResidueNorm {
  /// Arithmetic mean of |r_ij| (the paper's choice, Definition 3.5).
  kMeanAbsolute,
  /// Mean of r_ij^2 (the Cheng & Church mean squared residue; listed by
  /// the paper as an admissible alternative).
  kMeanSquared,
};

// ---------------------------------------------------------------------------
// Reference (naive) implementations. These recompute everything from the
// matrix on each call; they are the executable specification used by the
// tests and by small examples, not by the hot path.
// ---------------------------------------------------------------------------

/// Volume v_IJ: number of specified entries in the (I, J) submatrix.
size_t VolumeNaive(const DataMatrix& m, const Cluster& c);

/// Row base d_iJ (0 if row i has no specified entry over J).
double RowBaseNaive(const DataMatrix& m, const Cluster& c, size_t i);

/// Column base d_Ij (0 if column j has no specified entry over I).
double ColBaseNaive(const DataMatrix& m, const Cluster& c, size_t j);

/// Cluster base d_IJ (0 for volume-0 clusters).
double ClusterBaseNaive(const DataMatrix& m, const Cluster& c);

/// Residue of entry (i, j); 0 when the entry is missing (Definition 3.4).
double EntryResidueNaive(const DataMatrix& m, const Cluster& c, size_t i,
                         size_t j);

/// Cluster residue under the given norm (Definition 3.5).
double ClusterResidueNaive(const DataMatrix& m, const Cluster& c,
                           ResidueNorm norm = ResidueNorm::kMeanAbsolute);

// ---------------------------------------------------------------------------
// ResidueEngine: stats-backed fast path.
// ---------------------------------------------------------------------------

/// Entries counted by one caller's scans, published to the
/// floc.gain_eval_entries_scanned / floc.gain_eval_entries_dense
/// counters in one step (Flush). A parallel sweep gives each shard's
/// engine its own tally and flushes once, instead of every evaluation
/// doing a shared atomic add from every worker.
struct ScanTally {
  uint64_t entries = 0;
  uint64_t dense_entries = 0;

  void Merge(const ScanTally& other) {
    entries += other.entries;
    dense_entries += other.dense_entries;
  }
  /// Adds the tally to the global counters (no-op while metrics are
  /// disabled). Does not reset it.
  void Flush() const;
};

/// Computes cluster residues and virtual-toggle residues using a
/// workspace's incrementally-maintained ClusterStats and packed pane. One
/// engine may serve many clusters over the same matrix; it only holds
/// scratch buffers. To evaluate a bare Cluster, build a ClusterWorkspace
/// over it first. Every scan counts its entries in the
/// floc.gain_eval_entries_scanned counter (and dense-kernel entries in
/// floc.gain_eval_entries_dense): directly, or into `tally` when one is
/// given, for the owner to flush.
class ResidueEngine {
 public:
  explicit ResidueEngine(ResidueNorm norm = ResidueNorm::kMeanAbsolute,
                         ScanTally* tally = nullptr)
      : norm_(norm), tally_(tally) {}

  ResidueNorm norm() const { return norm_; }

  /// Residue of a workspace's cluster, served from the workspace's
  /// epoch-stamped cache when membership has not changed since the last
  /// computation under this engine's norm. First call after a toggle is
  /// one O(volume) lane-split pass; repeated calls are O(1) and
  /// bit-identical to the pass result (the cache stores the scan's
  /// numerator and volume, and the quotient is formed the same way).
  double Residue(const ClusterWorkspace& ws);

  /// Residue the cluster would have after toggling row i's membership.
  /// Does not modify the cluster. One pass over the *post-toggle*
  /// submatrix plus an O(|J|) adjusted-column-base pass: member rows
  /// stream from the pane, and an added row (outside the pane) is
  /// gathered into a scratch run and scanned last, in the same kernel
  /// call. If `new_volume` is non-null it receives the post-toggle
  /// volume.
  double ResidueAfterToggleRow(const ClusterWorkspace& ws, size_t i,
                               size_t* new_volume = nullptr);

  /// ResidueAfterToggleRow for `count` (1..kRowBatch) rows of one
  /// cluster at once: residues[q] and new_volumes[q] are the after-toggle
  /// residue and volume of toggling rows[q], bit-identical to one
  /// ResidueAfterToggleRow call each, and counted the same. Each
  /// candidate is prepared as ResidueAfterToggleRow prepares it, then
  /// all are scanned in one pane pass (the scan_pane_rows4_abs slot).
  /// Mean absolute residue only (the norm FLOC mines under).
  void ResidueAfterToggleRows(const ClusterWorkspace& ws, const size_t* rows,
                              size_t count, double* residues,
                              size_t* new_volumes);

  /// Residue the cluster would have after toggling column j's membership.
  /// Does not modify the cluster. One pass over the post-toggle
  /// submatrix plus an O(|I|) pass down column j on the column-major
  /// plane (for the toggled sums and per-row adjusted row bases). If
  /// `new_volume` is non-null it receives the post-toggle volume.
  double ResidueAfterToggleCol(const ClusterWorkspace& ws, size_t j,
                               size_t* new_volume = nullptr);

  /// Gain of the action "toggle row i / column j in this cluster":
  /// current residue minus post-action residue (positive gain =
  /// improvement). The standing residue comes from the workspace cache,
  /// so evaluating many candidate toggles against the same cluster costs
  /// one after-toggle scan each.
  double GainToggleRow(const ClusterWorkspace& ws, size_t i) {
    return Residue(ws) - ResidueAfterToggleRow(ws, i);
  }
  double GainToggleCol(const ClusterWorkspace& ws, size_t j) {
    return Residue(ws) - ResidueAfterToggleCol(ws, j);
  }

 private:
  // Norm-templated kernel bodies (defined in residue.cc); the public
  // entry points dispatch on norm_ once per call so the per-entry loop
  // carries no norm branch.
  template <bool kSquared>
  double NumeratorImpl(const ClusterWorkspace& ws);
  template <bool kSquared>
  double AfterToggleRowImpl(const ClusterWorkspace& ws, size_t i,
                            size_t* new_volume_out);
  template <bool kSquared>
  double AfterToggleColImpl(const ClusterWorkspace& ws, size_t j,
                            size_t* new_volume_out);
  // Counts a finished scan of `entries` entries (and the dense ones it
  // recorded) into tally_, or into the global counters without one.
  void CountScan(size_t entries);

  /// One row-toggle candidate's scratch: its column bases in pane-column
  /// order, and the run of a row being added (GatherRun), with
  /// kRunReadPad readable entries past it like a pane run.
  struct RowToggleScratch {
    std::vector<double> col_base;
    std::vector<double> run_values;
    std::vector<uint16_t> run_slots;
  };
  // Prepares toggling row i in ws (see residue.cc); returns the
  // post-toggle volume.
  static size_t PrepareRowToggle(const ClusterWorkspace& ws, size_t i,
                                 RowToggleScratch& scratch, PaneScan* scan);

  ResidueNorm norm_;
  ScanTally* tally_;
  // Scratch: column bases aligned with the visited-column list of the
  // current scan (full and column-toggle scans).
  std::vector<double> scratch_col_base_;
  // Scratch of each row-toggle candidate of a batch (the first serves
  // single row toggles), and the batch's interleaved column bases.
  RowToggleScratch row_scratch_[kRowBatch];
  std::vector<double> scratch_bases4_;
  // Entries the most recent scan accumulated through the dense kernel,
  // counted into floc.gain_eval_entries_dense.
  size_t dense_entries_last_scan_ = 0;
};

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_RESIDUE_H_
