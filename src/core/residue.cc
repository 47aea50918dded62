#include "src/core/residue.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "src/core/residue_kernels.h"
#include "src/core/simd_dispatch.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace deltaclus {

namespace {

CachedNormTag TagFor(ResidueNorm norm) {
  return norm == ResidueNorm::kMeanAbsolute ? CachedNormTag::kMeanAbsolute
                                            : CachedNormTag::kMeanSquared;
}

// Specified entries visited by gain-evaluation scans (after-toggle
// residues and cache-filling full scans). Relaxed atomic; no-op while
// metrics are disabled.
obs::Counter* GainEvalEntriesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "floc.gain_eval_entries_scanned");
  return counter;
}

// Of those, the entries accumulated by the branch-free dense kernel
// (rows fully specified over the visited columns). The ratio of this to
// floc.gain_eval_entries_scanned is the dense-path coverage of a run.
obs::Counter* GainEvalEntriesDenseCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "floc.gain_eval_entries_dense");
  return counter;
}

// Lane-split row passes (DESIGN.md "The gain kernel"). All passes
// accumulate a row's contributions into four independent lanes -- the
// p-th *visited* entry lands in lane p mod 4 -- and reduce as
// (l0 + l1) + (l2 + l3). Four accumulators break the loop-carried
// FP-add dependency chain (the scalar kernel's bottleneck), letting the
// adds pipeline; tying the lane index to visit order (not memory
// position) makes every pass bit-identical whenever every visited entry
// is specified, so dispatch between them can never change a result.
//
// The bodies (LaneAcc, Contribution, the dense and run passes and the
// pane-scan row loop) live in src/core/residue_kernels.h, shared with
// the AVX2 translation unit; the scans below call them through the
// runtime-dispatched table (src/core/simd_dispatch.h), which is
// bit-invisible by the same lane contract. Every scan -- a cluster, a
// row toggle, a column toggle, or a batch of up to four row or
// added-column toggles of one cluster -- is one table call, whose row
// loop calls nothing.

// Points `scan` at the workspace's pane: its arrays, height, width and
// stride. The scan's column bases, cluster base, left-out row and
// trailing row are the caller's. A row's run length is its specified
// count over the columns.
void AttachPane(const ClusterWorkspace& ws, PaneScan* scan) {
  const PackedPane& pane = ws.EnsurePane();
  const auto& row_ids = ws.cluster().row_ids();
  for (size_t pr = 0; pr < row_ids.size(); ++pr) {
    DC_DCHECK_EQ(pane.RunLength(pr), ws.stats().RowCount(row_ids[pr]));
  }
  scan->values = pane.values.data();
  scan->slots = pane.slots.data();
  scan->run_len = pane.run_len.data();
  scan->row_base = pane.row_base.data();
  scan->row_slots = pane.row_slots.data();
  scan->rows = pane.row_slots.size();
  scan->num_cols = pane.num_cols;
  scan->stride = pane.phys_stride;
}

// Points a column-toggle `scan` at the workspace's pane -- its arrays,
// height, width and stride, its rows' matrix ids and the cluster's row
// sums -- and at the column bases `col_bases` (the current ones, which a
// column toggle leaves unchanged).
void AttachPaneCol(const ClusterWorkspace& ws, const double* col_bases,
                   PaneColScan* scan) {
  const PackedPane& pane = ws.EnsurePane();
  scan->values = pane.values.data();
  scan->slots = pane.slots.data();
  scan->run_len = pane.run_len.data();
  scan->row_slots = pane.row_slots.data();
  scan->rows = pane.row_slots.size();
  scan->num_cols = pane.num_cols;
  scan->stride = pane.phys_stride;
  scan->col_bases = col_bases;
  scan->row_ids = ws.cluster().row_ids().data();
  scan->row_sums = ws.stats().RowSums();
  // The scan takes each row's count in the cluster from its run length.
  for (size_t pr = 0; pr < scan->rows; ++pr) {
    DC_DCHECK_EQ(pane.RunLength(pr), ws.stats().RowCount(scan->row_ids[pr]));
  }
}

template <bool kSquared>
PaneSum ScanPane(const PaneScan& scan) {
  const SimdKernels& simd = ActiveSimdKernels();
  return kSquared ? simd.scan_pane_sq(scan) : simd.scan_pane_abs(scan);
}

}  // namespace

size_t VolumeNaive(const DataMatrix& m, const Cluster& c) {
  size_t volume = 0;
  for (uint32_t i : c.row_ids()) {
    for (uint32_t j : c.col_ids()) {
      if (m.IsSpecified(i, j)) ++volume;
    }
  }
  return volume;
}

double RowBaseNaive(const DataMatrix& m, const Cluster& c, size_t i) {
  double sum = 0.0;
  size_t count = 0;
  for (uint32_t j : c.col_ids()) {
    if (!m.IsSpecified(i, j)) continue;
    sum += m.Value(i, j);
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

double ColBaseNaive(const DataMatrix& m, const Cluster& c, size_t j) {
  double sum = 0.0;
  size_t count = 0;
  for (uint32_t i : c.row_ids()) {
    if (!m.IsSpecified(i, j)) continue;
    sum += m.Value(i, j);
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

double ClusterBaseNaive(const DataMatrix& m, const Cluster& c) {
  double sum = 0.0;
  size_t count = 0;
  for (uint32_t i : c.row_ids()) {
    for (uint32_t j : c.col_ids()) {
      if (!m.IsSpecified(i, j)) continue;
      sum += m.Value(i, j);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

double EntryResidueNaive(const DataMatrix& m, const Cluster& c, size_t i,
                         size_t j) {
  if (!m.IsSpecified(i, j)) return 0.0;
  return m.Value(i, j) - RowBaseNaive(m, c, i) - ColBaseNaive(m, c, j) +
         ClusterBaseNaive(m, c);
}

double ClusterResidueNaive(const DataMatrix& m, const Cluster& c,
                           ResidueNorm norm) {
  size_t volume = VolumeNaive(m, c);
  if (volume == 0) return 0.0;
  double acc = 0.0;
  for (uint32_t i : c.row_ids()) {
    for (uint32_t j : c.col_ids()) {
      if (!m.IsSpecified(i, j)) continue;
      double r = EntryResidueNaive(m, c, i, j);
      acc += norm == ResidueNorm::kMeanAbsolute ? std::abs(r) : r * r;
    }
  }
  return acc / volume;
}

void ScanTally::Flush() const {
  if (entries != 0) GainEvalEntriesCounter()->Inc(entries);
  if (dense_entries != 0) GainEvalEntriesDenseCounter()->Inc(dense_entries);
}

void ResidueEngine::CountScan(size_t entries) {
  if (tally_ != nullptr) {
    tally_->entries += entries;
    tally_->dense_entries += dense_entries_last_scan_;
    return;
  }
  GainEvalEntriesCounter()->Inc(entries);
  if (dense_entries_last_scan_ != 0) {
    GainEvalEntriesDenseCounter()->Inc(dense_entries_last_scan_);
  }
}

double ResidueEngine::Residue(const ClusterWorkspace& ws) {
  CachedNormTag tag = TagFor(norm_);
  if (!ws.ResidueCached(tag)) {
    // Cache miss: one full pane scan, then remember its numerator/volume
    // (stamped with the membership epoch) so repeated reads are O(1).
    size_t volume = ws.stats().Volume();
    double numerator =
        volume == 0 ? 0.0
                    : (norm_ == ResidueNorm::kMeanSquared
                           ? NumeratorImpl<true>(ws)
                           : NumeratorImpl<false>(ws));
    CountScan(volume);
    ws.CacheResidue(tag, numerator, volume);
  }
  size_t volume = ws.CachedResidueVolume();
  if (volume == 0) return 0.0;
  return ws.CachedResidueNumerator() / volume;
}

double ResidueEngine::ResidueAfterToggleRow(const ClusterWorkspace& ws,
                                            size_t i,
                                            size_t* new_volume_out) {
  size_t new_volume = 0;
  double residue = norm_ == ResidueNorm::kMeanSquared
                       ? AfterToggleRowImpl<true>(ws, i, &new_volume)
                       : AfterToggleRowImpl<false>(ws, i, &new_volume);
  // The after-toggle scan visits exactly the post-toggle cluster's
  // specified entries.
  CountScan(new_volume);
  if (new_volume_out != nullptr) *new_volume_out = new_volume;
  return residue;
}

double ResidueEngine::ResidueAfterToggleCol(const ClusterWorkspace& ws,
                                            size_t j,
                                            size_t* new_volume_out) {
  size_t new_volume = 0;
  double residue = norm_ == ResidueNorm::kMeanSquared
                       ? AfterToggleColImpl<true>(ws, j, &new_volume)
                       : AfterToggleColImpl<false>(ws, j, &new_volume);
  CountScan(new_volume);
  if (new_volume_out != nullptr) *new_volume_out = new_volume;
  return residue;
}

// ---------------------------------------------------------------------------
// Scan kernels. Member rows stream from the workspace's packed pane
// (contiguous, vectorizable) in cluster row/column order. Entries outside
// the pane -- a row being added, or the column being added -- are the
// only gathered reads, and they are O(|J|) / O(|I|) per evaluation.
// ---------------------------------------------------------------------------

template <bool kSquared>
double ResidueEngine::NumeratorImpl(const ClusterWorkspace& ws) {
  const ClusterStats& stats = ws.stats();
  dense_entries_last_scan_ = 0;
  if (stats.Volume() == 0) return 0.0;

  PaneScan scan;
  scan.col_bases = CurrentColBases(ws);
  scan.cluster_base = stats.ClusterBase();
  AttachPane(ws, &scan);
  PaneSum scanned = ScanPane<kSquared>(scan);
  dense_entries_last_scan_ = scanned.dense_entries;
  return scanned.sum;
}

// Prepares the scan of toggling row i in ws: returns the post-toggle
// volume and, when it is not 0, fills the candidate's fields of `scan`
// (whose pane fields the caller sets, AttachPane) -- the adjusted column
// bases and a gathered added row, written into `scratch`, the cluster
// base and the left-out row.
size_t ResidueEngine::PrepareRowToggle(const ClusterWorkspace& ws, size_t i,
                                       RowToggleScratch& scratch,
                                       PaneScan* scan) {
  const DataMatrix& m = ws.matrix();
  const Cluster& c = ws.cluster();
  const ClusterStats& stats = ws.stats();
  const auto& col_ids = c.col_ids();
  const auto& row_ids = c.row_ids();
  const double* row_values_i = m.RowValues(i).data();
  const uint8_t* row_mask_i = m.RowMask(i).data();

  bool removing = c.HasRow(i);

  double toggled_sum = 0.0;
  size_t toggled_cnt = 0;
  if (removing) {
    toggled_sum = stats.RowSum(i);
    toggled_cnt = stats.RowCount(i);
  } else {
    ClusterStats::RowSumOverCols(m, col_ids, i, &toggled_sum, &toggled_cnt);
  }

  double new_total =
      removing ? stats.Total() - toggled_sum : stats.Total() + toggled_sum;
  size_t new_volume =
      removing ? stats.Volume() - toggled_cnt : stats.Volume() + toggled_cnt;
  if (new_volume == 0) return 0;
  scan->cluster_base = new_total / new_volume;

  size_t n = col_ids.size();
  // Adjusted column bases: only the columns where row i is specified
  // move. Branch-free: the adjusted sum is always formed and selected
  // on the mask (a select on the result, not an added 0.0, keeps the
  // unadjusted sum's bits -- and an unspecified payload -- out of it).
  scratch.col_base.resize(n);
  bool row_i_dense = toggled_cnt == n;
  for (size_t idx = 0; idx < n; ++idx) {
    uint32_t jcol = col_ids[idx];
    double sum = stats.ColSum(jcol);
    size_t cnt = stats.ColCount(jcol);
    bool moves = row_i_dense || row_mask_i[jcol] != 0;
    double v = row_values_i[jcol];
    double moved_sum = removing ? sum - v : sum + v;
    size_t moved_cnt = removing ? cnt - 1 : cnt + 1;
    sum = moves ? moved_sum : sum;
    cnt = moves ? moved_cnt : cnt;
    scratch.col_base[idx] = cnt == 0 ? 0.0 : sum / cnt;
  }
  scan->col_bases = scratch.col_base.data();

  // Member rows stream from the pane (their row bases are unchanged by a
  // row toggle); on removal, row i's pane row is left out. An added row
  // lies outside the pane: it is gathered into the scratch run (padded
  // like a pane run) and scanned last, in the same kernel call.
  scan->skip = removing ? static_cast<size_t>(
                              std::lower_bound(row_ids.begin(), row_ids.end(),
                                               static_cast<uint32_t>(i)) -
                              row_ids.begin())
                        : SIZE_MAX;
  scan->added_values = nullptr;
  if (!removing && toggled_cnt > 0) {
    scratch.run_values.resize(n + kRunReadPad);
    scratch.run_slots.resize(n + kRunReadPad);
    scan->added_values = scratch.run_values.data();
    scan->added_slots = scratch.run_slots.data();
    scan->added_len =
        GatherRun(row_values_i, row_mask_i, col_ids.data(), n,
                  scratch.run_values.data(), scratch.run_slots.data());
    scan->added_row_base = toggled_sum / toggled_cnt;
  }
  return new_volume;
}

template <bool kSquared>
double ResidueEngine::AfterToggleRowImpl(const ClusterWorkspace& ws,
                                         size_t i, size_t* new_volume_out) {
  dense_entries_last_scan_ = 0;
  PaneScan scan;
  size_t new_volume = PrepareRowToggle(ws, i, row_scratch_[0], &scan);
  *new_volume_out = new_volume;
  if (new_volume == 0) return 0.0;
  AttachPane(ws, &scan);
  PaneSum scanned = ScanPane<kSquared>(scan);
  dense_entries_last_scan_ = scanned.dense_entries;
  return scanned.sum / new_volume;
}

void ResidueEngine::ResidueAfterToggleRows(const ClusterWorkspace& ws,
                                           const size_t* rows, size_t count,
                                           double* residues,
                                           size_t* new_volumes) {
  DC_CHECK(norm_ == ResidueNorm::kMeanAbsolute)
      << "batched row toggles scan the mean absolute residue only";
  DC_DCHECK(count >= 1 && count <= kRowBatch);
  // Each candidate is prepared into its own scratch; a candidate whose
  // toggle empties the cluster needs no scan. The live ones take the
  // batch's lanes in order.
  PaneScanBatch batch;
  size_t lane_of[kRowBatch];
  for (size_t q = 0; q < count; ++q) {
    PaneScan& scan = batch.scans[batch.live];
    new_volumes[q] = PrepareRowToggle(ws, rows[q], row_scratch_[batch.live],
                                      &scan);
    lane_of[q] = new_volumes[q] == 0 ? kRowBatch : batch.live++;
  }
  PaneSum sums[kRowBatch];
  if (batch.live > 0) {
    size_t n = ws.cluster().NumCols();
    scratch_bases4_.resize(n * kRowBatch);
    for (size_t lane = 0; lane < batch.live; ++lane) {
      PaneScan& scan = batch.scans[lane];
      AttachPane(ws, &scan);
      for (size_t idx = 0; idx < n; ++idx) {
        scratch_bases4_[idx * kRowBatch + lane] = scan.col_bases[idx];
      }
    }
    batch.bases4 = scratch_bases4_.data();
    ActiveSimdKernels().scan_pane_rows4_abs(batch, sums);
  }
  for (size_t q = 0; q < count; ++q) {
    size_t lane = lane_of[q];
    dense_entries_last_scan_ = lane < kRowBatch ? sums[lane].dense_entries : 0;
    residues[q] = lane < kRowBatch ? sums[lane].sum / new_volumes[q] : 0.0;
    CountScan(new_volumes[q]);
  }
}

size_t ResidueEngine::PrepareColToggle(const ClusterWorkspace& ws, size_t j,
                                       PaneColScan* scan) {
  const DataMatrix& m = ws.matrix();
  const Cluster& c = ws.cluster();
  const ClusterStats& stats = ws.stats();
  bool removing = c.HasCol(j);

  // A removed column's sums are the stats' own; an added one's are
  // summed down the column over the cluster's rows.
  double toggled_sum = 0.0;
  size_t toggled_cnt = 0;
  if (removing) {
    toggled_sum = stats.ColSum(j);
    toggled_cnt = stats.ColCount(j);
  } else {
    ClusterStats::ColSumOverRows(m, c.row_ids(), j, &toggled_sum,
                                 &toggled_cnt);
  }
  double new_total =
      removing ? stats.Total() - toggled_sum : stats.Total() + toggled_sum;
  size_t new_volume =
      removing ? stats.Volume() - toggled_cnt : stats.Volume() + toggled_cnt;
  scan->cluster_base = new_volume == 0 ? 0.0 : new_total / new_volume;
  // Column j's entries, read by matrix row on the column-major mirror.
  scan->col_values = m.ColValues(j).data();
  scan->col_mask = m.ColMask(j).data();
  // On removal j's pane column is left out of every row; on addition
  // column j lies outside the pane and each row's entry is appended
  // last, matching the post-toggle column order.
  const auto& col_ids = c.col_ids();
  scan->removed_col =
      removing ? static_cast<size_t>(
                     std::lower_bound(col_ids.begin(), col_ids.end(),
                                      static_cast<uint32_t>(j)) -
                     col_ids.begin())
               : SIZE_MAX;
  scan->added_col_base = toggled_cnt == 0 ? 0.0 : toggled_sum / toggled_cnt;
  return new_volume;
}

const double* ResidueEngine::CurrentColBases(const ClusterWorkspace& ws) {
  const ClusterStats& stats = ws.stats();
  const auto& col_ids = ws.cluster().col_ids();
  scratch_col_base_.resize(col_ids.size());
  for (size_t idx = 0; idx < col_ids.size(); ++idx) {
    scratch_col_base_[idx] = stats.ColBase(col_ids[idx]);
  }
  return scratch_col_base_.data();
}

template <bool kSquared>
double ResidueEngine::AfterToggleColImpl(const ClusterWorkspace& ws,
                                         size_t j, size_t* new_volume_out) {
  dense_entries_last_scan_ = 0;
  PaneColScan scan;
  size_t new_volume = PrepareColToggle(ws, j, &scan);
  *new_volume_out = new_volume;
  if (new_volume == 0) return 0.0;
  AttachPaneCol(ws, CurrentColBases(ws), &scan);
  const SimdKernels& simd = ActiveSimdKernels();
  PaneSum scanned =
      kSquared ? simd.scan_pane_col_sq(scan) : simd.scan_pane_col_abs(scan);
  dense_entries_last_scan_ = scanned.dense_entries;
  return scanned.sum / new_volume;
}

void ResidueEngine::ResidueAfterToggleCols(const ClusterWorkspace& ws,
                                           const size_t* cols, size_t count,
                                           double* residues,
                                           size_t* new_volumes) {
  DC_CHECK(norm_ == ResidueNorm::kMeanAbsolute)
      << "batched column toggles scan the mean absolute residue only";
  DC_DCHECK(count >= 1 && count <= kColBatch);
  // The additions are scanned as one batch, their lanes in order; the
  // first addition fills the unused lanes (whose sums the kernel never
  // reports). A removal is scanned on its own.
  PaneColScanBatch batch;
  size_t added_q[kColBatch];
  for (size_t q = 0; q < count; ++q) {
    if (ws.cluster().HasCol(cols[q])) continue;
    added_q[batch.live] = q;
    new_volumes[q] = PrepareColToggle(ws, cols[q], &batch.scans[batch.live]);
    ++batch.live;
  }
  PaneSum sums[kColBatch];
  size_t additions = batch.live;
  if (additions > 0) {
    const double* col_bases = CurrentColBases(ws);
    for (size_t a = 0; a < kColBatch; ++a) {
      if (a >= additions) batch.scans[a] = batch.scans[0];
      AttachPaneCol(ws, col_bases, &batch.scans[a]);
    }
    ActiveSimdKernels().scan_pane_cols4_abs(batch, sums);
  }
  size_t a = 0;
  for (size_t q = 0; q < count; ++q) {
    if (a < additions && added_q[a] == q) {
      // A toggle that empties the cluster has residue 0 and scans
      // nothing, as a single one does.
      bool empty = new_volumes[q] == 0;
      dense_entries_last_scan_ = empty ? 0 : sums[a].dense_entries;
      residues[q] = empty ? 0.0 : sums[a].sum / new_volumes[q];
      CountScan(new_volumes[q]);
      ++a;
    } else {
      residues[q] = ResidueAfterToggleCol(ws, cols[q], &new_volumes[q]);
    }
  }
}

}  // namespace deltaclus
