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
// bit-invisible by the same lane contract. A row and a column scan make
// one table call per scan and per pane row respectively.

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
  const Cluster& c = ws.cluster();
  const ClusterStats& stats = ws.stats();
  dense_entries_last_scan_ = 0;
  if (stats.Volume() == 0) return 0.0;

  const auto& col_ids = c.col_ids();
  size_t n = col_ids.size();
  scratch_col_base_.resize(n);
  for (size_t idx = 0; idx < n; ++idx) {
    scratch_col_base_[idx] = stats.ColBase(col_ids[idx]);
  }
  PaneScan scan;
  scan.col_bases = scratch_col_base_.data();
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

template <bool kSquared>
double ResidueEngine::AfterToggleColImpl(const ClusterWorkspace& ws,
                                             size_t j,
                                             size_t* new_volume_out) {
  const DataMatrix& m = ws.matrix();
  const Cluster& c = ws.cluster();
  const ClusterStats& stats = ws.stats();
  const auto& col_ids = c.col_ids();
  const auto& row_ids = c.row_ids();
  dense_entries_last_scan_ = 0;

  bool removing = c.HasCol(j);

  double toggled_sum = 0.0;
  size_t toggled_cnt = 0;
  if (removing) {
    toggled_sum = stats.ColSum(j);
    toggled_cnt = stats.ColCount(j);
  } else {
    ClusterStats::ColSumOverRows(m, row_ids, j, &toggled_sum, &toggled_cnt);
  }

  double new_total =
      removing ? stats.Total() - toggled_sum : stats.Total() + toggled_sum;
  size_t new_volume =
      removing ? stats.Volume() - toggled_cnt : stats.Volume() + toggled_cnt;
  if (new_volume_out != nullptr) *new_volume_out = new_volume;
  if (new_volume == 0) return 0.0;
  double cluster_base = new_total / new_volume;
  double toggled_col_base =
      toggled_cnt == 0 ? 0.0 : toggled_sum / toggled_cnt;

  // Column bases in pane-column order, uncompacted: pane rows index them
  // by position (dense rows) or by slot (runs). On removal `jj` is j's
  // pane column, which splits each row's visit sequence in two; the
  // lane phase carried across the split keeps the visit sequence -- and
  // hence the per-lane addition chains -- identical to a single pass
  // over the post-toggle columns. On addition column j is outside the
  // pane and is visited last, with its own base.
  size_t n_pane = col_ids.size();
  size_t jj = removing ? static_cast<size_t>(
                             std::lower_bound(col_ids.begin(), col_ids.end(),
                                              static_cast<uint32_t>(j)) -
                             col_ids.begin())
                       : n_pane;
  scratch_col_base_.resize(n_pane);
  for (size_t idx = 0; idx < n_pane; ++idx) {
    scratch_col_base_[idx] = stats.ColBase(col_ids[idx]);
  }
  size_t n = removing ? n_pane - 1 : n_pane + 1;
  const double* col_bases = scratch_col_base_.data();

  // Column j's entries, read stride-1 on the column-major mirror.
  const double* col_values_j = m.ColValues(j).data();
  const uint8_t* col_mask_j = m.ColMask(j).data();

  const PackedPane& pane = ws.EnsurePane();
  const SimdKernels& simd = ActiveSimdKernels();
  SimdKernels::SegDenseFn seg_dense =
      kSquared ? simd.seg_dense_sq : simd.seg_dense_abs;
  SimdKernels::SegRunFn seg_run =
      kSquared ? simd.seg_run_sq : simd.seg_run_abs;
  double acc = 0.0;
  size_t dense_entries = 0;
  for (size_t pr = 0; pr < row_ids.size(); ++pr) {
    uint32_t i = row_ids[pr];
    // Adjusted row base: moves only if (i, j) is specified (selected
    // branch-free, as for the column bases of a row toggle). row_cnt
    // becomes the row's specified count over the post-toggle column
    // set, which feeds the dense-coverage tally.
    bool j_specified = col_mask_j[i] != 0;
    double v = col_values_j[i];
    double row_sum = stats.RowSum(i);
    size_t run_len = pane.RunLength(pr);
    DC_DCHECK_EQ(run_len, stats.RowCount(i));
    size_t row_cnt = run_len;
    double moved_sum = removing ? row_sum - v : row_sum + v;
    size_t moved_cnt = removing ? row_cnt - 1 : row_cnt + 1;
    row_sum = j_specified ? moved_sum : row_sum;
    row_cnt = j_specified ? moved_cnt : row_cnt;
    double row_base = row_cnt == 0 ? 0.0 : row_sum / row_cnt;

    const double* row = pane.Row(pr);
    LaneAcc lanes;
    if (run_len == n_pane) {
      // Dense pane row: unit-stride slices around column jj.
      if (removing) {
        seg_dense(row, col_bases, jj, row_base, cluster_base, lanes);
        seg_dense(row + jj + 1, col_bases + jj + 1, n_pane - jj - 1,
                  row_base, cluster_base, lanes);
      } else {
        seg_dense(row, col_bases, n_pane, row_base, cluster_base, lanes);
      }
    } else {
      // Holey pane row: the run. On removal it splits where its slots
      // pass jj; if (i, j) is specified, its entry is the first past the
      // split and is skipped.
      const uint16_t* slots = pane.Slots(pr);
      if (removing) {
        size_t split = static_cast<size_t>(
            std::lower_bound(slots, slots + run_len, jj) - slots);
        seg_run(row, slots, col_bases, split, row_base, cluster_base, lanes);
        size_t rest = split + (j_specified ? 1 : 0);
        seg_run(row + rest, slots + rest, col_bases, run_len - rest,
                row_base, cluster_base, lanes);
      } else {
        seg_run(row, slots, col_bases, run_len, row_base, cluster_base,
                lanes);
      }
    }
    if (!removing) {
      // Column j is visited last, matching the post-toggle column order.
      // Branch-free: the lane keeps its bits unless (i, j) is specified.
      double& lane = lanes.l[lanes.p & 3];
      double added =
          lane + Contribution<kSquared>(v, row_base, toggled_col_base,
                                        cluster_base);
      lane = j_specified ? added : lane;
      lanes.p += j_specified;
    }
    if (row_cnt == n) dense_entries += n;
    acc += lanes.Reduce();
  }
  dense_entries_last_scan_ = dense_entries;
  return acc / new_volume;
}

}  // namespace deltaclus
