// The gain-kernel bodies shared between the scalar reference path and
// the per-ISA SIMD translation unit (src/core/residue_kernels_avx2.cc,
// dispatched at runtime by src/core/simd_dispatch.h).
//
// LaneAcc is the correctness spec for every implementation: the p-th
// *visited* entry of a row lands in lane p mod 4, each lane accumulates
// its entries in visit order, and the reduction is (l0 + l1) + (l2 + l3).
// A 4-wide vector kernel that maps vector element p onto lane p performs
// per-lane addition chains identical to the scalar 4-unrolled body, so
// scalar and SIMD outputs are bit-identical -- dispatching between them
// can never change a mined result.
//
// Holey pane rows follow the same contract through their specified-entry
// runs (PackedPane, src/core/cluster_workspace.h): the pane keeps such a
// row as its specified values left-packed in pane-column order plus each
// value's pane-column slot, so entry p of the run is exactly the p-th
// entry a skip loop over the row would visit, and its column base is
// col_bases[slot[p]]. The run passes are the dense passes with the base
// read through the slot -- no mask is read and no unspecified cell is
// touched on the per-entry path.
//
// A row being added lies outside the pane. It is gathered from the
// matrix into a padded scratch run (GatherRun, the same compaction that
// builds a pane row) and scanned as the trailing row of the pane scan,
// through the same row bodies as a member row.
//
// The pane-scan row loop (ScanPaneRows) is written once, here; each
// kernel table instantiates it with its own whole-row bodies, so a
// whole scan is one table call whatever the pane's height.
//
// Row-toggle candidates of one cluster share the pane and differ only
// in their column bases, cluster base, left-out row and trailing row, so
// up to kRowBatch of them are scanned in one pane pass (PaneScanBatch).
// Its specification is one ScanPaneRows per candidate (ScanPaneRowsBatch,
// the scalar table's slot); a vector table computes the same per-lane
// addition chains for each candidate, vectorized across candidates.
//
// A column toggle keeps every pane row but moves row bases, so its row
// loop (ScanPaneCol) is written once here too. It derives each row's
// toggled base from the cluster's row sum and the toggled column's entry
// as it goes (ToggledRowBase), so a scan needs no per-row scratch: a
// removed column is left out of each row with the lane phase carried
// across it, and an added column's entry is appended last to each row
// where it is specified. Added-column candidates of one cluster share
// every run, column base and lane of the appended entry, and differ
// only in row bases, cluster base and the appended value, so up to
// kColBatch of them are scanned in one pane pass (PaneColScanBatch; the
// scalar slot is one ScanPaneCol per candidate).
//
// Everything here must stay valid under the baseline ISA: no intrinsics
// in this header (dclint rule simd-confined keeps them in the kernel
// TUs), and the kernel TUs are the only ones compiled with -mavx2 --
// per-TU isolation so the rest of the tree never emits AVX encodings.
#ifndef DELTACLUS_CORE_RESIDUE_KERNELS_H_
#define DELTACLUS_CORE_RESIDUE_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace deltaclus {

/// Four independent accumulation lanes plus the visit-order phase,
/// carried across the segments of a row's visit sequence. Any
/// segmentation (full row; slices around an excluded column; a slice
/// plus one appended entry) produces per-lane addition chains identical
/// to a single pass, hence bit-identical reductions.
struct LaneAcc {
  double l[4] = {0.0, 0.0, 0.0, 0.0};
  size_t p = 0;  ///< entries visited so far (lane phase)
  double Reduce() const { return (l[0] + l[1]) + (l[2] + l[3]); }
};

/// Per-entry contribution to the residue numerator in the given norm.
template <bool kSquared>
inline double Contribution(double value, double row_base, double col_base,
                           double cluster_base) {
  double r = value - row_base - col_base + cluster_base;
  if (kSquared) return r * r;
  // std::fabs compiles to a branchless sign-bit mask. A conditional
  // negation here costs a data-dependent branch per entry, and residue
  // signs are close to a coin flip -- the mispredictions dominate the
  // whole scan.
  return std::fabs(r);
}

/// The scalar segment pass behind the dense and run passes: entry k's
/// value is values[k] and its column base bases(k). Peels scalar to a
/// lane-0 boundary, runs a 4-unrolled body whose offset-to-lane mapping
/// is fixed, then a scalar tail -- the template a 4-wide vector body
/// reproduces element for element.
template <bool kSquared, typename BaseAt>
[[gnu::always_inline]] inline void SegPassScalar(const double* values,
                                                 BaseAt bases, size_t n,
                                                 double row_base,
                                                 double cluster_base,
                                                 LaneAcc& acc) {
  size_t k = 0;
  // Peel to a lane-0 boundary so the unrolled body maps offset to lane
  // without tracking the phase per iteration.
  for (; (acc.p & 3) != 0 && k < n; ++k, ++acc.p) {
    acc.l[acc.p & 3] +=
        Contribution<kSquared>(values[k], row_base, bases(k), cluster_base);
  }
  double l0 = acc.l[0], l1 = acc.l[1], l2 = acc.l[2], l3 = acc.l[3];
  size_t unrolled_start = k;
  for (; k + 4 <= n; k += 4) {
    l0 += Contribution<kSquared>(values[k + 0], row_base, bases(k + 0),
                                 cluster_base);
    l1 += Contribution<kSquared>(values[k + 1], row_base, bases(k + 1),
                                 cluster_base);
    l2 += Contribution<kSquared>(values[k + 2], row_base, bases(k + 2),
                                 cluster_base);
    l3 += Contribution<kSquared>(values[k + 3], row_base, bases(k + 3),
                                 cluster_base);
  }
  acc.p += k - unrolled_start;
  acc.l[0] = l0;
  acc.l[1] = l1;
  acc.l[2] = l2;
  acc.l[3] = l3;
  for (; k < n; ++k, ++acc.p) {
    acc.l[acc.p & 3] +=
        Contribution<kSquared>(values[k], row_base, bases(k), cluster_base);
  }
}

/// Dense contiguous segment (a fully specified pane row): entry k's base
/// is col_bases[k].
template <bool kSquared>
[[gnu::always_inline]] inline void SegPassDenseScalar(
    const double* values, const double* col_bases, size_t n, double row_base,
    double cluster_base, LaneAcc& acc) {
  SegPassScalar<kSquared>(
      values, [col_bases](size_t k) { return col_bases[k]; }, n, row_base,
      cluster_base, acc);
}

/// Specified-entry run (a holey pane row): values[0..n) are the row's
/// specified entries in pane-column order and slots[k] is entry k's pane
/// column, so its base is col_bases[slots[k]]. Visits exactly the
/// entries a skip loop over the full row would, in the same order.
template <bool kSquared>
[[gnu::always_inline]] inline void SegPassRunScalar(
    const double* values, const uint16_t* slots, const double* col_bases,
    size_t n, double row_base, double cluster_base, LaneAcc& acc) {
  SegPassScalar<kSquared>(
      values, [col_bases, slots](size_t k) { return col_bases[slots[k]]; },
      n, row_base, cluster_base, acc);
}

/// Entries (values and slots) a run pass may read past a run's end: the
/// vector kernels finish a run with one branch-free four-entry group
/// whose lanes past the end are masked out (simd_dispatch.h). Holders
/// of runs keep this many entries readable after every run.
constexpr size_t kRunReadPad = 4;

/// Whole run from fresh lanes, reduced: the run twin of
/// SegPassDenseFullScalar, and the scalar table's run row body.
template <bool kSquared>
[[gnu::always_inline]] inline double SegPassRunFullScalar(
    const double* values, const uint16_t* slots, const double* col_bases,
    size_t n, double row_base, double cluster_base) {
  LaneAcc acc;
  SegPassRunScalar<kSquared>(values, slots, col_bases, n, row_base,
                             cluster_base, acc);
  return acc.Reduce();
}

/// Whole-row dense pass from fresh lanes: SegPassDenseScalar with phase
/// 0 followed by the standard reduction, and the scalar table's dense
/// row body. Inlined into the pane scan's row loop (as every row body
/// is), so the lanes stay in registers and no call splits the loop.
template <bool kSquared>
[[gnu::always_inline]] inline double SegPassDenseFullScalar(
    const double* values, const double* col_bases, size_t n,
    double row_base, double cluster_base) {
  LaneAcc acc;
  SegPassDenseScalar<kSquared>(values, col_bases, n, row_base, cluster_base,
                               acc);
  return acc.Reduce();
}

/// Gathers a matrix row (`values`/`mask`, indexed by column id) over the
/// column-id list cols[0..n) into a run: branch-free compaction, each
/// entry and its pane-column slot stored at cursor q, which advances
/// only on specified entries. dst_values/dst_slots must hold n entries.
/// Returns the run length.
inline size_t GatherRun(const double* values, const uint8_t* mask,
                        const uint32_t* cols, size_t n, double* dst_values,
                        uint16_t* dst_slots) {
  size_t q = 0;
  for (size_t idx = 0; idx < n; ++idx) {
    uint32_t col = cols[idx];
    dst_values[q] = values[col];
    dst_slots[q] = static_cast<uint16_t>(idx);
    q += mask[col] != 0;
  }
  return q;
}

/// One whole-pane scan as the pane-scan kernels read it: a plain view of
/// a PackedPane's arrays (src/core/cluster_workspace.h), whose logical
/// row r is physical row row_slots[r], holding run_len[phys] entries at
/// values/slots + phys * stride with base row_base[phys]; plus the
/// scan's column bases (pane-column order), the cluster base, one
/// logical row to leave out, and an optional trailing row outside the
/// pane. A row whose run spans all num_cols columns is dense.
struct PaneScan {
  const double* values = nullptr;
  const uint16_t* slots = nullptr;
  const uint32_t* run_len = nullptr;
  const double* row_base = nullptr;
  const uint32_t* row_slots = nullptr;
  size_t rows = 0;
  size_t num_cols = 0;
  size_t stride = 0;
  size_t skip = SIZE_MAX;  ///< logical row left out (none if >= rows)
  const double* col_bases = nullptr;
  double cluster_base = 0.0;
  /// The trailing row (a row being added), scanned after every pane row:
  /// a run of added_len entries, padded like a pane run. Null for none.
  const double* added_values = nullptr;
  const uint16_t* added_slots = nullptr;
  size_t added_len = 0;
  double added_row_base = 0.0;
};

/// What a pane scan returns: the rows' reduced contributions summed in
/// row order, and how many of the entries were in dense rows.
struct PaneSum {
  double sum = 0.0;
  size_t dense_entries = 0;
};

using DenseRowFn = double (*)(const double* values, const double* col_bases,
                              size_t n, double row_base, double cluster_base);
using RunRowFn = double (*)(const double* values, const uint16_t* slots,
                            const double* col_bases, size_t n,
                            double row_base, double cluster_base);

/// One row of a pane scan: the dense body when the run spans every
/// column, the run body otherwise, added to `out` from fresh lanes.
template <DenseRowFn kDenseRow, RunRowFn kRunRow>
[[gnu::always_inline]] inline void ScanRow(const PaneScan& s,
                                           const double* values,
                                           const uint16_t* slots, size_t len,
                                           double row_base, PaneSum& out) {
  if (len == s.num_cols) {
    out.dense_entries += len;
    out.sum += kDenseRow(values, s.col_bases, len, row_base, s.cluster_base);
  } else {
    out.sum +=
        kRunRow(values, slots, s.col_bases, len, row_base, s.cluster_base);
  }
}

/// The pane-scan row loop, written once: every kernel table instantiates
/// it with its own whole-row dense and run bodies, so a scan is one
/// table call and the per-row bodies are direct calls the compiler
/// inlines. Each row is reduced from fresh lanes and added to one scalar
/// accumulator in logical row order, the trailing row last; nothing is
/// vectorized across rows, so the sum is the same bits whichever table
/// runs.
template <DenseRowFn kDenseRow, RunRowFn kRunRow>
PaneSum ScanPaneRows(const PaneScan& s) {
  PaneSum out;
  for (size_t pr = 0; pr < s.rows; ++pr) {
    if (pr == s.skip) continue;
    size_t phys = s.row_slots[pr];
    ScanRow<kDenseRow, kRunRow>(s, s.values + phys * s.stride,
                                s.slots + phys * s.stride, s.run_len[phys],
                                s.row_base[phys], out);
  }
  if (s.added_values != nullptr) {
    ScanRow<kDenseRow, kRunRow>(s, s.added_values, s.added_slots,
                                s.added_len, s.added_row_base, out);
  }
  return out;
}

/// Row-toggle candidates one batched pane scan evaluates: the vector
/// width, not a setting.
constexpr size_t kRowBatch = 4;

/// Up to kRowBatch row-toggle scans of one pane, evaluated in one pass
/// (the scan_pane_rows4 slot, simd_dispatch.h). Candidate c < live is
/// scans[c]: a whole PaneScan over the same pane arrays (values, slots,
/// run_len, row_base, row_slots, rows, num_cols, stride) with its own
/// column bases, cluster base, left-out row and trailing row. bases4
/// holds the candidates' column bases interleaved, bases4[slot * 4 + c]
/// == scans[c].col_bases[slot] for every slot < num_cols; its lanes
/// c >= live must be readable, and their sums are never reported.
struct PaneScanBatch {
  PaneScan scans[kRowBatch];
  const double* bases4 = nullptr;
  size_t live = 0;
};

/// The batched scan's specification, and the scalar table's slot: one
/// ScanPaneRows per live candidate, into out[0..live).
template <DenseRowFn kDenseRow, RunRowFn kRunRow>
void ScanPaneRowsBatch(const PaneScanBatch& b, PaneSum* out) {
  for (size_t c = 0; c < b.live; ++c) {
    out[c] = ScanPaneRows<kDenseRow, kRunRow>(b.scans[c]);
  }
}

/// One column-toggle scan of a pane as the scan_pane_col_* slots read
/// it: the pane's arrays (as in PaneScan; the pane's own row bases are
/// not read), its column bases and the post-toggle cluster base; logical
/// row r's matrix row row_ids[r] and the row sums of the cluster by
/// matrix row (row_sums[i], ClusterStats::RowSum); and the toggled
/// column's entries by matrix row (col_values[i], specified where
/// col_mask[i] is nonzero). On a removal removed_col is the column's
/// pane column, left out of every row; otherwise the column is added,
/// its entry appended after every row where specified, with base
/// added_col_base.
struct PaneColScan {
  const double* values = nullptr;
  const uint16_t* slots = nullptr;
  const uint32_t* run_len = nullptr;
  const uint32_t* row_slots = nullptr;
  size_t rows = 0;
  size_t num_cols = 0;
  size_t stride = 0;
  const double* col_bases = nullptr;
  double cluster_base = 0.0;
  const uint32_t* row_ids = nullptr;
  const double* row_sums = nullptr;
  const double* col_values = nullptr;
  const uint8_t* col_mask = nullptr;
  size_t removed_col = SIZE_MAX;  ///< an addition if >= num_cols
  double added_col_base = 0.0;
};

/// Row i's base after the toggle: its sum and count (`len`, its run
/// length) move by column j's entry only where that entry is specified,
/// and the base is sum / count, or 0 for a row left with no entry. The
/// division and the selects are the ones ClusterStats::RowBase and the
/// engine's toggles perform, so every scan of a toggle gets these bits.
template <bool kRemoving>
[[gnu::always_inline]] inline double ToggledRowBase(double row_sum,
                                                    size_t len, double v,
                                                    bool specified) {
  double moved = kRemoving ? row_sum - v : row_sum + v;
  double sum = specified ? moved : row_sum;
  size_t count = kRemoving ? len - specified : len + specified;
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// A table's segment passes into a carried LaneAcc (SegPassDenseScalar,
/// SegPassRunScalar and their vector twins) and its scalar contribution
/// body: what ScanPaneCol is instantiated with.
using DenseSegmentFn = void (*)(const double* values, const double* col_bases,
                                size_t n, double row_base,
                                double cluster_base, LaneAcc& acc);
using RunSegmentFn = void (*)(const double* values, const uint16_t* slots,
                              const double* col_bases, size_t n,
                              double row_base, double cluster_base,
                              LaneAcc& acc);
using ContributionFn = double (*)(double value, double row_base,
                                  double col_base, double cluster_base);

/// The column-toggle row loop, written once: each row's post-toggle
/// visit sequence -- its run with the left-out column's entry skipped,
/// or its run then the appended entry -- accumulated with its toggled
/// row base into fresh lanes whose phase is carried across the split,
/// reduced, and added in logical row order. The appended entry goes to
/// lane (entries visited) mod 4 and keeps that lane's bits where it is
/// unspecified. A row counts as dense when it is specified on every
/// post-toggle column. The loop calls nothing but its template arguments
/// (the split is found by an open-coded binary search, the lanes reduced
/// in place): a vector TU that instantiates it must emit no copy of an
/// external-linkage function the baseline TUs also define.
template <DenseSegmentFn kDenseSeg, RunSegmentFn kRunSeg,
          ContributionFn kContribution>
PaneSum ScanPaneCol(const PaneColScan& s) {
  bool removing = s.removed_col < s.num_cols;
  size_t post_cols = removing ? s.num_cols - 1 : s.num_cols + 1;
  double cb = s.cluster_base;
  PaneSum out;
  for (size_t pr = 0; pr < s.rows; ++pr) {
    size_t phys = s.row_slots[pr];
    const double* values = s.values + phys * s.stride;
    size_t len = s.run_len[phys];
    size_t i = s.row_ids[pr];
    bool specified = s.col_mask[i] != 0;
    double v = s.col_values[i];
    LaneAcc lanes{};
    size_t visited = len;
    if (removing) {
      double rb = ToggledRowBase<true>(s.row_sums[i], len, v, specified);
      size_t jj = s.removed_col;
      if (len == s.num_cols) {
        // Dense row: unit-stride slices around the left-out column.
        kDenseSeg(values, s.col_bases, jj, rb, cb, lanes);
        kDenseSeg(values + jj + 1, s.col_bases + jj + 1, len - jj - 1, rb,
                  cb, lanes);
        visited = len - 1;
      } else {
        // Holey row: the run splits where its slots pass the left-out
        // column, whose entry (if specified) is the first past the split.
        const uint16_t* slots = s.slots + phys * s.stride;
        size_t split = 0;
        for (size_t hi = len; split < hi;) {
          size_t mid = (split + hi) / 2;
          if (slots[mid] < jj) {
            split = mid + 1;
          } else {
            hi = mid;
          }
        }
        size_t rest = split + (split < len && slots[split] == jj);
        kRunSeg(values, slots, s.col_bases, split, rb, cb, lanes);
        kRunSeg(values + rest, slots + rest, s.col_bases, len - rest, rb, cb,
                lanes);
        visited = len - (rest - split);
      }
    } else {
      double rb = ToggledRowBase<false>(s.row_sums[i], len, v, specified);
      if (len == s.num_cols) {
        kDenseSeg(values, s.col_bases, len, rb, cb, lanes);
      } else {
        kRunSeg(values, s.slots + phys * s.stride, s.col_bases, len, rb, cb,
                lanes);
      }
      // Branch-free: the lane keeps its bits unless the entry is
      // specified.
      double& lane = lanes.l[lanes.p & 3];
      double added = lane + kContribution(v, rb, s.added_col_base, cb);
      lane = specified ? added : lane;
      visited += specified;
    }
    if (visited == post_cols) out.dense_entries += post_cols;
    out.sum += (lanes.l[0] + lanes.l[1]) + (lanes.l[2] + lanes.l[3]);
  }
  return out;
}

/// Added-column candidates one batched pane scan evaluates: the vector
/// width, not a setting.
constexpr size_t kColBatch = 4;

/// Up to kColBatch added-column scans of one pane, evaluated in one pass
/// (the scan_pane_cols4 slot, simd_dispatch.h). Candidate c < live is
/// scans[c]: a PaneColScan adding a column, over the same pane arrays,
/// column bases, row ids and row sums as scans[0], with its own cluster
/// base and column. Lanes c >= live must hold readable columns (their
/// sums are never reported).
struct PaneColScanBatch {
  PaneColScan scans[kColBatch];
  size_t live = 0;
};

/// The batched column scan's specification, and the scalar table's
/// slot: one ScanPaneCol per live candidate, into out[0..live).
template <DenseSegmentFn kDenseSeg, RunSegmentFn kRunSeg,
          ContributionFn kContribution>
void ScanPaneColsBatch(const PaneColScanBatch& b, PaneSum* out) {
  for (size_t c = 0; c < b.live; ++c) {
    out[c] = ScanPaneCol<kDenseSeg, kRunSeg, kContribution>(b.scans[c]);
  }
}

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_RESIDUE_KERNELS_H_
