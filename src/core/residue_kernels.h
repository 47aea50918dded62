// The gain-kernel bodies shared between the scalar reference path and
// the per-ISA SIMD translation units (src/core/residue_kernels_*.cc,
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
// The gathered matrix-row pass (an added row, read from the matrix
// through a column-id list, not from the pane) still visits a masked
// row by branch-free compaction: every position's contribution is
// stored at a cursor that advances only on specified entries, and the
// compacted run is added like a dense one.
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
inline void SegPassScalar(const double* values, BaseAt bases, size_t n,
                          double row_base, double cluster_base, LaneAcc& acc) {
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
inline void SegPassDenseScalar(const double* values, const double* col_bases,
                               size_t n, double row_base, double cluster_base,
                               LaneAcc& acc) {
  SegPassScalar<kSquared>(
      values, [col_bases](size_t k) { return col_bases[k]; }, n, row_base,
      cluster_base, acc);
}

/// Specified-entry run (a holey pane row): values[0..n) are the row's
/// specified entries in pane-column order and slots[k] is entry k's pane
/// column, so its base is col_bases[slots[k]]. Visits exactly the
/// entries a skip loop over the full row would, in the same order.
template <bool kSquared>
inline void SegPassRunScalar(const double* values, const uint16_t* slots,
                             const double* col_bases, size_t n,
                             double row_base, double cluster_base,
                             LaneAcc& acc) {
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
/// SegPassDenseFullScalar.
template <bool kSquared>
inline double SegPassRunFullScalar(const double* values,
                                   const uint16_t* slots,
                                   const double* col_bases, size_t n,
                                   double row_base, double cluster_base) {
  LaneAcc acc;
  SegPassRunScalar<kSquared>(values, slots, col_bases, n, row_base,
                             cluster_base, acc);
  return acc.Reduce();
}

/// Adds a run of precomputed contributions to `acc` in visit order, in
/// the peel / 4-unroll / tail shape of SegPassScalar.
inline void AddRunScalar(const double* run, size_t n, LaneAcc& acc) {
  size_t k = 0;
  for (; (acc.p & 3) != 0 && k < n; ++k, ++acc.p) acc.l[acc.p & 3] += run[k];
  double l0 = acc.l[0], l1 = acc.l[1], l2 = acc.l[2], l3 = acc.l[3];
  size_t unrolled_start = k;
  for (; k + 4 <= n; k += 4) {
    l0 += run[k + 0];
    l1 += run[k + 1];
    l2 += run[k + 2];
    l3 += run[k + 3];
  }
  acc.p += k - unrolled_start;
  acc.l[0] = l0;
  acc.l[1] = l1;
  acc.l[2] = l2;
  acc.l[3] = l3;
  for (; k < n; ++k, ++acc.p) acc.l[acc.p & 3] += run[k];
}

/// Positions per compaction chunk of the gathered masked pass: the stack
/// buffer's size, so the pass never allocates.
constexpr size_t kMaskedChunk = 64;

/// Whole-row dense pass from fresh lanes: SegPassDenseScalar with phase
/// 0 followed by the standard reduction. Split out so the hot per-row
/// loops can make one call per row and keep the lanes in registers --
/// carrying a LaneAcc across an out-of-line kernel call forces it
/// through memory, which doubles the per-row overhead on short rows.
template <bool kSquared>
inline double SegPassDenseFullScalar(const double* values,
                                     const double* col_bases, size_t n,
                                     double row_base, double cluster_base) {
  LaneAcc acc;
  SegPassDenseScalar<kSquared>(values, col_bases, n, row_base, cluster_base,
                               acc);
  return acc.Reduce();
}

/// Dense gathered row (matrix rows addressed through a column-id list):
/// starts from fresh lanes and reduces immediately, with visit order
/// equal to position order so lane idx mod 4 reproduces the pane
/// passes' lane pattern exactly.
template <bool kSquared>
inline double RowPassDenseScalar(const double* values, const uint32_t* cols,
                                 const double* col_bases, size_t n,
                                 double row_base, double cluster_base) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  size_t idx = 0;
  for (; idx + 4 <= n; idx += 4) {
    l0 += Contribution<kSquared>(values[cols[idx + 0]], row_base,
                                 col_bases[idx + 0], cluster_base);
    l1 += Contribution<kSquared>(values[cols[idx + 1]], row_base,
                                 col_bases[idx + 1], cluster_base);
    l2 += Contribution<kSquared>(values[cols[idx + 2]], row_base,
                                 col_bases[idx + 2], cluster_base);
    l3 += Contribution<kSquared>(values[cols[idx + 3]], row_base,
                                 col_bases[idx + 3], cluster_base);
  }
  double lanes[4] = {l0, l1, l2, l3};
  for (; idx < n; ++idx) {
    lanes[idx & 3] += Contribution<kSquared>(values[cols[idx]], row_base,
                                             col_bases[idx], cluster_base);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// Masked gathered row (a matrix row with gaps, addressed through a
/// column-id list; `values`/`mask` are indexed by column id), from fresh
/// lanes. Branch-free compaction, one chunk at a time: every position's
/// contribution is stored at cursor q, which advances only on specified
/// entries; the compacted run is then added in visit order.
template <bool kSquared>
inline double RowPassMaskedScalar(const double* values, const uint8_t* mask,
                                  const uint32_t* cols,
                                  const double* col_bases, size_t n,
                                  double row_base, double cluster_base) {
  LaneAcc acc;
  double run[kMaskedChunk];
  for (size_t start = 0; start < n; start += kMaskedChunk) {
    size_t len = n - start < kMaskedChunk ? n - start : kMaskedChunk;
    size_t q = 0;
    for (size_t idx = start; idx < start + len; ++idx) {
      uint32_t pos = cols[idx];
      run[q] = Contribution<kSquared>(values[pos], row_base, col_bases[idx],
                                      cluster_base);
      q += mask[pos] != 0;
    }
    AddRunScalar(run, q, acc);
  }
  return acc.Reduce();
}

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_RESIDUE_KERNELS_H_
