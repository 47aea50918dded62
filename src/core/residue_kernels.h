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
// Masked (gap-skipping) rows follow the same contract by compaction:
// the contribution of *every* position is computed, written at a cursor
// that advances only on specified entries, and the compacted run is
// then added exactly like a dense one. The run holds the same doubles in
// the same order as a skip loop would visit them, so the lanes see the
// same addition chains; unspecified positions are computed and thrown
// away, never read into a result. No data-dependent branch is left on
// the per-entry path.
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

/// Dense contiguous segment (packed-pane rows): every entry specified,
/// no mask reads. Peels scalar to a lane-0 boundary, runs a 4-unrolled
/// body whose offset-to-lane mapping is fixed, then a scalar tail --
/// the template a 4-wide vector body reproduces element for element.
template <bool kSquared>
inline void SegPassDenseScalar(const double* values, const double* col_bases,
                               size_t n, double row_base, double cluster_base,
                               LaneAcc& acc) {
  size_t k = 0;
  // Peel to a lane-0 boundary so the unrolled body maps offset to lane
  // without tracking the phase per iteration.
  for (; (acc.p & 3) != 0 && k < n; ++k, ++acc.p) {
    acc.l[acc.p & 3] += Contribution<kSquared>(values[k], row_base,
                                               col_bases[k], cluster_base);
  }
  double l0 = acc.l[0], l1 = acc.l[1], l2 = acc.l[2], l3 = acc.l[3];
  size_t unrolled_start = k;
  for (; k + 4 <= n; k += 4) {
    l0 += Contribution<kSquared>(values[k + 0], row_base, col_bases[k + 0],
                                 cluster_base);
    l1 += Contribution<kSquared>(values[k + 1], row_base, col_bases[k + 1],
                                 cluster_base);
    l2 += Contribution<kSquared>(values[k + 2], row_base, col_bases[k + 2],
                                 cluster_base);
    l3 += Contribution<kSquared>(values[k + 3], row_base, col_bases[k + 3],
                                 cluster_base);
  }
  acc.p += k - unrolled_start;
  acc.l[0] = l0;
  acc.l[1] = l1;
  acc.l[2] = l2;
  acc.l[3] = l3;
  for (; k < n; ++k, ++acc.p) {
    acc.l[acc.p & 3] += Contribution<kSquared>(values[k], row_base,
                                               col_bases[k], cluster_base);
  }
}

/// Adds a run of precomputed contributions to `acc` in visit order, in
/// the peel / 4-unroll / tail shape of SegPassDenseScalar.
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

/// Positions per compaction chunk of the masked passes: the stack
/// buffer's size, so no masked pass allocates.
constexpr size_t kMaskedChunk = 64;

/// Masked contiguous segment (pane rows with gaps): only positions with
/// a nonzero mask byte are visited, and the lane phase advances only on
/// them. Branch-free compaction, one chunk at a time: every position's
/// contribution is computed and stored at cursor q, which advances only
/// on specified entries; the compacted run is then added in visit order.
template <bool kSquared>
inline void SegPassMaskedScalar(const double* values, const uint8_t* mask,
                                const double* col_bases, size_t n,
                                double row_base, double cluster_base,
                                LaneAcc& acc) {
  double run[kMaskedChunk];
  for (size_t start = 0; start < n; start += kMaskedChunk) {
    size_t len = n - start < kMaskedChunk ? n - start : kMaskedChunk;
    size_t q = 0;
    for (size_t k = start; k < start + len; ++k) {
      run[q] = Contribution<kSquared>(values[k], row_base, col_bases[k],
                                      cluster_base);
      q += mask[k] != 0;
    }
    AddRunScalar(run, q, acc);
  }
}

/// Whole masked row from fresh lanes, reduced: the masked twin of
/// SegPassDenseFullScalar.
template <bool kSquared>
inline double SegPassMaskedFullScalar(const double* values,
                                      const uint8_t* mask,
                                      const double* col_bases, size_t n,
                                      double row_base, double cluster_base) {
  LaneAcc acc;
  SegPassMaskedScalar<kSquared>(values, mask, col_bases, n, row_base,
                                cluster_base, acc);
  return acc.Reduce();
}

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
/// equal to position order so lane idx mod 4 reproduces the masked
/// pass's lane pattern exactly.
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
/// column-id list; `values`/`mask` are indexed by column id): the same
/// branch-free compaction as SegPassMaskedScalar, from fresh lanes.
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
