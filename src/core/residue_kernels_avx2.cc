// AVX2 gain kernels. The ONLY translation unit allowed to use vector
// intrinsics (dclint rule simd-confined), and the only one compiled
// with -mavx2 -- plus -ffp-contract=off and deliberately WITHOUT -mfma,
// so no fused multiply-adds can change a rounding (src/CMakeLists.txt
// sets the per-TU options).
//
// Bit-identity argument (the LaneAcc contract,
// src/core/residue_kernels.h): vector element p carries scalar lane p.
// The scalar 4-unrolled body adds contribution k+p into lane p each
// iteration; vaddpd does the same for all four lanes at once, with
// vsubpd/vaddpd/vmulpd performing the exact IEEE-754 operations the
// scalar subsd/addsd/mulsd perform and vandnpd clearing the sign bit
// exactly like std::fabs. Peel and tail use a private copy of the
// scalar Contribution body. Nothing reassociates, nothing fuses, so
// every double produced here equals the scalar kernel's bit for bit.
//
// The run passes (holey pane rows, stored as their specified entries
// plus uint16 pane-column slots) are the dense passes with each group's
// four column bases loaded through the slots: run entry p still lands
// in lane p mod 4 and meets the same base, so they are bit-identical
// again. The whole-run pass ends in a masked four-entry group rather
// than a scalar tail; see SegPassRunFullAvx2 for why that is exact.
//
// The pane-scan slots instantiate the shared row loop (ScanPaneRows,
// residue_kernels.h) with this file's whole-row bodies. Those bodies
// have internal linkage, and so has every instantiation that names
// them; the scalar peels and tails call a private copy of Contribution.
// So nothing this -mavx2 TU emits can stand in for a symbol the
// baseline-ISA TUs link against: the only symbol it exports is
// Avx2KernelsOrNull.
#include "src/core/simd_dispatch.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <cstring>

namespace deltaclus {

namespace {

// The peels' and tails' scalar body: Contribution (residue_kernels.h)
// operation for operation, so it yields the same bits. It is a private
// copy because Contribution is an external-linkage inline template: an
// unoptimized build of this TU would emit its own, VEX-encoded copy of
// it under the very name the baseline-ISA TUs link against, and the
// linker keeps whichever copy it sees first.
template <bool kSquared>
inline double ContributionScalar(double value, double row_base,
                                 double col_base, double cluster_base) {
  double r = value - row_base - col_base + cluster_base;
  if (kSquared) return r * r;
  return std::fabs(r);
}

// value - row_base - col_base + cluster_base per lane, in the scalar
// evaluation order, then |r| (sign-bit clear) or r*r.
template <bool kSquared>
inline __m256d ContributionVec(__m256d values, __m256d row_base,
                               __m256d col_bases, __m256d cluster_base,
                               __m256d sign_mask) {
  __m256d r = _mm256_add_pd(
      _mm256_sub_pd(_mm256_sub_pd(values, row_base), col_bases),
      cluster_base);
  if (kSquared) return _mm256_mul_pd(r, r);
  return _mm256_andnot_pd(sign_mask, r);
}

template <bool kSquared>
void SegPassDenseAvx2(const double* values, const double* col_bases,
                      size_t n, double row_base, double cluster_base,
                      LaneAcc& acc) {
  size_t k = 0;
  // Scalar peel to a lane-0 boundary, identical to the scalar kernel.
  for (; (acc.p & 3) != 0 && k < n; ++k, ++acc.p) {
    acc.l[acc.p & 3] += ContributionScalar<kSquared>(values[k], row_base,
                                               col_bases[k], cluster_base);
  }
  const __m256d rb = _mm256_set1_pd(row_base);
  const __m256d cb = _mm256_set1_pd(cluster_base);
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d lanes = _mm256_loadu_pd(acc.l);
  size_t unrolled_start = k;
  for (; k + 4 <= n; k += 4) {
    __m256d v = _mm256_loadu_pd(values + k);
    __m256d b = _mm256_loadu_pd(col_bases + k);
    lanes = _mm256_add_pd(lanes, ContributionVec<kSquared>(v, rb, b, cb,
                                                           sign));
  }
  _mm256_storeu_pd(acc.l, lanes);
  acc.p += k - unrolled_start;
  // Scalar tail, identical to the scalar kernel.
  for (; k < n; ++k, ++acc.p) {
    acc.l[acc.p & 3] += ContributionScalar<kSquared>(values[k], row_base,
                                               col_bases[k], cluster_base);
  }
}

// Whole row from fresh lanes (phase 0): no peel, vector body, scalar
// tail, then the standard (l0 + l1) + (l2 + l3) reduction. Inlined into
// the pane scan's row loop, so the lanes stay in registers.
template <bool kSquared>
[[gnu::always_inline]] inline double SegPassDenseFullAvx2(
    const double* values, const double* col_bases, size_t n, double row_base,
    double cluster_base) {
  const __m256d rb = _mm256_set1_pd(row_base);
  const __m256d cb = _mm256_set1_pd(cluster_base);
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d lanes_v = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d v = _mm256_loadu_pd(values + k);
    __m256d b = _mm256_loadu_pd(col_bases + k);
    lanes_v = _mm256_add_pd(lanes_v, ContributionVec<kSquared>(v, rb, b, cb,
                                                               sign));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, lanes_v);
  for (; k < n; ++k) {
    lanes[k & 3] += ContributionScalar<kSquared>(values[k], row_base, col_bases[k],
                                           cluster_base);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// Column bases of run entries k..k+3: one scalar load per slot, packed
// into a vector. (vgatherdpd measured no faster here, and loading the
// slots as a vector to extract them measured 1.6x slower.)
inline __m256d RunBases(const double* col_bases, const uint16_t* slots) {
  return _mm256_set_pd(col_bases[slots[3]], col_bases[slots[2]],
                       col_bases[slots[1]], col_bases[slots[0]]);
}

// Run segment into a carried LaneAcc: SegPassDenseAvx2 with each
// entry's base read through its slot. Peel and tail are the scalar run
// body, so nothing is read past the run.
template <bool kSquared>
void SegPassRunAvx2(const double* values, const uint16_t* slots,
                    const double* col_bases, size_t n, double row_base,
                    double cluster_base, LaneAcc& acc) {
  size_t k = 0;
  for (; (acc.p & 3) != 0 && k < n; ++k, ++acc.p) {
    acc.l[acc.p & 3] += ContributionScalar<kSquared>(
        values[k], row_base, col_bases[slots[k]], cluster_base);
  }
  const __m256d rb = _mm256_set1_pd(row_base);
  const __m256d cb = _mm256_set1_pd(cluster_base);
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d lanes = _mm256_loadu_pd(acc.l);
  size_t unrolled_start = k;
  for (; k + 4 <= n; k += 4) {
    __m256d v = _mm256_loadu_pd(values + k);
    __m256d b = RunBases(col_bases, slots + k);
    lanes = _mm256_add_pd(lanes, ContributionVec<kSquared>(v, rb, b, cb,
                                                           sign));
  }
  _mm256_storeu_pd(acc.l, lanes);
  acc.p += k - unrolled_start;
  for (; k < n; ++k, ++acc.p) {
    acc.l[acc.p & 3] += ContributionScalar<kSquared>(
        values[k], row_base, col_bases[slots[k]], cluster_base);
  }
}

// kTailKeep + 3 - live holds `live` all-ones words, then zeros: the AND
// mask of a tail group with `live` (0-3) entries in the run.
constexpr int64_t kTailKeep[7] = {-1, -1, -1, 0, 0, 0, 0};

// Whole run from fresh lanes, reduced. The run's last 0-3 entries go
// through one branch-free four-entry group instead of a scalar tail:
// a holey row of a skinny cluster is a run of one or two entries, and a
// tail loop whose trip count changes from row to row mispredicts on
// nearly every row. The group reads entries n..n+3 at most
// (kRunReadPad); lanes past the run get slot 0 before the base load
// (col_bases is non-empty) and a contribution AND-masked to +0.0 before
// the add. Adding +0.0 leaves a lane's bits unchanged, because every
// lane is a sum of |r| or r^2 terms from +0.0 and so is never -0.0.
template <bool kSquared>
[[gnu::always_inline]] inline double SegPassRunFullAvx2(
    const double* values, const uint16_t* slots, const double* col_bases,
    size_t n, double row_base, double cluster_base) {
  const __m256d rb = _mm256_set1_pd(row_base);
  const __m256d cb = _mm256_set1_pd(cluster_base);
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d lanes_v = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d v = _mm256_loadu_pd(values + k);
    __m256d b = RunBases(col_bases, slots + k);
    lanes_v = _mm256_add_pd(lanes_v, ContributionVec<kSquared>(v, rb, b, cb,
                                                               sign));
  }
  // Tail group: entries k..k+3, of which the first n - k (0-3) are live.
  // The four slots are read as one word and the dead ones cleared.
  size_t live = n - k;
  uint64_t s4;
  std::memcpy(&s4, slots + k, sizeof(s4));
  s4 &= (uint64_t{1} << (16 * live)) - 1;
  __m256d b = _mm256_set_pd(col_bases[s4 >> 48],
                            col_bases[(s4 >> 32) & 0xFFFF],
                            col_bases[(s4 >> 16) & 0xFFFF],
                            col_bases[s4 & 0xFFFF]);
  __m256d keep = _mm256_castsi256_pd(_mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailKeep + 3 - live)));
  __m256d c = ContributionVec<kSquared>(_mm256_loadu_pd(values + k), rb, b,
                                        cb, sign);
  lanes_v = _mm256_add_pd(lanes_v, _mm256_and_pd(c, keep));
  double lanes[4];
  _mm256_storeu_pd(lanes, lanes_v);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

const SimdKernels* Avx2KernelsOrNull() {
  static const SimdKernels table = {
      SegPassDenseAvx2<false>,
      SegPassDenseAvx2<true>,
      SegPassRunAvx2<false>,
      SegPassRunAvx2<true>,
      ScanPaneRows<SegPassDenseFullAvx2<false>, SegPassRunFullAvx2<false>>,
      ScanPaneRows<SegPassDenseFullAvx2<true>, SegPassRunFullAvx2<true>>,
      "avx2"};
  return &table;
}

}  // namespace deltaclus

#else  // !defined(__AVX2__)

namespace deltaclus {

const SimdKernels* Avx2KernelsOrNull() { return nullptr; }

}  // namespace deltaclus

#endif
