// NEON gain kernels (AArch64). Same LaneAcc bit-identity argument
// as the AVX2 TU, with the four lanes split across two float64x2
// vectors: vector pair element p carries scalar lane p, vsubq/vaddq/
// vmulq perform the scalar operations' exact IEEE-754 roundings, and
// vabsq clears the sign bit exactly like std::fabs. Compiled with
// -ffp-contract=off (src/CMakeLists.txt) so the compiler cannot fuse a
// vmulq/vaddq pair into the FMA the scalar build never performs. NEON
// has no gather, so the gathered row passes stay scalar here -- only the
// contiguous dense pane segments vectorize; the run slots point at the
// scalar run bodies.
#include "src/core/simd_dispatch.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace deltaclus {

namespace {

template <bool kSquared>
inline float64x2_t ContributionVec2(float64x2_t values, float64x2_t row_base,
                                    float64x2_t col_bases,
                                    float64x2_t cluster_base) {
  float64x2_t r = vaddq_f64(vsubq_f64(vsubq_f64(values, row_base), col_bases),
                            cluster_base);
  if (kSquared) return vmulq_f64(r, r);
  return vabsq_f64(r);
}

template <bool kSquared>
void SegPassDenseNeon(const double* values, const double* col_bases,
                      size_t n, double row_base, double cluster_base,
                      LaneAcc& acc) {
  size_t k = 0;
  // Scalar peel to a lane-0 boundary, identical to the scalar kernel.
  for (; (acc.p & 3) != 0 && k < n; ++k, ++acc.p) {
    acc.l[acc.p & 3] += Contribution<kSquared>(values[k], row_base,
                                               col_bases[k], cluster_base);
  }
  const float64x2_t rb = vdupq_n_f64(row_base);
  const float64x2_t cb = vdupq_n_f64(cluster_base);
  float64x2_t lanes01 = vld1q_f64(acc.l);
  float64x2_t lanes23 = vld1q_f64(acc.l + 2);
  size_t unrolled_start = k;
  for (; k + 4 <= n; k += 4) {
    float64x2_t v01 = vld1q_f64(values + k);
    float64x2_t v23 = vld1q_f64(values + k + 2);
    float64x2_t b01 = vld1q_f64(col_bases + k);
    float64x2_t b23 = vld1q_f64(col_bases + k + 2);
    lanes01 = vaddq_f64(lanes01, ContributionVec2<kSquared>(v01, rb, b01, cb));
    lanes23 = vaddq_f64(lanes23, ContributionVec2<kSquared>(v23, rb, b23, cb));
  }
  vst1q_f64(acc.l, lanes01);
  vst1q_f64(acc.l + 2, lanes23);
  acc.p += k - unrolled_start;
  // Scalar tail, identical to the scalar kernel.
  for (; k < n; ++k, ++acc.p) {
    acc.l[acc.p & 3] += Contribution<kSquared>(values[k], row_base,
                                               col_bases[k], cluster_base);
  }
}

// Whole row from fresh lanes (phase 0): no peel, vector body, scalar
// tail, then the standard (l0 + l1) + (l2 + l3) reduction with the
// lanes kept in registers throughout.
template <bool kSquared>
double SegPassDenseFullNeon(const double* values, const double* col_bases,
                            size_t n, double row_base, double cluster_base) {
  const float64x2_t rb = vdupq_n_f64(row_base);
  const float64x2_t cb = vdupq_n_f64(cluster_base);
  float64x2_t lanes01 = vdupq_n_f64(0.0);
  float64x2_t lanes23 = vdupq_n_f64(0.0);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    float64x2_t v01 = vld1q_f64(values + k);
    float64x2_t v23 = vld1q_f64(values + k + 2);
    float64x2_t b01 = vld1q_f64(col_bases + k);
    float64x2_t b23 = vld1q_f64(col_bases + k + 2);
    lanes01 = vaddq_f64(lanes01, ContributionVec2<kSquared>(v01, rb, b01, cb));
    lanes23 = vaddq_f64(lanes23, ContributionVec2<kSquared>(v23, rb, b23, cb));
  }
  double lanes[4];
  vst1q_f64(lanes, lanes01);
  vst1q_f64(lanes + 2, lanes23);
  for (; k < n; ++k) {
    lanes[k & 3] += Contribution<kSquared>(values[k], row_base, col_bases[k],
                                           cluster_base);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

const SimdKernels* NeonKernelsOrNull() {
  static const SimdKernels table = {
      SegPassDenseNeon<false>,     SegPassDenseNeon<true>,
      SegPassDenseFullNeon<false>, SegPassDenseFullNeon<true>,
      // Run slots: the scalar bodies. NEON has no gather, so a run's
      // slot-indexed base loads are scalar either way.
      SegPassRunScalar<false>,     SegPassRunScalar<true>,
      SegPassRunFullScalar<false>, SegPassRunFullScalar<true>,
      "neon"};
  return &table;
}

}  // namespace deltaclus

#else  // !defined(__aarch64__)

namespace deltaclus {

const SimdKernels* NeonKernelsOrNull() { return nullptr; }

}  // namespace deltaclus

#endif
