// AVX2 gain kernels. The ONLY translation unit (with the NEON
// twin) allowed to use vector intrinsics (dclint rule simd-confined),
// and the only one compiled with -mavx2 -- plus -ffp-contract=off and
// deliberately WITHOUT -mfma, so no fused multiply-adds can change a
// rounding (src/CMakeLists.txt sets the per-TU options).
//
// Bit-identity argument (the LaneAcc contract,
// src/core/residue_kernels.h): vector element p carries scalar lane p.
// The scalar 4-unrolled body adds contribution k+p into lane p each
// iteration; vaddpd does the same for all four lanes at once, with
// vsubpd/vaddpd/vmulpd performing the exact IEEE-754 operations the
// scalar subsd/addsd/mulsd perform and vandnpd clearing the sign bit
// exactly like std::fabs. Peel and tail reuse the scalar Contribution
// body. Nothing reassociates, nothing fuses, so every double produced
// here equals the scalar kernel's bit for bit.
//
// The masked passes compute four contributions at once with the same
// ContributionVec, then left-pack the specified ones (a
// vpermps lookup keyed by the four mask bits) into a stack run at
// cursor q, which advances by their count. The run is the sequence of
// doubles the scalar compaction body stores, in the same order, and it
// is added to the lanes with the same p mod 4 mapping -- bit-identical
// again.
//
// Only the unit-stride pane passes are vectorized; the gathered row
// passes stay scalar -- see simd_dispatch.h.
#include "src/core/simd_dispatch.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace deltaclus {

namespace {

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
    acc.l[acc.p & 3] += Contribution<kSquared>(values[k], row_base,
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
    acc.l[acc.p & 3] += Contribution<kSquared>(values[k], row_base,
                                               col_bases[k], cluster_base);
  }
}

// Whole row from fresh lanes (phase 0): no peel, vector body, scalar
// tail, then the standard (l0 + l1) + (l2 + l3) reduction. The lanes
// never touch memory, which is the point -- this is the one-call-per-row
// shape the hot scan loops use.
template <bool kSquared>
double SegPassDenseFullAvx2(const double* values, const double* col_bases,
                            size_t n, double row_base, double cluster_base) {
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
    lanes[k & 3] += Contribution<kSquared>(values[k], row_base, col_bases[k],
                                           cluster_base);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// Left-pack lookup: for the 4-bit specified mask m of four doubles
// (viewed as eight floats), idx[m] moves the selected doubles to the
// front in order; count[m] is how many there are. Trailing slots are
// don't-care: they land past the run's cursor and are overwritten.
struct LeftPackTable {
  alignas(32) int32_t idx[16][8];
  uint8_t count[16];
};

constexpr LeftPackTable MakeLeftPackTable() {
  LeftPackTable t{};
  for (int m = 0; m < 16; ++m) {
    int out = 0;
    for (int b = 0; b < 4; ++b) {
      if (((m >> b) & 1) == 0) continue;
      t.idx[m][2 * out] = 2 * b;
      t.idx[m][2 * out + 1] = 2 * b + 1;
      ++out;
    }
    t.count[m] = static_cast<uint8_t>(out);
  }
  return t;
}

constexpr LeftPackTable kLeftPack = MakeLeftPackTable();

// Bit b set iff mask byte b of four is nonzero.
inline unsigned MaskBits4(const uint8_t* mask) {
  int32_t m4 = 0;
  std::memcpy(&m4, mask, sizeof(m4));
  __m128i zero = _mm_cmpeq_epi8(_mm_cvtsi32_si128(m4), _mm_setzero_si128());
  return ~static_cast<unsigned>(_mm_movemask_epi8(zero)) & 0xFu;
}

// A run holds a chunk plus up to three entries carried over from the
// previous chunk; every 4-wide store starts at q <= carry + k with
// k + 4 <= len, so it ends within the capacity.
constexpr size_t kRunCapacity = kMaskedChunk + 4;

// Compacts the contributions of the specified entries among the
// `len` <= kMaskedChunk positions into run[q..), in position order, and
// returns the new cursor.
template <bool kSquared>
inline size_t CompactAvx2(const double* values, const uint8_t* mask,
                          const double* col_bases, size_t len,
                          double row_base, double cluster_base, double* run,
                          size_t q) {
  const __m256d rb = _mm256_set1_pd(row_base);
  const __m256d cb = _mm256_set1_pd(cluster_base);
  const __m256d sign = _mm256_set1_pd(-0.0);
  size_t k = 0;
  for (; k + 4 <= len; k += 4) {
    __m256d c = ContributionVec<kSquared>(_mm256_loadu_pd(values + k), rb,
                                          _mm256_loadu_pd(col_bases + k), cb,
                                          sign);
    unsigned bits = MaskBits4(mask + k);
    __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kLeftPack.idx[bits]));
    _mm256_storeu_pd(run + q, _mm256_castps_pd(_mm256_permutevar8x32_ps(
                                  _mm256_castpd_ps(c), perm)));
    q += kLeftPack.count[bits];
  }
  for (; k < len; ++k) {
    run[q] = Contribution<kSquared>(values[k], row_base, col_bases[k],
                                    cluster_base);
    q += mask[k] != 0;
  }
  return q;
}

// Masked segment into a carried LaneAcc: compact each chunk, then add
// the run in the SegPassDenseAvx2 shape (scalar peel to lane 0, vector
// body, scalar tail).
template <bool kSquared>
void SegPassMaskedAvx2(const double* values, const uint8_t* mask,
                       const double* col_bases, size_t n, double row_base,
                       double cluster_base, LaneAcc& acc) {
  double run[kRunCapacity];
  for (size_t start = 0; start < n; start += kMaskedChunk) {
    size_t len = n - start < kMaskedChunk ? n - start : kMaskedChunk;
    size_t q = CompactAvx2<kSquared>(values + start, mask + start,
                                     col_bases + start, len, row_base,
                                     cluster_base, run, 0);
    size_t t = 0;
    for (; (acc.p & 3) != 0 && t < q; ++t, ++acc.p) acc.l[acc.p & 3] += run[t];
    __m256d lanes = _mm256_loadu_pd(acc.l);
    size_t body_start = t;
    for (; t + 4 <= q; t += 4) {
      lanes = _mm256_add_pd(lanes, _mm256_loadu_pd(run + t));
    }
    _mm256_storeu_pd(acc.l, lanes);
    acc.p += t - body_start;
    for (; t < q; ++t, ++acc.p) acc.l[acc.p & 3] += run[t];
  }
}

// Whole masked row from fresh lanes, reduced. Unlike the LaneAcc
// wrapper the scalar table uses, the lanes stay in a register across
// chunks: a chunk's last (q mod 4) entries carry over to the front of
// the run, so run[0] always sits at lane 0 and no peel is needed. The
// saving is per row (no lane spill, no phase-indexed tail), which
// matters on short cluster rows: with the wrapper, 30%-missing mining
// runs measured slower end to end.
template <bool kSquared>
double SegPassMaskedFullAvx2(const double* values, const uint8_t* mask,
                             const double* col_bases, size_t n,
                             double row_base, double cluster_base) {
  double run[kRunCapacity];
  __m256d lanes_v = _mm256_setzero_pd();
  size_t carry = 0;
  for (size_t start = 0; start < n; start += kMaskedChunk) {
    size_t len = n - start < kMaskedChunk ? n - start : kMaskedChunk;
    size_t q = CompactAvx2<kSquared>(values + start, mask + start,
                                     col_bases + start, len, row_base,
                                     cluster_base, run, carry);
    size_t t = 0;
    for (; t + 4 <= q; t += 4) {
      lanes_v = _mm256_add_pd(lanes_v, _mm256_loadu_pd(run + t));
    }
    carry = q - t;
    for (size_t u = 0; u < carry; ++u) run[u] = run[t + u];
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, lanes_v);
  for (size_t u = 0; u < carry; ++u) lanes[u] += run[u];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

const SimdKernels* Avx2KernelsOrNull() {
  static const SimdKernels table = {
      SegPassDenseAvx2<false>,      SegPassDenseAvx2<true>,
      SegPassDenseFullAvx2<false>,  SegPassDenseFullAvx2<true>,
      SegPassMaskedAvx2<false>,     SegPassMaskedAvx2<true>,
      SegPassMaskedFullAvx2<false>, SegPassMaskedFullAvx2<true>,
      "avx2"};
  return &table;
}

}  // namespace deltaclus

#else  // !defined(__AVX2__)

namespace deltaclus {

const SimdKernels* Avx2KernelsOrNull() { return nullptr; }

}  // namespace deltaclus

#endif
