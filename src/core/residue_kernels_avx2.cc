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
// The pane-scan and column-toggle slots instantiate the shared row
// loops (ScanPaneRows, ScanPaneCol; residue_kernels.h) with this file's
// row and segment bodies. Those bodies have internal linkage, and so
// has every instantiation that names them; the scalar peels, tails and
// appended entries call a private copy of Contribution.
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
[[gnu::always_inline]] inline void SegPassDenseAvx2(
    const double* values, const double* col_bases, size_t n, double row_base,
    double cluster_base, LaneAcc& acc) {
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
[[gnu::always_inline]] inline void SegPassRunAvx2(
    const double* values, const uint16_t* slots, const double* col_bases,
    size_t n, double row_base, double cluster_base, LaneAcc& acc) {
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

// --- Batched scans: four candidates of one pane per pass. ---
//
// Vector element c carries candidate c. A pane row's entries are the
// same for every candidate, so each entry's value is broadcast; what the
// candidates do not share comes as a vector: a row toggle's four column
// bases of the entry (one contiguous load from the interleaved bases4
// row, PaneScanBatch), an added column's four row bases of the row
// (PaneColScanBatch). Entry k of a row goes into accumulator k mod 4, so
// element c of accumulator l is candidate c's scalar lane l, with the
// same addition chain, and the row reduces as (a0 + a1) + (a2 + a3)
// element-wise. The per-entry operations are ContributionVec's, so
// every candidate gets its single scan's bits.

// A row's four accumulators, one element per candidate.
struct Acc4 {
  __m256d a0, a1, a2, a3;
  __m256d Reduce() const {
    return _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3));
  }
};

// Contribution of one entry to all four candidates: the value
// broadcast, its four column bases `bases`, the four row bases `rb`.
[[gnu::always_inline]] inline __m256d ContributionAcross(
    const double* value, __m256d bases, __m256d rb, __m256d cluster_base4,
    __m256d sign) {
  return ContributionVec<false>(_mm256_broadcast_sd(value), rb, bases,
                                cluster_base4, sign);
}

// A dense pane row for four candidates; entry k's bases are
// base_at(k). The 0-3 tail entries are the same count on every dense
// row of a pane, so their branches predict.
template <typename BaseAt>
[[gnu::always_inline]] inline Acc4 DenseRowAcross(const double* values,
                                                  size_t n, __m256d rb,
                                                  __m256d cb4, __m256d sign,
                                                  BaseAt base_at) {
  Acc4 acc{_mm256_setzero_pd(), _mm256_setzero_pd(), _mm256_setzero_pd(),
           _mm256_setzero_pd()};
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc.a0 = _mm256_add_pd(
        acc.a0, ContributionAcross(values + k, base_at(k), rb, cb4, sign));
    acc.a1 = _mm256_add_pd(acc.a1, ContributionAcross(values + k + 1,
                                                      base_at(k + 1), rb,
                                                      cb4, sign));
    acc.a2 = _mm256_add_pd(acc.a2, ContributionAcross(values + k + 2,
                                                      base_at(k + 2), rb,
                                                      cb4, sign));
    acc.a3 = _mm256_add_pd(acc.a3, ContributionAcross(values + k + 3,
                                                      base_at(k + 3), rb,
                                                      cb4, sign));
  }
  if (k < n) {
    acc.a0 = _mm256_add_pd(
        acc.a0, ContributionAcross(values + k, base_at(k), rb, cb4, sign));
  }
  if (k + 1 < n) {
    acc.a1 = _mm256_add_pd(acc.a1, ContributionAcross(values + k + 1,
                                                      base_at(k + 1), rb,
                                                      cb4, sign));
  }
  if (k + 2 < n) {
    acc.a2 = _mm256_add_pd(acc.a2, ContributionAcross(values + k + 2,
                                                      base_at(k + 2), rb,
                                                      cb4, sign));
  }
  return acc;
}

// A holey pane row's run for four candidates: entry k's bases are
// base_at(slots[k]). The run's last 0-3 entries go through one
// branch-free three-entry group, as in SegPassRunFullAvx2: dead entries
// get slot 0 before the base load and a contribution AND-masked to +0.0
// before the add, which leaves the accumulator's bits unchanged (it is
// never -0.0).
template <typename BaseAt>
[[gnu::always_inline]] inline Acc4 RunRowAcross(const double* values,
                                                const uint16_t* slots,
                                                size_t n, __m256d rb,
                                                __m256d cb4, __m256d sign,
                                                BaseAt base_at) {
  Acc4 acc{_mm256_setzero_pd(), _mm256_setzero_pd(), _mm256_setzero_pd(),
           _mm256_setzero_pd()};
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc.a0 = _mm256_add_pd(acc.a0, ContributionAcross(values + k,
                                                      base_at(slots[k]), rb,
                                                      cb4, sign));
    acc.a1 = _mm256_add_pd(acc.a1, ContributionAcross(values + k + 1,
                                                      base_at(slots[k + 1]),
                                                      rb, cb4, sign));
    acc.a2 = _mm256_add_pd(acc.a2, ContributionAcross(values + k + 2,
                                                      base_at(slots[k + 2]),
                                                      rb, cb4, sign));
    acc.a3 = _mm256_add_pd(acc.a3, ContributionAcross(values + k + 3,
                                                      base_at(slots[k + 3]),
                                                      rb, cb4, sign));
  }
  size_t live = n - k;
  uint64_t s4;
  std::memcpy(&s4, slots + k, sizeof(s4));
  s4 &= (uint64_t{1} << (16 * live)) - 1;
  // kTailKeep[3 - live + j] is all-ones exactly when entry j is live.
  const int64_t* keep = kTailKeep + 3 - live;
  auto tail = [&](size_t j, uint64_t slot) {
    __m256d c =
        ContributionAcross(values + k + j, base_at(slot), rb, cb4, sign);
    return _mm256_and_pd(
        c, _mm256_broadcast_sd(reinterpret_cast<const double*>(keep + j)));
  };
  acc.a0 = _mm256_add_pd(acc.a0, tail(0, s4 & 0xFFFF));
  acc.a1 = _mm256_add_pd(acc.a1, tail(1, (s4 >> 16) & 0xFFFF));
  acc.a2 = _mm256_add_pd(acc.a2, tail(2, (s4 >> 32) & 0xFFFF));
  return acc;
}

// The batched row-toggle scan (scan_pane_rows4_abs). Every pane row is
// scanned once for all four candidates; a candidate's left-out row has
// its reduced sum AND-masked to +0.0 before the add, which leaves that
// candidate's row-order sum unchanged, so each candidate sums exactly
// the rows ScanPaneRows sums, in the same order. Each candidate's
// trailing row (a row being added) is then scanned by the single-
// candidate row bodies, last, as in ScanPaneRows.
void ScanPaneRows4Avx2(const PaneScanBatch& b, PaneSum* out) {
  const PaneScan& s = b.scans[0];
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d cb4 =
      _mm256_setr_pd(b.scans[0].cluster_base, b.scans[1].cluster_base,
                     b.scans[2].cluster_base, b.scans[3].cluster_base);
  const __m256i skip4 = _mm256_setr_epi64x(
      static_cast<int64_t>(b.scans[0].skip),
      static_cast<int64_t>(b.scans[1].skip),
      static_cast<int64_t>(b.scans[2].skip),
      static_cast<int64_t>(b.scans[3].skip));
  const double* bases4 = b.bases4;
  auto base_at = [bases4](size_t slot) {
    return _mm256_loadu_pd(bases4 + 4 * slot);
  };
  __m256d sum4 = _mm256_setzero_pd();
  size_t dense_entries = 0;
  for (size_t pr = 0; pr < s.rows; ++pr) {
    size_t phys = s.row_slots[pr];
    const double* values = s.values + phys * s.stride;
    size_t len = s.run_len[phys];
    __m256d rb = _mm256_broadcast_sd(s.row_base + phys);
    __m256d row;
    if (len == s.num_cols) {
      dense_entries += len;
      row = DenseRowAcross(values, len, rb, cb4, sign, base_at).Reduce();
    } else {
      row = RunRowAcross(values, s.slots + phys * s.stride, len, rb, cb4,
                         sign, base_at)
                .Reduce();
    }
    __m256d skipped = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_set1_epi64x(static_cast<int64_t>(pr)), skip4));
    sum4 = _mm256_add_pd(sum4, _mm256_andnot_pd(skipped, row));
  }
  double sums[4];
  _mm256_storeu_pd(sums, sum4);
  for (size_t c = 0; c < b.live; ++c) {
    const PaneScan& sc = b.scans[c];
    out[c].sum = sums[c];
    out[c].dense_entries = dense_entries;
    if (sc.skip < s.rows &&
        s.run_len[s.row_slots[sc.skip]] == s.num_cols) {
      out[c].dense_entries -= s.num_cols;
    }
    if (sc.added_values != nullptr) {
      ScanRow<SegPassDenseFullAvx2<false>, SegPassRunFullAvx2<false>>(
          sc, sc.added_values, sc.added_slots, sc.added_len,
          sc.added_row_base, out[c]);
    }
  }
}

// kOneHot + 3 - l holds all-ones at index l only: the select mask of
// accumulator l.
constexpr int64_t kOneHot[7] = {0, 0, 0, -1, 0, 0, 0};

// The batched added-column scan (scan_pane_cols4_abs): the row-toggle
// batch transposed. Every candidate visits a row's run unchanged, with
// the same column bases, so each entry's base is broadcast; the row's
// four toggled row bases are ToggledRowBase's select and division done
// element-wise on the candidates' four entries of the row. The appended
// entry is entry len of the row for every candidate, so it goes to
// accumulator len mod 4 for all four; it is added to every accumulator
// AND-masked by a one-hot select and by the candidate's keep word
// (all-ones where its entry is specified), so each candidate's lane
// takes it exactly when its single scan does, and every other add is of
// +0.0. A row counts as dense for a candidate when the row is dense and
// keeps its appended entry.
void ScanPaneCols4Avx2(const PaneColScanBatch& b, PaneSum* out) {
  const PaneColScan& s = b.scans[0];
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d cb4 =
      _mm256_setr_pd(b.scans[0].cluster_base, b.scans[1].cluster_base,
                     b.scans[2].cluster_base, b.scans[3].cluster_base);
  const __m256d added_base4 =
      _mm256_setr_pd(b.scans[0].added_col_base, b.scans[1].added_col_base,
                     b.scans[2].added_col_base, b.scans[3].added_col_base);
  const double* v0 = b.scans[0].col_values;
  const double* v1 = b.scans[1].col_values;
  const double* v2 = b.scans[2].col_values;
  const double* v3 = b.scans[3].col_values;
  const uint8_t* m0 = b.scans[0].col_mask;
  const uint8_t* m1 = b.scans[1].col_mask;
  const uint8_t* m2 = b.scans[2].col_mask;
  const uint8_t* m3 = b.scans[3].col_mask;
  const double* col_bases = s.col_bases;
  auto base_at = [col_bases](size_t slot) {
    return _mm256_broadcast_sd(col_bases + slot);
  };
  __m256d sum4 = zero;
  __m256i dense_rows4 = _mm256_setzero_si256();
  for (size_t pr = 0; pr < s.rows; ++pr) {
    size_t phys = s.row_slots[pr];
    const double* values = s.values + phys * s.stride;
    size_t len = s.run_len[phys];
    size_t i = s.row_ids[pr];
    __m256d v4 = _mm256_setr_pd(v0[i], v1[i], v2[i], v3[i]);
    // Keep words: all-ones (-1) where the candidate's entry is specified.
    __m256i keep4 = _mm256_setr_epi64x(
        -static_cast<int64_t>(m0[i] != 0), -static_cast<int64_t>(m1[i] != 0),
        -static_cast<int64_t>(m2[i] != 0), -static_cast<int64_t>(m3[i] != 0));
    __m256d keep = _mm256_castsi256_pd(keep4);
    // ToggledRowBase<false>, element-wise: the moved sum and count where
    // specified, then sum / count, +0.0 where the count is 0.
    double count = static_cast<double>(len);
    __m256d row_sum = _mm256_broadcast_sd(s.row_sums + i);
    __m256d sums = _mm256_blendv_pd(row_sum, _mm256_add_pd(row_sum, v4), keep);
    __m256d counts = _mm256_blendv_pd(_mm256_set1_pd(count),
                                      _mm256_set1_pd(count + 1.0), keep);
    __m256d rb4 = _mm256_and_pd(_mm256_div_pd(sums, counts),
                                _mm256_cmp_pd(counts, zero, _CMP_NEQ_OQ));
    Acc4 acc;
    if (len == s.num_cols) {
      acc = DenseRowAcross(values, len, rb4, cb4, sign, base_at);
      // keep words are all-ones (-1) or 0: subtracting counts a kept row.
      dense_rows4 = _mm256_sub_epi64(dense_rows4, keep4);
    } else {
      acc = RunRowAcross(values, s.slots + phys * s.stride, len, rb4, cb4,
                         sign, base_at);
    }
    __m256d added = _mm256_and_pd(
        ContributionVec<false>(v4, rb4, added_base4, cb4, sign), keep);
    const double* hot =
        reinterpret_cast<const double*>(kOneHot + 3 - (len & 3));
    acc.a0 = _mm256_add_pd(acc.a0,
                           _mm256_and_pd(added, _mm256_broadcast_sd(hot)));
    acc.a1 = _mm256_add_pd(
        acc.a1, _mm256_and_pd(added, _mm256_broadcast_sd(hot + 1)));
    acc.a2 = _mm256_add_pd(
        acc.a2, _mm256_and_pd(added, _mm256_broadcast_sd(hot + 2)));
    acc.a3 = _mm256_add_pd(
        acc.a3, _mm256_and_pd(added, _mm256_broadcast_sd(hot + 3)));
    sum4 = _mm256_add_pd(sum4, acc.Reduce());
  }
  double sums[4];
  _mm256_storeu_pd(sums, sum4);
  int64_t dense_rows[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dense_rows), dense_rows4);
  for (size_t c = 0; c < b.live; ++c) {
    out[c].sum = sums[c];
    out[c].dense_entries =
        static_cast<size_t>(dense_rows[c]) * (s.num_cols + 1);
  }
}

}  // namespace

const SimdKernels* Avx2KernelsOrNull() {
  static const SimdKernels table = {
      ScanPaneRows<SegPassDenseFullAvx2<false>, SegPassRunFullAvx2<false>>,
      ScanPaneRows<SegPassDenseFullAvx2<true>, SegPassRunFullAvx2<true>>,
      ScanPaneRows4Avx2,
      ScanPaneCol<SegPassDenseAvx2<false>, SegPassRunAvx2<false>,
                  ContributionScalar<false>>,
      ScanPaneCol<SegPassDenseAvx2<true>, SegPassRunAvx2<true>,
                  ContributionScalar<true>>,
      ScanPaneCols4Avx2,
      "avx2"};
  return &table;
}

}  // namespace deltaclus

#else  // !defined(__AVX2__)

namespace deltaclus {

const SimdKernels* Avx2KernelsOrNull() { return nullptr; }

}  // namespace deltaclus

#endif
