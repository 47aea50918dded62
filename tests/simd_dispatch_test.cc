// Scalar-vs-SIMD bit-identity: the runtime-dispatched gain kernels
// (src/core/simd_dispatch.h) must produce the same bits as the scalar
// reference bodies (src/core/residue_kernels.h) -- the LaneAcc contract
// says dispatching can never change a mined result. Two layers pin it:
//
//   1. Kernel-level: every function in the best-available table is fed
//      the same random segments/rows (across lane phases, lengths, and
//      both norms) and must reproduce the scalar output bit for bit.
//      The run slots (holey rows as specified-entry runs) and the
//      gathered masked row pass are additionally held to the plain skip
//      loop kept below as their reference.
//   2. End-to-end: full FLOC runs with --simd off vs auto must take
//      identical actions and emit identical clusters, across thread
//      counts {1, 8}, dense and sparse (missing-entry) data, both
//      storage backends (mem / mmap), and audit on/off (audit recomputes
//      every gain-memo hit, so both the memo and the rescan path run).
//
// On hardware without a vector table (or builds without the ISA TUs),
// both modes resolve to the scalar kernels and the tests degenerate to
// trivially-true self-comparisons -- still worth running for the
// dispatch plumbing. The CI determinism matrix additionally drives the
// same comparison through the CLI via --simd.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/core/floc.h"
#include "src/core/residue_kernels.h"
#include "src/core/simd_dispatch.h"
#include "src/data/matrix_io.h"
#include "src/data/synthetic.h"
#include "src/obs/telemetry.h"
#include "src/storage/dcm_format.h"
#include "src/util/rng.h"

namespace deltaclus {
namespace {

// Restores the process-global SIMD mode on scope exit so test order
// cannot leak a pinned mode into unrelated tests.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode) : saved_(GetSimdMode()) {
    SetSimdMode(mode);
  }
  ~ScopedSimdMode() { SetSimdMode(saved_); }
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

 private:
  SimdMode saved_;
};

// The reference masked pass: a skip loop over the full row. Visits only
// specified entries; the phase advances only on them. `cols` (optional)
// makes it the gathered row pass.
template <bool kSquared>
void SkipLoopReference(const double* values, const uint8_t* mask,
                       const uint32_t* cols, const double* col_bases,
                       size_t n, double row_base, double cluster_base,
                       LaneAcc& acc) {
  for (size_t idx = 0; idx < n; ++idx) {
    size_t pos = cols != nullptr ? cols[idx] : idx;
    if (!mask[pos]) continue;
    acc.l[acc.p & 3] += Contribution<kSquared>(values[pos], row_base,
                                               col_bases[idx], cluster_base);
    ++acc.p;
  }
}

bool SameBits(const LaneAcc& a, const LaneAcc& b) {
  return a.p == b.p && std::memcmp(a.l, b.l, sizeof(a.l)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Mask patterns for the run and masked-row contracts: uniform densities
// from empty to full, plus long runs of holes (a whole compaction chunk
// and more) between short specified bursts.
std::vector<uint8_t> MaskPattern(int pattern, size_t n, Rng& rng) {
  static constexpr double kDensity[] = {0.0, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0};
  std::vector<uint8_t> mask(n, 0);
  if (pattern < 7) {
    for (uint8_t& m : mask) {
      // Nonzero mask bytes other than 1 are "specified" too.
      m = rng.Bernoulli(kDensity[pattern]) ? (rng.Bernoulli(0.5) ? 1 : 7) : 0;
    }
    return mask;
  }
  for (size_t k = 0; k < n; ++k) mask[k] = (k % 97) < 5 ? 1 : 0;
  return mask;
}
constexpr int kMaskPatterns = 8;

// Unspecified positions carry poison (nan, +-inf, denormals): the
// gathered compaction pass computes on them and must throw the result
// away, and a run must never contain them.
std::vector<double> PoisonedValues(const std::vector<uint8_t>& mask,
                                   Rng& rng) {
  static const double kPoison[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(), -1e-310};
  std::vector<double> values(mask.size());
  for (size_t k = 0; k < mask.size(); ++k) {
    values[k] = mask[k] ? rng.Uniform(-10.0, 10.0) : kPoison[k % 5];
  }
  return values;
}

// A holey row as the pane stores it (src/core/cluster_workspace.h): the
// specified entries of `values` left-packed with their positions as
// slots. kRunReadPad entries follow the run, as in the pane: poison
// values, and slots that index one past the end of the row's
// column-base array, so a vector tail that let either reach a load or a
// lane would fail the bit comparison or the sanitizer.
struct PaneRun {
  std::vector<double> values;
  std::vector<uint16_t> slots;
  size_t len = 0;
};

PaneRun MakeRun(const std::vector<double>& values,
                const std::vector<uint8_t>& mask) {
  static const double kPoison[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), -1e-310};
  PaneRun run;
  for (size_t k = 0; k < mask.size(); ++k) {
    if (!mask[k]) continue;
    run.values.push_back(values[k]);
    run.slots.push_back(static_cast<uint16_t>(k));
  }
  run.len = run.values.size();
  for (size_t t = 0; t < kRunReadPad; ++t) {
    run.values.push_back(kPoison[t % 4]);
    run.slots.push_back(static_cast<uint16_t>(mask.size()));
  }
  return run;
}

// Both run slots of `table` against the skip loop over the full row:
// the carried pass from every lane phase (with distinct lane contents),
// and the whole-run pass from fresh lanes.
template <bool kSquared>
void CheckRunSlots(const SimdKernels& table, const std::vector<double>& values,
                   const std::vector<uint8_t>& mask,
                   const std::vector<double>& col_bases, double row_base,
                   double cluster_base, const std::string& label) {
  size_t n = values.size();
  PaneRun run = MakeRun(values, mask);
  auto seg = kSquared ? table.seg_run_sq : table.seg_run_abs;
  auto seg_full = kSquared ? table.seg_run_full_sq : table.seg_run_full_abs;
  for (size_t phase = 0; phase < 4; ++phase) {
    LaneAcc ref, scalar, dispatched;
    for (size_t l = 0; l < 4; ++l) {
      ref.l[l] = scalar.l[l] = dispatched.l[l] =
          static_cast<double>(l + 1) * 0.375;
    }
    ref.p = scalar.p = dispatched.p = phase;
    SkipLoopReference<kSquared>(values.data(), mask.data(), nullptr,
                                col_bases.data(), n, row_base, cluster_base,
                                ref);
    SegPassRunScalar<kSquared>(run.values.data(), run.slots.data(),
                               col_bases.data(), run.len, row_base,
                               cluster_base, scalar);
    seg(run.values.data(), run.slots.data(), col_bases.data(), run.len,
        row_base, cluster_base, dispatched);
    ASSERT_TRUE(SameBits(ref, scalar)) << label << " scalar phase=" << phase;
    ASSERT_TRUE(SameBits(ref, dispatched))
        << label << " " << table.name << " phase=" << phase;
  }
  LaneAcc fresh;
  SkipLoopReference<kSquared>(values.data(), mask.data(), nullptr,
                              col_bases.data(), n, row_base, cluster_base,
                              fresh);
  double ref_full = fresh.Reduce();
  ASSERT_TRUE(SameBits(ref_full, SegPassRunFullScalar<kSquared>(
                                     run.values.data(), run.slots.data(),
                                     col_bases.data(), run.len, row_base,
                                     cluster_base)))
      << label << " scalar full";
  ASSERT_TRUE(SameBits(ref_full,
                       seg_full(run.values.data(), run.slots.data(),
                                col_bases.data(), run.len, row_base,
                                cluster_base)))
      << label << " " << table.name << " full";
}

// The scalar and best tables each as the other sees them: the kernel
// table at --simd=off and at auto.
std::vector<const SimdKernels*> ScalarAndBestTables() {
  std::vector<const SimdKernels*> tables;
  {
    ScopedSimdMode off(SimdMode::kOff);
    tables.push_back(&ActiveSimdKernels());
  }
  ScopedSimdMode on(SimdMode::kAuto);
  tables.push_back(&ActiveSimdKernels());
  return tables;
}

// The run slots of both the scalar and the best table reproduce the
// skip loop over the full row bit for bit, for every run length 0-9 and
// 63-65 (the vector body's group boundaries and the branch-free tail's
// 0-3 live lanes), with 0, 1 and many holes between the entries, every
// starting lane phase, and both norms.
TEST(SimdDispatchTest, RunSlotsBitIdenticalToSkipLoop) {
  std::vector<const SimdKernels*> tables = ScalarAndBestTables();
  Rng rng(47);
  std::vector<size_t> lengths = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65};
  for (size_t len : lengths) {
    for (size_t holes : {size_t{0}, size_t{1}, size_t{2}, len / 2 + 3}) {
      size_t n = len + holes;
      if (n == 0) continue;  // a scan never runs without pane columns
      std::vector<uint8_t> mask(n, 1);
      for (size_t pos : rng.SampleWithoutReplacement(n, holes)) mask[pos] = 0;
      std::vector<double> values = PoisonedValues(mask, rng);
      std::vector<double> col_bases(n);
      for (double& b : col_bases) b = rng.Uniform(-2.0, 2.0);
      double row_base = rng.Uniform(-2.0, 2.0);
      double cluster_base = rng.Uniform(-1.0, 1.0);
      std::string label =
          "len=" + std::to_string(len) + " holes=" + std::to_string(holes);
      for (const SimdKernels* table : tables) {
        CheckRunSlots<false>(*table, values, mask, col_bases, row_base,
                             cluster_base, label + " abs");
        CheckRunSlots<true>(*table, values, mask, col_bases, row_base,
                            cluster_base, label + " sq");
      }
    }
  }
}

// The same contract over the mask shapes mining meets: row widths 1-200
// at densities 0-100% and long hole runs, so runs of every length up to
// 200 and every tail phase occur.
TEST(SimdDispatchTest, RunSlotsBitIdenticalAcrossDensities) {
  std::vector<const SimdKernels*> tables = ScalarAndBestTables();
  Rng rng(61);
  for (size_t n = 1; n <= 200; ++n) {
    std::vector<double> col_bases(n);
    for (double& b : col_bases) b = rng.Uniform(-2.0, 2.0);
    double row_base = rng.Uniform(-2.0, 2.0);
    double cluster_base = rng.Uniform(-1.0, 1.0);
    for (int pattern = 0; pattern < kMaskPatterns; ++pattern) {
      std::vector<uint8_t> mask = MaskPattern(pattern, n, rng);
      std::vector<double> values = PoisonedValues(mask, rng);
      std::string label =
          "n=" + std::to_string(n) + " pattern=" + std::to_string(pattern);
      for (const SimdKernels* table : tables) {
        CheckRunSlots<false>(*table, values, mask, col_bases, row_base,
                             cluster_base, label + " abs");
        CheckRunSlots<true>(*table, values, mask, col_bases, row_base,
                            cluster_base, label + " sq");
      }
    }
  }
}

// The column-toggle kernel's run shapes: on removal the run splits where
// its slots pass the removed column, whose entry (if specified) is
// skipped; on addition the whole run is followed by one appended entry.
// Both with the phase carried between calls, against one skip loop over
// the post-toggle visit sequence.
TEST(SimdDispatchTest, SplitRunSegmentsBitIdenticalToOnePass) {
  Rng rng(53);
  for (const SimdKernels* table : ScalarAndBestTables()) {
    for (size_t n : {1u, 2u, 5u, 9u, 64u, 66u, 130u, 200u}) {
      for (int pattern = 0; pattern < kMaskPatterns; ++pattern) {
        std::vector<uint8_t> mask = MaskPattern(pattern, n + 1, rng);
        std::vector<double> values = PoisonedValues(mask, rng);
        std::vector<double> col_bases(n + 1);
        for (double& b : col_bases) b = rng.Uniform(-2.0, 2.0);
        double row_base = rng.Uniform(-2.0, 2.0);
        double cluster_base = rng.Uniform(-1.0, 1.0);
        // Pane row: the first n positions; position n is the appended
        // column of an addition.
        std::vector<uint8_t> pane_mask(mask.begin(), mask.begin() + n);
        PaneRun run = MakeRun(values, pane_mask);
        std::string label = std::string(table->name) + " n=" +
                            std::to_string(n) + " pattern=" +
                            std::to_string(pattern);
        // Removal of pane column jj.
        for (size_t jj : {size_t{0}, size_t{1}, n / 3, n - 1}) {
          if (jj >= n) continue;
          std::vector<uint8_t> visit = pane_mask;
          visit[jj] = 0;
          LaneAcc ref_abs, ref_sq, abs, sq;
          SkipLoopReference<false>(values.data(), visit.data(), nullptr,
                                   col_bases.data(), n, row_base,
                                   cluster_base, ref_abs);
          SkipLoopReference<true>(values.data(), visit.data(), nullptr,
                                  col_bases.data(), n, row_base, cluster_base,
                                  ref_sq);
          size_t split = static_cast<size_t>(
              std::lower_bound(run.slots.begin(),
                               run.slots.begin() +
                                   static_cast<std::ptrdiff_t>(run.len),
                               jj) -
              run.slots.begin());
          size_t rest = split + (pane_mask[jj] ? 1 : 0);
          for (auto [pos, len] :
               {std::pair{size_t{0}, split}, {rest, run.len - rest}}) {
            table->seg_run_abs(run.values.data() + pos, run.slots.data() + pos,
                               col_bases.data(), len, row_base, cluster_base,
                               abs);
            table->seg_run_sq(run.values.data() + pos, run.slots.data() + pos,
                              col_bases.data(), len, row_base, cluster_base,
                              sq);
          }
          ASSERT_TRUE(SameBits(ref_abs, abs)) << label << " jj=" << jj;
          ASSERT_TRUE(SameBits(ref_sq, sq)) << label << " jj=" << jj;
        }
        // Addition: the whole run, then the appended entry (as the
        // kernel visits it, only when specified).
        LaneAcc ref_abs, ref_sq, abs, sq;
        SkipLoopReference<false>(values.data(), mask.data(), nullptr,
                                 col_bases.data(), n + 1, row_base,
                                 cluster_base, ref_abs);
        SkipLoopReference<true>(values.data(), mask.data(), nullptr,
                                col_bases.data(), n + 1, row_base,
                                cluster_base, ref_sq);
        table->seg_run_abs(run.values.data(), run.slots.data(),
                           col_bases.data(), run.len, row_base, cluster_base,
                           abs);
        table->seg_run_sq(run.values.data(), run.slots.data(),
                          col_bases.data(), run.len, row_base, cluster_base,
                          sq);
        SkipLoopReference<false>(values.data() + n, mask.data() + n, nullptr,
                                 col_bases.data() + n, 1, row_base,
                                 cluster_base, abs);
        SkipLoopReference<true>(values.data() + n, mask.data() + n, nullptr,
                                col_bases.data() + n, 1, row_base,
                                cluster_base, sq);
        ASSERT_TRUE(SameBits(ref_abs, abs)) << label << " append";
        ASSERT_TRUE(SameBits(ref_sq, sq)) << label << " append";
        ASSERT_TRUE(SameBits(ref_abs.Reduce(), abs.Reduce())) << label;
      }
    }
  }
}

// The gathered masked row pass (an added row, outside the pane) against
// the skip loop over the same column-id list.
TEST(SimdDispatchTest, GatheredMaskedRowPassBitIdenticalToSkipLoop) {
  Rng rng(59);
  constexpr size_t kMatrixCols = 512;
  for (int pattern = 0; pattern < kMaskPatterns; ++pattern) {
    std::vector<uint8_t> mask = MaskPattern(pattern, kMatrixCols, rng);
    std::vector<double> row = PoisonedValues(mask, rng);
    for (size_t n : {0u, 1u, 3u, 63u, 64u, 65u, 129u, 200u}) {
      std::vector<uint32_t> cols;
      for (size_t id : rng.SampleWithoutReplacement(kMatrixCols, n)) {
        cols.push_back(static_cast<uint32_t>(id));
      }
      std::vector<double> col_bases(n);
      for (double& b : col_bases) b = rng.Uniform(-2.0, 2.0);
      double row_base = rng.Uniform(-2.0, 2.0);
      double cluster_base = rng.Uniform(-1.0, 1.0);
      LaneAcc ref_abs, ref_sq;
      SkipLoopReference<false>(row.data(), mask.data(), cols.data(),
                               col_bases.data(), n, row_base, cluster_base,
                               ref_abs);
      SkipLoopReference<true>(row.data(), mask.data(), cols.data(),
                              col_bases.data(), n, row_base, cluster_base,
                              ref_sq);
      ASSERT_TRUE(SameBits(ref_abs.Reduce(),
                           RowPassMaskedScalar<false>(
                               row.data(), mask.data(), cols.data(),
                               col_bases.data(), n, row_base, cluster_base)))
          << "n=" << n << " pattern=" << pattern;
      ASSERT_TRUE(SameBits(ref_sq.Reduce(),
                           RowPassMaskedScalar<true>(
                               row.data(), mask.data(), cols.data(),
                               col_bases.data(), n, row_base, cluster_base)))
          << "n=" << n << " pattern=" << pattern;
    }
  }
}

TEST(SimdDispatchTest, OffPinsScalarAutoPicksDetectedBest) {
  {
    ScopedSimdMode off(SimdMode::kOff);
    EXPECT_STREQ(ActiveSimdPath(), "scalar");
  }
  ScopedSimdMode on(SimdMode::kAuto);
  std::string features = DetectedCpuFeatures();
  const char* path = ActiveSimdPath();
  if (Avx2KernelsOrNull() != nullptr &&
      features.find("avx2") != std::string::npos) {
    EXPECT_STREQ(path, "avx2");
  } else {
    EXPECT_STREQ(path, "scalar");
  }
}

TEST(SimdDispatchTest, SegKernelsBitIdenticalToScalarAcrossPhases) {
  ScopedSimdMode on(SimdMode::kAuto);
  const SimdKernels& simd = ActiveSimdKernels();
  Rng rng(41);
  // Lengths straddle the peel/unroll/tail boundaries; phases cover all
  // four lane offsets; values include negatives so the |r| path's
  // sign-bit handling is exercised.
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 15u, 64u, 257u}) {
    std::vector<double> values(n), col_bases(n);
    for (size_t k = 0; k < n; ++k) {
      values[k] = rng.Uniform(-10.0, 10.0);
      col_bases[k] = rng.Uniform(-2.0, 2.0);
    }
    double row_base = rng.Uniform(-2.0, 2.0);
    double cluster_base = rng.Uniform(-1.0, 1.0);
    for (size_t phase = 0; phase < 4; ++phase) {
      LaneAcc scalar_acc;
      LaneAcc simd_abs_acc;
      LaneAcc simd_sq_acc;
      LaneAcc scalar_sq_acc;
      // Pre-seed distinct lane contents and the phase so the kernels
      // must carry both faithfully.
      for (size_t l = 0; l < 4; ++l) {
        double seed_value = static_cast<double>(l + 1) * 0.125;
        scalar_acc.l[l] = simd_abs_acc.l[l] = seed_value;
        scalar_sq_acc.l[l] = simd_sq_acc.l[l] = seed_value;
      }
      scalar_acc.p = simd_abs_acc.p = phase;
      scalar_sq_acc.p = simd_sq_acc.p = phase;

      SegPassDenseScalar<false>(values.data(), col_bases.data(), n, row_base,
                                cluster_base, scalar_acc);
      simd.seg_dense_abs(values.data(), col_bases.data(), n, row_base,
                         cluster_base, simd_abs_acc);
      SegPassDenseScalar<true>(values.data(), col_bases.data(), n, row_base,
                               cluster_base, scalar_sq_acc);
      simd.seg_dense_sq(values.data(), col_bases.data(), n, row_base,
                        cluster_base, simd_sq_acc);

      ASSERT_EQ(scalar_acc.p, simd_abs_acc.p) << "n=" << n << " p=" << phase;
      for (size_t l = 0; l < 4; ++l) {
        // Bitwise, not just numeric, equality.
        ASSERT_EQ(0, std::memcmp(&scalar_acc.l[l], &simd_abs_acc.l[l],
                                 sizeof(double)))
            << "abs lane " << l << " n=" << n << " phase=" << phase;
        ASSERT_EQ(0, std::memcmp(&scalar_sq_acc.l[l], &simd_sq_acc.l[l],
                                 sizeof(double)))
            << "sq lane " << l << " n=" << n << " phase=" << phase;
      }
    }
  }
}

// The gathered matrix-row pass is not dispatched (no ISA beats scalar
// on a gather), but it must still follow the LaneAcc contract: the
// row-toggle kernel scans an added row (outside the pane) through it,
// and that row's contribution must be the bits the dispatched pane pass
// gives the same entries once the row is a member.
TEST(SimdDispatchTest, GatheredRowPassBitIdenticalToPanePass) {
  ScopedSimdMode on(SimdMode::kAuto);
  const SimdKernels& simd = ActiveSimdKernels();
  Rng rng(43);
  constexpr size_t kMatrixCols = 512;
  std::vector<double> row(kMatrixCols);
  for (double& v : row) v = rng.Uniform(-10.0, 10.0);
  for (size_t n : {0u, 1u, 3u, 4u, 7u, 33u, 200u}) {
    // Sorted distinct column ids, like a cluster's col_ids.
    std::vector<uint32_t> cols;
    for (size_t id : rng.SampleWithoutReplacement(kMatrixCols, n)) {
      cols.push_back(static_cast<uint32_t>(id));
    }
    std::vector<double> col_bases(n);
    for (double& b : col_bases) b = rng.Uniform(-2.0, 2.0);
    double row_base = rng.Uniform(-2.0, 2.0);
    double cluster_base = rng.Uniform(-1.0, 1.0);

    // The pane view of the same row: entries gathered into a packed
    // contiguous run, exactly what RebuildPane produces.
    std::vector<double> packed(n);
    for (size_t idx = 0; idx < n; ++idx) packed[idx] = row[cols[idx]];

    double gather_abs = RowPassDenseScalar<false>(
        row.data(), cols.data(), col_bases.data(), n, row_base, cluster_base);
    double pane_abs = simd.seg_full_abs(packed.data(), col_bases.data(), n,
                                        row_base, cluster_base);
    double gather_sq = RowPassDenseScalar<true>(
        row.data(), cols.data(), col_bases.data(), n, row_base, cluster_base);
    double pane_sq = simd.seg_full_sq(packed.data(), col_bases.data(), n,
                                      row_base, cluster_base);
    ASSERT_EQ(0, std::memcmp(&gather_abs, &pane_abs, sizeof(double)))
        << "n=" << n;
    ASSERT_EQ(0, std::memcmp(&gather_sq, &pane_sq, sizeof(double)))
        << "n=" << n;
  }
}

SyntheticDataset CmpData(double missing_fraction) {
  SyntheticConfig config;
  config.rows = 120;
  config.cols = 48;
  config.num_clusters = 3;
  config.volume_mean = 150;
  config.col_fraction = 0.25;
  config.noise_stddev = 0.5;
  config.missing_fraction = missing_fraction;
  config.seed = 311;
  return GenerateSynthetic(config);
}

void ExpectIdenticalResults(const FlocResult& off, const FlocResult& on,
                            const std::string& label) {
  ASSERT_EQ(off.iterations, on.iterations) << label;
  const std::vector<obs::IterationTelemetry>& off_log =
      off.telemetry.iteration_log;
  const std::vector<obs::IterationTelemetry>& on_log =
      on.telemetry.iteration_log;
  ASSERT_EQ(off_log.size(), on_log.size()) << label;
  for (size_t t = 0; t < off_log.size(); ++t) {
    EXPECT_EQ(off_log[t].actions_applied, on_log[t].actions_applied)
        << label << " iteration " << t;
    EXPECT_DOUBLE_EQ(off_log[t].best_average_score,
                     on_log[t].best_average_score)
        << label << " iteration " << t;
  }
  ASSERT_EQ(off.clusters.size(), on.clusters.size()) << label;
  for (size_t c = 0; c < off.clusters.size(); ++c) {
    EXPECT_TRUE(off.clusters[c] == on.clusters[c]) << label << " cluster "
                                                   << c;
    EXPECT_DOUBLE_EQ(off.residues[c], on.residues[c]) << label << " cluster "
                                                      << c;
  }
  EXPECT_DOUBLE_EQ(off.average_residue, on.average_residue) << label;
}

// Full mining runs, simd off vs auto, across the determinism matrix:
// threads {1, 8} x dense/sparse x backend {mem, mmap} x audit on/off.
TEST(SimdDispatchTest, FlocBitIdenticalSimdOffVsAuto) {
  for (double missing : {0.0, 0.3}) {
    SyntheticDataset data = CmpData(missing);
    // Round-trip through .dcm so the mmap leg reads the same planes.
    std::string dcm_path = testing::TempDir() + "/simd_cmp_" +
                           (missing > 0.0 ? "sparse" : "dense") + ".dcm";
    WriteDcmFile(data.matrix, dcm_path);
    DataMatrix mapped = ReadDcmFile(dcm_path, MatrixBackend::kMmap);
    for (const DataMatrix* matrix : {&data.matrix, &mapped}) {
      for (int threads : {1, 8}) {
        for (bool audit : {false, true}) {
          FlocConfig config;
          config.num_clusters = 6;
          config.rng_seed = 17;
          config.threads = threads;
          config.audit = audit;
          config.telemetry = obs::TelemetryLevel::kSummary;
          std::string label = std::string(matrix->BackendName()) +
                              (missing > 0.0 ? " sparse" : " dense") +
                              " threads=" + std::to_string(threads) +
                              " audit=" + (audit ? "1" : "0");
          FlocResult off;
          {
            ScopedSimdMode mode(SimdMode::kOff);
            off = Floc(config).Run(*matrix);
          }
          FlocResult on;
          {
            ScopedSimdMode mode(SimdMode::kAuto);
            on = Floc(config).Run(*matrix);
          }
          ExpectIdenticalResults(off, on, label);
        }
      }
    }
  }
}

// An unspecified cell's payload must never reach a result: pane runs
// hold only specified entries, and the gathered added-row pass computes
// on unspecified cells before discarding them. A
// .dcm whose unspecified cells hold nan, +-inf and denormals (payload
// checksum left stale: only DcmVerify::kFull reads it, and the default
// open maps the file without) must mine exactly what the zero-filled
// file mines, at either SIMD mode and thread count.
TEST(SimdDispatchTest, UnspecifiedPayloadNeverReachesAResult) {
  SyntheticDataset data = CmpData(0.3);
  std::string clean_path = testing::TempDir() + "/simd_payload_clean.dcm";
  std::string poisoned_path =
      testing::TempDir() + "/simd_payload_poisoned.dcm";
  WriteDcmFile(data.matrix, clean_path);

  std::vector<char> bytes;
  {
    std::ifstream in(clean_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  storage::DcmHeader h =
      storage::ParseDcmHeader(bytes.data(), bytes.size(), clean_path);
  auto* buf = reinterpret_cast<uint8_t*>(bytes.data());
  const double kPoison[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min() * 7};
  size_t poisoned = 0;
  for (uint64_t i = 0; i < h.rows; ++i) {
    for (uint64_t j = 0; j < h.cols; ++j) {
      uint64_t rm = i * h.cols + j;
      uint64_t cm = j * h.rows + i;
      ASSERT_EQ(buf[h.off_mask_rm + rm] != 0, buf[h.off_mask_cm + cm] != 0);
      if (buf[h.off_mask_rm + rm] != 0) continue;
      const double& v = kPoison[poisoned++ % 5];
      std::memcpy(buf + h.off_values_rm + rm * sizeof(double), &v,
                  sizeof(double));
      std::memcpy(buf + h.off_values_cm + cm * sizeof(double), &v,
                  sizeof(double));
    }
  }
  ASSERT_GT(poisoned, 0u);
  {
    std::ofstream out(poisoned_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  DataMatrix clean = ReadDcmFile(clean_path, MatrixBackend::kMmap);
  DataMatrix dirty = ReadDcmFile(poisoned_path, MatrixBackend::kMmap);
  for (SimdMode mode : {SimdMode::kAuto, SimdMode::kOff}) {
    ScopedSimdMode scoped(mode);
    for (int threads : {1, 4}) {
      FlocConfig config;
      config.num_clusters = 6;
      config.rng_seed = 19;
      config.threads = threads;
      config.telemetry = obs::TelemetryLevel::kSummary;
      std::string label = std::string(ActiveSimdPath()) +
                          " threads=" + std::to_string(threads);
      FlocResult want = Floc(config).Run(clean);
      FlocResult got = Floc(config).Run(dirty);
      ExpectIdenticalResults(want, got, label);
      ASSERT_EQ(want.residues.size(), got.residues.size()) << label;
      for (size_t c = 0; c < want.residues.size(); ++c) {
        EXPECT_TRUE(SameBits(want.residues[c], got.residues[c]))
            << label << " cluster " << c;
      }
    }
  }
}

}  // namespace
}  // namespace deltaclus
