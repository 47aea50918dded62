// Scalar-vs-SIMD bit-identity: the runtime-dispatched gain kernels
// (src/core/simd_dispatch.h) must produce the same bits as the scalar
// reference bodies (src/core/residue_kernels.h) -- the LaneAcc contract
// says dispatching can never change a mined result. Two layers pin it:
//
//   1. Kernel-level: every function in the best-available table is fed
//      the same random segments/rows (across lane phases, lengths, and
//      both norms) and must reproduce the scalar output bit for bit.
//      The masked slots (branch-free compaction) are additionally held
//      to the plain skip loop kept below as their reference.
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
// same comparison through the CLI via DELTACLUS_SIMD.
#include <gtest/gtest.h>

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

// The reference masked pass: the skip loop the compaction kernels
// replaced. Visits only specified entries; the phase advances only on
// them. `cols` (optional) makes it the gathered row pass.
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

// Mask patterns for the masked-slot contract: uniform densities from
// empty to full, plus long runs of holes (a whole chunk and more) between
// short specified bursts.
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
// compaction kernels compute on them and must throw the result away.
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

template <bool kSquared>
void CheckMaskedSlots(const SimdKernels& table, const std::vector<double>& values,
                      const std::vector<uint8_t>& mask,
                      const std::vector<double>& col_bases, double row_base,
                      double cluster_base, const std::string& label) {
  size_t n = values.size();
  auto seg = kSquared ? table.seg_masked_sq : table.seg_masked_abs;
  auto seg_full =
      kSquared ? table.seg_masked_full_sq : table.seg_masked_full_abs;
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
    SegPassMaskedScalar<kSquared>(values.data(), mask.data(),
                                  col_bases.data(), n, row_base, cluster_base,
                                  scalar);
    seg(values.data(), mask.data(), col_bases.data(), n, row_base,
        cluster_base, dispatched);
    ASSERT_TRUE(SameBits(ref, scalar)) << label << " scalar phase=" << phase;
    ASSERT_TRUE(SameBits(ref, dispatched))
        << label << " " << table.name << " phase=" << phase;
  }
  LaneAcc fresh;
  SkipLoopReference<kSquared>(values.data(), mask.data(), nullptr,
                              col_bases.data(), n, row_base, cluster_base,
                              fresh);
  double ref_full = fresh.Reduce();
  ASSERT_TRUE(SameBits(ref_full, SegPassMaskedFullScalar<kSquared>(
                                     values.data(), mask.data(),
                                     col_bases.data(), n, row_base,
                                     cluster_base)))
      << label << " scalar full";
  ASSERT_TRUE(SameBits(ref_full, seg_full(values.data(), mask.data(),
                                          col_bases.data(), n, row_base,
                                          cluster_base)))
      << label << " " << table.name << " full";
}

// The masked slots of both the scalar and the best table reproduce the
// skip loop bit for bit: every length 0..200 (which crosses the 64-entry
// compaction chunk at 63/64/65 and 128/129), every starting lane phase,
// densities 0..100% and long hole runs, both norms.
TEST(SimdDispatchTest, MaskedSlotsBitIdenticalToSkipLoop) {
  const SimdKernels* tables[2];
  {
    ScopedSimdMode off(SimdMode::kOff);
    tables[0] = &ActiveSimdKernels();
  }
  ScopedSimdMode on(SimdMode::kAuto);
  tables[1] = &ActiveSimdKernels();
  Rng rng(47);
  for (size_t n = 0; n <= 200; ++n) {
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
        CheckMaskedSlots<false>(*table, values, mask, col_bases, row_base,
                                cluster_base, label + " abs");
        CheckMaskedSlots<true>(*table, values, mask, col_bases, row_base,
                               cluster_base, label + " sq");
      }
    }
  }
}

// The column-toggle kernel's masked row shapes: two slices around a
// skipped pane column (removal) or one slice plus an appended entry
// (addition), with the phase carried between calls. Held here to two
// slices plus an appended entry against one skip loop over the whole
// visit sequence.
TEST(SimdDispatchTest, SplitMaskedSegmentsBitIdenticalToOnePass) {
  ScopedSimdMode on(SimdMode::kAuto);
  const SimdKernels& simd = ActiveSimdKernels();
  Rng rng(53);
  for (size_t n : {2u, 5u, 9u, 64u, 66u, 130u, 200u}) {
    for (int pattern = 0; pattern < kMaskPatterns; ++pattern) {
      // Visit sequence: n pane entries then one appended entry.
      std::vector<uint8_t> mask = MaskPattern(pattern, n + 1, rng);
      std::vector<double> values = PoisonedValues(mask, rng);
      std::vector<double> col_bases(n + 1);
      for (double& b : col_bases) b = rng.Uniform(-2.0, 2.0);
      double row_base = rng.Uniform(-2.0, 2.0);
      double cluster_base = rng.Uniform(-1.0, 1.0);
      for (size_t split : {size_t{0}, size_t{1}, n / 3, n - 1, n}) {
        LaneAcc ref_abs, ref_sq, abs, sq;
        SkipLoopReference<false>(values.data(), mask.data(), nullptr,
                                 col_bases.data(), n + 1, row_base,
                                 cluster_base, ref_abs);
        SkipLoopReference<true>(values.data(), mask.data(), nullptr,
                                col_bases.data(), n + 1, row_base,
                                cluster_base, ref_sq);
        for (auto [pos, len] : {std::pair{size_t{0}, split},
                                {split, n - split}, {n, size_t{1}}}) {
          simd.seg_masked_abs(values.data() + pos, mask.data() + pos,
                              col_bases.data() + pos, len, row_base,
                              cluster_base, abs);
          simd.seg_masked_sq(values.data() + pos, mask.data() + pos,
                             col_bases.data() + pos, len, row_base,
                             cluster_base, sq);
        }
        ASSERT_TRUE(SameBits(ref_abs, abs))
            << "n=" << n << " pattern=" << pattern << " split=" << split;
        ASSERT_TRUE(SameBits(ref_sq, sq))
            << "n=" << n << " pattern=" << pattern << " split=" << split;
        ASSERT_TRUE(SameBits(ref_abs.Reduce(), abs.Reduce()));
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
  } else if (NeonKernelsOrNull() != nullptr) {
    EXPECT_STREQ(path, "neon");
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

// The masked kernels compute on unspecified cells before discarding
// them, so an unspecified cell's payload must never reach a result. A
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
