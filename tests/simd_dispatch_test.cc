// Scalar-vs-SIMD bit-identity: the runtime-dispatched gain kernels
// (src/core/simd_dispatch.h) must produce the same bits as the scalar
// reference bodies (src/core/residue_kernels.h) -- the LaneAcc contract
// says dispatching can never change a mined result. Two layers pin it:
//
//   1. Kernel-level: every function in the best-available table is fed
//      the same random segments/rows (across lane phases, lengths, and
//      both norms) and must reproduce the scalar output bit for bit.
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

#include <cstring>
#include <string>
#include <vector>

#include "src/core/floc.h"
#include "src/core/residue_kernels.h"
#include "src/core/simd_dispatch.h"
#include "src/data/matrix_io.h"
#include "src/data/synthetic.h"
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
  ASSERT_EQ(off.history.size(), on.history.size()) << label;
  for (size_t t = 0; t < off.history.size(); ++t) {
    EXPECT_EQ(off.history[t].actions_applied, on.history[t].actions_applied)
        << label << " iteration " << t;
    EXPECT_DOUBLE_EQ(off.history[t].best_average_residue,
                     on.history[t].best_average_residue)
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

}  // namespace
}  // namespace deltaclus
