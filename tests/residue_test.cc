#include "src/core/residue.h"

#include <cmath>
#include <ostream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/cluster_workspace.h"
#include "src/util/rng.h"

namespace deltaclus {
namespace {

// The paper's Figure 4(a): ten yeast genes under five conditions.
DataMatrix Figure4Matrix() {
  return DataMatrix::FromRows({
      {4392, 284, 4108, 280, 228},  // CTFC3
      {401, 281, 120, 275, 298},    // VPS8
      {318, 280, 37, 277, 215},     // EFB1
      {401, 292, 109, 580, 238},    // SSA1
      {2857, 285, 2576, 271, 226},  // FUN14
      {228, 290, 48, 285, 224},     // SPO7
      {538, 272, 266, 277, 236},    // MDM10
      {322, 288, 41, 278, 219},     // CYS3
      {312, 272, 40, 273, 232},     // DEP1
      {329, 296, 33, 274, 228},     // NTG1
  });
}

// The delta-cluster of Figure 4(b): genes {VPS8, EFB1, CYS3} = rows
// {1, 2, 7}, conditions {CH1I, CH1D, CH2B} = columns {0, 2, 4}.
Cluster Figure4Cluster() {
  return Cluster::FromMembers(10, 5, {1, 2, 7}, {0, 2, 4});
}

TEST(ResidueNaiveTest, Figure4BasesMatchPaper) {
  DataMatrix m = Figure4Matrix();
  Cluster c = Figure4Cluster();
  // Row bases quoted in Section 3: d_VPS8,J = 273, d_EFB1,J = 190,
  // d_CYS3,J = 194.
  EXPECT_NEAR(RowBaseNaive(m, c, 1), 273.0, 1e-9);
  EXPECT_NEAR(RowBaseNaive(m, c, 2), 190.0, 1e-9);
  EXPECT_NEAR(RowBaseNaive(m, c, 7), 194.0, 1e-9);
  // Column bases: d_I,CH1I = 347, d_I,CH1D = 66, d_I,CH2B = 244.
  EXPECT_NEAR(ColBaseNaive(m, c, 0), 347.0, 1e-9);
  EXPECT_NEAR(ColBaseNaive(m, c, 2), 66.0, 1e-9);
  EXPECT_NEAR(ColBaseNaive(m, c, 4), 244.0, 1e-9);
  // Cluster base: d_IJ = 219.
  EXPECT_NEAR(ClusterBaseNaive(m, c), 219.0, 1e-9);
}

TEST(ResidueNaiveTest, Figure4IsAPerfectDeltaCluster) {
  DataMatrix m = Figure4Matrix();
  Cluster c = Figure4Cluster();
  // The paper: d_VPS8,CH1I = 273 - 347 + 219 = 401 reconstructs exactly,
  // and every entry has zero residue.
  for (uint32_t i : c.row_ids()) {
    for (uint32_t j : c.col_ids()) {
      EXPECT_NEAR(EntryResidueNaive(m, c, i, j), 0.0, 1e-9)
          << "entry (" << i << ", " << j << ")";
      double reconstructed = RowBaseNaive(m, c, i) + ColBaseNaive(m, c, j) -
                             ClusterBaseNaive(m, c);
      EXPECT_NEAR(reconstructed, m.Value(i, j), 1e-9);
    }
  }
  EXPECT_NEAR(ClusterResidueNaive(m, c), 0.0, 1e-9);
  EXPECT_NEAR(ClusterResidueNaive(m, c, ResidueNorm::kMeanSquared), 0.0,
              1e-9);
}

TEST(ResidueNaiveTest, Figure4VolumeIsNine) {
  DataMatrix m = Figure4Matrix();
  EXPECT_EQ(VolumeNaive(m, Figure4Cluster()), 9u);
}

TEST(ResidueNaiveTest, IntroVectorsAreCoherent) {
  // The introduction's d1, d2, d3: pairwise shifted by constant offsets.
  DataMatrix m = DataMatrix::FromRows({
      {1, 5, 23, 12, 20},
      {11, 15, 33, 22, 30},
      {111, 115, 133, 122, 130},
  });
  Cluster c = Cluster::FromMembers(3, 5, {0, 1, 2}, {0, 1, 2, 3, 4});
  EXPECT_NEAR(ClusterResidueNaive(m, c), 0.0, 1e-9);
}

TEST(ResidueNaiveTest, MovieRanksExample) {
  // E-commerce example: three viewers rank four movies (1,2,3,5),
  // (2,3,4,6), (3,4,5,7) -- coherent despite different absolute ranks.
  DataMatrix m = DataMatrix::FromRows({{1, 2, 3, 5}, {2, 3, 4, 6},
                                       {3, 4, 5, 7}});
  Cluster c = Cluster::FromMembers(3, 4, {0, 1, 2}, {0, 1, 2, 3});
  EXPECT_NEAR(ClusterResidueNaive(m, c), 0.0, 1e-9);
}

TEST(ResidueNaiveTest, MissingEntriesHaveZeroResidue) {
  DataMatrix m = DataMatrix::FromOptionalRows(
      {{1.0, std::nullopt}, {2.0, 5.0}});
  Cluster c = Cluster::FromMembers(2, 2, {0, 1}, {0, 1});
  EXPECT_DOUBLE_EQ(EntryResidueNaive(m, c, 0, 1), 0.0);
}

TEST(ResidueNaiveTest, Figure3bHasLowButNonZeroResidue) {
  // Figure 3(b): a valid delta-cluster with missing values whose
  // specified entries are shift-coherent (rows are shifts of the pattern
  // (1, 2, 3, 3) by 0, +2, +1). Because bases are means over *specified*
  // entries only (Definition 3.3), missing entries bias the bases, so the
  // residue is small but not exactly zero -- an intrinsic property of the
  // model under missing data.
  DataMatrix m = DataMatrix::FromOptionalRows({
      {1.0, std::nullopt, 3.0, 3.0},
      {3.0, 4.0, 5.0, std::nullopt},
      {std::nullopt, 3.0, 4.0, 4.0},
  });
  Cluster c = Cluster::FromMembers(3, 4, {0, 1, 2}, {0, 1, 2, 3});
  double residue = ClusterResidueNaive(m, c);
  EXPECT_GT(residue, 0.0);
  EXPECT_LT(residue, 0.5);

  // The same pattern fully specified *is* perfect.
  DataMatrix full = DataMatrix::FromRows({
      {1, 2, 3, 3},
      {3, 4, 5, 5},
      {2, 3, 4, 4},
  });
  EXPECT_NEAR(ClusterResidueNaive(full, c), 0.0, 1e-12);
}

TEST(ResidueNaiveTest, SingleRowOrColumnIsTriviallyPerfect) {
  DataMatrix m = DataMatrix::FromRows({{5, 100, -3}, {2, 2, 2}});
  Cluster row = Cluster::FromMembers(2, 3, {0}, {0, 1, 2});
  Cluster col = Cluster::FromMembers(2, 3, {0, 1}, {1});
  EXPECT_NEAR(ClusterResidueNaive(m, row), 0.0, 1e-12);
  EXPECT_NEAR(ClusterResidueNaive(m, col), 0.0, 1e-12);
}

TEST(ResidueNaiveTest, EmptyClusterResidueIsZero) {
  DataMatrix m(3, 3, 1.0);
  Cluster c(3, 3);
  EXPECT_DOUBLE_EQ(ClusterResidueNaive(m, c), 0.0);
}

TEST(ResidueNaiveTest, KnownNonZeroResidue) {
  // 2x2 cluster {{0, 0}, {0, 1}}: bases are 0, .5 (rows), 0, .5 (cols),
  // total .25. Residues: each entry +-0.25.
  DataMatrix m = DataMatrix::FromRows({{0, 0}, {0, 1}});
  Cluster c = Cluster::FromMembers(2, 2, {0, 1}, {0, 1});
  EXPECT_NEAR(EntryResidueNaive(m, c, 0, 0), 0.25, 1e-12);
  EXPECT_NEAR(EntryResidueNaive(m, c, 0, 1), -0.25, 1e-12);
  EXPECT_NEAR(EntryResidueNaive(m, c, 1, 0), -0.25, 1e-12);
  EXPECT_NEAR(EntryResidueNaive(m, c, 1, 1), 0.25, 1e-12);
  EXPECT_NEAR(ClusterResidueNaive(m, c), 0.25, 1e-12);
  EXPECT_NEAR(ClusterResidueNaive(m, c, ResidueNorm::kMeanSquared), 0.0625,
              1e-12);
}

// ---------------------------------------------------------------------
// Properties of the residue definition.
// ---------------------------------------------------------------------

DataMatrix RandomMatrix(size_t rows, size_t cols, double density,
                        uint64_t seed) {
  Rng rng(seed);
  DataMatrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.Bernoulli(density)) m.Set(i, j, rng.Uniform(-50.0, 50.0));
    }
  }
  return m;
}

Cluster RandomCluster(size_t rows, size_t cols, size_t n_rows, size_t n_cols,
                      uint64_t seed) {
  Rng rng(seed);
  return Cluster::FromMembers(rows, cols,
                              rng.SampleWithoutReplacement(rows, n_rows),
                              rng.SampleWithoutReplacement(cols, n_cols));
}

TEST(ResiduePropertyTest, PlantedShiftClustersArePerfect) {
  // Any matrix of the form base + r_i + c_j has zero residue, whatever
  // the offsets.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    size_t rows = 2 + rng.UniformIndex(8);
    size_t cols = 2 + rng.UniformIndex(8);
    DataMatrix m(rows, cols);
    double base = rng.Uniform(-100, 100);
    std::vector<double> r(rows);
    std::vector<double> c(cols);
    for (double& v : r) v = rng.Uniform(-100, 100);
    for (double& v : c) v = rng.Uniform(-100, 100);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) m.Set(i, j, base + r[i] + c[j]);
    }
    Cluster all(rows, cols);
    for (size_t i = 0; i < rows; ++i) all.AddRow(i);
    for (size_t j = 0; j < cols; ++j) all.AddCol(j);
    EXPECT_NEAR(ClusterResidueNaive(m, all), 0.0, 1e-9) << "seed " << seed;
  }
}

TEST(ResiduePropertyTest, ResidueInvariantUnderGlobalShift) {
  DataMatrix m = RandomMatrix(12, 9, 0.9, 11);
  Cluster c = RandomCluster(12, 9, 6, 5, 12);
  double before = ClusterResidueNaive(m, c);
  DataMatrix shifted = m;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      if (m.IsSpecified(i, j)) shifted.Set(i, j, m.Value(i, j) + 1234.5);
    }
  }
  EXPECT_NEAR(ClusterResidueNaive(shifted, c), before, 1e-9);
}

TEST(ResiduePropertyTest, ResidueInvariantUnderRowAndColOffsets) {
  // Adding arbitrary per-row and per-column offsets leaves every residue
  // unchanged -- this is the precise sense in which the model "perfectly
  // accommodates" object/attribute bias.
  DataMatrix m = RandomMatrix(10, 8, 1.0, 21);
  Cluster c = RandomCluster(10, 8, 5, 4, 22);
  double before = ClusterResidueNaive(m, c);
  Rng rng(23);
  DataMatrix biased = m;
  std::vector<double> row_off(10);
  std::vector<double> col_off(8);
  for (double& v : row_off) v = rng.Uniform(-40, 40);
  for (double& v : col_off) v = rng.Uniform(-40, 40);
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      biased.Set(i, j, m.Value(i, j) + row_off[i] + col_off[j]);
    }
  }
  EXPECT_NEAR(ClusterResidueNaive(biased, c), before, 1e-9);
}

TEST(ResiduePropertyTest, ResidueInvariantUnderScaleForMeanAbs) {
  DataMatrix m = RandomMatrix(9, 9, 1.0, 31);
  Cluster c = RandomCluster(9, 9, 4, 4, 32);
  double before = ClusterResidueNaive(m, c);
  DataMatrix scaled = m;
  for (size_t i = 0; i < 9; ++i) {
    for (size_t j = 0; j < 9; ++j) scaled.Set(i, j, 3.0 * m.Value(i, j));
  }
  EXPECT_NEAR(ClusterResidueNaive(scaled, c), 3.0 * before, 1e-9);
}

// ---------------------------------------------------------------------
// Engine vs naive, and virtual toggles vs real toggles.
// ---------------------------------------------------------------------

struct EngineCase {
  size_t rows;
  size_t cols;
  double density;
  ResidueNorm norm;

  // Both the test-name suffix (e.g. r12_c7_d60_abs) and gtest's
  // GetParam() printout, so neither depends on the struct's bytes.
  friend std::ostream& operator<<(std::ostream& os, const EngineCase& c) {
    return os << "r" << c.rows << "_c" << c.cols << "_d"
              << std::lround(c.density * 100) << "_"
              << (c.norm == ResidueNorm::kMeanSquared ? "sq" : "abs");
  }
};

class ResidueEngineParamTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(ResidueEngineParamTest, EngineMatchesNaive) {
  const EngineCase& p = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    DataMatrix m = RandomMatrix(p.rows, p.cols, p.density, seed * 100);
    Cluster c = RandomCluster(p.rows, p.cols, p.rows / 2 + 1, p.cols / 2 + 1,
                              seed * 100 + 1);
    ClusterWorkspace ws(m, c);
    ResidueEngine engine(p.norm);
    EXPECT_NEAR(engine.Residue(ws), ClusterResidueNaive(m, c, p.norm),
                1e-9);
    // The cached read is bit-identical to the same cluster scanned in a
    // freshly built workspace.
    ClusterWorkspace fresh(m, c);
    EXPECT_EQ(engine.Residue(ws), engine.Residue(fresh));
  }
}

TEST_P(ResidueEngineParamTest, VirtualRowToggleMatchesRealToggle) {
  const EngineCase& p = GetParam();
  ResidueEngine engine(p.norm);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    DataMatrix m = RandomMatrix(p.rows, p.cols, p.density, seed * 200);
    Cluster c = RandomCluster(p.rows, p.cols, p.rows / 2 + 1, p.cols / 2 + 1,
                              seed * 200 + 1);
    ClusterWorkspace ws(m, c);
    for (size_t i = 0; i < p.rows; ++i) {
      double predicted = engine.ResidueAfterToggleRow(ws, i);
      ClusterWorkspace toggled = ws;
      toggled.ToggleRow(i);
      double actual = engine.Residue(toggled);
      EXPECT_NEAR(predicted, actual, 1e-9)
          << "row " << i << " seed " << seed;
    }
  }
}

TEST_P(ResidueEngineParamTest, VirtualColToggleMatchesRealToggle) {
  const EngineCase& p = GetParam();
  ResidueEngine engine(p.norm);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    DataMatrix m = RandomMatrix(p.rows, p.cols, p.density, seed * 300);
    Cluster c = RandomCluster(p.rows, p.cols, p.rows / 2 + 1, p.cols / 2 + 1,
                              seed * 300 + 1);
    ClusterWorkspace ws(m, c);
    for (size_t j = 0; j < p.cols; ++j) {
      double predicted = engine.ResidueAfterToggleCol(ws, j);
      ClusterWorkspace toggled = ws;
      toggled.ToggleCol(j);
      double actual = engine.Residue(toggled);
      EXPECT_NEAR(predicted, actual, 1e-9)
          << "col " << j << " seed " << seed;
    }
  }
}

TEST_P(ResidueEngineParamTest, GainEqualsObservedResidueDelta) {
  const EngineCase& p = GetParam();
  ResidueEngine engine(p.norm);
  DataMatrix m = RandomMatrix(p.rows, p.cols, p.density, 999);
  Cluster c = RandomCluster(p.rows, p.cols, p.rows / 2 + 1, p.cols / 2 + 1,
                            998);
  ClusterWorkspace ws(m, c);
  double before = engine.Residue(ws);
  for (size_t i = 0; i < p.rows; ++i) {
    double gain = engine.GainToggleRow(ws, i);
    ClusterWorkspace toggled = ws;
    toggled.ToggleRow(i);
    EXPECT_NEAR(gain, before - engine.Residue(toggled), 1e-9);
  }
  for (size_t j = 0; j < p.cols; ++j) {
    double gain = engine.GainToggleCol(ws, j);
    ClusterWorkspace toggled = ws;
    toggled.ToggleCol(j);
    EXPECT_NEAR(gain, before - engine.Residue(toggled), 1e-9);
  }
}

TEST_P(ResidueEngineParamTest, VirtualToggleReportsNewVolume) {
  const EngineCase& p = GetParam();
  ResidueEngine engine(p.norm);
  DataMatrix m = RandomMatrix(p.rows, p.cols, p.density, 777);
  Cluster c = RandomCluster(p.rows, p.cols, p.rows / 2 + 1, p.cols / 2 + 1,
                            776);
  ClusterWorkspace ws(m, c);
  for (size_t i = 0; i < p.rows; ++i) {
    size_t predicted_volume = 0;
    engine.ResidueAfterToggleRow(ws, i, &predicted_volume);
    ClusterWorkspace toggled = ws;
    toggled.ToggleRow(i);
    EXPECT_EQ(predicted_volume, toggled.stats().Volume()) << "row " << i;
  }
  for (size_t j = 0; j < p.cols; ++j) {
    size_t predicted_volume = 0;
    engine.ResidueAfterToggleCol(ws, j, &predicted_volume);
    ClusterWorkspace toggled = ws;
    toggled.ToggleCol(j);
    EXPECT_EQ(predicted_volume, toggled.stats().Volume()) << "col " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ResidueEngineParamTest,
    ::testing::Values(
        EngineCase{6, 6, 1.0, ResidueNorm::kMeanAbsolute},
        EngineCase{12, 7, 1.0, ResidueNorm::kMeanAbsolute},
        EngineCase{12, 7, 0.6, ResidueNorm::kMeanAbsolute},
        EngineCase{20, 5, 0.4, ResidueNorm::kMeanAbsolute},
        EngineCase{6, 6, 1.0, ResidueNorm::kMeanSquared},
        EngineCase{12, 7, 0.6, ResidueNorm::kMeanSquared},
        EngineCase{5, 20, 0.8, ResidueNorm::kMeanSquared}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

TEST(ResidueEngineTest, ToggleToEmptyClusterIsZero) {
  DataMatrix m = DataMatrix::FromRows({{1, 2}, {3, 4}});
  ClusterWorkspace ws(m, Cluster::FromMembers(2, 2, {0}, {0, 1}));
  ResidueEngine engine;
  // Removing the only row empties the cluster: residue 0 by convention.
  EXPECT_DOUBLE_EQ(engine.ResidueAfterToggleRow(ws, 0), 0.0);
}

TEST(ResidueEngineTest, AddRowWithAllMissingEntriesKeepsResidue) {
  DataMatrix m = DataMatrix::FromOptionalRows({
      {1.0, 2.0},
      {3.0, 4.0},
      {std::nullopt, std::nullopt},
  });
  ClusterWorkspace ws(m, Cluster::FromMembers(3, 2, {0, 1}, {0, 1}));
  ResidueEngine engine;
  double before = engine.Residue(ws);
  // Row 2 contributes no specified entries; residue must not change.
  EXPECT_NEAR(engine.ResidueAfterToggleRow(ws, 2), before, 1e-12);
}

}  // namespace
}  // namespace deltaclus
