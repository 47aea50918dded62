// Parameterized property sweeps: the core invariants checked across a
// grid of matrix shapes, densities, and configurations. Each TEST_P
// asserts one invariant; the INSTANTIATE block sweeps the parameter
// space.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/cluster_stats.h"
#include "src/core/cluster_tools.h"
#include "src/core/cluster_workspace.h"
#include "src/core/floc.h"
#include "src/core/residue.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"

namespace deltaclus {
namespace {

struct SweepCase {
  size_t rows;
  size_t cols;
  double density;
  uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
    return os << c.rows << "x" << c.cols << "_d"
              << static_cast<int>(c.density * 100) << "_s" << c.seed;
  }
};

DataMatrix MakeMatrix(const SweepCase& p) {
  Rng rng(p.seed);
  DataMatrix m(p.rows, p.cols);
  for (size_t i = 0; i < p.rows; ++i) {
    for (size_t j = 0; j < p.cols; ++j) {
      if (rng.Bernoulli(p.density)) m.Set(i, j, rng.Uniform(-100, 100));
    }
  }
  return m;
}

Cluster MakeCluster(const SweepCase& p, uint64_t salt) {
  Rng rng(p.seed * 1000 + salt);
  size_t n_rows = 2 + rng.UniformIndex(std::max<size_t>(p.rows / 2, 1));
  size_t n_cols = 2 + rng.UniformIndex(std::max<size_t>(p.cols / 2, 1));
  return Cluster::FromMembers(p.rows, p.cols,
                              rng.SampleWithoutReplacement(p.rows, n_rows),
                              rng.SampleWithoutReplacement(p.cols, n_cols));
}

class PropertySweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PropertySweepTest, StatsMatchNaiveAfterToggleStream) {
  const SweepCase& p = GetParam();
  DataMatrix m = MakeMatrix(p);
  ClusterView view(m, MakeCluster(p, 1));
  Rng rng(p.seed + 7);
  for (int step = 0; step < 120; ++step) {
    if (rng.Bernoulli(0.5)) {
      view.ToggleRow(rng.UniformIndex(p.rows));
    } else {
      view.ToggleCol(rng.UniformIndex(p.cols));
    }
  }
  ClusterStats reference;
  reference.Build(m, view.cluster());
  EXPECT_EQ(view.stats().Volume(), reference.Volume());
  EXPECT_NEAR(view.stats().Total(), reference.Total(), 1e-6);
}

TEST_P(PropertySweepTest, EngineResidueMatchesNaive) {
  const SweepCase& p = GetParam();
  DataMatrix m = MakeMatrix(p);
  for (uint64_t salt = 0; salt < 3; ++salt) {
    Cluster c = MakeCluster(p, salt);
    ClusterWorkspace ws(m, c);
    ResidueEngine engine;
    EXPECT_NEAR(engine.Residue(ws), ClusterResidueNaive(m, c), 1e-9);
  }
}

TEST_P(PropertySweepTest, VirtualtogglesMatchRealOnes) {
  const SweepCase& p = GetParam();
  DataMatrix m = MakeMatrix(p);
  ClusterWorkspace ws(m, MakeCluster(p, 2));
  ResidueEngine engine;
  Rng rng(p.seed + 13);
  for (int rep = 0; rep < 20; ++rep) {
    if (rng.Bernoulli(0.5)) {
      size_t i = rng.UniformIndex(p.rows);
      double predicted = engine.ResidueAfterToggleRow(ws, i);
      ClusterWorkspace toggled = ws;
      toggled.ToggleRow(i);
      EXPECT_NEAR(predicted, engine.Residue(toggled), 1e-9);
    } else {
      size_t j = rng.UniformIndex(p.cols);
      double predicted = engine.ResidueAfterToggleCol(ws, j);
      ClusterWorkspace toggled = ws;
      toggled.ToggleCol(j);
      EXPECT_NEAR(predicted, engine.Residue(toggled), 1e-9);
    }
  }
}

TEST_P(PropertySweepTest, ResidueTransposeInvariance) {
  const SweepCase& p = GetParam();
  DataMatrix m = MakeMatrix(p);
  DataMatrix t = Transposed(m);
  for (uint64_t salt = 0; salt < 3; ++salt) {
    Cluster c = MakeCluster(p, salt);
    EXPECT_NEAR(ClusterResidueNaive(m, c),
                ClusterResidueNaive(t, TransposedCluster(c)), 1e-9);
  }
}

TEST_P(PropertySweepTest, ResidueBiasInvariance) {
  const SweepCase& p = GetParam();
  // On a fully-specified submatrix, adding per-row and per-column offsets
  // leaves every entry residue unchanged: the offsets cancel against the
  // bases exactly. With missing entries each base averages the offsets
  // over its own specified subset, so the cancellation acquires
  // mask-dependent correction terms (docs/MODEL.md, "missing-value
  // caveat"):
  //   r'_ij = r_ij - mean_{j' in J_i} b_{j'} - mean_{i' in I_j} a_{i'}
  //               + mean_{(i,j) in spec(I,J)} (a_i + b_j)
  // where a_i / b_j are the row/column offsets, J_i is row i's specified
  // cluster columns, and I_j is column j's specified cluster rows. The
  // expected residue below applies that correction analytically, so the
  // invariant is checked across the full density grid; for density 1 the
  // corrections vanish and the check degenerates to exact invariance.
  DataMatrix m = MakeMatrix(p);
  Cluster c = MakeCluster(p, 3);
  double before = ClusterResidueNaive(m, c);
  Rng rng(p.seed + 17);
  std::vector<double> row_off(p.rows);
  std::vector<double> col_off(p.cols);
  for (size_t i = 0; i < p.rows; ++i) row_off[i] = rng.Uniform(-50, 50);
  for (size_t j = 0; j < p.cols; ++j) col_off[j] = rng.Uniform(-50, 50);
  DataMatrix biased = m;
  for (size_t i = 0; i < p.rows; ++i) {
    for (size_t j = 0; j < p.cols; ++j) {
      if (m.IsSpecified(i, j)) {
        biased.Set(i, j, m.Value(i, j) + row_off[i] + col_off[j]);
      }
    }
  }

  // Mask-aware offset means over the cluster's specified entries.
  std::vector<double> mean_col_off(p.rows, 0.0);  // mean of b over J_i
  std::vector<double> mean_row_off(p.cols, 0.0);  // mean of a over I_j
  double mean_both = 0.0;
  size_t volume = 0;
  for (uint32_t i : c.row_ids()) {
    double sum = 0.0;
    size_t cnt = 0;
    for (uint32_t j : c.col_ids()) {
      if (!m.IsSpecified(i, j)) continue;
      sum += col_off[j];
      ++cnt;
      mean_both += row_off[i] + col_off[j];
      ++volume;
    }
    if (cnt > 0) mean_col_off[i] = sum / cnt;
  }
  for (uint32_t j : c.col_ids()) {
    double sum = 0.0;
    size_t cnt = 0;
    for (uint32_t i : c.row_ids()) {
      if (!m.IsSpecified(i, j)) continue;
      sum += row_off[i];
      ++cnt;
    }
    if (cnt > 0) mean_row_off[j] = sum / cnt;
  }
  if (volume == 0) {
    EXPECT_EQ(ClusterResidueNaive(biased, c), 0.0);
    return;
  }
  mean_both /= volume;

  double acc = 0.0;
  for (uint32_t i : c.row_ids()) {
    for (uint32_t j : c.col_ids()) {
      if (!m.IsSpecified(i, j)) continue;
      double adjusted = EntryResidueNaive(m, c, i, j) - mean_col_off[i] -
                        mean_row_off[j] + mean_both;
      acc += std::abs(adjusted);
    }
  }
  double expected = acc / volume;

  EXPECT_NEAR(ClusterResidueNaive(biased, c), expected, 1e-8);
  if (p.density == 1.0) {
    // Dense grid: the corrections vanish and the residue is invariant.
    EXPECT_NEAR(ClusterResidueNaive(biased, c), before, 1e-8);
  }
}

TEST_P(PropertySweepTest, FlocIsDeterministicAndRespectsK) {
  const SweepCase& p = GetParam();
  DataMatrix m = MakeMatrix(p);
  FlocConfig config;
  config.num_clusters = 4;
  config.max_iterations = 8;
  config.rng_seed = p.seed;
  FlocResult a = Floc(config).Run(m);
  FlocResult b = Floc(config).Run(m);
  ASSERT_EQ(a.clusters.size(), 4u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(a.clusters[c] == b.clusters[c]);
  }
}

TEST_P(PropertySweepTest, CoveredEntriesConsistentWithAggregateVolume) {
  const SweepCase& p = GetParam();
  DataMatrix m = MakeMatrix(p);
  Cluster c = MakeCluster(p, 4);
  // For a single cluster, covered-entry count == aggregate volume ==
  // stats volume.
  std::vector<uint8_t> covered = CoveredEntries(m, {c});
  size_t covered_count = 0;
  for (uint8_t v : covered) covered_count += v;
  ClusterView view(m, c);
  EXPECT_EQ(covered_count, view.stats().Volume());
  EXPECT_EQ(AggregateVolume(m, {c}), view.stats().Volume());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PropertySweepTest,
    ::testing::Values(SweepCase{8, 8, 1.0, 1}, SweepCase{8, 8, 0.5, 2},
                      SweepCase{30, 10, 1.0, 3}, SweepCase{30, 10, 0.7, 4},
                      SweepCase{10, 30, 0.7, 5}, SweepCase{10, 30, 0.3, 6},
                      SweepCase{50, 20, 0.9, 7}, SweepCase{50, 20, 0.2, 8},
                      SweepCase{5, 40, 0.8, 9}, SweepCase{40, 5, 0.8, 10}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

}  // namespace
}  // namespace deltaclus
