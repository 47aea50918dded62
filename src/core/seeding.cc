#include "src/core/seeding.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/core/cluster_stats.h"
#include "src/core/constraints.h"
#include "src/engine/thread_pool.h"

namespace deltaclus {

namespace {

// Tops `cluster` up to at least min_rows members by adding uniformly
// random non-member rows (similarly for columns via the col variant).
void EnsureMinRows(size_t parent_rows, size_t min_rows, Cluster* cluster,
                   Rng& rng) {
  while (cluster->NumRows() < std::min(min_rows, parent_rows)) {
    size_t i = rng.UniformIndex(parent_rows);
    if (!cluster->HasRow(i)) cluster->AddRow(i);
  }
}

void EnsureMinCols(size_t parent_cols, size_t min_cols, Cluster* cluster,
                   Rng& rng) {
  while (cluster->NumCols() < std::min(min_cols, parent_cols)) {
    size_t j = rng.UniformIndex(parent_cols);
    if (!cluster->HasCol(j)) cluster->AddCol(j);
  }
}

}  // namespace

std::vector<Cluster> GenerateSeeds(const DataMatrix& matrix,
                                   const SeedingConfig& config,
                                   size_t num_clusters, Rng& rng) {
  size_t rows = matrix.rows();
  size_t cols = matrix.cols();
  double base_volume =
      config.row_probability * rows * config.col_probability * cols;

  std::vector<Cluster> seeds;
  seeds.reserve(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    double p_row = config.row_probability;
    double p_col = config.col_probability;
    if (config.mixed_volumes) {
      double mean =
          config.volume_mean > 0 ? config.volume_mean : base_volume;
      double target = rng.ErlangMeanVar(mean, config.volume_variance);
      target = std::max(target, 4.0);  // at least a 2x2 seed in expectation
      // Scale both probabilities by the same factor so the seed's
      // row:column aspect ratio is preserved while its expected volume
      // (p_row * s) * rows * (p_col * s) * cols equals `target`.
      double scale = base_volume > 0 ? std::sqrt(target / base_volume) : 1.0;
      p_row = std::min(1.0, p_row * scale);
      p_col = std::min(1.0, p_col * scale);
    }

    Cluster cluster(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      if (rng.Bernoulli(p_row)) cluster.AddRow(i);
    }
    for (size_t j = 0; j < cols; ++j) {
      if (rng.Bernoulli(p_col)) cluster.AddCol(j);
    }
    EnsureMinRows(rows, kMinSeedSide, &cluster, rng);
    EnsureMinCols(cols, kMinSeedSide, &cluster, rng);
    seeds.push_back(std::move(cluster));
  }
  return seeds;
}

void RepairOccupancy(const DataMatrix& matrix, double alpha,
                     Cluster* cluster) {
  if (alpha <= 0.0) return;
  ClusterStats stats;
  stats.Build(matrix, *cluster);

  // Iteratively drop the worst-occupancy violator. Dropping a row can only
  // lower column counts (and vice versa), so repeat until stable. Each
  // pass removes at least one member, so this terminates.
  bool changed = true;
  while (changed && cluster->NumRows() > 0 && cluster->NumCols() > 0) {
    changed = false;
    size_t num_rows = cluster->NumRows();
    size_t num_cols = cluster->NumCols();

    // Find the most-violating row and column.
    double worst_row_occ = 1.0;
    size_t worst_row = 0;
    bool row_violates = false;
    for (uint32_t i : cluster->row_ids()) {
      double occ = static_cast<double>(stats.RowCount(i)) / num_cols;
      if (occ < alpha && (!row_violates || occ < worst_row_occ)) {
        worst_row_occ = occ;
        worst_row = i;
        row_violates = true;
      }
    }
    double worst_col_occ = 1.0;
    size_t worst_col = 0;
    bool col_violates = false;
    for (uint32_t j : cluster->col_ids()) {
      double occ = static_cast<double>(stats.ColCount(j)) / num_rows;
      if (occ < alpha && (!col_violates || occ < worst_col_occ)) {
        worst_col_occ = occ;
        worst_col = j;
        col_violates = true;
      }
    }

    if (row_violates && (!col_violates || worst_row_occ <= worst_col_occ)) {
      stats.RemoveRow(matrix, *cluster, worst_row);
      cluster->RemoveRow(worst_row);
      changed = true;
    } else if (col_violates) {
      stats.RemoveCol(matrix, *cluster, worst_col);
      cluster->RemoveCol(worst_col);
      changed = true;
    }
  }
}

namespace {

// Builds a seed around the dense neighbourhood of a random specified
// entry: the rows specified on a random column, the columns those rows
// fill best, and the rows filling those columns best. On sparse data
// (e.g. 6%-dense ratings) Bernoulli seeds essentially never satisfy an
// occupancy threshold like alpha = 0.6, but dense cores -- where
// coherent structure lives -- do.
bool DenseCoreSeed(const DataMatrix& matrix, const Constraints& constraints,
                   Rng& rng, Cluster* out, engine::ThreadPool* pool) {
  const size_t rows = matrix.rows();
  const size_t cols = matrix.cols();
  if (rows == 0 || cols == 0) return false;
  size_t rows_target =
      std::min(std::max<size_t>(2 * constraints.min_rows, 8),
               constraints.max_rows);
  size_t cols_target =
      std::min(std::max<size_t>(2 * constraints.min_cols, 8),
               constraints.max_cols);

  for (int attempt = 0; attempt < 16; ++attempt) {
    // Anchor column: a random column with at least min_rows entries.
    // Column scans here use the column-major mask plane (stride-1).
    size_t anchor = rng.UniformIndex(cols);
    const uint8_t* anchor_mask = matrix.ColMask(anchor).data();
    std::vector<size_t> anchor_rows;
    for (size_t i = 0; i < rows; ++i) {
      if (anchor_mask[i]) anchor_rows.push_back(i);
    }
    if (anchor_rows.size() < constraints.min_rows) continue;
    if (anchor_rows.size() > 400) {
      rng.Shuffle(anchor_rows);
      anchor_rows.resize(400);
    }

    // Columns best covered by the anchor rows. The per-column counts are
    // read-only over the column-major mask plane and land in disjoint
    // slots, so the scan shards over the pool; the ranking below stays
    // serial (and thus identical at any thread count).
    std::vector<size_t> coverage(cols, 0);
    engine::ParallelApply(pool, cols, [&](size_t begin, size_t end, size_t) {
      for (size_t j = begin; j < end; ++j) {
        const uint8_t* col_mask = matrix.ColMask(j).data();
        size_t count = 0;
        for (size_t i : anchor_rows) count += col_mask[i];
        coverage[j] = count;
      }
    });
    std::vector<std::pair<size_t, size_t>> col_counts;  // (-count, col)
    for (size_t j = 0; j < cols; ++j) {
      if (coverage[j] > 0) col_counts.emplace_back(coverage[j], j);
    }
    if (col_counts.size() < constraints.min_cols) continue;
    std::sort(col_counts.rbegin(), col_counts.rend());
    std::vector<size_t> picked_cols;
    for (size_t t = 0; t < col_counts.size() && picked_cols.size() < cols_target;
         ++t) {
      picked_cols.push_back(col_counts[t].second);
    }

    // Rows best covered on the picked columns.
    std::vector<std::pair<size_t, size_t>> row_counts;
    for (size_t i : anchor_rows) {
      size_t count = 0;
      for (size_t j : picked_cols) count += matrix.IsSpecified(i, j);
      row_counts.emplace_back(count, i);
    }
    std::sort(row_counts.rbegin(), row_counts.rend());
    std::vector<size_t> picked_rows;
    for (size_t t = 0; t < row_counts.size() && picked_rows.size() < rows_target;
         ++t) {
      picked_rows.push_back(row_counts[t].second);
    }

    Cluster candidate =
        Cluster::FromMembers(rows, cols, picked_rows, picked_cols);
    RepairOccupancy(matrix, constraints.alpha, &candidate);
    if (candidate.NumRows() < constraints.min_rows ||
        candidate.NumCols() < constraints.min_cols) {
      continue;
    }
    ClusterView view(matrix, candidate);
    if (SatisfiesUnaryConstraints(view, constraints)) {
      *out = std::move(candidate);
      return true;
    }
  }
  return false;
}

}  // namespace

bool RepairSeed(const DataMatrix& matrix, const Constraints& constraints,
                Cluster* cluster, Rng& rng, engine::ThreadPool* pool) {
  const size_t rows = matrix.rows();
  const size_t cols = matrix.cols();

  for (int attempt = 0; attempt < 64; ++attempt) {
    // Occupancy first: it only shrinks the cluster.
    if (constraints.alpha > 0.0) {
      RepairOccupancy(matrix, constraints.alpha, cluster);
    }

    // Trim to maxima (random victims).
    while (cluster->NumRows() > constraints.max_rows) {
      cluster->RemoveRow(
          cluster->row_ids()[rng.UniformIndex(cluster->NumRows())]);
    }
    while (cluster->NumCols() > constraints.max_cols) {
      cluster->RemoveCol(
          cluster->col_ids()[rng.UniformIndex(cluster->NumCols())]);
    }

    // Top up to minima with random non-members.
    size_t min_rows = std::min(constraints.min_rows, rows);
    size_t min_cols = std::min(constraints.min_cols, cols);
    while (cluster->NumRows() < min_rows) {
      size_t i = rng.UniformIndex(rows);
      if (!cluster->HasRow(i)) cluster->AddRow(i);
    }
    while (cluster->NumCols() < min_cols) {
      size_t j = rng.UniformIndex(cols);
      if (!cluster->HasCol(j)) cluster->AddCol(j);
    }

    ClusterView view(matrix, *cluster);

    // Volume: grow with random rows (then columns) until min_volume, trim
    // random rows while above max_volume.
    size_t guard = 4 * (rows + cols);
    while (view.stats().Volume() < constraints.min_volume && guard-- > 0) {
      if (view.cluster().NumRows() < rows && (guard % 2 == 0)) {
        size_t i = rng.UniformIndex(rows);
        if (!view.cluster().HasRow(i)) view.ToggleRow(i);
      } else if (view.cluster().NumCols() < cols) {
        size_t j = rng.UniformIndex(cols);
        if (!view.cluster().HasCol(j)) view.ToggleCol(j);
      } else if (view.cluster().NumRows() >= rows) {
        break;  // whole matrix included; cannot grow further
      }
    }
    while (view.stats().Volume() > constraints.max_volume &&
           view.cluster().NumRows() > constraints.min_rows) {
      view.ToggleRow(
          view.cluster().row_ids()[rng.UniformIndex(view.cluster().NumRows())]);
    }
    *cluster = view.cluster();

    ClusterView check(matrix, *cluster);
    if (SatisfiesUnaryConstraints(check, constraints)) return true;
  }
  // Random growth could not reach compliance (typical for occupancy
  // thresholds on sparse matrices): fall back to seeding around a dense
  // core.
  return DenseCoreSeed(matrix, constraints, rng, cluster, pool);
}

}  // namespace deltaclus
