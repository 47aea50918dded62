#include "src/core/cluster_tools.h"

#include <algorithm>
#include <tuple>

#include "src/core/cluster_workspace.h"
#include "src/eval/metrics.h"

namespace deltaclus {

std::vector<ClusterSummary> SummarizeClusters(
    const DataMatrix& matrix, const std::vector<Cluster>& clusters) {
  std::vector<ClusterSummary> out;
  out.reserve(clusters.size());
  ResidueEngine engine;
  for (size_t c = 0; c < clusters.size(); ++c) {
    const Cluster& cluster = clusters[c];
    ClusterWorkspace ws(matrix, cluster);
    ClusterSummary s;
    s.index = c;
    s.rows = cluster.NumRows();
    s.cols = cluster.NumCols();
    s.volume = ws.stats().Volume();
    size_t grid = s.rows * s.cols;
    s.occupancy = grid == 0 ? 0.0 : static_cast<double>(s.volume) / grid;
    s.residue = engine.Residue(ws);
    s.diameter = ClusterDiameter(matrix, cluster);
    out.push_back(s);
  }
  return out;
}

double OverlapFraction(const Cluster& a, const Cluster& b) {
  size_t shared = a.SharedRows(b) * a.SharedCols(b);
  size_t smaller =
      std::min(a.NumRows() * a.NumCols(), b.NumRows() * b.NumCols());
  if (smaller == 0) return 0.0;
  return static_cast<double>(shared) / static_cast<double>(smaller);
}

std::vector<Cluster> RankByResidue(const DataMatrix& matrix,
                                   const std::vector<Cluster>& clusters) {
  ResidueEngine engine;
  std::vector<std::tuple<double, long long, size_t>> keyed;
  keyed.reserve(clusters.size());
  for (size_t c = 0; c < clusters.size(); ++c) {
    ClusterWorkspace ws(matrix, clusters[c]);
    keyed.emplace_back(engine.Residue(ws),
                       -static_cast<long long>(ws.stats().Volume()), c);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<Cluster> out;
  out.reserve(clusters.size());
  for (const auto& [residue, neg_volume, index] : keyed) {
    out.push_back(clusters[index]);
  }
  return out;
}

std::vector<Cluster> DeduplicateClusters(const DataMatrix& matrix,
                                         const std::vector<Cluster>& clusters,
                                         double max_overlap) {
  std::vector<Cluster> ranked = RankByResidue(matrix, clusters);
  std::vector<Cluster> kept;
  for (Cluster& candidate : ranked) {
    bool duplicate = false;
    for (const Cluster& existing : kept) {
      if (OverlapFraction(candidate, existing) > max_overlap) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) kept.push_back(std::move(candidate));
  }
  return kept;
}

std::vector<Cluster> FilterClusters(const DataMatrix& matrix,
                                    const std::vector<Cluster>& clusters,
                                    double max_residue, size_t min_volume) {
  ResidueEngine engine;
  std::vector<Cluster> out;
  for (const Cluster& cluster : clusters) {
    ClusterWorkspace ws(matrix, cluster);
    if (ws.stats().Volume() < min_volume) continue;
    if (engine.Residue(ws) > max_residue) continue;
    out.push_back(cluster);
  }
  return out;
}

DataMatrix Transposed(const DataMatrix& matrix) {
  DataMatrix out(matrix.cols(), matrix.rows());
  for (size_t i = 0; i < matrix.rows(); ++i) {
    for (size_t j = 0; j < matrix.cols(); ++j) {
      if (matrix.IsSpecified(i, j)) out.Set(j, i, matrix.Value(i, j));
    }
  }
  return out;
}

Cluster TransposedCluster(const Cluster& cluster) {
  return Cluster::FromMembers(
      cluster.parent_cols(), cluster.parent_rows(),
      std::vector<size_t>(cluster.col_ids().begin(), cluster.col_ids().end()),
      std::vector<size_t>(cluster.row_ids().begin(),
                          cluster.row_ids().end()));
}

}  // namespace deltaclus
