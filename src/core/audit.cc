#include "src/core/audit.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace deltaclus {

namespace {

// Relative-or-absolute closeness: |a - b| within tol scaled by magnitude.
bool Near(double a, double b, double tolerance) {
  return std::abs(a - b) <=
         tolerance * (1.0 + std::max(std::abs(a), std::abs(b)));
}

}  // namespace

void AuditStatsMatchRecompute(const DataMatrix& m, const Cluster& c,
                              const ClusterStats& stats, double tolerance,
                              const char* context) {
  ClusterStats reference;
  reference.Build(m, c);

  DC_CHECK_EQ(stats.Volume(), reference.Volume())
      << context << ": incremental volume drifted from recompute";
  DC_CHECK(Near(stats.Total(), reference.Total(), tolerance))
      << context << ": incremental total " << stats.Total()
      << " drifted from recomputed " << reference.Total();
  DC_CHECK(Near(stats.ClusterBase(), reference.ClusterBase(), tolerance))
      << context << ": cluster base " << stats.ClusterBase()
      << " drifted from recomputed " << reference.ClusterBase();

  for (uint32_t i : c.row_ids()) {
    DC_CHECK_EQ(stats.RowCount(i), reference.RowCount(i))
        << context << ": row " << i << " count drifted";
    DC_CHECK(Near(stats.RowSum(i), reference.RowSum(i), tolerance))
        << context << ": row " << i << " sum " << stats.RowSum(i)
        << " drifted from recomputed " << reference.RowSum(i);
  }
  for (uint32_t j : c.col_ids()) {
    DC_CHECK_EQ(stats.ColCount(j), reference.ColCount(j))
        << context << ": column " << j << " count drifted";
    DC_CHECK(Near(stats.ColSum(j), reference.ColSum(j), tolerance))
        << context << ": column " << j << " sum " << stats.ColSum(j)
        << " drifted from recomputed " << reference.ColSum(j);
  }
}

bool OccupancySatisfied(const DataMatrix& m, const Cluster& c, double alpha) {
  if (alpha <= 0.0) return true;
  size_t cols = c.NumCols();
  size_t rows = c.NumRows();
  double sum = 0.0;
  size_t cnt = 0;
  for (uint32_t i : c.row_ids()) {
    ClusterStats::RowSumOverCols(m, c.col_ids(), i, &sum, &cnt);
    if (static_cast<double>(cnt) < alpha * cols) return false;
  }
  for (uint32_t j : c.col_ids()) {
    ClusterStats::ColSumOverRows(m, c.row_ids(), j, &sum, &cnt);
    if (static_cast<double>(cnt) < alpha * rows) return false;
  }
  return true;
}

void AuditOccupancy(const DataMatrix& m, const Cluster& c, double alpha,
                    const char* context) {
  if (alpha <= 0.0) return;
  size_t cols = c.NumCols();
  size_t rows = c.NumRows();
  double sum = 0.0;
  size_t cnt = 0;
  for (uint32_t i : c.row_ids()) {
    ClusterStats::RowSumOverCols(m, c.col_ids(), i, &sum, &cnt);
    DC_CHECK_GE(static_cast<double>(cnt), alpha * cols)
        << context << ": row " << i << " fell below alpha-occupancy (" << cnt
        << " specified of " << cols << " columns, alpha=" << alpha << ")";
  }
  for (uint32_t j : c.col_ids()) {
    ClusterStats::ColSumOverRows(m, c.row_ids(), j, &sum, &cnt);
    DC_CHECK_GE(static_cast<double>(cnt), alpha * rows)
        << context << ": column " << j << " fell below alpha-occupancy ("
        << cnt << " specified of " << rows << " rows, alpha=" << alpha << ")";
  }
}

void AuditClusterWorkspace(const ClusterWorkspace& ws,
                           const Constraints& constraints, ResidueNorm norm,
                           double tolerance, const char* context,
                           bool check_occupancy) {
  AuditStatsMatchRecompute(ws.matrix(), ws.cluster(), ws.stats(), tolerance,
                           context);

  ResidueEngine engine(norm);
  // A fresh workspace over the same cluster rebuilds its stats and pane
  // from scratch.
  ClusterWorkspace rebuilt(ws.matrix(), ws.cluster());
  double reference = engine.Residue(rebuilt);
  // A copy with its residue cache dropped rescans the live stats bits.
  ClusterWorkspace live = ws;
  live.InvalidateResidue();
  double fast = engine.Residue(live);
  DC_CHECK(Near(fast, reference, tolerance))
      << context << ": stats-backed residue " << fast
      << " drifted from from-scratch recompute " << reference;

  if (check_occupancy) {
    AuditOccupancy(ws.matrix(), ws.cluster(), constraints.alpha, context);
  }

  CachedNormTag tag = norm == ResidueNorm::kMeanAbsolute
                          ? CachedNormTag::kMeanAbsolute
                          : CachedNormTag::kMeanSquared;
  if (!ws.ResidueCached(tag)) return;

  // The cached quotient must match the from-scratch residue, and the
  // cached volume must match the live stats exactly (both are integer
  // entry counts over the same membership).
  DC_CHECK_EQ(ws.CachedResidueVolume(), ws.stats().Volume())
      << context << ": cached residue volume went stale";
  size_t volume = ws.CachedResidueVolume();
  double cached =
      volume == 0 ? 0.0 : ws.CachedResidueNumerator() / volume;
  DC_CHECK(Near(cached, reference, tolerance))
      << context << ": cached residue " << cached
      << " drifted from from-scratch recompute " << reference
      << " (stale cache not invalidated by a membership toggle?)";
}

}  // namespace deltaclus
