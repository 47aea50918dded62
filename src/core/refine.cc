// The refinement stage run after the move phase converges
// (FlocConfig::refine_passes): RefineSweep's cluster-centric toggles and
// ReanchorCluster's wholesale re-picks. The session (src/session/)
// drives them; see ALGORITHM.md "Phase 3".
#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/audit.h"
#include "src/core/floc_metrics.h"
#include "src/core/floc_phases.h"
#include "src/obs/trace.h"

namespace deltaclus {

size_t RefineSweep(const FlocConfig& config, const DataMatrix& matrix,
                   std::vector<ClusterWorkspace>& views,
                   std::vector<double>& scores, ConstraintTracker& tracker,
                   GainMemo* memo, bool audit_occupancy) {
  DC_TRACE_SPAN("floc/refine_sweep");
  size_t num_rows = matrix.rows();
  size_t total = num_rows + matrix.cols();
  // The sweep's counters are tallied locally and published once at the
  // end, like the apply sweep's.
  SweepTally tally;
  ResidueEngine engine(ResidueNorm::kMeanAbsolute, &tally.scan);
  GainContext ctx{&views, &scores, &tracker, config.target_residue,
                  /*blocked=*/nullptr, memo, config.audit, &tally};
  size_t applied = 0;

  struct Candidate {
    double gain;
    bool is_row;
    size_t index;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(total);
  std::vector<std::optional<double>> gains(total);

  for (size_t c = 0; c < views.size(); ++c) {
    // Rank every candidate toggle for this cluster by its score gain...
    candidates.clear();
    ClusterToggleGains(c, num_rows, 0, total, ctx, engine, gains.data(),
                       /*stride=*/1);
    for (size_t t = 0; t < total; ++t) {
      if (gains[t] && *gains[t] > kMinImprovement) {
        bool is_row = t < num_rows;
        candidates.push_back({*gains[t], is_row, is_row ? t : t - num_rows});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.gain > b.gain;
              });

    // ...then apply them best-first, re-validating each against the
    // cluster's current state (earlier toggles shift later gains).
    for (const Candidate& cand : candidates) {
      std::optional<double> gain =
          ToggleGain(cand.is_row, cand.index, c, ctx, engine);
      if (!gain || *gain <= kMinImprovement) continue;
      if (cand.is_row) {
        views[c].ToggleRow(cand.index);
        tracker.OnRowToggled(views, c, cand.index);
      } else {
        views[c].ToggleCol(cand.index);
        tracker.OnColToggled(views, c, cand.index);
      }
      if (config.audit) {
        AuditClusterWorkspace(views[c], config.constraints,
                              ResidueNorm::kMeanAbsolute,
                              kDefaultAuditTolerance, "RefineSweep",
                              audit_occupancy);
      }
      scores[c] = ObjectiveScore(engine.Residue(views[c]),
                                 views[c].stats().Volume(),
                                 config.target_residue);
      ++applied;
    }
  }
  tally.Flush();
  FlocMetrics::Get().refine_toggles->Inc(applied);
  return applied;
}

bool ReanchorCluster(const FlocConfig& config, const DataMatrix& matrix,
                     std::vector<ClusterWorkspace>& views, size_t c,
                     double* score, bool audit_occupancy) {
  ClusterWorkspace& view = views[c];
  const double threshold = config.target_residue;
  if (threshold <= 0.0) return false;
  size_t num_rows = matrix.rows();
  size_t num_cols = matrix.cols();
  const Constraints& cons = config.constraints;
  ResidueEngine engine(ResidueNorm::kMeanAbsolute);

  Cluster candidate = view.cluster();
  for (int round = 0; round < 2; ++round) {
    // --- Column pick, holding the candidate's rows. ---
    ClusterView tmp(matrix, candidate);
    const auto& rows = tmp.cluster().row_ids();
    if (rows.empty()) return false;
    // Score each column by the *median* absolute deviation (around the
    // median) of the row-centered values d_ij - d_iJ across the member
    // rows: ~0 on a column coherent with the majority of the rows,
    // ~background spread otherwise. The median makes the score robust to
    // the very junk rows the reassignment is trying to shed -- a mean
    // would let two bad rows disqualify a perfectly coherent column.
    std::vector<std::pair<double, size_t>> col_scores;
    col_scores.reserve(num_cols);
    std::vector<double> centered;
    centered.reserve(rows.size());
    for (size_t j = 0; j < num_cols; ++j) {
      // Column-direction gather: stride-1 on the column-major mirror.
      const double* col_values = matrix.ColValues(j).data();
      const uint8_t* col_mask = matrix.ColMask(j).data();
      centered.clear();
      for (uint32_t i : rows) {
        if (!col_mask[i]) continue;
        centered.push_back(col_values[i] - tmp.stats().RowBase(i));
      }
      if (centered.empty() ||
          (cons.alpha > 0.0 &&
           static_cast<double>(centered.size()) < cons.alpha * rows.size())) {
        continue;
      }
      auto mid = centered.begin() + centered.size() / 2;
      std::nth_element(centered.begin(), mid, centered.end());
      double center = *mid;
      for (double& v : centered) v = std::abs(v - center);
      std::nth_element(centered.begin(), mid, centered.end());
      col_scores.emplace_back(*mid, j);
    }
    std::sort(col_scores.begin(), col_scores.end());
    std::vector<size_t> new_cols;
    for (const auto& [s, j] : col_scores) {
      if (new_cols.size() >= cons.max_cols) break;
      if (s <= threshold || new_cols.size() < cons.min_cols) {
        new_cols.push_back(j);
      } else {
        break;
      }
    }
    if (new_cols.size() < 2) return false;
    candidate = Cluster::FromMembers(
        num_rows, num_cols,
        std::vector<size_t>(rows.begin(), rows.end()), new_cols);

    // --- Row pick, holding the candidate's columns. ---
    ClusterView tmp2(matrix, candidate);
    double cluster_base = tmp2.stats().ClusterBase();
    std::vector<std::pair<double, size_t>> row_scores;
    row_scores.reserve(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      double row_sum = 0.0;
      size_t row_cnt = 0;
      ClusterStats::RowSumOverCols(matrix, candidate.col_ids(), i, &row_sum,
                                   &row_cnt);
      if (row_cnt == 0 ||
          (cons.alpha > 0.0 && static_cast<double>(row_cnt) <
                                   cons.alpha * candidate.NumCols())) {
        continue;
      }
      double row_base = row_sum / row_cnt;
      double dev = 0.0;
      const double* row_values = matrix.RowValues(i).data();
      const uint8_t* row_mask = matrix.RowMask(i).data();
      for (uint32_t j : candidate.col_ids()) {
        if (!row_mask[j]) continue;
        dev += std::abs(row_values[j] - row_base - tmp2.stats().ColBase(j) +
                        cluster_base);
      }
      row_scores.emplace_back(dev / row_cnt, i);
    }
    std::sort(row_scores.begin(), row_scores.end());
    std::vector<size_t> new_rows;
    for (const auto& [s, i] : row_scores) {
      if (new_rows.size() >= cons.max_rows) break;
      if (s <= threshold || new_rows.size() < cons.min_rows) {
        new_rows.push_back(i);
      } else {
        break;
      }
    }
    if (new_rows.size() < 2) return false;
    candidate = Cluster::FromMembers(
        num_rows, num_cols, new_rows,
        std::vector<size_t>(candidate.col_ids().begin(),
                            candidate.col_ids().end()));
  }

  if (candidate == view.cluster()) return false;
  ClusterWorkspace cand_ws(matrix, candidate);
  if (!SatisfiesUnaryConstraints(cand_ws.view(), cons)) return false;
  if (cons.overlap_active()) {
    size_t cand_size = candidate.NumRows() * candidate.NumCols();
    for (size_t d = 0; d < views.size(); ++d) {
      if (d == c) continue;
      const Cluster& other = views[d].cluster();
      size_t shared =
          candidate.SharedRows(other) * candidate.SharedCols(other);
      size_t smaller =
          std::min(cand_size, other.NumRows() * other.NumCols());
      if (smaller > 0 && static_cast<double>(shared) >
                             cons.max_overlap * static_cast<double>(smaller)) {
        return false;
      }
    }
  }
  double cand_score = ObjectiveScore(engine.Residue(cand_ws),
                                     cand_ws.stats().Volume(),
                                     config.target_residue);
  if (cand_score >= *score - kMinImprovement) return false;
  // The candidate's workspace already holds freshly built stats, its
  // cached residue and its pane; adopting it equals Reset(candidate).
  view = std::move(cand_ws);
  if (config.audit) {
    AuditClusterWorkspace(view, cons, ResidueNorm::kMeanAbsolute,
                          kDefaultAuditTolerance, "ReanchorCluster",
                          audit_occupancy);
  }
  *score = cand_score;
  return true;
}

}  // namespace deltaclus
