// Floc's Phase-2 driver loop used to live here as one 400-line method;
// it is now the MiningSession state machine (src/session/), with
// Run()/RunWithSeeds() reduced to thin drivers in
// src/session/floc_driver.cc. This file keeps what the session layer
// calls *back* into: config validation, the refinement phase
// (RefineSweep / ReanchorCluster), and the audit/pool plumbing.
#include "src/core/floc.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "src/core/audit.h"
#include "src/core/floc_metrics.h"
#include "src/core/floc_phases.h"
#include "src/engine/thread_pool.h"
#include "src/obs/trace.h"

namespace deltaclus {

std::vector<std::string> FlocConfig::Validate() const {
  std::vector<std::string> problems;
  auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };

  if (num_clusters == 0) problems.push_back("num_clusters must be >= 1");
  if (!in_unit(seeding.row_probability)) {
    problems.push_back("seeding.row_probability must be in [0, 1]");
  }
  if (!in_unit(seeding.col_probability)) {
    problems.push_back("seeding.col_probability must be in [0, 1]");
  }
  if (seeding.mixed_volumes) {
    if (seeding.volume_mean < 0) {
      problems.push_back("seeding.volume_mean must be >= 0");
    }
    if (seeding.volume_variance < 0) {
      problems.push_back("seeding.volume_variance must be >= 0");
    }
  }
  if (!in_unit(constraints.alpha)) {
    problems.push_back("constraints.alpha must be in [0, 1]");
  }
  if (constraints.min_rows > constraints.max_rows) {
    problems.push_back("constraints.min_rows exceeds max_rows");
  }
  if (constraints.min_cols > constraints.max_cols) {
    problems.push_back("constraints.min_cols exceeds max_cols");
  }
  if (constraints.min_volume > constraints.max_volume) {
    problems.push_back("constraints.min_volume exceeds max_volume");
  }
  if (constraints.max_overlap < 0) {
    problems.push_back("constraints.max_overlap must be >= 0");
  }
  if (!in_unit(constraints.min_row_coverage)) {
    problems.push_back("constraints.min_row_coverage must be in [0, 1]");
  }
  if (!in_unit(constraints.min_col_coverage)) {
    problems.push_back("constraints.min_col_coverage must be in [0, 1]");
  }
  if (target_residue < 0) problems.push_back("target_residue must be >= 0");
  if (annealing_temperature < 0) {
    problems.push_back("annealing_temperature must be >= 0");
  }
  if (min_improvement < 0) problems.push_back("min_improvement must be >= 0");
  if (relative_improvement < 0) {
    problems.push_back("relative_improvement must be >= 0");
  }
  if (threads < 0) {
    problems.push_back("threads must be >= 0 (0 = hardware concurrency)");
  }
  if (deadline_seconds < 0) {
    problems.push_back("deadline_seconds must be >= 0 (0 = no deadline)");
  }
  return problems;
}

Floc::Floc(FlocConfig config) : config_(std::move(config)) {
  std::vector<std::string> problems = config_.Validate();
  if (!problems.empty()) {
    std::string message = "invalid FlocConfig:";
    for (const std::string& p : problems) message += "\n  - " + p;
    throw std::invalid_argument(message);
  }
  if (!config_.audit) {
    // DELTACLUS_AUDIT=1 forces audit mode on for every Floc instance;
    // scripts/check.sh's audit stage runs the full test suite this way.
    // Deliberate env read: audit mode only *adds* DC_CHECKs, it cannot
    // change mined results, so ambient state stays out of the results.
    // NOLINTNEXTLINE(concurrency-mt-unsafe, dclint:banned-getenv)
    const char* env = std::getenv("DELTACLUS_AUDIT");
    if (env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
      config_.audit = true;
    }
  }
  // DELTACLUS_TELEMETRY=off|summary|full overrides the configured level
  // (a sink still has to be attached programmatically or via the CLI).
  // Deliberate env read: telemetry level changes what is *recorded*,
  // never what is computed (obs layer only).
  // NOLINTNEXTLINE(concurrency-mt-unsafe, dclint:banned-getenv)
  const char* tel = std::getenv("DELTACLUS_TELEMETRY");
  if (tel != nullptr && tel[0] != '\0') {
    if (auto level = obs::ParseTelemetryLevel(tel)) {
      config_.telemetry = *level;
    }
  }
}

Floc::~Floc() = default;

engine::ThreadPool* Floc::EnsurePool() {
  if (config_.pool != nullptr) return config_.pool;
  int threads = engine::ResolveThreads(config_.threads);
  if (threads <= 1) return nullptr;
  if (owned_pool_ == nullptr) {
    owned_pool_ = std::make_unique<engine::ThreadPool>(threads);
  }
  return owned_pool_.get();
}

void Floc::MaybeAudit(const ClusterWorkspace& ws, const char* context) const {
  if (!config_.audit) return;
  AuditClusterWorkspace(ws, config_.constraints, config_.norm,
                        kDefaultAuditTolerance, context,
                        audit_check_occupancy_);
}

double Floc::ClusterScore(double residue, size_t volume) const {
  return ObjectiveScore(residue, volume, config_.target_residue);
}

size_t Floc::RefineSweep(const DataMatrix& matrix,
                         std::vector<ClusterWorkspace>& views,
                         std::vector<double>& scores,
                         ConstraintTracker& tracker) {
  DC_TRACE_SPAN("floc/refine_sweep");
  size_t num_rows = matrix.rows();
  size_t num_cols = matrix.cols();
  ResidueEngine engine(config_.norm);
  size_t applied = 0;

  struct Candidate {
    double gain;
    ActionTarget target;
    size_t index;
  };

  for (size_t c = 0; c < views.size(); ++c) {
    // Rank every candidate toggle for this cluster by its score gain...
    std::vector<Candidate> candidates;
    candidates.reserve(num_rows + num_cols);
    for (size_t i = 0; i < num_rows; ++i) {
      if (!tracker.RowToggleAllowed(views, c, i)) continue;
      size_t new_volume = 0;
      double r = engine.ResidueAfterToggleRow(views[c], i, &new_volume);
      double gain = scores[c] - ClusterScore(r, new_volume);
      if (gain > config_.min_improvement) {
        candidates.push_back({gain, ActionTarget::kRow, i});
      }
    }
    for (size_t j = 0; j < num_cols; ++j) {
      if (!tracker.ColToggleAllowed(views, c, j)) continue;
      size_t new_volume = 0;
      double r = engine.ResidueAfterToggleCol(views[c], j, &new_volume);
      double gain = scores[c] - ClusterScore(r, new_volume);
      if (gain > config_.min_improvement) {
        candidates.push_back({gain, ActionTarget::kCol, j});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.gain > b.gain;
              });

    // ...then apply them best-first, re-validating each against the
    // cluster's current state (earlier toggles shift later gains).
    for (const Candidate& cand : candidates) {
      bool is_row = cand.target == ActionTarget::kRow;
      bool allowed = is_row ? tracker.RowToggleAllowed(views, c, cand.index)
                            : tracker.ColToggleAllowed(views, c, cand.index);
      if (!allowed) continue;
      size_t new_volume = 0;
      double r = is_row
                     ? engine.ResidueAfterToggleRow(views[c], cand.index,
                                                    &new_volume)
                     : engine.ResidueAfterToggleCol(views[c], cand.index,
                                                    &new_volume);
      double fresh_gain = scores[c] - ClusterScore(r, new_volume);
      if (fresh_gain <= config_.min_improvement) continue;
      if (is_row) {
        views[c].ToggleRow(cand.index);
        tracker.OnRowToggled(views, c, cand.index);
      } else {
        views[c].ToggleCol(cand.index);
        tracker.OnColToggled(views, c, cand.index);
      }
      MaybeAudit(views[c], "RefineSweep");
      scores[c] = ClusterScore(engine.Residue(views[c]),
                               views[c].stats().Volume());
      ++applied;
    }
  }
  FlocMetrics::Get().refine_toggles->Inc(applied);
  return applied;
}

bool Floc::ReanchorCluster(const DataMatrix& matrix,
                           std::vector<ClusterWorkspace>& views, size_t c,
                           double* score) {
  ClusterWorkspace& view = views[c];
  const double threshold = config_.target_residue;
  if (threshold <= 0.0) return false;
  size_t num_rows = matrix.rows();
  size_t num_cols = matrix.cols();
  const Constraints& cons = config_.constraints;
  ResidueEngine engine(config_.norm);

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
  double cand_score =
      ClusterScore(engine.Residue(cand_ws), cand_ws.stats().Volume());
  if (cand_score >= *score - config_.min_improvement) return false;
  // The candidate's workspace already holds freshly built stats, its
  // cached residue and its pane; adopting it equals Reset(candidate).
  view = std::move(cand_ws);
  MaybeAudit(view, "ReanchorCluster");
  *score = cand_score;
  return true;
}

double AverageResidue(const DataMatrix& matrix,
                      const std::vector<Cluster>& clusters,
                      ResidueNorm norm) {
  if (clusters.empty()) return 0.0;
  ResidueEngine engine(norm);
  double sum = 0.0;
  for (const Cluster& c : clusters) {
    ClusterWorkspace ws(matrix, c);
    sum += engine.Residue(ws);
  }
  return sum / clusters.size();
}

}  // namespace deltaclus
