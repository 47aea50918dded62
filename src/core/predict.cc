#include "src/core/predict.h"

#include <cmath>

#include "src/core/residue.h"
#include "src/util/rng.h"

namespace deltaclus {

ClusterPredictor::ClusterPredictor(const DataMatrix& matrix,
                                   std::vector<Cluster> clusters)
    : matrix_(&matrix), clusters_(std::move(clusters)) {
  stats_.resize(clusters_.size());
  residues_.resize(clusters_.size());
  ResidueEngine engine;
  for (size_t c = 0; c < clusters_.size(); ++c) {
    ClusterWorkspace ws(matrix, clusters_[c]);
    stats_[c] = ws.stats();
    residues_[c] = engine.Residue(ws);
  }
}

std::optional<double> ClusterPredictor::PredictWithCluster(size_t c, size_t i,
                                                           size_t j) const {
  const Cluster& cluster = clusters_[c];
  if (!cluster.HasRow(i) || !cluster.HasCol(j)) return std::nullopt;
  const ClusterStats& stats = stats_[c];

  double row_sum = stats.RowSum(i);
  size_t row_cnt = stats.RowCount(i);
  double col_sum = stats.ColSum(j);
  size_t col_cnt = stats.ColCount(j);
  double total = stats.Total();
  size_t volume = stats.Volume();

  // Exclude the entry itself so predicting a present value is honest.
  if (matrix_->IsSpecified(i, j)) {
    double v = matrix_->Value(i, j);
    row_sum -= v;
    row_cnt -= 1;
    col_sum -= v;
    col_cnt -= 1;
    total -= v;
    volume -= 1;
  }
  if (row_cnt == 0 || col_cnt == 0 || volume == 0) return std::nullopt;
  return row_sum / row_cnt + col_sum / col_cnt - total / volume;
}

std::optional<double> ClusterPredictor::Predict(size_t i, size_t j,
                                                PredictCombine combine) const {
  std::optional<double> best;
  double best_residue = 0.0;
  double weighted_sum = 0.0;
  double weight_total = 0.0;

  for (size_t c = 0; c < clusters_.size(); ++c) {
    std::optional<double> prediction = PredictWithCluster(c, i, j);
    if (!prediction) continue;
    if (combine == PredictCombine::kBestResidue) {
      if (!best || residues_[c] < best_residue) {
        best = prediction;
        best_residue = residues_[c];
      }
    } else {
      double w = 1.0 / (1.0 + residues_[c]);
      weighted_sum += w * *prediction;
      weight_total += w;
    }
  }
  if (combine == PredictCombine::kBestResidue) return best;
  if (weight_total == 0.0) return std::nullopt;
  return weighted_sum / weight_total;
}

DataMatrix ClusterPredictor::Impute(PredictCombine combine) const {
  DataMatrix out = *matrix_;
  for (const Cluster& cluster : clusters_) {
    for (uint32_t i : cluster.row_ids()) {
      for (uint32_t j : cluster.col_ids()) {
        if (out.IsSpecified(i, j)) continue;
        std::optional<double> prediction = Predict(i, j, combine);
        if (prediction) out.Set(i, j, *prediction);
      }
    }
  }
  return out;
}

HoldoutResult ClusterPredictor::EvaluateHoldout(double fraction,
                                                uint64_t seed,
                                                PredictCombine combine) const {
  Rng rng(seed);
  HoldoutResult result;

  DataMatrix masked = *matrix_;
  std::vector<std::pair<uint32_t, uint32_t>> held;
  for (const Cluster& cluster : clusters_) {
    for (uint32_t i : cluster.row_ids()) {
      for (uint32_t j : cluster.col_ids()) {
        if (!masked.IsSpecified(i, j)) continue;  // missing or already held
        if (!rng.Bernoulli(fraction)) continue;
        masked.SetMissing(i, j);
        held.emplace_back(i, j);
      }
    }
  }
  result.held_out = held.size();
  if (held.empty()) return result;

  ClusterPredictor masked_predictor(masked, clusters_);
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  for (auto [i, j] : held) {
    std::optional<double> prediction =
        masked_predictor.Predict(i, j, combine);
    if (!prediction) continue;
    double err = *prediction - matrix_->Value(i, j);
    abs_sum += std::abs(err);
    sq_sum += err * err;
    ++result.predicted;
  }
  if (result.predicted > 0) {
    result.mae = abs_sum / result.predicted;
    result.rmse = std::sqrt(sq_sum / result.predicted);
  }
  return result;
}

std::optional<double> PredictEntry(const DataMatrix& matrix,
                                   const Cluster& cluster, size_t i,
                                   size_t j) {
  ClusterPredictor predictor(matrix, {cluster});
  return predictor.PredictWithCluster(0, i, j);
}

DataMatrix ImputeFromClusters(const DataMatrix& matrix,
                              const std::vector<Cluster>& clusters,
                              PredictCombine combine) {
  ClusterPredictor predictor(matrix, clusters);
  return predictor.Impute(combine);
}

}  // namespace deltaclus
