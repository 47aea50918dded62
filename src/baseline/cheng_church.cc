#include "src/baseline/cheng_church.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "src/core/cluster_stats.h"
#include "src/core/cluster_workspace.h"
#include "src/core/residue.h"
#include "src/engine/thread_pool.h"
#include "src/obs/clock.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace deltaclus {

namespace {

// Mean squared residue contribution of member row i:
// (1/|J'|) sum_j (d_ij - d_iJ - d_Ij + d_IJ)^2.
double MemberRowScore(const ClusterView& view, size_t i) {
  const DataMatrix& m = view.matrix();
  const ClusterStats& stats = view.stats();
  double row_base = stats.RowBase(i);
  double cluster_base = stats.ClusterBase();
  double acc = 0.0;
  size_t count = 0;
  for (uint32_t j : view.cluster().col_ids()) {
    if (!m.IsSpecified(i, j)) continue;
    double r = m.Value(i, j) - row_base - stats.ColBase(j) + cluster_base;
    acc += r * r;
    ++count;
  }
  return count == 0 ? 0.0 : acc / count;
}

double MemberColScore(const ClusterView& view, size_t j) {
  const DataMatrix& m = view.matrix();
  const ClusterStats& stats = view.stats();
  double col_base = stats.ColBase(j);
  double cluster_base = stats.ClusterBase();
  // Column-direction scan: stride-1 on the column-major mirror.
  const double* col_values = m.ColValues(j).data();
  const uint8_t* col_mask = m.ColMask(j).data();
  double acc = 0.0;
  size_t count = 0;
  for (uint32_t i : view.cluster().row_ids()) {
    if (!col_mask[i]) continue;
    double r = col_values[i] - stats.RowBase(i) - col_base + cluster_base;
    acc += r * r;
    ++count;
  }
  return count == 0 ? 0.0 : acc / count;
}

// Score of a *candidate* (non-member) column j against the current
// bicluster: mean squared residue it would contribute, using the current
// bases and the candidate's own column base over I.
double CandidateColScore(const ClusterView& view, size_t j) {
  const DataMatrix& m = view.matrix();
  const ClusterStats& stats = view.stats();
  double col_sum = 0.0;
  size_t col_cnt = 0;
  ClusterStats::ColSumOverRows(m, view.cluster().row_ids(), j, &col_sum,
                               &col_cnt);
  if (col_cnt == 0) return std::numeric_limits<double>::infinity();
  double col_base = col_sum / col_cnt;
  double cluster_base = stats.ClusterBase();
  const double* col_values = m.ColValues(j).data();
  const uint8_t* col_mask = m.ColMask(j).data();
  double acc = 0.0;
  for (uint32_t i : view.cluster().row_ids()) {
    if (!col_mask[i]) continue;
    double r = col_values[i] - stats.RowBase(i) - col_base + cluster_base;
    acc += r * r;
  }
  return acc / col_cnt;
}

// Score of a candidate (non-member) row; `inverted` scores the row's
// mirror image (-d_ij + d_iJ - d_Ij + d_IJ), Cheng & Church's extension
// for co-regulated but anti-correlated genes.
double CandidateRowScore(const ClusterView& view, size_t i, bool inverted) {
  const DataMatrix& m = view.matrix();
  const ClusterStats& stats = view.stats();
  double row_sum = 0.0;
  size_t row_cnt = 0;
  ClusterStats::RowSumOverCols(m, view.cluster().col_ids(), i, &row_sum,
                               &row_cnt);
  if (row_cnt == 0) return std::numeric_limits<double>::infinity();
  double row_base = row_sum / row_cnt;
  double cluster_base = stats.ClusterBase();
  double acc = 0.0;
  for (uint32_t j : view.cluster().col_ids()) {
    if (!m.IsSpecified(i, j)) continue;
    double r = 0.0;
    if (inverted) {
      r = -m.Value(i, j) + row_base - stats.ColBase(j) + cluster_base;
    } else {
      r = m.Value(i, j) - row_base - stats.ColBase(j) + cluster_base;
    }
    acc += r * r;
  }
  return acc / row_cnt;
}

// Parallel-fills scores[t] = score(t) for t in [0, n) over the pool.
// Slots are disjoint and `score` is read-only over the bicluster, so the
// filled vector is identical at any thread count; every *decision* made
// from it (threshold test, argmax) stays on the calling thread.
template <typename ScoreFn>
void FillScores(engine::ThreadPool* pool, size_t n, std::vector<double>* out,
                const ScoreFn& score) {
  out->assign(n, 0.0);
  engine::ParallelApply(pool, n, [&](size_t begin, size_t end, size_t) {
    for (size_t t = begin; t < end; ++t) (*out)[t] = score(t);
  });
}

// Accumulated wall seconds per mining phase across all MineOne calls of
// one run, feeding the run's PerfReport.
struct MinePhaseSeconds {
  double multiple_deletion = 0.0;
  double single_deletion = 0.0;
  double node_addition = 0.0;
};

// Mines a single low-MSR bicluster from `work` (Cheng & Church
// Algorithms 1-3 chained).
Cluster MineOne(const DataMatrix& work, const ChengChurchConfig& config,
                engine::ThreadPool* pool, ResidueEngine& engine,
                double* out_msr, MinePhaseSeconds* phase_seconds) {
  // Start from the full matrix.
  std::vector<size_t> all_rows(work.rows());
  std::vector<size_t> all_cols(work.cols());
  for (size_t i = 0; i < work.rows(); ++i) all_rows[i] = i;
  for (size_t j = 0; j < work.cols(); ++j) all_cols[j] = j;
  ClusterWorkspace ws(
      work, Cluster::FromMembers(work.rows(), work.cols(), all_rows, all_cols));

  // Residue(ws) is served from the workspace cache between toggles, so
  // the repeated MSR reads below cost one scan per membership change.
  double msr = engine.Residue(ws);

  // --- Algorithm 2: multiple node deletion. ---
  std::vector<double> member_scores;
  {
  DC_TRACE_SPAN("cheng_church/multiple_deletion");
  Stopwatch phase_watch;
  while (msr > config.msr_threshold) {
    bool removed = false;
    if (ws.cluster().NumRows() > config.multiple_deletion_min) {
      const auto& row_ids = ws.cluster().row_ids();
      FillScores(pool, row_ids.size(), &member_scores, [&](size_t t) {
        return MemberRowScore(ws.view(), row_ids[t]);
      });
      std::vector<uint32_t> victims;
      for (size_t t = 0; t < row_ids.size(); ++t) {
        if (member_scores[t] > config.deletion_threshold * msr) {
          victims.push_back(row_ids[t]);
        }
      }
      // Never delete everything.
      if (victims.size() + 2 <= ws.cluster().NumRows()) {
        for (uint32_t i : victims) ws.ToggleRow(i);
        removed = !victims.empty();
      }
      msr = engine.Residue(ws);
      if (msr <= config.msr_threshold) break;
    }
    if (ws.cluster().NumCols() > config.multiple_deletion_min) {
      const auto& col_ids = ws.cluster().col_ids();
      FillScores(pool, col_ids.size(), &member_scores, [&](size_t t) {
        return MemberColScore(ws.view(), col_ids[t]);
      });
      std::vector<uint32_t> victims;
      for (size_t t = 0; t < col_ids.size(); ++t) {
        if (member_scores[t] > config.deletion_threshold * msr) {
          victims.push_back(col_ids[t]);
        }
      }
      if (victims.size() + 2 <= ws.cluster().NumCols()) {
        for (uint32_t j : victims) ws.ToggleCol(j);
        removed = removed || !victims.empty();
      }
      msr = engine.Residue(ws);
    }
    if (!removed) break;
  }
  phase_seconds->multiple_deletion += phase_watch.ElapsedSeconds();
  }

  // --- Algorithm 1: single node deletion. ---
  {
  DC_TRACE_SPAN("cheng_church/single_deletion");
  Stopwatch phase_watch;
  while (msr > config.msr_threshold &&
         (ws.cluster().NumRows() > 2 || ws.cluster().NumCols() > 2)) {
    double best_row_score = -1.0;
    uint32_t best_row = 0;
    if (ws.cluster().NumRows() > 2) {
      const auto& row_ids = ws.cluster().row_ids();
      FillScores(pool, row_ids.size(), &member_scores, [&](size_t t) {
        return MemberRowScore(ws.view(), row_ids[t]);
      });
      // Serial argmax in member order (first maximum wins), exactly as
      // the pre-parallel scan decided it.
      for (size_t t = 0; t < row_ids.size(); ++t) {
        if (member_scores[t] > best_row_score) {
          best_row_score = member_scores[t];
          best_row = row_ids[t];
        }
      }
    }
    double best_col_score = -1.0;
    uint32_t best_col = 0;
    if (ws.cluster().NumCols() > 2) {
      const auto& col_ids = ws.cluster().col_ids();
      FillScores(pool, col_ids.size(), &member_scores, [&](size_t t) {
        return MemberColScore(ws.view(), col_ids[t]);
      });
      for (size_t t = 0; t < col_ids.size(); ++t) {
        if (member_scores[t] > best_col_score) {
          best_col_score = member_scores[t];
          best_col = col_ids[t];
        }
      }
    }
    if (best_row_score < 0 && best_col_score < 0) break;
    if (best_row_score >= best_col_score) {
      ws.ToggleRow(best_row);
    } else {
      ws.ToggleCol(best_col);
    }
    msr = engine.Residue(ws);
  }
  phase_seconds->single_deletion += phase_watch.ElapsedSeconds();
  }

  // --- Algorithm 3: node addition. ---
  {
  DC_TRACE_SPAN("cheng_church/node_addition");
  Stopwatch phase_watch;
  for (int pass = 0; pass < 50; ++pass) {
    bool changed = false;
    msr = engine.Residue(ws);
    // Columns first, then rows, as in the original. Candidate scores are
    // filled in parallel over every non-member (infinity marks members,
    // which never pass the threshold); the qualifying set is collected
    // serially in index order, so additions happen in the same order as
    // the serial scan.
    constexpr double kMember = std::numeric_limits<double>::infinity();
    FillScores(pool, work.cols(), &member_scores, [&](size_t j) {
      if (ws.cluster().HasCol(j)) return kMember;
      return CandidateColScore(ws.view(), j);
    });
    std::vector<uint32_t> add_cols;
    for (size_t j = 0; j < work.cols(); ++j) {
      if (member_scores[j] <= msr) add_cols.push_back(static_cast<uint32_t>(j));
    }
    for (uint32_t j : add_cols) ws.ToggleCol(j);
    changed = changed || !add_cols.empty();

    msr = engine.Residue(ws);
    FillScores(pool, work.rows(), &member_scores, [&](size_t i) {
      if (ws.cluster().HasRow(i)) return kMember;
      double s = CandidateRowScore(ws.view(), i, /*inverted=*/false);
      if (s > msr && config.add_inverted_rows) {
        s = std::min(s, CandidateRowScore(ws.view(), i, /*inverted=*/true));
      }
      return s;
    });
    std::vector<uint32_t> add_rows;
    for (size_t i = 0; i < work.rows(); ++i) {
      if (member_scores[i] <= msr) add_rows.push_back(static_cast<uint32_t>(i));
    }
    for (uint32_t i : add_rows) ws.ToggleRow(i);
    changed = changed || !add_rows.empty();

    if (!changed) break;
  }
  phase_seconds->node_addition += phase_watch.ElapsedSeconds();
  }

  *out_msr = engine.Residue(ws);
  return ws.cluster();
}

}  // namespace

double MeanSquaredResidue(const DataMatrix& matrix, const Cluster& cluster) {
  return ClusterResidueNaive(matrix, cluster, ResidueNorm::kMeanSquared);
}

ChengChurchResult RunChengChurch(const DataMatrix& matrix,
                                 const ChengChurchConfig& config) {
  if (matrix.NumSpecified() != matrix.rows() * matrix.cols()) {
    throw std::invalid_argument(
        "RunChengChurch: the bicluster model requires a fully specified "
        "matrix");
  }
  DC_TRACE_SPAN("cheng_church/run");
  Stopwatch stopwatch;
  // Registry snapshot for end-of-run delta accounting (like FLOC's).
  obs::PerfAccounting perf_accounting;
  Rng rng(config.seed);

  // The score scans shard over the injected pool when one is provided;
  // otherwise the run owns a pool sized by config.threads (none at all
  // when that resolves serial).
  std::unique_ptr<engine::ThreadPool> owned_pool;
  engine::ThreadPool* pool = config.pool;
  if (pool == nullptr) {
    int threads = engine::ResolveThreads(config.threads);
    if (threads > 1) {
      owned_pool = std::make_unique<engine::ThreadPool>(threads);
      pool = owned_pool.get();
    }
  }

  ResidueEngine engine(ResidueNorm::kMeanSquared);
  DataMatrix work = matrix;  // masked as clusters are discovered
  ChengChurchResult result;
  MinePhaseSeconds phase_seconds;
  double masking_seconds = 0.0;
  for (size_t c = 0; c < config.num_clusters; ++c) {
    DC_TRACE_SPAN("cheng_church/mine_one");
    double msr = 0.0;
    Cluster found = MineOne(work, config, pool, engine, &msr, &phase_seconds);
    if (found.Empty()) break;
    // Mask the discovered bicluster with random values so the next round
    // does not rediscover it (the step the paper criticizes).
    Stopwatch mask_watch;
    for (uint32_t i : found.row_ids()) {
      for (uint32_t j : found.col_ids()) {
        work.Set(i, j, rng.Uniform(config.mask_lo, config.mask_hi));
      }
    }
    masking_seconds += mask_watch.ElapsedSeconds();
    result.clusters.push_back(std::move(found));
    result.msr.push_back(msr);
  }
  result.elapsed_seconds = stopwatch.ElapsedSeconds();
  result.perf = perf_accounting.Finish(
      "cheng_church", result.elapsed_seconds, stopwatch.CpuSeconds(),
      result.clusters.size(), /*stopped_reason=*/"",
      {{"multiple_deletion", phase_seconds.multiple_deletion},
       {"single_deletion", phase_seconds.single_deletion},
       {"node_addition", phase_seconds.node_addition},
       {"masking", masking_seconds}},
      {"cheng_church/multiple_deletion", "cheng_church/single_deletion",
       "cheng_church/node_addition", nullptr});
  return result;
}

}  // namespace deltaclus
