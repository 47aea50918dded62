// Floc's run entry points, implemented in the session layer: Run() and
// RunWithSeeds() are thin drivers that open a MiningSession, step it to
// completion, and finish it -- the monolithic Phase-2 loop they used to
// carry lives in src/session/mining_session.cc now, unchanged in
// behaviour (byte-identical outputs at any thread count). StartSession
// runs Phase-1 seeding eagerly, so the session itself only ever owns
// Phase-2 state; ResumeSession is the checkpoint entry point, binding a
// decoded .dcs file to this Floc's config (fingerprint-checked) and
// matrix (shape-checked). Every entry point ends in OpenSession, which
// refuses clusters a packed pane cannot hold and hands the session what
// it borrows from this Floc -- config, pool and perf window -- once, at
// construction.
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster_workspace.h"
#include "src/core/floc.h"
#include "src/core/seeding.h"
#include "src/obs/clock.h"
#include "src/obs/trace.h"
#include "src/session/mining_session.h"
#include "src/session/session_format.h"

namespace deltaclus {

namespace {

FlocResult DriveToCompletion(session::MiningSession* s) {
  while (s->Step()) {
  }
  return s->Finish();
}

// A packed pane addresses at most kMaxPaneCols columns (its run slots
// are uint16). Clusters gain columns only through toggles that
// constraints.max_cols blocks, so they stay within a pane unless both
// the matrix and max_cols are wider. Such a run is refused up front,
// naming the limit, instead of aborting when a pane outgrows it.
void RequireClustersFitPane(const DataMatrix& matrix,
                            const Constraints& constraints) {
  if (matrix.cols() <= kMaxPaneCols || constraints.max_cols <= kMaxPaneCols) {
    return;
  }
  std::ostringstream os;
  os << "cluster width limit: the matrix has " << matrix.cols()
     << " columns and constraints.max_cols allows clusters wider than "
     << kMaxPaneCols << " columns, the most a cluster's packed pane can "
     << "address; bound max_cols to at most " << kMaxPaneCols;
  throw std::invalid_argument(os.str());
}

void RequireSeedsFitPane(const std::vector<Cluster>& seeds) {
  for (size_t c = 0; c < seeds.size(); ++c) {
    if (seeds[c].NumCols() <= kMaxPaneCols) continue;
    std::ostringstream os;
    os << "cluster width limit: initial cluster " << c << " spans "
       << seeds[c].NumCols() << " columns, more than the " << kMaxPaneCols
       << " a cluster's packed pane can address";
    throw std::invalid_argument(os.str());
  }
}

}  // namespace

FlocResult Floc::Run(const DataMatrix& matrix) {
  std::unique_ptr<session::MiningSession> s = StartSession(matrix);
  return DriveToCompletion(s.get());
}

FlocResult Floc::RunWithSeeds(const DataMatrix& matrix,
                              std::vector<Cluster> seeds) {
  std::unique_ptr<session::MiningSession> s =
      StartSessionWithSeeds(matrix, std::move(seeds));
  return DriveToCompletion(s.get());
}

std::unique_ptr<session::MiningSession> Floc::StartSession(
    const DataMatrix& matrix) {
  // Refuse before Phase 1 spends any time on seeds.
  RequireClustersFitPane(matrix, config_.constraints);
  Rng rng(config_.rng_seed);
  // Open the perf delta window before seeding so the report's counter
  // deltas and trace attribution cover Phase 1 too.
  perf_accounting_.emplace();
  Stopwatch seed_watch;
  std::vector<Cluster> seeds;
  {
    DC_TRACE_SPAN("floc/phase1_seeding");
    seeds = GenerateSeeds(matrix, config_.seeding, config_.num_clusters, rng);
    // Section 4.3: initial clusters must comply with the constraints; the
    // action-blocking machinery then preserves compliance throughout.
    for (Cluster& seed : seeds) {
      RepairSeed(matrix, config_.constraints, &seed, rng, EnsurePool());
    }
  }
  return OpenSession(matrix, std::move(seeds), seed_watch.ElapsedSeconds(),
                     nullptr);
}

std::unique_ptr<session::MiningSession> Floc::StartSessionWithSeeds(
    const DataMatrix& matrix, std::vector<Cluster> seeds) {
  return OpenSession(matrix, std::move(seeds), 0.0, nullptr);
}

std::unique_ptr<session::MiningSession> Floc::OpenSession(
    const DataMatrix& matrix, std::vector<Cluster> seeds,
    double seeding_seconds, const session::SessionCheckpoint* restore_from) {
  RequireClustersFitPane(matrix, config_.constraints);
  RequireSeedsFitPane(seeds);
  // Not make_unique: the session's constructor is private to keep the
  // borrowing contract (Floc + matrix must outlive it) behind these
  // factory methods, and Floc is its friend.
  return std::unique_ptr<session::MiningSession>(new session::MiningSession(
      config_, EnsurePool(), &perf_accounting_, matrix, std::move(seeds),
      seeding_seconds, restore_from));
}

std::unique_ptr<session::MiningSession> Floc::ResumeSession(
    const DataMatrix& matrix, const std::string& checkpoint_path) {
  session::SessionCheckpoint cp =
      session::ReadSessionCheckpoint(checkpoint_path, checkpoint_path);
  if (cp.rows != matrix.rows() || cp.cols != matrix.cols()) {
    std::ostringstream os;
    os << checkpoint_path << ": checkpoint does not match this run: matrix "
       << "shape mismatch (checkpoint was taken over " << cp.rows << "x"
       << cp.cols << ", this matrix is " << matrix.rows() << "x"
       << matrix.cols() << ")";
    throw std::runtime_error(os.str());
  }
  if (session::FingerprintMatrix(matrix) != cp.matrix_fingerprint) {
    throw std::runtime_error(
        checkpoint_path +
        ": checkpoint does not match this run: matrix content mismatch (the "
        "shape agrees but the values or missing-entry mask differ; a "
        "checkpoint's memberships are only meaningful against the exact data "
        "set that produced them)");
  }
  uint64_t fingerprint =
      session::FingerprintConfig(config_, cp.rows, cp.cols, cp.clusters.size());
  if (fingerprint != cp.config_fingerprint) {
    throw std::runtime_error(
        checkpoint_path +
        ": checkpoint does not match this run: config fingerprint mismatch "
        "(a result-affecting configuration field differs from the "
        "checkpointing run; threads, budgets, audit, and telemetry are "
        "free to change, everything else must agree)");
  }
  std::vector<Cluster> seeds;
  seeds.reserve(cp.clusters.size());
  for (const session::ClusterMembers& m : cp.clusters) {
    seeds.push_back(Cluster::FromMembers(
        matrix.rows(), matrix.cols(),
        std::vector<size_t>(m.rows.begin(), m.rows.end()),
        std::vector<size_t>(m.cols.begin(), m.cols.end())));
  }
  // The checkpoint carries the run's seeding seconds.
  return OpenSession(matrix, std::move(seeds), 0.0, &cp);
}

}  // namespace deltaclus
