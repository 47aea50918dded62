// Session-layer tests: the determinism gate of the MiningSession
// refactor (DESIGN.md "The session layer").
//
// The contract under test:
//   * Floc::Run and a manually stepped session are the same machine, so
//     a session checkpointed at *any* Step() boundary and resumed in a
//     fresh process-worth of state finishes byte-identical to the
//     uninterrupted run -- across thread counts, dense/sparse data,
//     audit on/off, and mem/mmap backends;
//   * budget stops (deadline, iteration cap, cooperative cancellation)
//     return a valid best-so-far clustering with stopped_reason set in
//     the perf report, and stopped sessions keep
//     their machine position so checkpoint+resume continues exactly
//     where the budget cut in;
//   * at every step boundary the live views are the best clustering, so
//     a reseed round restarts only the stagnant slots and every other
//     slot keeps its best membership;
//   * every corrupted, truncated, or mismatched .dcs checkpoint is
//     rejected with an exception naming the defect (mirroring the .dcm
//     rejection suite in tests/storage_test.cc);
//   * RunWithSeeds warns (stderr + floc.constraints.disabled counter)
//     when caller seeds silently disable constraint enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <unistd.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/cluster_workspace.h"
#include "src/core/data_matrix.h"
#include "src/core/floc.h"
#include "src/core/gain_memo.h"
#include "src/data/cluster_io.h"
#include "src/data/matrix_io.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/session/mining_session.h"
#include "src/session/session_format.h"
#include "src/storage/dcm_format.h"
#include "src/util/stop_token.h"

namespace deltaclus {
namespace {

using session::MiningSession;
using session::ReadSessionCheckpoint;
using session::SessionCheckpoint;
using session::SessionState;
using session::SessionStatus;
using session::StopReason;
using session::WriteSessionCheckpoint;

// Per-process unique paths: ctest runs each gtest case as its own
// process, and the SessionRejectTest fixture writes the same fixture
// checkpoint in every one of them -- without the pid prefix, parallel
// test processes race on /tmp/session_valid.dcs (the atomic-rename
// discipline shares the .tmp name too, so concurrent writers tear it).
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

SyntheticDataset MakeData(uint64_t seed, double missing_fraction) {
  SyntheticConfig config;
  config.rows = 60;
  config.cols = 24;
  config.num_clusters = 3;
  config.volume_mean = 60;
  config.col_fraction = 0.25;
  config.noise_stddev = 0.5;
  config.missing_fraction = missing_fraction;
  config.seed = seed;
  return GenerateSynthetic(config);
}

FlocConfig MakeConfig() {
  FlocConfig config;
  config.num_clusters = 3;
  config.rng_seed = 11;
  config.target_residue = 1.0;
  config.reseed_rounds = 2;
  return config;
}

/// Serializes a clustering to its canonical text form -- the unit of
/// "byte-identical output".
std::string ClustersAsText(const std::vector<Cluster>& clusters) {
  std::ostringstream os;
  WriteClusters(clusters, os);
  return os.str();
}

/// Exact-equality comparison of two mining results: same clusters, same
/// iteration count, and bit-equal residues (both sides ran the same
/// arithmetic over the same bits, so == is the right operator).
void ExpectSameResult(const FlocResult& expected, const FlocResult& actual,
                      const std::string& label) {
  EXPECT_EQ(ClustersAsText(expected.clusters), ClustersAsText(actual.clusters))
      << label;
  EXPECT_EQ(expected.iterations, actual.iterations) << label;
  EXPECT_EQ(expected.average_residue, actual.average_residue) << label;
  ASSERT_EQ(expected.residues.size(), actual.residues.size()) << label;
  for (size_t c = 0; c < expected.residues.size(); ++c) {
    EXPECT_EQ(expected.residues[c], actual.residues[c]) << label << " [" << c
                                                        << "]";
  }
}

/// Steps a fresh session `stop_after` times, checkpoints, resumes in a
/// separate Floc, and finishes. Returns true and stores the result if
/// the run still had work at that boundary; false once `stop_after`
/// exceeds the run's total step count.
bool CheckpointAtBoundary(const FlocConfig& config, const DataMatrix& matrix,
                          size_t stop_after, const std::string& path,
                          const FlocConfig& resume_config,
                          const DataMatrix& resume_matrix,
                          FlocResult* result) {
  Floc floc(config);
  std::unique_ptr<MiningSession> first = floc.StartSession(matrix);
  size_t steps = 0;
  bool more = true;
  while (steps < stop_after && (more = first->Step())) ++steps;
  if (!more) return false;  // The run ended before this boundary.
  first->Checkpoint(path);

  Floc fresh(resume_config);
  std::unique_ptr<MiningSession> second =
      fresh.ResumeSession(resume_matrix, path);
  while (second->Step()) {
  }
  *result = second->Finish();
  return true;
}

// -- Checkpoint/resume determinism -----------------------------------

// Paper-literal Phase 2: decisions made on stale gains and negative
// actions forced, so the final, non-improving sweep of a move phase
// still applies actions (fresh-gain runs apply none there).
FlocConfig PaperModeConfig(size_t refine_passes) {
  FlocConfig config = MakeConfig();
  config.fresh_gains_at_apply = false;
  config.perform_negative_actions = true;
  config.refine_passes = refine_passes;
  return config;
}

// A resumed run's perf report covers every session segment: each phase
// wall it reports is at least the checkpointed one, as its total time
// covers the earlier segments' elapsed time. The checkpoint is taken at
// the last step boundary, so the resumed segment alone runs no move
// sweep and its own walls could not reach the checkpointed ones.
TEST(SessionTest, ResumedRunReportsEveryPhaseWall) {
  SyntheticDataset data = MakeData(5, 0.3);
  FlocConfig config = PaperModeConfig(1);
  size_t steps = 0;
  {
    Floc floc(config);
    std::unique_ptr<MiningSession> straight = floc.StartSession(data.matrix);
    while (straight->Step()) ++steps;
  }
  ASSERT_GT(steps, 2u);
  Floc floc(config);
  std::unique_ptr<MiningSession> first = floc.StartSession(data.matrix);
  for (size_t step = 0; step + 1 < steps; ++step) ASSERT_TRUE(first->Step());
  std::string path = TempPath("session_walls_resume.dcs");
  first->Checkpoint(path);
  SessionCheckpoint cp = ReadSessionCheckpoint(path, path);
  ASSERT_GT(cp.walls.move_phase, 0.0);
  ASSERT_GT(cp.walls.determine, 0.0);

  Floc resumer(config);
  std::unique_ptr<MiningSession> second =
      resumer.ResumeSession(data.matrix, path);
  while (second->Step()) {
  }
  FlocResult resumed = second->Finish();
  const std::pair<const char*, double> checkpointed[] = {
      {"seeding", cp.walls.seeding},   {"move_phase", cp.walls.move_phase},
      {"determine", cp.walls.determine}, {"apply", cp.walls.apply},
      {"refine", cp.walls.refine},     {"reseed", cp.walls.reseed}};
  for (const auto& [name, wall] : checkpointed) {
    const obs::PerfPhase* phase = nullptr;
    for (const obs::PerfPhase& p : resumed.perf.phases) {
      if (p.name == name) phase = &p;
    }
    ASSERT_NE(phase, nullptr) << name;
    EXPECT_GE(phase->wall_seconds, wall) << name;
  }
  EXPECT_GE(resumed.perf.total_seconds,
            cp.prior_elapsed_seconds + cp.walls.seeding);
}

// The core gate: a checkpoint taken at *every* step boundary of a run
// resumes to a byte-identical finish. This sweeps through move-phase,
// refine, and reseed-check boundaries without needing to aim at them,
// for the default run and for paper-mode runs with and without refine.
// The resumed half runs audited (audit is result-neutral), so the
// step-boundary invariant -- stats equal to a Build(), best average
// equal to the live one -- is DC_CHECKed after every restore and at
// every later boundary.
TEST(SessionTest, CheckpointAtEveryBoundaryResumesIdentically) {
  SyntheticDataset data = MakeData(7, 0.0);
  struct Case {
    const char* name;
    FlocConfig config;
  };
  const Case cases[] = {{"default", MakeConfig()},
                        {"paper refine=2", PaperModeConfig(2)},
                        {"paper refine=0", PaperModeConfig(0)}};
  for (const Case& c : cases) {
    FlocConfig config = c.config;
    config.threads = 2;
    FlocResult reference = Floc(config).Run(data.matrix);
    FlocConfig audited = config;
    audited.audit = true;

    std::string path = TempPath("session_boundary.dcs");
    for (size_t boundary = 0;; ++boundary) {
      FlocResult resumed;
      if (!CheckpointAtBoundary(config, data.matrix, boundary, path, audited,
                                data.matrix, &resumed)) {
        EXPECT_GT(boundary, 4u) << c.name << ": run ended suspiciously early";
        break;
      }
      ExpectSameResult(reference, resumed,
                       std::string(c.name) + " boundary " +
                           std::to_string(boundary));
    }
  }
}

// A reseed round restarts only the stagnant slots; every other slot
// must enter it holding its best membership, not the membership the
// move phase's final, non-improving sweep left behind. Paper mode with
// refinement off is the configuration where that sweep applies actions
// and nothing between it and the reseed check restores the best
// clustering, so it is the one that can tell the two apart.
TEST(SessionTest, ReseedRoundKeepsBestMembershipsOfNonStagnantSlots) {
  SyntheticDataset data = MakeData(7, 0.0);
  FlocConfig config = PaperModeConfig(0);
  config.reseed_rounds = 1;
  config.telemetry = obs::TelemetryLevel::kSummary;
  // The pre-reseed best clustering, mined independently: with no reseed
  // round the run ends right where the reseed check would start.
  FlocConfig no_reseed = config;
  no_reseed.reseed_rounds = 0;
  std::string best = ClustersAsText(Floc(no_reseed).Run(data.matrix).clusters);

  Floc floc(config);
  std::unique_ptr<MiningSession> session = floc.StartSession(data.matrix);
  while (session->Status().state != SessionState::kReseedCheck) {
    ASSERT_TRUE(session->Step());
  }
  std::string before_path = TempPath("session_pre_reseed.dcs");
  session->Checkpoint(before_path);
  ASSERT_TRUE(session->Step());
  ASSERT_EQ(session->Status().state, SessionState::kMovePhase)
      << "no slot was stagnant, so no reseed round started";
  std::string after_path = TempPath("session_post_reseed.dcs");
  session->Checkpoint(after_path);
  FlocResult finished = session->Finish();

  SessionCheckpoint before = ReadSessionCheckpoint(before_path, before_path);
  SessionCheckpoint after = ReadSessionCheckpoint(after_path, after_path);
  // The move phase's final sweep is the last iteration before the
  // reseed check; the session's summary log recorded it.
  const std::vector<obs::IterationTelemetry>& log =
      finished.telemetry.iteration_log;
  ASSERT_GT(before.total_iterations, 0u);
  ASSERT_GE(log.size(), before.total_iterations);
  const obs::IterationTelemetry& final_sweep =
      log[before.total_iterations - 1];
  ASSERT_EQ(final_sweep.iteration, before.total_iterations - 1);
  ASSERT_GT(final_sweep.actions_applied, 0u)
      << "the final sweep applied no actions; nothing to rewind";
  ASSERT_FALSE(final_sweep.improved);

  auto as_clusters = [&](const std::vector<session::ClusterMembers>& ms) {
    std::vector<Cluster> out;
    for (const session::ClusterMembers& m : ms) {
      out.push_back(Cluster::FromMembers(
          data.matrix.rows(), data.matrix.cols(),
          std::vector<size_t>(m.rows.begin(), m.rows.end()),
          std::vector<size_t>(m.cols.begin(), m.cols.end())));
    }
    return out;
  };
  std::vector<Cluster> pre = as_clusters(before.clusters);
  std::vector<Cluster> post = as_clusters(after.clusters);
  std::vector<Cluster> saved = as_clusters(after.saved);
  EXPECT_EQ(ClustersAsText(pre), best);

  ASSERT_FALSE(after.stagnant.empty());
  ASSERT_LT(after.stagnant.size(), config.num_clusters)
      << "every slot was stagnant; no kept slot to check";
  for (size_t c = 0; c < config.num_clusters; ++c) {
    auto it = std::find(after.stagnant.begin(), after.stagnant.end(), c);
    if (it == after.stagnant.end()) {
      EXPECT_TRUE(post[c] == pre[c]) << "kept slot " << c
                                     << " lost its best membership";
    } else {
      EXPECT_TRUE(saved[it - after.stagnant.begin()] == pre[c])
          << "stagnant slot " << c << " saved a non-best membership";
    }
  }
}

// The full configuration sweep the issue demands: stop at iteration k
// via the budget machinery, resume under different thread counts and
// audit settings, dense and sparse data. All must reproduce the
// single-threaded uninterrupted run exactly; the audited segments
// DC_CHECK every gain-memo hit against a rescan on the way.
TEST(SessionTest, StopResumeMatrixOfConfigs) {
  for (double missing : {0.0, 0.3}) {
    SyntheticDataset data = MakeData(13, missing);
    FlocConfig base = MakeConfig();
    FlocResult reference = Floc(base).Run(data.matrix);

    struct Case {
      int stop_threads;
      int resume_threads;
      bool audit;
      size_t cap;
    };
    const Case cases[] = {
        {1, 8, true, 1}, {2, 1, false, 1}, {8, 2, true, 3},
        {1, 2, false, 3}, {8, 1, true, 2}, {2, 8, false, 2},
    };
    for (const Case& c : cases) {
      std::string label = "missing=" + std::to_string(missing) + " threads=" +
                          std::to_string(c.stop_threads) + "->" +
                          std::to_string(c.resume_threads) +
                          " audit=" + std::to_string(c.audit) +
                          " cap=" + std::to_string(c.cap);
      std::string path = TempPath("session_sweep.dcs");

      FlocConfig stop_config = base;
      stop_config.threads = c.stop_threads;
      stop_config.audit = c.audit;
      stop_config.max_total_iterations = c.cap;
      Floc stopper(stop_config);
      std::unique_ptr<MiningSession> first =
          stopper.StartSession(data.matrix);
      while (first->Step()) {
      }
      if (first->stop_reason() != StopReason::kIterationCap) {
        // The run converged before the cap could bind at a move-phase
        // boundary (the cap only stops *upcoming* move iterations); it
        // must then simply be the uninterrupted result. The cap=1
        // cases always bind, so the resume path below is exercised.
        EXPECT_TRUE(first->done()) << label;
        ExpectSameResult(reference, first->Finish(), label);
        continue;
      }
      ASSERT_FALSE(first->done()) << label;
      first->Checkpoint(path);

      FlocConfig resume_config = base;
      resume_config.threads = c.resume_threads;
      resume_config.audit = !c.audit;  // Result-neutral: may change.
      Floc resumer(resume_config);
      std::unique_ptr<MiningSession> second =
          resumer.ResumeSession(data.matrix, path);
      while (second->Step()) {
      }
      ExpectSameResult(reference, second->Finish(), label);
    }
  }
}

// A checkpoint written against the in-memory backend resumes against an
// mmap-backed view of the same data (and vice versa would too): the
// matrix fingerprint digests contents, not the backend.
TEST(SessionTest, ResumeAcrossStorageBackends) {
  SyntheticDataset data = MakeData(21, 0.2);
  std::string dcm_path = TempPath("session_backend.dcm");
  WriteDcmFile(data.matrix, dcm_path);
  DataMatrix mapped = ReadMatrixFile(dcm_path, MatrixBackend::kMmap);

  FlocConfig config = MakeConfig();
  FlocResult reference = Floc(config).Run(data.matrix);

  FlocConfig capped = config;
  capped.max_total_iterations = 2;
  std::string path = TempPath("session_backend.dcs");
  Floc stopper(capped);
  std::unique_ptr<MiningSession> first = stopper.StartSession(data.matrix);
  while (first->Step()) {
  }
  ASSERT_EQ(first->stop_reason(), StopReason::kIterationCap);
  first->Checkpoint(path);

  Floc resumer(config);
  std::unique_ptr<MiningSession> second = resumer.ResumeSession(mapped, path);
  while (second->Step()) {
  }
  ExpectSameResult(reference, second->Finish(), "mem->mmap resume");
}

// A resumed session logs only the iterations it runs, each under its
// run-wide iteration number, and they are the straight run's: the
// checkpoint needs no per-iteration record for the telemetry to line
// up. Timing fields aside, every logged field must match exactly.
TEST(SessionTest, ResumedLogContinuesTheStraightLog) {
  SyntheticDataset data = MakeData(13, 0.0);
  // Paper mode's stale decisions converge more slowly, so the log after
  // the first iteration still has several entries to compare.
  FlocConfig config = PaperModeConfig(2);
  config.telemetry = obs::TelemetryLevel::kSummary;
  FlocResult straight = Floc(config).Run(data.matrix);

  std::string path = TempPath("session_resumed_log.dcs");
  uint64_t checkpoint_iteration = 0;
  {
    Floc floc(config);
    std::unique_ptr<MiningSession> first = floc.StartSession(data.matrix);
    ASSERT_TRUE(first->Step());
    ASSERT_EQ(first->Status().state, SessionState::kMovePhase)
        << "the first move phase converged before a mid-phase boundary";
    checkpoint_iteration = first->Status().iterations;
    first->Checkpoint(path);
  }  // The session is dropped unfinished.

  Floc resumer(config);
  std::unique_ptr<MiningSession> second =
      resumer.ResumeSession(data.matrix, path);
  while (second->Step()) {
  }
  FlocResult resumed = second->Finish();

  const std::vector<obs::IterationTelemetry>& want =
      straight.telemetry.iteration_log;
  const std::vector<obs::IterationTelemetry>& got =
      resumed.telemetry.iteration_log;
  ASSERT_EQ(want.size(), straight.iterations);
  ASSERT_EQ(got.size(), want.size() - checkpoint_iteration);
  ASSERT_GE(got.size(), 2u) << "too short a resumed log to compare";
  for (size_t i = 0; i < got.size(); ++i) {
    const obs::IterationTelemetry& w = want[checkpoint_iteration + i];
    const obs::IterationTelemetry& g = got[i];
    std::string label = "iteration " + std::to_string(w.iteration);
    EXPECT_EQ(g.iteration, w.iteration) << label;
    EXPECT_EQ(g.best_gain, w.best_gain) << label;
    EXPECT_EQ(g.mean_gain, w.mean_gain) << label;
    EXPECT_EQ(g.determined, w.determined) << label;
    EXPECT_EQ(g.fully_blocked, w.fully_blocked) << label;
    EXPECT_EQ(g.blocked_by.counts, w.blocked_by.counts) << label;
    EXPECT_EQ(g.gain_histogram, w.gain_histogram) << label;
    EXPECT_EQ(g.actions_applied, w.actions_applied) << label;
    EXPECT_EQ(g.best_prefix, w.best_prefix) << label;
    EXPECT_EQ(g.best_average_score, w.best_average_score) << label;
    EXPECT_EQ(g.best_so_far, w.best_so_far) << label;
    EXPECT_EQ(g.improved, w.improved) << label;
    EXPECT_EQ(g.cluster_residues, w.cluster_residues) << label;
    EXPECT_EQ(g.cluster_volumes, w.cluster_volumes) << label;
  }

  ExpectSameResult(straight, resumed, "resumed log run");
  EXPECT_EQ(resumed.perf.iterations, straight.perf.iterations);
  EXPECT_EQ(resumed.perf.stopped_reason, straight.perf.stopped_reason);
}

// -- Budget stops ------------------------------------------------------

TEST(SessionTest, IterationCapStopsWithValidBestSoFar) {
  SyntheticDataset data = MakeData(5, 0.0);
  FlocConfig config = MakeConfig();
  config.max_total_iterations = 1;
  Floc floc(config);
  std::unique_ptr<MiningSession> session = floc.StartSession(data.matrix);
  while (session->Step()) {
  }
  EXPECT_EQ(session->stop_reason(), StopReason::kIterationCap);
  EXPECT_FALSE(session->done());
  // A stopped session stays stopped.
  EXPECT_FALSE(session->Step());

  FlocResult result = session->Finish();
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_EQ(result.clusters.size(), config.num_clusters);
  EXPECT_EQ(result.perf.stopped_reason, "iteration_cap");
  for (const Cluster& c : result.clusters) {
    EXPECT_FALSE(c.row_ids().empty());
    EXPECT_FALSE(c.col_ids().empty());
  }
}

TEST(SessionTest, DeadlineStopsImmediately) {
  SyntheticDataset data = MakeData(5, 0.0);
  FlocConfig config = MakeConfig();
  config.deadline_seconds = 1e-12;  // Already expired at the first step.
  Floc floc(config);
  std::unique_ptr<MiningSession> session = floc.StartSession(data.matrix);
  EXPECT_FALSE(session->Step());
  EXPECT_EQ(session->stop_reason(), StopReason::kDeadline);
  FlocResult result = session->Finish();
  EXPECT_EQ(result.perf.stopped_reason, "deadline");
  // Zero iterations ran, but the seeds are still a valid clustering.
  EXPECT_EQ(result.clusters.size(), config.num_clusters);
}

TEST(SessionTest, PreCancelledTokenStopsBeforeAnyWork) {
  SyntheticDataset data = MakeData(5, 0.0);
  StopToken token;
  token.RequestStop();
  FlocConfig config = MakeConfig();
  config.stop = &token;
  Floc floc(config);
  std::unique_ptr<MiningSession> session = floc.StartSession(data.matrix);
  EXPECT_FALSE(session->Step());
  EXPECT_EQ(session->stop_reason(), StopReason::kCancelled);
  FlocResult result = session->Finish();
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.perf.stopped_reason, "cancelled");
}

// Fires cancellation from another thread mid-run. Wherever it lands --
// between steps or inside a parallel sweep (then the sweep is discarded
// wholesale) -- the checkpointed session must resume to the exact
// uninterrupted result; if the run wins the race, the result already is
// it. Either way the determinism claim is exercised.
TEST(SessionTest, AsynchronousCancelResumesIdentically) {
  SyntheticDataset data = MakeData(29, 0.3);
  FlocConfig config = MakeConfig();
  FlocResult reference = Floc(config).Run(data.matrix);

  StopToken token;
  FlocConfig cancellable = MakeConfig();
  cancellable.stop = &token;
  cancellable.threads = 4;
  Floc floc(cancellable);
  std::unique_ptr<MiningSession> session = floc.StartSession(data.matrix);
  std::thread firer([&token] {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    token.RequestStop();
  });
  while (session->Step()) {
  }
  firer.join();

  if (session->stop_reason() == StopReason::kCancelled) {
    std::string path = TempPath("session_cancel.dcs");
    session->Checkpoint(path);
    Floc resumer(MakeConfig());
    std::unique_ptr<MiningSession> resumed =
        resumer.ResumeSession(data.matrix, path);
    while (resumed->Step()) {
    }
    ExpectSameResult(reference, resumed->Finish(), "post-cancel resume");
  } else {
    ExpectSameResult(reference, session->Finish(), "cancel lost the race");
  }
}

// -- SessionStatus -----------------------------------------------------

TEST(SessionTest, StatusSnapshotsProgressAndSerializesAsJson) {
  SyntheticDataset data = MakeData(5, 0.0);
  FlocConfig config = MakeConfig();
  Floc floc(config);
  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  std::unique_ptr<MiningSession> session = floc.StartSession(data.matrix);
  obs::MetricsRegistry::SetEnabled(was_enabled);

  SessionStatus initial = session->Status();
  EXPECT_EQ(initial.state, SessionState::kMovePhase);
  EXPECT_EQ(initial.iterations, 0u);
  EXPECT_FALSE(initial.done);
  EXPECT_GT(initial.best_average_score, 0.0);
  // The gain memo is sized once, when the session is built: one entry
  // per (row or column, cluster) pair, mirrored into the gauge.
  EXPECT_EQ(initial.memo_resident_bytes,
            (data.matrix.rows() + data.matrix.cols()) * config.num_clusters *
                sizeof(GainMemo::Entry));
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("floc.session.memo_resident_bytes")
                ->Value(),
            static_cast<double>(initial.memo_resident_bytes));

  while (session->Step()) {
  }
  SessionStatus final_status = session->Status();
  EXPECT_TRUE(final_status.done);
  EXPECT_EQ(final_status.state, SessionState::kDone);
  EXPECT_GT(final_status.iterations, 0u);

  std::string json = final_status.Json();
  EXPECT_NE(json.find("\"kind\":\"session_status\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(json.find("\"iterations\":"), std::string::npos);
  EXPECT_NE(json.find("\"memo_resident_bytes\":"), std::string::npos);
  session->Finish();
}

TEST(SessionTest, FinishedSessionRefusesFurtherUse) {
  SyntheticDataset data = MakeData(5, 0.0);
  Floc floc(MakeConfig());
  std::unique_ptr<MiningSession> session = floc.StartSession(data.matrix);
  while (session->Step()) {
  }
  session->Finish();
  EXPECT_THROW(session->Finish(), std::logic_error);
  EXPECT_THROW(session->Checkpoint(TempPath("after_finish.dcs")),
               std::logic_error);
  EXPECT_FALSE(session->Step());
}

// -- Checkpoint rejection suite ---------------------------------------

std::vector<char> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAllBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Writes a valid mid-run checkpoint (and its source data) once per
/// suite; every rejection case corrupts a copy of these bytes.
class SessionRejectTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SyntheticDataset(MakeData(7, 0.1));
    valid_path_ = new std::string(TempPath("session_valid.dcs"));
    FlocConfig config = MakeConfig();
    Floc floc(config);
    std::unique_ptr<MiningSession> session = floc.StartSession(data_->matrix);
    ASSERT_TRUE(session->Step());
    ASSERT_TRUE(session->Step());
    session->Checkpoint(*valid_path_);
    session->Finish();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
    delete valid_path_;
    valid_path_ = nullptr;
  }

  /// Asserts that decoding `path` throws a runtime_error naming both
  /// the origin and the expected defect.
  static void ExpectRejects(const std::string& path,
                            const std::string& defect) {
    try {
      ReadSessionCheckpoint(path, path);
      FAIL() << "expected rejection naming '" << defect << "' for " << path;
    } catch (const std::runtime_error& e) {
      std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(defect), std::string::npos) << what;
    }
  }

  /// Decodes the valid checkpoint, applies `mutate`, re-encodes (with
  /// fresh checksums, so the corruption reaches the structural
  /// validator), and asserts the named rejection.
  template <typename Fn>
  static void ExpectStructuralReject(const std::string& name, Fn mutate,
                                     const std::string& defect) {
    SessionCheckpoint cp = ReadSessionCheckpoint(*valid_path_, *valid_path_);
    mutate(&cp);
    std::string path = TempPath(name);
    WriteSessionCheckpoint(cp, path);
    ExpectRejects(path, defect);
  }

  static SyntheticDataset* data_;
  static std::string* valid_path_;
};

SyntheticDataset* SessionRejectTest::data_ = nullptr;
std::string* SessionRejectTest::valid_path_ = nullptr;

TEST_F(SessionRejectTest, ValidCheckpointRoundTrips) {
  SessionCheckpoint cp = ReadSessionCheckpoint(*valid_path_, *valid_path_);
  EXPECT_EQ(cp.rows, data_->matrix.rows());
  EXPECT_EQ(cp.cols, data_->matrix.cols());
  EXPECT_EQ(cp.clusters.size(), 3u);
  EXPECT_TRUE(session::LooksLikeDcsFile(*valid_path_));
}

TEST_F(SessionRejectTest, TruncatedHeaderRejected) {
  std::vector<char> bytes = ReadAllBytes(*valid_path_);
  bytes.resize(40);
  std::string path = TempPath("session_trunc_header.dcs");
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "truncated");
}

TEST_F(SessionRejectTest, BadMagicRejected) {
  std::vector<char> bytes = ReadAllBytes(*valid_path_);
  bytes[0] = 'X';
  std::string path = TempPath("session_bad_magic.dcs");
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "bad magic");
  EXPECT_FALSE(session::LooksLikeDcsFile(path));
}

TEST_F(SessionRejectTest, VersionMismatchRejected) {
  // 1 carried per-cluster memo heat; 2 carried a best-clustering list
  // and the live views' stats bits; 3 carried the per-iteration history;
  // 4 carried Phase-1 seeding as its only phase wall.
  for (char version : {1, 2, 3, 4, 99}) {
    std::vector<char> bytes = ReadAllBytes(*valid_path_);
    bytes[4] = version;
    std::string path = TempPath("session_bad_version.dcs");
    WriteAllBytes(path, bytes);
    ExpectRejects(path, "version mismatch");
  }
}

// All six phase walls travel through a checkpoint as bit patterns.
TEST_F(SessionRejectTest, CheckpointRoundTripsPhaseWallsExactly) {
  SessionCheckpoint cp = ReadSessionCheckpoint(*valid_path_, *valid_path_);
  EXPECT_GT(cp.walls.move_phase, 0.0) << "two steps ran before the checkpoint";
  cp.walls = {0.1 + 0.2, 1e300, std::numeric_limits<double>::denorm_min(),
              3.0 / 7.0, 0.0, 1.25};
  std::string path = TempPath("session_walls.dcs");
  WriteSessionCheckpoint(cp, path);
  SessionCheckpoint back = ReadSessionCheckpoint(path, path);
  const double want[] = {cp.walls.seeding, cp.walls.move_phase,
                         cp.walls.determine, cp.walls.apply,
                         cp.walls.refine, cp.walls.reseed};
  const double got[] = {back.walls.seeding, back.walls.move_phase,
                        back.walls.determine, back.walls.apply,
                        back.walls.refine, back.walls.reseed};
  EXPECT_EQ(std::memcmp(want, got, sizeof(want)), 0);
}

TEST_F(SessionRejectTest, EndiannessMismatchRejected) {
  std::vector<char> bytes = ReadAllBytes(*valid_path_);
  std::swap(bytes[8], bytes[11]);
  std::string path = TempPath("session_bad_endian.dcs");
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "endianness mismatch");
}

TEST_F(SessionRejectTest, CorruptHeaderFieldRejected) {
  std::vector<char> bytes = ReadAllBytes(*valid_path_);
  bytes[17] ^= 0x5a;  // Rows field: caught by the header checksum.
  std::string path = TempPath("session_bad_header.dcs");
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "header checksum mismatch");
}

TEST_F(SessionRejectTest, CorruptPayloadRejected) {
  std::vector<char> bytes = ReadAllBytes(*valid_path_);
  bytes[bytes.size() - 3] ^= 0x5a;
  std::string path = TempPath("session_bad_payload.dcs");
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "payload checksum mismatch");
}

TEST_F(SessionRejectTest, TruncatedPayloadRejected) {
  std::vector<char> bytes = ReadAllBytes(*valid_path_);
  bytes.resize(bytes.size() - 10);
  std::string path = TempPath("session_trunc_payload.dcs");
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "truncated");
}

TEST_F(SessionRejectTest, TrailingBytesRejected) {
  std::vector<char> bytes = ReadAllBytes(*valid_path_);
  bytes.push_back('x');
  std::string path = TempPath("session_trailing.dcs");
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "truncated");
}

TEST_F(SessionRejectTest, OversizedClusterCountRejected) {
  // A header whose k no payload could hold, with both checksums valid:
  // the reader must name the defect, not die sizing vectors from k.
  std::vector<char> bytes = ReadAllBytes(*valid_path_);
  uint64_t k = uint64_t{1} << 60;
  std::memcpy(bytes.data() + 32, &k, sizeof(k));
  uint64_t header_checksum = storage::Fnv1a64(bytes.data(), 64);
  std::memcpy(bytes.data() + 64, &header_checksum, sizeof(header_checksum));
  std::string path = TempPath("session_huge_k.dcs");
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "cluster count 1152921504606846976 exceeds");
}

TEST_F(SessionRejectTest, MissingFileRejected) {
  EXPECT_THROW(ReadSessionCheckpoint(TempPath("session_no_such_file.dcs"),
                                     "origin"),
               std::runtime_error);
}

TEST_F(SessionRejectTest, UnknownStateRejected) {
  ExpectStructuralReject(
      "session_bad_state.dcs", [](SessionCheckpoint* cp) { cp->state = 7; },
      "unknown state-machine position");
}

TEST_F(SessionRejectTest, UnparseableRngRejected) {
  ExpectStructuralReject(
      "session_bad_rng.dcs",
      [](SessionCheckpoint* cp) { cp->rng_state = "not an engine"; },
      "unparseable RNG engine state");
}

TEST_F(SessionRejectTest, SaveSlotDisagreementRejected) {
  ExpectStructuralReject(
      "session_bad_slots.dcs",
      [](SessionCheckpoint* cp) { cp->stagnant.push_back(0); },
      "save-slot arrays disagree");
}

TEST_F(SessionRejectTest, PendingRestoreWithoutSlotsRejected) {
  ExpectStructuralReject(
      "session_bad_pending.dcs",
      [](SessionCheckpoint* cp) { cp->pending_restore = 1; },
      "pending restore with no reseeded slots");
}

TEST_F(SessionRejectTest, MemberIdOutOfBoundsRejected) {
  ExpectStructuralReject(
      "session_bad_id.dcs",
      [](SessionCheckpoint* cp) {
        cp->clusters[0].rows[0] = static_cast<uint32_t>(cp->rows) + 5;
      },
      "out of bounds");
}

// The config fingerprint every .dcs header carries must not move when
// the config structs change shape: FingerprintConfig hashes the former
// fields min_improvement and seeding.min_rows/min_cols, now constants,
// at their old byte positions, so checkpoints of earlier builds still
// resume. The golden value was computed before those fields became
// constants.
TEST_F(SessionRejectTest, DefaultConfigFingerprintIsStable) {
  EXPECT_EQ(session::FingerprintConfig(FlocConfig(), 100, 20, 5),
            uint64_t{0x894e222cf49d8c8dULL});
}

// -- Resume binding checks --------------------------------------------

TEST_F(SessionRejectTest, ResumeRejectsShapeMismatch) {
  SyntheticConfig sc;
  sc.rows = 61;  // One row off.
  sc.cols = 24;
  sc.num_clusters = 3;
  sc.seed = 7;
  DataMatrix other = GenerateSynthetic(sc).matrix;
  Floc floc(MakeConfig());
  try {
    floc.ResumeSession(other, *valid_path_);
    FAIL() << "expected shape-mismatch rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("matrix shape mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SessionRejectTest, ResumeRejectsMatrixContentMismatch) {
  // Same shape, different data: only the content fingerprint can tell.
  DataMatrix other = MakeData(8, 0.1).matrix;
  Floc floc(MakeConfig());
  try {
    floc.ResumeSession(other, *valid_path_);
    FAIL() << "expected content-mismatch rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("matrix content mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SessionRejectTest, ResumeRejectsConfigFingerprintMismatch) {
  FlocConfig other = MakeConfig();
  other.rng_seed = 999;  // Result-affecting: fingerprint differs.
  Floc floc(other);
  try {
    floc.ResumeSession(data_->matrix, *valid_path_);
    FAIL() << "expected config-mismatch rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("config fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SessionRejectTest, ResumeAcceptsResultNeutralConfigChanges) {
  // Threads, budgets, audit, telemetry may all change across a resume.
  FlocConfig other = MakeConfig();
  other.threads = 8;
  other.audit = true;
  other.deadline_seconds = 3600.0;
  Floc floc(other);
  std::unique_ptr<MiningSession> session =
      floc.ResumeSession(data_->matrix, *valid_path_);
  while (session->Step()) {
  }
  FlocResult resumed = session->Finish();
  ExpectSameResult(Floc(MakeConfig()).Run(data_->matrix), resumed,
                   "result-neutral config changes");
}

// -- RunWithSeeds compliance warning (satellite bugfix) ---------------

TEST(SessionTest, NonCompliantSeedsWarnAndCount) {
  SyntheticDataset data = MakeData(31, 0.5);
  FlocConfig config = MakeConfig();
  config.num_clusters = 1;
  config.constraints.alpha = 0.99;  // Half-missing data cannot satisfy it.

  std::vector<size_t> rows(20), cols(10);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  for (size_t j = 0; j < cols.size(); ++j) cols[j] = j;
  std::vector<Cluster> seeds = {Cluster::FromMembers(
      data.matrix.rows(), data.matrix.cols(), rows, cols)};

  obs::MetricsRegistry::SetEnabled(true);
  obs::Counter* disabled =
      obs::MetricsRegistry::Global().GetCounter("floc.constraints.disabled");
  uint64_t before = disabled->Value();

  testing::internal::CaptureStderr();
  FlocResult result = Floc(config).RunWithSeeds(data.matrix, seeds);
  std::string warning = testing::internal::GetCapturedStderr();
  obs::MetricsRegistry::SetEnabled(false);

  EXPECT_EQ(disabled->Value(), before + 1);
  EXPECT_NE(warning.find("violate the alpha-occupancy constraint"),
            std::string::npos)
      << warning;
  EXPECT_EQ(result.clusters.size(), 1u);
}

// -- Cross-iteration memo reuse (clean-cluster skip) ------------------

// A determination sweep after an apply phase that kept no actions for a
// cluster must serve that cluster's gains from the epoch-stamped memo
// without rescanning it. The floc.sweep.clusters_skipped_clean counter
// only increments for clusters whose membership epoch is unchanged
// since the previous sweep, so any positive delta proves zero-rescan
// sweeps happened. With several clusters and a multi-iteration run,
// most iterations touch only a few clusters, so the skip must fire.
TEST(SessionTest, MemoizedSweepsSkipCleanClusters) {
  SyntheticDataset data = MakeData(47, 0.0);
  FlocConfig config = MakeConfig();
  config.num_clusters = 6;  // More clusters => more stay untouched.

  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  obs::Counter* skipped = obs::MetricsRegistry::Global().GetCounter(
      "floc.sweep.clusters_skipped_clean");
  uint64_t before = skipped->Value();

  FlocResult memoized = Floc(config).Run(data.matrix);
  uint64_t skipped_clean = skipped->Value() - before;
  EXPECT_GT(skipped_clean, 0u)
      << "no sweep served a clean cluster from the memo";

  // The skip is a pure perf optimization: an audited run, which
  // DC_CHECKs every served memo entry bit-equal to a rescan, must mine
  // the same clusters.
  FlocConfig audited = config;
  audited.audit = true;
  ExpectSameResult(Floc(audited).Run(data.matrix), memoized,
                   "memoized clean-skip vs audited rescan");

  obs::MetricsRegistry::SetEnabled(was_enabled);
}

// A ReanchorCluster adoption is a freshly built workspace, so the
// refine stage must not rebuild it again when the sweeps leave it alone.
// The fixture is the poisoned fragment of tests/floc_refine_test.cc: a
// perfect planted block seeded as all its rows plus three junk rows on
// two of its columns. The wholesale re-pick lands on the block, after
// which no single toggle gains. A redundant rebuild drops the adopted
// pane, so the refine-end scores (or Finish) rebuild it once more: that
// extra floc.pane.rebuilds is what this test pins down. The run is
// audited explicitly, so the count does not depend on DELTACLUS_AUDIT:
// each adoption then builds two panes (the candidate's and the audit's
// from-scratch reference), and the audited boundary check requires the
// adopted stats to equal a Build() exactly.
TEST(SessionTest, ReanchoredClusterIsNotRebuiltAtRefineEnd) {
  Rng rng(3);
  DataMatrix matrix(200, 25);
  for (size_t i = 0; i < 200; ++i) {
    for (size_t j = 0; j < 25; ++j) matrix.Set(i, j, rng.Uniform(0.0, 600.0));
  }
  std::vector<size_t> block_rows;
  for (size_t i = 0; i < 40; ++i) block_rows.push_back(i);
  PlantShiftCluster(&matrix,
                    Cluster::FromMembers(200, 25, block_rows, {0, 1, 2, 3, 4, 5}),
                    300.0, 50.0, 0.0, rng);
  std::vector<size_t> seed_rows = block_rows;
  seed_rows.insert(seed_rows.end(), {150, 151, 152});
  Cluster seed = Cluster::FromMembers(200, 25, seed_rows, {0, 1});

  FlocConfig config;
  config.target_residue = 1.0;
  config.perform_negative_actions = false;
  config.max_iterations = 0;  // straight to the refine stage
  config.refine_passes = 2;
  config.constraints.min_cols = 2;
  config.rng_seed = 4;
  config.audit = true;

  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* rebuilds = registry.GetCounter("floc.pane.rebuilds");
  obs::Counter* toggles = registry.GetCounter("floc.refine.toggles");

  Floc floc(config);
  std::unique_ptr<MiningSession> s =
      floc.StartSessionWithSeeds(matrix, {seed});
  ASSERT_TRUE(s->Step());  // the capped move phase hands over to refine
  ASSERT_EQ(s->Status().state, SessionState::kRefine);
  uint64_t rebuilds_before = rebuilds->Value();
  uint64_t toggles_before = toggles->Value();
  ASSERT_TRUE(s->Step());
  ASSERT_EQ(s->Status().state, SessionState::kReseedCheck);
  FlocResult result = s->Finish();
  uint64_t refine_rebuilds = rebuilds->Value() - rebuilds_before;
  uint64_t refine_toggles = toggles->Value() - toggles_before;
  obs::MetricsRegistry::SetEnabled(was_enabled);

  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_GE(result.clusters[0].NumCols(), 5u) << "reanchor did not adopt";
  EXPECT_EQ(refine_toggles, 0u) << "the sweep toggled the adopted cluster";
  EXPECT_EQ(refine_rebuilds, 2u)
      << "the adopted cluster was rebuilt again at the end of refinement";
}

// A cluster wider than a packed pane can address (kMaxPaneCols columns)
// is refused at the session entry points with a named limit, before
// Phase-1 seeding or any mining step runs.
TEST(SessionEntryTest, ClusterWiderThanAPaneIsRefusedBeforeMining) {
  const size_t wide = kMaxPaneCols + 1;
  DataMatrix matrix(2, wide, 1.0);
  // Spans ever recorded, the ones a full ring overwrote included.
  auto spans_recorded = [] {
    const obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    return recorder.size() + recorder.dropped();
  };
  auto expect_refused = [&](auto&& open) {
    obs::TraceRecorder::SetEnabled(true);
    uint64_t spans_before = spans_recorded();
    try {
      open();
      ADD_FAILURE() << "expected the cluster width limit";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("cluster width limit"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxPaneCols)),
                std::string::npos)
          << e.what();
    }
    // No span -- Phase-1 seeding's included -- ran before the refusal.
    EXPECT_EQ(spans_recorded(), spans_before);
    obs::TraceRecorder::SetEnabled(false);
  };

  FlocConfig config = MakeConfig();
  config.num_clusters = 1;
  // Unbounded max_cols on a matrix wider than a pane.
  expect_refused([&] { Floc(config).StartSession(matrix); });
  expect_refused([&] {
    Floc(config).RunWithSeeds(matrix,
                              {Cluster::FromMembers(2, wide, {0, 1}, {0, 1})});
  });

  // With max_cols bounded, only a seed that is already too wide fails.
  config.constraints.max_cols = kMaxPaneCols;
  std::vector<size_t> all_cols(wide);
  for (size_t j = 0; j < wide; ++j) all_cols[j] = j;
  expect_refused([&] {
    Floc(config).StartSessionWithSeeds(
        matrix, {Cluster::FromMembers(2, wide, {0, 1}, all_cols)});
  });
  // A resumed cluster is checked like a caller's seed: widen the one
  // cluster of a valid checkpoint past the limit, then resume it.
  Floc bounded(config);
  std::string path = TempPath("session_too_wide.dcs");
  bounded.StartSession(matrix)->Checkpoint(path);
  SessionCheckpoint cp = ReadSessionCheckpoint(path, path);
  cp.clusters[0].cols.resize(wide);
  for (size_t j = 0; j < wide; ++j) {
    cp.clusters[0].cols[j] = static_cast<uint32_t>(j);
  }
  WriteSessionCheckpoint(cp, path);
  expect_refused([&] { Floc(config).ResumeSession(matrix, path); });
}

}  // namespace
}  // namespace deltaclus
