// MiningSession: FLOC's Phase-2 driver loop lifted into an explicit,
// stepwise state machine -- the same algorithm Floc::RunWithSeeds always
// ran, but with the control flow inverted so the *caller* owns the loop:
//
//   auto session = Floc(config).StartSession(matrix);
//   while (session->Step()) { /* observe Status(), maybe Checkpoint() */ }
//   FlocResult result = session->Finish();
//
// The machine has four states, stepping one bounded unit of work each:
//
//             +--(improved)--+
//             v              |
//   kMovePhase --(converged)--> kRefine --> kReseedCheck --> kDone
//        ^                                      |
//        +------(stagnant slots reseeded)-------+
//
//   kMovePhase    one Phase-2 iteration (determine / order / apply /
//                 rewind to the kept prefix); loops until non-improving
//                 or the per-phase max_iterations cap.
//   kRefine       the whole refinement stage (reanchor + refine sweeps),
//                 plus restore-worse bookkeeping when a reseed round is
//                 pending.
//   kReseedCheck  stagnation detection; either reseeds the stagnant
//                 slots and loops back to kMovePhase or terminates.
//   kDone         terminal; Step() returns false.
//
// Budgets are checked at Step() boundaries only: a wall-clock deadline
// (FlocConfig::deadline_seconds), a total-iteration cap
// (max_total_iterations), and a cooperative StopToken (config.stop).
// The stop token is additionally polled inside the parallel
// determination sweep at engine shard-claim boundaries, so a
// cancellation lands within one shard's latency; a sweep interrupted
// that way is discarded *wholesale* (its iteration never happened --
// not counted, not logged) because completed shards of a partial sweep
// are bit-identical but the incomplete action vector must never feed
// the apply phase. Either way the session stops with a valid,
// reproducible best-so-far clustering and stop_reason() set; Finish()
// threads the reason into PerfReport::stopped_reason.
//
// At every Step() boundary the live views *are* the best clustering,
// and every view's ClusterStats equal a from-scratch Build() of its
// membership (FLOC keeps best_clustering and stops when an iteration
// fails to improve it). Each move sweep ends by rewinding to its kept
// prefix -- the selector's best prefix on an improving sweep, nothing on
// the final non-improving one -- and rebuilding every cluster an applied
// action touched; refinement ends by rebuilding every cluster toggled
// since it was last canonical (a ReanchorCluster adoption is a fresh
// Build, so it counts as canonical); reseeding and the restore-worse
// check rebuild what they replace. Audit mode DC_CHECKs this invariant
// exactly at every boundary and after a restore.
//
// Checkpoint()/Floc::ResumeSession() serialize the session at a step
// boundary into the .dcs format (src/session/session_format.h). The
// determinism argument for byte-identical resume: everything a later
// step consumes is a pure function of (memberships, RNG state, machine
// position), and the checkpoint captures all three exactly -- one
// membership list (the live views, which are the best clustering), the
// mt19937_64 engine via its standard textual serialization, and scalar
// doubles as bit patterns. Restore is a plain Build of each membership,
// which reproduces the canonical stats bit-for-bit. Derived state --
// scores, the constraint tracker (integer occupancy tallies), gain memo,
// packed panes, residue caches -- is rebuilt on restore and matches
// bit-for-bit: scores are pure functions of the rebuilt stats, and the
// epoch-stamped caches of a restored workspace simply start cold,
// recomputing exactly what a warm one would have served.
#ifndef DELTACLUS_SESSION_MINING_SESSION_H_
#define DELTACLUS_SESSION_MINING_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/cluster_workspace.h"
#include "src/core/constraints.h"
#include "src/core/floc.h"
#include "src/core/floc_phases.h"
#include "src/core/gain_memo.h"
#include "src/core/residue.h"
#include "src/obs/clock.h"
#include "src/obs/telemetry.h"
#include "src/session/session_format.h"
#include "src/util/rng.h"

namespace deltaclus::session {

/// The state machine's position. Serialized into checkpoints by value;
/// stable across versions of the same .dcs format version.
enum class SessionState : uint32_t {
  kMovePhase = 0,
  kRefine = 1,
  kReseedCheck = 2,
  kDone = 3,
};

const char* SessionStateName(SessionState state);

/// Why a session stopped before natural convergence. kNone means it ran
/// (or is still running) to completion.
enum class StopReason : uint8_t {
  kNone = 0,
  kDeadline,
  kIterationCap,
  kCancelled,
};

/// "" / "deadline" / "iteration_cap" / "cancelled" -- the exact strings
/// PerfReport::stopped_reason carries.
const char* StopReasonName(StopReason reason);

/// A point-in-time snapshot of a session's progress and memory ledger,
/// cheap to take between steps (a handful of loads plus one pane-size
/// sum). Serializable as a single-line JSON document for dashboards and
/// tools/dcstat.py ("kind": "session_status").
struct SessionStatus {
  SessionState state = SessionState::kDone;
  StopReason stop_reason = StopReason::kNone;
  uint64_t round = 0;       ///< Reseed round (0 = initial pass).
  uint64_t iterations = 0;  ///< Phase-2 iterations executed so far.
  double best_average_score = 0.0;
  uint64_t memo_resident_bytes = 0;  ///< Gain-memo entry table bytes.
  uint64_t pane_bytes = 0;           ///< Packed panes across all views.
  double elapsed_seconds = 0.0;      ///< Including pre-resume segments.
  bool done = false;

  void WriteJson(std::ostream& out) const;
  std::string Json() const;
};

/// One stepwise FLOC Phase-2 run. Obtained from Floc::StartSession /
/// StartSessionWithSeeds / ResumeSession; borrows the Floc's config,
/// pool and perf window, and the matrix (the Floc and the matrix must
/// outlive it; the Floc must not run anything else while the session
/// lives). Single-threaded driver object: all methods must be called
/// from one thread (the config's StopToken is the one cross-thread
/// signal, fired from anywhere).
class MiningSession {
 public:
  ~MiningSession();
  MiningSession(const MiningSession&) = delete;
  MiningSession& operator=(const MiningSession&) = delete;

  /// Executes one state-machine step. Returns true while there is more
  /// work; false once the run converged (done()) or a budget stopped it
  /// (stop_reason() != kNone). Stopped sessions keep their machine
  /// position, so Checkpoint() + ResumeSession() continues exactly
  /// where the budget cut in.
  bool Step();

  /// Terminal-state query: natural convergence reached.
  bool done() const { return state_ == SessionState::kDone; }

  /// Why Step() started returning false before kDone; kNone otherwise.
  StopReason stop_reason() const { return stop_reason_; }

  /// Progress/memory snapshot (see SessionStatus).
  SessionStatus Status() const;

  /// Finalizes and returns the result -- valid at any step boundary:
  /// after natural convergence this is exactly what Run() returns; after
  /// a budget stop it is the best clustering found so far, with
  /// stopped_reason set in the perf report. The session is consumed:
  /// Step()/Checkpoint() refuse afterwards.
  FlocResult Finish();

  /// Serializes the session's resumable state to `path` (atomic
  /// write-then-rename, .dcs format). Callable at any step boundary of
  /// an unfinished session; throws std::logic_error after Finish() and
  /// std::runtime_error on I/O failure.
  void Checkpoint(const std::string& path) const;

 private:
  friend class deltaclus::Floc;

  /// Builds the session from seeds; `restore_from` non-null (Floc::
  /// ResumeSession path, whose seeds are the checkpoint's memberships)
  /// takes the machine position, RNG state, seeding seconds and reseed
  /// bookkeeping from the decoded checkpoint and suppresses the
  /// seed-compliance scan. `config`, `pool` and `perf_accounting` are
  /// the opening Floc's (see the members below).
  MiningSession(const FlocConfig& config, engine::ThreadPool* pool,
                std::optional<obs::PerfAccounting>* perf_accounting,
                const DataMatrix& matrix, std::vector<Cluster> seeds,
                double seeding_seconds, const SessionCheckpoint* restore_from);

  void StepMove();
  void StepRefine();
  void StepReseedCheck();

  double RecomputeScores();
  void SnapshotBest();
  void AuditBoundary(const char* context) const;
  double ElapsedSeconds() const;
  bool BudgetStop();

  const DataMatrix& matrix_;
  const FlocConfig& config_;
  engine::ThreadPool* pool_;

  // The run's metrics/trace delta window, owned by the opening Floc.
  // StartSession opens it before Phase-1 seeding, so the report covers
  // seeding too; the constructor opens it when nobody did, and Finish()
  // reads and closes it. A session dropped without Finish() leaves it
  // open, so a ResumeSession continuing the run on the same Floc
  // reports the counter deltas of every segment since StartSession.
  std::optional<obs::PerfAccounting>* perf_accounting_;

  size_t k_ = 0;
  Rng rng_;
  obs::TelemetryCollector collector_;
  ResidueEngine engine_;
  GainMemo gain_memo_;
  GainDeterminer determiner_;

  std::vector<ClusterWorkspace> views_;
  ConstraintTracker tracker_;
  std::vector<double> scores_;
  double score_sum_ = 0.0;
  double best_average_ = 0.0;  ///< score_sum_ / k_ of the best clustering.

  SessionState state_ = SessionState::kMovePhase;
  StopReason stop_reason_ = StopReason::kNone;
  bool stopped_ = false;
  bool finished_ = false;
  uint64_t round_ = 0;
  size_t move_iteration_ = 0;

  // Reseed bookkeeping carried between StepReseedCheck and the StepRefine
  // that closes the round (restore-worse check).
  bool pending_restore_ = false;
  std::vector<size_t> stagnant_;
  std::vector<Cluster> saved_;
  std::vector<double> saved_scores_;

  // Cross-iteration memo reuse. The rewind rebuilds only the clusters an
  // applied action touched, so every other cluster keeps its epoch, and
  // with it its residue cache, packed pane and every (entity, cluster)
  // gain-memo stripe into the next determination sweep.
  // last_sweep_epoch_[c] remembers the epoch the previous sweep
  // determined against; a matching epoch entering the next sweep counts
  // floc.sweep.clusters_skipped_clean (the memo serves that cluster's
  // untouched gains without a rescan).
  std::vector<uint64_t> last_sweep_epoch_;

  // FingerprintMatrix of matrix_, computed by the first Checkpoint() (or
  // taken from the checkpoint ResumeSession verified), so a session that
  // checkpoints every step digests the matrix once.
  mutable std::optional<uint64_t> matrix_fingerprint_;

  bool seeds_compliant_ = true;
  // Whether audit mode also re-validates alpha-occupancy after each
  // toggle: set only when the initial clustering complied (FLOC
  // preserves occupancy but cannot establish it). Passed to every phase
  // that audits its toggles.
  bool audit_occupancy_ = false;

  FlocResult result_;
  Stopwatch stopwatch_;
  double prior_elapsed_seconds_ = 0.0;  ///< From pre-resume segments.
  // Wall seconds of each perf-report phase, summed once here as the
  // steps run and handed to the perf report by Finish(). A resumed
  // session starts from the checkpoint's walls, so they cover every
  // segment, like ElapsedSeconds().
  PhaseWalls walls_;
};

}  // namespace deltaclus::session

#endif  // DELTACLUS_SESSION_MINING_SESSION_H_
