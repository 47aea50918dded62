// FLOC: FLexible Overlapped Clustering (paper Sections 4 and 5).
//
// A randomized move-based approximation algorithm for the NP-hard problem
// of finding the k delta-clusters with the lowest average residue.
//
// Phase 1 seeds k clusters randomly (see seeding.h). Phase 2 iterates:
//   1. For every row and column x, determine the best of the k candidate
//      actions Action(x, c) -- the membership toggle with the highest
//      gain (residue reduction of the affected cluster). Actions that
//      would violate a constraint are blocked (gain = -inf).
//   2. Perform the N + M best actions sequentially, in a fixed, random,
//      or gain-weighted random order. Negative-gain actions are performed
//      too: a temporary quality degradation may enable a bigger gain
//      later.
//   3. Of the N + M intermediate clusterings, remember the one with the
//      lowest average residue. If it beats the best clustering seen so
//      far, it becomes the starting point of the next iteration;
//      otherwise FLOC terminates and returns the best clustering.
//
// The four steps, and the refinement stage after them, are separate
// phase components (src/core/floc_phases.h: GainDeterminer,
// MakeActionOrder, ActionApplier, BestPrefixSelector, RefineSweep,
// ReanchorCluster) running on the execution engine
// (src/engine/thread_pool.h). A MiningSession (src/session/) drives
// them step by step; Floc is the configured factory that opens
// sessions. The dependency is one-way: the session reads Floc's config,
// pool and perf window through its constructor and never calls back.
// See DESIGN.md "The execution engine" and "The session layer".
#ifndef DELTACLUS_CORE_FLOC_H_
#define DELTACLUS_CORE_FLOC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/constraints.h"
#include "src/core/data_matrix.h"
#include "src/core/ordering.h"
#include "src/core/residue.h"
#include "src/core/seeding.h"
#include "src/obs/perf_report.h"
#include "src/obs/telemetry.h"
#include "src/util/rng.h"
#include "src/util/stop_token.h"

namespace deltaclus {

namespace engine {
class ThreadPool;
}  // namespace engine

namespace session {
class MiningSession;
struct SessionCheckpoint;
}  // namespace session

/// Absolute improvement floor: an iteration must lower the best average
/// score, a refinement toggle or re-pick must lower a cluster's score,
/// and a reseeded slot must beat its saved score by more than this to
/// count as an improvement.
inline constexpr double kMinImprovement = 1e-9;

/// Tuning knobs for one FLOC run.
struct FlocConfig {
  /// Number k of clusters to discover.
  size_t num_clusters = 10;

  /// Phase-1 seed generation parameters.
  SeedingConfig seeding;

  /// Model/user constraints; violating actions are blocked.
  Constraints constraints;

  /// Order in which the N + M best actions are performed each iteration.
  /// The paper's Table 4 shows weighted random is the strongest choice.
  ActionOrdering ordering = ActionOrdering::kWeightedRandom;

  /// Target residue r of the paper's "r-residue delta-cluster" concept
  /// (Section 3). 0 keeps the paper's literal objective: minimize the
  /// average residue, full stop. A positive value switches FLOC to
  /// mining *maximal r-residue clusters*: each cluster is scored by
  ///   score(c) = residue(c) - r * ln(volume(c)),
  /// whose logarithmic volume reward grants ~r/volume per absorbed entry
  /// -- so a toggle is score-positive exactly when the entries it adds
  /// cost less than ~r of residue each relative to the cluster's
  /// coherence, independent of the cluster's current size. Pure residue
  /// minimization is degenerate: tiny clusters have residue near 0, so
  /// without a volume incentive the search shrinks every cluster to the
  /// minimum allowed size; the paper's own evaluation (clusters of
  /// volume 2000+, aggregated volume 20% above Cheng & Church) is only
  /// reachable with volume-seeking behaviour.
  double target_residue = 0.0;

  /// Hard cap on Phase-2 iterations (the paper observes ~5-11 in
  /// practice; the cap is a safety net, not a tuning knob).
  size_t max_iterations = 100;

  /// Optional *relative* convergence tolerance: when > 0, an iteration
  /// only counts as improving if it lowers the best average score by
  /// more than this fraction of its current value. The paper's iteration
  /// counts (5-11, Table 2) correspond to a coarse notion of "no further
  /// improvement"; with an exact zero tolerance the move phase keeps
  /// finding microscopic gains for dozens of extra iterations.
  double relative_improvement = 0.0;

  /// If true (default), each row/column's action is re-decided against
  /// the *current* clustering state when its turn comes in the apply
  /// sweep ("each object and attribute is examined sequentially; the
  /// best action ... is decided and performed", Section 1); the gains
  /// computed at the start of the iteration are used for action ordering.
  /// If false, the actions decided at the start of the iteration are
  /// applied verbatim even though earlier actions may have invalidated
  /// them -- the most literal reading of the Figure 5 flowchart, kept as
  /// an ablation. Stale decisions converge visibly worse.
  bool fresh_gains_at_apply = true;

  /// The paper performs a row/column's best action even when its gain is
  /// negative, hoping the temporary degradation enables a bigger gain
  /// later (Section 4.1) -- the per-action best-prefix snapshot bounds
  /// the damage. Setting this to false skips non-positive actions,
  /// turning each iteration into a greedy coordinate-ascent sweep; with
  /// few clusters (small k) this converges far more reliably because a
  /// forced full sweep of mostly-negative toggles otherwise destroys a
  /// good clustering faster than the snapshot can save it.
  bool perform_negative_actions = true;

  /// Simulated-annealing middle ground between the paper's
  /// always-perform-negatives and the greedy skip (only consulted when
  /// perform_negative_actions is false): a negative-gain action is
  /// performed with probability exp(gain / T), where T starts at this
  /// temperature and decays by 20% per iteration. 0 disables. Formalizes
  /// the paper's rationale that "the (temporary) degradation of the
  /// cluster quality may lead to an ultimate (bigger) improvement" while
  /// bounding how much degradation is admitted as the run converges.
  double annealing_temperature = 0.0;

  /// Number of restart rounds (0 disables). After the move phase and
  /// refinement converge, clusters that remain *stagnant* -- residue
  /// worse than 2x target_residue, i.e. random seeds that never locked
  /// onto coherent structure -- are re-seeded randomly and the move
  /// phase + refinement rerun; a slot is restored to its previous
  /// contents if the restart left it worse. Each round costs roughly one
  /// extra FLOC run over the stagnant slots and geometrically increases
  /// the fraction of true clusters captured. Only meaningful with
  /// target_residue > 0.
  size_t reseed_rounds = 0;

  /// Number of cluster-centric refinement sweeps run after the move-based
  /// phase terminates (0 disables). FLOC's actions are row/column-centric
  /// -- each row performs its single best action per iteration -- which
  /// converges to high-precision *fragments* of the true clusters: a
  /// fragment's missing rows rarely choose it because their tiny join
  /// gain loses to larger gains elsewhere. A refinement sweep flips the
  /// perspective: for each cluster in turn, all candidate toggles are
  /// ranked by this cluster's score gain and every (re-validated)
  /// positive one is applied, growing each fragment to its cluster's
  /// natural boundary. This mirrors the node-addition/deletion phases of
  /// Cheng & Church, driven by the delta-cluster objective, and is what
  /// lets the implementation reach the paper's reported recall/precision
  /// levels. Constraints are enforced throughout.
  size_t refine_passes = 2;

  /// Seed for all randomness (seeding, ordering).
  uint64_t rng_seed = 1;

  /// Wall-clock budget in seconds (0 disables). Checked at session Step()
  /// boundaries only: the run stops *between* deterministic iterations
  /// with the best clustering found so far and stopped_reason "deadline"
  /// in the perf report. Because the check sits at step
  /// granularity, a run may overshoot the deadline by up to one
  /// iteration; it never truncates work mid-iteration, which is what
  /// keeps every produced clustering a valid, reproducible state.
  double deadline_seconds = 0.0;

  /// Cap on *total* Phase-2 iterations across every move phase and reseed
  /// round of the run (0 disables). Unlike max_iterations -- the paper's
  /// per-move-phase convergence cap -- this is a session budget: when the
  /// running iteration count reaches it the session stops at the next
  /// step boundary with stopped_reason "iteration_cap", returning the
  /// best clustering so far. The natural checkpoint knob: run N
  /// iterations, checkpoint, resume later.
  size_t max_total_iterations = 0;

  /// Optional cooperative cancellation token (non-owning; must outlive
  /// the run). May be fired from any thread; the run polls it at session
  /// step boundaries and at engine shard-claim boundaries, stopping with
  /// stopped_reason "cancelled" and the best clustering found so far.
  /// See src/util/stop_token.h for why this cannot perturb results.
  const StopToken* stop = nullptr;

  /// Worker-thread count of the execution engine (gain determination,
  /// seeding anchor search). 1 = fully sequential; 0 = use
  /// std::thread::hardware_concurrency(). Results are bit-identical for
  /// any thread count: the engine shards work independently of the
  /// worker count and merges per-shard results in shard order (see
  /// src/engine/thread_pool.h and DESIGN.md "The execution engine").
  int threads = 1;

  /// Optional externally owned thread pool shared across runs (the CLI
  /// and bench drivers construct one and reuse it). Non-owning; must
  /// outlive every Run. When null, Floc lazily creates its own pool of
  /// ResolveThreads(threads) workers on first use and reuses it across
  /// Run() calls. When set, it wins over `threads`.
  engine::ThreadPool* pool = nullptr;

  /// Invariant-audit mode. When true, after every performed action the
  /// affected cluster's volume, row/column bases, and residue are
  /// recomputed from scratch and DC_CHECKed against the incrementally
  /// maintained ClusterStats (see src/core/audit.h), and the
  /// alpha-occupancy constraint is re-validated on its rows and columns
  /// -- turning latent drift bugs into immediate, located fatal
  /// failures. Costs O(volume) extra per action; meant for tests and
  /// debugging, not production runs. The environment variable
  /// DELTACLUS_AUDIT=1 forces this on at construction time, which is how
  /// scripts/check.sh runs the whole FLOC test suite under audit.
  bool audit = false;

  /// How much the run records about its own dynamics (see
  /// src/obs/telemetry.h). kOff costs nothing beyond a branch per
  /// iteration; kSummary records per-iteration scalars; kFull adds
  /// per-cluster residue/volume trajectories and gain histograms.
  obs::TelemetryLevel telemetry = obs::TelemetryLevel::kOff;

  /// Optional streaming consumer of iteration records (e.g.
  /// obs::JsonlTelemetrySink). Non-owning; must outlive the run. Only
  /// consulted when `telemetry` != kOff.
  obs::TelemetrySink* telemetry_sink = nullptr;

  /// Returns a human-readable description of every inconsistency in this
  /// configuration (empty = valid). Floc's constructor throws
  /// std::invalid_argument listing them.
  std::vector<std::string> Validate() const;
};

/// Result of a FLOC run.
struct FlocResult {
  /// The k discovered clusters (best clustering encountered).
  std::vector<Cluster> clusters;
  /// Residue of each cluster, aligned with `clusters`.
  std::vector<double> residues;
  /// Average residue over the k clusters (the optimization objective).
  double average_residue = 0.0;
  /// Phase-2 iterations executed, including the final non-improving one
  /// (the paper's iteration counts in Table 2 follow this convention).
  size_t iterations = 0;
  /// Wall-clock seconds of Phase 2 and after, summed over every session
  /// segment of the run. Excludes Phase-1 seeding; perf.total_seconds
  /// includes it.
  double elapsed_seconds = 0.0;
  /// Run telemetry (see FlocConfig::telemetry): the per-iteration log
  /// and its two summaries, empty at kOff.
  obs::RunTelemetry telemetry;
  /// End-of-run performance attribution (see src/obs/perf_report.h):
  /// phase walls, the stop reason and the iteration count, always
  /// populated; kernel counters and latency quantiles only when metrics
  /// were enabled for the run (perf.metrics_valid), per-phase CPU only
  /// when tracing was on.
  obs::PerfReport perf;
};

/// The FLOC algorithm. Construct once per configuration; Run() may be
/// invoked repeatedly (each call re-seeds from config.rng_seed and
/// reuses the lazily created thread pool).
class Floc {
 public:
  explicit Floc(FlocConfig config);
  ~Floc();

  Floc(const Floc&) = delete;
  Floc& operator=(const Floc&) = delete;
  Floc(Floc&&) = default;
  Floc& operator=(Floc&&) = default;

  /// Runs both phases on `matrix`. Equivalent to StartSession() stepped
  /// to completion; budget fields of the config (deadline, iteration
  /// cap, stop token) are honoured.
  FlocResult Run(const DataMatrix& matrix);

  /// Runs Phase 2 from caller-provided seed clusters (used by the
  /// experiments that control the initial-volume distribution, and by
  /// tests). `seeds.size()` overrides config.num_clusters.
  FlocResult RunWithSeeds(const DataMatrix& matrix,
                          std::vector<Cluster> seeds);

  /// Every entry point below (and Run/RunWithSeeds above) throws
  /// std::invalid_argument naming the limit, before any mining starts,
  /// when a cluster could outgrow a packed pane (kMaxPaneCols columns):
  /// when both matrix.cols() and constraints.max_cols exceed it, or
  /// when an initial cluster is already wider.
  ///
  /// Opens a stepwise mining session: Phase-1 seeding runs eagerly, then
  /// the returned session owns the Phase-2 state machine -- call Step()
  /// until it returns false, then Finish() (see
  /// src/session/mining_session.h for the full contract, including
  /// Checkpoint()). The session borrows this Floc and `matrix`; both
  /// must outlive it, and the Floc must not run anything else while the
  /// session is live.
  std::unique_ptr<session::MiningSession> StartSession(
      const DataMatrix& matrix);

  /// StartSession() from caller-provided seed clusters (the session
  /// analogue of RunWithSeeds; `seeds.size()` overrides
  /// config.num_clusters).
  std::unique_ptr<session::MiningSession> StartSessionWithSeeds(
      const DataMatrix& matrix, std::vector<Cluster> seeds);

  /// Reopens a session from a checkpoint file written by
  /// MiningSession::Checkpoint(). `matrix` must be the same data and the
  /// config must agree with the checkpointing run on every
  /// result-affecting field (enforced via a config fingerprint in the
  /// checkpoint header; threads/pool/audit/telemetry/budgets may
  /// differ). Stepping the returned session to completion produces
  /// byte-identical output to the uninterrupted run. Throws
  /// std::runtime_error naming the defect for invalid checkpoints.
  std::unique_ptr<session::MiningSession> ResumeSession(
      const DataMatrix& matrix, const std::string& checkpoint_path);

 private:
  // Constructs the session every public entry point returns. Phase-1
  // seconds measured by StartSession (0 for caller-provided seeds)
  // become the session's seeding time; `restore_from` non-null is the
  // ResumeSession path.
  std::unique_ptr<session::MiningSession> OpenSession(
      const DataMatrix& matrix, std::vector<Cluster> seeds,
      double seeding_seconds, const session::SessionCheckpoint* restore_from);

  // The thread pool every parallel phase of this Floc runs on: the
  // injected config_.pool when set, otherwise a lazily created pool of
  // ResolveThreads(config_.threads) workers owned by this instance and
  // reused across Run() calls. Null means fully serial.
  engine::ThreadPool* EnsurePool();

  FlocConfig config_;

  std::unique_ptr<engine::ThreadPool> owned_pool_;

  // Per-run metrics/trace delta window for the perf report, lent to each
  // session (see MiningSession::perf_accounting_). StartSession opens it
  // before seeding so seed-repair pool work is attributed to the run;
  // otherwise the session opens it. Finish() closes it, so a session
  // dropped unfinished leaves it open for the ResumeSession that
  // continues the run.
  std::optional<obs::PerfAccounting> perf_accounting_;
};

/// Average of per-cluster residues for a set of clusters (utility shared
/// by experiments and tests).
double AverageResidue(const DataMatrix& matrix,
                      const std::vector<Cluster>& clusters,
                      ResidueNorm norm = ResidueNorm::kMeanAbsolute);

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_FLOC_H_
