#include "src/session/mining_session.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/audit.h"
#include "src/core/floc_metrics.h"
#include "src/core/seeding.h"
#include "src/engine/thread_pool.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace deltaclus::session {

namespace {

// Registry handles for the session-layer metric family (the core FLOC
// family lives in src/core/floc_metrics.h). Same discipline: resolved
// once, stable pointers, relaxed no-op increments while disabled.
struct SessionMetrics {
  obs::Counter* steps;
  obs::Counter* checkpoints_written;
  obs::Counter* restores;
  obs::Counter* constraints_disabled;
  obs::Gauge* memo_resident_bytes;

  static const SessionMetrics& Get() {
    static const SessionMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return SessionMetrics{
          r.GetCounter("floc.session.steps"),
          r.GetCounter("floc.session.checkpoints_written"),
          r.GetCounter("floc.session.restores"),
          r.GetCounter("floc.constraints.disabled"),
          r.GetGauge("floc.session.memo_resident_bytes"),
      };
    }();
    return m;
  }
};

Cluster ClusterFromMembers(const DataMatrix& matrix,
                           const ClusterMembers& members) {
  return Cluster::FromMembers(
      matrix.rows(), matrix.cols(),
      std::vector<size_t>(members.rows.begin(), members.rows.end()),
      std::vector<size_t>(members.cols.begin(), members.cols.end()));
}

ClusterMembers MembersOf(const Cluster& cluster) {
  ClusterMembers m;
  m.rows = cluster.row_ids();
  m.cols = cluster.col_ids();
  return m;
}

}  // namespace

const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kMovePhase:
      return "move_phase";
    case SessionState::kRefine:
      return "refine";
    case SessionState::kReseedCheck:
      return "reseed_check";
    case SessionState::kDone:
      return "done";
  }
  return "unknown";
}

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kIterationCap:
      return "iteration_cap";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "";
}

void SessionStatus::WriteJson(std::ostream& out) const {
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Key("kind").String("session_status");
  w.Key("state").String(SessionStateName(state));
  w.Key("stopped_reason").String(StopReasonName(stop_reason));
  w.Key("round").Uint(round);
  w.Key("iterations").Uint(iterations);
  w.Key("best_average_score").Number(best_average_score);
  w.Key("memo_resident_bytes").Uint(memo_resident_bytes);
  w.Key("pane_bytes").Uint(pane_bytes);
  w.Key("elapsed_seconds").Number(elapsed_seconds);
  w.Key("done").Bool(done);
  w.EndObject();
  out << "\n";
}

std::string SessionStatus::Json() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

MiningSession::MiningSession(
    const FlocConfig& config, engine::ThreadPool* pool,
    std::optional<obs::PerfAccounting>* perf_accounting,
    const DataMatrix& matrix, std::vector<Cluster> seeds,
    double seeding_seconds, const SessionCheckpoint* restore_from)
    : matrix_(matrix),
      config_(config),
      pool_(pool),
      perf_accounting_(perf_accounting),
      k_(seeds.size()),
      rng_(config.rng_seed ^ 0x5eedf10cULL),
      collector_(config.telemetry, config.telemetry_sink),
      determiner_(config.target_residue, pool, engine::kSerialCutoff,
                  &gain_memo_, config.audit),
      tracker_(matrix, config.constraints),
      walls_{seeding_seconds} {
  // Samples the registry counters now (unless StartSession already did,
  // before seeding) so the perf report reflects only this run's deltas.
  if (!*perf_accounting_) perf_accounting_->emplace();

  if (k_ == 0) {
    state_ = SessionState::kDone;
    return;
  }

  gain_memo_.Configure(matrix.rows(), matrix.cols(), k_);
  SessionMetrics::Get().memo_resident_bytes->Set(
      static_cast<double>(gain_memo_.bytes()));

  views_.reserve(k_);
  for (Cluster& seed : seeds) {
    views_.emplace_back(matrix, std::move(seed));
  }
  tracker_.Rebuild(views_);

  // Initial-clustering occupancy compliance. FLOC's action blocking
  // *preserves* alpha-occupancy but cannot establish it, so a caller
  // handing non-compliant seeds (only possible via RunWithSeeds /
  // StartSessionWithSeeds -- Phase 1 repairs its own) gets one explicit
  // warning instead of silently unenforceable constraints; audit mode's
  // occupancy re-validation is disabled for the run either way, exactly
  // as before, since it would fail on the callers' own clusters.
  seeds_compliant_ = true;
  if (config_.constraints.alpha > 0.0 && restore_from == nullptr) {
    size_t violating = 0;
    for (const ClusterWorkspace& v : views_) {
      if (!OccupancySatisfied(matrix, v.cluster(),
                              config_.constraints.alpha)) {
        ++violating;
      }
    }
    seeds_compliant_ = violating == 0;
    if (!seeds_compliant_) {
      SessionMetrics::Get().constraints_disabled->Inc();
      std::cerr << "deltaclus: warning: " << violating << " of " << k_
                << " initial clusters violate the alpha-occupancy "
                   "constraint (alpha="
                << config_.constraints.alpha
                << "); FLOC preserves compliance but cannot establish it, "
                   "and audit-mode occupancy re-validation is disabled for "
                   "this run\n";
    }
  }

  scores_.resize(k_);
  score_sum_ = RecomputeScores();
  SnapshotBest();
  last_sweep_epoch_.assign(k_, 0);

  if (restore_from != nullptr) {
    // The views were just built from the checkpoint's memberships, so
    // their stats and scores already are the checkpointing session's.
    const SessionCheckpoint& cp = *restore_from;
    state_ = static_cast<SessionState>(cp.state);
    round_ = cp.round;
    move_iteration_ = static_cast<size_t>(cp.move_iteration);
    result_.iterations = static_cast<size_t>(cp.total_iterations);
    seeds_compliant_ = cp.seeds_compliant != 0;
    pending_restore_ = cp.pending_restore != 0;
    best_average_ = cp.best_average;
    prior_elapsed_seconds_ = cp.prior_elapsed_seconds;
    walls_ = cp.walls;
    // ResumeSession verified it against this matrix.
    matrix_fingerprint_ = cp.matrix_fingerprint;
    {
      std::istringstream is(cp.rng_state);
      is >> rng_.engine();
      DC_CHECK(static_cast<bool>(is)) << "checkpoint RNG state unparseable "
                                         "(ReadSessionCheckpoint validated "
                                         "it)";
    }
    stagnant_.assign(cp.stagnant.begin(), cp.stagnant.end());
    saved_.clear();
    for (const ClusterMembers& m : cp.saved) {
      saved_.push_back(ClusterFromMembers(matrix, m));
    }
    saved_scores_ = cp.saved_scores;
    SessionMetrics::Get().restores->Inc();
  }

  audit_occupancy_ = config_.audit && config_.constraints.alpha > 0.0 &&
                     seeds_compliant_;
  AuditBoundary(restore_from != nullptr ? "restore" : "start");
}

MiningSession::~MiningSession() = default;

double MiningSession::RecomputeScores() {
  double sum = 0.0;
  for (size_t c = 0; c < k_; ++c) {
    scores_[c] = ObjectiveScore(engine_.Residue(views_[c]),
                                views_[c].stats().Volume(),
                                config_.target_residue);
    sum += scores_[c];
  }
  return sum;
}

void MiningSession::SnapshotBest() {
  best_average_ = score_sum_ / static_cast<double>(k_);
}

void MiningSession::AuditBoundary(const char* context) const {
  if (!config_.audit) return;
  // Tolerance 0: at a boundary the stats are a Build(), not incremental.
  for (const ClusterWorkspace& v : views_) {
    AuditStatsMatchRecompute(matrix_, v.cluster(), v.stats(), 0.0, context);
  }
  DC_CHECK(best_average_ == score_sum_ / static_cast<double>(k_))
      << context << ": best average " << best_average_
      << " is not the live clustering's " << score_sum_ / k_;
}

double MiningSession::ElapsedSeconds() const {
  return prior_elapsed_seconds_ + stopwatch_.ElapsedSeconds();
}

bool MiningSession::BudgetStop() {
  if (config_.stop != nullptr && config_.stop->stop_requested()) {
    stop_reason_ = StopReason::kCancelled;
  } else if (config_.deadline_seconds > 0.0 &&
             ElapsedSeconds() >= config_.deadline_seconds) {
    stop_reason_ = StopReason::kDeadline;
  } else if (config_.max_total_iterations > 0 &&
             state_ == SessionState::kMovePhase &&
             result_.iterations >= config_.max_total_iterations) {
    stop_reason_ = StopReason::kIterationCap;
  } else {
    return false;
  }
  stopped_ = true;
  return true;
}

bool MiningSession::Step() {
  if (finished_ || stopped_ || state_ == SessionState::kDone) return false;
  if (BudgetStop()) return false;
  SessionMetrics::Get().steps->Inc();
  DC_TRACE_SPAN("floc/run");
  const SessionState stepped = state_;
  switch (state_) {
    case SessionState::kMovePhase:
      StepMove();
      break;
    case SessionState::kRefine:
      StepRefine();
      break;
    case SessionState::kReseedCheck:
      StepReseedCheck();
      break;
    case SessionState::kDone:
      break;
  }
  AuditBoundary(SessionStateName(stepped));
  return !finished_ && !stopped_ && state_ != SessionState::kDone;
}

void MiningSession::StepMove() {
  if (move_iteration_ >= config_.max_iterations) {
    state_ = SessionState::kRefine;
    return;
  }
  DC_TRACE_SPAN("floc/move_phase");
  Stopwatch phase_watch;

  {
    DC_TRACE_SPAN("floc/iteration");
    Stopwatch iter_watch;
    ++result_.iterations;
    // One branch when telemetry is off: itel stays null and every
    // telemetry fill below is skipped (the off path allocates nothing).
    obs::IterationTelemetry* itel =
        collector_.BeginIteration(result_.iterations - 1);

    // Clusters whose epoch is unchanged since the previous sweep (the
    // rewind skipped them as clean) are served wholesale from the gain
    // memo below: every (entity, cluster) stripe still carries a
    // matching stamp, so the determiner performs zero rescans of them.
    uint64_t clean = 0;
    for (size_t c = 0; c < k_; ++c) {
      if (last_sweep_epoch_[c] != 0 &&
          views_[c].epoch() == last_sweep_epoch_[c]) {
        ++clean;
      }
      last_sweep_epoch_[c] = views_[c].epoch();
    }
    FlocMetrics::Get().clusters_skipped_clean->Inc(clean);

    // --- Determine the best action for every row and column. ---
    Stopwatch determine_watch;
    std::vector<Action> actions = determiner_.Determine(
        matrix_, views_, scores_, tracker_,
        itel != nullptr ? &itel->blocked_by : nullptr, config_.stop);
    if (config_.stop != nullptr && config_.stop->stop_requested()) {
      // The token fired mid-sweep: the action vector is only partially
      // filled, so the iteration is discarded wholesale -- not counted,
      // not logged, views untouched (determination is read-only). The
      // session stops at this boundary in a fully reproducible state.
      --result_.iterations;
      collector_.AbandonIteration();
      stop_reason_ = StopReason::kCancelled;
      stopped_ = true;
      walls_.move_phase += phase_watch.ElapsedSeconds();
      return;
    }
    double determine_seconds = determine_watch.ElapsedSeconds();
    walls_.determine += determine_seconds;

    if (itel != nullptr) {
      itel->determine_seconds = determine_seconds;
      double gain_sum = 0.0;
      for (const Action& a : actions) {
        if (a.blocked()) {
          ++itel->fully_blocked;
          continue;
        }
        ++itel->determined;
        gain_sum += a.gain;
        if (itel->determined == 1 || a.gain > itel->best_gain) {
          itel->best_gain = a.gain;
        }
        if (collector_.full()) {
          ++itel->gain_histogram[obs::GainBucket(a.gain)];
        }
      }
      itel->mean_gain =
          itel->determined > 0 ? gain_sum / itel->determined : 0.0;
    }
    if (obs::MetricsRegistry::Enabled()) {
      const FlocMetrics& m = FlocMetrics::Get();
      m.iterations->Inc();
      uint64_t fully_blocked = 0;
      for (const Action& a : actions) fully_blocked += a.blocked() ? 1 : 0;
      m.actions_blocked->Inc(fully_blocked);
    }

    // --- Order the actions. ---
    std::vector<size_t> order;
    {
      DC_TRACE_SPAN("floc/order_actions");
      // The weighted ordering reads the determination gains, even when
      // the applier re-decides each action freshly.
      std::vector<double> gains(actions.size());
      for (size_t t = 0; t < actions.size(); ++t) gains[t] = actions[t].gain;
      order = MakeActionOrder(config_.ordering, gains, rng_);
    }

    // --- Perform actions sequentially, tracking the best intermediate
    // clustering. ---
    std::vector<Cluster> start_clusters;
    start_clusters.reserve(k_);
    for (const ClusterWorkspace& v : views_) {
      start_clusters.push_back(v.cluster());
    }

    BestPrefixSelector selector(best_average_);
    Stopwatch apply_watch;
    std::vector<AppliedAction> applied;
    {
      DC_TRACE_SPAN("floc/apply_actions");
      ActionApplier applier(config_, &gain_memo_, pool_, audit_occupancy_);
      applied = applier.Apply(actions, order, move_iteration_, views_,
                              scores_, score_sum_, tracker_, rng_, selector);
    }
    double apply_seconds = apply_watch.ElapsedSeconds();
    walls_.apply += apply_seconds;

    double needed =
        std::max(kMinImprovement,
                 config_.relative_improvement * std::abs(best_average_));
    bool improved = selector.has_best() &&
                    selector.best_average() < best_average_ - needed;

    {
      const FlocMetrics& m = FlocMetrics::Get();
      m.actions_applied->Inc(applied.size());
      double iteration_seconds = iter_watch.ElapsedSeconds();
      m.iteration_latency->Observe(iteration_seconds);
    }
    if (itel != nullptr) {
      itel->apply_seconds = apply_seconds;
      itel->actions_applied = applied.size();
      itel->best_prefix = selector.best_prefix();
      itel->best_average_score =
          selector.has_best() ? selector.best_average() : best_average_;
      itel->improved = improved;
    }
    // Rewind to the kept prefix -- the winning prefix on an improving
    // sweep, nothing on the final non-improving one -- applied to the
    // start-of-sweep memberships, then rebuild every cluster an applied
    // action touched. The result is the best clustering with canonical
    // stats: it seeds the next iteration, or the refine stage. A cluster
    // no applied action touched already holds its start membership and
    // canonical stats, so it keeps its epoch -- and with it the residue
    // cache, the packed pane and every (entity, cluster) gain-memo stripe
    // the next determination sweep can serve without a rescan.
    size_t kept = improved ? selector.best_prefix() : 0;
    for (size_t a = 0; a < kept; ++a) {
      const AppliedAction& act = applied[a];
      if (act.target == ActionTarget::kRow) {
        start_clusters[act.cluster].ToggleRow(act.index);
      } else {
        start_clusters[act.cluster].ToggleCol(act.index);
      }
    }
    std::vector<uint8_t> touched(k_, 0);
    for (const AppliedAction& act : applied) touched[act.cluster] = 1;
    for (size_t c = 0; c < k_; ++c) {
      if (touched[c] != 0) views_[c].Reset(std::move(start_clusters[c]));
    }
    score_sum_ = RecomputeScores();
    tracker_.Rebuild(views_);
    if (improved) {
      SnapshotBest();
      ++move_iteration_;
    } else {
      state_ = SessionState::kRefine;
    }

    // Seals the iteration record after the rewind, so best_so_far and the
    // kFull cluster snapshot show the clustering the sweep kept.
    if (itel != nullptr) {
      itel->best_so_far = best_average_;
      if (collector_.full()) {
        itel->cluster_residues.resize(k_);
        itel->cluster_volumes.resize(k_);
        for (size_t c = 0; c < k_; ++c) {
          itel->cluster_residues[c] = engine_.Residue(views_[c]);
          itel->cluster_volumes[c] = views_[c].stats().Volume();
        }
      }
      itel->wall_seconds = iter_watch.ElapsedSeconds();
      collector_.FinishIteration();
    }
  }
  walls_.move_phase += phase_watch.ElapsedSeconds();
}

void MiningSession::StepRefine() {
  // Cluster-centric refinement of the best clustering (see
  // FlocConfig::refine_passes), which the views already hold. The passes
  // toggle in place; rebuilding every cluster toggled since it was last
  // canonical hands the next step canonical stats again.
  if (config_.refine_passes > 0) {
    DC_TRACE_SPAN("floc/refine");
    Stopwatch refine_watch;
    // canonical_epochs[c] is the epoch at which views_[c] last equalled
    // a Build(): the start epoch, then that of each ReanchorCluster
    // adoption (a freshly built workspace). Only a later toggle moves a
    // cluster off it, so an adopted cluster the sweeps leave alone keeps
    // its stats, residue cache, pane and memo stripes.
    std::vector<uint64_t> canonical_epochs(k_);
    for (size_t c = 0; c < k_; ++c) canonical_epochs[c] = views_[c].epoch();
    // Wholesale reassignment cannot shrink coverage-constrained
    // clusterings safely, so it only runs when coverage is off; overlap
    // bounds are validated directly against the candidate.
    bool can_reanchor = !config_.constraints.coverage_active();
    for (size_t pass = 0; pass < config_.refine_passes; ++pass) {
      size_t changes = 0;
      if (can_reanchor) {
        for (size_t c = 0; c < k_; ++c) {
          if (ReanchorCluster(config_, matrix_, views_, c, &scores_[c],
                              audit_occupancy_)) {
            canonical_epochs[c] = views_[c].epoch();
            ++changes;
          }
        }
        tracker_.Rebuild(views_);
      }
      changes += RefineSweep(config_, matrix_, views_, scores_, tracker_,
                             &gain_memo_, audit_occupancy_);
      if (changes == 0) break;
    }
    for (size_t c = 0; c < k_; ++c) {
      if (views_[c].epoch() != canonical_epochs[c]) {
        views_[c].Reset(views_[c].cluster());
      }
    }
    score_sum_ = RecomputeScores();
    SnapshotBest();
    walls_.refine += refine_watch.ElapsedSeconds();
  }

  if (pending_restore_) {
    // A reseed round just reran move+refine over the reseeded slots:
    // restore any slot the restart left worse than before.
    Stopwatch reseed_watch;
    bool restored = false;
    for (size_t t = 0; t < stagnant_.size(); ++t) {
      size_t c = stagnant_[t];
      if (scores_[c] > saved_scores_[t] - kMinImprovement) {
        views_[c].Reset(std::move(saved_[t]));
        restored = true;
      }
    }
    if (restored) {
      score_sum_ = RecomputeScores();
      tracker_.Rebuild(views_);
      SnapshotBest();
    }
    walls_.reseed += reseed_watch.ElapsedSeconds();
    pending_restore_ = false;
    stagnant_.clear();
    saved_.clear();
    saved_scores_.clear();
  }
  state_ = SessionState::kReseedCheck;
}

void MiningSession::StepReseedCheck() {
  // Restart rounds: re-seed stagnant slots and retry (see
  // FlocConfig::reseed_rounds).
  if (round_ >= config_.reseed_rounds || config_.target_residue <= 0) {
    state_ = SessionState::kDone;
    return;
  }
  DC_TRACE_SPAN("floc/reseed_round");
  // reseed_seconds covers only the restart bookkeeping (stagnant
  // detection, fresh seeding, restore) -- the rerun move phase and
  // refinement accumulate into their own phase timers.
  Stopwatch reseed_watch;
  // `views_` holds the best clustering, as at every step boundary, so
  // the stagnant slots are judged -- and every other slot kept -- on it.
  stagnant_.clear();
  for (size_t c = 0; c < k_; ++c) {
    if (engine_.Residue(views_[c]) > 2.0 * config_.target_residue) {
      stagnant_.push_back(c);
    }
  }
  if (stagnant_.empty()) {
    walls_.reseed += reseed_watch.ElapsedSeconds();
    state_ = SessionState::kDone;
    return;
  }

  saved_.clear();
  saved_scores_.clear();
  saved_.reserve(stagnant_.size());
  for (size_t c : stagnant_) {
    saved_.push_back(views_[c].cluster());
    saved_scores_.push_back(scores_[c]);
    std::vector<Cluster> fresh =
        GenerateSeeds(matrix_, config_.seeding, 1, rng_);
    RepairSeed(matrix_, config_.constraints, &fresh[0], rng_, pool_);
    views_[c].Reset(std::move(fresh[0]));
  }
  score_sum_ = RecomputeScores();
  tracker_.Rebuild(views_);
  SnapshotBest();
  FlocMetrics::Get().reseed_slots->Inc(stagnant_.size());
  walls_.reseed += reseed_watch.ElapsedSeconds();

  pending_restore_ = true;
  ++round_;
  move_iteration_ = 0;
  state_ = SessionState::kMovePhase;
}

SessionStatus MiningSession::Status() const {
  SessionStatus s;
  s.state = state_;
  s.stop_reason = stop_reason_;
  s.round = round_;
  s.iterations = result_.iterations;
  s.best_average_score = best_average_;
  s.memo_resident_bytes = gain_memo_.bytes();
  uint64_t pane_bytes = 0;
  for (const ClusterWorkspace& v : views_) pane_bytes += v.PaneBytes();
  s.pane_bytes = pane_bytes;
  s.elapsed_seconds = ElapsedSeconds();
  s.done = state_ == SessionState::kDone;
  return s;
}

void MiningSession::Checkpoint(const std::string& path) const {
  if (finished_) {
    throw std::logic_error(
        "MiningSession::Checkpoint: session already finished");
  }
  SessionCheckpoint cp;
  cp.rows = matrix_.rows();
  cp.cols = matrix_.cols();
  cp.config_fingerprint =
      FingerprintConfig(config_, cp.rows, cp.cols, k_);
  if (!matrix_fingerprint_) matrix_fingerprint_ = FingerprintMatrix(matrix_);
  cp.matrix_fingerprint = *matrix_fingerprint_;
  cp.state = static_cast<uint32_t>(state_);
  cp.round = round_;
  cp.move_iteration = move_iteration_;
  cp.total_iterations = result_.iterations;
  cp.seeds_compliant = seeds_compliant_ ? 1 : 0;
  cp.pending_restore = pending_restore_ ? 1 : 0;
  cp.best_average = best_average_;
  cp.prior_elapsed_seconds = ElapsedSeconds();
  cp.walls = walls_;
  {
    std::ostringstream os;
    os << rng_.engine();
    cp.rng_state = os.str();
  }
  cp.clusters.reserve(k_);
  for (const ClusterWorkspace& v : views_) {
    cp.clusters.push_back(MembersOf(v.cluster()));
  }
  cp.stagnant.assign(stagnant_.begin(), stagnant_.end());
  cp.saved.reserve(saved_.size());
  for (const Cluster& c : saved_) cp.saved.push_back(MembersOf(c));
  cp.saved_scores = saved_scores_;
  WriteSessionCheckpoint(cp, path);
  SessionMetrics::Get().checkpoints_written->Inc();
}

FlocResult MiningSession::Finish() {
  if (finished_) {
    throw std::logic_error("MiningSession::Finish: session already finished");
  }
  finished_ = true;
  if (k_ == 0) {
    perf_accounting_->reset();
    return FlocResult{};
  }

  result_.clusters.reserve(k_);
  result_.residues.resize(k_);
  double sum = 0.0;
  for (size_t c = 0; c < k_; ++c) {
    result_.clusters.push_back(views_[c].cluster());
    result_.residues[c] = engine_.Residue(views_[c]);
    sum += result_.residues[c];
  }
  result_.average_residue = sum / static_cast<double>(k_);
  result_.elapsed_seconds = ElapsedSeconds();

  {
    const FlocMetrics& m = FlocMetrics::Get();
    m.runs->Inc();
    m.last_average_residue->Set(result_.average_residue);
  }
  result_.telemetry = collector_.Finish();

  // CPU attribution joins the phase walls on the span names. The report
  // total includes Phase-1 seeding (measured by StartSession outside
  // this session's stopwatch) so phase shares are of the whole run.
  result_.perf = (*perf_accounting_)->Finish(
      "floc", result_.elapsed_seconds + walls_.seeding,
      stopwatch_.CpuSeconds(), result_.iterations,
      StopReasonName(stop_reason_),
      {{"seeding", walls_.seeding},
       {"move_phase", walls_.move_phase},
       {"determine", walls_.determine},
       {"apply", walls_.apply},
       {"refine", walls_.refine},
       {"reseed", walls_.reseed}},
      {"floc/phase1_seeding", "floc/move_phase", "floc/determine_actions",
       "floc/apply_actions", "floc/refine", "floc/reseed_round"});
  perf_accounting_->reset();
  return std::move(result_);
}

}  // namespace deltaclus::session
