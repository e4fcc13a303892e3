#include "incr/incremental.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>

#include "common/failpoint.h"
#include "graph/io.h"

namespace ged {

IncrementalValidator::IncrementalValidator(Graph g, std::vector<Ged> sigma,
                                           ValidationOptions options)
    : IncrementalValidator(std::move(g), std::move(sigma), std::move(options),
                           std::nullopt) {
  OpenWal();
}

IncrementalValidator::IncrementalValidator(Graph g, std::vector<Ged> sigma,
                                           ValidationOptions options,
                                           std::optional<ValidationReport> seed)
    : graph_(std::move(g)), sigma_(std::move(sigma)), options_(options) {
  // A capped report drops violations; maintaining the truncated list
  // incrementally would drift from the full-validation oracle.
  options_.max_violations_per_ged = 0;
  // Likewise a step-truncated scan: a commit that misses violations can
  // never be reconciled exactly, so the defense budget is full-validation
  // only.
  options_.max_steps_per_scan = 0;
  if (Status s = ValidateExecutionPolicy(options_.policy); !s.ok()) {
    // The constructor cannot report failure, so degrade to the nearest
    // valid policy instead of silently running an inert configuration;
    // Create() is the entry point that rejects with this Status.
    if (StructuredLogger* logger = options_.obs.Log()) {
      logger->Log(LogLevel::kError, "invalid_execution_policy",
                  {{"error", s.message()},
                   {"action", "degraded join and kernel to auto"}});
    }
    options_.policy.join = JoinStrategy::kAuto;
    options_.policy.kernel = KernelBackend::kAuto;
  }
  // Compile Σ once; every seed pass and commit re-scan shares it.
  plan_ = RulesetPlan::Compile(sigma_);
  overlay_ = OverlayView(std::make_shared<FrozenGraph>(
                             FrozenGraph::Freeze(graph_, options_.obs)),
                         /*epoch=*/0);
  // Seed from the base just frozen (a snapshot of graph_); RevalidateFull
  // would freeze graph_ a second time.
  report_ = seed.has_value() ? std::move(*seed)
                             : ValidateWithPlan(*overlay_.base(), plan_,
                                                options_);
}

void IncrementalValidator::OpenWal() {
  if (!options_.durability.enabled()) return;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(options_.durability);
  if (wal.ok()) {
    wal_ = std::move(wal.value());
    return;
  }
  // Fail closed: commits will be rejected with kUnavailable rather than
  // silently running without durability.
  wal_error_ = wal.status().message();
  if (StructuredLogger* logger = options_.obs.Log()) {
    logger->Log(LogLevel::kError, "wal_open_failed",
                {{"dir", options_.durability.dir}, {"error", wal_error_}});
  }
}

void IncrementalValidator::MirrorWalMetrics() {
  MetricsRegistry* metrics = options_.obs.Metrics();
  if (metrics == nullptr || wal_ == nullptr) return;
  const WalWriter::Stats& now = wal_->stats();
  metrics->Inc(EngineMetric::kWalAppends, now.appends - wal_mirrored_.appends);
  metrics->Inc(EngineMetric::kWalBytes, now.bytes - wal_mirrored_.bytes);
  metrics->Inc(EngineMetric::kWalFsyncs, now.fsyncs - wal_mirrored_.fsyncs);
  metrics->Inc(EngineMetric::kWalRotations,
               now.rotations - wal_mirrored_.rotations);
  metrics->Inc(EngineMetric::kWalFailures,
               now.failures - wal_mirrored_.failures);
  wal_mirrored_ = now;
}

Status IncrementalValidator::DurabilityStatus() const {
  if (options_.durability.enabled() && !durable()) {
    return Status::Unavailable("cannot open commit WAL in '" +
                               options_.durability.dir + "': " + wal_error_);
  }
  return Status::OK();
}

Result<std::unique_ptr<IncrementalValidator>> IncrementalValidator::Create(
    Graph g, std::vector<Ged> sigma, ValidationOptions options) {
  Status s = ValidateExecutionPolicy(options.policy);
  if (!s.ok()) return s;
  auto v = std::make_unique<IncrementalValidator>(std::move(g),
                                                  std::move(sigma),
                                                  std::move(options));
  GEDLIB_RETURN_IF_ERROR(v->DurabilityStatus());
  return v;
}

namespace {

// FNV-1a, folded byte by byte.
void HashBytes(uint64_t* h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= 0x100000001b3ULL;
  }
}

// Identifies the report a Σ produces: every rule's Ged::ToString() in
// order, plus what that rendering leaves out but the rows depend on — the
// pattern variables in id order (a row lists h(x̄) in that order) and the
// match semantics.
uint64_t SigmaFingerprint(const std::vector<Ged>& sigma,
                          MatchSemantics semantics) {
  uint64_t h = 0xcbf29ce484222325ULL;
  HashBytes(&h, semantics == MatchSemantics::kIsomorphism ? "iso" : "hom");
  for (const Ged& phi : sigma) {
    HashBytes(&h, std::string_view("\0", 1));
    HashBytes(&h, phi.ToString());
    for (VarId x = 0; x < phi.pattern().NumVars(); ++x) {
      HashBytes(&h, std::string_view("\0", 1));
      HashBytes(&h, phi.pattern().var_name(x));
    }
  }
  return h;
}

// True iff a checkpoint's report was computed under this Σ and semantics,
// so it can seed the recovered validator. The row checks guard against a
// fingerprint collision; they are a linear pass over the rows.
bool ReportFitsSigma(const CheckpointReport& report,
                     const std::vector<Ged>& sigma, MatchSemantics semantics) {
  if (report.sigma_fingerprint != SigmaFingerprint(sigma, semantics)) {
    return false;
  }
  for (const Violation& row : report.violations) {
    if (row.ged_index >= sigma.size() ||
        row.match.size() != sigma[row.ged_index].pattern().NumVars()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<IncrementalValidator>> IncrementalValidator::Recover(
    std::vector<Ged> sigma, ValidationOptions options,
    RecoveryStats* recovery) {
  if (options.durability.dir.empty()) {
    return Status::InvalidArgument(
        "Recover requires options.durability.dir to be set");
  }
  GEDLIB_RETURN_IF_ERROR(ValidateExecutionPolicy(options.policy));
  const std::string dir = options.durability.dir;
  Tracer* tracer = options.obs.Trace();
  StructuredLogger* logger = options.obs.Log();
  ScopedSpan span(tracer, "Recover");
  RecoveryStats rs;

  // Newest loadable checkpoint seeds the graph; an unreadable newest one
  // falls back to its predecessor (the WAL still covers the distance). If
  // checkpoints exist but none loads, that is data loss, not a cold start.
  std::optional<Checkpoint> checkpoint;
  {
    ScopedSpan load_span(tracer, "RecoverLoadCheckpoint");
    std::vector<CheckpointInfo> checkpoints = ListCheckpoints(dir);
    Status last_error = Status::OK();
    for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
      Result<Checkpoint> loaded = LoadCheckpoint(dir + "/" + it->name);
      if (loaded.ok()) {
        checkpoint = std::move(loaded.value());
        rs.from_checkpoint = true;
        rs.checkpoint_epoch = checkpoint->epoch;
        break;
      }
      last_error = loaded.status();
      if (logger != nullptr) {
        logger->Log(LogLevel::kWarn, "checkpoint_unreadable",
                    {{"file", it->name}, {"error", last_error.message()}});
      }
    }
    if (!checkpoints.empty() && !rs.from_checkpoint) return last_error;
  }

  // A report computed under this Σ seeds the validator, and the WAL suffix
  // runs through the in-memory half of Commit. Otherwise (no checkpoint, no
  // report section, Σ changed) the suffix is replayed into the graph and
  // one full validation seeds the report.
  std::unique_ptr<IncrementalValidator> v;
  Graph g;
  if (checkpoint.has_value() && checkpoint->report.has_value() &&
      ReportFitsSigma(*checkpoint->report, sigma, options.semantics)) {
    ScopedSpan seed_span(tracer, "RecoverSeedReport");
    CheckpointReport& saved = *checkpoint->report;
    rs.report_from_checkpoint = true;
    rs.report_rows_loaded = saved.violations.size();
    ValidationReport seed;
    seed.satisfied = saved.violations.empty();
    seed.violations = std::move(saved.violations);
    seed.matches_checked = saved.matches_checked;
    v.reset(new IncrementalValidator(std::move(checkpoint->graph),
                                     std::move(sigma), options,
                                     std::move(seed)));
    v->commit_epoch_ = rs.checkpoint_epoch;
  } else if (checkpoint.has_value()) {
    if (checkpoint->report.has_value() && logger != nullptr) {
      logger->Log(LogLevel::kWarn, "checkpoint_report_stale",
                  {{"epoch", rs.checkpoint_epoch},
                   {"action", "full validation"}});
    }
    g = std::move(checkpoint->graph);
  }
  checkpoint.reset();

  Result<WalReplayStats> replay = [&] {
    ScopedSpan replay_span(tracer, "RecoverReplay");
    return ReplayWal(
        dir, rs.checkpoint_epoch,
        [&](uint64_t /*epoch*/, const GraphDelta& delta) -> Status {
          if (v != nullptr) return v->ApplyAndMaintain(delta).status();
          Result<GraphDelta::Applied> applied = delta.Apply(&g);
          return applied.ok() ? Status::OK() : applied.status();
        });
  }();
  if (!replay.ok()) return replay.status();
  rs.wal_records_replayed = replay.value().records_replayed;
  rs.wal_records_skipped = replay.value().records_skipped;
  rs.torn_tail_dropped = replay.value().torn_tail_dropped;
  rs.recovered_epoch = replay.value().last_epoch;

  if (MetricsRegistry* metrics = options.obs.Metrics()) {
    metrics->Inc(EngineMetric::kRecoveryRuns);
    metrics->Inc(EngineMetric::kRecoveryReplayed, rs.wal_records_replayed);
  }
  if (logger != nullptr) {
    logger->Log(LogLevel::kInfo, "recovered",
                {{"dir", dir},
                 {"from_checkpoint", rs.from_checkpoint},
                 {"checkpoint_epoch", rs.checkpoint_epoch},
                 {"report_from_checkpoint", rs.report_from_checkpoint},
                 {"replayed", rs.wal_records_replayed},
                 {"torn_tail_dropped", rs.torn_tail_dropped},
                 {"epoch", rs.recovered_epoch}});
  }

  if (v != nullptr) {
    // The log opens only now: the suffix was replayed from it, not into it.
    v->OpenWal();
    GEDLIB_RETURN_IF_ERROR(v->DurabilityStatus());
  } else {
    ScopedSpan validate_span(tracer, "RecoverValidate");
    Result<std::unique_ptr<IncrementalValidator>> created =
        Create(std::move(g), std::move(sigma), std::move(options));
    if (!created.ok()) return created.status();
    v = std::move(created.value());
  }
  v->commit_epoch_ = rs.recovered_epoch;
  if (recovery != nullptr) *recovery = rs;
  return v;
}

IncrementalValidator::~IncrementalValidator() {
  if (refreeze_thread_.joinable()) refreeze_thread_.join();
}

bool IncrementalValidator::FinishRefreeze() {
  if (!refreeze_running_) return false;
  return AdoptRefreeze();
}

void IncrementalValidator::MaybeAdoptRefreeze() {
  if (refreeze_running_ && refreeze_done_.load(std::memory_order_acquire)) {
    AdoptRefreeze();
  }
}

bool IncrementalValidator::AdoptRefreeze() {
  ScopedSpan span(options_.obs.Trace(), "RefreezeAdopt");
  // join() synchronizes with the worker's completion, so every write it
  // made (including refreeze_result_) is visible below.
  refreeze_thread_.join();
  refreeze_running_ = false;
  refreeze_done_.store(false, std::memory_order_relaxed);
  if (refreeze_result_ == nullptr) {
    // The worker failed (injected fault). Degrade, don't crash: the current
    // overlay keeps serving — it mirrors graph_ exactly — and the next
    // attempt waits out a capped commit-counted backoff.
    pending_.clear();
    ++stats_.refreezes_failed;
    ++refreeze_fail_streak_;
    refreeze_cooldown_ = std::min<uint64_t>(
        uint64_t{1} << std::min<uint64_t>(refreeze_fail_streak_, 6), 64);
    if (MetricsRegistry* metrics = options_.obs.Metrics()) {
      metrics->Inc(EngineMetric::kRefreezeFailures);
    }
    if (StructuredLogger* logger = options_.obs.Log()) {
      logger->Log(LogLevel::kWarn, "refreeze_failed",
                  {{"error", refreeze_error_},
                   {"fail_streak", refreeze_fail_streak_},
                   {"backoff_commits", refreeze_cooldown_}});
    }
    refreeze_error_.clear();
    return false;
  }
  refreeze_fail_streak_ = 0;
  OverlayView fresh(std::move(refreeze_result_), overlay_.epoch() + 1);
  // Replay the deltas committed while the freeze ran: their base node
  // counts line up in sequence with the snapshot the freeze compacted, so
  // each Apply lands verbatim.
  bool ok = true;
  for (const GraphDelta& d : pending_) {
    if (!d.Apply(&fresh).ok()) {
      ok = false;
      break;
    }
  }
  pending_.clear();
  if (!ok) {
    // Unreachable by construction; resync rather than serve a diverged view.
    RebuildOverlay();
    return true;
  }
  overlay_ = std::move(fresh);
  ++stats_.refreezes_adopted;
  if (MetricsRegistry* metrics = options_.obs.Metrics()) {
    metrics->Inc(EngineMetric::kRefreezeAdopted);
  }
  return true;
}

void IncrementalValidator::MaybeStartRefreeze() {
  if (refreeze_running_ || options_.overlay_refreeze_cutoff == 0) return;
  if (refreeze_cooldown_ > 0) {
    // Backing off after a failed re-freeze; each commit ticks it down.
    --refreeze_cooldown_;
    return;
  }
  if (overlay_.DeltaWeight() < options_.overlay_refreeze_cutoff) return;
  refreeze_done_.store(false, std::memory_order_relaxed);
  refreeze_running_ = true;
  ++stats_.refreezes_started;
  if (MetricsRegistry* metrics = options_.obs.Metrics()) {
    metrics->Inc(EngineMetric::kRefreezeRuns);
  }
  // The snapshot copy is cheap: a shared base pointer plus a side index
  // bounded by the cutoff. The worker compacts it while commits keep
  // landing on overlay_; adoption happens at a later commit boundary.
  // `ckpt_epoch` pins the commit epoch the snapshot captures — the WAL
  // suffix with epochs beyond it completes the durable state. When a
  // checkpoint will be written, report_ (exactly the report at ckpt_epoch)
  // is encoded here, on the commit thread, straight into its section
  // payload.
  const bool checkpoint = wal_ != nullptr && options_.durability.checkpoints;
  std::string report_section;
  if (checkpoint) {
    ScopedSpan encode_span(options_.obs.Trace(), "CheckpointReportEncode");
    report_section = EncodeReportSection(
        SigmaFingerprint(sigma_, options_.semantics), report_);
  }
  refreeze_thread_ = std::thread([this, checkpoint, snapshot = overlay_,
                                  ckpt_epoch = commit_epoch_,
                                  report_section =
                                      std::move(report_section)]() {
    ScopedSpan span(options_.obs.Trace(), "Refreeze");
    int64_t start_ns = MonotonicNowNs();
    Status injected;
    GEDLIB_FAILPOINT_STATUS("refreeze.worker", injected);
    if (!injected.ok()) {
      // Publish the failure instead of a result; the adopting thread
      // degrades gracefully (keeps serving, retries with backoff).
      refreeze_error_ = injected.message();
      refreeze_result_ = nullptr;
      refreeze_done_.store(true, std::memory_order_release);
      return;
    }
    refreeze_result_ = std::make_shared<FrozenGraph>(
        FrozenGraph::Freeze(snapshot, options_.obs));
    // Piggyback a checkpoint on the compaction we just paid for. Failure
    // is non-fatal: the WAL alone still recovers every commit.
    if (checkpoint) {
      Result<std::string> saved =
          SaveCheckpoint(*refreeze_result_, ckpt_epoch,
                         options_.durability.dir, report_section);
      if (saved.ok()) {
        checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
        if (MetricsRegistry* metrics = options_.obs.Metrics()) {
          metrics->Inc(EngineMetric::kCheckpointWrites);
        }
        // Best-effort GC of state the new checkpoint supersedes.
        (void)RemoveObsoleteCheckpoints(options_.durability.dir, ckpt_epoch);
        (void)RemoveObsoleteWalSegments(options_.durability.dir, ckpt_epoch);
      } else {
        checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
        if (MetricsRegistry* metrics = options_.obs.Metrics()) {
          metrics->Inc(EngineMetric::kCheckpointFailures);
        }
        if (StructuredLogger* logger = options_.obs.Log()) {
          logger->Log(LogLevel::kWarn, "checkpoint_failed",
                      {{"epoch", ckpt_epoch},
                       {"error", saved.status().message()}});
        }
      }
    }
    if (MetricsRegistry* metrics = options_.obs.Metrics()) {
      metrics->Observe(
          EngineMetric::kRefreezeWallNs,
          static_cast<uint64_t>(
              std::max<int64_t>(0, MonotonicNowNs() - start_ns)));
    }
    refreeze_done_.store(true, std::memory_order_release);
  });
}

void IncrementalValidator::RebuildOverlay() {
  if (refreeze_thread_.joinable()) refreeze_thread_.join();
  refreeze_running_ = false;
  refreeze_done_.store(false, std::memory_order_relaxed);
  refreeze_result_.reset();
  pending_.clear();
  overlay_ = OverlayView(std::make_shared<FrozenGraph>(
                             FrozenGraph::Freeze(graph_, options_.obs)),
                         overlay_.epoch() + 1);
}

Result<GraphDelta::Applied> IncrementalValidator::Commit(
    const GraphDelta& delta) {
  // Epoch discipline: a delta recorded by NewDelta() before any other
  // commit landed is the only one this validator accepts. The node-count
  // check inside Apply cannot see an intervening edge-only or attr-only
  // commit; the epoch stamp can.
  if (delta.bound_epoch().has_value() &&
      *delta.bound_epoch() != commit_epoch_) {
    return Status::InvalidArgument(
        "stale delta: recorded at commit epoch " +
        std::to_string(*delta.bound_epoch()) + ", validator is at epoch " +
        std::to_string(commit_epoch_));
  }
  const bool durable_commit = options_.durability.enabled();
  if (durable_commit && wal_ == nullptr) {
    return Status::Unavailable("commit WAL unavailable: " + wal_error_);
  }
  Tracer* tracer = options_.obs.Trace();

  // The logging half. Validate first: an invalid delta must be rejected by
  // its own error, not logged durably and then refused by Apply.
  {
    ScopedSpan check_span(tracer, "DeltaCheck");
    GEDLIB_RETURN_IF_ERROR(delta.Check(graph_));
  }
  // Durability: append to the WAL *before* the in-memory apply, so the log
  // is always ≥ the in-memory state. A failed append rejects the commit
  // with kUnavailable and leaves graph and report untouched — the caller
  // may retry; recovery may replay a record the crashed process never got
  // to apply (at-least-once, the safe direction).
  if (durable_commit) {
    Status wal_status;
    {
      ScopedSpan wal_span(tracer, "WalAppend");
      wal_status = wal_->Append(delta, commit_epoch_ + 1);
    }
    MirrorWalMetrics();
    if (!wal_status.ok()) {
      if (StructuredLogger* logger = options_.obs.Log()) {
        logger->Log(LogLevel::kWarn, "wal_append_failed",
                    {{"epoch", commit_epoch_ + 1},
                     {"error", wal_status.message()}});
      }
      return Status::Unavailable("WAL append failed, commit rejected: " +
                                 wal_status.message());
    }
    // Crash window for the fault matrix: the record is durable, the apply
    // has not happened — recovery must replay it.
    GEDLIB_FAILPOINT("commit.wal_appended");
  }

  // Observability: only checked (and logged) commits open the "Commit" span
  // and feed the commit.* metrics (a rejected delta changes nothing).
  ScopedSpan span(tracer, "Commit");
  ScopedLatency lat(options_.obs.Metrics(), EngineMetric::kCommitWallNs);
  FlightRecorder* recorder = options_.obs.Recorder();
  StructuredLogger* logger = options_.obs.Log();
  int64_t start_ns =
      (recorder != nullptr || logger != nullptr) ? MonotonicNowNs() : 0;
  // Tracer-epoch timestamp of this commit's start: the slow-commit capture
  // window (the Commit span itself is still open at capture time, so the
  // window holds its children).
  int64_t trace_start = tracer != nullptr ? tracer->NowNs() : 0;

  // The in-memory half. It cannot fail once Check passed on graph_.
  Result<Maintained> maintained = ApplyAndMaintain(delta);
  if (!maintained.ok()) return maintained.status();
  const Maintained& m = maintained.value();
  const uint64_t checked = m.checked;

  ++stats_.commits;
  stats_.touched = m.applied.touched.size();
  stats_.retracted = m.retracted;
  stats_.added = m.added;
  stats_.matches_checked = checked;
  stats_.total_touched += stats_.touched;
  stats_.total_retracted += stats_.retracted;
  stats_.total_added += stats_.added;
  stats_.total_matches_checked += checked;

  MaybeStartRefreeze();

  if (MetricsRegistry* metrics = options_.obs.Metrics()) {
    metrics->Inc(EngineMetric::kCommitRuns);
    metrics->Inc(EngineMetric::kCommitTouched, stats_.touched);
    metrics->Inc(EngineMetric::kCommitRetracted, stats_.retracted);
    metrics->Inc(EngineMetric::kCommitAdded, stats_.added);
    metrics->Inc(EngineMetric::kCommitMatchesChecked, checked);
    metrics->Set(EngineMetric::kLiveViolations, report_.violations.size());
  }

  if (recorder != nullptr || logger != nullptr) {
    int64_t wall = std::max<int64_t>(0, MonotonicNowNs() - start_ns);
    if (logger != nullptr) {
      logger->Log(LogLevel::kDebug, "commit",
                  {{"seq", stats_.commits},
                   {"wall_ns", wall},
                   {"touched", stats_.touched},
                   {"retracted", stats_.retracted},
                   {"added", stats_.added},
                   {"matches_checked", checked},
                   {"live_violations", report_.violations.size()}});
    }
    if (recorder != nullptr &&
        recorder->ShouldCapture(FlightRecorder::Kind::kCommit, wall)) {
      std::string detail = "{\"stats\":{\"touched\":" +
                           std::to_string(stats_.touched) +
                           ",\"retracted\":" + std::to_string(stats_.retracted) +
                           ",\"added\":" + std::to_string(stats_.added) +
                           ",\"matches_checked\":" + std::to_string(checked) +
                           "},\"spans\":" +
                           (tracer != nullptr ? tracer->ToJsonSince(trace_start)
                                              : std::string("null")) +
                           "}";
      recorder->Record(FlightRecorder::Kind::kCommit,
                       "commit=" + std::to_string(stats_.commits), wall,
                       std::move(detail));
      if (logger != nullptr) {
        logger->Log(LogLevel::kWarn, "slow_commit",
                    {{"seq", stats_.commits},
                     {"wall_ns", wall},
                     {"threshold_ns", recorder->commit_threshold_ns()}});
      }
    }
  }
  return std::move(maintained.value().applied);
}

Result<IncrementalValidator::Maintained> IncrementalValidator::ApplyAndMaintain(
    const GraphDelta& delta) {
  Tracer* tracer = options_.obs.Trace();
  Maintained m;
  {
    ScopedSpan apply_span(tracer, "GraphApply");
    Result<GraphDelta::Applied> applied = delta.Apply(&graph_);
    if (!applied.ok()) return applied.status();
    m.applied = std::move(applied.value());
  }
  ++commit_epoch_;
  const GraphDelta::Applied& ap = m.applied;

  // Overlay maintenance: adopt a finished background re-freeze, then mirror
  // this delta so overlay_ equals graph_ for the re-scans below. A commit
  // landing while a freeze is still running is queued for replay onto the
  // new epoch.
  MaybeAdoptRefreeze();
  {
    ScopedSpan overlay_span(tracer, "OverlayApply");
    if (!delta.Apply(&overlay_).ok()) {
      RebuildOverlay();
    } else if (refreeze_running_) {
      pending_.push_back(delta);
    }
  }

  // 1. Retract violations whose X→Y status may have flipped: an attribute
  //    change on a bound pre-existing node is the only cure mechanism under
  //    append-only deltas.
  m.retracted = EraseViolationsTouching(&report_.violations, ap.changed_nodes);

  // 2. Re-scan the match regions a delta can create or alter:
  //    (a) matches binding a changed or new node;
  std::vector<NodeId> rescan;
  rescan.reserve(ap.changed_nodes.size() + ap.new_nodes.size());
  std::merge(ap.changed_nodes.begin(), ap.changed_nodes.end(),
             ap.new_nodes.begin(), ap.new_nodes.end(),
             std::back_inserter(rescan));
  std::vector<Violation> fresh_v;
  {
    ScopedSpan touching_span(tracer, "SeedTouching");
    ValidationReport fresh =
        ValidateTouchingWithPlan(overlay_, plan_, rescan, options_);
    m.checked = fresh.matches_checked;
    fresh_v = std::move(fresh.violations);
  }

  //    (b) matches created by a new edge between two pre-existing nodes,
  //        found by pinning both endpoints onto each pattern edge.
  if (!ap.cross_edges.empty()) {
    std::vector<Violation> seeded;
    {
      ScopedSpan edges_span(tracer, "SeedEdges");
      seeded = FindViolationsSeededByEdgesWithPlan(overlay_, plan_,
                                                   ap.cross_edges, options_,
                                                   &m.checked);
    }
    fresh_v.insert(fresh_v.end(), std::make_move_iterator(seeded.begin()),
                   std::make_move_iterator(seeded.end()));
  }

  // 3. Reconcile on every path, not just when edges were seeded: the (a)
  //    and (b) scans may overlap each other or re-find still-listed old
  //    violations, and `added` must count exactly the genuinely novel
  //    entries MergeViolations will add (added == report growth +
  //    retracted, asserted by incr_test).
  {
    ScopedSpan reconcile_span(tracer, "Reconcile");
    SortViolationList(&fresh_v);
    fresh_v.erase(std::unique(fresh_v.begin(), fresh_v.end()), fresh_v.end());
    std::vector<Violation> novel;
    std::set_difference(fresh_v.begin(), fresh_v.end(),
                        report_.violations.begin(), report_.violations.end(),
                        std::back_inserter(novel), ViolationLess);
    fresh_v = std::move(novel);
  }

  m.added = fresh_v.size();
  MergeViolations(&report_.violations, std::move(fresh_v));
  report_.satisfied = report_.violations.empty();
  report_.matches_checked += m.checked;
  return m;
}

ValidationReport IncrementalValidator::RevalidateFull() const {
  return ValidateWithPlan(graph_, plan_, options_);
}

}  // namespace ged
