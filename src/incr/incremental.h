// Incremental GED validation: delta-driven violation maintenance (the
// paper's §8 open problem "incremental algorithms", on top of the parallel
// half in reason/validation.h).
//
// An IncrementalValidator owns a graph G and a GED set Σ and keeps the
// ValidationReport of G ⊨ Σ live as G grows through GraphDelta commits.
// Instead of re-running Validate() over all of G (cost ~ |G|^|Q|), a commit
// re-enumerates only the matches that bind a delta-touched node, by
// restricting one pattern variable at a time to the touched candidates —
// partitioned across the thread pool (reason/validation.h
// ValidateTouchingWithPlan). Σ is compiled once into a shared ruleset plan
// (plan/plan.h) at construction, so every commit's re-scan walks one match
// space per pattern *shape* rather than one per rule.
//
// Backend note: the validator owns the mutable Graph as the authoritative
// store and mirrors every committed delta into an OverlayView
// (graph/overlay.h) — a frozen CSR base plus a small copy-on-write side
// index — and runs all commit re-scans on the overlay. Commits therefore
// get the CSR label ranges and the leapfrog intersection (JoinStrategy)
// exactly like full validation, without a per-commit re-freeze. The
// overlay's first base is the one freeze of the graph, and the seeding
// full validation reads it. Once the
// side index outweighs ValidationOptions::overlay_refreeze_cutoff, a
// background thread compacts the overlay into a fresh FrozenGraph base
// (FrozenGraph::Freeze(overlay) — no sort, overlay spans are already CSR-
// ordered) while commits keep landing on the current overlay; at the next
// commit boundary after the freeze completes, the validator swaps to a new
// overlay epoch over the new base and replays the deltas committed in the
// meantime. Readers of overlay() pin the epoch's base via shared_ptr, so a
// swap never invalidates a snapshot someone still holds.
//
// Exactness argument (append-only deltas):
//  * topology only grows, so every match of Q in the old graph is still a
//    match in the new one — no violation disappears for topological reasons;
//  * a match that exists now but not before must use a new node or a new
//    edge, hence binds at least one touched node;
//  * the X→Y status of an old match changes only if an attribute of a bound
//    node changed, and those nodes are touched.
// Retracting violations that bind a touched node and re-scanning exactly
// the touched region therefore reproduces Validate() from scratch, which
// the property tests assert after every commit.
//
// Durability: Commit has two halves. The logging half checks the delta
// and, with options.durability set, appends it to the WAL (incr/wal.h);
// the in-memory half applies it to the graph and the overlay and maintains
// the report as above. Every checkpoint (piggybacked on a background
// re-freeze) also carries the live report at its epoch (graph/io.h section
// 4), so Recover seeds the report from the newest checkpoint and runs only
// the WAL suffix through the in-memory half — a restart costs a checkpoint
// load plus a few incremental commits, not a full validation.

#ifndef GEDLIB_INCR_INCREMENTAL_H_
#define GEDLIB_INCR_INCREMENTAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "ged/ged.h"
#include "graph/graph.h"
#include "graph/overlay.h"
#include "incr/delta.h"
#include "incr/wal.h"
#include "plan/plan.h"
#include "reason/validation.h"

namespace ged {

/// Maintains G ⊨ Σ under append-only deltas.
class IncrementalValidator {
 public:
  /// Takes ownership of `g` and Σ, freezes `g` once into the overlay base
  /// and runs one full Validate() of that base to seed the report.
  /// `options.max_violations_per_ged` is forced to 0 (a truncated report
  /// cannot be maintained exactly); the other knobs (threads, semantics,
  /// the execution policy) apply to the initial pass and every commit. If
  /// the policy is invalid, the constructor degrades it to the nearest
  /// valid policy (join/kernel back to kAuto) and logs an
  /// `invalid_execution_policy` structured-log error — use Create() to get
  /// the hard rejection.
  IncrementalValidator(Graph g, std::vector<Ged> sigma,
                       ValidationOptions options = {});

  /// Validating factory: rejects a policy that cannot do what it claims on
  /// the incremental surface (e.g. a forced kernel under
  /// join=kPickSmallest, which never dispatches one) with
  /// Status::InvalidArgument before any work starts.
  static Result<std::unique_ptr<IncrementalValidator>> Create(
      Graph g, std::vector<Ged> sigma, ValidationOptions options = {});

  /// Recovery outcome metadata (Recover's optional out-parameter).
  struct RecoveryStats {
    bool from_checkpoint = false;      ///< a checkpoint seeded the graph
    uint64_t checkpoint_epoch = 0;     ///< its commit epoch (0 when absent)
    /// The checkpoint's report seeded the live report (no full validation
    /// ran); false on the fallback path.
    bool report_from_checkpoint = false;
    uint64_t report_rows_loaded = 0;   ///< violations read from it
    uint64_t wal_records_replayed = 0;
    uint64_t wal_records_skipped = 0;  ///< already covered by the checkpoint
    bool torn_tail_dropped = false;    ///< a truncated final record was cut
    uint64_t recovered_epoch = 0;      ///< the validator's commit epoch now
  };

  /// Rebuilds a validator from the durable state under
  /// `options.durability.dir` (which must be set) and the newest loadable
  /// checkpoint. When that checkpoint carries a report computed under the
  /// same Σ (same rules in the same order, same match semantics), the
  /// report seeds the validator and each WAL-suffix record runs through the
  /// in-memory half of Commit (apply, overlay, retract, re-scans,
  /// reconcile) — not appended again, not counted in last_commit(). The
  /// recovered report then equals the one the crashed process held at the
  /// same commit epoch, `matches_checked` included. Otherwise (no
  /// checkpoint, no report section, Σ changed) the suffix is replayed into
  /// the graph and one full Validate() seeds the report, whose violations
  /// are the same and whose `matches_checked` counts that validation.
  /// RevalidateFull() stays the on-demand check of either. A missing or
  /// empty directory is a clean cold start (empty graph, epoch 0).
  /// Corrupted state (checksum mismatch in any section, epoch gap) fails
  /// with kDataLoss rather than serving a silently wrong graph or report;
  /// an unreadable newest checkpoint falls back to an older one. The
  /// recovered validator keeps appending to the same directory.
  static Result<std::unique_ptr<IncrementalValidator>> Recover(
      std::vector<Ged> sigma, ValidationOptions options,
      RecoveryStats* recovery = nullptr);

  /// Joins any in-flight background re-freeze.
  ~IncrementalValidator();

  IncrementalValidator(const IncrementalValidator&) = delete;
  IncrementalValidator& operator=(const IncrementalValidator&) = delete;

  /// The maintained graph (mutate it only through Commit).
  const Graph& graph() const { return graph_; }
  /// The serving overlay commits are scanned through (equals graph() in
  /// content).
  const OverlayView& overlay() const { return overlay_; }
  /// The GED set Σ.
  const std::vector<Ged>& sigma() const { return sigma_; }
  /// The compiled shared plan of Σ.
  const RulesetPlan& plan() const { return plan_; }
  /// The execution policy the validator runs under, invalid combinations
  /// degraded (see the constructor note). Always passes
  /// ValidateExecutionPolicy.
  const ExecutionPolicy& policy() const { return options_.policy; }
  /// The live report: always equal to Validate(graph(), sigma()) with the
  /// same options. `matches_checked` is cumulative across the initial pass
  /// and all commits (it counts incremental work, not from-scratch work).
  const ValidationReport& report() const { return report_; }

  /// A fresh delta based on the current graph, stamped with the current
  /// commit epoch: Commit rejects it once any other commit lands in
  /// between, even a node-count-preserving (edge- or attr-only) one.
  GraphDelta NewDelta() const {
    GraphDelta delta(graph_);
    delta.BindEpoch(commit_epoch_);
    return delta;
  }

  /// The commit epoch: the number of successful commits so far. NewDelta()
  /// stamps it into every delta it hands out.
  uint64_t commit_epoch() const { return commit_epoch_; }
  /// The overlay's base-snapshot epoch; bumped by each adopted re-freeze.
  uint64_t overlay_epoch() const { return overlay_.epoch(); }
  /// True while a background re-freeze is running or awaiting adoption.
  bool RefreezeInFlight() const { return refreeze_running_; }
  /// Blocks until any in-flight re-freeze completes and adopts it (swap to
  /// the new base epoch, replay pending deltas). Returns true iff a swap
  /// happened. Commits adopt finished re-freezes automatically; this is the
  /// deterministic boundary for tests and benchmarks.
  bool FinishRefreeze();

  /// Telemetry for the most recent commit, plus running totals across the
  /// validator's whole life (the obs metrics registry mirrors the totals as
  /// commit.* counters when ValidationOptions::obs is enabled).
  struct CommitStats {
    uint64_t commits = 0;          ///< total successful commits so far
    size_t touched = 0;            ///< delta-touched nodes (last commit)
    size_t retracted = 0;          ///< violations retracted (last commit)
    size_t added = 0;              ///< violations added back (last commit)
    uint64_t matches_checked = 0;  ///< matches inspected (last commit)
    // Cumulative across all commits (the initial seeding Validate() is not
    // a commit and does not count here).
    uint64_t total_touched = 0;
    uint64_t total_retracted = 0;
    uint64_t total_added = 0;
    uint64_t total_matches_checked = 0;
    // Re-freeze lifecycle totals.
    uint64_t refreezes_started = 0;
    uint64_t refreezes_adopted = 0;
    // Background re-freezes that failed (injected faults / checkpoint IO).
    // The validator keeps serving the current overlay and retries after a
    // capped backoff — a failure here never loses commits.
    uint64_t refreezes_failed = 0;
  };
  const CommitStats& last_commit() const { return stats_; }

  /// True when commits are written ahead to a WAL (durability configured
  /// and the log opened successfully).
  bool durable() const { return wal_ != nullptr; }
  /// The WAL writer, for stats inspection (null when not durable).
  const WalWriter* wal() const { return wal_.get(); }
  /// Checkpoints written / failed by background re-freezes (atomic: the
  /// re-freeze worker writes them).
  uint64_t checkpoints_written() const {
    return checkpoints_written_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoint_failures() const {
    return checkpoint_failures_.load(std::memory_order_relaxed);
  }

  /// Applies `delta` atomically and maintains the report incrementally.
  /// On error (stale epoch, stale base, id out of range) neither graph nor
  /// report change.
  Result<GraphDelta::Applied> Commit(const GraphDelta& delta);

  /// From-scratch Validate() with the same options — the oracle the
  /// property tests compare report() against. (Violation lists must match
  /// exactly; matches_checked differs by design.)
  ValidationReport RevalidateFull() const;

 private:
  // What the in-memory half of one commit did.
  struct Maintained {
    GraphDelta::Applied applied;
    size_t retracted = 0;
    size_t added = 0;
    uint64_t checked = 0;
  };

  // The shared constructor: a `seed` report is taken as the report of `g`
  // under Σ (Recover's seeded path); without one, a full validation of the
  // overlay base computes it. Leaves the WAL closed.
  IncrementalValidator(Graph g, std::vector<Ged> sigma,
                       ValidationOptions options,
                       std::optional<ValidationReport> seed);

  // The in-memory half of a commit: applies `delta` to graph_ and overlay_,
  // maintains report_ (retract, touching and edge-seeded re-scans,
  // reconcile) and advances commit_epoch_. Commit runs it after the WAL
  // append; Recover runs it for each WAL-suffix record. Touches neither the
  // WAL nor stats_.
  Result<Maintained> ApplyAndMaintain(const GraphDelta& delta);
  // kUnavailable when durability is configured but the WAL did not open.
  Status DurabilityStatus() const;
  // Non-blocking: if a background re-freeze has finished, join it and swap
  // to the new overlay epoch (replaying deltas committed in the meantime).
  void MaybeAdoptRefreeze();
  // Blocking adoption of the finished (or still-running) re-freeze thread.
  // Returns false when the worker failed (degraded: current overlay keeps
  // serving, retry after a capped backoff).
  bool AdoptRefreeze();
  // Opens the WAL when options_.durability is enabled; on failure leaves
  // wal_ null with the reason in wal_error_ (Commit then rejects with
  // kUnavailable instead of silently running non-durably).
  void OpenWal();
  // Forwards WalWriter::Stats growth into the wal.* metrics.
  void MirrorWalMetrics();
  // Starts a background re-freeze when the overlay side index outweighs the
  // cutoff and none is already running.
  void MaybeStartRefreeze();
  // Defensive resync: rebuilds the overlay from the authoritative graph
  // (used if a mirror ever diverges; discards any in-flight re-freeze).
  void RebuildOverlay();

  Graph graph_;
  std::vector<Ged> sigma_;
  RulesetPlan plan_;
  ValidationOptions options_;
  ValidationReport report_;
  CommitStats stats_;

  // Serving overlay: mirrors graph_ exactly between commits.
  OverlayView overlay_;
  // Monotonic successful-commit counter; NewDelta() stamps it into deltas.
  uint64_t commit_epoch_ = 0;

  // Background re-freeze state. Single-writer discipline: only Commit /
  // FinishRefreeze (caller thread) start, adopt or join the thread. The
  // worker publishes its result with a release store on refreeze_done_;
  // the caller's acquire load pairs with it before touching the result.
  std::thread refreeze_thread_;
  std::atomic<bool> refreeze_done_{false};
  bool refreeze_running_ = false;
  std::shared_ptr<const FrozenGraph> refreeze_result_;
  // Deltas committed while the re-freeze ran; replayed onto the new epoch's
  // overlay at adoption (their base node counts line up by construction).
  std::vector<GraphDelta> pending_;

  // ----- durability (options_.durability.enabled()) ---------------------
  // Commit WAL; null when durability is off or the log failed to open (the
  // failure reason then lives in wal_error_ and commits are rejected).
  std::unique_ptr<WalWriter> wal_;
  std::string wal_error_;
  // Last WalWriter::Stats already forwarded to the metrics registry.
  WalWriter::Stats wal_mirrored_;
  // Re-freeze degradation: consecutive failures and the commits-counted
  // backoff before the next start attempt (min(2^streak, 64)).
  uint64_t refreeze_fail_streak_ = 0;
  uint64_t refreeze_cooldown_ = 0;
  // Worker-thread outcome channel: failure message (empty = success) and
  // checkpoint counters. Written by the worker before its release store on
  // refreeze_done_; the adopting thread reads after the acquire load.
  std::string refreeze_error_;
  std::atomic<uint64_t> checkpoints_written_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
};

}  // namespace ged

#endif  // GEDLIB_INCR_INCREMENTAL_H_
