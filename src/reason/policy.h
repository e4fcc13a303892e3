// ExecutionPolicy: the engine-execution options, one validated struct.
//
// Each field is an enum whose kAuto/default means "the engine decides":
// the matcher's join strategy and the SIMD kernel backend of the leapfrog
// join. Some combinations cannot do what they claim — a forced kernel is
// dead weight under the pick-smallest join, and a kernel missing from this
// binary or host cannot run. ValidateExecutionPolicy rejects those with
// Status::InvalidArgument before any work starts;
// IncrementalValidator::Create calls it, and callers of Validate check with
// it themselves.

#ifndef GEDLIB_REASON_POLICY_H_
#define GEDLIB_REASON_POLICY_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "match/kernels/kernel.h"
#include "match/matcher.h"

namespace ged {

/// The validated execution policy. Default-constructed = engine decides
/// everything (today: the leapfrog join on the auto-detected kernel
/// backend).
struct ExecutionPolicy {
  JoinStrategy join = JoinStrategy::kAuto;
  /// SIMD intersection backend for the leapfrog join
  /// (match/kernels/registry.h). Non-auto values are validated against the
  /// running binary/host, and are inert — hence rejected — when `join`
  /// disables the intersection path.
  KernelBackend kernel = KernelBackend::kAuto;

  bool operator==(const ExecutionPolicy&) const = default;
};

/// Crash-safety configuration for the incremental serving path
/// (incr/wal.h, IncrementalValidator). Off by default — an empty `dir`
/// keeps every commit purely in-memory, exactly the pre-durability
/// behavior. With a directory set, every Commit appends the delta to a
/// write-ahead log *before* applying it in memory (a WAL failure returns
/// kUnavailable and leaves the validator untouched), and background
/// re-freezes additionally persist FrozenGraph checkpoints so recovery is
/// checkpoint + WAL-suffix replay instead of full-history replay.
struct DurabilityOptions {
  /// Directory holding WAL segments and checkpoints. Empty = durability
  /// disabled. Created (one level) if missing.
  std::string dir;

  /// When the WAL fsyncs. The trade-off triangle:
  ///   * kEveryCommit — fsync before the commit is acknowledged; a crash
  ///     never loses an acknowledged commit (power-loss safe), at the cost
  ///     of one fsync latency per commit;
  ///   * kInterval — fsync every `fsync_interval_commits` appends; bounds
  ///     loss to the unsynced window on power loss, while a process crash
  ///     alone (the kernel survives) still loses nothing;
  ///   * kNone — never fsync from the hot path; process-crash safe, power-
  ///     loss durability delegated to the OS page cache writeback.
  enum class Fsync : uint8_t { kEveryCommit = 0, kInterval, kNone };
  Fsync fsync = Fsync::kEveryCommit;
  /// Appends per fsync under Fsync::kInterval.
  uint32_t fsync_interval_commits = 32;

  /// WAL segment rotation threshold. Rotation bounds the tail-scan cost of
  /// recovery and lets checkpointing garbage-collect whole segment files.
  uint64_t wal_segment_bytes = 64ull << 20;

  /// Write a checkpoint when a background re-freeze is adopted (the frozen
  /// CSR base is exactly the state to persist, already built). Disabling
  /// leaves recovery replaying the full WAL history.
  bool checkpoints = true;

  bool enabled() const { return !dir.empty(); }
  bool operator==(const DurabilityOptions&) const = default;
};

/// Stable lowercase name for log/EXPLAIN rendering.
const char* FsyncPolicyName(DurabilityOptions::Fsync v);

/// Rejects inert or unsatisfiable combinations with InvalidArgument:
///   * kernel != kAuto with join=kPickSmallest — a forced backend that can
///     never run;
///   * kernel != kAuto naming a backend unavailable in this binary or on
///     this host.
/// Returns OK for everything the engine can honor as stated.
Status ValidateExecutionPolicy(const ExecutionPolicy& policy);

/// Stable lowercase name for log/EXPLAIN rendering.
const char* JoinStrategyName(JoinStrategy v);

}  // namespace ged

#endif  // GEDLIB_REASON_POLICY_H_
