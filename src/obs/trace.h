// Validation trace spans (obs/ tentpole, part 2 of 3).
//
// RAII scoped timers forming a tree per thread:
//
//   Validate ── Freeze
//            ── PlanCompile
//            ── Match (per GED / per plan bucket, on every worker thread)
//            ── ViolationEmit
//   DeltaCheck, WalAppend         (a commit's logging half, before its span)
//   Commit   ── GraphApply
//            ── OverlayApply
//            ── SeedTouching ── Match ...
//            ── SeedEdges    ── Match ...
//            ── Reconcile
//            ── CheckpointReportEncode (when a re-freeze will checkpoint)
//   Recover  ── RecoverLoadCheckpoint
//            ── RecoverSeedReport | RecoverValidate
//            ── RecoverReplay ── GraphApply, OverlayApply, SeedTouching ...
//
// Spans record into *per-thread buffers* (no cross-thread synchronization
// on the span path beyond one uncontended per-buffer mutex) and are merged
// post hoc: within one thread spans strictly nest, so the tree is
// reconstructed from (start, duration, depth) alone. Two exports:
//
//   * ToJson()        — the span forest as nested JSON (per thread), for
//                       tools/render_profile.py and tests;
//   * ToChromeTrace() — Chrome trace_event format ("traceEvents" array of
//                       "ph":"X" complete events), loadable directly in
//                       about:tracing / Perfetto / chrome://tracing.
//
// A null Tracer* everywhere means "disabled": ScopedSpan's constructor is
// then a pointer test and nothing else.

#ifndef GEDLIB_OBS_TRACE_H_
#define GEDLIB_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ged {

/// One completed span. `tid` is a dense per-tracer thread index (0 = first
/// thread that recorded), `depth` the span's nesting level within its
/// thread at the time it was open.
struct TraceEvent {
  std::string name;
  std::string arg;       ///< optional detail (rule name, bucket id, ...)
  uint32_t tid = 0;
  uint32_t depth = 0;
  int64_t start_ns = 0;  ///< relative to the tracer's epoch
  int64_t dur_ns = 0;
};

/// Collects spans from any number of threads. Thread-compatible for
/// recording (each thread writes its own buffer); merging reads lock.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records one completed span on the calling thread's buffer. Most
  /// callers use ScopedSpan instead.
  void Record(const char* name, std::string arg, int64_t start_ns,
              int64_t dur_ns, uint32_t depth);

  /// Nesting depth of the calling thread's currently open spans.
  uint32_t OpenDepth() const;
  void PushDepth();
  void PopDepth();

  /// Nanoseconds since the tracer's epoch (construction time).
  int64_t NowNs() const;

  /// All spans recorded so far, merged across threads, sorted by
  /// (tid, start_ns, -dur_ns) — i.e. parents before their children.
  std::vector<TraceEvent> Merged() const;

  /// The span forest as nested JSON:
  /// {"threads":[{"tid":0,"spans":[{"name","arg","start_ns","dur_ns",
  /// "children":[...]}]}]}
  std::string ToJson() const;

  /// Same shape as ToJson(), restricted to spans with start_ns >=
  /// `since_rel_ns` (tracer-epoch-relative, i.e. comparable to NowNs()).
  /// Depths are normalized per thread to the window's shallowest span, so
  /// children of a still-open ancestor (e.g. spans inside an unfinished
  /// Commit) form a proper forest. Used by the flight recorder to attach
  /// "what happened during this operation" evidence.
  std::string ToJsonSince(int64_t since_rel_ns) const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}): one "ph":"X"
  /// complete event per span, timestamps in microseconds. Load the file in
  /// chrome://tracing or https://ui.perfetto.dev.
  std::string ToChromeTrace() const;

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<TraceEvent> events;
    uint32_t tid = 0;
    uint32_t open_depth = 0;  // owner thread only
  };

  Buffer* LocalBuffer() const;

  const uint64_t uid_;
  const int64_t epoch_ns_;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: opens on construction, records on destruction. `tracer` may
/// be null (no-op). `name` must be a string literal (stored by pointer
/// until destruction); `arg` is copied.
class ScopedSpan {
 public:
  explicit ScopedSpan(Tracer* tracer, const char* name,
                      std::string arg = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::string arg_;
  int64_t start_ns_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace ged

#endif  // GEDLIB_OBS_TRACE_H_
