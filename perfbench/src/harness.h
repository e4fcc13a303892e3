// Shared plumbing of the end-to-end benchmark: command-line options, the
// clock, order statistics, the in-memory span log of the traced run, and
// the result record every workload fills in.
//
// A workload is a function from Options to Outcome. It sets up its inputs
// from the seed (timed as setup), runs its operation in a closed loop for
// the requested seconds (one caller thread), checks every output, and
// either reports end-to-end metrics (untraced run) or per-layer metrics
// from spans it records around its calls into the library (traced run).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for WAL/checkpoint state and the trace file.
  std::string work_dir = ".";
  // "full" for measured runs; "tiny" shrinks every input for smoke tests.
  std::string scale = "full";
  // Golden violation count for validate-match (-1: none stored).
  int64_t expect = -1;
  bool tiny() const { return scale == "tiny"; }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Seed of instance `i` of a run: a run spreads its operations over several
// generated instances so its figures describe the generator, not one draw.
inline unsigned SubSeed(uint64_t seed, uint64_t i) {
  return static_cast<unsigned>(seed * 7919 + i * 104729 + 1);
}

// Quantile by linear interpolation between closest ranks (q in [0, 1]).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Runs `body` until `seconds` of wall time have passed (at least
// `min_iters` times). Returns the number of iterations.
uint64_t RunFor(double seconds, uint64_t min_iters,
                const std::function<void(uint64_t iter)>& body);

// The set-up metric. A workload times the set-up that seeds its run, then
// times throwaway repeats of it between operations, so the reported median
// samples the host over the whole run rather than its first milliseconds.
class SetupTimer {
 public:
  // Times one set-up; returns what it built.
  template <typename F>
  auto Time(F&& build) {
    int64_t start = NowNs();
    auto built = build();
    seconds_.push_back(static_cast<double>(NowNs() - start) / 1e9);
    return built;
  }
  // Repeats the set-up (result discarded) before every `every`-th operation.
  template <typename F>
  void RepeatEvery(uint64_t iter, uint64_t every, F&& build) {
    if (iter % every == every - 1) Time(build);
  }
  double MedianSeconds() const { return Median(seconds_); }

 private:
  std::vector<double> seconds_;
};

// ----- traced run: spans kept in memory, written at the end ---------------

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the log, -1 for a root span
  uint64_t op = 0;      // operation id shared by the spans of one operation
};

class SpanLog {
 public:
  // Starts a new operation; spans opened until the next call share its id.
  void BeginOp() { ++op_; }
  int32_t Open(const std::string& name);
  void Close(int32_t id);
  // Durations (ms) of every closed span called `name`, in order.
  std::vector<double> DurationsMs(const std::string& name) const;
  // Per operation: total ms of spans called `name` (operations without
  // such a span are skipped).
  std::vector<double> PerOpMs(const std::string& name) const;
  // Writes one JSON object per line: name, start/end (ns), parent, op.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> stack_;
  uint64_t op_ = 0;
};

// RAII span; a null log records nothing (the untraced run).
class Span {
 public:
  Span(SpanLog* log, const std::string& name)
      : log_(log), id_(log ? log->Open(name) : -1) {}
  ~Span() { End(); }
  // Ends the span before the end of its scope.
  void End() {
    if (log_ != nullptr) log_->Close(id_);
    log_ = nullptr;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

// ----- results --------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failure messages
  std::map<std::string, Metric> metrics;
  // Counts that must repeat exactly for a given seed (count-based claims).
  std::map<std::string, uint64_t> deterministic;
  // Free-form run facts (backend, fsync policy, sizes, ...).
  std::map<std::string, std::string> context;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Counts a finished operation; `ok` false records it as failed.
  void Check(bool ok, const std::string& what);
};

std::string ToJson(const std::string& workload, const Outcome& r);

// Peak resident set size of this process, in MB.
double PeakRssMb();

// Registers the layer metrics shared by every workload (see README.md):
// each per-layer metric is emitted on every workload, reading 0 where the
// workload's operation does not enter that layer.
void ZeroAllLayerMetrics(Outcome* r);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
