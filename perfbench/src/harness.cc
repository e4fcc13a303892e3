#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(values.size() - 1, lo + 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t RunFor(double seconds, uint64_t min_iters,
                const std::function<void(uint64_t iter)>& body) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t iter = 0;
  while (iter < min_iters || NowNs() < deadline) body(iter++);
  return iter;
}

int32_t SpanLog::Open(const std::string& name) {
  SpanRecord s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  int32_t id = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::Close(int32_t id) {
  spans_[id].end_ns = NowNs();
  // Spans close in LIFO order; tolerate an early End() of an outer span.
  auto it = std::find(stack_.begin(), stack_.end(), id);
  if (it != stack_.end()) stack_.erase(it, stack_.end());
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(NsToMs(s.end_ns - s.start_ns));
  }
  return out;
}

std::vector<double> SpanLog::PerOpMs(const std::string& name) const {
  std::map<uint64_t, double> per_op;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) per_op[s.op] += NsToMs(s.end_ns - s.start_ns);
  }
  std::vector<double> out;
  for (const auto& [op, ms] : per_op) out.push_back(ms);
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string ToJson(const std::string& workload, const Outcome& r) {
  std::ostringstream o;
  o << "{\"workload\":\"" << Escape(workload) << "\",\"attempted\":"
    << r.attempted << ",\"failed\":" << r.failed << ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    o << (i ? "," : "") << "\"" << Escape(r.errors[i]) << "\"";
  }
  o << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    o << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
      << Number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  o << "},\"deterministic\":{";
  first = true;
  for (const auto& [name, v] : r.deterministic) {
    o << (first ? "" : ",") << "\"" << name << "\":" << v;
    first = false;
  }
  o << "},\"context\":{";
  first = true;
  for (const auto& [k, v] : r.context) {
    o << (first ? "" : ",") << "\"" << Escape(k) << "\":\"" << Escape(v)
      << "\"";
    first = false;
  }
  o << "}}";
  return o.str();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void ZeroAllLayerMetrics(Outcome* r) {
  static const char* kMs[] = {
      "graph.freeze_ms",        "graph.overlay_apply_ms",
      "graph.mutable_apply_ms", "graph.refreeze_ms",
      "plan.compile_ms",        "match.enumerate_ms",
      "kernel.intersect2_ms",   "reason.literal_eval_ms",
      "reason.report_build_ms", "reason.report_sort_ms",
      "incr.delta_check_ms",    "wal.append_ms",
      "incr.touching_scan_ms",  "incr.edge_seeded_scan_ms",
      "incr.reconcile_ms",      "io.checkpoint_save_ms",
      "io.checkpoint_load_ms",  "wal.replay_ms",
      "recover.validate_ms",    "chase.chase_ms",
      "chase.coercion_ms",      "chase.round_match_ms",
      "reason.implication_ms",  "reason.satisfiability_ms",
      "axiom.proof_ms",         "axiom.check_ms",
      "ext.gdc_ms",             "ext.gedor_ms",
  };
  static const char* kCounts[] = {
      "match.steps",          "match.matches",
      "kernel.emitted",       "reason.matches_checked",
      "reason.violations",    "incr.touched",
      "incr.retracted",       "incr.added",
      "incr.matches_checked", "incr.live_violations",
      "wal.bytes",            "wal.fsyncs",
      "recover.wal_records_replayed", "chase.steps",
  };
  static const char* kRatios[] = {
      "trace.coverage",
      "incr.commit_unattributed_share",
      "io.write_amplification",
  };
  for (const char* n : kMs) r->Set(n, 0, "ms");
  for (const char* n : kCounts) r->Set(n, 0, "count");
  for (const char* n : kRatios) r->Set(n, 0, "ratio");
}

}  // namespace perfbench
