// perfbench — the end-to-end benchmark binary (run by perfbench/run.py).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--scale full|tiny] [--expect N]
//
// Prints one JSON object on its last stdout line: attempted/failed
// operations, the first failure messages, the metrics (end-to-end with
// --trace 0, per-layer with --trace 1), the counts that must repeat exactly
// for a seed, and the run context. Exits 1 when an operation failed.

#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "match/kernels/registry.h"
#include "workloads.h"

namespace perfbench {

void SetLatencyMetrics(Outcome* r, const std::vector<double>& ms) {
  // The gated latency is the 75th percentile. On a shared 4-vCPU x86-64
  // VM, single-thread speed switches between modes (about 0.7x, 1x and, in
  // bursts, 2.3x the usual time) for seconds at a time: the median moves
  // with the share of the fast mode in a run, the 90th percentile with a
  // burst covering a tenth of it. Over ten seeds the 75th spread 3-13%
  // where those spread up to 27% and 60%. Median, 90th percentile, rate and
  // sample count are printed with the run context.
  double total = 0;
  for (double v : ms) total += v;
  r->Set("op_ms_p75", Quantile(ms, 0.75), "ms");
  r->context["op_ms_p50"] = std::to_string(Quantile(ms, 0.5));
  r->context["op_ms_p90"] = std::to_string(Quantile(ms, 0.9));
  r->context["ops_per_s"] =
      std::to_string(total > 0 ? 1000.0 * ms.size() / total : 0);
  r->context["samples"] = std::to_string(ms.size());
}

void WriteTrace(const Options& o, const SpanLog& log, Outcome* r) {
  std::string path = o.work_dir + "/trace-" + o.workload + "-" +
                     std::to_string(o.seed) + ".jsonl";
  if (log.WriteJsonLines(path)) r->context["trace_file"] = path;
}

namespace {

// Wall time of `threads` concurrent copies of a fixed spin loop.
double SpinSeconds(int threads) {
  auto spin = [] {
    volatile uint64_t x = 1;
    for (uint64_t i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ULL + 1;
  };
  int64_t start = NowNs();
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  return static_cast<double>(NowNs() - start) / 1e9;
}

std::string FilesystemName(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

void RecordContext(const Options& o, Outcome* r) {
  r->context["nproc"] = std::to_string(std::thread::hardware_concurrency());
  double one = SpinSeconds(1), four = SpinSeconds(4);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", four / one);
  r->context["spin4_over_spin1"] = buf;
  std::snprintf(buf, sizeof buf, "%.2f", 4 * one / four);
  r->context["effective_parallelism"] = buf;
  r->context["kernel_backend"] =
      ged::KernelBackendName(ged::ResolveKernel().backend);
  r->context["kernel_detected"] =
      ged::KernelBackendName(ged::DetectKernelBackend());
  r->context["wal_filesystem"] = FilesystemName(o.work_dir);
  r->context["scale"] = o.scale;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o->trace = v == "1";
    } else if (k == "--work-dir") {
      o->work_dir = v;
    } else if (k == "--scale") {
      o->scale = v;
    } else if (k == "--expect") {
      o->expect = std::strtoll(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option %s\n", k.c_str());
      return false;
    }
  }
  return !o->workload.empty() && (argc % 2) == 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--scale full|tiny] "
                 "[--expect N]\n");
    return 2;
  }
  static const std::map<std::string, Outcome (*)(const Options&)> kWorkloads = {
      {"validate-match", RunValidateMatch},
      {"validate-report", RunValidateReport},
      {"ingest", RunIngest},
      {"recover", RunRecover},
      {"resolve", RunResolve},
      {"analysis", RunAnalysis},
  };
  auto it = kWorkloads.find(o.workload);
  if (it == kWorkloads.end()) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  Outcome context;
  RecordContext(o, &context);
  Outcome r = it->second(o);
  r.context.insert(context.context.begin(), context.context.end());
  std::printf("%s\n", ToJson(o.workload, r).c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}
