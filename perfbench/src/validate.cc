// validate-match and validate-report: one operation is Validate(Graph, Σ).
//
// validate-match  — GenDenseCommunity + DenseCliqueGeds: enumeration,
//                   leapfrog and the SIMD kernels do nearly all the work; a
//                   few percent of matches violate.
// validate-report — a circulant graph (n nodes, out-edges to i+1, i+2, i+3)
//                   with a 6-variable path rule whose Y fails on every
//                   match: building and sorting the report dominates. The
//                   report size has the closed form n·3⁵.
//
// The traced run decomposes one Validate into calls of the public layer
// functions on the same inputs: Freeze(Graph), RulesetPlan::Compile,
// EnumerateMatches per bucket with a counting callback (enumeration),
// ScanBucket with a no-op callback (enumeration + literal evaluation),
// ValidateWithPlan(FrozenGraph) (scan + report build and sort), and a
// SortViolationList of a reversed report copy; plus a replay of
// out(u) ∩ out(v) over every CSR edge through the resolved kernel.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "gen/scenarios.h"
#include "graph/frozen.h"
#include "harness.h"
#include "match/kernels/registry.h"
#include "match/matcher.h"
#include "plan/plan.h"
#include "reason/validation.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ged;

struct Case {
  Graph graph;
  std::vector<Ged> sigma;
};

// ----- validate-match ---------------------------------------------------------

DenseParams MatchParams(const Options& o) {
  DenseParams p;
  p.num_members = o.tiny() ? 96 : 256;
  p.community_size = o.tiny() ? 32 : 128;
  p.follows_per_member = o.tiny() ? 12 : 32;
  p.cross_links = 4;
  p.off_tier = 8;
  p.seed = static_cast<unsigned>(o.seed);
  return p;
}

Case MakeMatchCase(const Options& o) {
  return Case{GenDenseCommunity(MatchParams(o)).graph, DenseCliqueGeds()};
}

// Sorted, duplicate-free `follows` out-neighbors per node, read straight
// from the mutable adjacency: the brute-force oracle shares no code with
// the matcher.
std::vector<std::vector<NodeId>> FollowsLists(const Graph& g) {
  const Label follows = Sym("follows");
  std::vector<std::vector<NodeId>> out(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const Edge& e : g.out(v)) {
      if (e.label == follows) out[v].push_back(e.other);
    }
    std::sort(out[v].begin(), out[v].end());
    out[v].erase(std::unique(out[v].begin(), out[v].end()), out[v].end());
  }
  return out;
}

std::vector<NodeId> Intersect(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// x.tier = z.tier holds iff both exist and are equal.
bool TierEqual(const Graph& g, NodeId x, NodeId z) {
  static const AttrId tier = Sym("tier");
  std::optional<Value> a = g.attr(x, tier), b = g.attr(z, tier);
  return a.has_value() && b.has_value() && *a == *b;
}

// Violations of DenseCliqueGeds by nested loops over adjacency lists:
// triangles x→y→z, x→z with x.tier ≠ z.tier, and 4-cliques w→x→y→z (all
// six forward edges) with w.tier ≠ z.tier.
uint64_t BruteForceCliqueViolations(const Graph& g) {
  const Label member = Sym("member");
  std::vector<std::vector<NodeId>> out = FollowsLists(g);
  auto is_member = [&](NodeId v) { return g.label(v) == member; };
  uint64_t violations = 0;
  for (NodeId x = 0; x < g.NumNodes(); ++x) {
    if (!is_member(x)) continue;
    for (NodeId y : out[x]) {
      if (!is_member(y)) continue;
      for (NodeId z : Intersect(out[x], out[y])) {
        if (is_member(z) && !TierEqual(g, x, z)) ++violations;
      }
    }
  }
  for (NodeId w = 0; w < g.NumNodes(); ++w) {
    if (!is_member(w)) continue;
    for (NodeId x : out[w]) {
      if (!is_member(x)) continue;
      std::vector<NodeId> wx = Intersect(out[w], out[x]);
      for (NodeId y : wx) {
        if (!is_member(y)) continue;
        for (NodeId z : Intersect(wx, out[y])) {
          if (is_member(z) && !TierEqual(g, w, z)) ++violations;
        }
      }
    }
  }
  return violations;
}

// ----- validate-report --------------------------------------------------------

size_t ReportNodes(const Options& o) { return o.tiny() ? 64 : 512; }

// Circulant graph: node i → i+1, i+2, i+3 (mod n) over `e`, each node
// carrying a = i. The path rule x0 → … → x5 over `e` ⇒ x0.a = x5.a fails on
// every match (for n > 15 a walk ends 5..15 steps from its start), so the
// report lists all n·3⁵ walks. Four more out-edges per node over `g`, which
// the rule never mentions, lift |V| + |E| to Validate's freeze cutoff, so
// the report is built from a CSR scan as on large graphs.
Case MakeReportCase(const Options& o) {
  const size_t n = ReportNodes(o);
  // The seed rotates the node numbering; the report's size is seed-free.
  const size_t shift = static_cast<size_t>(o.seed % n);
  Case c;
  c.graph.Reserve(n, 7 * n);
  for (size_t i = 0; i < n; ++i) {
    NodeId v = c.graph.AddNode("c");
    c.graph.SetAttr(v, "a", Value(static_cast<int64_t>((i + shift) % n)));
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 1; k <= 7; ++k) {
      c.graph.AddEdge(static_cast<NodeId>(i), k <= 3 ? "e" : "g",
                      static_cast<NodeId>((i + k) % n));
    }
  }
  Pattern q;
  for (const char* x : {"x0", "x1", "x2", "x3", "x4", "x5"}) q.AddVar(x, "c");
  for (VarId i = 0; i + 1 < 6; ++i) q.AddEdge(i, "e", i + 1);
  const AttrId a = Sym("a");
  c.sigma.emplace_back("path_ends_agree", std::move(q),
                       std::vector<Literal>{},
                       std::vector<Literal>{Literal::Var(0, a, 5, a)});
  return c;
}

// ----- shared run loop --------------------------------------------------------

struct Expectation {
  uint64_t violations = 0;
  uint64_t matches_checked = 0;  // 0: unknown before the first run
};

// Re-checks a seeded sample of violations: the match must be a match of
// the rule's pattern, and the rule's Y literal (x.A = y.A) must fail on a
// direct attribute read.
bool SampleViolationsHold(const Graph& g, const std::vector<Ged>& sigma,
                          const ValidationReport& rep, uint64_t seed,
                          std::string* why) {
  if (rep.violations.empty()) return true;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (int k = 0; k < 64; ++k) {
    const Violation& v = rep.violations[rng() % rep.violations.size()];
    const Ged& phi = sigma[v.ged_index];
    if (!IsValidMatch(phi.pattern(), g, v.match)) {
      *why = "reported violation is not a match of " + phi.name();
      return false;
    }
    const Literal& y = phi.Y().front();
    std::optional<Value> a = g.attr(v.match[y.x], y.a);
    std::optional<Value> b = g.attr(v.match[y.y], y.b);
    if (a.has_value() && b.has_value() && *a == *b) {
      *why = "reported violation satisfies Y of " + phi.name();
      return false;
    }
  }
  return true;
}

using CaseFn = Case (*)(const Options&);

Outcome RunValidate(const Options& o, CaseFn make, bool match_workload) {
  Outcome r;
  SetupTimer setup;
  Case c = setup.Time([&] { return make(o); });

  Expectation want;
  if (match_workload) {
    want.violations = BruteForceCliqueViolations(c.graph);
    if (o.expect >= 0 && static_cast<uint64_t>(o.expect) != want.violations) {
      r.Check(false, "brute-force violation count " +
                         std::to_string(want.violations) +
                         " differs from the golden value " +
                         std::to_string(o.expect));
    }
  } else {
    want.violations = ReportNodes(o) * 243;
    want.matches_checked = want.violations;
  }
  r.context["graph_nodes"] = std::to_string(c.graph.NumNodes());
  r.context["graph_edges"] = std::to_string(c.graph.NumEdges());
  r.context["expected_violations"] = std::to_string(want.violations);

  // Checks one report; the first full report is kept for the sample check.
  bool sampled = false;
  auto check = [&](const ValidationReport& rep) {
    bool ok = rep.violations.size() == want.violations &&
              rep.aborted_geds.empty() &&
              (want.matches_checked == 0 ||
               rep.matches_checked == want.matches_checked);
    std::string why = "report has " + std::to_string(rep.violations.size()) +
                      " violations, want " + std::to_string(want.violations);
    if (ok && !sampled) {
      sampled = true;
      ok = SampleViolationsHold(c.graph, c.sigma, rep, o.seed, &why);
    }
    if (want.matches_checked == 0) want.matches_checked = rep.matches_checked;
    r.Check(ok, why);
  };

  const uint64_t min_iters = o.tiny() ? 3 : 100;
  if (!o.trace) {
    std::vector<double> ms;
    RunFor(o.seconds, min_iters, [&](uint64_t iter) {
      setup.RepeatEvery(iter, 16, [&] { return make(o); });
      int64_t start = NowNs();
      ValidationReport rep = Validate(c.graph, c.sigma);
      ms.push_back(NsToMs(NowNs() - start));
      check(rep);
    });
    SetLatencyMetrics(&r, ms);
    r.Set("setup_s", setup.MedianSeconds(), "s");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    return r;
  }

  // Traced run: each iteration is one Validate plus its layer replay.
  ZeroAllLayerMetrics(&r);
  SpanLog log;
  LayerProbe first;
  RunFor(o.seconds, o.tiny() ? 2 : 5, [&](uint64_t iter) {
    log.BeginOp();
    ValidationReport rep;
    {
      Span op(&log, "op.validate");
      rep = Validate(c.graph, c.sigma);
    }
    check(rep);
    LayerProbe probe = ProbeValidationLayers(c.graph, c.sigma, &log);
    if (iter == 0) {
      r.Check(probe.agrees_with(rep), "layer replay disagrees with Validate");
      first = std::move(probe);
    }
  });
  const double op = Median(log.DurationsMs("op.validate"));
  SetValidationLayerMetrics(log, first, &r);
  // freeze + compile + enumerate + literal eval + report build, over the
  // Validate time of the same iterations.
  r.Set("trace.coverage", op > 0 ? ValidationLayerSumMs(log) / op : 0,
        "ratio");
  r.context["op_ms_p50_traced"] = std::to_string(op);
  WriteTrace(o, log, &r);
  return r;
}

}  // namespace

uint64_t ReplayIntersect2(const FrozenGraph& g) {
  const IntersectionKernel& kernel = ResolveKernel();
  uint64_t emitted = 0, seeks = 0;
  auto emit = [](void* ctx, NodeId) {
    ++*static_cast<uint64_t*>(ctx);
    return true;
  };
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const Edge& e : g.out(u)) {
      kernel.intersect2(g.OutNeighborsLabeled(u, e.label),
                        g.OutNeighborsLabeled(e.other, e.label), emit,
                        &emitted, &seeks);
    }
  }
  return emitted;
}

bool LayerProbe::agrees_with(const ValidationReport& rep) const {
  return violations == rep.violations.size() &&
         checked == rep.matches_checked && scan_checked == checked &&
         sorted_matches_report;
}

LayerProbe ProbeValidationLayers(const Graph& g, const std::vector<Ged>& sigma,
                                 SpanLog* log) {
  LayerProbe p;
  const MatchOptions mopts;  // the defaults Validate's scans use
  FrozenGraph frozen;
  {
    Span s(log, "graph.freeze");
    frozen = FrozenGraph::Freeze(g);
  }
  RulesetPlan plan;
  {
    Span s(log, "plan.compile");
    plan = RulesetPlan::Compile(sigma);
  }
  for (const PlanBucket& b : plan.buckets) {
    Span s(log, "match.enumerate");
    MatchStats st = EnumerateMatches(b.pattern, frozen, mopts,
                                     [](const Match&) { return true; });
    p.steps += st.steps;
    p.matches += st.matches;
  }
  for (const PlanBucket& b : plan.buckets) {
    Span s(log, "reason.scan");
    ScanBucket(frozen, b, mopts, &p.scan_checked,
               [](size_t, const Match&) { return true; });
  }
  ValidationReport planned;
  {
    Span s(log, "reason.validate_with_plan");
    planned = ValidateWithPlan(frozen, plan);
  }
  p.checked = planned.matches_checked;
  p.violations = planned.violations.size();
  std::vector<Violation> reversed(planned.violations.rbegin(),
                                  planned.violations.rend());
  {
    Span s(log, "reason.report_sort");
    SortViolationList(&reversed);
  }
  p.sorted_matches_report = reversed == planned.violations;
  {
    Span s(log, "kernel.intersect2");
    p.emitted = ReplayIntersect2(frozen);
  }
  return p;
}

double ValidationLayerSumMs(const SpanLog& log) {
  return Median(log.DurationsMs("graph.freeze")) +
         Median(log.DurationsMs("plan.compile")) +
         Median(log.DurationsMs("reason.validate_with_plan"));
}

void SetValidationLayerMetrics(const SpanLog& log, const LayerProbe& first,
                               Outcome* r) {
  const double enumerate = Median(log.PerOpMs("match.enumerate"));
  const double scan = Median(log.PerOpMs("reason.scan"));
  const double planned = Median(log.DurationsMs("reason.validate_with_plan"));
  r->Set("graph.freeze_ms", Median(log.DurationsMs("graph.freeze")), "ms");
  r->Set("plan.compile_ms", Median(log.DurationsMs("plan.compile")), "ms");
  r->Set("match.enumerate_ms", enumerate, "ms");
  r->Set("reason.literal_eval_ms", scan - enumerate, "ms");
  r->Set("reason.report_build_ms", planned - scan, "ms");
  r->Set("reason.report_sort_ms",
         Median(log.DurationsMs("reason.report_sort")), "ms");
  r->Set("kernel.intersect2_ms", Median(log.DurationsMs("kernel.intersect2")),
         "ms");
  r->Set("match.steps", static_cast<double>(first.steps), "count");
  r->Set("match.matches", static_cast<double>(first.matches), "count");
  r->Set("reason.matches_checked", static_cast<double>(first.checked),
         "count");
  r->Set("reason.violations", static_cast<double>(first.violations), "count");
  r->Set("kernel.emitted", static_cast<double>(first.emitted), "count");
  r->deterministic["match.steps"] = first.steps;
  r->deterministic["reason.matches_checked"] = first.checked;
}

Outcome RunValidateMatch(const Options& o) {
  return RunValidate(o, MakeMatchCase, /*match_workload=*/true);
}

Outcome RunValidateReport(const Options& o) {
  return RunValidate(o, MakeReportCase, /*match_workload=*/false);
}

}  // namespace perfbench
