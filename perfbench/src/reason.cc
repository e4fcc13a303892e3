// resolve and analysis: the chase and the reasoning built on it (paper
// §4–5, §7). Neither touches CSR snapshots, overlays, leapfrog or the WAL.
//
// resolve  — one operation is Chase(GenMusicBase, MusicKeys): entity
//            resolution with the recursive keys ψ1–ψ3. The quotient must
//            have exactly MusicInstance::true_entities nodes.
// analysis — one operation is a static-analysis bundle over a seeded rule
//            set: CheckSatisfiability of the rules (satisfiable) and of the
//            rules plus two contradicting constant rules (unsatisfiable);
//            one CheckImplication per rule against the others (the
//            MinimizeCover loop), whose answers are known from attribute
//            reachability; GenerateImplicationProof + CheckProof for an
//            implied key chain; CheckGdcSatisfiability and
//            CheckGedOrSatisfiability of domain constraints.
//
// A run cycles through kInstances instances from sub-seeds (SubSeed).

#include <algorithm>
#include <deque>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "axiom/checker.h"
#include "axiom/generator.h"
#include "chase/chase.h"
#include "ext/gdc.h"
#include "ext/gdc_reason.h"
#include "ext/gedor.h"
#include "gen/scenarios.h"
#include "harness.h"
#include "match/matcher.h"
#include "reason/implication.h"
#include "reason/satisfiability.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ged;

constexpr size_t kInstances = 8;

// ----- resolve ------------------------------------------------------------------

MusicParams ResolveParams(const Options& o, size_t i) {
  MusicParams p;
  p.num_artists = o.tiny() ? 8 : 40;
  p.albums_per_artist = 2;
  p.dup_albums = o.tiny() ? 2 : 8;
  p.dup_artists = o.tiny() ? 1 : 4;
  p.seed = SubSeed(o.seed, i);
  return p;
}

// ----- analysis -----------------------------------------------------------------

struct AnalysisCase {
  std::vector<Ged> sigma;      // x.a_i = y.a_i ⇒ x.a_j = y.a_j rules
  std::vector<bool> implied;   // CheckImplication(Σ∖{σ_k}, σ_k) answers
  std::vector<Ged> conflicted;  // Σ plus x.c = 1 and x.c = 2: unsatisfiable
  std::vector<Ged> key;        // x.a = y.a ⇒ x.id = y.id
  Ged chain;                   // x0.a = x1.a, …, ⇒ x0.id = x_{n-1}.id
  std::vector<Gdc> gdc;        // x.d0 exists and is 0 or 1: satisfiable
  std::vector<Gdc> gdc_conflict;  // x.v < 5 and x.v > 7: unsatisfiable
  std::vector<GedOr> gedor;    // each attribute is one of d constants
};

Ged PairRule(const std::string& name, AttrId from, AttrId to) {
  Pattern q;
  VarId x = q.AddVar("x", "n");
  VarId y = q.AddVar("y", "n");
  return Ged(name, std::move(q), {Literal::Var(x, from, y, from)},
             {Literal::Var(x, to, y, to)});
}

Ged ConstRule(const std::string& name, AttrId a, int64_t c) {
  Pattern q;
  VarId x = q.AddVar("x", "n");
  return Ged(name, std::move(q), {}, {Literal::Const(x, a, Value(c))});
}

// Is `to` reachable from `from` over the rule edges other than `skip`?
bool Reachable(const std::vector<std::pair<size_t, size_t>>& edges,
               size_t skip, size_t from, size_t to, size_t attrs) {
  std::vector<bool> seen(attrs, false);
  std::deque<size_t> todo{from};
  seen[from] = true;
  while (!todo.empty()) {
    size_t u = todo.front();
    todo.pop_front();
    if (u == to) return true;
    for (size_t k = 0; k < edges.size(); ++k) {
      if (k == skip || edges[k].first != u || seen[edges[k].second]) continue;
      seen[edges[k].second] = true;
      todo.push_back(edges[k].second);
    }
  }
  return false;
}

AnalysisCase MakeAnalysisCase(const Options& o, size_t i) {
  const size_t attrs = o.tiny() ? 4 : 8;
  const size_t rules = o.tiny() ? 5 : 12;
  const size_t chain = o.tiny() ? 3 : 6;
  const size_t domain_attrs = o.tiny() ? 1 : 2;
  std::mt19937_64 rng(SubSeed(o.seed, i));
  AnalysisCase c;
  std::vector<std::pair<size_t, size_t>> edges;
  while (edges.size() < rules) {
    size_t from = rng() % attrs, to = rng() % attrs;
    if (from == to) continue;
    if (std::find(edges.begin(), edges.end(), std::make_pair(from, to)) !=
        edges.end()) {
      continue;
    }
    edges.emplace_back(from, to);
    c.sigma.push_back(PairRule("fd" + std::to_string(edges.size()),
                               Sym("a" + std::to_string(from)),
                               Sym("a" + std::to_string(to))));
  }
  for (size_t k = 0; k < edges.size(); ++k) {
    c.implied.push_back(
        Reachable(edges, k, edges[k].first, edges[k].second, attrs));
  }
  c.conflicted = c.sigma;
  c.conflicted.push_back(ConstRule("c_is_1", Sym("c"), 1));
  c.conflicted.push_back(ConstRule("c_is_2", Sym("c"), 2));

  const AttrId a = Sym("a");
  {
    Pattern k;
    VarId x = k.AddVar("x", "n");
    VarId y = k.AddVar("y", "n");
    c.key.emplace_back("key", std::move(k),
                       std::vector<Literal>{Literal::Var(x, a, y, a)},
                       std::vector<Literal>{Literal::Id(x, y)});
  }
  Pattern q;
  std::vector<Literal> x;
  for (size_t v = 0; v < chain; ++v) q.AddVar("x" + std::to_string(v), "n");
  for (VarId v = 0; v + 1 < chain; ++v) x.push_back(Literal::Var(v, a, v + 1, a));
  c.chain = Ged("chain", std::move(q), std::move(x),
                {Literal::Id(0, static_cast<VarId>(chain - 1))});

  // GDC satisfiability: "x.d0 exists and is 0 or 1" has a model; the
  // region search cannot settle more than one such attribute within its
  // budget, so the second query is a refutation (x.v < 5 and x.v > 7).
  {
    const AttrId d = Sym("d0"), v = Sym("v");
    Pattern q1;
    q1.AddVar("x", "tau");
    c.gdc.emplace_back("exists", q1, std::vector<GdcLiteral>{},
                       std::vector<GdcLiteral>{
                           GdcLiteral::VarPred(0, d, Pred::kEq, 0, d)});
    c.gdc.emplace_back(
        "domain", q1,
        std::vector<GdcLiteral>{
            GdcLiteral::ConstPred(0, d, Pred::kNe, Value(int64_t{0})),
            GdcLiteral::ConstPred(0, d, Pred::kNe, Value(int64_t{1}))},
        std::vector<GdcLiteral>{}, /*y_is_false=*/true);
    c.gdc_conflict.emplace_back(
        "low", q1, std::vector<GdcLiteral>{},
        std::vector<GdcLiteral>{
            GdcLiteral::ConstPred(0, v, Pred::kLt, Value(int64_t{5}))});
    c.gdc_conflict.emplace_back(
        "high", q1, std::vector<GdcLiteral>{},
        std::vector<GdcLiteral>{
            GdcLiteral::ConstPred(0, v, Pred::kGt, Value(int64_t{7}))});
  }
  for (size_t k = 0; k < domain_attrs; ++k) {
    const AttrId d = Sym("d" + std::to_string(k));
    Pattern q1;
    q1.AddVar("x", "tau");
    std::vector<Literal> y;
    for (int64_t v = 0; v < 3; ++v) y.push_back(Literal::Const(0, d, Value(v)));
    c.gedor.emplace_back("dom" + std::to_string(k), q1, std::vector<Literal>{},
                         std::move(y));
  }
  return c;
}

// Runs the bundle; returns false (with `why`) on an unexpected answer.
// `log` (may be null) receives one span per reasoning call.
bool RunAnalysisOp(const AnalysisCase& c, SpanLog* log, uint64_t* chase_steps,
                   std::string* why) {
  bool ok = true;
  {
    Span s(log, "reason.satisfiability");
    SatisfiabilityResult sat = CheckSatisfiability(c.sigma);
    SatisfiabilityResult unsat = CheckSatisfiability(c.conflicted);
    *chase_steps += sat.chase.num_steps + unsat.chase.num_steps;
    if (!sat.satisfiable || unsat.satisfiable) {
      ok = false;
      *why = "satisfiability answer differs from the expected one";
    }
  }
  for (size_t k = 0; k < c.sigma.size(); ++k) {
    std::vector<Ged> rest;
    for (size_t j = 0; j < c.sigma.size(); ++j) {
      if (j != k) rest.push_back(c.sigma[j]);
    }
    Span s(log, "reason.implication");
    ImplicationResult imp = CheckImplication(rest, c.sigma[k]);
    *chase_steps += imp.chase.num_steps;
    if (imp.implied != c.implied[k]) {
      ok = false;
      *why = "implication answer for rule " + std::to_string(k) +
             " differs from attribute reachability";
    }
  }
  Result<Proof> proof = Status::Internal("not generated");
  {
    Span s(log, "axiom.proof");
    proof = GenerateImplicationProof(c.key, c.chain);
  }
  {
    Span s(log, "axiom.check");
    if (!proof.ok() || !CheckProof(c.key, proof.value()).ok()) {
      ok = false;
      *why = "key chain proof missing or rejected by CheckProof";
    }
  }
  {
    Span s(log, "ext.gdc");
    if (CheckGdcSatisfiability(c.gdc).decision != Decision::kYes ||
        CheckGdcSatisfiability(c.gdc_conflict).decision != Decision::kNo) {
      ok = false;
      *why = "GDC satisfiability answer differs from the expected one";
    }
  }
  {
    Span s(log, "ext.gedor");
    if (CheckGedOrSatisfiability(c.gedor).decision != Decision::kYes) {
      ok = false;
      *why = "GED-or domain constraints not found satisfiable";
    }
  }
  return ok;
}

}  // namespace

Outcome RunResolve(const Options& o) {
  Outcome r;
  auto make = [&] {
    std::vector<MusicInstance> music;
    for (size_t i = 0; i < kInstances; ++i) {
      music.push_back(GenMusicBase(ResolveParams(o, i)));
    }
    return music;
  };
  SetupTimer setup;
  const std::vector<MusicInstance> music = setup.Time(make);
  const std::vector<Ged> keys = MusicKeys();
  auto check = [&](const ChaseResult& res, const MusicInstance& m) {
    r.Check(res.consistent && res.coercion.graph.NumNodes() == m.true_entities,
            "resolved " + std::to_string(res.coercion.graph.NumNodes()) +
                " entities, want " + std::to_string(m.true_entities));
  };
  if (!o.trace) {
    std::vector<double> ms;
    RunFor(o.seconds, o.tiny() ? 3 : 100, [&](uint64_t iter) {
      setup.RepeatEvery(iter, 64, make);
      const MusicInstance& m = music[iter % kInstances];
      int64_t t0 = NowNs();
      ChaseResult res = Chase(m.graph, keys);
      ms.push_back(NsToMs(NowNs() - t0));
      check(res, m);
    });
    SetLatencyMetrics(&r, ms);
    r.Set("setup_s", setup.MedianSeconds(), "s");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    return r;
  }
  ZeroAllLayerMetrics(&r);
  SpanLog log;
  uint64_t steps = 0;
  RunFor(o.seconds, kInstances, [&](uint64_t iter) {
    const MusicInstance& m = music[iter % kInstances];
    log.BeginOp();
    std::optional<ChaseResult> chased;
    {
      Span op(&log, "op.resolve");
      Span s(&log, "chase.chase");
      chased.emplace(Chase(m.graph, keys));
    }
    const ChaseResult& res = *chased;
    check(res, m);
    if (iter < kInstances) steps += res.num_steps;
    {
      Span s(&log, "chase.coercion");
      Coercion co = BuildCoercion(res.eq);
    }
    {
      Span s(&log, "chase.round_match");
      for (const Ged& k : keys) AllMatches(k.pattern(), res.coercion.graph);
    }
  });
  const double op = Median(log.DurationsMs("op.resolve"));
  const double chase = Median(log.DurationsMs("chase.chase"));
  r.Set("chase.chase_ms", chase, "ms");
  r.Set("chase.coercion_ms", Median(log.DurationsMs("chase.coercion")), "ms");
  r.Set("chase.round_match_ms", Median(log.DurationsMs("chase.round_match")),
        "ms");
  r.Set("chase.steps", static_cast<double>(steps), "count");
  r.Set("trace.coverage", op > 0 ? chase / op : 0, "ratio");
  r.deterministic["chase.steps"] = steps;
  r.context["op_ms_p50_traced"] = std::to_string(op);
  WriteTrace(o, log, &r);
  return r;
}

Outcome RunAnalysis(const Options& o) {
  Outcome r;
  auto make = [&] {
    std::vector<AnalysisCase> cases;
    for (size_t i = 0; i < kInstances; ++i) {
      cases.push_back(MakeAnalysisCase(o, i));
    }
    return cases;
  };
  SetupTimer setup;
  const std::vector<AnalysisCase> cases = setup.Time(make);
  if (!o.trace) {
    std::vector<double> ms;
    RunFor(o.seconds, o.tiny() ? 3 : 100, [&](uint64_t iter) {
      setup.RepeatEvery(iter, 64, make);
      uint64_t steps = 0;
      std::string why;
      int64_t t0 = NowNs();
      bool ok = RunAnalysisOp(cases[iter % kInstances], nullptr, &steps, &why);
      ms.push_back(NsToMs(NowNs() - t0));
      r.Check(ok, why);
    });
    SetLatencyMetrics(&r, ms);
    r.Set("setup_s", setup.MedianSeconds(), "s");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    return r;
  }
  ZeroAllLayerMetrics(&r);
  SpanLog log;
  uint64_t steps = 0;
  RunFor(o.seconds, kInstances, [&](uint64_t iter) {
    log.BeginOp();
    uint64_t op_steps = 0;
    std::string why;
    bool ok;
    {
      Span op(&log, "op.analysis");
      ok = RunAnalysisOp(cases[iter % kInstances], &log, &op_steps, &why);
    }
    r.Check(ok, why);
    if (iter < kInstances) steps += op_steps;
  });
  static const char* kLayers[] = {"reason.implication", "reason.satisfiability",
                                  "axiom.proof",        "axiom.check",
                                  "ext.gdc",            "ext.gedor"};
  double layers = 0;
  for (const char* name : kLayers) {
    double ms = Median(log.PerOpMs(name));
    layers += ms;
    r.Set(std::string(name) + "_ms", ms, "ms");
  }
  const double op = Median(log.DurationsMs("op.analysis"));
  r.Set("chase.steps", static_cast<double>(steps), "count");
  r.Set("trace.coverage", op > 0 ? layers / op : 0, "ratio");
  r.deterministic["chase.steps"] = steps;
  r.context["op_ms_p50_traced"] = std::to_string(op);
  WriteTrace(o, log, &r);
  return r;
}

}  // namespace perfbench
