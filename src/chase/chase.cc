#include "chase/chase.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <span>

#include "match/matcher.h"
#include "plan/plan.h"

namespace ged {

namespace {

// The quotient of `eq`: one node per class (numbered in order of its least
// member) with the resolved class label, and the collapsed edges, frozen in
// one pass. With `consts`, every class attribute bound to a constant
// becomes a quotient attribute (the coercion); without, attributes stay in
// Eq only (what a chase round reads).
Coercion BuildQuotient(const EqRel& eq, bool consts) {
  const Graph& base = eq.base();
  constexpr NodeId kNone = UINT32_MAX;
  Coercion co;
  std::vector<Label> labels;
  co.node_map.assign(base.NumNodes(), kNone);
  for (NodeId v = 0; v < base.NumNodes(); ++v) {
    NodeId root = eq.NodeRoot(v);
    if (co.node_map[root] == kNone) {
      co.node_map[root] = static_cast<NodeId>(co.rep.size());
      co.rep.push_back(root);
      labels.push_back(eq.ClassLabel(root));
    }
    co.node_map[v] = co.node_map[root];
  }
  FrozenGraph::ColumnarAttrs attrs;
  if (consts) {
    // ClassAttrs is ordered by AttrId, as the columnar layout requires.
    attrs.offsets.push_back(0);
    for (NodeId root : co.rep) {
      for (const auto& [attr, term] : eq.ClassAttrs(root)) {
        if (const Value* c = eq.FindConst(term)) {
          attrs.keys.push_back(attr);
          attrs.values.push_back(*c);
        }
      }
      attrs.offsets.push_back(attrs.keys.size());
    }
  }
  co.graph = FrozenGraph::FreezeQuotient(base, co.node_map, std::move(labels),
                                         std::move(attrs));
  return co;
}

}  // namespace

Coercion BuildCoercion(const EqRel& eq) {
  return BuildQuotient(eq, /*consts=*/true);
}

namespace {

// Satisfaction / entailment / application of a literal against the live Eq,
// with the match given as base-graph node ids.
bool EqLiteralHolds(const EqRel& eq, const Match& base_match,
                    const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst: {
      TermId t = eq.FindTerm(base_match[l.x], l.a);
      if (t == kNoTerm) return false;
      const Value* c = eq.FindConst(t);
      return c != nullptr && *c == l.c;
    }
    case LiteralKind::kVar: {
      TermId t1 = eq.FindTerm(base_match[l.x], l.a);
      TermId t2 = eq.FindTerm(base_match[l.y], l.b);
      return t1 != kNoTerm && t2 != kNoTerm && eq.SameTerm(t1, t2);
    }
    case LiteralKind::kId:
      return eq.SameNode(base_match[l.x], base_match[l.y]);
  }
  return false;
}

void ApplyLiteral(EqRel* eq, const Match& base_match, const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst: {
      TermId t = eq->GetOrCreateTerm(base_match[l.x], l.a);
      eq->BindConst(t, l.c);
      break;
    }
    case LiteralKind::kVar: {
      TermId t1 = eq->GetOrCreateTerm(base_match[l.x], l.a);
      TermId t2 = eq->GetOrCreateTerm(base_match[l.y], l.b);
      eq->MergeTerms(t1, t2);
      break;
    }
    case LiteralKind::kId:
      eq->MergeNodes(base_match[l.x], base_match[l.y]);
      break;
  }
}

Match ToBaseMatch(const Coercion& co, const Match& h) {
  Match out(h.size());
  for (size_t i = 0; i < h.size(); ++i) out[i] = co.rep[h[i]];
  return out;
}

}  // namespace

bool EqSatisfiesLiteral(const EqRel& eq, const Coercion& co, const Match& h,
                        const Literal& literal) {
  return EqLiteralHolds(eq, ToBaseMatch(co, h), literal);
}

bool EqSatisfiesAll(const EqRel& eq, const Coercion& co, const Match& h,
                    const std::vector<Literal>& literals) {
  Match base_match = ToBaseMatch(co, h);
  for (const Literal& l : literals) {
    if (!EqLiteralHolds(eq, base_match, l)) return false;
  }
  return true;
}

bool Deducible(const EqRel& eq, const Literal& literal_on_base_nodes) {
  const Literal& l = literal_on_base_nodes;
  Match identity;
  size_t needed = std::max(l.x, l.kind == LiteralKind::kConst ? l.x : l.y) + 1;
  identity.resize(needed);
  for (size_t i = 0; i < needed; ++i) identity[i] = static_cast<NodeId>(i);
  return EqLiteralHolds(eq, identity, l);
}

EqRel BuildEqX(const Graph& gq, const std::vector<Literal>& x) {
  EqRel eq(gq);
  Match identity(gq.NumNodes());
  for (NodeId v = 0; v < gq.NumNodes(); ++v) identity[v] = v;
  for (const Literal& l : x) {
    ApplyLiteral(&eq, identity, l);
  }
  return eq;
}

void ApplyLiteralAt(EqRel* eq, const Match& base_match, const Literal& l) {
  ApplyLiteral(eq, base_match, l);
}

bool LiteralHoldsAt(const EqRel& eq, const Match& base_match,
                    const Literal& l) {
  return EqLiteralHolds(eq, base_match, l);
}

Graph InstantiateModel(const EqRel& eq) {
  Coercion co = BuildQuotient(eq, /*consts=*/false);
  Label fresh_label = Sym("!fresh_label");
  Graph out;
  for (NodeId q = 0; q < co.graph.NumNodes(); ++q) {
    Label l =
        co.graph.label(q) == kWildcard ? fresh_label : co.graph.label(q);
    out.AddNode(l);
  }
  std::unordered_map<TermId, Value> fresh_values;
  int counter = 0;
  for (NodeId q = 0; q < co.graph.NumNodes(); ++q) {
    for (const auto& [attr, term] : eq.ClassAttrs(co.rep[q])) {
      auto c = eq.TermConst(term);
      if (c.has_value()) {
        out.SetAttr(q, attr, *c);
        continue;
      }
      TermId root = eq.TermRoot(term);
      auto it = fresh_values.find(root);
      if (it == fresh_values.end()) {
        it = fresh_values
                 .emplace(root, Value("!fresh_" + std::to_string(counter++)))
                 .first;
      }
      out.SetAttr(q, attr, it->second);
    }
  }
  for (NodeId q = 0; q < co.graph.NumNodes(); ++q) {
    for (const Edge& e : co.graph.out(q)) out.AddEdge(q, e.label, e.other);
  }
  return out;
}

size_t SigmaSize(const std::vector<Ged>& sigma) {
  size_t total = 0;
  for (const Ged& phi : sigma) {
    total += phi.pattern().Size() + phi.X().size() + phi.Y().size() + 1;
  }
  return total;
}

namespace {

// What one class looks like to a chase step, per attribute: the term class
// it sits in and whether that class holds a constant.
struct AttrState {
  AttrId attr;
  TermId root;
  bool bound;
  bool operator==(const AttrState&) const = default;
};

// The state of every class of a quotient, in quotient-node order. Eq only
// grows and a union-find root never becomes a root again, so two snapshots
// of one class root are equal iff no step changed the class in between.
struct ClassStates {
  std::vector<size_t> size;   // members per class
  std::vector<size_t> begin;  // attrs of class q: [begin[q], begin[q + 1])
  std::vector<AttrState> attrs;

  std::span<const AttrState> Attrs(NodeId q) const {
    return {attrs.data() + begin[q], attrs.data() + begin[q + 1]};
  }
};

ClassStates SnapshotClasses(const EqRel& eq, const std::vector<NodeId>& rep) {
  ClassStates s;
  s.size.reserve(rep.size());
  s.begin.reserve(rep.size() + 1);
  s.begin.push_back(0);
  for (NodeId root : rep) {
    s.size.push_back(eq.ClassMembers(root).size());
    for (const auto& [attr, term] : eq.ClassAttrs(root)) {
      s.attrs.push_back(
          AttrState{attr, eq.TermRoot(term), eq.FindConst(term) != nullptr});
    }
    s.begin.push_back(s.attrs.size());
  }
  return s;
}

// Quotient nodes of `now` whose class changed since `before` (the previous
// round's start): members, attribute set, an attribute's term root or a
// bound constant. Sorted, as EnumerateMatchesTouching requires.
std::vector<NodeId> ChangedClasses(const Coercion& before,
                                   const ClassStates& before_states,
                                   const Coercion& now,
                                   const ClassStates& now_states) {
  std::vector<NodeId> changed;
  for (NodeId q = 0; q < now.rep.size(); ++q) {
    NodeId p = before.node_map[now.rep[q]];
    std::span<const AttrState> a = now_states.Attrs(q);
    std::span<const AttrState> b = before_states.Attrs(p);
    if (now_states.size[q] != before_states.size[p] ||
        !std::equal(a.begin(), a.end(), b.begin(), b.end())) {
      changed.push_back(q);
    }
  }
  return changed;
}

// An isomorphism invariant of a pattern, hashed: variable and edge counts
// plus order-independent sums over per-variable (label, out-degree,
// in-degree) and per-edge labels. Isomorphic patterns hash equal; a
// collision only costs one canonicalisation.
uint64_t PatternShape(const Pattern& q) {
  auto mix = [](uint64_t x) {  // splitmix64 finalizer
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  uint64_t h = mix(q.NumVars()) ^ mix(mix(q.NumEdges()));
  for (VarId x = 0; x < q.NumVars(); ++x) {
    uint64_t out = 0;
    uint64_t in = 0;
    for (const Pattern::PEdge& e : q.edges()) {
      out += e.src == x;
      in += e.dst == x;
    }
    h += mix(mix(q.label(x)) ^ (out << 32 | in));
  }
  for (const Pattern::PEdge& e : q.edges()) h += mix(e.label ^ (1ULL << 40));
  return h;
}

// A rule as a round checks it: its literals over the bucket's variables,
// and `to_plan`, where the bucket binds each of the rule's own variables
// (null when the bucket pattern is the rule's own pattern).
struct ChaseRule {
  size_t ged_index;
  const std::vector<Literal>* x;
  const std::vector<Literal>* y;
  const std::vector<VarId>* to_plan;
};

// A pattern enumerated once per round and the rules checked at its matches.
struct ChaseBucket {
  const Pattern* pattern;
  std::vector<ChaseRule> rules;
};

// Σ in shared-pattern buckets, ordered by first member rule. Canonicalising
// a pattern searches its variable permutations (ged/canonical.h) and a chase
// compiles Σ on every call, so only rules whose pattern shape another rule
// shares go through RulesetPlan::Compile, into *shared; every other rule is
// a bucket of its own over its own pattern. The buckets point into `sigma`
// and *shared.
std::vector<ChaseBucket> CompileChasePlan(const std::vector<Ged>& sigma,
                                          RulesetPlan* shared) {
  std::vector<uint64_t> shapes;
  for (const Ged& phi : sigma) shapes.push_back(PatternShape(phi.pattern()));
  std::vector<Ged> shared_rules;
  std::vector<size_t> shared_index;
  std::vector<ChaseBucket> buckets;
  for (size_t i = 0; i < sigma.size(); ++i) {
    const Ged& phi = sigma[i];
    if (std::count(shapes.begin(), shapes.end(), shapes[i]) > 1) {
      shared_rules.push_back(phi);
      shared_index.push_back(i);
    } else {
      buckets.push_back(
          {&phi.pattern(), {ChaseRule{i, &phi.X(), &phi.Y(), nullptr}}});
    }
  }
  *shared = RulesetPlan::Compile(shared_rules);
  for (const PlanBucket& bucket : shared->buckets) {
    buckets.push_back({&bucket.pattern, {}});
    for (const PlanRule& rule : bucket.rules) {
      buckets.back().rules.push_back(ChaseRule{shared_index[rule.ged_index],
                                               &rule.x_plan, &rule.y_plan,
                                               &rule.to_plan});
    }
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const ChaseBucket& a, const ChaseBucket& b) {
              return a.rules[0].ged_index < b.rules[0].ged_index;
            });
  return buckets;
}

bool EqHoldsAll(const EqRel& eq, const Match& base_match,
                const std::vector<Literal>& literals) {
  for (const Literal& l : literals) {
    if (!EqLiteralHolds(eq, base_match, l)) return false;
  }
  return true;
}

}  // namespace

ChaseResult Chase(const Graph& base, const std::vector<Ged>& sigma,
                  const EqRel* init, const ChaseOptions& options) {
  ScopedSpan span(options.obs.Trace(), "Chase",
                  options.obs.Trace() == nullptr
                      ? std::string{}
                      : "sigma=" + std::to_string(sigma.size()));
  ScopedLatency lat(options.obs.Metrics(), EngineMetric::kChaseWallNs);
  if (MetricsRegistry* m = options.obs.Metrics()) {
    m->Inc(EngineMetric::kChaseRuns);
  }
  ChaseResult res{.consistent = false,
                  .conflict_reason = "",
                  .eq = init ? *init : EqRel(base),
                  .coercion = {},
                  .journal = {},
                  .num_steps = 0,
                  .rounds = 0,
                  .matches_checked = 0,
                  .capped = false};
  // Fires on every return path (the chase has several) with the final step
  // count; nothing per applied step touches the registry.
  struct StepsObs {
    MetricsRegistry* m;
    const uint64_t* steps;
    ~StepsObs() {
      if (m != nullptr && *steps > 0) m->Inc(EngineMetric::kChaseSteps, *steps);
    }
  } steps_obs{options.obs.Metrics(), &res.num_steps};
  EqRel& eq = res.eq;
  auto stop = [&](std::string reason) {
    res.conflict_reason = std::move(reason);
    res.coercion = BuildCoercion(eq);
    return std::move(res);
  };
  if (eq.inconsistent()) {
    return stop("initial Eq inconsistent: " + eq.conflict_reason());
  }

  RulesetPlan shared;
  const std::vector<ChaseBucket> plan = CompileChasePlan(sigma, &shared);
  const bool shuffled = options.order_seed != 0;
  std::mt19937 rng(options.order_seed);
  std::vector<size_t> bucket_order(plan.size());
  std::iota(bucket_order.begin(), bucket_order.end(), size_t{0});
  std::vector<size_t> rule_order;
  std::vector<NodeId> rows;  // one round buffer, reused by every bucket
  std::vector<size_t> row_order;
  std::vector<NodeId> touched;
  Match base_match;
  Coercion prev;
  ClassStates prev_states;

  Coercion co;
  for (;;) {
    co = BuildQuotient(eq, /*consts=*/false);
    ClassStates states = SnapshotClasses(eq, co.rep);
    if (res.rounds > 0) touched = ChangedClasses(prev, prev_states, co, states);
    const FrozenGraph& frozen = co.graph;
    ++res.rounds;
    bool changed = false;

    if (shuffled) std::shuffle(bucket_order.begin(), bucket_order.end(), rng);
    for (size_t b : bucket_order) {
      const ChaseBucket& bucket = plan[b];
      const size_t k = bucket.pattern->NumVars();
      rows.clear();
      size_t num_rows = 0;
      auto collect = [&](const Match& h) {
        rows.insert(rows.end(), h.begin(), h.end());
        ++num_rows;
        return true;
      };
      if (res.rounds == 1) {
        EnumerateMatches(*bucket.pattern, frozen, {}, collect);
      } else {
        EnumerateMatchesTouching(*bucket.pattern, frozen, touched, {},
                                 collect);
      }
      row_order.resize(num_rows);
      std::iota(row_order.begin(), row_order.end(), size_t{0});
      rule_order.resize(bucket.rules.size());
      std::iota(rule_order.begin(), rule_order.end(), size_t{0});
      if (shuffled) {
        std::shuffle(rule_order.begin(), rule_order.end(), rng);
        std::shuffle(row_order.begin(), row_order.end(), rng);
      }
      base_match.resize(k);
      for (size_t r : row_order) {
        for (size_t i = 0; i < k; ++i) base_match[i] = co.rep[rows[r * k + i]];
        for (size_t j : rule_order) {
          const ChaseRule& rule = bucket.rules[j];
          const Ged& phi = sigma[rule.ged_index];
          ++res.matches_checked;
          if (!EqHoldsAll(eq, base_match, *rule.x)) continue;
          if (phi.is_forbidding()) {
            // An invalid chasing sequence: the result is ⊥.
            return stop("forbidding GED '" + phi.name() +
                        "' applies (X holds, Y = false)");
          }
          for (size_t y = 0; y < rule.y->size(); ++y) {
            const Literal& l = (*rule.y)[y];
            if (EqLiteralHolds(eq, base_match, l)) continue;
            ApplyLiteral(&eq, base_match, l);
            ++res.num_steps;
            changed = true;
            if (options.record_journal) {
              Match rule_match(phi.pattern().NumVars());
              for (VarId x = 0; x < rule_match.size(); ++x) {
                rule_match[x] =
                    base_match[rule.to_plan ? (*rule.to_plan)[x] : x];
              }
              res.journal.push_back(
                  ChaseStep{rule.ged_index, std::move(rule_match), phi.Y()[y]});
            }
            if (eq.inconsistent()) return stop(eq.conflict_reason());
            if (options.max_steps != 0 && res.num_steps >= options.max_steps) {
              res.capped = true;
              return stop("");
            }
          }
        }
      }
    }
    if (!changed) break;
    prev = std::move(co);
    prev_states = std::move(states);
  }
  res.consistent = true;
  res.coercion = BuildCoercion(eq);
  return res;
}

}  // namespace ged
