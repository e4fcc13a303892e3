#include "ext/gedor.h"

#include <deque>
#include <sstream>
#include <unordered_set>

namespace ged {

GedOr::GedOr(std::string name, Pattern pattern, std::vector<Literal> x,
             std::vector<Literal> y)
    : name_(std::move(name)),
      pattern_(std::move(pattern)),
      x_(std::move(x)),
      y_(std::move(y)) {}

std::vector<GedOr> GedOr::FromGed(const Ged& ged) {
  std::vector<GedOr> out;
  if (ged.is_forbidding()) {
    out.emplace_back(ged.name(), ged.pattern(), ged.X(),
                     std::vector<Literal>{});
    return out;
  }
  size_t i = 0;
  for (const Literal& l : ged.Y()) {
    out.emplace_back(ged.name() + "#" + std::to_string(i++), ged.pattern(),
                     ged.X(), std::vector<Literal>{l});
  }
  return out;
}

Status GedOr::Validate() const {
  // Reuse the GED literal checks through a conjunctive view.
  Ged view(name_, pattern_, x_, y_, /*y_is_false=*/false);
  return view.Validate();
}

std::string GedOr::ToString() const {
  std::ostringstream os;
  os << name_ << ": Q[" << pattern_.ToString() << "] (";
  for (size_t i = 0; i < x_.size(); ++i) {
    if (i) os << " && ";
    os << x_[i].ToString(pattern_);
  }
  if (x_.empty()) os << "true";
  os << " -> ";
  if (y_.empty()) {
    os << "false";
  } else {
    for (size_t i = 0; i < y_.size(); ++i) {
      if (i) os << " || ";
      os << y_[i].ToString(pattern_);
    }
  }
  os << ")";
  return os.str();
}

bool SatisfiesDisjunction(const FrozenGraph& g, const Match& h,
                          const std::vector<Literal>& disjuncts) {
  for (const Literal& l : disjuncts) {
    if (SatisfiesLiteral(g, h, l)) return true;
  }
  return false;
}

std::vector<Match> FindGedOrViolations(const FrozenGraph& g, const GedOr& psi,
                                       uint64_t max_violations,
                                       const MatchOptions& base_options) {
  ScopedSpan span(base_options.obs.Trace(), "GedOrScan", psi.name());
  if (MetricsRegistry* m = base_options.obs.Metrics()) {
    m->Inc(EngineMetric::kGedOrScans);
  }
  std::vector<Match> out;
  EnumerateMatches(psi.pattern(), g, base_options, [&](const Match& h) {
    if (!SatisfiesAll(g, h, psi.X())) return true;
    if (!SatisfiesDisjunction(g, h, psi.Y())) {
      out.push_back(h);
      if (max_violations != 0 && out.size() >= max_violations) return false;
    }
    return true;
  });
  return out;
}

bool ValidateGedOrs(const FrozenGraph& g, const std::vector<GedOr>& sigma,
                    const MatchOptions& base_options) {
  ScopedSpan span(base_options.obs.Trace(), "GedOrValidate",
                  base_options.obs.Trace() == nullptr
                      ? std::string{}
                      : "sigma=" + std::to_string(sigma.size()));
  for (const GedOr& psi : sigma) {
    if (!FindGedOrViolations(g, psi, 1, base_options).empty()) return false;
  }
  return true;
}

namespace {

// Finds the first (rule, match, disjuncts) whose premise is entailed but no
// disjunct is; nullopt when the state is terminal.
struct Pending {
  const GedOr* rule;
  Match base_match;
};

std::optional<Pending> FindPending(const EqRel& eq,
                                   const std::vector<GedOr>& sigma) {
  Coercion co = BuildCoercion(eq);
  std::optional<Pending> pending;
  Match bm;
  for (const GedOr& psi : sigma) {
    EnumerateMatches(psi.pattern(), co.graph, {}, [&](const Match& h) {
      bm.resize(h.size());
      for (size_t i = 0; i < h.size(); ++i) bm[i] = co.rep[h[i]];
      for (const Literal& l : psi.X()) {
        if (!LiteralHoldsAt(eq, bm, l)) return true;
      }
      for (const Literal& l : psi.Y()) {
        if (LiteralHoldsAt(eq, bm, l)) return true;
      }
      pending = Pending{&psi, bm};
      return false;
    });
    if (pending.has_value()) return pending;
  }
  return std::nullopt;
}

}  // namespace

DisjChaseResult DisjunctiveChase(const Graph& base,
                                 const std::vector<GedOr>& sigma,
                                 const EqRel* init, uint64_t max_states) {
  DisjChaseResult out;
  std::unordered_set<std::string> visited;
  std::unordered_set<std::string> leaf_sigs;
  std::deque<EqRel> stack;
  {
    EqRel eq0 = init ? *init : EqRel(base);
    if (eq0.inconsistent()) return out;  // no valid branch at all
    stack.push_back(std::move(eq0));
  }
  while (!stack.empty()) {
    if (out.states >= max_states) {
      out.capped = true;
      return out;
    }
    EqRel eq = std::move(stack.back());
    stack.pop_back();
    std::string sig = eq.CanonicalSignature();
    if (!visited.insert(sig).second) continue;
    ++out.states;
    auto pending = FindPending(eq, sigma);
    if (!pending.has_value()) {
      if (leaf_sigs.insert(sig).second) out.valid_leaves.push_back(eq);
      continue;
    }
    // Branch over the disjuncts (empty Y = forbidding: branch dies here).
    for (const Literal& l : pending->rule->Y()) {
      EqRel next = eq;
      ApplyLiteralAt(&next, pending->base_match, l);
      if (!next.inconsistent()) stack.push_back(std::move(next));
    }
  }
  return out;
}

GdcDecision CheckGedOrSatisfiability(const std::vector<GedOr>& sigma,
                                     uint64_t max_states) {
  GdcDecision out;
  Graph canonical;
  for (const GedOr& psi : sigma) {
    canonical.DisjointUnion(psi.pattern().ToGraph());
  }
  DisjChaseResult chase = DisjunctiveChase(canonical, sigma, nullptr,
                                           max_states);
  for (const EqRel& leaf : chase.valid_leaves) {
    Graph model = InstantiateModel(leaf);
    if (ValidateGedOrs(FrozenGraph::Freeze(model), sigma)) {
      out.decision = Decision::kYes;
      out.detail = "verified model from a valid disjunctive-chase branch";
      out.witness = std::move(model);
      out.has_witness = true;
      return out;
    }
  }
  if (chase.capped) {
    out.decision = Decision::kUnknown;
    out.detail = "disjunctive chase hit the state cap";
    return out;
  }
  out.decision = Decision::kNo;
  out.detail = "all disjunctive-chase branches are invalid";
  return out;
}

GdcDecision CheckGedOrImplication(const std::vector<GedOr>& sigma,
                                  const GedOr& psi, uint64_t max_states) {
  GdcDecision out;
  Graph gq = psi.pattern().ToGraph();
  EqRel eqx = BuildEqX(gq, psi.X());
  if (eqx.inconsistent()) {
    out.decision = Decision::kYes;
    out.detail = "Eq_X is inconsistent; ψ holds vacuously";
    return out;
  }
  DisjChaseResult chase = DisjunctiveChase(gq, sigma, &eqx, max_states);
  if (chase.capped) {
    out.decision = Decision::kUnknown;
    out.detail = "disjunctive chase hit the state cap";
    return out;
  }
  if (chase.valid_leaves.empty()) {
    out.decision = Decision::kYes;
    out.detail = "no valid branch: X cannot hold under Σ";
    return out;
  }
  for (const EqRel& leaf : chase.valid_leaves) {
    bool some = false;
    for (const Literal& l : psi.Y()) {
      if (Deducible(leaf, l)) {
        some = true;
        break;
      }
    }
    if (some) continue;
    // This leaf is a counter-model candidate; verify end to end.
    Graph model = InstantiateModel(leaf);
    const FrozenGraph frozen = FrozenGraph::Freeze(model);
    if (ValidateGedOrs(frozen, sigma)) {
      Coercion co = BuildCoercion(leaf);
      Match image(gq.NumNodes());
      for (NodeId v = 0; v < gq.NumNodes(); ++v) image[v] = co.node_map[v];
      if (SatisfiesAll(frozen, image, psi.X()) &&
          !SatisfiesDisjunction(frozen, image, psi.Y())) {
        out.decision = Decision::kNo;
        out.detail = "verified counter-model from a chase leaf";
        out.witness = std::move(model);
        out.has_witness = true;
        return out;
      }
    }
    out.decision = Decision::kUnknown;
    out.detail = "a leaf does not deduce Y but verification failed";
    return out;
  }
  out.decision = Decision::kYes;
  out.detail = "every valid chase leaf deduces a disjunct of Y";
  return out;
}

Result<std::vector<GedOr>> ParseGedOrs(std::string_view text) {
  auto rules = ParseRules(text);
  if (!rules.ok()) return rules.status();
  std::vector<GedOr> out;
  for (RuleAst& rule : rules.value()) {
    std::vector<Literal> x, y;
    for (const AstLiteral& al : rule.where) {
      auto l = AstToLiteral(rule.pattern, al);
      if (!l.ok()) return l.status();
      x.push_back(l.Take());
    }
    if (!rule.then_false) {
      for (const AstLiteral& al : rule.then_literals) {
        auto l = AstToLiteral(rule.pattern, al);
        if (!l.ok()) return l.status();
        y.push_back(l.Take());
      }
    }
    GedOr psi(rule.name, std::move(rule.pattern), std::move(x), std::move(y));
    GEDLIB_RETURN_IF_ERROR(psi.Validate());
    out.push_back(std::move(psi));
  }
  return out;
}

}  // namespace ged
