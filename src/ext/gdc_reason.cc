#include "ext/gdc_reason.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "chase/chase.h"

namespace ged {

namespace {

// ----- order-constraint store ------------------------------------------------

// One normalized inequality between attribute-term classes / constants.
// op is kNe, kLt or kLe (kGt/kGe are flipped on insertion; kEq goes to Eq).
struct Ineq {
  bool a_is_const = false;
  TermId ta = kNoTerm;
  Value ca;
  Pred op = Pred::kNe;
  bool b_is_const = false;
  TermId tb = kNoTerm;
  Value cb;
};

struct GdcState {
  explicit GdcState(const Graph& base) : eq(base) {}
  EqRel eq;
  std::vector<Ineq> ineqs;
  bool conflict = false;
  std::string reason;
};

// Closure of the ≤ / < relation over term classes and constants.
// strength: 0 = unrelated, 1 = ≤, 2 = <.
class OrderClosure {
 public:
  OrderClosure(const GdcState& state) {
    const EqRel& eq = state.eq;
    auto term_node = [&](TermId t) {
      TermId root = eq.TermRoot(t);
      auto it = term_idx_.find(root);
      if (it != term_idx_.end()) return it->second;
      int idx = static_cast<int>(n_++);
      term_idx_.emplace(root, idx);
      term_of_.push_back(root);
      const_of_.push_back(eq.TermConst(root));
      return idx;
    };
    auto const_node = [&](const Value& c) {
      auto it = const_idx_.find(c);
      if (it != const_idx_.end()) return it->second;
      int idx = static_cast<int>(n_++);
      const_idx_.emplace(c, idx);
      term_of_.push_back(kNoTerm);
      const_of_.push_back(c);
      return idx;
    };
    for (const Ineq& q : state.ineqs) {
      int a = q.a_is_const ? const_node(q.ca) : term_node(q.ta);
      int b = q.b_is_const ? const_node(q.cb) : term_node(q.tb);
      if (q.op == Pred::kNe) {
        ne_.emplace_back(a, b);
      } else {
        AddEdge(a, b, q.op == Pred::kLt ? 2 : 1);
      }
    }
    // Bound terms tie to their constant nodes; constants order themselves.
    for (size_t i = 0; i < term_of_.size(); ++i) {
      if (term_of_[i] != kNoTerm && const_of_[i].has_value()) {
        int c = const_node(*const_of_[i]);
        AddEdge(static_cast<int>(i), c, 1);
        AddEdge(c, static_cast<int>(i), 1);
      }
    }
    std::vector<std::pair<Value, int>> consts(const_idx_.begin(),
                                              const_idx_.end());
    for (size_t i = 0; i < consts.size(); ++i) {
      for (size_t j = 0; j < consts.size(); ++j) {
        if (i == j) continue;
        int cmp = consts[i].first.Compare(consts[j].first);
        if (cmp < 0) AddEdge(consts[i].second, consts[j].second, 2);
      }
    }
    Close();
  }

  // Floyd–Warshall style closure of the strength matrix.
  void Close() {
    m_.assign(n_ * n_, 0);
    for (size_t i = 0; i < n_; ++i) At(i, i) = 1;
    for (const auto& [a, b, s] : edges_) {
      At(a, b) = std::max<int>(At(a, b), s);
    }
    for (size_t k = 0; k < n_; ++k) {
      for (size_t i = 0; i < n_; ++i) {
        if (At(i, k) == 0) continue;
        for (size_t j = 0; j < n_; ++j) {
          if (At(k, j) == 0) continue;
          int s = std::max(At(i, k), At(k, j));
          At(i, j) = std::max(At(i, j), s);
        }
      }
    }
  }

  int& At(size_t i, size_t j) { return m_[i * n_ + j]; }
  int at(size_t i, size_t j) const { return m_[i * n_ + j]; }

  // Conflict: strict self-relation, or an ≠ pair forced equal / same class.
  std::optional<std::string> Conflict(const GdcState& state) {
    for (size_t i = 0; i < n_; ++i) {
      if (at(i, i) == 2) return "strict order cycle";
    }
    for (const auto& [a, b] : ne_) {
      if (a == b) return "x != x with both sides in one class";
      if (at(a, b) >= 1 && at(b, a) >= 1) {
        return "x != y but x <= y and y <= x are both enforced";
      }
      // Same Eq class (distinct closure nodes can still share a class only
      // when both map through term_idx_, which dedups by root) — covered.
    }
    (void)state;
    return std::nullopt;
  }

  // Entailment strength between two refs; -1 if some ref unknown.
  int Strength(const GdcState& state, bool a_is_const, TermId ta,
               const Value& ca, bool b_is_const, TermId tb, const Value& cb) {
    int a = FindNode(state, a_is_const, ta, ca);
    int b = FindNode(state, b_is_const, tb, cb);
    if (a < 0 || b < 0) return -1;
    return at(a, b);
  }

  int FindNode(const GdcState& state, bool is_const, TermId t,
               const Value& c) {
    if (is_const) {
      auto it = const_idx_.find(c);
      return it == const_idx_.end() ? -1 : it->second;
    }
    auto it = term_idx_.find(state.eq.TermRoot(t));
    return it == term_idx_.end() ? -1 : it->second;
  }

  // Pairs forced equal by mutual ≤ (term-term and term-constant) that are
  // not yet merged; used by the normalization pass.
  struct Forced {
    TermId t1;
    TermId t2;          // kNoTerm when against a constant
    Value c;
  };
  std::vector<Forced> ForcedEqualities() const {
    std::vector<Forced> out;
    for (size_t i = 0; i < n_; ++i) {
      for (size_t j = i + 1; j < n_; ++j) {
        if (!(at(i, j) == 1 && at(j, i) == 1)) continue;
        if (term_of_[i] != kNoTerm && term_of_[j] != kNoTerm) {
          out.push_back({term_of_[i], term_of_[j], Value()});
        } else if (term_of_[i] != kNoTerm && term_of_[j] == kNoTerm &&
                   !const_of_[i].has_value()) {
          out.push_back({term_of_[i], kNoTerm, *const_of_[j]});
        } else if (term_of_[j] != kNoTerm && term_of_[i] == kNoTerm &&
                   !const_of_[j].has_value()) {
          out.push_back({term_of_[j], kNoTerm, *const_of_[i]});
        }
      }
    }
    return out;
  }

  size_t n() const { return n_; }
  TermId term_of(size_t i) const { return term_of_[i]; }
  const std::optional<Value>& const_of(size_t i) const { return const_of_[i]; }
  const std::vector<std::pair<int, int>>& ne() const { return ne_; }

 private:
  void AddEdge(int a, int b, int s) { edges_.push_back({a, b, s}); }

  size_t n_ = 0;
  std::unordered_map<TermId, int> term_idx_;
  std::map<Value, int> const_idx_;  // Value lacks std::less-free hash order
  std::vector<TermId> term_of_;
  std::vector<std::optional<Value>> const_of_;
  std::vector<std::tuple<int, int, int>> edges_;
  std::vector<std::pair<int, int>> ne_;
  std::vector<int> m_;
};

// Merges classes that the order constraints force equal; detects conflicts.
void Normalize(GdcState* state) {
  for (int round = 0; round < 64 && !state->conflict; ++round) {
    OrderClosure closure(*state);
    if (auto conflict = closure.Conflict(*state)) {
      state->conflict = true;
      state->reason = *conflict;
      return;
    }
    auto forced = closure.ForcedEqualities();
    bool changed = false;
    for (const auto& f : forced) {
      if (f.t2 != kNoTerm) {
        if (!state->eq.SameTerm(f.t1, f.t2)) {
          state->eq.MergeTerms(f.t1, f.t2);
          changed = true;
        }
      } else if (!state->eq.TermConst(f.t1).has_value()) {
        state->eq.BindConst(f.t1, f.c);
        changed = true;
      }
      if (state->eq.inconsistent()) {
        state->conflict = true;
        state->reason = state->eq.conflict_reason();
        return;
      }
    }
    if (!changed) return;
  }
}

// ----- literal evaluation / enforcement under a state ------------------------

// Entailment (sound under-approximation) of a GDC literal for a base match.
bool Entailed(GdcState* state, const Match& bm, const GdcLiteral& l) {
  EqRel& eq = state->eq;
  switch (l.kind) {
    case GdcLiteral::Kind::kId:
      return eq.SameNode(bm[l.x], bm[l.y]);
    case GdcLiteral::Kind::kConstPred: {
      TermId t = eq.FindTerm(bm[l.x], l.a);
      if (t == kNoTerm) return false;
      auto c = eq.TermConst(t);
      if (c.has_value()) return EvalPred(l.op, *c, l.c);
      OrderClosure closure(*state);
      int s_ab = closure.Strength(*state, false, t, Value(), true, kNoTerm,
                                  l.c);
      int s_ba = closure.Strength(*state, true, kNoTerm, l.c, false, t,
                                  Value());
      switch (l.op) {
        case Pred::kLt: return s_ab == 2;
        case Pred::kLe: return s_ab >= 1;
        case Pred::kGt: return s_ba == 2;
        case Pred::kGe: return s_ba >= 1;
        case Pred::kNe: return s_ab == 2 || s_ba == 2;
        case Pred::kEq: return s_ab == 1 && s_ba == 1;
      }
      return false;
    }
    case GdcLiteral::Kind::kVarPred: {
      TermId t1 = eq.FindTerm(bm[l.x], l.a);
      TermId t2 = eq.FindTerm(bm[l.y], l.b);
      if (t1 == kNoTerm || t2 == kNoTerm) return false;
      if (l.op == Pred::kEq && eq.SameTerm(t1, t2)) return true;
      auto c1 = eq.TermConst(t1);
      auto c2 = eq.TermConst(t2);
      if (c1.has_value() && c2.has_value()) return EvalPred(l.op, *c1, *c2);
      OrderClosure closure(*state);
      int s12 = closure.Strength(*state, false, t1, Value(), false, t2,
                                 Value());
      int s21 = closure.Strength(*state, false, t2, Value(), false, t1,
                                 Value());
      switch (l.op) {
        case Pred::kLt: return s12 == 2;
        case Pred::kLe: return s12 >= 1;
        case Pred::kGt: return s21 == 2;
        case Pred::kGe: return s21 >= 1;
        case Pred::kEq: return s12 == 1 && s21 == 1;
        case Pred::kNe: {
          if (s12 == 2 || s21 == 2) return true;
          // Recorded ≠ constraints also entail ≠.
          for (const Ineq& q : state->ineqs) {
            if (q.op != Pred::kNe || q.a_is_const || q.b_is_const) continue;
            bool fwd = eq.SameTerm(q.ta, t1) && eq.SameTerm(q.tb, t2);
            bool bwd = eq.SameTerm(q.ta, t2) && eq.SameTerm(q.tb, t1);
            if (fwd || bwd) return true;
          }
          return false;
        }
      }
      return false;
    }
  }
  return false;
}

// Enforces one Y literal (the GDC chase step).
void Enforce(GdcState* state, const Match& bm, const GdcLiteral& l) {
  EqRel& eq = state->eq;
  switch (l.kind) {
    case GdcLiteral::Kind::kId:
      eq.MergeNodes(bm[l.x], bm[l.y]);
      break;
    case GdcLiteral::Kind::kConstPred: {
      TermId t = eq.GetOrCreateTerm(bm[l.x], l.a);
      if (l.op == Pred::kEq) {
        eq.BindConst(t, l.c);
      } else {
        Pred op = l.op;
        bool term_left = true;
        if (op == Pred::kGt || op == Pred::kGe) {
          op = FlipPred(op);
          term_left = false;  // c < / <= term
        }
        Ineq q;
        q.op = op;
        if (term_left) {
          q.ta = t;
          q.b_is_const = true;
          q.cb = l.c;
        } else {
          q.a_is_const = true;
          q.ca = l.c;
          q.tb = t;
        }
        state->ineqs.push_back(q);
      }
      break;
    }
    case GdcLiteral::Kind::kVarPred: {
      TermId t1 = eq.GetOrCreateTerm(bm[l.x], l.a);
      TermId t2 = eq.GetOrCreateTerm(bm[l.y], l.b);
      if (l.op == Pred::kEq) {
        eq.MergeTerms(t1, t2);
      } else {
        Pred op = l.op;
        if (op == Pred::kGt || op == Pred::kGe) {
          op = FlipPred(op);
          std::swap(t1, t2);
        }
        Ineq q;
        q.ta = t1;
        q.op = op;
        q.tb = t2;
        state->ineqs.push_back(q);
      }
      break;
    }
  }
  if (eq.inconsistent()) {
    state->conflict = true;
    state->reason = eq.conflict_reason();
  }
}

// The extended chase: fixpoint of entailment-gated enforcement.
void GdcChase(const std::vector<Gdc>& sigma, GdcState* state) {
  bool changed = true;
  int rounds = 0;
  while (changed && !state->conflict && rounds++ < 256) {
    changed = false;
    Coercion co = BuildCoercion(state->eq);
    Match bm;
    for (const Gdc& phi : sigma) {
      EnumerateMatches(phi.pattern(), co.graph, {}, [&](const Match& h) {
        bm.resize(h.size());
        for (size_t i = 0; i < h.size(); ++i) bm[i] = co.rep[h[i]];
        for (const GdcLiteral& l : phi.X()) {
          if (!Entailed(state, bm, l)) return true;
        }
        if (phi.is_forbidding()) {
          state->conflict = true;
          state->reason = "forbidding GDC '" + phi.name() + "' applies";
          return false;
        }
        for (const GdcLiteral& l : phi.Y()) {
          if (Entailed(state, bm, l)) continue;
          Enforce(state, bm, l);
          changed = true;
          if (state->conflict) return false;
        }
        return true;
      });
      if (state->conflict) return;
    }
    Normalize(state);
    if (state->conflict) return;
  }
}

// ----- model construction -----------------------------------------------------

// A value strictly between lo and hi in the Value total order (both
// optional), distinct per `salt`.
std::optional<Value> ValueBetween(const std::optional<Value>& lo, bool lo_strict,
                                  const std::optional<Value>& hi,
                                  bool hi_strict, int salt) {
  auto num = [](const Value& v) { return v.is_number(); };
  if (!lo.has_value() && !hi.has_value()) {
    return Value(1e9 + salt);  // anywhere; keep clear of common constants
  }
  if (lo.has_value() && !hi.has_value()) {
    if (num(*lo)) return Value(lo->AsDouble() + 1 + salt);
    if (lo->kind() == Value::Kind::kString) {
      return Value(lo->AsString() + "\x01" + std::to_string(salt));
    }
    return Value(1e9 + salt);  // above a bool: any number
  }
  if (!lo.has_value() && hi.has_value()) {
    if (num(*hi)) return Value(hi->AsDouble() - 1 - salt);
    if (hi->kind() == Value::Kind::kString) return Value(-1e9 - salt);
    if (hi->AsBool()) return Value(false);  // below true
    return std::nullopt;                    // below false: empty in our order
  }
  // Both bounds.
  int cmp = lo->Compare(*hi);
  if (cmp > 0 || (cmp == 0 && (lo_strict || hi_strict))) return std::nullopt;
  if (cmp == 0) return *lo;
  if (num(*lo) && num(*hi)) {
    double a = lo->AsDouble(), b = hi->AsDouble();
    double v = a + (b - a) * (1.0 + salt) / (2.0 + salt * 2.0 + 2.0);
    if (v > a && v < b) return Value(v);
    return std::nullopt;
  }
  if (lo->kind() == Value::Kind::kString) {
    // lo < lo + "\x00..." < hi for any string hi > lo.
    return Value(lo->AsString() + std::string(1, '\x00') +
                 std::to_string(salt));
  }
  if (num(*lo) && hi->kind() == Value::Kind::kString) {
    return Value(lo->AsDouble() + 1 + salt);  // numbers < strings
  }
  if (lo->kind() == Value::Kind::kBool && num(*hi)) {
    return Value(hi->AsDouble() - 1 - salt);  // bools < numbers
  }
  return std::nullopt;
}

// Builds a concrete graph from a conflict-free state, instantiating unbound
// classes inside their order intervals. With `tight`, a class whose lower
// bound is non-strict reuses that bound — maximizing equalities (used to
// find counter-models of non-strict order literals); otherwise values are
// spread out — maximizing distinctness.
Result<Graph> BuildGdcModel(GdcState* state, bool tight) {
  Normalize(state);
  if (state->conflict) {
    return Status::InvalidArgument("state is conflicted: " + state->reason);
  }
  const EqRel& eq = state->eq;
  Coercion co = BuildCoercion(eq);
  OrderClosure closure(*state);

  // Topological-ish assignment: process unbound nodes in an order where
  // all strictly-smaller nodes come first (strength matrix gives a partial
  // order; ties broken by index).
  size_t n = closure.n();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (closure.at(a, b) == 2) return true;
    if (closure.at(b, a) == 2) return false;
    return a < b;
  });

  std::unordered_map<TermId, Value> assigned;
  int salt = 0;
  for (size_t i : order) {
    TermId t = closure.term_of(i);
    if (t == kNoTerm) continue;                       // constant node
    if (closure.const_of(i).has_value()) continue;    // bound term
    // Bounds: tightest constant bounds plus already-assigned neighbors.
    std::optional<Value> lo, hi;
    bool lo_strict = false, hi_strict = false;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      std::optional<Value> v;
      if (closure.const_of(j).has_value()) {
        v = closure.const_of(j);
      } else if (auto it = assigned.find(closure.term_of(j));
                 closure.term_of(j) != kNoTerm && it != assigned.end()) {
        v = it->second;
      }
      if (!v.has_value()) continue;
      if (closure.at(j, i) >= 1) {  // v <= t
        bool strict = closure.at(j, i) == 2;
        if (!lo.has_value() || v->Compare(*lo) > 0 ||
            (v->Compare(*lo) == 0 && strict)) {
          lo = v;
          lo_strict = strict;
        }
      }
      if (closure.at(i, j) >= 1) {  // t <= v
        bool strict = closure.at(i, j) == 2;
        if (!hi.has_value() || v->Compare(*hi) < 0 ||
            (v->Compare(*hi) == 0 && strict)) {
          hi = v;
          hi_strict = strict;
        }
      }
    }
    std::optional<Value> v;
    if (tight && lo.has_value() && !lo_strict &&
        (!hi.has_value() || lo->Compare(*hi) < 0 ||
         (lo->Compare(*hi) == 0 && !hi_strict))) {
      v = lo;  // reuse the bound: equality is allowed
    } else {
      v = ValueBetween(lo, lo_strict, hi, hi_strict, salt++);
    }
    if (!v.has_value()) {
      return Status::Unknown("no value fits the interval of a class");
    }
    assigned.emplace(eq.TermRoot(t), *v);
  }

  // Materialize: coercion + assigned/bound/fresh attribute values, fresh
  // labels for wildcard classes (same construction as GED BuildModel).
  Label fresh_label = Sym("!fresh_label");
  Graph out;
  for (NodeId q = 0; q < co.graph.NumNodes(); ++q) {
    Label l = co.graph.label(q) == kWildcard ? fresh_label : co.graph.label(q);
    out.AddNode(l);
  }
  int fresh_counter = 0;
  std::unordered_map<TermId, Value> fresh_values;
  for (NodeId q = 0; q < co.graph.NumNodes(); ++q) {
    for (const auto& [attr, term] : eq.ClassAttrs(co.rep[q])) {
      TermId root = eq.TermRoot(term);
      auto c = eq.TermConst(root);
      if (c.has_value()) {
        out.SetAttr(q, attr, *c);
        continue;
      }
      if (auto it = assigned.find(root); it != assigned.end()) {
        out.SetAttr(q, attr, it->second);
        continue;
      }
      auto it = fresh_values.find(root);
      if (it == fresh_values.end()) {
        it = fresh_values
                 .emplace(root, Value("!fresh_" +
                                      std::to_string(fresh_counter++)))
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

Graph CanonicalGdcGraph(const std::vector<Gdc>& sigma) {
  Graph g;
  for (const Gdc& phi : sigma) g.DisjointUnion(phi.pattern().ToGraph());
  return g;
}

// The candidate value set of the small-model argument ("attribute value
// normalization"): every constant of Σ, region representatives between and
// around the numeric constants, and one fresh string.
std::vector<Value> RegionCandidates(const std::vector<Gdc>& sigma) {
  std::vector<Value> consts;
  auto add = [&](const Value& v) {
    for (const Value& c : consts) {
      if (c == v) return;
    }
    consts.push_back(v);
  };
  for (const Gdc& phi : sigma) {
    for (const std::vector<GdcLiteral>* side : {&phi.X(), &phi.Y()}) {
      for (const GdcLiteral& l : *side) {
        if (l.kind == GdcLiteral::Kind::kConstPred) add(l.c);
      }
    }
  }
  std::sort(consts.begin(), consts.end(),
            [](const Value& a, const Value& b) { return a < b; });
  std::vector<Value> out = consts;
  // Region representatives around/between numeric constants.
  std::vector<double> nums;
  for (const Value& c : consts) {
    if (c.is_number()) nums.push_back(c.AsDouble());
  }
  if (!nums.empty()) {
    out.push_back(Value(nums.front() - 1));
    out.push_back(Value(nums.back() + 1));
    for (size_t i = 0; i + 1 < nums.size(); ++i) {
      out.push_back(Value((nums[i] + nums[i + 1]) / 2));
    }
  }
  out.push_back(Value("!region_fresh"));
  return out;
}

// True when every premise literal of Σ is value-independent enough for the
// region search to be exhaustive: id literals, constant predicates, and
// variable equality (region choices enumerate all relevant cases).
bool RegionSearchComplete(const std::vector<Gdc>& sigma) {
  for (const Gdc& phi : sigma) {
    for (const GdcLiteral& l : phi.X()) {
      if (l.kind == GdcLiteral::Kind::kVarPred && l.op != Pred::kEq) {
        return false;
      }
    }
  }
  return true;
}

// Tries to finish a conflict-free state into a verified model, both
// assignment styles.
bool TryVerifiedModel(GdcState* state, const std::vector<Gdc>& sigma,
                      Graph* out) {
  for (bool tight : {false, true}) {
    GdcState copy = *state;
    auto model = BuildGdcModel(&copy, tight);
    if (model.ok() &&
        ValidateGdcs(FrozenGraph::Freeze(model.value()), sigma)) {
      *out = model.Take();
      return true;
    }
  }
  return false;
}

}  // namespace

GdcDecision CheckGdcSatisfiability(const std::vector<Gdc>& sigma) {
  GdcDecision out;
  Graph canonical = CanonicalGdcGraph(sigma);
  GdcState state(canonical);
  GdcChase(sigma, &state);
  if (state.conflict) {
    out.decision = Decision::kNo;
    out.detail = "extended chase conflict: " + state.reason;
    return out;
  }
  Graph model;
  if (TryVerifiedModel(&state, sigma, &model)) {
    out.decision = Decision::kYes;
    out.detail = "verified model built from the extended chase";
    out.witness = std::move(model);
    out.has_witness = true;
    return out;
  }
  // Region search: enumerate placements of the unbound attribute classes
  // relative to Σ's constants, re-chasing under each placement.
  std::vector<TermId> unbound;
  for (TermId root : state.eq.TermClassRoots()) {
    if (!state.eq.TermConst(root).has_value()) unbound.push_back(root);
  }
  std::vector<Value> candidates = RegionCandidates(sigma);
  double combos = 1;
  for (size_t i = 0; i < unbound.size(); ++i) {
    combos *= static_cast<double>(candidates.size());
    if (combos > 65536) break;
  }
  if (combos <= 65536) {
    std::vector<size_t> choice(unbound.size(), 0);
    for (;;) {
      GdcState branch = state;
      bool dead = false;
      for (size_t i = 0; i < unbound.size() && !dead; ++i) {
        branch.eq.BindConst(unbound[i], candidates[choice[i]]);
        if (branch.eq.inconsistent()) dead = true;
      }
      if (!dead) {
        Normalize(&branch);
        if (!branch.conflict) {
          GdcChase(sigma, &branch);
        }
        if (!branch.conflict && !branch.eq.inconsistent()) {
          Graph m;
          if (TryVerifiedModel(&branch, sigma, &m)) {
            out.decision = Decision::kYes;
            out.detail = "verified model found by the region search";
            out.witness = std::move(m);
            out.has_witness = true;
            return out;
          }
        }
      }
      // Next assignment.
      size_t i = 0;
      while (i < choice.size() && ++choice[i] == candidates.size()) {
        choice[i++] = 0;
      }
      if (i == choice.size()) break;
      if (unbound.empty()) break;
    }
    if (RegionSearchComplete(sigma)) {
      out.decision = Decision::kNo;
      out.detail = "region search exhausted all value placements";
      return out;
    }
  }
  out.decision = Decision::kUnknown;
  out.detail = "no verified model found within the search budget";
  return out;
}

GdcDecision CheckGdcImplication(const std::vector<Gdc>& sigma,
                                const Gdc& phi) {
  GdcDecision out;
  Graph gq = phi.pattern().ToGraph();
  GdcState state(gq);
  // Assert X as hypothesis.
  Match identity(gq.NumNodes());
  for (NodeId v = 0; v < gq.NumNodes(); ++v) identity[v] = v;
  for (const GdcLiteral& l : phi.X()) Enforce(&state, identity, l);
  Normalize(&state);
  if (state.conflict) {
    out.decision = Decision::kYes;
    out.detail = "X is unsatisfiable: " + state.reason;
    return out;
  }
  GdcChase(sigma, &state);
  if (state.conflict) {
    out.decision = Decision::kYes;
    out.detail = "chase of G_Q from Eq_X conflicts: " + state.reason;
    return out;
  }
  if (!phi.is_forbidding()) {
    bool all = true;
    for (const GdcLiteral& l : phi.Y()) {
      if (!Entailed(&state, identity, l)) {
        all = false;
        break;
      }
    }
    if (all) {
      out.decision = Decision::kYes;
      out.detail = "Y entailed by the extended chase result";
      return out;
    }
  }
  // Counter-model attempts: the spread instantiation falsifies non-entailed
  // equalities (distinct classes get distinct values); the tight one
  // falsifies non-entailed *strict* order literals (equal values wherever
  // allowed). Each candidate is verified end to end.
  for (bool tight : {false, true}) {
    GdcState copy = state;
    auto model = BuildGdcModel(&copy, tight);
    if (!model.ok()) continue;
    const FrozenGraph g = FrozenGraph::Freeze(model.value());
    if (!ValidateGdcs(g, sigma)) continue;
    // The identity image of Q is a match in the model (same layout).
    Coercion co = BuildCoercion(copy.eq);
    Match image(gq.NumNodes());
    for (NodeId v = 0; v < gq.NumNodes(); ++v) image[v] = co.node_map[v];
    bool x_ok = SatisfiesAllGdc(g, image, phi.X());
    bool y_ok = !phi.is_forbidding() && SatisfiesAllGdc(g, image, phi.Y());
    if (x_ok && !y_ok) {
      out.decision = Decision::kNo;
      out.detail = tight ? "verified counter-model (tight instantiation)"
                         : "verified counter-model (spread instantiation)";
      out.witness = model.Take();
      out.has_witness = true;
      return out;
    }
  }
  out.decision = Decision::kUnknown;
  out.detail = "not entailed, but no verified counter-model was found";
  return out;
}

}  // namespace ged
