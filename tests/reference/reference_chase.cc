#include "reference/reference_chase.h"

#include <utility>

#include "reference/reference_validator.h"

namespace ged::reference {
namespace {

// Eq-level truth of a literal at a match given as base-graph node ids.
bool Holds(const EqRel& eq, const std::vector<NodeId>& h, const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst: {
      TermId t = eq.FindTerm(h[l.x], l.a);
      if (t == kNoTerm) return false;
      std::optional<Value> c = eq.TermConst(t);
      return c.has_value() && *c == l.c;
    }
    case LiteralKind::kVar: {
      TermId t1 = eq.FindTerm(h[l.x], l.a);
      TermId t2 = eq.FindTerm(h[l.y], l.b);
      return t1 != kNoTerm && t2 != kNoTerm && eq.SameTerm(t1, t2);
    }
    case LiteralKind::kId:
      return eq.SameNode(h[l.x], h[l.y]);
  }
  return false;
}

void Enforce(EqRel* eq, const std::vector<NodeId>& h, const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst:
      eq->BindConst(eq->GetOrCreateTerm(h[l.x], l.a), l.c);
      break;
    case LiteralKind::kVar: {
      TermId t1 = eq->GetOrCreateTerm(h[l.x], l.a);
      TermId t2 = eq->GetOrCreateTerm(h[l.y], l.b);
      eq->MergeTerms(t1, t2);
      break;
    }
    case LiteralKind::kId:
      eq->MergeNodes(h[l.x], h[l.y]);
      break;
  }
}

// The quotient graph G_Eq: one node per class, labeled with the class
// label; `rep[q]` is a member of class q.
struct Quotient {
  Graph graph;
  std::vector<NodeId> rep;
};

Quotient BuildQuotient(const EqRel& eq) {
  const Graph& base = eq.base();
  Quotient out;
  std::vector<NodeId> class_of(base.NumNodes());
  for (NodeId v = 0; v < base.NumNodes(); ++v) {
    NodeId root = eq.NodeRoot(v);
    if (root == v) {
      class_of[v] = out.graph.AddNode(eq.ClassLabel(v));
      out.rep.push_back(v);
    }
  }
  for (NodeId v = 0; v < base.NumNodes(); ++v) {
    class_of[v] = class_of[eq.NodeRoot(v)];
  }
  for (NodeId v = 0; v < base.NumNodes(); ++v) {
    for (const Edge& e : base.out(v)) {
      out.graph.AddEdge(class_of[v], e.label, class_of[e.other]);
    }
  }
  return out;
}

RefChaseResult Finish(bool consistent, EqRel eq) {
  size_t classes = BuildQuotient(eq).graph.NumNodes();
  return RefChaseResult{consistent, std::move(eq), classes};
}

}  // namespace

RefChaseResult Chase(const Graph& base, const std::vector<Ged>& sigma,
                     const EqRel* init) {
  EqRel eq = init != nullptr ? *init : EqRel(base);
  if (eq.inconsistent()) return Finish(false, std::move(eq));
  for (bool changed = true; changed;) {
    changed = false;
    Quotient quotient = BuildQuotient(eq);
    for (const Ged& phi : sigma) {
      std::vector<std::vector<NodeId>> matches;
      ForEachMatch(phi.pattern(), quotient.graph, /*injective=*/false,
                   [&](const std::vector<NodeId>& h) { matches.push_back(h); });
      for (const std::vector<NodeId>& h : matches) {
        std::vector<NodeId> base_match(h.size());
        for (size_t i = 0; i < h.size(); ++i) {
          base_match[i] = quotient.rep[h[i]];
        }
        bool x_holds = true;
        for (const Literal& l : phi.X()) {
          if (!Holds(eq, base_match, l)) {
            x_holds = false;
            break;
          }
        }
        if (!x_holds) continue;
        if (phi.is_forbidding()) return Finish(false, std::move(eq));
        for (const Literal& l : phi.Y()) {
          if (Holds(eq, base_match, l)) continue;
          Enforce(&eq, base_match, l);
          changed = true;
          if (eq.inconsistent()) return Finish(false, std::move(eq));
        }
      }
    }
  }
  return Finish(true, std::move(eq));
}

}  // namespace ged::reference
