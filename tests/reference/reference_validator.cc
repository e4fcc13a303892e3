#include "reference/reference_validator.h"

#include <algorithm>
#include <optional>

namespace ged::reference {
namespace {

bool LabelFits(Label pattern_label, Label graph_label) {
  return pattern_label == kWildcard || pattern_label == graph_label;
}

bool HasEdge(const Graph& g, NodeId src, Label label, NodeId dst) {
  for (const Edge& e : g.out(src)) {
    if (e.other == dst && LabelFits(label, e.label)) return true;
  }
  return false;
}

bool Holds(const Graph& g, const std::vector<NodeId>& h, const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst: {
      std::optional<Value> a = g.attr(h[l.x], l.a);
      return a.has_value() && *a == l.c;
    }
    case LiteralKind::kVar: {
      std::optional<Value> a = g.attr(h[l.x], l.a);
      std::optional<Value> b = g.attr(h[l.y], l.b);
      return a.has_value() && b.has_value() && *a == *b;
    }
    case LiteralKind::kId:
      return h[l.x] == h[l.y];
  }
  return false;
}

bool HoldsAll(const Graph& g, const std::vector<NodeId>& h,
              const std::vector<Literal>& literals) {
  for (const Literal& l : literals) {
    if (!Holds(g, h, l)) return false;
  }
  return true;
}

// Backtracking over variables 0, 1, ..., n-1 of one rule's pattern.
class RuleSearch {
 public:
  RuleSearch(const Graph& g, const Ged& phi, size_t ged_index, bool injective,
             const MatchFilter& keep, RefReport* out)
      : g_(g),
        phi_(phi),
        q_(phi.pattern()),
        ged_index_(ged_index),
        injective_(injective),
        keep_(keep),
        out_(out),
        h_(q_.NumVars()) {}

  void Run() { Extend(0); }

 private:
  void Extend(VarId x) {
    if (x == q_.NumVars()) {
      Inspect();
      return;
    }
    for (NodeId v = 0; v < g_.NumNodes(); ++v) {
      if (Fits(x, v)) {
        h_[x] = v;
        Extend(x + 1);
      }
    }
  }

  // Can variable x take node v, given h_[0..x)?
  bool Fits(VarId x, NodeId v) const {
    if (!LabelFits(q_.label(x), g_.label(v))) return false;
    if (injective_) {
      for (VarId y = 0; y < x; ++y) {
        if (h_[y] == v) return false;
      }
    }
    // Pattern edges whose later endpoint is x (self-loops included).
    for (const Pattern::PEdge& e : q_.edges()) {
      if (std::max(e.src, e.dst) != x) continue;
      NodeId src = e.src == x ? v : h_[e.src];
      NodeId dst = e.dst == x ? v : h_[e.dst];
      if (!HasEdge(g_, src, e.label, dst)) return false;
    }
    return true;
  }

  void Inspect() {
    if (keep_ && !keep_(phi_, h_)) return;
    ++out_->matches_checked;
    if (!HoldsAll(g_, h_, phi_.X())) return;
    if (phi_.is_forbidding() || !HoldsAll(g_, h_, phi_.Y())) {
      out_->violations.push_back(RefViolation{ged_index_, h_});
    }
  }

  const Graph& g_;
  const Ged& phi_;
  const Pattern& q_;
  size_t ged_index_;
  bool injective_;
  const MatchFilter& keep_;
  RefReport* out_;
  std::vector<NodeId> h_;
};

}  // namespace

RefReport Validate(const Graph& g, const std::vector<Ged>& sigma,
                   bool injective, const MatchFilter& keep) {
  RefReport report;
  for (size_t i = 0; i < sigma.size(); ++i) {
    RuleSearch(g, sigma[i], i, injective, keep, &report).Run();
  }
  // Rules are visited in index order and nodes in increasing order, so the
  // list is already sorted; sort anyway so that claim is not load-bearing.
  std::sort(report.violations.begin(), report.violations.end());
  return report;
}

RefReport ValidateTouching(const Graph& g, const std::vector<Ged>& sigma,
                           const std::vector<NodeId>& touched,
                           bool injective) {
  auto binds_touched = [&](const Ged&, const std::vector<NodeId>& h) {
    for (NodeId v : h) {
      if (std::find(touched.begin(), touched.end(), v) != touched.end()) {
        return true;
      }
    }
    return false;
  };
  return Validate(g, sigma, injective, binds_touched);
}

RefReport ValidateSeededByEdges(const Graph& g, const std::vector<Ged>& sigma,
                                const std::vector<EdgeTriple>& seeds,
                                bool injective) {
  auto maps_onto_seed = [&](const Ged& phi, const std::vector<NodeId>& h) {
    for (const Pattern::PEdge& e : phi.pattern().edges()) {
      for (const EdgeTriple& s : seeds) {
        if (h[e.src] == s.src && h[e.dst] == s.dst &&
            LabelFits(e.label, s.label)) {
          return true;
        }
      }
    }
    return false;
  };
  return Validate(g, sigma, injective, maps_onto_seed);
}

std::vector<RefViolation> CapPerGed(const std::vector<RefViolation>& sorted,
                                    uint64_t cap) {
  if (cap == 0) return sorted;
  std::vector<RefViolation> kept;
  uint64_t run = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0 && sorted[i].ged_index != sorted[i - 1].ged_index) run = 0;
    if (run++ < cap) kept.push_back(sorted[i]);
  }
  return kept;
}

}  // namespace ged::reference
