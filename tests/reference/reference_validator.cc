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

// Backtracking over variables 0, 1, ..., n-1 of one pattern.
class PatternSearch {
 public:
  PatternSearch(const Pattern& q, const Graph& g, bool injective,
                const std::function<void(const std::vector<NodeId>&)>& visit)
      : q_(q), g_(g), injective_(injective), visit_(visit), h_(q.NumVars()) {}

  void Run() { Extend(0); }

 private:
  void Extend(VarId x) {
    if (x == q_.NumVars()) {
      visit_(h_);
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

  const Pattern& q_;
  const Graph& g_;
  bool injective_;
  const std::function<void(const std::vector<NodeId>&)>& visit_;
  std::vector<NodeId> h_;
};

}  // namespace

void ForEachMatch(
    const Pattern& q, const Graph& g, bool injective,
    const std::function<void(const std::vector<NodeId>&)>& visit) {
  PatternSearch(q, g, injective, visit).Run();
}

RefReport Validate(const Graph& g, const std::vector<Ged>& sigma,
                   bool injective, const MatchFilter& keep) {
  RefReport report;
  for (size_t i = 0; i < sigma.size(); ++i) {
    const Ged& phi = sigma[i];
    ForEachMatch(phi.pattern(), g, injective,
                 [&](const std::vector<NodeId>& h) {
                   if (keep && !keep(phi, h)) return;
                   ++report.matches_checked;
                   if (!HoldsAll(g, h, phi.X())) return;
                   if (phi.is_forbidding() || !HoldsAll(g, h, phi.Y())) {
                     report.violations.push_back(RefViolation{i, h});
                   }
                 });
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
