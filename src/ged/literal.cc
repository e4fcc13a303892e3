#include "ged/literal.h"

#include <sstream>

#include "graph/overlay.h"
#include "graph/view.h"

namespace ged {

namespace {
std::string VarName(const Pattern* q, VarId x) {
  if (q != nullptr) return q->var_name(x);
  return "$" + std::to_string(x);
}

std::string Render(const Pattern* q, const Literal& l) {
  std::ostringstream os;
  switch (l.kind) {
    case LiteralKind::kConst:
      os << VarName(q, l.x) << "." << SymName(l.a) << " = " << l.c.ToString();
      break;
    case LiteralKind::kVar:
      os << VarName(q, l.x) << "." << SymName(l.a) << " = " << VarName(q, l.y)
         << "." << SymName(l.b);
      break;
    case LiteralKind::kId:
      os << VarName(q, l.x) << ".id = " << VarName(q, l.y) << ".id";
      break;
  }
  return os.str();
}
}  // namespace

std::string Literal::ToString(const Pattern& q) const {
  return Render(&q, *this);
}

std::string Literal::ToString() const { return Render(nullptr, *this); }

namespace {

// Shared across backends: only attribute lookup differs (columnar binary
// search on FrozenGraph, the side index first on OverlayView). Values are
// compared in place, never copied out of the graph.
template <GraphView GView>
bool SatisfiesLiteralT(const GView& g, const Match& h, const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst: {
      const Value* v = g.FindAttr(h[l.x], l.a);
      return v != nullptr && *v == l.c;
    }
    case LiteralKind::kVar: {
      const Value* va = g.FindAttr(h[l.x], l.a);
      if (va == nullptr) return false;
      const Value* vb = g.FindAttr(h[l.y], l.b);
      return vb != nullptr && *va == *vb;
    }
    case LiteralKind::kId:
      return h[l.x] == h[l.y];
  }
  return false;
}

template <GraphView GView>
bool SatisfiesAllT(const GView& g, const Match& h,
                   const std::vector<Literal>& literals) {
  for (const Literal& l : literals) {
    if (!SatisfiesLiteralT(g, h, l)) return false;
  }
  return true;
}

}  // namespace

bool SatisfiesLiteral(const FrozenGraph& g, const Match& h, const Literal& l) {
  return SatisfiesLiteralT(g, h, l);
}

bool SatisfiesLiteral(const OverlayView& g, const Match& h, const Literal& l) {
  return SatisfiesLiteralT(g, h, l);
}

bool SatisfiesAll(const FrozenGraph& g, const Match& h,
                  const std::vector<Literal>& literals) {
  return SatisfiesAllT(g, h, literals);
}

bool SatisfiesAll(const OverlayView& g, const Match& h,
                  const std::vector<Literal>& literals) {
  return SatisfiesAllT(g, h, literals);
}

}  // namespace ged
