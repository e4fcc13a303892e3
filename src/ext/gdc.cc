#include "ext/gdc.h"

#include <sstream>

#include "graph/overlay.h"
#include "graph/view.h"

namespace ged {

bool EvalPred(Pred op, const Value& a, const Value& b) {
  int cmp = a.Compare(b);
  switch (op) {
    case Pred::kEq: return cmp == 0;
    case Pred::kNe: return cmp != 0;
    case Pred::kLt: return cmp < 0;
    case Pred::kLe: return cmp <= 0;
    case Pred::kGt: return cmp > 0;
    case Pred::kGe: return cmp >= 0;
  }
  return false;
}

const char* PredName(Pred op) {
  switch (op) {
    case Pred::kEq: return "=";
    case Pred::kNe: return "!=";
    case Pred::kLt: return "<";
    case Pred::kLe: return "<=";
    case Pred::kGt: return ">";
    case Pred::kGe: return ">=";
  }
  return "?";
}

Pred FlipPred(Pred op) {
  switch (op) {
    case Pred::kEq: return Pred::kEq;
    case Pred::kNe: return Pred::kNe;
    case Pred::kLt: return Pred::kGt;
    case Pred::kLe: return Pred::kGe;
    case Pred::kGt: return Pred::kLt;
    case Pred::kGe: return Pred::kLe;
  }
  return op;
}

GdcLiteral GdcLiteral::FromGed(const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst: return ConstPred(l.x, l.a, Pred::kEq, l.c);
    case LiteralKind::kVar: return VarPred(l.x, l.a, Pred::kEq, l.y, l.b);
    case LiteralKind::kId: return Id(l.x, l.y);
  }
  return GdcLiteral{};
}

bool GdcLiteral::operator==(const GdcLiteral& o) const {
  if (kind != o.kind || op != o.op) return false;
  switch (kind) {
    case Kind::kConstPred: return x == o.x && a == o.a && c == o.c;
    case Kind::kVarPred: return x == o.x && a == o.a && y == o.y && b == o.b;
    case Kind::kId: return x == o.x && y == o.y;
  }
  return false;
}

std::string GdcLiteral::ToString(const Pattern& q) const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kConstPred:
      os << q.var_name(x) << "." << SymName(a) << " " << PredName(op) << " "
         << c.ToString();
      break;
    case Kind::kVarPred:
      os << q.var_name(x) << "." << SymName(a) << " " << PredName(op) << " "
         << q.var_name(y) << "." << SymName(b);
      break;
    case Kind::kId:
      os << q.var_name(x) << ".id = " << q.var_name(y) << ".id";
      break;
  }
  return os.str();
}

Gdc::Gdc(std::string name, Pattern pattern, std::vector<GdcLiteral> x,
         std::vector<GdcLiteral> y, bool y_is_false)
    : name_(std::move(name)),
      pattern_(std::move(pattern)),
      x_(std::move(x)),
      y_(std::move(y)),
      y_is_false_(y_is_false) {}

Gdc Gdc::FromGed(const Ged& ged) {
  std::vector<GdcLiteral> x, y;
  for (const Literal& l : ged.X()) x.push_back(GdcLiteral::FromGed(l));
  for (const Literal& l : ged.Y()) y.push_back(GdcLiteral::FromGed(l));
  return Gdc(ged.name(), ged.pattern(), std::move(x), std::move(y),
             ged.is_forbidding());
}

Status Gdc::Validate() const {
  const AttrId id_attr = Sym("id");
  auto check = [&](const std::vector<GdcLiteral>& ls) -> Status {
    for (const GdcLiteral& l : ls) {
      size_t n = pattern_.NumVars();
      if (l.x >= n || (l.kind != GdcLiteral::Kind::kConstPred && l.y >= n)) {
        return Status::OutOfRange(name_ + ": literal variable out of range");
      }
      if (l.kind != GdcLiteral::Kind::kId &&
          (l.a == id_attr ||
           (l.kind == GdcLiteral::Kind::kVarPred && l.b == id_attr))) {
        return Status::InvalidArgument(
            name_ + ": attribute `id` may only appear in id literals");
      }
    }
    return Status::OK();
  };
  GEDLIB_RETURN_IF_ERROR(check(x_));
  GEDLIB_RETURN_IF_ERROR(check(y_));
  if (y_is_false_ && !y_.empty()) {
    return Status::InvalidArgument(name_ +
                                   ": forbidding GDC must have empty Y");
  }
  return Status::OK();
}

std::string Gdc::ToString() const {
  std::ostringstream os;
  os << name_ << ": Q[" << pattern_.ToString() << "] (";
  for (size_t i = 0; i < x_.size(); ++i) {
    if (i) os << " && ";
    os << x_[i].ToString(pattern_);
  }
  if (x_.empty()) os << "true";
  os << " -> ";
  if (y_is_false_) {
    os << "false";
  } else {
    for (size_t i = 0; i < y_.size(); ++i) {
      if (i) os << " && ";
      os << y_[i].ToString(pattern_);
    }
    if (y_.empty()) os << "true";
  }
  os << ")";
  return os.str();
}

namespace {

template <GraphView GView>
bool SatisfiesGdcLiteralT(const GView& g, const Match& h,
                          const GdcLiteral& l) {
  switch (l.kind) {
    case GdcLiteral::Kind::kConstPred: {
      const Value* v = g.FindAttr(h[l.x], l.a);
      return v != nullptr && EvalPred(l.op, *v, l.c);
    }
    case GdcLiteral::Kind::kVarPred: {
      const Value* va = g.FindAttr(h[l.x], l.a);
      if (va == nullptr) return false;
      const Value* vb = g.FindAttr(h[l.y], l.b);
      return vb != nullptr && EvalPred(l.op, *va, *vb);
    }
    case GdcLiteral::Kind::kId:
      return h[l.x] == h[l.y];
  }
  return false;
}

template <GraphView GView>
bool SatisfiesAllGdcT(const GView& g, const Match& h,
                      const std::vector<GdcLiteral>& literals) {
  for (const GdcLiteral& l : literals) {
    if (!SatisfiesGdcLiteralT(g, h, l)) return false;
  }
  return true;
}

}  // namespace

bool SatisfiesGdcLiteral(const FrozenGraph& g, const Match& h,
                         const GdcLiteral& l) {
  return SatisfiesGdcLiteralT(g, h, l);
}

bool SatisfiesAllGdc(const FrozenGraph& g, const Match& h,
                     const std::vector<GdcLiteral>& literals) {
  return SatisfiesAllGdcT(g, h, literals);
}

bool SatisfiesAllGdc(const OverlayView& g, const Match& h,
                     const std::vector<GdcLiteral>& literals) {
  return SatisfiesAllGdcT(g, h, literals);
}

std::vector<Match> FindGdcViolations(const FrozenGraph& g, const Gdc& phi,
                                     uint64_t max_violations,
                                     const MatchOptions& base_options) {
  ScopedSpan span(base_options.obs.Trace(), "GdcScan", phi.name());
  if (MetricsRegistry* m = base_options.obs.Metrics()) {
    m->Inc(EngineMetric::kGdcScans);
  }
  std::vector<Match> out;
  EnumerateMatches(phi.pattern(), g, base_options, [&](const Match& h) {
    if (!SatisfiesAllGdc(g, h, phi.X())) return true;
    bool y_ok = !phi.is_forbidding() && SatisfiesAllGdc(g, h, phi.Y());
    if (!y_ok) {
      out.push_back(h);
      if (max_violations != 0 && out.size() >= max_violations) return false;
    }
    return true;
  });
  return out;
}

bool ValidateGdcs(const FrozenGraph& g, const std::vector<Gdc>& sigma,
                  const MatchOptions& base_options) {
  ScopedSpan span(base_options.obs.Trace(), "GdcValidate",
                  base_options.obs.Trace() == nullptr
                      ? std::string{}
                      : "sigma=" + std::to_string(sigma.size()));
  for (const Gdc& phi : sigma) {
    if (!FindGdcViolations(g, phi, 1, base_options).empty()) return false;
  }
  return true;
}

namespace {
Result<Pred> ParsePred(const std::string& op) {
  if (op == "=") return Pred::kEq;
  if (op == "!=") return Pred::kNe;
  if (op == "<") return Pred::kLt;
  if (op == "<=") return Pred::kLe;
  if (op == ">") return Pred::kGt;
  if (op == ">=") return Pred::kGe;
  return Status::InvalidArgument("unknown predicate: " + op);
}

Result<GdcLiteral> AstToGdcLiteral(const Pattern& pattern,
                                   const AstLiteral& al) {
  auto op = ParsePred(al.op);
  if (!op.ok()) return op.status();
  VarId x = pattern.FindVar(al.lv);
  if (x == Pattern::kNoVar) {
    return Status::NotFound("unknown variable '" + al.lv + "'");
  }
  bool left_id = (al.la == "id");
  if (al.rhs_is_const) {
    if (left_id) {
      return Status::InvalidArgument("id literal needs var.id on both sides");
    }
    return GdcLiteral::ConstPred(x, Sym(al.la), op.value(), al.rc);
  }
  VarId y = pattern.FindVar(al.rv);
  if (y == Pattern::kNoVar) {
    return Status::NotFound("unknown variable '" + al.rv + "'");
  }
  bool right_id = (al.ra == "id");
  if (left_id != right_id) {
    return Status::InvalidArgument("id literal needs var.id on both sides");
  }
  if (left_id) {
    if (op.value() != Pred::kEq) {
      return Status::InvalidArgument("id literals only support '='");
    }
    return GdcLiteral::Id(x, y);
  }
  return GdcLiteral::VarPred(x, Sym(al.la), op.value(), y, Sym(al.ra));
}
}  // namespace

Result<std::vector<Gdc>> ParseGdcs(std::string_view text) {
  auto rules = ParseRules(text);
  if (!rules.ok()) return rules.status();
  std::vector<Gdc> out;
  for (RuleAst& rule : rules.value()) {
    if (rule.then_disjunction) {
      return Status::InvalidArgument(rule.name + ": GDCs are conjunctive");
    }
    std::vector<GdcLiteral> x, y;
    for (const AstLiteral& al : rule.where) {
      auto l = AstToGdcLiteral(rule.pattern, al);
      if (!l.ok()) return l.status();
      x.push_back(l.Take());
    }
    for (const AstLiteral& al : rule.then_literals) {
      auto l = AstToGdcLiteral(rule.pattern, al);
      if (!l.ok()) return l.status();
      y.push_back(l.Take());
    }
    Gdc gdc(rule.name, std::move(rule.pattern), std::move(x), std::move(y),
            rule.then_false);
    GEDLIB_RETURN_IF_ERROR(gdc.Validate());
    out.push_back(std::move(gdc));
  }
  return out;
}

}  // namespace ged
