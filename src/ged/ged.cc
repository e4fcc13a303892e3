#include "ged/ged.h"

#include <sstream>

namespace ged {

Ged::Ged(std::string name, Pattern pattern, std::vector<Literal> x,
         std::vector<Literal> y, bool y_is_false)
    : name_(std::move(name)),
      pattern_(std::move(pattern)),
      x_(std::move(x)),
      y_(std::move(y)),
      y_is_false_(y_is_false) {}

Status Ged::Validate() const {
  const AttrId id_attr = Sym("id");
  auto check = [&](const std::vector<Literal>& ls,
                   const char* side) -> Status {
    for (const Literal& l : ls) {
      size_t n = pattern_.NumVars();
      if (l.x >= n || (l.kind != LiteralKind::kConst && l.y >= n)) {
        return Status::OutOfRange(name_ + ": literal variable out of range in " +
                                  side);
      }
      if (l.kind != LiteralKind::kId &&
          (l.a == id_attr || (l.kind == LiteralKind::kVar && l.b == id_attr))) {
        return Status::InvalidArgument(
            name_ + ": attribute `id` may only appear in id literals");
      }
    }
    return Status::OK();
  };
  GEDLIB_RETURN_IF_ERROR(check(x_, "X"));
  GEDLIB_RETURN_IF_ERROR(check(y_, "Y"));
  if (y_is_false_ && !y_.empty()) {
    return Status::InvalidArgument(name_ +
                                   ": forbidding GED must have empty Y");
  }
  return Status::OK();
}

GedClass Ged::Classify() const {
  GedClass c;
  for (const std::vector<Literal>* side : {&x_, &y_}) {
    for (const Literal& l : *side) {
      if (l.kind == LiteralKind::kConst) c.has_const_literals = true;
      if (l.kind == LiteralKind::kId) c.has_id_literals = true;
    }
  }
  c.is_forbidding = y_is_false_;
  c.is_gkey_shape = IsGkey();
  return c;
}

bool Ged::IsGfd() const {
  for (const std::vector<Literal>* side : {&x_, &y_}) {
    for (const Literal& l : *side) {
      if (l.kind == LiteralKind::kId) return false;
    }
  }
  return true;
}

bool Ged::IsGedx() const {
  for (const std::vector<Literal>* side : {&x_, &y_}) {
    for (const Literal& l : *side) {
      if (l.kind == LiteralKind::kConst) return false;
    }
  }
  return true;
}

bool Ged::IsGfdx() const { return IsGfd() && IsGedx(); }

bool Ged::IsGkey() const {
  if (y_is_false_ || y_.size() != 1 || y_[0].kind != LiteralKind::kId) {
    return false;
  }
  if (!pattern_.IsTwoCopyLayout()) return false;
  VarId mid = static_cast<VarId>(pattern_.NumVars() / 2);
  const Literal& l = y_[0];
  return (l.y == l.x + mid) || (l.x == l.y + mid);
}

std::string Ged::ToString() const {
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
  } else if (y_.empty()) {
    os << "true";
  } else {
    for (size_t i = 0; i < y_.size(); ++i) {
      if (i) os << " && ";
      os << y_[i].ToString(pattern_);
    }
  }
  os << ")";
  return os.str();
}

Ged MakeGkey(std::string name, const Pattern& half, VarId x0,
             const std::function<std::vector<Literal>(VarId offset)>& make_x) {
  Pattern doubled = half;
  VarId offset = doubled.DisjointUnion(half, "'");
  std::vector<Literal> x = make_x(offset);
  std::vector<Literal> y = {Literal::Id(x0, offset + x0)};
  return Ged(std::move(name), std::move(doubled), std::move(x), std::move(y));
}

}  // namespace ged
