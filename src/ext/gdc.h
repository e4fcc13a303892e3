// Graph denial constraints — GEDs with built-in predicates (paper §7.1).
//
// A GDC φ = Q[x̄](X → Y) where literals take the forms
//   x.A ⊕ c,   x.A ⊕ y.B,   x.id = y.id      for ⊕ ∈ {=, ≠, <, >, ≤, ≥}.
// GDCs express relational denial constraints when tuples are nodes, and
// "domain constraints" such as Example 9's Boolean-attribute pair
//   φ1: Q_e[x](∅ → x.A = x.A),  φ2: Q_e[x](x.A ≠ 0 ∧ x.A ≠ 1 → false).
//
// Value comparisons use the documented total order of common/value.h
// (bool < number < string, numeric within numbers, lexicographic within
// strings), so every predicate is decidable on any pair of constants.

#ifndef GEDLIB_EXT_GDC_H_
#define GEDLIB_EXT_GDC_H_

#include <string>
#include <vector>

#include "ged/ged.h"
#include "ged/parser.h"
#include "graph/pattern.h"
#include "match/matcher.h"

namespace ged {

/// Built-in predicates of GDC literals.
enum class Pred { kEq, kNe, kLt, kLe, kGt, kGe };

/// Evaluates `a ⊕ b` under the total order on U.
bool EvalPred(Pred op, const Value& a, const Value& b);
/// "=", "!=", "<", "<=", ">", ">=".
const char* PredName(Pred op);
/// The converse predicate (swap sides): < ↔ >, ≤ ↔ ≥, = and ≠ fixed.
Pred FlipPred(Pred op);

/// One GDC literal.
struct GdcLiteral {
  enum class Kind { kConstPred, kVarPred, kId };
  Kind kind = Kind::kConstPred;
  VarId x = 0;
  AttrId a = 0;
  Pred op = Pred::kEq;
  VarId y = 0;
  AttrId b = 0;
  Value c;

  static GdcLiteral ConstPred(VarId x, AttrId a, Pred op, Value c) {
    GdcLiteral l;
    l.kind = Kind::kConstPred;
    l.x = x;
    l.a = a;
    l.op = op;
    l.c = std::move(c);
    return l;
  }
  static GdcLiteral VarPred(VarId x, AttrId a, Pred op, VarId y, AttrId b) {
    GdcLiteral l;
    l.kind = Kind::kVarPred;
    l.x = x;
    l.a = a;
    l.op = op;
    l.y = y;
    l.b = b;
    return l;
  }
  static GdcLiteral Id(VarId x, VarId y) {
    GdcLiteral l;
    l.kind = Kind::kId;
    l.x = x;
    l.y = y;
    return l;
  }
  /// Lifts a plain GED literal.
  static GdcLiteral FromGed(const Literal& l);

  bool operator==(const GdcLiteral& o) const;
  std::string ToString(const Pattern& q) const;
};

/// One graph denial constraint.
class Gdc {
 public:
  Gdc() = default;
  Gdc(std::string name, Pattern pattern, std::vector<GdcLiteral> x,
      std::vector<GdcLiteral> y, bool y_is_false = false);

  const std::string& name() const { return name_; }
  const Pattern& pattern() const { return pattern_; }
  const std::vector<GdcLiteral>& X() const { return x_; }
  const std::vector<GdcLiteral>& Y() const { return y_; }
  bool is_forbidding() const { return y_is_false_; }

  /// Lifts a plain GED (GEDs are the ⊕ = '=' special case of GDCs).
  static Gdc FromGed(const Ged& ged);

  Status Validate() const;
  std::string ToString() const;

 private:
  std::string name_;
  Pattern pattern_;
  std::vector<GdcLiteral> x_;
  std::vector<GdcLiteral> y_;
  bool y_is_false_ = false;
};

/// h ⊨ l on a plain graph; attributes must exist on both sides.
bool SatisfiesGdcLiteral(const FrozenGraph& g, const Match& h,
                         const GdcLiteral& l);
/// h ⊨ X, on either read backend (graph/view.h).
bool SatisfiesAllGdc(const FrozenGraph& g, const Match& h,
                     const std::vector<GdcLiteral>& literals);
bool SatisfiesAllGdc(const OverlayView& g, const Match& h,
                     const std::vector<GdcLiteral>& literals);

/// All violating matches of φ in g (h ⊨ X, h ⊭ Y).
std::vector<Match> FindGdcViolations(const FrozenGraph& g, const Gdc& phi,
                                     uint64_t max_violations = 0,
                                     const MatchOptions& base_options = {});

/// G ⊨ Σ for GDC sets (the validation problem stays coNP, Theorem 8(3)).
/// Takes the snapshot a mutable graph is frozen into once per call
/// (FrozenGraph::Freeze), not once per rule.
bool ValidateGdcs(const FrozenGraph& g, const std::vector<Gdc>& sigma,
                  const MatchOptions& base_options = {});

/// Parses rule blocks with predicate operators into GDCs.
Result<std::vector<Gdc>> ParseGdcs(std::string_view text);

}  // namespace ged

#endif  // GEDLIB_EXT_GDC_H_
