// Graph entity dependencies (paper §3).
//
// A GED φ = Q[x̄](X → Y) combines a topological constraint (pattern Q) with
// an attribute dependency X → Y over equality literals. A graph G satisfies
// φ iff every homomorphic match h(x̄) of Q in G with h(x̄) ⊨ X also has
// h(x̄) ⊨ Y.
//
// Special cases recognized by this module (paper §3 "Special cases"):
//   * GFD   — no id literals (the GFDs of [23], under homomorphism);
//   * GKey  — Q is a pattern plus a disjoint copy, Y is one id literal
//             between a designated variable and its copy (keys of [19]);
//   * GEDx  — no constant literals;
//   * GFDx  — neither constant nor id literals (plain "FDs for graphs");
//   * forbidding GED — Y = false (limited negation).
//
// Checking G ⊨ Σ is Validate (reason/validation.h).

#ifndef GEDLIB_GED_GED_H_
#define GEDLIB_GED_GED_H_

#include <string>
#include <vector>

#include "ged/literal.h"
#include "graph/pattern.h"

namespace ged {

/// Syntactic features of a GED, used for subclass classification.
struct GedClass {
  bool has_const_literals = false;
  bool has_id_literals = false;
  bool is_forbidding = false;
  bool is_gkey_shape = false;
};

/// One graph entity dependency Q[x̄](X → Y).
class Ged {
 public:
  Ged() = default;
  /// Builds Q[x̄](X → Y). With `y_is_false`, Y is the Boolean constant
  /// `false` (forbidding GED; `y` must then be empty).
  Ged(std::string name, Pattern pattern, std::vector<Literal> x,
      std::vector<Literal> y, bool y_is_false = false);

  /// Rule name (diagnostics only).
  const std::string& name() const { return name_; }
  /// The pattern Q[x̄].
  const Pattern& pattern() const { return pattern_; }
  /// Premise literals X.
  const std::vector<Literal>& X() const { return x_; }
  /// Conclusion literals Y (empty when is_forbidding()).
  const std::vector<Literal>& Y() const { return y_; }
  /// True iff Y is the Boolean constant false.
  bool is_forbidding() const { return y_is_false_; }

  /// Checks well-formedness: variable ids in range, no `id` attribute inside
  /// constant/variable literals, forbidding GEDs have empty Y.
  Status Validate() const;

  /// Syntactic feature summary.
  GedClass Classify() const;
  /// GFD: no id literals in X or Y.
  bool IsGfd() const;
  /// GEDx: no constant literals.
  bool IsGedx() const;
  /// GFDx: neither constant nor id literals.
  bool IsGfdx() const;
  /// GKey: two-copy pattern layout, Y = single id literal x0.id = y0.id
  /// with y0 the copy of x0.
  bool IsGkey() const;

  /// "name: Q[...] (X -> Y)" rendering.
  std::string ToString() const;

 private:
  std::string name_;
  Pattern pattern_;
  std::vector<Literal> x_;
  std::vector<Literal> y_;
  bool y_is_false_ = false;
};

/// Builds a GKey from one half-pattern (paper §3, "Keys"):
/// the result pattern is `half` ⊎ copy(half) (copy variables renamed with
/// suffix "'"), Y = { x0.id = f(x0).id }, and X is produced by `make_x`,
/// which receives the bijection f as the variable offset of the copy.
Ged MakeGkey(std::string name, const Pattern& half, VarId x0,
             const std::function<std::vector<Literal>(VarId offset)>& make_x);

}  // namespace ged

#endif  // GEDLIB_GED_GED_H_
