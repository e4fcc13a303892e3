// GED∨s — GEDs with disjunctive conclusions (paper §7.2).
//
// A GED∨ ψ = Q[x̄](X → Y) has the GED syntax, but Y is read as a
// *disjunction*: h ⊨ Y iff some literal of Y holds. Every GED is a set of
// GED∨s (one per conjunct); GED∨s additionally express e.g. domain
// constraints (Example 10: Q_e[x](∅ → x.A = 0 ∨ x.A = 1)) that no GED can.
// An empty disjunction is `false`, so forbidding GED∨s need no special flag.
//
// The satisfiability and implication problems are Σp2- / Πp2-complete
// (Theorem 9). The procedures here run a *disjunctive chase*: enforcement
// branches on the disjuncts, satisfiability holds iff some branch reaches a
// valid terminal state (the witness model is built and verified), and
// Σ ⊨ ψ holds iff every valid terminal branch deduces some disjunct of Y.
// Branch counts are capped; hitting the cap yields kUnknown (DESIGN.md §4).

#ifndef GEDLIB_EXT_GEDOR_H_
#define GEDLIB_EXT_GEDOR_H_

#include <string>
#include <vector>

#include "chase/chase.h"
#include "ext/gdc_reason.h"  // Decision
#include "ged/ged.h"
#include "ged/parser.h"

namespace ged {

/// One GED with disjunctive conclusion.
class GedOr {
 public:
  GedOr() = default;
  /// An empty `y` means `false` (no disjunct can hold).
  GedOr(std::string name, Pattern pattern, std::vector<Literal> x,
        std::vector<Literal> y);

  const std::string& name() const { return name_; }
  const Pattern& pattern() const { return pattern_; }
  const std::vector<Literal>& X() const { return x_; }
  /// The disjuncts of Y.
  const std::vector<Literal>& Y() const { return y_; }
  /// True iff Y is the empty disjunction (false).
  bool is_forbidding() const { return y_.empty(); }

  /// Lifts a GED: Q(X → l) per conclusion literal (paper §7.2: "each GED
  /// can be expressed as a set of GED∨s").
  static std::vector<GedOr> FromGed(const Ged& ged);

  Status Validate() const;
  std::string ToString() const;

 private:
  std::string name_;
  Pattern pattern_;
  std::vector<Literal> x_;
  std::vector<Literal> y_;
};

/// h ⊨ Y under disjunctive semantics (on a plain graph).
bool SatisfiesDisjunction(const FrozenGraph& g, const Match& h,
                          const std::vector<Literal>& disjuncts);

/// All violating matches of ψ in g.
std::vector<Match> FindGedOrViolations(const FrozenGraph& g, const GedOr& psi,
                                       uint64_t max_violations = 0,
                                       const MatchOptions& base_options = {});

/// G ⊨ Σ for GED∨ sets (validation stays coNP, Theorem 9). Takes the
/// snapshot a mutable graph is frozen into once per call
/// (FrozenGraph::Freeze), not once per rule.
bool ValidateGedOrs(const FrozenGraph& g, const std::vector<GedOr>& sigma,
                    const MatchOptions& base_options = {});

/// Result of a disjunctive chase.
struct DisjChaseResult {
  /// Final equivalence relations of all valid terminal branches found
  /// (deduplicated by canonical signature).
  std::vector<EqRel> valid_leaves;
  /// True iff the branch cap was hit (answers degrade to kUnknown).
  bool capped = false;
  /// Number of states explored.
  uint64_t states = 0;
};

/// Runs the disjunctive chase of `base` by Σ from `init` (or Eq0).
DisjChaseResult DisjunctiveChase(const Graph& base,
                                 const std::vector<GedOr>& sigma,
                                 const EqRel* init = nullptr,
                                 uint64_t max_states = 4096);

/// Satisfiability of a GED∨ set (some valid branch + verified model).
GdcDecision CheckGedOrSatisfiability(const std::vector<GedOr>& sigma,
                                     uint64_t max_states = 4096);

/// Implication Σ ⊨ ψ (every valid leaf of chase(G_Q, Eq_X, Σ) deduces some
/// disjunct of ψ's Y).
GdcDecision CheckGedOrImplication(const std::vector<GedOr>& sigma,
                                  const GedOr& psi,
                                  uint64_t max_states = 4096);

/// Parses rule blocks with `or`-separated conclusions into GED∨s.
Result<std::vector<GedOr>> ParseGedOrs(std::string_view text);

}  // namespace ged

#endif  // GEDLIB_EXT_GEDOR_H_
