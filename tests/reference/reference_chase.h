// A deliberately naive reference chase (paper §4), used only by tests.
//
// Every round it rebuilds the quotient graph of the current Eq, enumerates
// every match of every rule in Σ order with the reference matcher
// (reference_validator.h), and enforces Y at each match whose X holds
// under Eq semantics. It stops when a full round changes nothing (the
// terminal Eq) or when the sequence turns invalid (⊥): a forbidding rule
// fires or Eq becomes inconsistent. By Theorem 1 every terminal chasing
// sequence reaches the same result, so the engine's chase must agree with
// this one on validity, on the final Eq and on the quotient size, whatever
// order it applies steps in.
//
// It shares no code with the engine it checks: nothing from chase/chase.h,
// plan/ or match/ is included or called, so a defect in the round loop, the
// touched-class set or the matcher cannot hide in the oracle. Only the data
// model (graph/, ged/) and the relation the result is stated in
// (chase/equivalence.h) are common ground.

#ifndef GEDLIB_TESTS_REFERENCE_REFERENCE_CHASE_H_
#define GEDLIB_TESTS_REFERENCE_REFERENCE_CHASE_H_

#include <cstddef>
#include <vector>

#include "chase/equivalence.h"
#include "ged/ged.h"
#include "graph/graph.h"

namespace ged::reference {

/// The reference outcome of chasing G by Σ.
struct RefChaseResult {
  /// True iff the chasing sequence is valid (the result is not ⊥).
  bool consistent = false;
  /// The terminal Eq when consistent; the Eq at the conflict otherwise.
  EqRel eq;
  /// Number of node classes of `eq`: the node count of the quotient G_Eq.
  size_t quotient_size = 0;
};

/// Chases `base` by `sigma`, starting from `init` (or Eq0 when null).
/// `init`, when given, must have been constructed over `base`.
RefChaseResult Chase(const Graph& base, const std::vector<Ged>& sigma,
                     const EqRel* init = nullptr);

}  // namespace ged::reference

#endif  // GEDLIB_TESTS_REFERENCE_REFERENCE_CHASE_H_
