// A deliberately naive reference validator for G ⊨ Σ, used only by tests.
//
// It exists to be obviously right, not fast: it backtracks over the
// pattern variables in index order, tries every node of the graph for each
// one, and checks the paper's match conditions (§2) on the spot —
//   * node labels under ≼ (a pattern wildcard matches any label);
//   * every pattern edge whose endpoints are both bound, against the
//     graph's out-adjacency (an edge label wildcard matches any label);
//   * injectivity, under the isomorphism semantics only.
// X → Y literals (§3) are evaluated here too, straight from Graph::attr.
//
// It shares no code with the engine it checks: nothing from match/,
// plan/ or reason/ is included or called, so a defect in the matcher, the
// ruleset plan or the report builder cannot hide in the oracle. Only the
// data model (graph/, ged/, common/) is common ground.

#ifndef GEDLIB_TESTS_REFERENCE_REFERENCE_VALIDATOR_H_
#define GEDLIB_TESTS_REFERENCE_REFERENCE_VALIDATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "ged/ged.h"
#include "graph/graph.h"

namespace ged::reference {

/// One violating match: rule index and h(x̄) in the rule's variable order.
struct RefViolation {
  size_t ged_index = 0;
  std::vector<NodeId> match;

  bool operator==(const RefViolation&) const = default;
  /// (ged_index, match), match compared lexicographically.
  bool operator<(const RefViolation& o) const {
    if (ged_index != o.ged_index) return ged_index < o.ged_index;
    return match < o.match;
  }
};

/// The reference outcome of G ⊨ Σ.
struct RefReport {
  /// Every violation, sorted by (ged_index, match), no duplicates.
  std::vector<RefViolation> violations;
  /// Σ over rules of the number of matches inspected.
  uint64_t matches_checked = 0;
};

/// Calls `visit` with every match h(x̄) of `q` in `g` (the variables in
/// index order, each tried against every node in increasing id order).
/// `injective` selects the isomorphism semantics.
void ForEachMatch(const Pattern& q, const Graph& g, bool injective,
                  const std::function<void(const std::vector<NodeId>&)>& visit);

/// Decides which matches a run inspects: (rule, h) → keep. A match that is
/// not kept is neither counted nor checked.
using MatchFilter =
    std::function<bool(const Ged& phi, const std::vector<NodeId>& h)>;

/// All violations of Σ in `g`. `injective` selects the isomorphism
/// semantics; otherwise matches are homomorphisms (the paper's default).
/// With a filter, only the matches it keeps are inspected.
RefReport Validate(const Graph& g, const std::vector<Ged>& sigma,
                   bool injective, const MatchFilter& keep = nullptr);

/// Validate() restricted to the matches that bind at least one node of
/// `touched` (any order). A variable-free pattern's single empty match
/// binds no node, so it never counts here.
RefReport ValidateTouching(const Graph& g, const std::vector<Ged>& sigma,
                           const std::vector<NodeId>& touched,
                           bool injective);

/// Validate() restricted to the matches that map some pattern edge
/// (u, ι, v) onto one of the `seeds`: h(u) = seed.src, h(v) = seed.dst and
/// ι ≼ seed.label.
RefReport ValidateSeededByEdges(const Graph& g, const std::vector<Ged>& sigma,
                                const std::vector<EdgeTriple>& seeds,
                                bool injective);

/// Keeps the first `cap` violations of each rule of a sorted list (all of
/// them when cap is 0).
std::vector<RefViolation> CapPerGed(const std::vector<RefViolation>& sorted,
                                    uint64_t cap);

}  // namespace ged::reference

#endif  // GEDLIB_TESTS_REFERENCE_REFERENCE_VALIDATOR_H_
