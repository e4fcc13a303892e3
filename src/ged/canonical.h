// Canonical graphs (paper §5.1–§5.2) and canonical pattern forms.
//
// The canonical graph G_Σ of a set Σ of GEDs is the disjoint union of the
// patterns of all GEDs in Σ, with empty attribute function. Chasing G_Σ by Σ
// characterizes satisfiability (Theorem 2); chasing the canonical graph G_Q
// of one pattern, starting from Eq_X, characterizes implication (Theorem 4).
//
// CanonicalizePattern computes a canonical form under pattern isomorphism
// (bijective variable renamings preserving node labels and labeled edges) —
// the bucketing key of the ruleset compiler in plan/: two patterns get the
// same key iff they are isomorphic, so isomorphic rules can share one
// enumeration.

#ifndef GEDLIB_GED_CANONICAL_H_
#define GEDLIB_GED_CANONICAL_H_

#include <cstdint>
#include <vector>

#include "ged/ged.h"
#include "graph/graph.h"

namespace ged {

/// G_Σ plus the mapping from each GED's variables to its nodes.
struct CanonicalGraph {
  Graph graph;
  /// offsets[i] + x is the node of variable x of sigma[i]'s pattern.
  std::vector<NodeId> offsets;
};

/// Builds G_Σ = ⊎_i Q_i as a graph (wildcard '_' kept as a special label,
/// F_A empty).
CanonicalGraph BuildCanonicalGraph(const std::vector<Ged>& sigma);

/// A canonical form of a pattern under variable-renaming isomorphism.
struct PatternCanonicalForm {
  /// Canonical encoding: [n, canonical labels..., m, sorted canonical edge
  /// triples...]. Two patterns with `exact` set have equal keys iff they are
  /// isomorphic.
  std::vector<uint64_t> key;
  /// to_canonical[x] is the canonical position of original variable x; the
  /// inverse of the minimizing permutation.
  std::vector<VarId> to_canonical;
  /// True when the key is a true canonical form. Patterns above the
  /// canonicalization size cap fall back to the identity encoding (`key`
  /// then separates patterns that differ only by variable order — buckets
  /// simply fail to merge, which is safe).
  bool exact = true;
};

/// Variable count above which CanonicalizePattern falls back to the identity
/// encoding (the minimization searches the label-compatible permutations,
/// pruned but exhaustive in the worst case; fine for the paper's
/// bounded-size patterns).
inline constexpr size_t kMaxCanonicalVars = 8;

/// Computes the lexicographically smallest encoding of `q` over all variable
/// permutations, plus the renaming that achieves it.
PatternCanonicalForm CanonicalizePattern(const Pattern& q);

}  // namespace ged

#endif  // GEDLIB_GED_CANONICAL_H_
