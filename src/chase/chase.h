// The chase revised for GEDs (paper §4).
//
// A chase of a graph G by a set Σ of GEDs is a sequence of valid chase steps
// Eq ⇒(φ,h) Eq' that extend an equivalence relation until no GED can be
// applied (terminal). Chasing with GEDs is finite and Church–Rosser
// (Theorem 1): all terminal sequences yield the same result — either the
// same (Eq, G_Eq), or all invalid (⊥). Chase() computes that unique result
// as a monotone fixpoint; ChaseOptions::order_seed reshuffles the
// application order so tests can confirm order independence.
//
// Compared to the relational chase, steps here may
//   * merge nodes (id literals) — including their attributes and edges,
//   * generate new attributes on schemaless nodes,
//   * run into label or attribute conflicts (invalid sequence, result ⊥).
//
// How Chase() runs. Σ is compiled once per call into shared-pattern
// buckets (plan/RulesetPlan), so rules with isomorphic patterns share one
// enumeration. The chase then runs in rounds. A round builds the quotient
// of the current Eq straight into a FrozenGraph, enumerates each bucket's
// matches into one flat row buffer, and for every row and member rule
// evaluates X and enforces Y against the live Eq. Steps applied during
// a round do not change the frozen quotient; their effect is seen in the
// next round. The chase ends after a round that applies no step, or at ⊥.
//
// The first round enumerates every match. Later rounds are semi-naive: they
// enumerate only the matches that bind a quotient node whose class changed
// since the previous round's start. A class has changed when its members,
// its attribute set, any attribute's term root or a bound constant changed.
// This is exact. Eq only grows, and a union-find root never becomes a root
// again, so a class whose state is equal at both ends of a round was equal
// throughout it. A literal's truth at a match depends only on the states of
// the classes it binds, and a quotient edge between two unchanged classes
// is unchanged. So a match binding only unchanged classes was a match of the
// previous round's quotient, and was there either already non-applicable or
// checked in that round against the same class states — after which its Y
// held or the chase had stopped. Hence any applicable step binds a changed
// class. The touched-class set is computed by comparing class snapshots,
// not from which steps ran, so chases that also create nodes (generating
// dependencies) can feed it new nodes the same way.
//
// ChaseResult::rounds and ::matches_checked count the work; for a given
// order_seed both, like num_steps, repeat exactly.
//
// tests/reference/reference_chase.h is the naive full-rescan chase the
// tests hold this one to.

#ifndef GEDLIB_CHASE_CHASE_H_
#define GEDLIB_CHASE_CHASE_H_

#include <string>
#include <vector>

#include "chase/equivalence.h"
#include "ged/ged.h"
#include "graph/frozen.h"
#include "graph/graph.h"
#include "obs/obs.h"

namespace ged {

/// The coercion G_Eq of a consistent Eq on G (§4.1): the quotient graph,
/// built straight into a CSR snapshot (FrozenGraph::FreezeQuotient) that
/// every match over the coercion reads — the chase rounds, the GDC chase,
/// the GED∨ step finder, the proof generator and the GED6 check of the
/// proof checker. Node labels are resolved per class; every class
/// attribute with a known constant becomes an attribute of the quotient
/// node. Attribute classes without a constant stay in Eq
/// (EqSatisfiesLiteral reads them there).
struct Coercion {
  FrozenGraph graph;
  /// base node -> quotient node.
  std::vector<NodeId> node_map;
  /// quotient node -> representative base node (class root).
  std::vector<NodeId> rep;
};

/// Builds the coercion of `eq` on its base graph (one CSR construction).
Coercion BuildCoercion(const EqRel& eq);

/// One applied chase step (journal entry), recorded against base-graph ids.
struct ChaseStep {
  size_t ged_index;        ///< which GED of Σ was applied
  Match match;             ///< h(x̄) as *base-graph* representative nodes
  Literal literal;         ///< the literal of Y that was enforced
};

/// Knobs for Chase().
struct ChaseOptions {
  /// Safety cap on applied steps (0 = unlimited; the chase is finite anyway,
  /// bounded by 8·|G|·|Σ| per Theorem 1).
  uint64_t max_steps = 0;
  /// 0 = deterministic application order; otherwise each round shuffles
  /// the bucket order, the rule order within a bucket and each bucket's
  /// match rows by this seed (Church–Rosser property testing).
  unsigned order_seed = 0;
  /// Record the journal of applied steps (needed by the proof generator).
  bool record_journal = true;
  /// Observability sinks (entry-point instrumentation only: a "Chase" span,
  /// chase.runs/chase.steps counters, chase.wall_ns — no per-step hooks).
  ObsOptions obs;
};

/// Result of chasing: chase(G, Σ) per Theorem 1.
struct ChaseResult {
  /// True iff some (equivalently: every) terminal chasing sequence is valid.
  bool consistent = false;
  /// Conflict description when !consistent.
  std::string conflict_reason;
  /// Final equivalence relation (the last consistent one when !consistent).
  EqRel eq;
  /// Coercion of `eq` on G (the G_Eq of the result when consistent).
  Coercion coercion;
  /// Applied steps in order (when options.record_journal).
  std::vector<ChaseStep> journal;
  /// Number of applied steps.
  uint64_t num_steps = 0;
  /// Rounds run, the last one (which applies nothing) included; 0 when the
  /// initial Eq is already inconsistent.
  uint64_t rounds = 0;
  /// (rule, match) pairs whose X was evaluated, over all rounds.
  uint64_t matches_checked = 0;
  /// True iff max_steps stopped the chase early.
  bool capped = false;
};

/// Chases `base` by `sigma`, starting from `init` (or Eq0 when null).
/// `init`, when given, must have been constructed over `base`.
ChaseResult Chase(const Graph& base, const std::vector<Ged>& sigma,
                  const EqRel* init = nullptr, const ChaseOptions& options = {});

/// Eq-level literal satisfaction used by chase steps and by Theorem 4's
/// "deduced from Eq" (match `h` is over coercion `co` of `eq`):
///   x.A = c   — class [h(x).A] exists and contains c;
///   x.A = y.B — both classes exist and are equal;
///   x.id = y.id — h(x), h(y) are the same quotient node.
bool EqSatisfiesLiteral(const EqRel& eq, const Coercion& co, const Match& h,
                        const Literal& literal);

/// h ⊨ X under Eq semantics.
bool EqSatisfiesAll(const EqRel& eq, const Coercion& co, const Match& h,
                    const std::vector<Literal>& literals);

/// A literal over *base node ids* can be deduced from Eq (Theorem 4 (d)).
bool Deducible(const EqRel& eq, const Literal& literal_on_base_nodes);

/// Builds Eq_X over the canonical graph G_Q of a pattern (§5.2): Eq0 of G_Q
/// extended with every literal of X, reading variables as node ids. The
/// result may be inconsistent (e.g. X contains x.A = 1 and x.A = 2).
EqRel BuildEqX(const Graph& gq, const std::vector<Literal>& x);

/// Applies one literal to `eq` at a match given as base-graph node ids
/// (one chase enforcement step; may make `eq` inconsistent).
void ApplyLiteralAt(EqRel* eq, const Match& base_match, const Literal& l);

/// True iff the literal holds in `eq` at a base-graph match (Eq semantics).
bool LiteralHoldsAt(const EqRel& eq, const Match& base_match,
                    const Literal& l);

/// Instantiates the coercion of `eq` as a concrete graph: wildcard-labeled
/// classes get a fresh label, constant-free attribute classes get fresh
/// distinct values (equal within a class). This is the model construction
/// of Theorem 2; reused by GED∨ leaf models.
Graph InstantiateModel(const EqRel& eq);

/// Total size |Σ| = Σ_φ (|Q| + |X| + |Y|), the measure in the chase bounds.
size_t SigmaSize(const std::vector<Ged>& sigma);

}  // namespace ged

#endif  // GEDLIB_CHASE_CHASE_H_
