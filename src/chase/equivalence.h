// Equivalence relations Eq of the revised chase (paper §4.1).
//
// Eq partitions (i) the nodes of a base graph and (ii) attribute terms x.A
// together with constants, under the closure rules (a)-(d) of §4.1:
//   (a) classes merge symmetrically/transitively;
//   (b) two classes sharing an attribute term or a *constant* are one class
//       (hence all attributes currently equal to constant c sit in one class
//       containing c — cf. Example 4: [v1.A] = {v1.A, v2.A, 1});
//   (c) node classes are transitive;
//   (d) merging nodes x, y merges [x.B] and [y.B] for every attribute B
//       that exists on either class (same node => same attributes).
//
// Consistency (§4.1): a label conflict is two class members whose labels are
// mutually non-matching under ≼ (two distinct non-wildcard labels); an
// attribute conflict is one class containing two distinct constants.
//
// EqRel is copyable; the disjunctive chase (ext/gedor.h) branches on copies.
// The relation *shares ownership* of (a snapshot of) its base graph, so it
// stays valid independently of the caller's graph lifetime; copies share the
// snapshot.

#ifndef GEDLIB_CHASE_EQUIVALENCE_H_
#define GEDLIB_CHASE_EQUIVALENCE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/union_find.h"
#include "common/value.h"
#include "graph/graph.h"

namespace ged {

/// Dense id of an attribute-term class element (an x.A occurrence).
using TermId = uint32_t;
/// Sentinel for "no such term".
inline constexpr TermId kNoTerm = UINT32_MAX;

/// The chase's equivalence relation over one base graph.
class EqRel {
 public:
  /// Builds Eq0 for `base`: [x] = {x} for every node, and for every stored
  /// attribute x.A = c a term class containing x.A and c (classes sharing a
  /// constant are merged per closure rule (b)). Takes a private snapshot of
  /// `base`.
  explicit EqRel(const Graph& base);
  /// Same, sharing an existing snapshot (no copy).
  explicit EqRel(std::shared_ptr<const Graph> base);

  // ----- node classes ---------------------------------------------------

  /// Representative of v's node class.
  NodeId NodeRoot(NodeId v) const { return nodes_.Find(v); }
  /// True iff u and v are identified.
  bool SameNode(NodeId u, NodeId v) const { return nodes_.Same(u, v); }
  /// Enforces an id literal: identifies u and v (closure rule (d) applied;
  /// label conflicts set inconsistent()). No-op when already identified.
  void MergeNodes(NodeId u, NodeId v);
  /// Resolved label of v's class: the (unique, if consistent) non-wildcard
  /// member label, else '_'.
  Label ClassLabel(NodeId v) const;
  /// Members of v's class.
  const std::vector<NodeId>& ClassMembers(NodeId v) const;

  // ----- attribute-term classes ------------------------------------------

  /// Term for v.A, creating it if absent ("attribute generation", §4.1).
  TermId GetOrCreateTerm(NodeId v, AttrId a);
  /// Term for v.A or kNoTerm. Lookup is class-wide: if any node identified
  /// with v has attribute A, that term is returned.
  TermId FindTerm(NodeId v, AttrId a) const;
  /// True iff v's class has attribute a.
  bool HasAttr(NodeId v, AttrId a) const { return FindTerm(v, a) != kNoTerm; }
  /// Enforces a variable literal: merges the classes of t1 and t2
  /// (attribute conflicts set inconsistent()).
  void MergeTerms(TermId t1, TermId t2);
  /// Enforces a constant literal: adds c to t's class. Merges with any other
  /// class already containing c (rule (b)); two distinct constants in one
  /// class set inconsistent().
  void BindConst(TermId t, const Value& c);
  /// True iff the two terms are in one class.
  bool SameTerm(TermId t1, TermId t2) const { return terms_.Same(t1, t2); }
  /// Representative of t's class.
  TermId TermRoot(TermId t) const { return terms_.Find(t); }
  /// The constant of t's class, if any.
  std::optional<Value> TermConst(TermId t) const;
  /// The constant of t's class, or nullptr (no copy; valid until the next
  /// mutation of the relation).
  const Value* FindConst(TermId t) const;

  /// All attributes of v's node class, as (attr, term) pairs.
  const std::map<AttrId, TermId>& ClassAttrs(NodeId v) const;

  /// All distinct attribute-term class representatives.
  std::vector<TermId> TermClassRoots() const;

  // ----- consistency ------------------------------------------------------

  /// True iff a label or attribute conflict has been detected (§4.1).
  bool inconsistent() const { return inconsistent_; }
  /// Human-readable description of the first conflict.
  const std::string& conflict_reason() const { return conflict_reason_; }

  // ----- measures & identity ----------------------------------------------

  /// |Eq|: number of element occurrences (node members + attribute-term
  /// members + bound constants); the paper bounds this by 4·|G|·|Σ|.
  size_t SizeMeasure() const;

  /// Deterministic signature of the partition, independent of the order in
  /// which merges happened. Equal signatures <=> equal relations; used by
  /// the Church–Rosser property tests.
  std::string CanonicalSignature() const;

  /// The base graph this relation refines.
  const Graph& base() const { return *base_; }

 private:
  void MarkLabelConflict(NodeId u, NodeId v);
  void MarkAttrConflict(const Value& c1, const Value& c2);

  void Init();

  std::shared_ptr<const Graph> base_;
  UnionFind nodes_;
  // Indexed by node id, meaningful at node roots (a merged-away root's
  // entries are cleared): members and resolved label.
  std::vector<std::vector<NodeId>> members_;
  std::vector<Label> class_label_;
  // Per node-root: attribute -> term (a member of the attribute's class).
  std::vector<std::map<AttrId, TermId>> class_attrs_;

  UnionFind terms_;
  // Term bookkeeping: every created term remembers its (node, attr) origin.
  std::vector<std::pair<NodeId, AttrId>> term_origin_;
  // Per term-root: constant, if bound.
  std::unordered_map<TermId, Value> term_const_;
  // constant -> term root currently holding it (rule (b) sharing).
  std::unordered_map<Value, TermId, ValueHash> const_index_;

  bool inconsistent_ = false;
  std::string conflict_reason_;
};

}  // namespace ged

#endif  // GEDLIB_CHASE_EQUIVALENCE_H_
