// OverlayView: a frozen CSR base plus a small mutable delta side-index.
//
// Incremental serving wants both of the things the mutable Graph and
// FrozenGraph trade against each other: the mutable Graph absorbs deltas
// cheaply but serves no sorted label ranges or neighbor spans (so it is no
// matcher backend at all), while FrozenGraph serves the fast sorted/columnar
// read surface but is immutable. OverlayView is the LSM-style
// middle ground: an immutable FrozenGraph base (shared, epoch-pinned) plus a
// per-node copy-on-write side index.
//
//   * Reads on untouched nodes are served directly from the base CSR —
//     the common case after a re-freeze, and exactly as fast as FrozenGraph.
//   * The first mutation touching a node's out-adjacency (resp. in-adjacency,
//     attribute tuple) copies that one node's base range into a side
//     `OverlayNode`, where it is kept sorted by (label, neighbor) with a
//     parallel columnar neighbor-id array — the merge with the base happens
//     once, at copy time, so every subsequent read returns a single
//     contiguous sorted span and the leapfrog kernel runs on it unchanged.
//   * The label index and attribute tuples copy-on-write the same way.
//
// OverlayView therefore satisfies GraphView (graph/view.h) literally, label
// ranges and neighbor spans included (no merged-cursor iterators), so the
// matcher, RulesetPlan execution, ValidateTouching and
// FindViolationsSeededByEdges run on it unchanged as the second backend.
//
// The side index grows with the applied deltas; once DeltaWeight() passes a
// cutoff the owner re-freezes (FrozenGraph::Freeze(overlay) — O(|V|+|E|),
// no sorting: overlay spans are already sorted) and starts a fresh overlay
// on the new base with a bumped epoch. IncrementalValidator (incr/) does
// this in a background thread; see its header for the epoch protocol.
//
// Mutation surface mirrors Graph (AddNode / AddEdge / SetAttr) so
// GraphDelta::Apply is templated over either backend. Mutations are
// append-only, matching the delta model of incr/. OverlayView is NOT
// thread-safe for concurrent mutation; like Graph, readers and the single
// writer must be externally serialized. Distinct OverlayViews sharing one
// base are safe to use concurrently (the base is deeply immutable).

#ifndef GEDLIB_GRAPH_OVERLAY_H_
#define GEDLIB_GRAPH_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/frozen.h"
#include "graph/graph.h"

namespace ged {

/// A mutable delta overlay over a shared immutable FrozenGraph base.
/// Copyable (copies share the base, duplicate the side index); cheap when
/// the side index is small — the refreeze path copies an overlay whose
/// weight is bounded by the cutoff.
class OverlayView {
 public:
  /// An empty overlay over an empty base (epoch 0).
  OverlayView() : OverlayView(std::make_shared<FrozenGraph>(), 0) {}

  /// An overlay with no deltas over `base`, tagged with `epoch`. The base is
  /// shared, never copied; it must not be null.
  explicit OverlayView(std::shared_ptr<const FrozenGraph> base,
                       uint64_t epoch = 0)
      : base_(std::move(base)),
        epoch_(epoch),
        slot_(base_->NumNodes(), kNoSlot),
        num_base_nodes_(base_->NumNodes()),
        num_edges_(base_->NumEdges()) {}

  // ----- overlay lifecycle ---------------------------------------------

  /// The pinned immutable base snapshot this overlay reads through.
  const std::shared_ptr<const FrozenGraph>& base() const { return base_; }
  /// The epoch the base was frozen at; bumped by the owner on re-freeze.
  uint64_t epoch() const { return epoch_; }
  /// Side-index weight: total elements (edges, neighbor ids and attribute
  /// tuples) held outside the base, including copy-on-write copies of base
  /// ranges. This is the memory- and scan-overhead measure the re-freeze
  /// cutoff bounds; 0 iff no mutation was applied since construction.
  size_t DeltaWeight() const { return side_entries_; }
  /// Nodes added on top of the base.
  size_t NumNewNodes() const { return new_labels_.size(); }

  // ----- mutation (mirrors Graph) --------------------------------------

  /// Adds a node with the given label; returns its id (== old NumNodes()).
  NodeId AddNode(Label label);
  /// Adds edge (src, label, dst); duplicates are ignored (E is a set).
  /// Returns true if the edge was new.
  bool AddEdge(NodeId src, Label label, NodeId dst);
  /// Sets attribute `attr` of `v` to `value` (overwrites). Returns true iff
  /// the stored value changed.
  bool SetAttr(NodeId v, AttrId attr, Value value);

  // ----- inspection (GraphView) ----------------------------------------

  size_t NumNodes() const { return num_base_nodes_ + new_labels_.size(); }
  size_t NumEdges() const { return num_edges_; }
  size_t Size() const { return NumNodes() + NumEdges(); }

  Label label(NodeId v) const {
    return v < num_base_nodes_ ? base_->label(v)
                               : new_labels_[v - num_base_nodes_];
  }

  /// Out-/in-edges of v: one contiguous span sorted by (label, other) —
  /// either the base CSR range (untouched nodes) or the side copy.
  std::span<const Edge> out(NodeId v) const {
    const OverlayNode* n = Side(v);
    return (n != nullptr && n->out_set) ? std::span<const Edge>(n->out)
                                        : base_->out(v);
  }
  std::span<const Edge> in(NodeId v) const {
    const OverlayNode* n = Side(v);
    return (n != nullptr && n->in_set) ? std::span<const Edge>(n->in)
                                       : base_->in(v);
  }
  size_t OutDegree(NodeId v) const { return out(v).size(); }
  size_t InDegree(NodeId v) const { return in(v).size(); }

  // ----- label ranges (GraphView) ----------------------------------------

  std::span<const Edge> OutEdgesLabeled(NodeId v, Label label) const {
    return label == kWildcard ? out(v) : LabelRange(out(v), label);
  }
  std::span<const Edge> InEdgesLabeled(NodeId v, Label label) const {
    return label == kWildcard ? in(v) : LabelRange(in(v), label);
  }
  bool HasOutLabel(NodeId v, Label label) const {
    return label == kWildcard ? OutDegree(v) != 0
                              : !LabelRange(out(v), label).empty();
  }
  bool HasInLabel(NodeId v, Label label) const {
    return label == kWildcard ? InDegree(v) != 0
                              : !LabelRange(in(v), label).empty();
  }

  // ----- neighbor spans (GraphView) --------------------------------------

  /// Columnar neighbor ids of the labeled sub-range (see FrozenGraph).
  /// Sorted and duplicate-free for a concrete label — leapfrog input shape.
  std::span<const NodeId> OutNeighborsLabeled(NodeId v, Label label) const {
    const OverlayNode* n = Side(v);
    return (n != nullptr && n->out_set)
               ? SideNeighborColumn(n->out, n->out_nbrs, label)
               : base_->OutNeighborsLabeled(v, label);
  }
  std::span<const NodeId> InNeighborsLabeled(NodeId v, Label label) const {
    const OverlayNode* n = Side(v);
    return (n != nullptr && n->in_set)
               ? SideNeighborColumn(n->in, n->in_nbrs, label)
               : base_->InNeighborsLabeled(v, label);
  }

  /// True iff edge (src, label, dst) exists; binary search in src's sorted
  /// out range (base or side). `label` may be kWildcard.
  bool HasEdge(NodeId src, Label label, NodeId dst) const;

  /// All nodes labeled exactly `label`, in increasing id order. A span into
  /// the base label index for labels no mutation touched, else into the
  /// copy-on-write side list.
  std::span<const NodeId> NodesWithLabel(Label label) const;
  size_t CandidateCount(Label label) const {
    return label == kWildcard ? NumNodes() : NodesWithLabel(label).size();
  }

  /// Value of v.A if present.
  std::optional<Value> attr(NodeId v, AttrId a) const;
  /// The same lookup, borrowed (null if absent): a pointer into the side
  /// copy or the base, valid until the next mutation of this overlay.
  const Value* FindAttr(NodeId v, AttrId a) const;
  bool HasAttr(NodeId v, AttrId a) const { return FindAttr(v, a) != nullptr; }
  /// The columnar attribute tuple of v: parallel spans of sorted attribute
  /// ids and their values (base range or side copy).
  std::span<const AttrId> AttrNames(NodeId v) const {
    const OverlayNode* n = Side(v);
    return (n != nullptr && n->attrs_set)
               ? std::span<const AttrId>(n->attr_keys)
               : base_->AttrNames(v);
  }
  std::span<const Value> AttrValues(NodeId v) const {
    const OverlayNode* n = Side(v);
    return (n != nullptr && n->attrs_set)
               ? std::span<const Value>(n->attr_values)
               : base_->AttrValues(v);
  }

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  // One node's materialized state. A direction (or the attribute tuple) is
  // copied from the base on first write; the *_set flags record which parts
  // override the base. Nodes added on top of the base materialize all three
  // parts immediately (their base ranges are empty).
  struct OverlayNode {
    std::vector<Edge> out;        // sorted by (label, other)
    std::vector<Edge> in;         // sorted by (label, other)
    std::vector<NodeId> out_nbrs; // columnar twin: out_nbrs[i]==out[i].other
    std::vector<NodeId> in_nbrs;  // columnar twin: in_nbrs[i]==in[i].other
    std::vector<AttrId> attr_keys;    // sorted
    std::vector<Value> attr_values;   // parallel to attr_keys
    bool out_set = false;
    bool in_set = false;
    bool attrs_set = false;
  };

  // The side node of v, or nullptr if v is untouched.
  const OverlayNode* Side(NodeId v) const {
    uint32_t s = slot_[v];
    return s == kNoSlot ? nullptr : &side_nodes_[s];
  }
  // The side node of v, creating an empty one on first touch.
  OverlayNode& TouchSide(NodeId v);
  // Ensure the given part of v's side node holds a copy of the base range.
  OverlayNode& MaterializeOut(NodeId v);
  OverlayNode& MaterializeIn(NodeId v);
  OverlayNode& MaterializeAttrs(NodeId v);
  // The copy-on-write side list for `label`, seeded from the base index.
  std::vector<NodeId>& TouchLabelList(Label label);

  // The (label, other) sub-range of a sorted adjacency span (twin of the
  // private FrozenGraph helper; both backends keep the same sort order).
  static std::span<const Edge> LabelRange(std::span<const Edge> edges,
                                          Label label);
  static std::span<const NodeId> SideNeighborColumn(
      const std::vector<Edge>& edges, const std::vector<NodeId>& nbrs,
      Label label) {
    std::span<const Edge> range =
        label == kWildcard ? std::span<const Edge>(edges)
                           : LabelRange(edges, label);
    return {nbrs.data() + (range.data() - edges.data()), range.size()};
  }

  std::shared_ptr<const FrozenGraph> base_;
  uint64_t epoch_ = 0;

  // Side index: slot_[v] == kNoSlot for untouched nodes, else the index of
  // v's OverlayNode. A dense array (not a hash map) keeps the untouched-node
  // dispatch on the match hot path to one predictable load.
  std::vector<uint32_t> slot_;
  std::vector<OverlayNode> side_nodes_;

  // Labels of nodes added on top of the base (ids num_base_nodes_ + k).
  std::vector<Label> new_labels_;
  size_t num_base_nodes_ = 0;

  // Copy-on-write label lists: seeded from base_->NodesWithLabel on first
  // touch, then appended in increasing id order (AddNode only ever appends
  // fresh maximal ids, so the lists stay sorted).
  std::unordered_map<Label, std::vector<NodeId>> label_lists_;

  size_t num_edges_ = 0;
  size_t side_entries_ = 0;
};

}  // namespace ged

#endif  // GEDLIB_GRAPH_OVERLAY_H_
