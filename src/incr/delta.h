// Batched graph deltas with commit semantics.
//
// A GraphDelta records an append-only batch of mutations — AddNode, AddEdge,
// SetAttr — against a base graph snapshot identified by its node count. The
// batch is validated as a whole before any mutation lands (Check), so a
// commit either applies every operation or none: the all-or-nothing
// discipline incremental validation needs to stay exact. Applying reports
// the *touched* node set (new nodes, endpoints of genuinely new edges, nodes
// whose attribute values actually changed), which is precisely the seed set
// the incremental validator re-enumerates around.
//
// Deltas are append-only by design: the paper's workloads (and the GED
// semantics of matches as homomorphisms into a growing graph) make deletion
// a separate, much harder maintenance problem — under append-only deltas no
// match ever dies, which is what keeps violation maintenance exact and
// cheap (see reason/validation.h).

#ifndef GEDLIB_INCR_DELTA_H_
#define GEDLIB_INCR_DELTA_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace ged {

class OverlayView;

/// A batch of append-only graph mutations with all-or-nothing application.
///
/// New nodes receive provisional ids `base_num_nodes + k` (k-th AddNode in
/// the batch); these ids may be used by subsequent AddEdge/SetAttr ops in
/// the same batch and become real once the delta is applied.
class GraphDelta {
 public:
  /// A delta against a base graph that currently has `base_num_nodes` nodes.
  explicit GraphDelta(size_t base_num_nodes)
      : base_num_nodes_(base_num_nodes) {}
  /// Convenience: snapshot the base size from the graph itself.
  explicit GraphDelta(const Graph& base) : GraphDelta(base.NumNodes()) {}

  // ----- recording ------------------------------------------------------

  /// Records a node addition; returns its provisional id.
  NodeId AddNode(Label label);
  NodeId AddNode(std::string_view label) { return AddNode(Sym(label)); }

  /// Records edge (src, label, dst); duplicates *within the batch* are
  /// dropped (E is a set). Returns true iff recorded. Endpoints may be base
  /// or provisional ids; range errors surface at Check/Apply time.
  bool AddEdge(NodeId src, Label label, NodeId dst);
  bool AddEdge(NodeId src, std::string_view label, NodeId dst) {
    return AddEdge(src, Sym(label), dst);
  }

  /// Records setting attribute `attr` of `v` to `value` (last write in the
  /// batch wins, matching Graph::SetAttr overwrite semantics).
  void SetAttr(NodeId v, AttrId attr, Value value);
  void SetAttr(NodeId v, std::string_view attr, Value value) {
    SetAttr(v, Sym(attr), std::move(value));
  }

  // ----- commit-epoch binding -------------------------------------------

  /// Stamps the delta with the commit epoch it was recorded against.
  /// IncrementalValidator::NewDelta() binds every delta it hands out and
  /// Commit rejects a mismatched stamp — the node-count check alone cannot
  /// see an intervening edge-only or attr-only commit (same NumNodes,
  /// different graph). Unstamped deltas (standalone GraphDelta usage) keep
  /// the legacy node-count-only precondition.
  void BindEpoch(uint64_t epoch) { epoch_ = epoch; }
  /// The bound commit epoch, if any.
  std::optional<uint64_t> bound_epoch() const { return epoch_; }

  // ----- inspection -----------------------------------------------------

  /// One recorded AddEdge (endpoints may be provisional ids).
  struct EdgeOp {
    NodeId src;
    Label label;
    NodeId dst;
    bool operator==(const EdgeOp&) const = default;
  };
  /// One recorded SetAttr.
  struct AttrOp {
    NodeId v;
    AttrId attr;
    Value value;
  };

  size_t base_num_nodes() const { return base_num_nodes_; }
  size_t NumNewNodes() const { return new_nodes_.size(); }
  size_t NumNewEdges() const { return new_edges_.size(); }
  size_t NumAttrOps() const { return attr_ops_.size(); }
  bool Empty() const {
    return new_nodes_.empty() && new_edges_.empty() && attr_ops_.empty();
  }

  /// The recorded operations, in recording order — the WAL codec
  /// (incr/wal.h) serializes exactly these, and replaying them through the
  /// recording API reproduces an equivalent delta (labels and attribute
  /// names travel as strings on disk because Symbols are process-local).
  const std::vector<Label>& new_node_labels() const { return new_nodes_; }
  const std::vector<EdgeOp>& edge_ops() const { return new_edges_; }
  const std::vector<AttrOp>& attr_ops() const { return attr_ops_; }

  // ----- commit ---------------------------------------------------------

  /// Summary of an applied delta, split into the three disjoint change
  /// classes incremental validation treats differently (incr/incremental.h):
  /// attribute flips can alter existing matches' X→Y status, new nodes host
  /// brand-new matches, and new edges between pre-existing nodes seed
  /// edge-pinned re-enumeration.
  struct Applied {
    /// Union view: new nodes, endpoints of genuinely new edges, nodes whose
    /// attribute value actually changed. Sorted, duplicate-free.
    std::vector<NodeId> touched;
    /// Nodes added by this delta. Sorted.
    std::vector<NodeId> new_nodes;
    /// Pre-existing nodes whose attribute value actually changed (excludes
    /// new nodes — those are covered by new_nodes). Sorted, duplicate-free.
    std::vector<NodeId> changed_nodes;
    /// Genuinely new edges whose endpoints both pre-existed; new edges with
    /// a new endpoint are already covered by new_nodes.
    std::vector<EdgeTriple> cross_edges;
    size_t nodes_added = 0;
    size_t edges_added = 0;    ///< excludes edges already present in g
    size_t attrs_changed = 0;  ///< excludes no-op rewrites of equal values
  };

  /// Commit precondition: `g` has exactly base_num_nodes() nodes and every
  /// referenced id is a base or provisional id. Does not mutate `g`. Note
  /// this check alone cannot reject a delta recorded before an edge-only or
  /// attr-only commit — see BindEpoch for the epoch discipline that can.
  Status Check(const Graph& g) const;
  Status Check(const OverlayView& g) const;

  /// Atomically applies the batch: runs Check, then performs every
  /// operation through the graph's public API. On error the graph is
  /// untouched. The OverlayView overload is
  /// the mirror path of IncrementalValidator: the same batch lands in the
  /// delta overlay with identical ids and the same Applied summary.
  Result<Applied> Apply(Graph* g) const;
  Result<Applied> Apply(OverlayView* g) const;

 private:
  template <typename GBackend>
  Status CheckT(const GBackend& g) const;
  template <typename GBackend>
  Result<Applied> ApplyT(GBackend* g) const;

  struct EdgeOpHash {
    size_t operator()(const EdgeOp& e) const {
      uint64_t h = uint64_t{e.src} * 0x9e3779b97f4a7c15ULL;
      h ^= uint64_t{e.label} + 0x9e3779b9ULL + (h << 6) + (h >> 2);
      h ^= uint64_t{e.dst} + 0x85ebca6bULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  size_t base_num_nodes_;
  std::optional<uint64_t> epoch_;
  std::vector<Label> new_nodes_;
  std::vector<EdgeOp> new_edges_;                       // in insertion order
  std::unordered_set<EdgeOp, EdgeOpHash> edge_dedup_;   // batch-local dedup
  std::vector<AttrOp> attr_ops_;
};

}  // namespace ged

#endif  // GEDLIB_INCR_DELTA_H_
