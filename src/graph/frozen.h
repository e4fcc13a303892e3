// FrozenGraph: an immutable, read-optimized snapshot of a Graph.
//
// The mutable Graph (graph/graph.h) stores per-node heap-allocated
// adjacency vectors and a global hash set for edge dedup — the right shape
// for ingest, but hostile to the cache-bound scans that dominate
// homomorphism matching. Freezing compiles the graph into
// compressed-sparse-row (CSR) form:
//
//   * out/in adjacency      — one offset array + one contiguous Edge array
//                             per direction; each node's range is sorted by
//                             (label, neighbor), so labels are contiguous
//                             (OutEdgesLabeled returns the sub-range by
//                             binary search) and HasEdge is a binary search
//                             in the source node's range;
//   * label index           — all node ids grouped by label in one dense
//                             array with per-label ranges (NodesWithLabel
//                             returns a span, no hashing);
//   * attributes            — columnar: per-node ranges into one sorted
//                             AttrId key array and one parallel Value array
//                             (attr() is a binary search over contiguous
//                             keys).
//
// Node ids, labels, edge set and attribute tuples are preserved exactly, so
// a snapshot is the same graph as its source (tests/frozen_equivalence_test
// checks reports on it against the reference validator, which reads the
// source Graph). Every engine read — matching, validation, the chase —
// runs on a FrozenGraph or on an OverlayView over one; Validate(Graph)
// freezes once per call. A FrozenGraph is deeply immutable and therefore
// safe to share across threads without synchronization — it is the unit of
// parallel fan-out in reason/validation.cc and the intended unit of
// sharding, caching and concurrent serving.
//
// FreezeQuotient builds the snapshot of a quotient of a Graph — the chase's
// coercion G_Eq (chase/chase.h) — through the same CSR construction, with no
// intermediate mutable quotient.

#ifndef GEDLIB_GRAPH_FROZEN_H_
#define GEDLIB_GRAPH_FROZEN_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "obs/obs.h"

namespace ged {

class OverlayView;

/// An immutable CSR snapshot of a Graph. Cheap to move, expensive to copy;
/// build once with Freeze (O(|V| + |E| log d + |A|)) and share by reference.
class FrozenGraph {
 public:
  FrozenGraph() = default;

  /// Compiles a snapshot of `g`. The source graph is only read; later
  /// mutations of `g` do not affect the snapshot.
  static FrozenGraph Freeze(const Graph& g);

  /// Freeze with observability: wraps the compilation in a "Freeze" trace
  /// span (with per-phase child spans), feeds the freeze.* metrics and the
  /// profiler's freeze wall time. Identical snapshot; `obs` disabled makes
  /// this exactly Freeze(g).
  static FrozenGraph Freeze(const Graph& g, const ObsOptions& obs);

  /// Node attributes in the columnar layout a snapshot stores: node v's
  /// tuple is keys/values [offsets[v], offsets[v + 1]), keys ascending
  /// within a node. Empty offsets = no node has attributes.
  struct ColumnarAttrs {
    std::vector<uint64_t> offsets;
    std::vector<AttrId> keys;
    std::vector<Value> values;
  };

  /// Compiles the quotient of `g` under `node_map` straight into CSR form:
  /// node v of `g` becomes node node_map[v] (< labels.size()), labelled
  /// labels[node_map[v]]; edges of `g` that collapse onto one
  /// (src, label, dst) triple are kept once. `attrs` holds the quotient
  /// nodes' attribute tuples. Shares the CSR construction of Freeze(g).
  static FrozenGraph FreezeQuotient(const Graph& g,
                                    std::span<const NodeId> node_map,
                                    std::vector<Label> labels,
                                    ColumnarAttrs attrs = {});

  /// Compacts an overlay (graph/overlay.h) into a fresh standalone CSR
  /// snapshot — the re-freeze step of the incremental serving loop. O(|V| +
  /// |E| + |A|) with no sort phase: overlay adjacency and attribute spans
  /// are already in CSR order. Defined in graph/overlay.cc.
  static FrozenGraph Freeze(const OverlayView& o, const ObsOptions& obs = {});

  // ----- inspection (the GraphView read surface, graph/view.h) -----------

  size_t NumNodes() const { return labels_.size(); }
  size_t NumEdges() const { return out_edges_.size(); }
  size_t Size() const { return NumNodes() + NumEdges(); }

  Label label(NodeId v) const { return labels_[v]; }

  /// Out-/in-edges of v: a contiguous span sorted by (label, other).
  std::span<const Edge> out(NodeId v) const {
    return {out_edges_.data() + out_offsets_[v],
            out_edges_.data() + out_offsets_[v + 1]};
  }
  std::span<const Edge> in(NodeId v) const {
    return {in_edges_.data() + in_offsets_[v],
            in_edges_.data() + in_offsets_[v + 1]};
  }
  size_t OutDegree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t InDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// The sub-range of out(v) / in(v) with label exactly `label`, by binary
  /// search; neighbor ids within it are sorted and duplicate-free. For
  /// kWildcard, the full adjacency range (every label matches).
  std::span<const Edge> OutEdgesLabeled(NodeId v, Label label) const {
    return label == kWildcard ? out(v) : LabelRange(out(v), label);
  }
  std::span<const Edge> InEdgesLabeled(NodeId v, Label label) const {
    return label == kWildcard ? in(v) : LabelRange(in(v), label);
  }

  /// Columnar twin of OutEdgesLabeled / InEdgesLabeled: the same sub-range
  /// as a contiguous span of bare neighbor ids (out_nbrs_ / in_nbrs_ store
  /// the `.other` column of the Edge arrays, element-parallel). For a
  /// concrete label the span is sorted and duplicate-free — the input shape
  /// the k-way leapfrog intersection kernel of match/leapfrog.h strides
  /// over without the 8-byte Edge stride or a per-element field load. For
  /// kWildcard, the full neighbor column (sorted by (label, other), so NOT
  /// id-sorted across labels).
  std::span<const NodeId> OutNeighborsLabeled(NodeId v, Label label) const {
    return NeighborColumn(out(v), out_edges_, out_nbrs_, label);
  }
  std::span<const NodeId> InNeighborsLabeled(NodeId v, Label label) const {
    return NeighborColumn(in(v), in_edges_, in_nbrs_, label);
  }
  /// Label-incidence tests (degree filtering): a single binary search, not
  /// the two a full range extraction needs. A kWildcard query asks for any
  /// edge at all.
  bool HasOutLabel(NodeId v, Label label) const {
    return label == kWildcard ? OutDegree(v) != 0 : HasLabel(out(v), label);
  }
  bool HasInLabel(NodeId v, Label label) const {
    return label == kWildcard ? InDegree(v) != 0 : HasLabel(in(v), label);
  }

  /// True iff edge (src, label, dst) exists; binary search in src's out
  /// range. `label` may be kWildcard to test for any label.
  bool HasEdge(NodeId src, Label label, NodeId dst) const;

  /// All nodes labeled exactly `label`, in increasing id order, as a span
  /// into the dense per-label grouping (empty span for an absent label).
  std::span<const NodeId> NodesWithLabel(Label label) const;
  /// Label-index selectivity statistic (see Graph::CandidateCount).
  size_t CandidateCount(Label label) const {
    return label == kWildcard ? NumNodes() : NodesWithLabel(label).size();
  }

  /// Value of v.A if present: binary search in v's columnar key range.
  std::optional<Value> attr(NodeId v, AttrId a) const;
  /// The same lookup, borrowed: a pointer into the snapshot's value column
  /// (null if absent), valid as long as the snapshot.
  const Value* FindAttr(NodeId v, AttrId a) const;
  bool HasAttr(NodeId v, AttrId a) const;
  /// The columnar attribute tuple of v: parallel spans of sorted attribute
  /// ids and their values.
  std::span<const AttrId> AttrNames(NodeId v) const {
    return {attr_keys_.data() + attr_offsets_[v],
            attr_keys_.data() + attr_offsets_[v + 1]};
  }
  std::span<const Value> AttrValues(NodeId v) const {
    return {attr_values_.data() + attr_offsets_[v],
            attr_values_.data() + attr_offsets_[v + 1]};
  }

 private:
  // Fills the dense label index from labels_ (every construction path).
  void BuildLabelIndex();

  // The (label, other) sub-range of a sorted adjacency span.
  static std::span<const Edge> LabelRange(std::span<const Edge> edges,
                                          Label label);
  // Any edge with this concrete label in a sorted adjacency span?
  static bool HasLabel(std::span<const Edge> edges, Label label);

  // Maps a labeled Edge sub-range to the element-parallel slice of the
  // neighbor-id column (same offsets, nbrs[i] == edges[i].other).
  static std::span<const NodeId> NeighborColumn(std::span<const Edge> range,
                                                const std::vector<Edge>& edges,
                                                const std::vector<NodeId>& nbrs,
                                                Label label) {
    if (label != kWildcard) range = LabelRange(range, label);
    size_t begin = range.data() - edges.data();
    return {nbrs.data() + begin, range.size()};
  }

  std::vector<Label> labels_;

  // CSR adjacency. Offsets have NumNodes()+1 entries (empty graph: the lone
  // sentinel 0); each node's edge range is sorted by (label, other).
  std::vector<uint64_t> out_offsets_;
  std::vector<uint64_t> in_offsets_;
  std::vector<Edge> out_edges_;
  std::vector<Edge> in_edges_;
  // Columnar neighbor ids, element-parallel to out_edges_ / in_edges_:
  // out_nbrs_[i] == out_edges_[i].other. The intersection kernel reads these
  // so its gallops touch a dense NodeId sequence instead of striding over
  // Edge pairs.
  std::vector<NodeId> out_nbrs_;
  std::vector<NodeId> in_nbrs_;

  // Dense label index: node ids grouped by label. label_keys_ is sorted for
  // binary search; label_offsets_ has label_keys_.size()+1 entries.
  std::vector<Label> label_keys_;
  std::vector<uint64_t> label_offsets_;
  std::vector<NodeId> label_nodes_;

  // Columnar attributes: per-node ranges of sorted keys + parallel values.
  std::vector<uint64_t> attr_offsets_;
  std::vector<AttrId> attr_keys_;
  std::vector<Value> attr_values_;
};

}  // namespace ged

#endif  // GEDLIB_GRAPH_FROZEN_H_
