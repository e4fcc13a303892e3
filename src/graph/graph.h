// Property graphs G = (V, E, L, F_A) of the paper (§2).
//
//  * V      — finite set of nodes, dense ids [0, NumNodes())
//  * E ⊆ V × Γ × V — finite *set* of labeled directed edges (no duplicate
//                    (src, label, dst) triples)
//  * L      — node labels from Γ (interned Symbols)
//  * F_A    — per-node attribute tuples A_i = a_i with values from U;
//             every node additionally has its immutable id (the node id).
//
// Graphs are schemaless: an attribute may exist on some nodes and not on
// others. Graph is the build structure — ingest, GraphDelta, IO and the
// test oracles write and read it. Every engine read (matching, validation,
// the chase) runs on a FrozenGraph snapshot of it (graph/frozen.h) or on an
// OverlayView (graph/overlay.h).

#ifndef GEDLIB_GRAPH_GRAPH_H_
#define GEDLIB_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "common/value.h"

namespace ged {

/// Dense node identifier (the paper's special attribute `id`).
using NodeId = uint32_t;
/// Interned attribute name from Υ.
using AttrId = Symbol;
/// Interned label from Γ (kWildcard = '_' only appears in patterns and in
/// canonical graphs of patterns).
using Label = Symbol;

/// Returns true iff label ι matches ι' under the paper's ≼ relation:
/// ι ≼ ι' iff ι = ι' (both in Γ), or ι is the wildcard '_'.
/// Note ≼ is asymmetric: a concrete label does NOT match '_'.
inline bool LabelMatches(Label iota, Label iota_prime) {
  return iota == kWildcard || iota == iota_prime;
}

/// A directed labeled edge endpoint stored in adjacency lists.
struct Edge {
  Label label;
  NodeId other;  ///< dst for out-edges, src for in-edges.
  bool operator==(const Edge&) const = default;
};

/// A full (src, label, dst) edge triple, as reported by deltas and used to
/// seed incremental re-enumeration.
struct EdgeTriple {
  NodeId src;
  Label label;
  NodeId dst;
  bool operator==(const EdgeTriple&) const = default;
};

/// A mutable property graph with per-node adjacency lists.
class Graph {
 public:
  Graph() = default;
  Graph(const Graph& other) = default;
  Graph& operator=(const Graph& other) = default;
  // A moved-from graph is empty (edge count included).
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  // ----- construction -------------------------------------------------

  /// Pre-allocates storage for the given totals (existing + expected). Use
  /// before streaming deltas into a freshly copied graph: copies have
  /// capacity == size, so the first growth wave would otherwise reallocate
  /// every container at once.
  void Reserve(size_t num_nodes, size_t num_edges);

  /// Adds a node with the given label; returns its id.
  NodeId AddNode(Label label);
  /// Adds a node with the given label name (interned on the fly).
  NodeId AddNode(std::string_view label) { return AddNode(Sym(label)); }

  /// Sets attribute `attr` of `v` to `value` (overwrites).
  /// Returns true iff the stored value changed (new attribute or different
  /// value); a no-op rewrite returns false.
  bool SetAttr(NodeId v, AttrId attr, Value value);
  /// Sets attribute by name.
  bool SetAttr(NodeId v, std::string_view attr, Value value) {
    return SetAttr(v, Sym(attr), std::move(value));
  }

  /// Adds edge (src, label, dst); duplicates are ignored (E is a set).
  /// Returns true if the edge was new.
  bool AddEdge(NodeId src, Label label, NodeId dst);
  /// Adds edge with a label name.
  bool AddEdge(NodeId src, std::string_view label, NodeId dst) {
    return AddEdge(src, Sym(label), dst);
  }

  // ----- inspection ----------------------------------------------------

  /// Number of nodes |V|.
  size_t NumNodes() const { return labels_.size(); }
  /// Number of edges |E|.
  size_t NumEdges() const { return num_edges_; }
  /// |V| + |E|, the size measure used by the chase bounds.
  size_t Size() const { return NumNodes() + NumEdges(); }

  /// Label of node v.
  Label label(NodeId v) const { return labels_[v]; }
  /// Attribute tuple of node v (sorted by AttrId).
  const std::vector<std::pair<AttrId, Value>>& attrs(NodeId v) const {
    return attrs_[v];
  }
  /// Value of v.A if present.
  std::optional<Value> attr(NodeId v, AttrId a) const;
  /// True iff v has attribute a.
  bool HasAttr(NodeId v, AttrId a) const { return attr(v, a).has_value(); }

  /// Out-edges of v.
  const std::vector<Edge>& out(NodeId v) const { return out_[v]; }
  /// In-edges of v.
  const std::vector<Edge>& in(NodeId v) const { return in_[v]; }
  /// True iff edge (src, label, dst) exists. `label` may be kWildcard to
  /// test for any label.
  bool HasEdge(NodeId src, Label label, NodeId dst) const;

  /// Out-degree / in-degree of v.
  size_t OutDegree(NodeId v) const { return out_[v].size(); }
  size_t InDegree(NodeId v) const { return in_[v].size(); }

  // ----- whole-graph operations ----------------------------------------

  /// Appends a disjoint copy of `other`; returns the node-id offset that
  /// maps `other`'s node v to `offset + v` in this graph.
  NodeId DisjointUnion(const Graph& other);

  /// Structural equality (same ids, labels, attrs, edges).
  bool operator==(const Graph& other) const;

  /// Multi-line human-readable dump (matches the io.h text format).
  std::string ToString() const;

 private:
  std::vector<Label> labels_;
  std::vector<std::vector<std::pair<AttrId, Value>>> attrs_;
  std::vector<std::vector<Edge>> out_;
  std::vector<std::vector<Edge>> in_;
  struct EdgeKey {
    NodeId src;
    Label label;
    NodeId dst;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& e) const {
      uint64_t h = uint64_t{e.src} * 0x9e3779b97f4a7c15ULL;
      h ^= uint64_t{e.label} + 0x9e3779b9ULL + (h << 6) + (h >> 2);
      h ^= uint64_t{e.dst} + 0x85ebca6bULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  // Dedup set for edges (E is a set of triples).
  std::unordered_set<EdgeKey, EdgeKeyHash> edge_set_;
  size_t num_edges_ = 0;
};

}  // namespace ged

#endif  // GEDLIB_GRAPH_GRAPH_H_
