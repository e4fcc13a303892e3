// The GraphView read interface.
//
// Every reasoning task of the paper — validation G ⊨ Σ, satisfiability,
// implication, the chase — bottoms out in homomorphism enumeration over a
// graph, and that enumeration only ever *reads*. GraphView names exactly the
// read surface the matcher (match/), the shared-plan executor (plan/) and
// validation (reason/) consume, so the same search code runs against both
// read backends:
//
//   * FrozenGraph  — an immutable CSR snapshot (graph/frozen.h) with
//                    label-contiguous sorted adjacency and columnar
//                    attributes;
//   * OverlayView  — a frozen CSR base plus a copy-on-write delta index
//                    (graph/overlay.h), the incremental serving backend.
//
// The mutable Graph (graph/graph.h) is the build structure: ingest,
// GraphDelta, IO and the test oracles write and read it, and every engine
// read runs on a snapshot of it (Validate(Graph) freezes once).
//
// The interface is a C++20 concept rather than a virtual base: the matcher
// touches edges in its innermost loops, and per-edge virtual dispatch would
// forfeit the cache-locality gains freezing exists to provide.

#ifndef GEDLIB_GRAPH_VIEW_H_
#define GEDLIB_GRAPH_VIEW_H_

#include <concepts>
#include <optional>
#include <ranges>
#include <span>

#include "graph/graph.h"

namespace ged {

/// The read surface of FrozenGraph and OverlayView:
///   * `NodesWithLabel(l)` is a range of NodeId;
///   * OutEdgesLabeled(v, l) / InEdgesLabeled(v, l) return the sub-range of
///     v's out- / in-edges whose label is exactly l (l = kWildcard → all of
///     them), sorted by neighbor id and duplicate-free for concrete l;
///     HasOutLabel / HasInLabel test label incidence without scanning;
///   * OutNeighborsLabeled(v, l) / InNeighborsLabeled(v, l) return the
///     `.other` column of the corresponding labeled sub-range as one
///     contiguous NodeId span — the input shape of the matcher's k-way
///     leapfrog intersection (match/leapfrog.h), which gallops over several
///     of these spans at once.
template <typename G>
concept GraphView = requires(const G& g, NodeId v, Label l, AttrId a) {
  { g.NumNodes() } -> std::convertible_to<size_t>;
  { g.NumEdges() } -> std::convertible_to<size_t>;
  { g.label(v) } -> std::convertible_to<Label>;
  { g.HasEdge(v, l, v) } -> std::convertible_to<bool>;
  { g.OutDegree(v) } -> std::convertible_to<size_t>;
  { g.InDegree(v) } -> std::convertible_to<size_t>;
  { g.CandidateCount(l) } -> std::convertible_to<size_t>;
  { g.attr(v, a) } -> std::convertible_to<std::optional<Value>>;
  { g.FindAttr(v, a) } -> std::convertible_to<const Value*>;
  { *std::ranges::begin(g.NodesWithLabel(l)) } -> std::convertible_to<NodeId>;
  { std::ranges::size(g.NodesWithLabel(l)) } -> std::convertible_to<size_t>;
  { *std::ranges::begin(g.OutEdgesLabeled(v, l)) }
      -> std::convertible_to<Edge>;
  { *std::ranges::begin(g.InEdgesLabeled(v, l)) }
      -> std::convertible_to<Edge>;
  { g.HasOutLabel(v, l) } -> std::convertible_to<bool>;
  { g.HasInLabel(v, l) } -> std::convertible_to<bool>;
  { g.OutNeighborsLabeled(v, l) }
      -> std::convertible_to<std::span<const NodeId>>;
  { g.InNeighborsLabeled(v, l) }
      -> std::convertible_to<std::span<const NodeId>>;
};

}  // namespace ged

#endif  // GEDLIB_GRAPH_VIEW_H_
