#include "graph/overlay.h"

#include <algorithm>

namespace ged {

namespace {

// Twin of the frozen.cc packing: both backends keep adjacency sorted by the
// packed (label << 32) | other key, so copies between them never re-sort.
static_assert(sizeof(Label) == 4 && sizeof(NodeId) == 4,
              "PackEdge packs (label, other) into one uint64");
inline uint64_t PackEdge(const Edge& e) {
  return (uint64_t{e.label} << 32) | e.other;
}
inline bool EdgeLess(const Edge& a, const Edge& b) {
  return PackEdge(a) < PackEdge(b);
}

}  // namespace

std::span<const Edge> OverlayView::LabelRange(std::span<const Edge> edges,
                                              Label label) {
  auto lo = std::lower_bound(
      edges.begin(), edges.end(), label,
      [](const Edge& e, Label l) { return e.label < l; });
  auto hi = std::upper_bound(
      lo, edges.end(), label,
      [](Label l, const Edge& e) { return l < e.label; });
  return {lo, hi};
}

OverlayView::OverlayNode& OverlayView::TouchSide(NodeId v) {
  uint32_t s = slot_[v];
  if (s == kNoSlot) {
    s = static_cast<uint32_t>(side_nodes_.size());
    slot_[v] = s;
    side_nodes_.emplace_back();
  }
  return side_nodes_[s];
}

OverlayView::OverlayNode& OverlayView::MaterializeOut(NodeId v) {
  OverlayNode& n = TouchSide(v);
  if (!n.out_set) {
    std::span<const Edge> b = base_->out(v);
    n.out.assign(b.begin(), b.end());
    std::span<const NodeId> bn = base_->OutNeighborsLabeled(v, kWildcard);
    n.out_nbrs.assign(bn.begin(), bn.end());
    n.out_set = true;
    side_entries_ += 2 * n.out.size();
  }
  return n;
}

OverlayView::OverlayNode& OverlayView::MaterializeIn(NodeId v) {
  OverlayNode& n = TouchSide(v);
  if (!n.in_set) {
    std::span<const Edge> b = base_->in(v);
    n.in.assign(b.begin(), b.end());
    std::span<const NodeId> bn = base_->InNeighborsLabeled(v, kWildcard);
    n.in_nbrs.assign(bn.begin(), bn.end());
    n.in_set = true;
    side_entries_ += 2 * n.in.size();
  }
  return n;
}

OverlayView::OverlayNode& OverlayView::MaterializeAttrs(NodeId v) {
  OverlayNode& n = TouchSide(v);
  if (!n.attrs_set) {
    std::span<const AttrId> keys = base_->AttrNames(v);
    std::span<const Value> values = base_->AttrValues(v);
    n.attr_keys.assign(keys.begin(), keys.end());
    n.attr_values.assign(values.begin(), values.end());
    n.attrs_set = true;
    side_entries_ += n.attr_keys.size();
  }
  return n;
}

std::vector<NodeId>& OverlayView::TouchLabelList(Label label) {
  auto [it, inserted] = label_lists_.try_emplace(label);
  if (inserted) {
    std::span<const NodeId> b = base_->NodesWithLabel(label);
    it->second.assign(b.begin(), b.end());
    side_entries_ += it->second.size();
  }
  return it->second;
}

NodeId OverlayView::AddNode(Label label) {
  NodeId id = static_cast<NodeId>(NumNodes());
  new_labels_.push_back(label);
  slot_.push_back(static_cast<uint32_t>(side_nodes_.size()));
  OverlayNode& n = side_nodes_.emplace_back();
  // A fresh node has empty base ranges in every direction: mark all parts
  // materialized so reads never index the base with an out-of-range id.
  n.out_set = n.in_set = n.attrs_set = true;
  // AddNode only ever appends the current maximal id, so the
  // copy-on-write label list stays sorted.
  TouchLabelList(label).push_back(id);
  ++side_entries_;
  return id;
}

bool OverlayView::AddEdge(NodeId src, Label label, NodeId dst) {
  if (HasEdge(src, label, dst)) return false;
  {
    OverlayNode& s = MaterializeOut(src);
    Edge e{label, dst};
    auto it = std::lower_bound(s.out.begin(), s.out.end(), e, EdgeLess);
    size_t pos = it - s.out.begin();
    s.out.insert(it, e);
    s.out_nbrs.insert(s.out_nbrs.begin() + pos, dst);
  }
  {
    OverlayNode& d = MaterializeIn(dst);
    Edge e{label, src};
    auto it = std::lower_bound(d.in.begin(), d.in.end(), e, EdgeLess);
    size_t pos = it - d.in.begin();
    d.in.insert(it, e);
    d.in_nbrs.insert(d.in_nbrs.begin() + pos, src);
  }
  ++num_edges_;
  side_entries_ += 4;  // one Edge + one neighbor id per direction
  return true;
}

bool OverlayView::SetAttr(NodeId v, AttrId attr, Value value) {
  OverlayNode& n = MaterializeAttrs(v);
  auto it = std::lower_bound(n.attr_keys.begin(), n.attr_keys.end(), attr);
  size_t pos = it - n.attr_keys.begin();
  if (it != n.attr_keys.end() && *it == attr) {
    if (n.attr_values[pos] == value) return false;
    n.attr_values[pos] = std::move(value);
    return true;
  }
  n.attr_keys.insert(it, attr);
  n.attr_values.insert(n.attr_values.begin() + pos, std::move(value));
  ++side_entries_;
  return true;
}

bool OverlayView::HasEdge(NodeId src, Label label, NodeId dst) const {
  std::span<const Edge> range = out(src);
  if (label != kWildcard) {
    return std::binary_search(range.begin(), range.end(), Edge{label, dst},
                              EdgeLess);
  }
  for (const Edge& e : range) {
    if (e.other == dst) return true;
  }
  return false;
}

std::span<const NodeId> OverlayView::NodesWithLabel(Label label) const {
  auto it = label_lists_.find(label);
  if (it != label_lists_.end()) return it->second;
  return base_->NodesWithLabel(label);
}

std::optional<Value> OverlayView::attr(NodeId v, AttrId a) const {
  const Value* value = FindAttr(v, a);
  if (value == nullptr) return std::nullopt;
  return *value;
}

const Value* OverlayView::FindAttr(NodeId v, AttrId a) const {
  const OverlayNode* n = Side(v);
  if (n == nullptr || !n->attrs_set) return base_->FindAttr(v, a);
  auto it = std::lower_bound(n->attr_keys.begin(), n->attr_keys.end(), a);
  if (it == n->attr_keys.end() || *it != a) return nullptr;
  return &n->attr_values[it - n->attr_keys.begin()];
}

// Defined here (not frozen.cc) so frozen.cc need not depend on the overlay;
// a static member has private FrozenGraph access from any translation unit.
FrozenGraph FrozenGraph::Freeze(const OverlayView& o, const ObsOptions& obs) {
  ScopedSpan span(obs.Trace(), "Freeze");
  ScopedLatency lat(obs.Metrics(), EngineMetric::kFreezeWallNs);
  ProfileCollector* profiler = obs.Profiler();
  int64_t start_ns = profiler == nullptr ? 0 : MonotonicNowNs();

  FrozenGraph f;
  const size_t n = o.NumNodes();
  f.labels_.reserve(n);
  for (NodeId v = 0; v < n; ++v) f.labels_.push_back(o.label(v));

  {
    // Overlay adjacency spans are already sorted by (label, other) — base
    // ranges by the CSR invariant, side copies by sorted insertion — so the
    // gather is a straight concatenation with no sort phase.
    ScopedSpan adj_span(obs.Trace(), "Freeze.Adjacency");
    f.out_offsets_.resize(n + 1);
    f.in_offsets_.resize(n + 1);
    f.out_offsets_[0] = 0;
    f.in_offsets_[0] = 0;
    for (NodeId v = 0; v < n; ++v) {
      f.out_offsets_[v + 1] = f.out_offsets_[v] + o.OutDegree(v);
      f.in_offsets_[v + 1] = f.in_offsets_[v] + o.InDegree(v);
    }
    f.out_edges_.reserve(f.out_offsets_[n]);
    f.out_nbrs_.reserve(f.out_offsets_[n]);
    f.in_edges_.reserve(f.in_offsets_[n]);
    f.in_nbrs_.reserve(f.in_offsets_[n]);
    for (NodeId v = 0; v < n; ++v) {
      for (const Edge& e : o.out(v)) {
        f.out_edges_.push_back(e);
        f.out_nbrs_.push_back(e.other);
      }
      for (const Edge& e : o.in(v)) {
        f.in_edges_.push_back(e);
        f.in_nbrs_.push_back(e.other);
      }
    }
  }

  ScopedSpan index_span(obs.Trace(), "Freeze.Indexes");
  f.BuildLabelIndex();

  // Columnar attributes: overlay tuples are sorted by AttrId (base ranges
  // by the freeze invariant, side copies by sorted insertion).
  f.attr_offsets_.resize(n + 1);
  f.attr_offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    f.attr_offsets_[v + 1] = f.attr_offsets_[v] + o.AttrNames(v).size();
  }
  f.attr_keys_.reserve(f.attr_offsets_[n]);
  f.attr_values_.reserve(f.attr_offsets_[n]);
  for (NodeId v = 0; v < n; ++v) {
    std::span<const AttrId> keys = o.AttrNames(v);
    std::span<const Value> values = o.AttrValues(v);
    f.attr_keys_.insert(f.attr_keys_.end(), keys.begin(), keys.end());
    f.attr_values_.insert(f.attr_values_.end(), values.begin(), values.end());
  }

  if (MetricsRegistry* metrics = obs.Metrics()) {
    metrics->Inc(EngineMetric::kFreezeRuns);
    metrics->Inc(EngineMetric::kFreezeNodes, f.NumNodes());
    metrics->Inc(EngineMetric::kFreezeEdges, f.NumEdges());
  }
  if (profiler != nullptr) profiler->AddFreezeNs(MonotonicNowNs() - start_ns);
  return f;
}

}  // namespace ged
