#include "graph/frozen.h"

#include <algorithm>

namespace ged {

namespace {

// The CSR sort order: labels contiguous within a node's range, neighbor ids
// sorted (and, E being a set of triples, duplicate-free) within a label.
// Edges are sorted as packed (label << 32) | other keys — one uint64
// comparison instead of a two-field compare. The packing is only correct
// while both halves are 32-bit.
static_assert(sizeof(Label) == 4 && sizeof(NodeId) == 4,
              "PackEdge packs (label, other) into one uint64");
inline uint64_t PackEdge(Label label, NodeId other) {
  return (uint64_t{label} << 32) | other;
}
inline uint64_t PackEdge(const Edge& e) { return PackEdge(e.label, e.other); }
inline Edge UnpackEdge(uint64_t key) {
  return Edge{static_cast<Label>(key >> 32), static_cast<NodeId>(key)};
}
inline bool EdgeLess(const Edge& a, const Edge& b) {
  return PackEdge(a) < PackEdge(b);
}

// Sorts each node's key range. Adjacency ranges are almost always tiny
// (average degree), where std::sort's dispatch overhead dominates — a
// branch-light insertion sort wins by ~3× on the freeze's hottest phase;
// genuinely large ranges (hubs) fall back to std::sort.
void SortRanges(std::vector<uint64_t>* keys,
                const std::vector<uint64_t>& offsets, size_t n) {
  constexpr size_t kInsertionCutoff = 32;
  for (size_t v = 0; v < n; ++v) {
    uint64_t* lo = keys->data() + offsets[v];
    uint64_t* hi = keys->data() + offsets[v + 1];
    if (static_cast<size_t>(hi - lo) <= kInsertionCutoff) {
      for (uint64_t* p = lo + (hi > lo ? 1 : 0); p < hi; ++p) {
        uint64_t k = *p;
        uint64_t* q = p;
        for (; q > lo && q[-1] > k; --q) *q = q[-1];
        *q = k;
      }
    } else {
      std::sort(lo, hi);
    }
  }
}

// The CSR construction core: builds one adjacency direction of n nodes.
// `count(v)` is the number of packed keys `gather(v, out)` writes for node
// v (returning the end of what it wrote). Each node's keys are sorted and
// duplicates dropped — a no-op for a Graph, whose E is a set, and what
// collapses parallel edges in a quotient. Also fills the columnar
// neighbor-id copy (nbrs[i] == edges[i].other) the intersection kernel
// strides over.
template <typename Count, typename Gather>
void BuildAdjacency(size_t n, const Count& count, const Gather& gather,
                    std::vector<uint64_t>* offsets, std::vector<Edge>* edges,
                    std::vector<NodeId>* nbrs) {
  offsets->resize(n + 1);
  (*offsets)[0] = 0;
  for (NodeId v = 0; v < n; ++v) (*offsets)[v + 1] = (*offsets)[v] + count(v);
  std::vector<uint64_t> keys((*offsets)[n]);
  uint64_t* kp = keys.data();
  for (NodeId v = 0; v < n; ++v) kp = gather(v, kp);
  SortRanges(&keys, *offsets, n);
  edges->resize(keys.size());
  nbrs->resize(keys.size());
  size_t write = 0;
  size_t read = 0;
  for (NodeId v = 0; v < n; ++v) {
    const size_t begin = read;
    const size_t end = (*offsets)[v + 1];
    (*offsets)[v] = write;
    for (; read < end; ++read) {
      const uint64_t k = keys[read];
      if (read > begin && keys[read - 1] == k) continue;
      (*edges)[write] = UnpackEdge(k);
      (*nbrs)[write] = static_cast<NodeId>(k);  // low half of the packed key
      ++write;
    }
  }
  (*offsets)[n] = write;
  edges->resize(write);
  nbrs->resize(write);
}

}  // namespace

void FrozenGraph::BuildLabelIndex() {
  // Grouped node lists in increasing label, then id, order. Labels are
  // dense interned symbols, so counting with a direct-indexed array beats
  // any associative container.
  const size_t n = labels_.size();
  Label max_label = 0;
  for (Label l : labels_) max_label = std::max(max_label, l);
  std::vector<uint64_t> counts(n == 0 ? 0 : size_t{max_label} + 1, 0);
  for (Label l : labels_) ++counts[l];
  std::vector<uint32_t> slot_of(counts.size());
  label_keys_.clear();
  label_offsets_.assign(1, 0);
  for (size_t l = 0; l < counts.size(); ++l) {
    if (counts[l] == 0) continue;
    slot_of[l] = static_cast<uint32_t>(label_keys_.size());
    label_keys_.push_back(static_cast<Label>(l));
    label_offsets_.push_back(label_offsets_.back() + counts[l]);
  }
  label_nodes_.resize(n);
  std::vector<uint64_t> cursor(label_offsets_.begin(),
                               label_offsets_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    label_nodes_[cursor[slot_of[labels_[v]]]++] = v;
  }
}

FrozenGraph FrozenGraph::Freeze(const Graph& g) {
  return Freeze(g, ObsOptions{});
}

FrozenGraph FrozenGraph::Freeze(const Graph& g, const ObsOptions& obs) {
  ScopedSpan span(obs.Trace(), "Freeze");
  ScopedLatency lat(obs.Metrics(), EngineMetric::kFreezeWallNs);
  ProfileCollector* profiler = obs.Profiler();
  int64_t start_ns = profiler == nullptr ? 0 : MonotonicNowNs();

  FrozenGraph f;
  const size_t n = g.NumNodes();
  f.labels_.reserve(n);
  for (NodeId v = 0; v < n; ++v) f.labels_.push_back(g.label(v));

  {
    ScopedSpan adj_span(obs.Trace(), "Freeze.Adjacency");
    auto gather = [](const std::vector<Edge>& edges, uint64_t* kp) {
      for (const Edge& e : edges) *kp++ = PackEdge(e);
      return kp;
    };
    BuildAdjacency(
        n, [&](NodeId v) { return g.OutDegree(v); },
        [&](NodeId v, uint64_t* kp) { return gather(g.out(v), kp); },
        &f.out_offsets_, &f.out_edges_, &f.out_nbrs_);
    BuildAdjacency(
        n, [&](NodeId v) { return g.InDegree(v); },
        [&](NodeId v, uint64_t* kp) { return gather(g.in(v), kp); },
        &f.in_offsets_, &f.in_edges_, &f.in_nbrs_);
  }

  ScopedSpan index_span(obs.Trace(), "Freeze.Indexes");
  f.BuildLabelIndex();

  // Columnar attributes: Graph stores each node's tuple sorted by AttrId
  // already, so the copy preserves the binary-search invariant.
  f.attr_offsets_.resize(n + 1);
  f.attr_offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    f.attr_offsets_[v + 1] = f.attr_offsets_[v] + g.attrs(v).size();
  }
  f.attr_keys_.reserve(f.attr_offsets_[n]);
  f.attr_values_.reserve(f.attr_offsets_[n]);
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& [a, val] : g.attrs(v)) {
      f.attr_keys_.push_back(a);
      f.attr_values_.push_back(val);
    }
  }

  if (MetricsRegistry* metrics = obs.Metrics()) {
    metrics->Inc(EngineMetric::kFreezeRuns);
    metrics->Inc(EngineMetric::kFreezeNodes, f.NumNodes());
    metrics->Inc(EngineMetric::kFreezeEdges, f.NumEdges());
  }
  if (profiler != nullptr) profiler->AddFreezeNs(MonotonicNowNs() - start_ns);
  return f;
}

FrozenGraph FrozenGraph::FreezeQuotient(const Graph& g,
                                        std::span<const NodeId> node_map,
                                        std::vector<Label> labels,
                                        ColumnarAttrs attrs) {
  FrozenGraph f;
  const size_t n = labels.size();
  f.labels_ = std::move(labels);
  // Members of each quotient node, grouped by a counting sort of node_map.
  std::vector<uint64_t> member_offsets(n + 1, 0);
  for (NodeId q : node_map) ++member_offsets[q + 1];
  for (size_t q = 0; q < n; ++q) member_offsets[q + 1] += member_offsets[q];
  std::vector<NodeId> members(node_map.size());
  {
    std::vector<uint64_t> cursor(member_offsets.begin(),
                                 member_offsets.end() - 1);
    for (NodeId v = 0; v < node_map.size(); ++v) {
      members[cursor[node_map[v]]++] = v;
    }
  }
  auto class_of = [&](NodeId q) {
    return std::span<const NodeId>(members.data() + member_offsets[q],
                                   members.data() + member_offsets[q + 1]);
  };
  auto build = [&](bool out_dir, std::vector<uint64_t>* offsets,
                   std::vector<Edge>* edges, std::vector<NodeId>* nbrs) {
    BuildAdjacency(
        n,
        [&](NodeId q) {
          size_t d = 0;
          for (NodeId v : class_of(q)) {
            d += out_dir ? g.OutDegree(v) : g.InDegree(v);
          }
          return d;
        },
        [&](NodeId q, uint64_t* kp) {
          for (NodeId v : class_of(q)) {
            for (const Edge& e : out_dir ? g.out(v) : g.in(v)) {
              *kp++ = PackEdge(e.label, node_map[e.other]);
            }
          }
          return kp;
        },
        offsets, edges, nbrs);
  };
  build(/*out_dir=*/true, &f.out_offsets_, &f.out_edges_, &f.out_nbrs_);
  build(/*out_dir=*/false, &f.in_offsets_, &f.in_edges_, &f.in_nbrs_);
  f.BuildLabelIndex();
  if (attrs.offsets.empty()) attrs.offsets.assign(n + 1, 0);
  f.attr_offsets_ = std::move(attrs.offsets);
  f.attr_keys_ = std::move(attrs.keys);
  f.attr_values_ = std::move(attrs.values);
  return f;
}

std::span<const Edge> FrozenGraph::LabelRange(std::span<const Edge> edges,
                                              Label label) {
  auto lo = std::lower_bound(
      edges.begin(), edges.end(), label,
      [](const Edge& e, Label l) { return e.label < l; });
  auto hi = std::upper_bound(
      lo, edges.end(), label,
      [](Label l, const Edge& e) { return l < e.label; });
  return {lo, hi};
}

bool FrozenGraph::HasLabel(std::span<const Edge> edges, Label label) {
  auto it = std::lower_bound(
      edges.begin(), edges.end(), label,
      [](const Edge& e, Label l) { return e.label < l; });
  return it != edges.end() && it->label == label;
}

bool FrozenGraph::HasEdge(NodeId src, Label label, NodeId dst) const {
  std::span<const Edge> range = out(src);
  if (label != kWildcard) {
    return std::binary_search(range.begin(), range.end(),
                              Edge{label, dst}, EdgeLess);
  }
  for (const Edge& e : range) {
    if (e.other == dst) return true;
  }
  return false;
}

std::span<const NodeId> FrozenGraph::NodesWithLabel(Label label) const {
  auto it = std::lower_bound(label_keys_.begin(), label_keys_.end(), label);
  if (it == label_keys_.end() || *it != label) return {};
  size_t k = it - label_keys_.begin();
  return {label_nodes_.data() + label_offsets_[k],
          label_nodes_.data() + label_offsets_[k + 1]};
}

std::optional<Value> FrozenGraph::attr(NodeId v, AttrId a) const {
  const Value* value = FindAttr(v, a);
  if (value == nullptr) return std::nullopt;
  return *value;
}

const Value* FrozenGraph::FindAttr(NodeId v, AttrId a) const {
  std::span<const AttrId> keys = AttrNames(v);
  auto it = std::lower_bound(keys.begin(), keys.end(), a);
  if (it == keys.end() || *it != a) return nullptr;
  return &attr_values_[attr_offsets_[v] + (it - keys.begin())];
}

bool FrozenGraph::HasAttr(NodeId v, AttrId a) const {
  std::span<const AttrId> keys = AttrNames(v);
  return std::binary_search(keys.begin(), keys.end(), a);
}

}  // namespace ged
