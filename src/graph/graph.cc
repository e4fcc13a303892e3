#include "graph/graph.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace ged {

Graph::Graph(Graph&& other) noexcept
    : labels_(std::move(other.labels_)),
      attrs_(std::move(other.attrs_)),
      out_(std::move(other.out_)),
      in_(std::move(other.in_)),
      edge_set_(std::move(other.edge_set_)),
      num_edges_(other.num_edges_) {
  other.num_edges_ = 0;
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  labels_ = std::move(other.labels_);
  attrs_ = std::move(other.attrs_);
  out_ = std::move(other.out_);
  in_ = std::move(other.in_);
  edge_set_ = std::move(other.edge_set_);
  num_edges_ = other.num_edges_;
  other.num_edges_ = 0;
  return *this;
}

void Graph::Reserve(size_t num_nodes, size_t num_edges) {
  labels_.reserve(num_nodes);
  attrs_.reserve(num_nodes);
  out_.reserve(num_nodes);
  in_.reserve(num_nodes);
  edge_set_.reserve(num_edges);
}

NodeId Graph::AddNode(Label label) {
  NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(label);
  attrs_.emplace_back();
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

bool Graph::SetAttr(NodeId v, AttrId attr, Value value) {
  auto& tuple = attrs_[v];
  auto it = std::lower_bound(
      tuple.begin(), tuple.end(), attr,
      [](const auto& p, AttrId a) { return p.first < a; });
  if (it != tuple.end() && it->first == attr) {
    if (it->second == value) return false;
    it->second = std::move(value);
  } else {
    tuple.insert(it, {attr, std::move(value)});
  }
  return true;
}

bool Graph::AddEdge(NodeId src, Label label, NodeId dst) {
  if (!edge_set_.insert(EdgeKey{src, label, dst}).second) return false;
  out_[src].push_back(Edge{label, dst});
  in_[dst].push_back(Edge{label, src});
  ++num_edges_;
  return true;
}

std::optional<Value> Graph::attr(NodeId v, AttrId a) const {
  const auto& tuple = attrs_[v];
  auto it = std::lower_bound(
      tuple.begin(), tuple.end(), a,
      [](const auto& p, AttrId x) { return p.first < x; });
  if (it != tuple.end() && it->first == a) return it->second;
  return std::nullopt;
}

bool Graph::HasEdge(NodeId src, Label label, NodeId dst) const {
  if (label != kWildcard) {
    return edge_set_.count(EdgeKey{src, label, dst}) > 0;
  }
  for (const Edge& e : out_[src]) {
    if (e.other == dst) return true;
  }
  return false;
}

NodeId Graph::DisjointUnion(const Graph& other) {
  NodeId offset = static_cast<NodeId>(NumNodes());
  for (NodeId v = 0; v < other.NumNodes(); ++v) {
    NodeId nv = AddNode(other.label(v));
    for (const auto& [a, val] : other.attrs(v)) SetAttr(nv, a, val);
  }
  for (NodeId v = 0; v < other.NumNodes(); ++v) {
    for (const Edge& e : other.out(v)) {
      AddEdge(offset + v, e.label, offset + e.other);
    }
  }
  return offset;
}

bool Graph::operator==(const Graph& other) const {
  if (labels_ != other.labels_ || attrs_ != other.attrs_) return false;
  if (num_edges_ != other.num_edges_) return false;
  for (const auto& key : edge_set_) {
    if (other.edge_set_.count(key) == 0) return false;
  }
  return true;
}

std::string Graph::ToString() const {
  std::ostringstream os;
  for (NodeId v = 0; v < NumNodes(); ++v) {
    os << "node " << v << " " << SymName(labels_[v]);
    for (const auto& [a, val] : attrs_[v]) {
      os << " " << SymName(a) << "=" << val.ToString();
    }
    os << "\n";
  }
  std::vector<EdgeKey> edges(edge_set_.begin(), edge_set_.end());
  std::sort(edges.begin(), edges.end(), [](const EdgeKey& a, const EdgeKey& b) {
    return std::tie(a.src, a.label, a.dst) < std::tie(b.src, b.label, b.dst);
  });
  for (const auto& e : edges) {
    os << "edge " << e.src << " " << SymName(e.label) << " " << e.dst << "\n";
  }
  return os.str();
}

}  // namespace ged
