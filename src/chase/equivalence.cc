#include "chase/equivalence.h"

#include <algorithm>
#include <sstream>

namespace ged {

EqRel::EqRel(const Graph& base)
    : base_(std::make_shared<const Graph>(base)) {
  Init();
}

EqRel::EqRel(std::shared_ptr<const Graph> base) : base_(std::move(base)) {
  Init();
}

void EqRel::Init() {
  const Graph& base = *base_;
  size_t n = base.NumNodes();
  nodes_.Reset(n);
  members_.resize(n);
  class_label_.resize(n);
  class_attrs_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    members_[v] = {v};
    class_label_[v] = base.label(v);
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& [a, c] : base.attrs(v)) {
      TermId t = GetOrCreateTerm(v, a);
      BindConst(t, c);
    }
  }
}

void EqRel::MarkLabelConflict(NodeId u, NodeId v) {
  if (inconsistent_) return;
  inconsistent_ = true;
  std::ostringstream os;
  os << "label conflict: node " << u << " (" << SymName(ClassLabel(u))
     << ") identified with node " << v << " (" << SymName(ClassLabel(v))
     << ")";
  conflict_reason_ = os.str();
}

void EqRel::MarkAttrConflict(const Value& c1, const Value& c2) {
  if (inconsistent_) return;
  inconsistent_ = true;
  conflict_reason_ = "attribute conflict: constants " + c1.ToString() +
                     " and " + c2.ToString() + " in one class";
}

void EqRel::MergeNodes(NodeId u, NodeId v) {
  NodeId a = nodes_.Find(u);
  NodeId b = nodes_.Find(v);
  if (a == b) return;
  Label la = class_label_[a];
  Label lb = class_label_[b];
  if (la != lb && la != kWildcard && lb != kWildcard) {
    MarkLabelConflict(u, v);
    // Keep going so the structure stays coherent; callers stop on
    // inconsistent().
  }
  NodeId root = nodes_.Union(a, b);
  NodeId loser = (root == a) ? b : a;
  // Members.
  auto& mr = members_[root];
  auto& ml = members_[loser];
  mr.insert(mr.end(), ml.begin(), ml.end());
  ml = {};
  // Label: the non-wildcard one wins.
  Label resolved = (la != kWildcard) ? la : lb;
  class_label_[root] = resolved;
  // Closure rule (d): merge per-attribute classes.
  auto loser_attrs = std::move(class_attrs_[loser]);
  class_attrs_[loser].clear();
  auto& root_attrs = class_attrs_[root];
  for (auto& [attr, t] : loser_attrs) {
    auto it = root_attrs.find(attr);
    if (it == root_attrs.end()) {
      root_attrs[attr] = terms_.Find(t);
    } else {
      MergeTerms(it->second, t);
      it->second = terms_.Find(it->second);
    }
  }
}

Label EqRel::ClassLabel(NodeId v) const {
  return class_label_[nodes_.Find(v)];
}

const std::vector<NodeId>& EqRel::ClassMembers(NodeId v) const {
  return members_[nodes_.Find(v)];
}

TermId EqRel::GetOrCreateTerm(NodeId v, AttrId a) {
  NodeId root = nodes_.Find(v);
  auto& attrs = class_attrs_[root];
  auto it = attrs.find(a);
  if (it != attrs.end()) {
    it->second = terms_.Find(it->second);
    return it->second;
  }
  TermId t = terms_.Add();
  term_origin_.emplace_back(v, a);
  attrs[a] = t;
  return t;
}

TermId EqRel::FindTerm(NodeId v, AttrId a) const {
  const std::map<AttrId, TermId>& attrs = class_attrs_[nodes_.Find(v)];
  auto it = attrs.find(a);
  if (it == attrs.end()) return kNoTerm;
  return terms_.Find(it->second);
}

void EqRel::MergeTerms(TermId t1, TermId t2) {
  TermId r1 = terms_.Find(t1);
  TermId r2 = terms_.Find(t2);
  if (r1 == r2) return;
  auto c1 = term_const_.find(r1);
  auto c2 = term_const_.find(r2);
  if (c1 != term_const_.end() && c2 != term_const_.end() &&
      c1->second != c2->second) {
    MarkAttrConflict(c1->second, c2->second);
  }
  TermId root = terms_.Union(r1, r2);
  TermId loser = (root == r1) ? r2 : r1;
  auto cl = term_const_.find(loser);
  if (cl != term_const_.end()) {
    Value c = cl->second;
    term_const_.erase(cl);
    if (term_const_.find(root) == term_const_.end()) {
      term_const_[root] = c;
    }
    const_index_[c] = root;
  } else if (auto cr = term_const_.find(root); cr != term_const_.end()) {
    const_index_[cr->second] = root;
  }
}

void EqRel::BindConst(TermId t, const Value& c) {
  TermId r = terms_.Find(t);
  auto existing = term_const_.find(r);
  if (existing != term_const_.end()) {
    if (existing->second != c) MarkAttrConflict(existing->second, c);
    return;
  }
  auto idx = const_index_.find(c);
  if (idx != const_index_.end()) {
    TermId other = terms_.Find(idx->second);
    if (other != r) {
      // Closure rule (b): classes sharing constant c are one class.
      MergeTerms(r, other);
      return;
    }
  }
  term_const_[r] = c;
  const_index_[c] = r;
}

std::optional<Value> EqRel::TermConst(TermId t) const {
  const Value* c = FindConst(t);
  if (c == nullptr) return std::nullopt;
  return *c;
}

const Value* EqRel::FindConst(TermId t) const {
  auto it = term_const_.find(terms_.Find(t));
  return it == term_const_.end() ? nullptr : &it->second;
}

const std::map<AttrId, TermId>& EqRel::ClassAttrs(NodeId v) const {
  return class_attrs_[nodes_.Find(v)];
}

std::vector<TermId> EqRel::TermClassRoots() const {
  std::vector<TermId> out;
  for (TermId t = 0; t < term_origin_.size(); ++t) {
    if (terms_.Find(t) == t) out.push_back(t);
  }
  return out;
}

size_t EqRel::SizeMeasure() const {
  return nodes_.size() + term_origin_.size() + term_const_.size();
}

std::string EqRel::CanonicalSignature() const {
  std::ostringstream os;
  if (inconsistent_) os << "INCONSISTENT;";
  // Node classes sorted by least member.
  size_t n = nodes_.size();
  std::map<NodeId, std::vector<NodeId>> node_classes;
  for (NodeId v = 0; v < n; ++v) {
    node_classes[nodes_.Find(v)].push_back(v);
  }
  std::vector<std::vector<NodeId>> sorted_nodes;
  for (auto& [root, mem] : node_classes) {
    std::sort(mem.begin(), mem.end());
    sorted_nodes.push_back(mem);
  }
  std::sort(sorted_nodes.begin(), sorted_nodes.end());
  for (const auto& mem : sorted_nodes) {
    os << "N[";
    for (NodeId v : mem) os << v << " ";
    os << "l=" << SymName(ClassLabel(mem[0])) << "];";
  }
  // Attribute classes: canonical member = (least member of the node class,
  // attr); this is stable across merge orders.
  std::map<TermId, std::vector<std::pair<NodeId, AttrId>>> term_classes;
  for (TermId t = 0; t < term_origin_.size(); ++t) {
    auto [v, a] = term_origin_[t];
    NodeId canon_node = *std::min_element(ClassMembers(v).begin(),
                                          ClassMembers(v).end());
    term_classes[terms_.Find(t)].emplace_back(canon_node, a);
  }
  std::vector<std::string> rendered;
  for (auto& [root, mem] : term_classes) {
    std::sort(mem.begin(), mem.end());
    mem.erase(std::unique(mem.begin(), mem.end()), mem.end());
    std::ostringstream cs;
    cs << "A[";
    for (auto& [v, a] : mem) cs << v << "." << SymName(a) << " ";
    auto c = TermConst(root);
    if (c.has_value()) cs << "=" << c->ToString();
    cs << "];";
    rendered.push_back(cs.str());
  }
  std::sort(rendered.begin(), rendered.end());
  for (const auto& s : rendered) os << s;
  return os.str();
}

}  // namespace ged
