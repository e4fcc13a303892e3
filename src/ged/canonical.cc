#include "ged/canonical.h"

#include <algorithm>
#include <array>
#include <numeric>

namespace ged {

namespace {

using Triple = std::array<uint64_t, 3>;

// The encoding of a pattern under the renaming "original variable perm[i]
// becomes canonical variable i" is [n, labels in canonical order, m, the
// remapped edge triples (src, label, dst) sorted]. It determines the
// pattern up to the renaming, so its lexicographic minimum over all
// permutations is a canonical form.
//
// MinimalEncoding finds that minimum by depth-first search over canonical
// positions 0, 1, ..., trying for position k the still-free variables in
// increasing id order: the search meets permutations in lexicographic
// order and keeps the first minimizing one. Only permutations whose label
// sequence is the sorted label multiset are tried (labels are the first key
// segment after n, so no other one can be minimal), and a partial
// assignment is abandoned when the edge triples it already fixes cannot
// beat the best complete encoding found so far.
class MinimalEncoding {
 public:
  explicit MinimalEncoding(const Pattern& q)
      : q_(q),
        n_(q.NumVars()),
        by_label_(n_),
        run_begin_(n_),
        perm_(n_),
        pos_(n_, kFree) {
    std::iota(by_label_.begin(), by_label_.end(), 0);
    std::stable_sort(by_label_.begin(), by_label_.end(),
                     [&](VarId a, VarId b) { return q.label(a) < q.label(b); });
    for (size_t i = 0; i < n_; ++i) {
      bool same = i > 0 && q.label(by_label_[i]) == q.label(by_label_[i - 1]);
      run_begin_[i] = same ? run_begin_[i - 1] : i;
    }
    Extend(0);
  }

  /// perm[i] is the original variable at canonical position i.
  const std::vector<VarId>& perm() const { return best_perm_; }
  /// The sorted edge triples under perm().
  const std::vector<Triple>& edges() const { return best_; }

 private:
  static constexpr uint64_t kFree = UINT64_MAX;

  // The sorted triples of the edges whose source has a position; a target
  // without one reads as `next`, a lower bound on the position it gets.
  // Every completion's sorted edge list starts with exactly these edges,
  // each triple no smaller, so this is a lower bound on its prefix.
  void Bound(uint64_t next) {
    scratch_.clear();
    for (const Pattern::PEdge& e : q_.edges()) {
      if (pos_[e.src] == kFree) continue;
      scratch_.push_back(
          {pos_[e.src], e.label, pos_[e.dst] == kFree ? next : pos_[e.dst]});
    }
    std::sort(scratch_.begin(), scratch_.end());
  }

  void Extend(size_t k) {
    if (k == n_) {
      Bound(n_);
      if (!have_best_ || scratch_ < best_) {
        best_ = scratch_;
        best_perm_ = perm_;
        have_best_ = true;
      }
      return;
    }
    Label label = q_.label(by_label_[k]);
    for (size_t i = run_begin_[k]; i < n_ && q_.label(by_label_[i]) == label;
         ++i) {
      VarId v = by_label_[i];
      if (pos_[v] != kFree) continue;
      pos_[v] = k;
      perm_[k] = v;
      bool worse = false;
      if (have_best_) {
        Bound(k + 1);
        worse = std::lexicographical_compare(
            best_.begin(), best_.begin() + scratch_.size(), scratch_.begin(),
            scratch_.end());
      }
      if (!worse) Extend(k + 1);
      pos_[v] = kFree;
    }
  }

  const Pattern& q_;
  size_t n_;
  std::vector<VarId> by_label_;   // variables sorted by (label, id)
  std::vector<size_t> run_begin_;  // first index of i's label run
  std::vector<VarId> perm_;
  std::vector<uint64_t> pos_;
  std::vector<Triple> scratch_;
  std::vector<Triple> best_;
  std::vector<VarId> best_perm_;
  bool have_best_ = false;
};

std::vector<uint64_t> Encode(const Pattern& q, const std::vector<VarId>& perm,
                             const std::vector<Triple>& sorted_edges) {
  std::vector<uint64_t> key;
  key.reserve(2 + q.NumVars() + 3 * sorted_edges.size());
  key.push_back(q.NumVars());
  for (VarId x : perm) key.push_back(q.label(x));
  key.push_back(q.NumEdges());
  for (const Triple& e : sorted_edges) {
    key.insert(key.end(), e.begin(), e.end());
  }
  return key;
}

}  // namespace

CanonicalGraph BuildCanonicalGraph(const std::vector<Ged>& sigma) {
  CanonicalGraph out;
  out.offsets.reserve(sigma.size());
  for (const Ged& phi : sigma) {
    NodeId offset = out.graph.DisjointUnion(phi.pattern().ToGraph());
    out.offsets.push_back(offset);
  }
  return out;
}

PatternCanonicalForm CanonicalizePattern(const Pattern& q) {
  PatternCanonicalForm out;
  size_t n = q.NumVars();
  if (n > kMaxCanonicalVars) {
    std::vector<VarId> identity(n);
    std::iota(identity.begin(), identity.end(), 0);
    std::vector<Triple> edges;
    for (const Pattern::PEdge& e : q.edges()) {
      edges.push_back({e.src, e.label, e.dst});
    }
    std::sort(edges.begin(), edges.end());
    out.key = Encode(q, identity, edges);
    out.to_canonical = std::move(identity);
    out.exact = false;
    return out;
  }
  MinimalEncoding min(q);
  out.key = Encode(q, min.perm(), min.edges());
  out.to_canonical.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    out.to_canonical[min.perm()[i]] = static_cast<VarId>(i);
  }
  return out;
}

}  // namespace ged
