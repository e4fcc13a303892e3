// Unit tests for the FrozenGraph CSR snapshot: structural invariants of the
// compiled arrays and exact agreement of every read accessor with the source
// Graph. Backend equivalence of the *search* layers (matcher, plan,
// validation) is covered by matcher_test.cc and frozen_equivalence_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "gen/random_gen.h"
#include "graph/frozen.h"
#include "graph/graph.h"
#include "graph/view.h"

namespace ged {
namespace {

static_assert(GraphView<FrozenGraph>,
              "CSR must serve the matcher's read surface: label-contiguous "
              "ranges and columnar neighbor spans");
static_assert(!GraphView<Graph>,
              "the mutable Graph is a builder, not a match backend");

Graph SmallGraph() {
  Graph g;
  NodeId a = g.AddNode("person");   // 0
  NodeId b = g.AddNode("product");  // 1
  NodeId c = g.AddNode("person");   // 2
  NodeId d = g.AddNode("city");     // 3
  g.SetAttr(a, "name", Value("ann"));
  g.SetAttr(a, "age", Value(41));
  g.SetAttr(c, "name", Value("cid"));
  g.AddEdge(a, "create", b);
  g.AddEdge(c, "create", b);
  g.AddEdge(a, "knows", c);
  g.AddEdge(a, "born_in", d);
  g.AddEdge(c, "born_in", d);
  g.AddEdge(a, "create", d);  // two 'create' out-edges on a
  return g;
}

TEST(FrozenGraph, PreservesCounts) {
  Graph g = SmallGraph();
  FrozenGraph f = FrozenGraph::Freeze(g);
  EXPECT_EQ(f.NumNodes(), g.NumNodes());
  EXPECT_EQ(f.NumEdges(), g.NumEdges());
  EXPECT_EQ(f.Size(), g.Size());
}

TEST(FrozenGraph, EmptyGraph) {
  Graph g;
  FrozenGraph f = FrozenGraph::Freeze(g);
  EXPECT_EQ(f.NumNodes(), 0u);
  EXPECT_EQ(f.NumEdges(), 0u);
  EXPECT_TRUE(f.NodesWithLabel(Sym("anything")).empty());
  EXPECT_EQ(f.CandidateCount(kWildcard), 0u);
}

TEST(FrozenGraph, IsolatedNodesHaveEmptyAdjacency) {
  Graph g;
  g.AddNode("n");
  g.AddNode("n");
  FrozenGraph f = FrozenGraph::Freeze(g);
  EXPECT_TRUE(f.out(0).empty());
  EXPECT_TRUE(f.in(1).empty());
  EXPECT_EQ(f.OutDegree(0), 0u);
  EXPECT_EQ(f.InDegree(1), 0u);
  EXPECT_FALSE(f.HasOutLabel(0, Sym("e")));
  EXPECT_FALSE(f.HasOutLabel(0, kWildcard));
}

TEST(FrozenGraph, AdjacencyRangesAreSortedByLabelThenNeighbor) {
  Graph g = SmallGraph();
  FrozenGraph f = FrozenGraph::Freeze(g);
  auto sorted = [](std::span<const Edge> edges) {
    return std::is_sorted(edges.begin(), edges.end(),
                          [](const Edge& a, const Edge& b) {
                            if (a.label != b.label) return a.label < b.label;
                            return a.other < b.other;
                          });
  };
  for (NodeId v = 0; v < f.NumNodes(); ++v) {
    EXPECT_TRUE(sorted(f.out(v))) << "out range of " << v;
    EXPECT_TRUE(sorted(f.in(v))) << "in range of " << v;
    EXPECT_EQ(f.OutDegree(v), g.OutDegree(v));
    EXPECT_EQ(f.InDegree(v), g.InDegree(v));
  }
}

TEST(FrozenGraph, LabeledRangesExtractExactly) {
  Graph g = SmallGraph();
  FrozenGraph f = FrozenGraph::Freeze(g);
  Label create = Sym("create");
  std::span<const Edge> range = f.OutEdgesLabeled(0, create);
  ASSERT_EQ(range.size(), 2u);
  EXPECT_EQ(range[0].other, 1u);  // sorted by neighbor id
  EXPECT_EQ(range[1].other, 3u);
  EXPECT_TRUE(f.OutEdgesLabeled(0, Sym("never")).empty());
  // Wildcard returns the full adjacency range.
  EXPECT_EQ(f.OutEdgesLabeled(0, kWildcard).size(), f.OutDegree(0));
  // In-direction: product node 1 has two create in-edges (from 0 and 2).
  std::span<const Edge> in_range = f.InEdgesLabeled(1, create);
  ASSERT_EQ(in_range.size(), 2u);
  EXPECT_EQ(in_range[0].other, 0u);
  EXPECT_EQ(in_range[1].other, 2u);
}

TEST(FrozenGraph, NeighborColumnsParallelTheEdgeRanges) {
  // The columnar neighbor spans must be element-parallel to the labeled
  // Edge ranges for every (node, label, direction), including wildcard —
  // the invariant the leapfrog intersection kernel strides on.
  RandomGraphParams gp;
  gp.num_nodes = 60;
  gp.avg_out_degree = 5.0;
  gp.num_node_labels = 3;
  gp.num_edge_labels = 3;
  gp.seed = 21;
  Graph g = RandomPropertyGraph(gp);
  g.AddEdge(0, GenEdgeLabel(0), 0);  // self-loop
  FrozenGraph f = FrozenGraph::Freeze(g);
  auto expect_parallel = [](std::span<const Edge> edges,
                            std::span<const NodeId> nbrs, bool concrete) {
    ASSERT_EQ(edges.size(), nbrs.size());
    for (size_t i = 0; i < edges.size(); ++i) {
      EXPECT_EQ(edges[i].other, nbrs[i]);
    }
    if (concrete) {
      EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
      EXPECT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end()), nbrs.end());
    }
  };
  for (NodeId v = 0; v < f.NumNodes(); ++v) {
    for (size_t li = 0; li < gp.num_edge_labels; ++li) {
      Label l = GenEdgeLabel(li);
      expect_parallel(f.OutEdgesLabeled(v, l), f.OutNeighborsLabeled(v, l),
                      /*concrete=*/true);
      expect_parallel(f.InEdgesLabeled(v, l), f.InNeighborsLabeled(v, l),
                      /*concrete=*/true);
    }
    expect_parallel(f.OutEdgesLabeled(v, kWildcard),
                    f.OutNeighborsLabeled(v, kWildcard), /*concrete=*/false);
    expect_parallel(f.InEdgesLabeled(v, kWildcard),
                    f.InNeighborsLabeled(v, kWildcard), /*concrete=*/false);
    EXPECT_TRUE(f.OutNeighborsLabeled(v, Sym("absent_label")).empty());
  }
}

TEST(FrozenGraph, HasLabelProbes) {
  Graph g = SmallGraph();
  FrozenGraph f = FrozenGraph::Freeze(g);
  EXPECT_TRUE(f.HasOutLabel(0, Sym("knows")));
  EXPECT_FALSE(f.HasOutLabel(2, Sym("knows")));
  EXPECT_TRUE(f.HasInLabel(3, Sym("born_in")));
  EXPECT_FALSE(f.HasInLabel(0, Sym("born_in")));
  EXPECT_TRUE(f.HasOutLabel(0, kWildcard));
  EXPECT_FALSE(f.HasInLabel(0, kWildcard));  // node 0 has no in-edges
}

TEST(FrozenGraph, HasEdgeAgreesWithGraphIncludingWildcard) {
  Graph g = SmallGraph();
  FrozenGraph f = FrozenGraph::Freeze(g);
  std::vector<Label> labels = {Sym("create"), Sym("knows"), Sym("born_in"),
                               Sym("absent"), kWildcard};
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    for (NodeId d = 0; d < g.NumNodes(); ++d) {
      for (Label l : labels) {
        EXPECT_EQ(f.HasEdge(s, l, d), g.HasEdge(s, l, d))
            << s << " -[" << SymName(l) << "]-> " << d;
      }
    }
  }
}

TEST(FrozenGraph, LabelIndexMatchesGraph) {
  Graph g = SmallGraph();
  FrozenGraph f = FrozenGraph::Freeze(g);
  for (const char* name : {"person", "product", "city", "nobody"}) {
    Label l = Sym(name);
    std::span<const NodeId> got = f.NodesWithLabel(l);
    std::vector<NodeId> want;  // every node labelled l, by increasing id
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.label(v) == l) want.push_back(v);
    }
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << name;
    EXPECT_EQ(f.CandidateCount(l), want.size()) << name;
  }
  EXPECT_EQ(f.CandidateCount(kWildcard), g.NumNodes());
}

TEST(FrozenGraph, ColumnarAttributesMatchGraph) {
  Graph g = SmallGraph();
  FrozenGraph f = FrozenGraph::Freeze(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    std::span<const AttrId> names = f.AttrNames(v);
    std::span<const Value> values = f.AttrValues(v);
    ASSERT_EQ(names.size(), g.attrs(v).size());
    ASSERT_EQ(values.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(names[i], g.attrs(v)[i].first);
      EXPECT_EQ(values[i], g.attrs(v)[i].second);
    }
    for (const auto& [a, val] : g.attrs(v)) {
      auto got = f.attr(v, a);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, val);
      EXPECT_TRUE(f.HasAttr(v, a));
    }
    EXPECT_FALSE(f.attr(v, Sym("no_such_attr")).has_value());
    EXPECT_FALSE(f.HasAttr(v, Sym("no_such_attr")));
  }
}

TEST(FrozenGraph, SnapshotIsImmutableUnderSourceMutation) {
  Graph g = SmallGraph();
  FrozenGraph f = FrozenGraph::Freeze(g);
  size_t nodes = f.NumNodes(), edges = f.NumEdges();
  NodeId v = g.AddNode("person");
  g.AddEdge(v, "knows", 0);
  g.SetAttr(0, "age", Value(42));
  EXPECT_EQ(f.NumNodes(), nodes);
  EXPECT_EQ(f.NumEdges(), edges);
  EXPECT_FALSE(f.HasEdge(v < f.NumNodes() ? v : 0, Sym("knows"), 0));
  EXPECT_EQ(*f.attr(0, Sym("age")), Value(41));  // pre-mutation value
}

TEST(FrozenGraph, WildcardLabeledNodesAreIndexed) {
  // Canonical graphs of patterns carry '_'-labeled nodes; the snapshot must
  // treat '_' as an ordinary stored label (≼ asymmetry is the matcher's
  // concern, not the index's).
  Graph g;
  g.AddNode(kWildcard);
  g.AddNode("n");
  FrozenGraph f = FrozenGraph::Freeze(g);
  ASSERT_EQ(f.NodesWithLabel(kWildcard).size(), 1u);
  EXPECT_EQ(f.NodesWithLabel(kWildcard)[0], 0u);
  EXPECT_EQ(f.CandidateCount(kWildcard), 2u);  // wildcard = every node
}

TEST(FrozenGraph, RandomGraphsRoundTripAllAccessors) {
  for (unsigned seed = 1; seed <= 4; ++seed) {
    RandomGraphParams gp;
    gp.num_nodes = 200;
    gp.avg_out_degree = 5.0;
    gp.num_node_labels = 3;
    gp.num_edge_labels = 3;
    gp.seed = seed;
    Graph g = RandomPropertyGraph(gp);
    FrozenGraph f = FrozenGraph::Freeze(g);
    ASSERT_EQ(f.NumNodes(), g.NumNodes());
    ASSERT_EQ(f.NumEdges(), g.NumEdges());
    std::mt19937 rng(seed);
    std::uniform_int_distribution<NodeId> node(0, g.NumNodes() - 1);
    for (int i = 0; i < 500; ++i) {
      NodeId v = node(rng);
      EXPECT_EQ(f.label(v), g.label(v));
      EXPECT_EQ(f.OutDegree(v), g.OutDegree(v));
      EXPECT_EQ(f.InDegree(v), g.InDegree(v));
      // Frozen out-edges are a permutation of the mutable ones.
      std::vector<Edge> want(g.out(v).begin(), g.out(v).end());
      std::vector<Edge> got(f.out(v).begin(), f.out(v).end());
      auto less = [](const Edge& a, const Edge& b) {
        if (a.label != b.label) return a.label < b.label;
        return a.other < b.other;
      };
      std::sort(want.begin(), want.end(), less);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), less));
      EXPECT_EQ(got, want);
      NodeId w = node(rng);
      EXPECT_EQ(f.HasEdge(v, kWildcard, w), g.HasEdge(v, kWildcard, w));
      EXPECT_EQ(f.HasEdge(v, GenEdgeLabel(i % 3), w),
                g.HasEdge(v, GenEdgeLabel(i % 3), w));
      EXPECT_EQ(f.attr(v, GenAttr(i % 3)), g.attr(v, GenAttr(i % 3)));
    }
  }
}

// FreezeQuotient builds the CSR of a quotient directly; its oracle is the
// quotient built as a mutable Graph (whose AddEdge drops duplicate
// triples) and frozen: every accessor must agree.
TEST(FrozenGraph, FreezeQuotientEqualsFrozenMutableQuotient) {
  for (unsigned seed = 1; seed <= 4; ++seed) {
    RandomGraphParams gp;
    gp.num_nodes = 120;
    gp.avg_out_degree = 4.0;
    gp.num_node_labels = 3;
    gp.num_edge_labels = 2;
    gp.seed = seed;
    Graph g = RandomPropertyGraph(gp);
    // Merge nodes into classes numbered by least member, as the chase does.
    std::mt19937 rng(seed);
    const NodeId classes = static_cast<NodeId>(g.NumNodes() / (seed + 1));
    std::vector<NodeId> node_map(g.NumNodes());
    std::vector<NodeId> renumber(classes, UINT32_MAX);
    std::vector<Label> labels;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      NodeId c = v < classes ? v : static_cast<NodeId>(rng() % classes);
      if (renumber[c] == UINT32_MAX) {
        renumber[c] = static_cast<NodeId>(labels.size());
        labels.push_back(g.label(v));
      }
      node_map[v] = renumber[c];
    }
    // Class q carries attribute 0 = q, for the columnar attribute path.
    FrozenGraph::ColumnarAttrs attrs;
    attrs.offsets.push_back(0);
    Graph quotient;
    for (NodeId q = 0; q < labels.size(); ++q) {
      quotient.AddNode(labels[q]);
      quotient.SetAttr(q, GenAttr(0), Value(static_cast<int64_t>(q)));
      attrs.keys.push_back(GenAttr(0));
      attrs.values.push_back(Value(static_cast<int64_t>(q)));
      attrs.offsets.push_back(attrs.keys.size());
    }
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      for (const Edge& e : g.out(v)) {
        quotient.AddEdge(node_map[v], e.label, node_map[e.other]);
      }
    }
    FrozenGraph want = FrozenGraph::Freeze(quotient);
    FrozenGraph got = FrozenGraph::FreezeQuotient(g, node_map, labels, attrs);
    ASSERT_EQ(got.NumNodes(), want.NumNodes());
    ASSERT_EQ(got.NumEdges(), want.NumEdges());
    auto same = [](auto a, auto b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    for (NodeId q = 0; q < want.NumNodes(); ++q) {
      EXPECT_EQ(got.label(q), want.label(q));
      EXPECT_TRUE(same(got.out(q), want.out(q))) << "seed " << seed;
      EXPECT_TRUE(same(got.in(q), want.in(q))) << "seed " << seed;
      for (Label l : {GenEdgeLabel(0), GenEdgeLabel(1), kWildcard}) {
        EXPECT_TRUE(same(got.OutNeighborsLabeled(q, l),
                         want.OutNeighborsLabeled(q, l)));
        EXPECT_TRUE(same(got.InNeighborsLabeled(q, l),
                         want.InNeighborsLabeled(q, l)));
      }
      EXPECT_TRUE(same(got.AttrNames(q), want.AttrNames(q)));
      EXPECT_TRUE(same(got.AttrValues(q), want.AttrValues(q)));
    }
    for (size_t l = 0; l < gp.num_node_labels; ++l) {
      EXPECT_TRUE(same(got.NodesWithLabel(GenNodeLabel(l)),
                       want.NodesWithLabel(GenNodeLabel(l))));
    }
  }
}

}  // namespace
}  // namespace ged
