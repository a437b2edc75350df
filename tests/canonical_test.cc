// Canonical-form invariance: renaming vertices, permuting edges, and
// reordering vertices inside edges must not change the fingerprint, while
// structurally different hypergraphs must separate.
#include "service/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "benchlib/corpus.h"
#include "hypergraph/generators.h"
#include "hypergraph/hypergraph.h"
#include "util/rng.h"

namespace htd::service {
namespace {

// Builds a hypergraph from named edge lists, adding vertices in first-use
// order — so permuting the edge list also permutes the vertex numbering.
Hypergraph FromEdges(const std::vector<std::vector<std::string>>& edges) {
  Hypergraph graph;
  for (const auto& edge : edges) {
    std::vector<int> ids;
    for (const auto& name : edge) ids.push_back(graph.GetOrAddVertex(name));
    auto added = graph.AddEdge(ids);
    EXPECT_TRUE(added.ok());
  }
  return graph;
}

// Rebuilds `graph` with vertices renamed via `rename`, edges visited in
// `edge_order`, and each edge's vertex list rotated.
Hypergraph Scramble(const Hypergraph& graph,
                    const std::vector<std::string>& rename,
                    const std::vector<int>& edge_order) {
  Hypergraph out;
  for (int e : edge_order) {
    std::vector<int> members = graph.edge_vertex_list(e);
    std::rotate(members.begin(), members.begin() + members.size() / 2,
                members.end());
    std::vector<int> ids;
    for (int v : members) ids.push_back(out.GetOrAddVertex(rename[v]));
    auto added = out.AddEdge(ids);
    EXPECT_TRUE(added.ok());
  }
  return out;
}

std::vector<std::string> ShuffledNames(int n, uint64_t seed) {
  std::vector<std::string> names;
  names.reserve(n);
  for (int i = 0; i < n; ++i) names.push_back("w" + std::to_string(i));
  util::Rng rng(seed);
  for (int i = n - 1; i > 0; --i) {
    std::swap(names[i], names[rng.UniformInt(0, i)]);
  }
  return names;
}

std::vector<int> ShuffledOrder(int m, uint64_t seed) {
  std::vector<int> order(m);
  for (int i = 0; i < m; ++i) order[i] = i;
  util::Rng rng(seed);
  for (int i = m - 1; i > 0; --i) {
    std::swap(order[i], order[rng.UniformInt(0, i)]);
  }
  return order;
}

// Isomorphic copy under one seeded renaming, numbered the way the parser
// numbers a request: edges in a random order, each edge's members in a
// random order, and vertices numbered on first use.
Hypergraph RandomRenaming(const Hypergraph& graph, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> edge_order(graph.num_edges());
  for (int e = 0; e < graph.num_edges(); ++e) edge_order[e] = e;
  rng.Shuffle(edge_order);
  std::vector<int> new_id(graph.num_vertices(), -1);
  Hypergraph out;
  for (int e : edge_order) {
    std::vector<int> members = graph.edge_vertex_list(e);
    rng.Shuffle(members);
    for (int& v : members) {
      if (new_id[v] < 0) new_id[v] = out.AddVertex();
      v = new_id[v];
    }
    EXPECT_TRUE(out.AddEdge(members).ok());
  }
  for (int v = 0; v < graph.num_vertices(); ++v) {
    if (new_id[v] < 0) out.AddVertex();  // isolated vertices
  }
  return out;
}

TEST(CanonicalTest, FingerprintIsDeterministic) {
  Hypergraph a = MakeCycle(10);
  Hypergraph b = MakeCycle(10);
  EXPECT_EQ(CanonicalFingerprint(a), CanonicalFingerprint(b));
  EXPECT_EQ(CanonicalString(ComputeCanonicalForm(a)),
            CanonicalString(ComputeCanonicalForm(b)));
}

TEST(CanonicalTest, InvariantUnderVertexRenaming) {
  Hypergraph graph = FromEdges({{"a", "b", "c"}, {"c", "d"}, {"d", "e", "a"}});
  std::vector<int> identity = {0, 1, 2};
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Hypergraph renamed =
        Scramble(graph, ShuffledNames(graph.num_vertices(), seed), identity);
    EXPECT_EQ(CanonicalFingerprint(graph), CanonicalFingerprint(renamed))
        << "seed " << seed;
  }
}

TEST(CanonicalTest, InvariantUnderEdgePermutation) {
  Hypergraph graph = MakeGrid(3, 4);
  std::vector<std::string> identity;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    identity.push_back(graph.vertex_name(v));
  }
  for (uint64_t seed : {5u, 6u, 7u}) {
    Hypergraph permuted =
        Scramble(graph, identity, ShuffledOrder(graph.num_edges(), seed));
    EXPECT_EQ(CanonicalFingerprint(graph), CanonicalFingerprint(permuted))
        << "seed " << seed;
  }
}

TEST(CanonicalTest, InvariantUnderFullScramble) {
  util::Rng rng(20220612);
  for (int trial = 0; trial < 10; ++trial) {
    Hypergraph graph = MakeRandomCq(rng, 12, 4, 0.3);
    Hypergraph scrambled = Scramble(
        graph, ShuffledNames(graph.num_vertices(), 100 + trial),
        ShuffledOrder(graph.num_edges(), 200 + trial));
    EXPECT_EQ(CanonicalFingerprint(graph), CanonicalFingerprint(scrambled))
        << "trial " << trial;
    EXPECT_EQ(CanonicalString(ComputeCanonicalForm(graph)),
              CanonicalString(ComputeCanonicalForm(scrambled)))
        << "trial " << trial;
  }
}

TEST(CanonicalTest, SymmetricGraphsScrambleToSameForm) {
  // Every vertex of a cycle is automorphic; individualisation must produce
  // the same form no matter which representative the scramble promotes.
  Hypergraph cycle = MakeCycle(12);
  Hypergraph scrambled = Scramble(cycle, ShuffledNames(12, 99),
                                  ShuffledOrder(cycle.num_edges(), 77));
  EXPECT_EQ(CanonicalString(ComputeCanonicalForm(cycle)),
            CanonicalString(ComputeCanonicalForm(scrambled)));
}

TEST(CanonicalTest, SeparatesDifferentStructures) {
  std::vector<Fingerprint> prints = {
      CanonicalFingerprint(MakePath(8)),    CanonicalFingerprint(MakeCycle(8)),
      CanonicalFingerprint(MakeCycle(9)),   CanonicalFingerprint(MakeStar(8)),
      CanonicalFingerprint(MakeGrid(2, 4)), CanonicalFingerprint(MakeClique(5)),
  };
  for (size_t i = 0; i < prints.size(); ++i) {
    for (size_t j = i + 1; j < prints.size(); ++j) {
      EXPECT_NE(prints[i], prints[j]) << i << " vs " << j;
    }
  }
}

TEST(CanonicalTest, DuplicateEdgeChangesForm) {
  Hypergraph once = FromEdges({{"a", "b"}, {"b", "c"}});
  Hypergraph twice = FromEdges({{"a", "b"}, {"b", "c"}, {"b", "c"}});
  EXPECT_NE(CanonicalFingerprint(once), CanonicalFingerprint(twice));
  EXPECT_EQ(ComputeCanonicalForm(twice).num_edges, 3);
}

TEST(CanonicalTest, CanonicalFormShape) {
  CanonicalForm form = ComputeCanonicalForm(MakeCycle(5));
  EXPECT_EQ(form.num_vertices, 5);
  EXPECT_EQ(form.num_edges, 5);
  ASSERT_EQ(form.edges.size(), 5u);
  EXPECT_TRUE(std::is_sorted(form.edges.begin(), form.edges.end()));
  for (const auto& edge : form.edges) {
    EXPECT_TRUE(std::is_sorted(edge.begin(), edge.end()));
    for (int v : edge) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 5);
    }
  }
}

// The properties the fingerprint is keyed on, checked on every corpus
// instance rather than pinned as values: renaming invariance, separation of
// the corpus's pairwise non-isomorphic instances, and a canonical labelling
// that is a bijection onto [0, n).
TEST(CanonicalTest, CorpusFormsAreRenamingInvariantDistinctAndBijective) {
  const std::vector<bench::Instance> corpus = bench::BuildHyperBenchLikeCorpus();
  ASSERT_FALSE(corpus.empty());
  std::set<Fingerprint> distinct;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Hypergraph& graph = corpus[i].graph;
    const CanonicalForm form = ComputeCanonicalForm(graph);
    const std::string text = CanonicalString(form);
    const int n = graph.num_vertices();
    ASSERT_EQ(form.num_vertices, n) << corpus[i].name;
    ASSERT_EQ(form.num_edges, graph.num_edges()) << corpus[i].name;

    std::vector<int> form_degree(n, 0);
    for (const auto& edge : form.edges) {
      for (size_t j = 0; j < edge.size(); ++j) {
        ASSERT_GE(edge[j], 0) << corpus[i].name;
        ASSERT_LT(edge[j], n) << corpus[i].name;
        if (j > 0) {
          ASSERT_LT(edge[j - 1], edge[j]) << corpus[i].name;
        }
        ++form_degree[edge[j]];
      }
    }
    std::vector<int> graph_degree(n, 0);
    for (int v = 0; v < n; ++v) {
      graph_degree[v] = static_cast<int>(graph.edges_of_vertex(v).size());
    }
    std::sort(form_degree.begin(), form_degree.end());
    std::sort(graph_degree.begin(), graph_degree.end());
    EXPECT_EQ(form_degree, graph_degree) << corpus[i].name;

    for (uint64_t seed = 1; seed <= 20; ++seed) {
      const Hypergraph renamed = RandomRenaming(graph, 1000 * i + seed);
      const CanonicalForm renamed_form = ComputeCanonicalForm(renamed);
      ASSERT_EQ(CanonicalString(renamed_form), text)
          << corpus[i].name << " seed " << seed;
      ASSERT_EQ(renamed_form.fingerprint, form.fingerprint)
          << corpus[i].name << " seed " << seed;
    }
    distinct.insert(form.fingerprint);
  }
  EXPECT_EQ(distinct.size(), corpus.size());
}

TEST(CanonicalTest, HexRendering) {
  Fingerprint fp{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(fp.ToHex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(CanonicalFingerprint(MakeCycle(4)).ToHex().size(), 32u);
}

}  // namespace
}  // namespace htd::service
