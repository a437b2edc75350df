// Cross-instance subproblem memoization (service/subproblem_store.h):
// canonical subproblem fingerprints (connector vertices as distinguished
// colours), allowed-trace dominance, positive-fragment rehydration across
// isomorphic instances, concurrent insert/query, eviction, and the solver /
// service wiring.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "baselines/det_k_decomp.h"
#include "benchlib/corpus.h"
#include "core/log_k_decomp.h"
#include "core/log_k_decomp_basic.h"
#include "decomp/components.h"
#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "service/service.h"
#include "service/subproblem_store.h"
#include "util/rng.h"

namespace htd {
namespace {

using service::SubproblemStore;

/// Isomorphic copy: random vertex renaming + random edge order.
Hypergraph RenameAndShuffle(const Hypergraph& graph, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> vertex_perm(graph.num_vertices());
  for (int v = 0; v < graph.num_vertices(); ++v) vertex_perm[v] = v;
  rng.Shuffle(vertex_perm);
  std::vector<int> edge_order(graph.num_edges());
  for (int e = 0; e < graph.num_edges(); ++e) edge_order[e] = e;
  rng.Shuffle(edge_order);

  Hypergraph renamed;
  std::vector<int> new_id(graph.num_vertices(), -1);
  for (int e : edge_order) {
    std::vector<int> members;
    for (int v : graph.edge_vertex_list(e)) {
      if (new_id[v] < 0) {
        new_id[v] = renamed.GetOrAddVertex("r" + std::to_string(vertex_perm[v]));
      }
      members.push_back(new_id[v]);
    }
    EXPECT_TRUE(renamed.AddEdge(members).ok());
  }
  EXPECT_EQ(renamed.num_vertices(), graph.num_vertices());
  EXPECT_EQ(renamed.num_edges(), graph.num_edges());
  return renamed;
}

SubproblemStore::Key FullGraphKey(const Hypergraph& graph,
                                  const SpecialEdgeRegistry& registry,
                                  const util::DynamicBitset& conn, int k) {
  return SubproblemStore::MakeKey(graph, registry,
                                  ExtendedSubhypergraph::FullGraph(graph), conn,
                                  graph.AllEdges(), k);
}

TEST(FingerprintSubhypergraphTest, InvariantUnderRenaming) {
  Hypergraph graph = MakeGrid(3, 3);
  SpecialEdgeRegistry registry(graph.num_vertices());
  util::DynamicBitset empty_conn(graph.num_vertices());
  auto key = FullGraphKey(graph, registry, empty_conn, 2);

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Hypergraph renamed = RenameAndShuffle(graph, seed);
    SpecialEdgeRegistry renamed_registry(renamed.num_vertices());
    util::DynamicBitset renamed_conn(renamed.num_vertices());
    auto renamed_key = FullGraphKey(renamed, renamed_registry, renamed_conn, 2);
    EXPECT_EQ(key.fingerprint.ToHex(), renamed_key.fingerprint.ToHex())
        << "seed=" << seed;
    // The allowed-edge traces are canonical too, so they must coincide.
    EXPECT_EQ(key.allowed_traces, renamed_key.allowed_traces) << "seed=" << seed;
  }
}

// One seeded renaming with its maps, numbered the way the parser numbers a
// request: edges in a random order, each edge's members in a random order,
// and vertices numbered on first use.
struct Renaming {
  Hypergraph graph;
  std::vector<int> vertex;  ///< old vertex id → new vertex id
  std::vector<int> edge;    ///< old edge id → new edge id
};

Renaming RandomRenaming(const Hypergraph& graph, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> edge_order(graph.num_edges());
  for (int e = 0; e < graph.num_edges(); ++e) edge_order[e] = e;
  rng.Shuffle(edge_order);
  Renaming out;
  out.vertex.assign(graph.num_vertices(), -1);
  out.edge.resize(graph.num_edges());
  for (int e : edge_order) {
    std::vector<int> members = graph.edge_vertex_list(e);
    rng.Shuffle(members);
    for (int& v : members) {
      if (out.vertex[v] < 0) out.vertex[v] = out.graph.AddVertex();
      v = out.vertex[v];
    }
    auto added = out.graph.AddEdge(members);
    EXPECT_TRUE(added.ok());
    out.edge[e] = *added;
  }
  for (int v = 0; v < graph.num_vertices(); ++v) {
    if (out.vertex[v] < 0) out.vertex[v] = out.graph.AddVertex();
  }
  return out;
}

util::DynamicBitset MapBits(const util::DynamicBitset& bits,
                            const std::vector<int>& map) {
  util::DynamicBitset out(static_cast<int>(map.size()));
  bits.ForEach([&](int i) { out.Set(map[i]); });
  return out;
}

// Subproblems as the solvers form them, on corpus instances: a component of
// the full graph below a random separator, with the separator's trace on it
// as Conn and, on every other triple, that trace as a special edge too. The
// key must not depend on the naming.
TEST(FingerprintSubhypergraphTest, CorpusSubproblemsAreRenamingInvariant) {
  const std::vector<bench::Instance> corpus = bench::BuildHyperBenchLikeCorpus();
  ASSERT_FALSE(corpus.empty());
  util::Rng rng(20221017);
  int checked = 0;
  for (int triple = 0; triple < 96; ++triple) {
    const bench::Instance& instance =
        corpus[rng.UniformInt(0, static_cast<int>(corpus.size()) - 1)];
    const Hypergraph& graph = instance.graph;
    SpecialEdgeRegistry registry(graph.num_vertices());
    std::vector<int> lambda = {rng.UniformInt(0, graph.num_edges() - 1),
                               rng.UniformInt(0, graph.num_edges() - 1)};
    const util::DynamicBitset separator = graph.UnionOfEdges(lambda);
    ComponentSplit split = SplitComponents(
        graph, registry, ExtendedSubhypergraph::FullGraph(graph), separator);
    if (split.components.empty()) continue;
    const int pick =
        rng.UniformInt(0, static_cast<int>(split.components.size()) - 1);
    ExtendedSubhypergraph comp = split.components[pick];
    const util::DynamicBitset conn = split.component_vertices[pick] & separator;
    const bool with_special = triple % 2 == 1 && conn.Count() > 0;
    if (with_special) comp.specials = {registry.Add(conn, lambda)};

    const auto form =
        service::FingerprintSubhypergraph(graph, registry, comp, conn);
    for (int c = 0; c < form.num_vertices; ++c) {
      ASSERT_EQ(form.base_vertex_rank[form.canonical_vertices[c]], c)
          << instance.name;
    }

    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const Renaming renamed = RandomRenaming(graph, 100 * triple + seed);
      SpecialEdgeRegistry renamed_registry(renamed.graph.num_vertices());
      ExtendedSubhypergraph renamed_comp;
      renamed_comp.edges = MapBits(comp.edges, renamed.edge);
      renamed_comp.edge_count = comp.edge_count;
      const util::DynamicBitset renamed_conn = MapBits(conn, renamed.vertex);
      if (with_special) {
        renamed_comp.specials = {renamed_registry.Add(renamed_conn, {})};
      }
      const auto renamed_form = service::FingerprintSubhypergraph(
          renamed.graph, renamed_registry, renamed_comp, renamed_conn);
      ASSERT_EQ(form.fingerprint, renamed_form.fingerprint)
          << instance.name << " triple " << triple << " seed " << seed;
      ASSERT_EQ(form.num_vertices, renamed_form.num_vertices);
      ASSERT_EQ(form.special_order.size(), renamed_form.special_order.size());
    }
    ++checked;
  }
  EXPECT_GT(checked, 48);
}

TEST(FingerprintSubhypergraphTest, ConnectorColoursDistinguish) {
  // Path a - b - c - d: the two endpoints are automorphic, the interior
  // vertices are not endpoints.
  Hypergraph path = MakePath(4);
  SpecialEdgeRegistry registry(path.num_vertices());
  ExtendedSubhypergraph full = ExtendedSubhypergraph::FullGraph(path);

  util::DynamicBitset no_conn(path.num_vertices());
  util::DynamicBitset end_a = util::DynamicBitset::FromIndices(path.num_vertices(), {0});
  util::DynamicBitset end_b =
      util::DynamicBitset::FromIndices(path.num_vertices(), {3});
  util::DynamicBitset middle =
      util::DynamicBitset::FromIndices(path.num_vertices(), {1});

  auto fp = [&](const util::DynamicBitset& conn) {
    return service::FingerprintSubhypergraph(path, registry, full, conn)
        .fingerprint.ToHex();
  };
  EXPECT_NE(fp(no_conn), fp(end_a)) << "connector must colour the structure";
  EXPECT_EQ(fp(end_a), fp(end_b)) << "automorphic connectors must coincide";
  EXPECT_NE(fp(end_a), fp(middle));
}

TEST(FingerprintSubhypergraphTest, SpecialEdgesAreDistinguished) {
  // One triangle; the same vertex set once as a normal edge and once as a
  // special edge must fingerprint differently.
  Hypergraph graph;
  int a = graph.AddVertex(), b = graph.AddVertex(), c = graph.AddVertex();
  ASSERT_TRUE(graph.AddEdge({a, b}).ok());
  ASSERT_TRUE(graph.AddEdge({b, c}).ok());
  ASSERT_TRUE(graph.AddEdge({a, c}).ok());

  SpecialEdgeRegistry registry(graph.num_vertices());
  int special = registry.Add(
      util::DynamicBitset::FromIndices(graph.num_vertices(), {a, c}), {2});

  ExtendedSubhypergraph with_edge;
  with_edge.edges = util::DynamicBitset::FromIndices(graph.num_edges(), {0, 1, 2});
  with_edge.edge_count = 3;

  ExtendedSubhypergraph with_special;
  with_special.edges = util::DynamicBitset::FromIndices(graph.num_edges(), {0, 1});
  with_special.edge_count = 2;
  with_special.specials = {special};

  util::DynamicBitset no_conn(graph.num_vertices());
  auto fp_edge =
      service::FingerprintSubhypergraph(graph, registry, with_edge, no_conn);
  auto fp_special =
      service::FingerprintSubhypergraph(graph, registry, with_special, no_conn);
  EXPECT_NE(fp_edge.fingerprint.ToHex(), fp_special.fingerprint.ToHex());
  EXPECT_EQ(fp_special.special_order.size(), 1u);
  EXPECT_EQ(fp_special.special_order[0], special);
}

TEST(SubproblemStoreTest, NegativeDominanceOverAllowedTraces) {
  Hypergraph graph = MakeCycle(6);
  SpecialEdgeRegistry registry(graph.num_vertices());
  util::DynamicBitset conn(graph.num_vertices());

  util::DynamicBitset narrow(graph.num_edges());
  for (int e = 0; e < 4; ++e) narrow.Set(e);

  SubproblemStore store;
  auto narrow_key = SubproblemStore::MakeKey(
      graph, registry, ExtendedSubhypergraph::FullGraph(graph), conn, narrow, 2);
  auto full_key = FullGraphKey(graph, registry, conn, 2);

  store.InsertNegative(narrow_key);
  // The recorded failure used a narrower allowed set: it dominates itself...
  EXPECT_EQ(store.Lookup(narrow_key, graph, nullptr), SubproblemStore::Hit::kNegative);
  // ...but not the full-allowed query (more labels might succeed).
  EXPECT_EQ(store.Lookup(full_key, graph, nullptr), SubproblemStore::Hit::kMiss);

  store.InsertNegative(full_key);
  EXPECT_EQ(store.Lookup(full_key, graph, nullptr), SubproblemStore::Hit::kNegative);
  // Full-allowed failure dominates the narrower query too.
  EXPECT_EQ(store.Lookup(narrow_key, graph, nullptr),
            SubproblemStore::Hit::kNegative);

  // A different width parameter is a different subproblem.
  auto other_k = FullGraphKey(graph, registry, conn, 3);
  EXPECT_EQ(store.Lookup(other_k, graph, nullptr), SubproblemStore::Hit::kMiss);
}

TEST(SubproblemStoreTest, PositiveFragmentRehydratesAcrossInstances) {
  Hypergraph graph = MakeCycle(6);  // hw = 2
  SubproblemStore store;
  SolveOptions options;
  options.subproblem_store = &store;
  options.validate_result = true;

  LogKDecomp producer(options);
  SolveResult first = producer.Solve(graph, 2);
  ASSERT_EQ(first.outcome, Outcome::kYes);
  ASSERT_GT(store.GetStats().positive_inserts, 0u);

  Hypergraph renamed = RenameAndShuffle(graph, 99);
  LogKDecomp consumer(options);
  SolveResult second = consumer.Solve(renamed, 2);
  ASSERT_EQ(second.outcome, Outcome::kYes);
  EXPECT_GT(second.stats.store_positive_hits, 0)
      << "isomorphic instance must reuse recorded fragments";
  ASSERT_TRUE(second.decomposition.has_value());
  Validation validation = ValidateHdWithWidth(renamed, *second.decomposition, 2);
  EXPECT_TRUE(validation.ok) << validation.error;
}

TEST(SubproblemStoreTest, NegativeOutcomesShortCircuitAcrossInstances) {
  Hypergraph clique = MakeClique(5);  // hw(K5) = 3: k = 2 is a deep refutation
  SubproblemStore store;
  SolveOptions options;
  options.subproblem_store = &store;

  LogKDecomp first_solver(options);
  SolveResult first = first_solver.Solve(clique, 2);
  ASSERT_EQ(first.outcome, Outcome::kNo);
  ASSERT_GT(store.GetStats().negative_inserts, 0u);

  Hypergraph renamed = RenameAndShuffle(clique, 7);
  LogKDecomp second_solver(options);
  SolveResult second = second_solver.Solve(renamed, 2);
  EXPECT_EQ(second.outcome, Outcome::kNo);
  EXPECT_GT(second.stats.store_negative_hits, 0);
  // The renamed root subproblem is the recorded one: refuted without search.
  EXPECT_LT(second.stats.separators_tried, first.stats.separators_tried);
}

TEST(SubproblemStoreTest, DetKSharesEntriesWithLogK) {
  Hypergraph clique = MakeClique(5);
  SubproblemStore store;
  SolveOptions options;
  options.subproblem_store = &store;

  LogKDecomp logk(options);
  ASSERT_EQ(logk.Solve(clique, 2).outcome, Outcome::kNo);

  DetKDecomp detk(options);
  SolveResult refuted = detk.Solve(RenameAndShuffle(clique, 3), 2);
  EXPECT_EQ(refuted.outcome, Outcome::kNo);
  EXPECT_GT(refuted.stats.store_negative_hits, 0)
      << "det-k must reuse log-k's recorded failures";

  ASSERT_EQ(logk.Solve(MakeCycle(6), 2).outcome, Outcome::kYes);
  SolveOptions validate = options;
  validate.validate_result = true;
  DetKDecomp validating(validate);
  SolveResult found = validating.Solve(RenameAndShuffle(MakeCycle(6), 4), 2);
  EXPECT_EQ(found.outcome, Outcome::kYes);
  EXPECT_GT(found.stats.store_positive_hits, 0);
}

TEST(SubproblemStoreTest, BasicVariantConsumesButNeverInserts) {
  Hypergraph clique = MakeClique(5);
  SubproblemStore store;
  SolveOptions options;
  options.subproblem_store = &store;

  // A basic-only run may probe but must record nothing.
  LogKDecompBasic lone(options);
  ASSERT_EQ(lone.Solve(clique, 2).outcome, Outcome::kNo);
  EXPECT_EQ(store.GetStats().negative_inserts, 0u);
  EXPECT_EQ(store.GetStats().positive_inserts, 0u);

  // After log-k populates the store, basic reuses the entries.
  LogKDecomp producer(options);
  ASSERT_EQ(producer.Solve(clique, 2).outcome, Outcome::kNo);
  LogKDecompBasic consumer(options);
  SolveResult result = consumer.Solve(RenameAndShuffle(clique, 11), 2);
  EXPECT_EQ(result.outcome, Outcome::kNo);
  EXPECT_GT(result.stats.store_negative_hits, 0);
}

// The store must never change answers: solvers sharing one store across
// many instances and widths agree with a store-free reference, and every
// positive decomposition validates.
class SharedStoreAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SharedStoreAgreementTest, AgreesWithReferenceEverywhere) {
  const uint64_t seed = GetParam();
  util::Rng rng(seed);
  Hypergraph graph;
  switch (seed % 4) {
    case 0: graph = MakeRandomCsp(rng, 12, 8, 2, 4); break;
    case 1: graph = MakeClique(5); break;
    case 2: graph = MakeGrid(3, 3); break;
    default: graph = MakeRandomCq(rng, 9, 4, 0.4); break;
  }

  // One store shared across the instance AND its renaming AND all widths —
  // maximal cross-pollution.
  SubproblemStore::Options store_options;
  store_options.min_subproblem_size = 2;  // exercise small subproblems too
  SubproblemStore store(store_options);
  SolveOptions stored_options;
  stored_options.subproblem_store = &store;
  stored_options.validate_result = true;

  for (const Hypergraph& instance : {graph, RenameAndShuffle(graph, seed + 100)}) {
    for (int k = 1; k <= 3; ++k) {
      LogKDecomp reference;
      LogKDecomp stored(stored_options);
      SolveResult expected = reference.Solve(instance, k);
      SolveResult actual = stored.Solve(instance, k);
      ASSERT_EQ(expected.outcome, actual.outcome) << "seed=" << seed << " k=" << k;
      if (actual.outcome == Outcome::kYes) {
        Validation validation = ValidateHdWithWidth(instance, *actual.decomposition, k);
        ASSERT_TRUE(validation.ok)
            << validation.error << " seed=" << seed << " k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedStoreAgreementTest, ::testing::Range(0, 12));

TEST(SubproblemStoreTest, ConcurrentInsertAndQueryKeepDominance) {
  // Nested allowed sets over one subproblem: whatever interleaving the
  // threads produce, the surviving antichain entry dominates every inserted
  // set, so a lookup right after one's own insert must hit.
  Hypergraph graph = MakeCycle(8);
  SpecialEdgeRegistry registry(graph.num_vertices());
  util::DynamicBitset conn(graph.num_vertices());
  ExtendedSubhypergraph full = ExtendedSubhypergraph::FullGraph(graph);

  SubproblemStore store;
  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        int prefix = 2 + (round + t) % (graph.num_edges() - 1);
        util::DynamicBitset allowed(graph.num_edges());
        for (int e = 0; e < prefix; ++e) allowed.Set(e);
        auto key = SubproblemStore::MakeKey(graph, registry, full, conn, allowed,
                                            /*k=*/2);
        store.InsertNegative(key);
        EXPECT_EQ(store.Lookup(key, graph, nullptr),
                  SubproblemStore::Hit::kNegative)
            << "thread " << t << " round " << round;

        // Distinct per-thread keys churn other shards concurrently.
        auto churn = SubproblemStore::MakeKey(graph, registry, full, conn, allowed,
                                              /*k=*/10 + t);
        store.InsertNegative(churn);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(store.num_entries(), 0u);

  // The nested inserts collapse into one ⊆-maximal recorded set.
  util::DynamicBitset widest(graph.num_edges());
  for (int e = 0; e < graph.num_edges() - 1; ++e) widest.Set(e);
  auto widest_key =
      SubproblemStore::MakeKey(graph, registry, full, conn, widest, /*k=*/2);
  EXPECT_EQ(store.Lookup(widest_key, graph, nullptr),
            SubproblemStore::Hit::kNegative);
}

TEST(SubproblemStoreTest, ConcurrentPositiveInsertAndDecode) {
  Hypergraph graph = MakeCycle(6);
  SubproblemStore store;
  SolveOptions options;
  options.subproblem_store = &store;
  options.validate_result = true;

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        LogKDecomp solver(options);
        Hypergraph instance = RenameAndShuffle(graph, t * 17 + round);
        SolveResult result = solver.Solve(instance, 2);
        EXPECT_EQ(result.outcome, Outcome::kYes);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  SubproblemStore::Stats stats = store.GetStats();
  EXPECT_GT(stats.positive_inserts, 0u);
}

TEST(SubproblemStoreTest, EvictsUnderByteBudget) {
  Hypergraph graph = MakeCycle(24);
  SpecialEdgeRegistry registry(graph.num_vertices());
  util::DynamicBitset conn(graph.num_vertices());

  SubproblemStore::Options options;
  options.byte_budget = 2000;
  options.num_shards = 1;
  SubproblemStore store(options);

  // Paths of distinct lengths: non-isomorphic, so every insert is a fresh key.
  const int kWindows = 16;
  for (int length = 2; length < 2 + kWindows; ++length) {
    ExtendedSubhypergraph window;
    window.edges = util::DynamicBitset(graph.num_edges());
    for (int i = 0; i < length; ++i) window.edges.Set(i);
    window.edge_count = length;
    auto key = SubproblemStore::MakeKey(graph, registry, window, conn,
                                        graph.AllEdges(), 2);
    store.InsertNegative(key);
  }
  SubproblemStore::Stats stats = store.GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, static_cast<size_t>(kWindows));
  EXPECT_LE(stats.bytes, options.byte_budget);
}

TEST(SubproblemStoreTest, ServiceSharesOneStoreAcrossJobs) {
  service::ServiceOptions options;
  options.enable_subproblem_store = true;
  options.solve.validate_result = true;
  // The whole-instance result cache would serve isomorphic resubmissions
  // outright (renamings share the canonical fingerprint); disable it so the
  // jobs reach the solvers and exercise the subproblem store.
  options.enable_result_cache = false;

  auto service_or = service::DecompositionService::Create(options);
  ASSERT_TRUE(service_or.ok()) << service_or.status().message();
  auto& service = *service_or.value();

  // Isomorphic positives and isomorphic negatives, interleaved.
  Hypergraph cycle = MakeCycle(6);
  Hypergraph clique = MakeClique(5);
  std::vector<Hypergraph> graphs;
  std::vector<int> widths;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    graphs.push_back(RenameAndShuffle(cycle, seed));
    widths.push_back(2);
    graphs.push_back(RenameAndShuffle(clique, seed));
    widths.push_back(2);
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    service::JobResult result = service.Solve(graphs[i], widths[i]);
    if (widths[i] == 2 && graphs[i].num_edges() == 6) {
      EXPECT_EQ(result.result.outcome, Outcome::kYes);
    }
  }
  service.Drain();
  SubproblemStore::Stats stats = service.subproblem_stats();
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GT(stats.negative_hits + stats.positive_hits, 0u)
      << "isomorphic jobs must share subproblem entries";
}

TEST(SubproblemStoreTest, ServiceRejectsCallerOwnedStore) {
  SubproblemStore store;
  service::ServiceOptions options;
  options.solve.subproblem_store = &store;
  auto service_or = service::DecompositionService::Create(options);
  EXPECT_FALSE(service_or.ok());
}

}  // namespace
}  // namespace htd
