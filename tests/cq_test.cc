#include "cq/yannakakis.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/opt_solver.h"
#include "core/log_k_decomp.h"
#include "cq/database.h"
#include "cq/query.h"
#include "hypergraph/generators.h"
#include "qa/portfolio.h"
#include "service/canonical.h"
#include "util/rng.h"

namespace htd::cq {
namespace {

TEST(QueryParseTest, Basic) {
  auto query = ParseQuery("R(X,Y), S(Y,Z).");
  ASSERT_TRUE(query.ok()) << query.status().message();
  ASSERT_EQ(query->atoms.size(), 2u);
  EXPECT_EQ(query->atoms[0].relation, "R");
  EXPECT_EQ(query->atoms[0].variables, (std::vector<std::string>{"X", "Y"}));
}

TEST(QueryParseTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("R(X").ok());
  EXPECT_FALSE(ParseQuery("R()").ok());
  EXPECT_FALSE(ParseQuery("(X,Y)").ok());
}

TEST(QueryHypergraphTest, SharedVariables) {
  auto query = ParseQuery("R(X,Y), S(Y,Z), T(Z,X).");
  ASSERT_TRUE(query.ok());
  Hypergraph graph = QueryHypergraph(*query);
  EXPECT_EQ(graph.num_vertices(), 3);
  EXPECT_EQ(graph.num_edges(), 3);
  EXPECT_TRUE(graph.edge_vertices(0).Intersects(graph.edge_vertices(1)));
}

TEST(QueryHypergraphTest, RepeatedVariableCollapses) {
  auto query = ParseQuery("R(X,X,Y).");
  ASSERT_TRUE(query.ok());
  Hypergraph graph = QueryHypergraph(*query);
  EXPECT_EQ(graph.edge_vertex_list(0).size(), 2u);
}

class YannakakisTest : public ::testing::Test {
 protected:
  // Decomposes the query's hypergraph with log-k-decomp at optimal width.
  Decomposition Decompose(const Query& query) {
    LogKDecomp solver;
    OptimalRun run = FindOptimalWidth(solver, QueryHypergraph(query), 10);
    HTD_CHECK(run.outcome == Outcome::kYes);
    return std::move(*run.decomposition);
  }
};

TEST_F(YannakakisTest, SimpleSatisfiableJoin) {
  auto query = ParseQuery("R(X,Y), S(Y,Z).");
  ASSERT_TRUE(query.ok());
  Database db;
  db.AddRelation({"R", 2, {{1, 2}, {3, 4}}});
  db.AddRelation({"S", 2, {{2, 5}}});
  auto result = EvaluateWithDecomposition(*query, db, Decompose(*query));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result->satisfiable);
  EXPECT_EQ(result->witness.at("X"), 1);
  EXPECT_EQ(result->witness.at("Y"), 2);
  EXPECT_EQ(result->witness.at("Z"), 5);
}

TEST_F(YannakakisTest, UnsatisfiableJoin) {
  auto query = ParseQuery("R(X,Y), S(Y,Z).");
  ASSERT_TRUE(query.ok());
  Database db;
  db.AddRelation({"R", 2, {{1, 2}}});
  db.AddRelation({"S", 2, {{3, 4}}});
  auto result = EvaluateWithDecomposition(*query, db, Decompose(*query));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->satisfiable);
}

TEST_F(YannakakisTest, CyclicQueryTriangle) {
  auto query = ParseQuery("R(X,Y), S(Y,Z), T(Z,X).");
  ASSERT_TRUE(query.ok());
  Database db;
  db.AddRelation({"R", 2, {{1, 2}, {2, 3}}});
  db.AddRelation({"S", 2, {{2, 3}, {3, 1}}});
  db.AddRelation({"T", 2, {{3, 1}, {1, 2}}});
  auto result = EvaluateWithDecomposition(*query, db, Decompose(*query));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfiable);
  // Verify the witness satisfies every atom.
  int64_t x = result->witness.at("X");
  int64_t y = result->witness.at("Y");
  int64_t z = result->witness.at("Z");
  EXPECT_TRUE((x == 1 && y == 2 && z == 3));
}

TEST_F(YannakakisTest, RepeatedVariableAtom) {
  auto query = ParseQuery("R(X,X).");
  ASSERT_TRUE(query.ok());
  Database db;
  db.AddRelation({"R", 2, {{1, 2}, {3, 3}}});
  auto result = EvaluateWithDecomposition(*query, db, Decompose(*query));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfiable);
  EXPECT_EQ(result->witness.at("X"), 3);
}

TEST_F(YannakakisTest, MissingRelationReported) {
  auto query = ParseQuery("R(X,Y).");
  ASSERT_TRUE(query.ok());
  Database db;
  auto result = EvaluateWithDecomposition(*query, db, Decompose(*query));
  EXPECT_FALSE(result.ok());
}

TEST_F(YannakakisTest, ArityMismatchReported) {
  auto query = ParseQuery("R(X,Y).");
  ASSERT_TRUE(query.ok());
  Database db;
  db.AddRelation({"R", 3, {{1, 2, 3}}});
  auto result = EvaluateWithDecomposition(*query, db, Decompose(*query));
  EXPECT_FALSE(result.ok());
}

// A tree that covers every atom but whose bags its λ-atoms do not cover, or
// that holds a node with an empty λ, cannot be evaluated: both entry points
// must refuse it with a Status instead of aborting.
TEST_F(YannakakisTest, TreesThatCannotBeEvaluatedFailClosed) {
  auto query = ParseQuery("R(X,Y), S(Y,Z).");
  ASSERT_TRUE(query.ok());
  Database db;
  db.AddRelation({"R", 2, {{1, 2}}});
  db.AddRelation({"S", 2, {{2, 5}}});
  // Vertices by first occurrence: X=0, Y=1, Z=2; atoms R=0, S=1.
  Decomposition uncovered_bag;
  uncovered_bag.AddNode({0}, util::DynamicBitset::FromIndices(3, {0, 1, 2}), -1);
  Decomposition empty_lambda;
  int root = empty_lambda.AddNode({0, 1},
                                  util::DynamicBitset::FromIndices(3, {0, 1, 2}), -1);
  empty_lambda.AddNode({}, util::DynamicBitset::FromIndices(3, {1}), root);
  for (const Decomposition* tree : {&uncovered_bag, &empty_lambda}) {
    auto eval = EvaluateWithDecomposition(*query, db, *tree);
    EXPECT_FALSE(eval.ok());
    EXPECT_EQ(eval.status().code(), util::StatusCode::kInvalidArgument);
    auto count = CountSolutions(*query, db, *tree);
    EXPECT_FALSE(count.ok());
  }
}

// Differential testing: HD-guided evaluation must agree with brute force on
// random queries and databases, and its witnesses must satisfy every atom.
class YannakakisPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(YannakakisPropertyTest, AgreesWithBruteForce) {
  util::Rng rng(GetParam());
  // Random chain query with some cross joins; small domain so both outcomes
  // occur across seeds.
  auto query = ParseQuery([&] {
    std::string text;
    int atoms = rng.UniformInt(3, 6);
    for (int i = 0; i < atoms; ++i) {
      if (i > 0) text += ", ";
      text += "R" + std::to_string(i) + "(V" + std::to_string(i) + ",V" +
              std::to_string(i + 1) + ")";
    }
    text += ", C(V0,V" + std::to_string(rng.UniformInt(1, 3)) + ").";
    return text;
  }());
  ASSERT_TRUE(query.ok());
  Database db = RandomDatabase(rng, *query, /*domain_size=*/4,
                               /*tuples_per_relation=*/6,
                               /*satisfiable_bias=*/0.6);

  LogKDecomp solver;
  OptimalRun run = FindOptimalWidth(solver, QueryHypergraph(*query), 10);
  ASSERT_EQ(run.outcome, Outcome::kYes);

  auto fast = EvaluateWithDecomposition(*query, db, *run.decomposition);
  auto slow = EvaluateBruteForce(*query, db);
  ASSERT_TRUE(fast.ok()) << fast.status().message();
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast->satisfiable, slow->satisfiable) << "seed " << GetParam();

  if (fast->satisfiable) {
    // The witness must satisfy every atom.
    for (const Atom& atom : query->atoms) {
      const Relation* rel = db.Find(atom.relation);
      ASSERT_NE(rel, nullptr);
      Tuple expected;
      for (const auto& variable : atom.variables) {
        expected.push_back(fast->witness.at(variable));
      }
      bool found = false;
      for (const Tuple& t : rel->tuples) {
        if (t == expected) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "witness violates atom " << atom.relation << " (seed "
                         << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YannakakisPropertyTest, ::testing::Range(0, 25));

// Portfolio cross-check: every decomposition the portfolio retains for a
// query — the first-found one AND the higher-k diversity probes — must
// agree with the brute-force oracles on satisfiability, witness validity,
// and the exact count. A portfolio that stored a tree unsound for execution
// would otherwise surface as a wrong answer only when PickBest happens to
// choose it.
class PortfolioPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PortfolioPropertyTest, EveryRetainedCandidateAgreesWithBruteForce) {
  util::Rng rng(GetParam() + 5000);
  auto query = ParseQuery([&] {
    std::string text;
    int atoms = rng.UniformInt(3, 6);
    for (int i = 0; i < atoms; ++i) {
      if (i > 0) text += ", ";
      text += "R" + std::to_string(i) + "(V" + std::to_string(i) + ",V" +
              std::to_string(i + 1) + ")";
    }
    text += ", C(V0,V" + std::to_string(rng.UniformInt(1, 3)) + ").";
    return text;
  }());
  ASSERT_TRUE(query.ok());
  Database db = RandomDatabase(rng, *query, /*domain_size=*/4,
                               /*tuples_per_relation=*/6,
                               /*satisfiable_bias=*/0.6);
  Hypergraph graph = QueryHypergraph(*query);
  const service::Fingerprint fp = service::CanonicalFingerprint(graph);

  // Populate like the query engine does: first kYes, then diversity probes.
  LogKDecomp solver;
  qa::DecompositionPortfolio portfolio;
  OptimalRun run = FindOptimalWidth(solver, graph, 10);
  ASSERT_EQ(run.outcome, Outcome::kYes);
  portfolio.Insert(fp, graph, *run.decomposition);
  for (int k = run.width + 1; k <= std::min(run.width + 2, graph.num_edges());
       ++k) {
    SolveResult probe = solver.Solve(graph, k);
    ASSERT_EQ(probe.outcome, Outcome::kYes);
    portfolio.Insert(fp, graph, *probe.decomposition);
  }

  auto oracle_sat = EvaluateBruteForce(*query, db);
  auto oracle_count = CountSolutionsBruteForce(*query, db);
  ASSERT_TRUE(oracle_sat.ok());
  ASSERT_TRUE(oracle_count.ok());

  std::vector<Decomposition> candidates = portfolio.Candidates(fp, graph);
  ASSERT_GE(candidates.size(), 1u);
  for (size_t c = 0; c < candidates.size(); ++c) {
    auto fast = EvaluateWithDecomposition(*query, db, candidates[c]);
    ASSERT_TRUE(fast.ok()) << fast.status().message();
    EXPECT_EQ(fast->satisfiable, oracle_sat->satisfiable)
        << "candidate " << c << ", seed " << GetParam();
    if (fast->satisfiable) {
      for (const Atom& atom : query->atoms) {
        const Relation* rel = db.Find(atom.relation);
        ASSERT_NE(rel, nullptr);
        Tuple expected;
        for (const auto& variable : atom.variables) {
          expected.push_back(fast->witness.at(variable));
        }
        EXPECT_NE(std::find(rel->tuples.begin(), rel->tuples.end(), expected),
                  rel->tuples.end())
            << "candidate " << c << " witness violates " << atom.relation
            << " (seed " << GetParam() << ")";
      }
    }
    auto count = CountSolutions(*query, db, candidates[c]);
    ASSERT_TRUE(count.ok()) << count.status().message();
    EXPECT_FALSE(count->saturated);
    EXPECT_EQ(count->value, *oracle_count)
        << "candidate " << c << ", seed " << GetParam();
  }

  // PickBest must return one of the retained candidates, and on a database
  // with one huge relation the baseline should never cost LESS than the
  // portfolio's choice (PickBest minimises the estimate).
  std::vector<uint64_t> cardinalities;
  for (const Atom& atom : query->atoms) {
    cardinalities.push_back(db.Find(atom.relation)->tuples.size());
  }
  auto best = portfolio.PickBest(fp, graph, cardinalities);
  auto first = portfolio.PickFirst(fp, graph, cardinalities);
  ASSERT_TRUE(best.has_value());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(best->num_candidates, static_cast<int>(candidates.size()));
  EXPECT_LE(best->estimated_cost, first->estimated_cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioPropertyTest, ::testing::Range(0, 20));

// Differential executor test on perfbench serve-query's shapes: cycles,
// tree-shaped acyclic queries and random CQs with atoms of arity up to 3.
// Some atoms repeat a variable, some relations are empty or hold duplicate
// tuples. Both the optimal-width tree and one found at width + 1 must agree
// with the brute-force oracles.
class ExecutorDifferentialTest : public ::testing::TestWithParam<int> {};

Query ServeQueryShape(util::Rng& rng, int shape) {
  const int atoms = rng.UniformInt(4, 8);
  Hypergraph graph = shape == 0   ? MakeCycle(atoms)
                     : shape == 1 ? MakeAcyclicQuery(rng, atoms, 3)
                                  : MakeRandomCq(rng, atoms, 3, 0.3);
  Query query;
  for (int e = 0; e < graph.num_edges(); ++e) {
    Atom atom;
    atom.relation = "R" + std::to_string(e);
    for (int v : graph.edge_vertex_list(e)) {
      atom.variables.push_back("X" + std::to_string(v));
    }
    // R(X,Y,X): the repeat adds a column, not a vertex.
    if (rng.Chance(0.25)) atom.variables.push_back(atom.variables.front());
    query.atoms.push_back(std::move(atom));
  }
  return query;
}

TEST_P(ExecutorDifferentialTest, AgreesWithBruteForceOnServeQueryShapes) {
  const int seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  util::Rng rng(seed + 7000);
  Query query = ServeQueryShape(rng, seed % 3);
  Database db = RandomDatabase(rng, query, /*domain_size=*/5,
                               /*tuples_per_relation=*/10,
                               /*satisfiable_bias=*/0.7);
  for (const Atom& atom : query.atoms) {
    Relation relation = *db.Find(atom.relation);
    if (rng.Chance(0.05)) {
      relation.tuples.clear();
    } else if (rng.Chance(0.3)) {
      const size_t n = relation.tuples.size();
      for (size_t i = 0; i < n; i += 2) relation.tuples.push_back(relation.tuples[i]);
    }
    db.AddRelation(std::move(relation));
  }

  Hypergraph graph = QueryHypergraph(query);
  LogKDecomp solver;
  OptimalRun run = FindOptimalWidth(solver, graph, 10);
  ASSERT_EQ(run.outcome, Outcome::kYes);
  std::vector<Decomposition> trees;
  trees.push_back(*run.decomposition);
  if (run.width + 1 <= graph.num_edges()) {
    SolveResult wider = solver.Solve(graph, run.width + 1);
    ASSERT_EQ(wider.outcome, Outcome::kYes);
    trees.push_back(*wider.decomposition);
  }

  auto oracle_sat = EvaluateBruteForce(query, db);
  auto oracle_count = CountSolutionsBruteForce(query, db);
  ASSERT_TRUE(oracle_sat.ok());
  ASSERT_TRUE(oracle_count.ok());
  EXPECT_EQ(oracle_sat->satisfiable, *oracle_count > 0);

  for (size_t t = 0; t < trees.size(); ++t) {
    SCOPED_TRACE("tree " + std::to_string(t));
    auto eval = EvaluateWithDecomposition(query, db, trees[t]);
    ASSERT_TRUE(eval.ok()) << eval.status().message();
    EXPECT_EQ(eval->satisfiable, oracle_sat->satisfiable);
    if (eval->satisfiable) {
      for (const Atom& atom : query.atoms) {
        Tuple expected;
        for (const auto& variable : atom.variables) {
          expected.push_back(eval->witness.at(variable));
        }
        const Relation* rel = db.Find(atom.relation);
        EXPECT_NE(std::find(rel->tuples.begin(), rel->tuples.end(), expected),
                  rel->tuples.end())
            << "witness violates " << atom.relation;
      }
    }
    auto count = CountSolutions(query, db, trees[t]);
    ASSERT_TRUE(count.ok()) << count.status().message();
    EXPECT_FALSE(count->saturated);
    EXPECT_EQ(count->value, *oracle_count);
    // One pass answers the same: satisfiability, witness and count.
    auto one_pass = EvaluateWithDecomposition(query, db, trees[t],
                                              /*count_solutions=*/true);
    ASSERT_TRUE(one_pass.ok()) << one_pass.status().message();
    EXPECT_EQ(one_pass->satisfiable, eval->satisfiable);
    EXPECT_EQ(one_pass->witness, eval->witness);
    EXPECT_EQ(one_pass->count.value, count->value);
    EXPECT_EQ(one_pass->count.saturated, count->saturated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferentialTest, ::testing::Range(0, 80));

}  // namespace
}  // namespace htd::cq
