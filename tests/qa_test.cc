// Tests for the query-answering subsystem: the HTDQUERY1 wire codec (strict
// parse/render, fuzzed like HTDDIGEST1 in anti_entropy_test.cc), the scored
// decomposition portfolio, and the decompose-and-execute QueryEngine running
// through a real DecompositionService.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/log_k_decomp.h"
#include "cq/database.h"
#include "cq/query.h"
#include "cq/yannakakis.h"
#include "hypergraph/generators.h"
#include "qa/portfolio.h"
#include "qa/query_engine.h"
#include "qa/wire.h"
#include "service/canonical.h"
#include "service/service.h"
#include "util/rng.h"

namespace htd::qa {
namespace {

cq::Database SampleDatabase() {
  cq::Database db;
  db.AddRelation({"R", 2, {{1, 2}, {3, 2}, {4, 5}}});
  db.AddRelation({"S", 2, {{2, 7}, {2, 8}, {5, 9}}});
  return db;
}

std::string SampleRequestText() {
  auto query = cq::ParseQuery("R(X,Y), S(Y,Z).");
  HTD_CHECK(query.ok());
  auto text = RenderQueryRequest(*query, SampleDatabase());
  HTD_CHECK(text.ok());
  return *text;
}

TEST(QueryWireTest, RenderParseRoundTrips) {
  std::string text = SampleRequestText();
  auto parsed = ParseQueryRequest(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->query.atoms.size(), 2u);
  auto rerendered = RenderQueryRequest(parsed->query, parsed->db);
  ASSERT_TRUE(rerendered.ok());
  EXPECT_EQ(*rerendered, text);
}

TEST(QueryWireTest, DuplicateTuplesRenderCanonically) {
  auto query = cq::ParseQuery("R(X,Y).");
  ASSERT_TRUE(query.ok());
  cq::Database messy;
  messy.AddRelation({"R", 2, {{3, 4}, {1, 2}, {3, 4}, {1, 2}}});
  cq::Database tidy;
  tidy.AddRelation({"R", 2, {{1, 2}, {3, 4}}});
  auto a = RenderQueryRequest(*query, messy);
  auto b = RenderQueryRequest(*query, tidy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // set semantics: logically equal inputs, one rendering
}

TEST(QueryWireTest, RejectsTruncationAtEveryLength) {
  std::string text = SampleRequestText();
  for (size_t len = 0; len < text.size(); ++len) {
    auto parsed = ParseQueryRequest(text.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes accepted";
  }
}

TEST(QueryWireTest, BitFlipsFailOrStayCanonical) {
  // A flipped byte can still spell a VALID request (a different constant in
  // a tuple is indistinguishable from honest content) — what must never
  // happen is an accepted parse that is not canonical: every accepted
  // mutant re-renders byte-identically, so nothing structurally odd (count
  // drift, order violations, spacing) gets through.
  std::string text = SampleRequestText();
  util::Rng rng(17);
  for (int trial = 0; trial < 600; ++trial) {
    std::string corrupt = text;
    size_t pos = rng.Next64() % corrupt.size();
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (trial % 8)));
    if (corrupt == text) continue;
    auto parsed = ParseQueryRequest(corrupt);
    if (parsed.ok()) {
      auto rerendered = RenderQueryRequest(parsed->query, parsed->db);
      ASSERT_TRUE(rerendered.ok());
      EXPECT_EQ(*rerendered, corrupt)
          << "accepted mutants must be canonical (flip at " << pos << ")";
    }
  }
}

TEST(QueryWireTest, RejectsStructuralLies) {
  std::string text = SampleRequestText();
  EXPECT_FALSE(ParseQueryRequest("").ok());
  EXPECT_FALSE(ParseQueryRequest("HTDQUERY2" + text.substr(9)).ok());
  EXPECT_FALSE(ParseQueryRequest(text + "x").ok());          // trailing bytes
  EXPECT_FALSE(ParseQueryRequest(text + "\n").ok());         // extra line
  EXPECT_FALSE(
      ParseQueryRequest(text.substr(0, text.size() - 1)).ok());  // no final \n

  // Tuples out of ascending order.
  std::string swapped = text;
  size_t a = swapped.find("1 2\n");
  ASSERT_NE(a, std::string::npos);
  swapped.replace(a, 4, "3 2\n");
  size_t b = swapped.find("3 2\n", a + 4);
  ASSERT_NE(b, std::string::npos);
  swapped.replace(b, 4, "1 2\n");
  EXPECT_FALSE(ParseQueryRequest(swapped).ok());

  // Duplicate tuple (count patched to match, so only ordering can object).
  std::string duplicated = text;
  duplicated.replace(duplicated.find("3 2\n"), 4, "1 2\n");
  EXPECT_FALSE(ParseQueryRequest(duplicated).ok());

  // Non-canonical integer spelling.
  std::string padded = text;
  padded.replace(padded.find("1 2\n"), 4, "01 2\n");
  EXPECT_FALSE(ParseQueryRequest(padded).ok());

  // Relation count lies.
  std::string miscounted = text;
  miscounted.replace(miscounted.find("HTDQUERY1 2"), 11, "HTDQUERY1 3");
  EXPECT_FALSE(ParseQueryRequest(miscounted).ok());
}

TEST(QueryWireTest, RenderRejectsInvalidRequests) {
  auto query = cq::ParseQuery("R(X,Y), S(Y,Z).");
  ASSERT_TRUE(query.ok());
  cq::Database missing;  // no S
  missing.AddRelation({"R", 2, {{1, 2}}});
  EXPECT_FALSE(RenderQueryRequest(*query, missing).ok());

  cq::Database wrong_arity;
  wrong_arity.AddRelation({"R", 2, {{1, 2}}});
  wrong_arity.AddRelation({"S", 3, {{1, 2, 3}}});
  EXPECT_FALSE(RenderQueryRequest(*query, wrong_arity).ok());

  auto mixed = cq::ParseQuery("R(X,Y), R(X,Y,Z).");
  ASSERT_TRUE(mixed.ok());
  EXPECT_FALSE(RenderQueryRequest(*mixed, SampleDatabase()).ok());
}

// ---------------------------------------------------------------------------
// Portfolio.

struct Solved {
  Hypergraph graph;
  service::Fingerprint fingerprint;
  Decomposition first;  // width-1 chain decomposition
  Decomposition wide;   // a k=2 solve of the same graph
};

Solved SolveChain() {
  auto query = cq::ParseQuery("R(X,Y), S(Y,Z), T(Z,W).");
  HTD_CHECK(query.ok());
  Solved out{cq::QueryHypergraph(*query), {}, {}, {}};
  out.fingerprint = service::CanonicalFingerprint(out.graph);
  LogKDecomp solver;
  SolveResult narrow = solver.Solve(out.graph, 1);
  HTD_CHECK(narrow.outcome == Outcome::kYes);
  out.first = *narrow.decomposition;
  SolveResult wide = solver.Solve(out.graph, 2);
  HTD_CHECK(wide.outcome == Outcome::kYes);
  out.wide = *wide.decomposition;
  return out;
}

TEST(PortfolioTest, InsertDedupsIdenticalShapes) {
  Solved s = SolveChain();
  DecompositionPortfolio portfolio;
  EXPECT_TRUE(portfolio.Insert(s.fingerprint, s.graph, s.first));
  EXPECT_FALSE(portfolio.Insert(s.fingerprint, s.graph, s.first));
  EXPECT_EQ(portfolio.CandidateCount(s.fingerprint, s.graph), 1);
}

TEST(PortfolioTest, FirstFoundBaselineSurvivesCapacityEviction) {
  Solved s = SolveChain();
  PortfolioOptions options;
  options.capacity_per_key = 1;
  DecompositionPortfolio portfolio(options);
  // Insert the WIDE tree first so a quality-based eviction would want to
  // replace it with the narrower one — slot 0 must survive regardless.
  ASSERT_TRUE(portfolio.Insert(s.fingerprint, s.graph, s.wide));
  EXPECT_FALSE(portfolio.Insert(s.fingerprint, s.graph, s.first));
  std::vector<Decomposition> kept = portfolio.Candidates(s.fingerprint, s.graph);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].Width(), s.wide.Width());
}

TEST(PortfolioTest, RejectsDecompositionOfADifferentGraph) {
  Solved s = SolveChain();
  auto other_query = cq::ParseQuery("R(X,Y), S(Y,Z), T(Z,W), U(W,V).");
  ASSERT_TRUE(other_query.ok());
  Hypergraph other = cq::QueryHypergraph(*other_query);
  DecompositionPortfolio portfolio;
  LogKDecomp solver;
  SolveResult run = solver.Solve(other, 1);
  ASSERT_EQ(run.outcome, Outcome::kYes);
  // A 5-vertex decomposition is not a decomposition of the 4-vertex chain:
  // its χ sets reference vertices outside every edge of s.graph.
  EXPECT_FALSE(portfolio.Insert(s.fingerprint, s.graph, *run.decomposition));
  EXPECT_EQ(portfolio.CandidateCount(s.fingerprint, s.graph), 0);
}

TEST(PortfolioTest, KeysSeparateLabelledGraphs) {
  Solved s = SolveChain();
  auto longer = cq::ParseQuery("R(X,Y), S(Y,Z), T(Z,W), U(W,V).");
  ASSERT_TRUE(longer.ok());
  Hypergraph other = cq::QueryHypergraph(*longer);
  EXPECT_NE(LabelledGraphDigest(s.graph), LabelledGraphDigest(other));
  EXPECT_EQ(LabelledGraphDigest(s.graph), LabelledGraphDigest(s.graph));

  DecompositionPortfolio portfolio;
  ASSERT_TRUE(portfolio.Insert(s.fingerprint, s.graph, s.first));
  EXPECT_EQ(portfolio.num_keys(), 1u);
  EXPECT_FALSE(portfolio.PickBest(s.fingerprint, other, {}).has_value());
}

TEST(PortfolioTest, PickBestMinimisesEstimatedCost) {
  Solved s = SolveChain();
  DecompositionPortfolio portfolio;
  ASSERT_TRUE(portfolio.Insert(s.fingerprint, s.graph, s.first));
  portfolio.Insert(s.fingerprint, s.graph, s.wide);
  // Whatever the candidate set is, PickBest never costs more than PickFirst
  // and reports a coherent (index, size) pair.
  std::vector<uint64_t> cardinalities = {1000, 3, 1000};
  auto best = portfolio.PickBest(s.fingerprint, s.graph, cardinalities);
  auto first = portfolio.PickFirst(s.fingerprint, s.graph, cardinalities);
  ASSERT_TRUE(best.has_value());
  ASSERT_TRUE(first.has_value());
  EXPECT_LE(best->estimated_cost, first->estimated_cost);
  EXPECT_EQ(first->candidate_index, 0);
  EXPECT_GE(best->num_candidates, 1);
  EXPECT_LT(best->candidate_index, best->num_candidates);
}

// ---------------------------------------------------------------------------
// QueryEngine against a real service.

TEST(QueryEngineTest, AnswersWithVerifiedWitnessAndCount) {
  service::DecompositionService service;
  QueryEngine engine(&service);
  auto query = cq::ParseQuery("R(X,Y), S(Y,Z).");
  ASSERT_TRUE(query.ok());
  cq::Database db = SampleDatabase();

  auto answer = engine.Answer(*query, db, /*timeout_seconds=*/0);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_EQ(answer->outcome, QueryOutcome::kSatisfiable);
  ASSERT_TRUE(answer->counted);
  EXPECT_EQ(answer->count.value, 5ull);
  EXPECT_FALSE(answer->count.saturated);
  EXPECT_GE(answer->width, 1);
  EXPECT_GE(answer->portfolio_size, 1);
  EXPECT_FALSE(answer->decompose_cache_hit);  // cold service
  for (const cq::Atom& atom : query->atoms) {
    const cq::Relation* rel = db.Find(atom.relation);
    ASSERT_NE(rel, nullptr);
    cq::Tuple expected;
    for (const auto& variable : atom.variables) {
      expected.push_back(answer->witness.at(variable));
    }
    EXPECT_NE(std::find(rel->tuples.begin(), rel->tuples.end(), expected),
              rel->tuples.end());
  }

  // Second ask: every decomposition probe (the k-sweep AND the diversity
  // probes) is answered from the result cache.
  auto warm = engine.Answer(*query, db, 0);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->decompose_cache_hit);
  EXPECT_EQ(warm->count.value, 5ull);
}

TEST(QueryEngineTest, UnsatisfiableQueryCountsZero) {
  service::DecompositionService service;
  QueryEngine engine(&service);
  auto query = cq::ParseQuery("R(X,Y), S(Y,Z).");
  ASSERT_TRUE(query.ok());
  cq::Database db;
  db.AddRelation({"R", 2, {{1, 2}}});
  db.AddRelation({"S", 2, {{3, 4}}});
  auto answer = engine.Answer(*query, db, 0);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_EQ(answer->outcome, QueryOutcome::kUnsatisfiable);
  EXPECT_TRUE(answer->counted);
  EXPECT_EQ(answer->count.value, 0ull);
}

TEST(QueryEngineTest, CountOverrideSkipsCounting) {
  service::DecompositionService service;
  QueryEngine engine(&service);
  auto query = cq::ParseQuery("R(X,Y).");
  ASSERT_TRUE(query.ok());
  cq::Database db;
  db.AddRelation({"R", 2, {{1, 2}}});
  auto answer = engine.Answer(*query, db, 0, {}, /*count_override=*/false);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->outcome, QueryOutcome::kSatisfiable);
  EXPECT_FALSE(answer->counted);
}

TEST(QueryEngineTest, WidthBeyondMaxKIsNoDecomposition) {
  service::DecompositionService service;
  QueryEngineOptions options;
  options.max_k = 1;  // a triangle needs width 2
  QueryEngine engine(&service, options);
  auto query = cq::ParseQuery("R(X,Y), S(Y,Z), T(Z,X).");
  ASSERT_TRUE(query.ok());
  cq::Database db;
  db.AddRelation({"R", 2, {{1, 2}}});
  db.AddRelation({"S", 2, {{2, 3}}});
  db.AddRelation({"T", 2, {{3, 1}}});
  auto answer = engine.Answer(*query, db, 0);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->outcome, QueryOutcome::kNoDecomposition);
}

TEST(QueryEngineTest, SchemaErrorsAreInvalidArgument) {
  service::DecompositionService service;
  QueryEngine engine(&service);
  auto query = cq::ParseQuery("R(X,Y), S(Y,Z).");
  ASSERT_TRUE(query.ok());
  cq::Database db;
  db.AddRelation({"R", 2, {{1, 2}}});  // S missing
  auto missing = engine.Answer(*query, db, 0);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kInvalidArgument);

  db.AddRelation({"S", 3, {{1, 2, 3}}});  // wrong arity
  auto arity = engine.Answer(*query, db, 0);
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, ExpiredDeadlineIsDeadlineOutcome) {
  service::DecompositionService service;
  QueryEngine engine(&service);
  auto query = cq::ParseQuery("R(X,Y), S(Y,Z).");
  ASSERT_TRUE(query.ok());
  auto answer = engine.Answer(*query, SampleDatabase(), /*timeout_seconds=*/1e-12);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->outcome, QueryOutcome::kDeadline);
}

// A query in perfbench's serve-query shapes: a cycle for even seeds, a
// random CQ otherwise, with a 12-value database of 50 tuples a relation.
struct SeededQuery {
  cq::Query query;
  cq::Database db;
};

SeededQuery MakeSeededQuery(util::Rng& rng, uint64_t seed) {
  const int atoms = rng.UniformInt(4, 10);
  Hypergraph graph = seed % 2 == 0 ? MakeCycle(atoms)
                                   : MakeRandomCq(rng, atoms, 3, 0.3);
  SeededQuery out;
  for (int e = 0; e < graph.num_edges(); ++e) {
    cq::Atom atom;
    atom.relation = "R" + std::to_string(e);
    for (int v : graph.edge_vertex_list(e)) {
      atom.variables.push_back("X" + std::to_string(v));
    }
    out.query.atoms.push_back(std::move(atom));
  }
  out.db = cq::RandomDatabase(rng, out.query, 12, 50, 0.7);
  return out;
}

/// The query with its atoms shuffled and every variable renamed.
cq::Query RenamedCopy(const cq::Query& query, util::Rng& rng, int copy) {
  cq::Query renamed = query;
  rng.Shuffle(renamed.atoms);
  for (cq::Atom& atom : renamed.atoms) {
    for (std::string& variable : atom.variables) {
      variable = "C" + std::to_string(copy) + "_" + variable;
    }
  }
  return renamed;
}

TEST(QueryEngineTest, RenamedQueriesFailClosedOrAgreeWithBruteForce) {
  // The warm stack answers a renamed query with decompositions made for
  // the base naming. Executing such a tree aborted the process in
  // ProjectTo (cq/yannakakis.cc) for seeds 1000 (a cycle) and 1013 (a
  // random CQ); most renamed copies of 1035 are answered. The engine must
  // refuse a tree that does not fit with an error, and keep no candidate
  // for it, or answer what the brute-force oracle says.
  for (uint64_t seed : {1000ull, 1013ull, 1035ull}) {
    util::Rng rng(seed);
    SeededQuery base = MakeSeededQuery(rng, seed);
    service::DecompositionService service;
    QueryEngine engine(&service);
    ASSERT_TRUE(engine.Answer(base.query, base.db, 0).ok()) << "seed " << seed;
    for (int copy = 1; copy <= 6; ++copy) {
      cq::Query renamed = RenamedCopy(base.query, rng, copy);
      auto answer = engine.Answer(renamed, base.db, 0);
      if (!answer.ok()) {
        EXPECT_EQ(answer.status().code(), util::StatusCode::kInternal)
            << "seed " << seed << " copy " << copy << ": "
            << answer.status().message();
        // The refused tree must not stay behind as a candidate.
        Hypergraph graph = cq::QueryHypergraph(renamed);
        EXPECT_EQ(engine.portfolio().CandidateCount(
                      service::CanonicalFingerprint(graph), graph),
                  0)
            << "seed " << seed << " copy " << copy;
        continue;
      }
      auto oracle = cq::EvaluateBruteForce(renamed, base.db);
      ASSERT_TRUE(oracle.ok());
      EXPECT_EQ(answer->outcome, oracle->satisfiable
                                     ? QueryOutcome::kSatisfiable
                                     : QueryOutcome::kUnsatisfiable)
          << "seed " << seed << " copy " << copy;
    }
  }
}

// End-to-end property sweep: random queries and databases through the full
// engine (service, portfolio, executor) agree with the brute-force oracles.
class QueryEnginePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryEnginePropertyTest, AgreesWithBruteForce) {
  util::Rng rng(GetParam() + 9000);
  std::string text;
  int atoms = rng.UniformInt(3, 5);
  for (int i = 0; i < atoms; ++i) {
    if (i > 0) text += ", ";
    text += "R" + std::to_string(i) + "(V" + std::to_string(i) + ",V" +
            std::to_string(i + 1) + ")";
  }
  text += ", C(V0,V" + std::to_string(rng.UniformInt(1, 2)) + ").";
  auto query = cq::ParseQuery(text);
  ASSERT_TRUE(query.ok());
  cq::Database db = cq::RandomDatabase(rng, *query, /*domain_size=*/4,
                                       /*tuples_per_relation=*/6,
                                       /*satisfiable_bias=*/0.5);
  // Round-trip the request through the wire first: the engine must answer
  // the decoded request identically.
  auto wire = RenderQueryRequest(*query, db);
  ASSERT_TRUE(wire.ok()) << wire.status().message();
  auto decoded = ParseQueryRequest(*wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();

  service::DecompositionService service;
  QueryEngine engine(&service);
  auto answer = engine.Answer(decoded->query, decoded->db, 0);
  ASSERT_TRUE(answer.ok()) << answer.status().message();

  auto oracle = cq::EvaluateBruteForce(*query, db);
  auto oracle_count = cq::CountSolutionsBruteForce(*query, db);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(oracle_count.ok());
  if (oracle->satisfiable) {
    EXPECT_EQ(answer->outcome, QueryOutcome::kSatisfiable) << "seed " << GetParam();
  } else {
    EXPECT_EQ(answer->outcome, QueryOutcome::kUnsatisfiable) << "seed " << GetParam();
  }
  ASSERT_TRUE(answer->counted);
  EXPECT_EQ(answer->count.value, *oracle_count) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryEnginePropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace htd::qa
