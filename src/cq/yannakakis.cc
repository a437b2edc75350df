#include "cq/yannakakis.h"

#include <algorithm>
#include <numeric>
#include <vector>

namespace htd::cq {
namespace {

// A relation over query variables, stored flat: row r holds its values at
// values[r * arity() .. (r + 1) * arity()). The explicit row count keeps a
// relation without columns meaningful: one row is true, none is false.
struct FlatRelation {
  std::vector<int> vars;        // vertex ids, one per column
  std::vector<int64_t> values;  // row-major, stride arity()
  size_t rows = 0;

  size_t arity() const { return vars.size(); }
  const int64_t* row(size_t r) const { return values.data() + r * arity(); }
};

constexpr size_t kNoRow = ~size_t{0};

int Position(const std::vector<int>& vars, int var) {
  auto it = std::find(vars.begin(), vars.end(), var);
  return it == vars.end() ? -1 : static_cast<int>(it - vars.begin());
}

// The columns of `a` and of `b` that hold the variables the two share, in
// a's column order.
void SharedColumns(const FlatRelation& a, const FlatRelation& b,
                   std::vector<int>* a_cols, std::vector<int>* b_cols) {
  for (size_t i = 0; i < a.vars.size(); ++i) {
    int p = Position(b.vars, a.vars[i]);
    if (p < 0) continue;
    a_cols->push_back(static_cast<int>(i));
    b_cols->push_back(p);
  }
}

// One multiply and xor-shift per column is enough to spread the small
// integer keys of query relations over a linear-probing table. The full
// splitmix finalizer of util::HashCombine made evaluating and counting
// perfbench's 24 serve-query items about 20% slower (4 vCPUs).
uint64_t HashKey(const int64_t* row, const std::vector<int>& cols) {
  uint64_t h = 0x243f6a8885a308d3ull;
  for (int c : cols) {
    h = (h ^ static_cast<uint64_t>(row[c])) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  return h;
}

bool KeysEqual(const int64_t* a, const std::vector<int>& a_cols,
               const int64_t* b, const std::vector<int>& b_cols) {
  for (size_t i = 0; i < a_cols.size(); ++i) {
    if (a[a_cols[i]] != b[b_cols[i]]) return false;
  }
  return true;
}

// Open-addressing hash index over the rows of one relation, keyed by their
// values in `cols` and hashed in place: linear probing over a power-of-two
// table kept at most half full. Each occupied slot holds one row of its key.
class KeyIndex {
 public:
  KeyIndex(const FlatRelation& rel, std::vector<int> cols, size_t max_keys)
      : rel_(rel), cols_(std::move(cols)) {
    size_t size = 2;
    while (size < 2 * max_keys) size <<= 1;
    slots_.assign(size, kNoRow);
  }

  // The slot of the key `probe` holds at `probe_cols`: kNoRow when no
  // indexed row has that key, else such a row.
  size_t& Slot(const int64_t* probe, const std::vector<int>& probe_cols) {
    return slots_[Probe(probe, probe_cols)];
  }
  size_t Find(const int64_t* probe, const std::vector<int>& probe_cols) const {
    return slots_[Probe(probe, probe_cols)];
  }

  const std::vector<size_t>& slots() const { return slots_; }

 private:
  size_t Probe(const int64_t* probe, const std::vector<int>& probe_cols) const {
    const size_t mask = slots_.size() - 1;
    size_t s = HashKey(probe, probe_cols) & mask;
    while (slots_[s] != kNoRow &&
           !KeysEqual(rel_.row(slots_[s]), cols_, probe, probe_cols)) {
      s = (s + 1) & mask;
    }
    return s;
  }

  const FlatRelation& rel_;
  std::vector<int> cols_;
  std::vector<size_t> slots_;
};

// Indexes every row of `rel` by its values at `cols`; each key's slot ends
// up holding its first row. With `next`, next[r] is the following row with
// r's key (kNoRow after the last), so a key's rows chain in row order.
KeyIndex IndexRows(const FlatRelation& rel, const std::vector<int>& cols,
                   std::vector<size_t>* next) {
  KeyIndex index(rel, cols, rel.rows);
  if (next != nullptr) next->resize(rel.rows);
  for (size_t r = rel.rows; r-- > 0;) {
    size_t& slot = index.Slot(rel.row(r), cols);
    if (next != nullptr) (*next)[r] = slot;
    slot = r;
  }
  return index;
}

std::vector<int> AllColumns(size_t arity) {
  std::vector<int> cols(arity);
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

// Builds a relation row by row under set semantics: a row equal to one
// already added is dropped, so every row keeps its first position.
class DistinctRows {
 public:
  DistinctRows(std::vector<int> vars, size_t max_rows)
      : out_{std::move(vars), {}, 0},
        index_(out_, AllColumns(out_.arity()), max_rows) {
    out_.values.reserve(max_rows * out_.arity());
  }
  DistinctRows(const DistinctRows&) = delete;
  DistinctRows& operator=(const DistinctRows&) = delete;

  // Adds the row whose values are `src` at `cols`.
  void Add(const int64_t* src, const std::vector<int>& cols) {
    size_t& slot = index_.Slot(src, cols);
    if (slot != kNoRow) return;
    slot = out_.rows++;
    for (int c : cols) out_.values.push_back(src[c]);
  }
  FlatRelation Take() { return std::move(out_); }

 private:
  FlatRelation out_;
  KeyIndex index_;  // over out_
};

// Loads every atom's relation over the query's vertices: one column per
// distinct variable, rows whose repeated variables disagree dropped (R(X,X)
// keeps the rows with equal columns), duplicates dropped (set semantics —
// counting needs it). The one loader behind the decomposition-guided
// evaluation and the brute-force oracles.
util::StatusOr<std::vector<FlatRelation>> LoadAtoms(const Query& query,
                                                    const Database& db,
                                                    const Hypergraph& graph) {
  std::vector<FlatRelation> atoms;
  atoms.reserve(query.atoms.size());
  for (const Atom& atom : query.atoms) {
    const Relation* relation = db.Find(atom.relation);
    if (relation == nullptr) {
      return util::Status::InvalidArgument("relation '" + atom.relation +
                                           "' not in database");
    }
    const size_t arity = atom.variables.size();
    if (relation->arity != static_cast<int>(arity)) {
      return util::Status::InvalidArgument("arity mismatch for '" + atom.relation +
                                           "'");
    }
    std::vector<int> vars;           // one per distinct variable
    std::vector<int> cols;           // its first source column
    std::vector<size_t> same(arity);  // first source column of i's variable
    for (size_t i = 0; i < arity; ++i) {
      const int vertex = graph.FindVertex(atom.variables[i]);
      if (vertex < 0) {
        return util::Status::Internal("variable '" + atom.variables[i] +
                                      "' is not in the query hypergraph");
      }
      int p = Position(vars, vertex);
      if (p < 0) {
        p = static_cast<int>(vars.size());
        vars.push_back(vertex);
        cols.push_back(static_cast<int>(i));
      }
      same[i] = static_cast<size_t>(cols[p]);
    }
    DistinctRows rows(std::move(vars), relation->tuples.size());
    for (const Tuple& tuple : relation->tuples) {
      if (tuple.size() != arity) {
        return util::Status::InvalidArgument("arity mismatch for '" +
                                             atom.relation + "'");
      }
      bool consistent = true;
      for (size_t i = 0; i < arity; ++i) consistent &= tuple[i] == tuple[same[i]];
      if (consistent) rows.Add(tuple.data(), cols);
    }
    atoms.push_back(rows.Take());
  }
  return atoms;
}

// Natural join: left's columns then right's unshared ones; rows in left
// order, each followed by its right partners in right order.
FlatRelation Join(const FlatRelation& left, const FlatRelation& right) {
  std::vector<int> left_cols, right_cols, right_extra;
  SharedColumns(left, right, &left_cols, &right_cols);
  FlatRelation out;
  out.vars = left.vars;
  for (size_t i = 0; i < right.vars.size(); ++i) {
    if (Position(left.vars, right.vars[i]) < 0) {
      out.vars.push_back(right.vars[i]);
      right_extra.push_back(static_cast<int>(i));
    }
  }
  std::vector<size_t> next;
  const KeyIndex index = IndexRows(right, right_cols, &next);
  for (size_t l = 0; l < left.rows; ++l) {
    const int64_t* lrow = left.row(l);
    for (size_t r = index.Find(lrow, left_cols); r != kNoRow; r = next[r]) {
      const int64_t* rrow = right.row(r);
      out.values.insert(out.values.end(), lrow, lrow + left.arity());
      for (int c : right_extra) out.values.push_back(rrow[c]);
      ++out.rows;
    }
  }
  return out;
}

// Keeps the rows of `left` whose values on the variables it shares with
// `right` occur in `right`, in their order.
void Semijoin(FlatRelation& left, const FlatRelation& right) {
  if (left.rows == 0) return;
  std::vector<int> left_cols, right_cols;
  SharedColumns(left, right, &left_cols, &right_cols);
  const KeyIndex index = IndexRows(right, right_cols, nullptr);
  const size_t arity = left.arity();
  size_t kept = 0;
  for (size_t r = 0; r < left.rows; ++r) {
    if (index.Find(left.row(r), left_cols) == kNoRow) continue;
    if (kept != r) {
      std::copy_n(left.row(r), arity, left.values.begin() + kept * arity);
    }
    ++kept;
  }
  left.rows = kept;
  left.values.resize(kept * arity);
}

// Checks that `decomp` is a tree this query can be evaluated over, assigns
// every atom to its first covering node and materialises each node's
// relation: the join of its λ-atoms projected to χ, semijoin-filtered by the
// atoms assigned to it.
util::StatusOr<std::vector<FlatRelation>> BuildNodeRelations(
    const std::vector<FlatRelation>& atoms, const Decomposition& decomp,
    const Hypergraph& graph) {
  if (decomp.num_nodes() == 0) {
    // Empty query hypergraph cannot happen (ParseQuery requires atoms).
    return util::Status::InvalidArgument("empty decomposition");
  }
  auto refuse = [](int u, const std::string& why) {
    return util::Status::InvalidArgument("decomposition node " +
                                         std::to_string(u) + why);
  };
  for (int u = 0; u < decomp.num_nodes(); ++u) {
    const DecompNode& node = decomp.node(u);
    if (node.chi.size_bits() != graph.num_vertices()) {
      return refuse(u, " ranges over another vertex set");
    }
    if (node.lambda.empty()) return refuse(u, " has an empty λ");
    for (int a : node.lambda) {
      if (a < 0 || a >= graph.num_edges()) {
        return refuse(u, " names no atom of the query");
      }
    }
  }

  // Assign every atom to one covering node (HD condition 1 guarantees one).
  std::vector<std::vector<int>> atoms_at_node(decomp.num_nodes());
  for (int a = 0; a < graph.num_edges(); ++a) {
    int home = -1;
    for (int u = 0; u < decomp.num_nodes() && home < 0; ++u) {
      if (graph.edge_vertices(a).IsSubsetOf(decomp.node(u).chi)) home = u;
    }
    if (home < 0) {
      return util::Status::InvalidArgument(
          "decomposition does not cover atom " + std::to_string(a) +
          " (not a decomposition of this query?)");
    }
    atoms_at_node[home].push_back(a);
  }

  std::vector<FlatRelation> node_rel(decomp.num_nodes());
  for (int u = 0; u < decomp.num_nodes(); ++u) {
    const DecompNode& node = decomp.node(u);
    FlatRelation joined;
    const FlatRelation* rel = &atoms[node.lambda[0]];
    for (size_t i = 1; i < node.lambda.size(); ++i) {
      joined = Join(*rel, atoms[node.lambda[i]]);
      rel = &joined;
    }
    // Project onto χ (set semantics, first occurrence kept).
    std::vector<int> chi = node.chi.ToVector();
    std::vector<int> cols;
    for (int v : chi) {
      const int p = Position(rel->vars, v);
      if (p < 0) {
        return refuse(u, ": χ holds variable '" + graph.vertex_name(v) +
                             "' that no atom of its λ covers");
      }
      cols.push_back(p);
    }
    DistinctRows projected(std::move(chi), rel->rows);
    for (size_t r = 0; r < rel->rows; ++r) projected.Add(rel->row(r), cols);
    node_rel[u] = projected.Take();
    // An atom of λ whose variables lie in χ already holds on every row.
    for (int a : atoms_at_node[u]) {
      if (std::find(node.lambda.begin(), node.lambda.end(), a) == node.lambda.end()) {
        Semijoin(node_rel[u], atoms[a]);
      }
    }
  }
  return node_rel;
}

// Pre-order of the decomposition tree: parents before children, children in
// order.
std::vector<int> PreOrder(const Decomposition& decomp) {
  std::vector<int> order;
  order.reserve(decomp.num_nodes());
  std::vector<int> stack = {decomp.root()};
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    order.push_back(u);
    const std::vector<int>& children = decomp.node(u).children;
    stack.insert(stack.end(), children.rbegin(), children.rend());
  }
  return order;
}

// Saturating 128-bit weight for the counting DP. Zero annihilates exactly
// (0 · anything = 0, never "saturated zero"), so unsatisfiable branches stay
// exact no matter how large their siblings grew.
struct SatWeight {
  unsigned __int128 v = 0;
  bool sat = false;
};

constexpr unsigned __int128 kSatCap = ~static_cast<unsigned __int128>(0);

SatWeight SatMul(const SatWeight& a, const SatWeight& b) {
  if (a.v == 0 || b.v == 0) return {0, false};
  if (a.sat || b.sat || a.v > kSatCap / b.v) return {kSatCap, true};
  return {a.v * b.v, false};
}

SatWeight SatAdd(const SatWeight& a, const SatWeight& b) {
  if (a.sat || b.sat || kSatCap - a.v < b.v) return {kSatCap, true};
  return {a.v + b.v, false};
}

// Dynamic program over the tree (tractable counting via decompositions;
// cf. Pichler & Skritek, cited in the paper's intro): weight(u, t) = product
// over children c of the summed weights of the c-rows agreeing with t.
// Connectedness makes tuple trees correspond one-to-one to satisfying
// assignments of all query variables, so the answer count is the weight sum
// at the root. Dangling rows are in no tuple tree, so counting over the
// semijoin-reduced tree gives the count of the unreduced one.
SolutionCount CountTupleTrees(const std::vector<FlatRelation>& node_rel,
                              const Decomposition& decomp,
                              const std::vector<int>& order) {
  std::vector<std::vector<SatWeight>> weight(decomp.num_nodes());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int u = *it;
    const FlatRelation& mine = node_rel[u];
    weight[u].assign(mine.rows, SatWeight{1, false});
    for (int c : decomp.node(u).children) {
      const FlatRelation& child = node_rel[c];
      std::vector<int> my_cols, child_cols;
      SharedColumns(mine, child, &my_cols, &child_cols);
      std::vector<size_t> next;
      const KeyIndex index = IndexRows(child, child_cols, &next);
      std::vector<SatWeight> sum(child.rows);  // at each key's first row
      for (size_t first : index.slots()) {
        if (first == kNoRow) continue;
        for (size_t r = first; r != kNoRow; r = next[r]) {
          sum[first] = SatAdd(sum[first], weight[c][r]);
        }
      }
      for (size_t i = 0; i < mine.rows; ++i) {
        const size_t first = index.Find(mine.row(i), my_cols);
        weight[u][i] = first == kNoRow ? SatWeight{0, false}
                                       : SatMul(weight[u][i], sum[first]);
      }
    }
  }
  SatWeight total;
  for (const SatWeight& w : weight[decomp.root()]) total = SatAdd(total, w);

  constexpr unsigned long long kMax = ~0ull;
  if (total.sat || total.v > static_cast<unsigned __int128>(kMax)) {
    return SolutionCount{kMax, true};
  }
  return SolutionCount{static_cast<unsigned long long>(total.v), false};
}

// A partial assignment of values to the query's vertices.
struct Assignment {
  explicit Assignment(int num_vertices)
      : value(num_vertices, 0), bound(num_vertices, 0) {}

  // The bound vertices by name.
  std::unordered_map<std::string, int64_t> Named(const Hypergraph& graph) const {
    std::unordered_map<std::string, int64_t> named;
    for (int v = 0; v < graph.num_vertices(); ++v) {
      if (bound[v]) named[graph.vertex_name(v)] = value[v];
    }
    return named;
  }

  std::vector<int64_t> value;
  std::vector<char> bound;
};

// Backtracking join over the atoms in query order, the exponential oracle
// behind both brute-force entry points. Returns the number of satisfying
// assignments extending `assignment`, stopping at the first one when
// `stop_at_first` (which `assignment` then holds).
unsigned long long Backtrack(const std::vector<FlatRelation>& atoms, size_t index,
                             bool stop_at_first, Assignment& assignment) {
  if (index == atoms.size()) return 1;
  const FlatRelation& rel = atoms[index];
  unsigned long long count = 0;
  std::vector<int> newly_bound;
  for (size_t r = 0; r < rel.rows; ++r) {
    const int64_t* row = rel.row(r);
    bool consistent = true;
    newly_bound.clear();
    for (size_t i = 0; i < rel.arity() && consistent; ++i) {
      const int v = rel.vars[i];
      if (!assignment.bound[v]) {
        assignment.bound[v] = 1;
        assignment.value[v] = row[i];
        newly_bound.push_back(v);
      } else {
        consistent = assignment.value[v] == row[i];
      }
    }
    if (consistent) {
      count += Backtrack(atoms, index + 1, stop_at_first, assignment);
      if (stop_at_first && count > 0) return count;
    }
    for (int v : newly_bound) assignment.bound[v] = 0;
  }
  return count;
}

}  // namespace

util::StatusOr<EvalResult> EvaluateWithDecomposition(const Query& query,
                                                     const Database& db,
                                                     const Decomposition& decomp,
                                                     bool count_solutions) {
  const Hypergraph graph = QueryHypergraph(query);
  auto atoms = LoadAtoms(query, db, graph);
  if (!atoms.ok()) return atoms.status();
  auto built = BuildNodeRelations(*atoms, decomp, graph);
  if (!built.ok()) return built.status();
  std::vector<FlatRelation>& node_rel = *built;
  const std::vector<int> order = PreOrder(decomp);

  // Yannakakis phase 1: bottom-up semijoins, children before parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    for (int c : decomp.node(*it).children) Semijoin(node_rel[*it], node_rel[c]);
  }
  EvalResult result;
  if (node_rel[decomp.root()].rows == 0) return result;  // unsatisfiable
  result.satisfiable = true;

  // Phase 2: top-down semijoins (makes every node globally consistent).
  for (int u : order) {
    for (int c : decomp.node(u).children) Semijoin(node_rel[c], node_rel[u]);
  }

  // Witness: choose the root's first row, then per child the first row
  // agreeing on the shared variables (one exists after the two sweeps;
  // connectedness makes the union of choices a consistent assignment).
  std::vector<size_t> chosen(decomp.num_nodes(), 0);
  Assignment assignment(graph.num_vertices());
  for (int u : order) {
    const FlatRelation& rel = node_rel[u];
    const int64_t* row = rel.row(chosen[u]);
    for (size_t i = 0; i < rel.arity(); ++i) {
      assignment.value[rel.vars[i]] = row[i];
      assignment.bound[rel.vars[i]] = 1;
    }
    for (int c : decomp.node(u).children) {
      const FlatRelation& child = node_rel[c];
      std::vector<int> my_cols, child_cols;
      SharedColumns(rel, child, &my_cols, &child_cols);
      size_t match = 0;
      while (match < child.rows &&
             !KeysEqual(child.row(match), child_cols, row, my_cols)) {
        ++match;
      }
      if (match == child.rows) {
        return util::Status::Internal(
            "semijoin reduction left decomposition node " + std::to_string(c) +
            " no row consistent with its parent");
      }
      chosen[c] = match;
    }
  }
  result.witness = assignment.Named(graph);
  if (count_solutions) result.count = CountTupleTrees(node_rel, decomp, order);
  return result;
}

util::StatusOr<SolutionCount> CountSolutions(const Query& query,
                                             const Database& db,
                                             const Decomposition& decomp) {
  auto eval = EvaluateWithDecomposition(query, db, decomp, /*count_solutions=*/true);
  if (!eval.ok()) return eval.status();
  return eval->count;
}

util::StatusOr<unsigned long long> CountSolutionsBruteForce(const Query& query,
                                                            const Database& db) {
  const Hypergraph graph = QueryHypergraph(query);
  auto atoms = LoadAtoms(query, db, graph);
  if (!atoms.ok()) return atoms.status();
  // With set semantics, each satisfying assignment corresponds to exactly
  // one choice of tuple per atom, so counting leaves counts assignments.
  Assignment assignment(graph.num_vertices());
  return Backtrack(*atoms, 0, /*stop_at_first=*/false, assignment);
}

util::StatusOr<EvalResult> EvaluateBruteForce(const Query& query, const Database& db) {
  const Hypergraph graph = QueryHypergraph(query);
  auto atoms = LoadAtoms(query, db, graph);
  if (!atoms.ok()) return atoms.status();
  Assignment assignment(graph.num_vertices());
  EvalResult result;
  result.satisfiable =
      Backtrack(*atoms, 0, /*stop_at_first=*/true, assignment) > 0;
  if (result.satisfiable) result.witness = assignment.Named(graph);
  return result;
}

}  // namespace htd::cq
