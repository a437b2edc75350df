#include "service/canonical.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/hash.h"

namespace htd::service {

namespace {

using util::HashCombine;

/// The bipartite incidence graph as one adjacency array. Nodes [0, n) are
/// the vertices and [n, n + m) the edges; node x's neighbours are
/// adj[offset[x], offset[x + 1]).
struct Incidence {
  int n = 0;
  int m = 0;
  std::vector<int> offset;
  std::vector<int> adj;

  int degree(int x) const { return offset[x + 1] - offset[x]; }
};

/// Builds the incidence graph of `n` vertices and the edges whose members
/// are given back to back: edge e is members[edge_offset[e], edge_offset[e + 1]).
Incidence BuildIncidence(int n, const std::vector<int>& edge_offset,
                         const std::vector<int>& members) {
  Incidence g;
  g.n = n;
  g.m = static_cast<int>(edge_offset.size()) - 1;
  const int total = static_cast<int>(members.size());
  g.offset.assign(n + g.m + 1, 0);
  for (int v : members) ++g.offset[v + 1];
  for (int v = 0; v < n; ++v) g.offset[v + 1] += g.offset[v];
  for (int e = 0; e <= g.m; ++e) g.offset[n + e] = total + edge_offset[e];
  g.adj.resize(2 * static_cast<size_t>(total));
  std::vector<int> fill(g.offset.begin(), g.offset.begin() + n);
  for (int e = 0; e < g.m; ++e) {
    for (int i = edge_offset[e]; i < edge_offset[e + 1]; ++i) {
      g.adj[fill[members[i]]++] = n + e;
      g.adj[total + i] = members[i];
    }
  }
  return g;
}

/// Worklist colour refinement on an ordered partition of the incidence
/// graph's nodes (Berkholz, Bonsma and Grohe, ESA 2013), with the
/// individualise-then-refine-from-the-singleton step of nauty and Traces
/// (McKay and Piperno, 2014).
///
/// A cell is a position range [start, cell_end_[start]) of `elems_` and is
/// named by its start. Vertices occupy positions [0, n) and edges [n, n + m),
/// so no cell spans both sides. Popping a splitter cell W counts, for every
/// node, its neighbours in W; each touched cell (in position order) is split
/// into its untouched members, then its touched members by ascending count.
/// The fragments keep the cell's range, the first keeps its name, and only
/// touched members move. Every decision reads positions and counts, never
/// node ids, so isomorphic inputs refine identically; the one exception is
/// the individualisation tie-break (see the header caveat).
class Refiner {
 public:
  /// Orders each side by `seed` (indexed by node) and queues every run of
  /// equal seeds as one cell.
  Refiner(const Incidence& graph, const std::vector<uint64_t>& seed)
      : g_(graph) {
    const int n = g_.n;
    const int total = g_.n + g_.m;
    elems_.resize(total);
    for (int x = 0; x < total; ++x) elems_[x] = x;
    auto by_seed = [&seed](int a, int b) { return seed[a] < seed[b]; };
    std::sort(elems_.begin(), elems_.begin() + n, by_seed);
    std::sort(elems_.begin() + n, elems_.end(), by_seed);
    pos_.resize(total);
    cell_.resize(total);
    cell_end_.resize(total);
    touched_in_cell_.assign(total, 0);
    count_.assign(total, 0);
    queued_.assign(total, 0);
    for (int start = 0; start < total;) {
      const int side_end = start < n ? n : total;
      int end = start + 1;
      while (end < side_end && seed[elems_[end]] == seed[elems_[start]]) ++end;
      for (int p = start; p < end; ++p) {
        pos_[elems_[p]] = p;
        cell_[elems_[p]] = start;
      }
      cell_end_[start] = end;
      Enqueue(start);
      start = end;
    }
  }

  /// Splits until no queued cell splits another: the coarsest equitable
  /// refinement of the current partition.
  void Refine() {
    for (size_t head = 0; head < queue_.size(); ++head) {
      const int splitter = queue_[head];
      queued_[splitter] = 0;
      SplitBy(splitter);
    }
    queue_.clear();
  }

  /// Moves the lowest vertex id of the first non-singleton vertex cell into
  /// a new singleton cell at the cell's end and queues only that cell.
  /// Returns false once every vertex cell is a singleton.
  bool Individualise() {
    while (first_open_ < g_.n && cell_end_[first_open_] == first_open_ + 1) {
      ++first_open_;
    }
    if (first_open_ == g_.n) return false;
    const int start = first_open_;
    const int end = cell_end_[start];
    int lowest = start;
    for (int p = start + 1; p < end; ++p) {
      if (elems_[p] < elems_[lowest]) lowest = p;
    }
    const int v = elems_[lowest];
    Place(elems_[end - 1], lowest);
    Place(v, end - 1);
    cell_end_[start] = end - 1;
    cell_end_[end - 1] = end;
    cell_[v] = end - 1;
    Enqueue(end - 1);
    return true;
  }

  /// Position of vertex v; a canonical id once the vertex side is discrete.
  int position(int v) const { return pos_[v]; }

 private:
  void Place(int x, int p) {
    elems_[p] = x;
    pos_[x] = p;
  }

  void Enqueue(int cell) {
    if (queued_[cell]) return;
    queued_[cell] = 1;
    queue_.push_back(cell);
  }

  void SplitBy(int splitter) {
    touched_.clear();
    touched_cells_.clear();
    for (int p = splitter; p < cell_end_[splitter]; ++p) {
      const int x = elems_[p];
      for (int i = g_.offset[x]; i < g_.offset[x + 1]; ++i) {
        const int y = g_.adj[i];
        if (count_[y]++ > 0) continue;
        // First touch: move y to the back of its cell, behind the members
        // touched before it. The splitter is on the other side, so this
        // never disturbs the loop over it.
        touched_.push_back(y);
        const int cell = cell_[y];
        if (touched_in_cell_[cell]++ == 0) touched_cells_.push_back(cell);
        const int back = cell_end_[cell] - touched_in_cell_[cell];
        const int from = pos_[y];
        Place(elems_[back], from);
        Place(y, back);
      }
    }
    std::sort(touched_cells_.begin(), touched_cells_.end());
    for (int cell : touched_cells_) SplitCell(cell);
    for (int y : touched_) count_[y] = 0;
  }

  void SplitCell(int start) {
    const int end = cell_end_[start];
    const int first_touched = end - touched_in_cell_[start];
    touched_in_cell_[start] = 0;
    std::sort(elems_.begin() + first_touched, elems_.begin() + end,
              [this](int a, int b) { return count_[a] < count_[b]; });
    fragments_.clear();
    if (first_touched > start) fragments_.push_back(start);
    for (int p = first_touched; p < end; ++p) {
      pos_[elems_[p]] = p;
      if (p == first_touched || count_[elems_[p]] != count_[elems_[p - 1]]) {
        fragments_.push_back(p);
      }
    }
    if (fragments_.size() == 1) return;
    fragments_.push_back(end);

    int largest = start;
    int largest_size = 0;
    for (size_t i = 0; i + 1 < fragments_.size(); ++i) {
      const int f = fragments_[i];
      const int f_end = fragments_[i + 1];
      cell_end_[f] = f_end;
      if (f != start) {
        for (int p = f; p < f_end; ++p) cell_[elems_[p]] = f;
      }
      if (f_end - f > largest_size) {
        largest = f;
        largest_size = f_end - f;
      }
    }
    // A queued cell still splits by its whole content, so every new fragment
    // must split too. A cell already used as a splitter has split its
    // neighbours by its union, so the counts into its largest fragment
    // follow from the others (Hopcroft's trick).
    const bool was_queued = queued_[start] != 0;
    for (size_t i = 0; i + 1 < fragments_.size(); ++i) {
      const int f = fragments_[i];
      if (was_queued ? f != start : f != largest) Enqueue(f);
    }
  }

  const Incidence& g_;
  std::vector<int> elems_;     // position -> node
  std::vector<int> pos_;       // node -> position
  std::vector<int> cell_;      // node -> start of its cell
  std::vector<int> cell_end_;  // cell start -> one past its last position
  std::vector<int> touched_in_cell_;  // cell start -> members touched so far
  std::vector<int> count_;     // node -> neighbours in the current splitter
  std::vector<char> queued_;   // cell start -> in queue_
  std::vector<int> queue_;
  std::vector<int> touched_;
  std::vector<int> touched_cells_;
  std::vector<int> fragments_;
  int first_open_ = 0;  // no vertex cell before this position has two members
};

/// Refines from the seed colours (indexed by node), then individualises
/// until the vertex partition is discrete. The returned vector is the
/// canonical vertex id of each vertex: its final position.
std::vector<int> DiscreteVertexIds(const Incidence& graph,
                                   const std::vector<uint64_t>& seed) {
  Refiner refiner(graph, seed);
  refiner.Refine();
  while (refiner.Individualise()) refiner.Refine();
  std::vector<int> ids(graph.n);
  for (int v = 0; v < graph.n; ++v) ids[v] = refiner.position(v);
  return ids;
}

}  // namespace

std::string Fingerprint::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

bool Fingerprint::FromHex(std::string_view text, Fingerprint* out) {
  if (text.size() != 32) return false;
  uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      char c = text[w * 16 + i];
      uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint64_t>(c - 'A' + 10);
      } else {
        return false;
      }
      words[w] = (words[w] << 4) | digit;
    }
  }
  out->hi = words[0];
  out->lo = words[1];
  return true;
}

CanonicalForm ComputeCanonicalForm(const Hypergraph& graph) {
  const int n = graph.num_vertices();
  const int m = graph.num_edges();

  std::vector<int> edge_offset(1, 0);
  std::vector<int> members;
  edge_offset.reserve(m + 1);
  for (int e = 0; e < m; ++e) {
    const std::vector<int>& edge = graph.edge_vertex_list(e);
    members.insert(members.end(), edge.begin(), edge.end());
    edge_offset.push_back(static_cast<int>(members.size()));
  }
  const Incidence incidence = BuildIncidence(n, edge_offset, members);

  // Seed colours: vertex degree / edge size (the degree/edge-size
  // refinement), which is each node's degree in the incidence graph.
  std::vector<uint64_t> seed(n + m);
  for (int x = 0; x < n + m; ++x) {
    seed[x] = static_cast<uint64_t>(incidence.degree(x));
  }
  std::vector<int> ids = DiscreteVertexIds(incidence, seed);

  CanonicalForm form;
  form.num_vertices = n;
  form.num_edges = m;
  form.edges.reserve(m);
  for (int e = 0; e < m; ++e) {
    std::vector<int> edge;
    edge.reserve(graph.edge_vertex_list(e).size());
    for (int v : graph.edge_vertex_list(e)) {
      edge.push_back(ids[v]);
    }
    std::sort(edge.begin(), edge.end());
    form.edges.push_back(std::move(edge));
  }
  std::sort(form.edges.begin(), form.edges.end());

  // Two independently seeded mixes over (n, m, canonical edges) = 128 bits.
  uint64_t h1 = 0x6c6f676b64656331ULL;  // "logkdec1"
  uint64_t h2 = 0x6c6f676b64656332ULL;  // "logkdec2"
  auto absorb = [&](uint64_t value) {
    h1 = HashCombine(h1, value);
    h2 = HashCombine(h2, ~value);
  };
  absorb(static_cast<uint64_t>(n));
  absorb(static_cast<uint64_t>(m));
  for (const auto& edge : form.edges) {
    absorb(edge.size());
    for (int v : edge) absorb(static_cast<uint64_t>(v));
  }
  form.fingerprint = Fingerprint{h1, h2};
  return form;
}

Fingerprint CanonicalFingerprint(const Hypergraph& graph) {
  return ComputeCanonicalForm(graph).fingerprint;
}

SubproblemCanonicalForm FingerprintSubhypergraph(const Hypergraph& graph,
                                                 const SpecialEdgeRegistry& registry,
                                                 const ExtendedSubhypergraph& comp,
                                                 const util::DynamicBitset& conn) {
  SubproblemCanonicalForm form;

  // Dense-renumber V(H') = (⋃E') ∪ (⋃Sp) into a local universe. The rank
  // array is filled with local ids first and rewritten to canonical ids
  // after refinement, so only one base-universe-sized array is built. Its
  // O(|V(H)|) zero-fill per probe is a deliberate trade-off: dense lookups
  // beat hashing at corpus scale (revisit for huge, sparse instances).
  const util::DynamicBitset base_vertices = VerticesOf(graph, registry, comp);
  form.base_vertex_rank.assign(graph.num_vertices(), -1);
  std::vector<int>& local_of_base = form.base_vertex_rank;
  std::vector<int> base_of_local;
  base_vertices.ForEach([&](int v) {
    local_of_base[v] = static_cast<int>(base_of_local.size());
    base_of_local.push_back(v);
  });
  const int n = static_cast<int>(base_of_local.size());
  form.num_vertices = n;

  // Build the local incidence structure: component edges first, then special
  // edges (a special edge is its interface vertex set).
  std::vector<int> edge_offset(1, 0);
  std::vector<int> members;
  std::vector<int> local_edge_source;  // local edge index → base edge / special id
  comp.edges.ForEach([&](int e) {
    for (int v : graph.edge_vertex_list(e)) members.push_back(local_of_base[v]);
    edge_offset.push_back(static_cast<int>(members.size()));
    local_edge_source.push_back(e);
  });
  const int num_component_edges = static_cast<int>(local_edge_source.size());
  for (int s : comp.specials) {
    registry.vertices(s).ForEach(
        [&](int v) { members.push_back(local_of_base[v]); });
    edge_offset.push_back(static_cast<int>(members.size()));
    local_edge_source.push_back(s);
  }
  const int m = static_cast<int>(local_edge_source.size());
  const Incidence incidence = BuildIncidence(n, edge_offset, members);

  // Seed colours: (degree, Conn-membership) per vertex, (size, is-special)
  // per edge. Connector vertices outside V(H') cannot occur in solver calls
  // but are ignored if present (the rank filter drops them).
  std::vector<uint64_t> seed(n + m);
  for (int v = 0; v < n; ++v) {
    const bool in_conn = conn.Test(base_of_local[v]);
    seed[v] = HashCombine(static_cast<uint64_t>(incidence.degree(v)),
                          in_conn ? 0xc0 : 0x0c);
  }
  for (int e = 0; e < m; ++e) {
    const bool is_special = e >= num_component_edges;
    seed[n + e] = HashCombine(static_cast<uint64_t>(incidence.degree(n + e)),
                              is_special ? 0x5b : 0xb5);
  }
  std::vector<int> ids = DiscreteVertexIds(incidence, seed);

  // Rewrite the rank array in place: local ids become canonical ids.
  form.canonical_vertices.assign(n, -1);
  for (int v = 0; v < n; ++v) {
    form.canonical_vertices[ids[v]] = base_of_local[v];
    form.base_vertex_rank[base_of_local[v]] = ids[v];
  }

  // Canonical edge order: (label, canonical content) ascending. Ties are
  // content-identical edges of one label — interchangeable, so the original
  // index breaks them.
  struct EdgeRecord {
    int label;  // 0 = component edge, 1 = special edge
    std::vector<int> members;
    int local_index;
  };
  std::vector<EdgeRecord> records;
  records.reserve(m);
  for (int e = 0; e < m; ++e) {
    EdgeRecord record;
    record.label = e >= num_component_edges ? 1 : 0;
    for (int i = edge_offset[e]; i < edge_offset[e + 1]; ++i) {
      record.members.push_back(ids[members[i]]);
    }
    std::sort(record.members.begin(), record.members.end());
    record.local_index = e;
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const EdgeRecord& a, const EdgeRecord& b) {
              if (a.label != b.label) return a.label < b.label;
              if (a.members != b.members) return a.members < b.members;
              return a.local_index < b.local_index;
            });
  for (const EdgeRecord& record : records) {
    if (record.label == 1) {
      form.special_order.push_back(local_edge_source[record.local_index]);
    }
  }

  // Fingerprint: two independent mixes over (n, counts, canonical Conn,
  // labelled canonical edges). Conn is absorbed explicitly — the seed
  // colours influence canonical ids, but the edge lists alone need not pin
  // the connector down.
  uint64_t h1 = 0x73756270726f6231ULL;  // "subprob1"
  uint64_t h2 = 0x73756270726f6232ULL;  // "subprob2"
  auto absorb = [&](uint64_t value) {
    h1 = HashCombine(h1, value);
    h2 = HashCombine(h2, ~value);
  };
  absorb(static_cast<uint64_t>(n));
  absorb(static_cast<uint64_t>(num_component_edges));
  absorb(static_cast<uint64_t>(m - num_component_edges));
  std::vector<int> conn_ids;
  conn.ForEach([&](int v) {
    if (form.base_vertex_rank[v] >= 0) conn_ids.push_back(form.base_vertex_rank[v]);
  });
  std::sort(conn_ids.begin(), conn_ids.end());
  absorb(conn_ids.size());
  for (int c : conn_ids) absorb(static_cast<uint64_t>(c));
  for (const EdgeRecord& record : records) {
    absorb(static_cast<uint64_t>(record.label));
    absorb(record.members.size());
    for (int v : record.members) absorb(static_cast<uint64_t>(v));
  }
  form.fingerprint = Fingerprint{h1, h2};
  return form;
}

std::string CanonicalString(const CanonicalForm& form) {
  std::string out = std::to_string(form.num_vertices) + " " +
                    std::to_string(form.num_edges);
  for (const auto& edge : form.edges) {
    out += " |";
    for (int v : edge) {
      out += " " + std::to_string(v);
    }
  }
  return out;
}

}  // namespace htd::service
