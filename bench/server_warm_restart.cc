// Bench: cold vs snapshot-warmed server start (service/persistence.h).
//
// Simulates the hdserver restart cycle in-process: a service solves the
// ablation corpus (cold pass), its warm state — result cache + subproblem
// store — is snapshotted to bytes, a *fresh* service restores from the
// snapshot, and the same corpus is replayed (warm pass). Reported per pass:
// time-to-first-result, total wall time, and where the answers came from
// (solves vs cache hits). A baseline restart without a snapshot is also
// replayed so the delta is attributable to persistence alone.
//
// Exit code 1 if the warm pass produces no cache hits — the property the
// snapshot subsystem exists for. Numbers from this bench are recorded in
// docs/SERVER.md.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hypergraph/generators.h"
#include "service/persistence.h"
#include "service/service.h"
#include "util/rng.h"
#include "util/timer.h"

namespace htd::bench {
namespace {

/// Isomorphic copy under fresh names — what a restarted server actually
/// receives from clients (same queries, new variable names).
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
    if (!renamed.AddEdge(members).ok()) std::abort();
  }
  return renamed;
}

struct Workload {
  std::vector<Hypergraph> graphs;
  int k = 3;
};

/// Mixed families with enough structure that a cold pass costs real work:
/// hypercycles, grids, cliques, and renamed copies (cache-hit fodder).
Workload BuildWorkload() {
  Workload workload;
  workload.graphs.push_back(MakeHyperCycle(10, 3, 1));
  workload.graphs.push_back(MakeHyperCycle(12, 3, 1));
  workload.graphs.push_back(MakeHyperCycle(14, 4, 2));
  workload.graphs.push_back(MakeGrid(4, 4));
  workload.graphs.push_back(MakeGrid(5, 4));
  workload.graphs.push_back(MakeClique(9));
  workload.graphs.push_back(MakeClique(10));
  workload.graphs.push_back(MakeCycle(24));
  size_t base = workload.graphs.size();
  for (size_t i = 0; i < base; ++i) {
    workload.graphs.push_back(RenameAndShuffle(workload.graphs[i], 1000 + i));
  }
  return workload;
}

struct PassReport {
  double first_result_seconds = 0.0;
  double total_seconds = 0.0;
  uint64_t cache_hits = 0;
  uint64_t solves = 0;
};

PassReport RunPass(service::DecompositionService& service, const Workload& workload) {
  auto before = service.scheduler_stats();
  util::WallTimer timer;
  std::vector<std::future<service::JobResult>> futures;
  for (const Hypergraph& graph : workload.graphs) {
    futures.push_back(service.Submit(graph, workload.k, /*timeout_seconds=*/60.0));
  }
  PassReport report;
  bool first = true;
  for (auto& future : futures) {
    future.get();
    if (first) {
      report.first_result_seconds = timer.ElapsedSeconds();
      first = false;
    }
  }
  report.total_seconds = timer.ElapsedSeconds();
  auto after = service.scheduler_stats();
  report.cache_hits = after.cache_hits - before.cache_hits;
  report.solves = after.solves - before.solves;
  return report;
}

service::ServiceOptions MakeOptions() {
  service::ServiceOptions options;
  options.solve.num_threads = 0;  // batch-aware auto
  options.enable_subproblem_store = true;
  return options;
}

void Print(const char* label, const PassReport& report) {
  std::printf("%-28s first result %8.3f ms | total %8.3f ms | "
              "%3llu cache hits | %3llu solves\n",
              label, report.first_result_seconds * 1e3,
              report.total_seconds * 1e3,
              static_cast<unsigned long long>(report.cache_hits),
              static_cast<unsigned long long>(report.solves));
}

}  // namespace
}  // namespace htd::bench

int main() {
  using namespace htd;
  using namespace htd::bench;

  Workload workload = BuildWorkload();
  std::printf("server_warm_restart: %zu instances, k = %d\n\n",
              workload.graphs.size(), workload.k);

  // --- Cold server: first boot, nothing memoized. -------------------------
  auto cold = service::DecompositionService::Create(MakeOptions());
  if (!cold.ok()) {
    std::fprintf(stderr, "%s\n", cold.status().message().c_str());
    return 2;
  }
  PassReport cold_report = RunPass(**cold, workload);
  Print("cold start", cold_report);

  // Snapshot the warm state (what hdserver writes on shutdown or on
  // POST /v1/admin/snapshot).
  util::WallTimer snapshot_timer;
  std::string snapshot = service::EncodeSnapshot(
      (*cold)->result_cache(), (*cold)->subproblem_store(), /*config_digest=*/0);
  double encode_ms = snapshot_timer.ElapsedSeconds() * 1e3;

  // --- Restart WITHOUT the snapshot: pays the full cost again. ------------
  auto relaunch_cold = service::DecompositionService::Create(MakeOptions());
  PassReport relaunch_cold_report = RunPass(**relaunch_cold, workload);
  Print("restart, no snapshot", relaunch_cold_report);

  // --- Restart WITH the snapshot: warm from the first request. ------------
  auto warm = service::DecompositionService::Create(MakeOptions());
  snapshot_timer.Restart();
  auto restored = service::DecodeSnapshot(snapshot, (*warm)->result_cache(),
                                          (*warm)->subproblem_store());
  double decode_ms = snapshot_timer.ElapsedSeconds() * 1e3;
  if (!restored.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", restored.status().message().c_str());
    return 2;
  }
  PassReport warm_report = RunPass(**warm, workload);
  Print("restart from snapshot", warm_report);

  std::printf(
      "\nsnapshot: %zu bytes, %zu cache entries, %zu store keys "
      "(encode %.3f ms, decode+restore %.3f ms)\n",
      snapshot.size(), restored->cache_entries, restored->store_entries,
      encode_ms, decode_ms);
  if (warm_report.total_seconds > 0) {
    std::printf("warm restart speedup: %.1fx total, %.1fx time-to-first-result\n",
                relaunch_cold_report.total_seconds / warm_report.total_seconds,
                relaunch_cold_report.first_result_seconds /
                    warm_report.first_result_seconds);
  }

  if (warm_report.cache_hits == 0) {
    std::fprintf(stderr,
                 "FAIL: snapshot-warmed pass produced no cache hits\n");
    return 1;
  }
  return 0;
}
