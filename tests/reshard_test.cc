// Live resharding end to end: /v1/admin/migrate streaming warm state to new
// owners over real sockets, the transitioning acceptance rules (both
// digests, both ranges, imports mid-migration), dominance-checked imports
// never duplicating store variants, the router's double-routing (no 421
// escapes mid-handover), and replica round-robin/failover.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hypergraph/generators.h"
#include "hypergraph/parser.h"
#include "hypergraph/writer.h"
#include "net/decomposition_server.h"
#include "net/shard_router.h"
#include "service/canonical.h"
#include "service/persistence.h"
#include "service/subproblem_store.h"
#include "util/socket.h"

namespace htd::net {
namespace {

service::ShardMap MustParse(const std::string& spec) {
  auto map = service::ShardMap::Parse(spec);
  EXPECT_TRUE(map.ok()) << map.status().message();
  return *map;
}

HttpRequest Request(const std::string& method, const std::string& target,
                    std::string body = "") {
  HttpRequest request;
  request.method = method;
  request.target = target;
  size_t q = target.find('?');
  request.path = target.substr(0, q);
  if (q != std::string::npos) {
    std::string query = target.substr(q + 1);
    while (!query.empty()) {
      size_t amp = query.find('&');
      std::string pair = query.substr(0, amp);
      size_t eq = pair.find('=');
      request.query[pair.substr(0, eq)] =
          eq == std::string::npos ? "" : pair.substr(eq + 1);
      query = amp == std::string::npos ? "" : query.substr(amp + 1);
    }
  }
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return request;
}

/// Reserves an ephemeral port (bind + close; the tiny reuse race is
/// acceptable in tests, same pattern as tools/server_smoke.py).
int FreePort() {
  auto listener = util::ListenTcp("127.0.0.1", 0, 1);
  EXPECT_TRUE(listener.ok());
  return util::LocalPort(listener->fd());
}

std::unique_ptr<DecompositionServer> StartBackend(int port,
                                                  const service::ShardMap& map,
                                                  int index) {
  DecompositionServerOptions options;
  options.http.port = port;
  options.http.io_threads = 2;
  options.service.default_timeout_seconds = 30.0;
  options.shard_map = map;
  options.shard_index = index;
  auto server = DecompositionServer::Create(options);
  EXPECT_TRUE(server.ok()) << server.status().message();
  EXPECT_TRUE((*server)->Start().ok());
  return std::move(*server);
}

/// A decompose request the backend treats as correctly routed.
HttpRequest RoutedDecompose(const std::string& instance,
                            const service::ShardMap& map) {
  auto parsed = ParseAuto(instance);
  EXPECT_TRUE(parsed.ok());
  HttpRequest request = Request("POST", "/v1/decompose?k=2", instance);
  request.headers["x-htd-shard-digest"] = map.DigestHex();
  request.headers["x-htd-shard-fingerprint"] =
      service::CanonicalFingerprint(*parsed).ToHex();
  return request;
}

TEST(ReshardTest, MigrationMovesWarmStateToNewOwners) {
  const int p0 = FreePort(), p1 = FreePort(), p2 = FreePort();
  const std::string host = "127.0.0.1:";
  const service::ShardMap old_map =
      MustParse(host + std::to_string(p0) + "," + host + std::to_string(p1));
  const service::ShardMap new_map =
      MustParse(host + std::to_string(p0) + "," + host + std::to_string(p1) +
                "," + host + std::to_string(p2));

  std::vector<std::unique_ptr<DecompositionServer>> backends;
  backends.push_back(StartBackend(p0, old_map, 0));
  backends.push_back(StartBackend(p1, old_map, 1));
  backends.push_back(StartBackend(p2, new_map, 2));  // joins cold, new map

  // Warm the OLD fleet: find instances covering both old ranges, and at
  // least one whose owner CHANGES under the new map (that one must migrate
  // to survive as a warm hit).
  struct Warmed {
    std::string instance;
    int old_owner;
    int new_owner;
  };
  std::vector<Warmed> warmed;
  bool have_mover = false;
  for (int length = 3; length < 64; ++length) {
    Hypergraph graph = MakePath(length);
    const service::Fingerprint fp = service::CanonicalFingerprint(graph);
    Warmed entry{WriteHyperBench(graph), old_map.IndexFor(fp),
                 new_map.IndexFor(fp)};
    const bool mover = entry.old_owner != entry.new_owner;
    if (warmed.size() < 6 || (mover && !have_mover)) {
      have_mover = have_mover || mover;
      warmed.push_back(std::move(entry));
    }
    if (warmed.size() >= 6 && have_mover) break;
  }
  ASSERT_TRUE(have_mover) << "no instance changes owner in a 2->3 reshard?";
  for (const Warmed& entry : warmed) {
    HttpResponse first = backends[static_cast<size_t>(entry.old_owner)]->Handle(
        RoutedDecompose(entry.instance, old_map));
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_NE(first.body.find("\"cache_hit\": false"), std::string::npos);
  }

  // Prepare BOTH old backends first (each must accept the new digest before
  // a peer pushes at it), then migrate — pushes go over the real sockets of
  // the other two — then finalise.
  for (int index = 0; index < 2; ++index) {
    HttpResponse prepared = backends[static_cast<size_t>(index)]->Handle(
        Request("POST", "/v1/admin/migrate?prepare=1&new_index=" +
                            std::to_string(index),
                new_map.Serialise()));
    ASSERT_EQ(prepared.status, 200) << prepared.body;
  }
  for (int index = 0; index < 2; ++index) {
    HttpResponse migrated = backends[static_cast<size_t>(index)]->Handle(
        Request("POST", "/v1/admin/migrate?new_index=" + std::to_string(index),
                new_map.Serialise()));
    ASSERT_EQ(migrated.status, 200) << migrated.body;
    EXPECT_NE(migrated.body.find("\"transitioning\": true"), std::string::npos);
  }
  for (int index = 0; index < 2; ++index) {
    HttpResponse finalised = backends[static_cast<size_t>(index)]->Handle(
        Request("POST", "/v1/admin/migrate?finalise=1"));
    ASSERT_EQ(finalised.status, 200) << finalised.body;
  }

  // Every pre-reshard entry is a warm hit on its NEW owner: migration moved
  // the movers, and stayers never left.
  uint64_t movers = 0;
  for (const Warmed& entry : warmed) {
    HttpResponse hit = backends[static_cast<size_t>(entry.new_owner)]->Handle(
        RoutedDecompose(entry.instance, new_map));
    ASSERT_EQ(hit.status, 200) << hit.body;
    EXPECT_NE(hit.body.find("\"cache_hit\": true"), std::string::npos)
        << "entry lost in migration: " << hit.body;
    if (entry.old_owner != entry.new_owner) ++movers;
  }
  EXPECT_GT(movers, 0u);

  // The counters agree: donors pushed, receivers imported.
  uint64_t out = 0, in = 0;
  for (auto& backend : backends) {
    out += backend->migration_stats().migrated_out_entries;
    in += backend->migration_stats().imported_cache_entries +
          backend->migration_stats().imported_store_entries;
  }
  EXPECT_GE(out, movers);
  EXPECT_GE(in, movers);

  for (auto& backend : backends) backend->Stop();
}

TEST(ReshardTest, TransitioningBackendAcceptsBothTopologies) {
  // No real pushes happen here (the backend is cold), so the map endpoints
  // can be fictitious: this test is about the acceptance rules.
  const service::ShardMap old_map = MustParse("a:1001,b:1002");
  const service::ShardMap new_map = MustParse("a:1001,b:1002,c:1003");
  DecompositionServerOptions options;
  options.http.port = 0;
  options.shard_map = old_map;
  options.shard_index = 0;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().message();

  // An instance owned by shard 0 under BOTH maps (old range [0,2^63),
  // new range [0, ~2^63/... first third) — i.e. hi in the first third).
  std::string stayer, newcomer;
  for (int length = 3; length < 64 && (stayer.empty() || newcomer.empty());
       ++length) {
    Hypergraph graph = MakePath(length);
    const service::Fingerprint fp = service::CanonicalFingerprint(graph);
    if (old_map.IndexFor(fp) == 0 && new_map.IndexFor(fp) == 0 &&
        stayer.empty()) {
      stayer = WriteHyperBench(graph);
    }
    // Arrives mid-migration for the NEW range but outside the old one: only
    // possible when shard 0's slice GROWS; in 2->3 it shrinks, so instead
    // pick one that is outside BOTH (owned by new shard 2) to prove the 421.
    if (old_map.IndexFor(fp) == 1 && new_map.IndexFor(fp) == 2 &&
        newcomer.empty()) {
      newcomer = WriteHyperBench(graph);
    }
  }
  ASSERT_FALSE(stayer.empty());
  ASSERT_FALSE(newcomer.empty());

  // Before the migration: new-digest requests are refused.
  HttpRequest early = RoutedDecompose(stayer, new_map);
  EXPECT_EQ((*server)->Handle(early).status, 421)
      << "the new topology must not be accepted before migrate";

  HttpResponse begun = (*server)->Handle(
      Request("POST", "/v1/admin/migrate?new_index=0", new_map.Serialise()));
  ASSERT_EQ(begun.status, 200) << begun.body;
  ASSERT_TRUE((*server)->shard_state()->transitioning());

  // Mid-migration: BOTH digests are accepted for in-range instances…
  EXPECT_EQ((*server)->Handle(RoutedDecompose(stayer, old_map)).status, 200);
  EXPECT_EQ((*server)->Handle(RoutedDecompose(stayer, new_map)).status, 200);
  // …an unrelated topology still 421s…
  HttpRequest stale = RoutedDecompose(stayer, old_map);
  stale.headers["x-htd-shard-digest"] = MustParse("z:9999").DigestHex();
  EXPECT_EQ((*server)->Handle(stale).status, 421);
  // …and an instance belonging to NEITHER of this backend's ranges is
  // misrouted even when sent with an accepted digest.
  HttpRequest foreign = RoutedDecompose(newcomer, new_map);
  EXPECT_EQ((*server)->Handle(foreign).status, 421) << "owned by new shard 2";

  // An entry arriving via import mid-migration lands in the covering range.
  service::ResultCache donor_cache(16);
  service::CacheKey key;
  key.fingerprint = service::Fingerprint{1, 1};  // hi=1: shard 0 either way
  key.k = 2;
  SolveResult yes;
  yes.outcome = Outcome::kYes;
  donor_cache.Insert(key, yes);
  HttpRequest import = Request("POST", "/v1/admin/import",
                               service::EncodeSnapshot(&donor_cache, nullptr,
                                                       /*config_digest=*/0));
  import.headers["x-htd-shard-digest"] = new_map.DigestHex();
  HttpResponse imported = (*server)->Handle(import);
  EXPECT_EQ(imported.status, 200) << imported.body;
  EXPECT_NE(imported.body.find("\"cache_entries\": 1"), std::string::npos)
      << imported.body;

  // Finalise: the old digest is now stale and refused.
  EXPECT_EQ((*server)
                ->Handle(Request("POST", "/v1/admin/migrate?finalise=1"))
                .status,
            200);
  EXPECT_FALSE((*server)->shard_state()->transitioning());
  EXPECT_EQ((*server)->Handle(RoutedDecompose(stayer, old_map)).status, 421)
      << "after finalise only the new topology routes here";
  EXPECT_EQ((*server)->Handle(RoutedDecompose(stayer, new_map)).status, 200);
}

TEST(ReshardTest, ImportOfDominatedVariantDoesNotDuplicate) {
  // Store level: re-importing an entry whose variants are already dominated
  // must not grow the store (the antichain sees equal trace sets as
  // dominated in both polarities).
  service::SubproblemStore store;
  service::SubproblemStore::ExportedEntry entry;
  entry.fingerprint = service::Fingerprint{42, 7};
  entry.k = 2;
  entry.negatives.push_back({{0, 1}, {1, 2}});
  ASSERT_TRUE(store.Import(entry));
  const auto before = store.GetStats();
  ASSERT_EQ(before.entries, 1u);

  ASSERT_TRUE(store.Import(entry)) << "in-range import always 'succeeds'";
  const auto after = store.GetStats();
  EXPECT_EQ(after.entries, 1u);
  EXPECT_EQ(after.bytes, before.bytes) << "dominated re-import grew the store";
  EXPECT_GT(after.rejected_inserts, before.rejected_inserts)
      << "the duplicate must be rejected as dominated, not stored twice";
  auto exported = store.Export();
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].negatives.size(), 1u) << "one variant, not two";

  // Endpoint level: importing the same blob twice leaves the second pass a
  // no-op (cache inserts are idempotent overwrites, store variants
  // dominance-rejected).
  DecompositionServerOptions options;
  options.http.port = 0;
  options.service.enable_subproblem_store = true;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok());
  service::SubproblemStore donor;
  ASSERT_TRUE(donor.Import(entry));
  const std::string blob =
      service::EncodeSnapshot(nullptr, &donor, /*config_digest=*/0);
  for (int round = 0; round < 2; ++round) {
    HttpResponse imported =
        (*server)->Handle(Request("POST", "/v1/admin/import", blob));
    ASSERT_EQ(imported.status, 200) << imported.body;
  }
  EXPECT_EQ(
      (*server)->decomposition_service().subproblem_store()->num_entries(), 1u);
}

TEST(ReshardTest, ExportedRangeRoundTripsThroughImport) {
  DecompositionServerOptions options;
  options.http.port = 0;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok());
  const std::string instance = WriteHyperBench(MakePath(5));
  ASSERT_EQ((*server)->Handle(Request("POST", "/v1/decompose?k=2", instance))
                .status,
            200);

  HttpResponse everything =
      (*server)->Handle(Request("GET", "/v1/admin/export"));
  ASSERT_EQ(everything.status, 200);
  EXPECT_EQ(everything.content_type, "application/octet-stream");
  HttpResponse none = (*server)->Handle(Request(
      "GET", "/v1/admin/export?range=0000000000000000-0000000000000000"));
  ASSERT_EQ(none.status, 200);
  EXPECT_LT(none.body.size(), everything.body.size())
      << "an empty range must export an empty snapshot";
  EXPECT_EQ((*server)
                ->Handle(Request("GET", "/v1/admin/export?range=zz-11"))
                .status,
            400);

  // The exported blob restores into a second, cold server as a cache hit.
  auto receiver = DecompositionServer::Create(options);
  ASSERT_TRUE(receiver.ok());
  HttpResponse imported = (*receiver)->Handle(
      Request("POST", "/v1/admin/import", everything.body));
  ASSERT_EQ(imported.status, 200) << imported.body;
  HttpResponse hit =
      (*receiver)->Handle(Request("POST", "/v1/decompose?k=2", instance));
  ASSERT_EQ(hit.status, 200);
  EXPECT_NE(hit.body.find("\"cache_hit\": true"), std::string::npos) << hit.body;
}

TEST(ReshardTest, RouterDoubleRoutesSoNo421EscapesMidMigration) {
  const int p0 = FreePort(), p1 = FreePort(), p2 = FreePort();
  const std::string host = "127.0.0.1:";
  const service::ShardMap old_map =
      MustParse(host + std::to_string(p0) + "," + host + std::to_string(p1));
  const service::ShardMap new_map =
      MustParse(host + std::to_string(p0) + "," + host + std::to_string(p1) +
                "," + host + std::to_string(p2));

  std::vector<std::unique_ptr<DecompositionServer>> backends;
  backends.push_back(StartBackend(p0, old_map, 0));
  backends.push_back(StartBackend(p1, old_map, 1));
  backends.push_back(StartBackend(p2, new_map, 2));

  ShardRouterOptions router_options{old_map};
  router_options.backoff_base_seconds = 0.05;
  ShardRouter router(std::move(router_options));
  ASSERT_TRUE(router.BeginTransition(new_map).ok());

  // An instance whose old owner is backend 1 but whose NEW owner is the
  // fresh backend 2.
  std::string mover;
  int mover_old = -1;
  for (int length = 3; length < 64 && mover.empty(); ++length) {
    Hypergraph graph = MakePath(length);
    const service::Fingerprint fp = service::CanonicalFingerprint(graph);
    if (new_map.IndexFor(fp) == 2) {
      mover = WriteHyperBench(graph);
      mover_old = old_map.IndexFor(fp);
    }
  }
  ASSERT_FALSE(mover.empty());

  // Mid-transition, BEFORE the donor migrates: the old owner still serves.
  HttpResponse before =
      router.Handle(Request("POST", "/v1/decompose?k=2", mover));
  ASSERT_EQ(before.status, 200) << before.body;

  // The donor migrates and finalises EARLY (before the router flips): the
  // old-map forward now 421s, and the router must recover by retrying the
  // new owner — the client sees 200, never 421.
  auto& donor = backends[static_cast<size_t>(mover_old)];
  ASSERT_EQ(donor
                ->Handle(Request("POST",
                                 "/v1/admin/migrate?new_index=" +
                                     std::to_string(mover_old),
                                 new_map.Serialise()))
                .status,
            200);
  ASSERT_EQ(donor->Handle(Request("POST", "/v1/admin/migrate?finalise=1"))
                .status,
            200);
  HttpResponse after = router.Handle(Request("POST", "/v1/decompose?k=2", mover));
  ASSERT_EQ(after.status, 200)
      << "double-routing must hide the 421: " << after.body;
  EXPECT_NE(after.body.find("\"cache_hit\": true"), std::string::npos)
      << "the migrated entry must hit on the new owner: " << after.body;

  // Flip the router: the new map is now the only map.
  ASSERT_TRUE(router.CompleteTransition().ok());
  EXPECT_FALSE(router.transitioning());
  HttpResponse flipped =
      router.Handle(Request("POST", "/v1/decompose?k=2", mover));
  EXPECT_EQ(flipped.status, 200) << flipped.body;

  for (auto& backend : backends) backend->Stop();
}

TEST(ReshardTest, MigrationWarmsNewSiblingReplicasOfTheDonorsOwnRange) {
  // The new map keeps the donor's range but REPLICATES it onto a joining
  // process: the donor must push its retained slice to the new sibling
  // (skipping itself, identified by the `self` query parameter) or the
  // sibling comes up cold and round-robined traffic loses warm hits.
  const int p0 = FreePort(), p1 = FreePort(), p2 = FreePort();
  const std::string host = "127.0.0.1:";
  const service::ShardMap old_map =
      MustParse(host + std::to_string(p0) + "," + host + std::to_string(p1));
  const service::ShardMap new_map =
      MustParse(host + std::to_string(p0) + "*2," + host + std::to_string(p2) +
                "," + host + std::to_string(p1));
  ASSERT_EQ(new_map.num_shards(), 2);

  std::vector<std::unique_ptr<DecompositionServer>> backends;
  backends.push_back(StartBackend(p0, old_map, 0));  // donor
  backends.push_back(StartBackend(p1, old_map, 1));
  backends.push_back(StartBackend(p2, new_map, 0));  // joining sibling

  // Warm the donor with a couple of its own instances (both maps have two
  // ranges, so the donor's slice is unchanged — nothing "leaves").
  std::vector<std::string> warmed;
  for (int length = 3; length < 64 && warmed.size() < 2; ++length) {
    Hypergraph graph = MakePath(length);
    if (old_map.IndexFor(service::CanonicalFingerprint(graph)) == 0) {
      warmed.push_back(WriteHyperBench(graph));
    }
  }
  ASSERT_EQ(warmed.size(), 2u);
  for (const std::string& instance : warmed) {
    ASSERT_EQ(
        backends[0]->Handle(RoutedDecompose(instance, old_map)).status, 200);
  }

  // ':' is legal raw in a query string (RFC 3986); hdreshard sends it raw.
  const std::string self = "self=127.0.0.1:" + std::to_string(p0);
  HttpResponse migrated = backends[0]->Handle(
      Request("POST", "/v1/admin/migrate?new_index=0&" + self,
              new_map.Serialise()));
  ASSERT_EQ(migrated.status, 200) << migrated.body;
  EXPECT_EQ(migrated.body.find("127.0.0.1:" + std::to_string(p0) + "\""),
            std::string::npos)
      << "the donor must not push to itself: " << migrated.body;
  ASSERT_EQ(
      backends[0]->Handle(Request("POST", "/v1/admin/migrate?finalise=1"))
          .status,
      200);

  // The sibling now serves the donor's warm entries as cache hits.
  for (const std::string& instance : warmed) {
    HttpResponse hit = backends[2]->Handle(RoutedDecompose(instance, new_map));
    ASSERT_EQ(hit.status, 200) << hit.body;
    EXPECT_NE(hit.body.find("\"cache_hit\": true"), std::string::npos)
        << "sibling replica came up cold: " << hit.body;
  }

  for (auto& backend : backends) backend->Stop();
}

TEST(ReshardTest, AsyncJobsAdmittedBeforeTheFlipStayPollable) {
  // Job ids encode a range index under the map that minted them. This new
  // map SHIFTS every range to a different endpoint (p2 joins at the front),
  // so after the flip the id's range resolves to the wrong process — the
  // router must keep one generation of retired map and fall through to it.
  const int p0 = FreePort(), p1 = FreePort(), p2 = FreePort();
  const std::string host = "127.0.0.1:";
  const service::ShardMap old_map =
      MustParse(host + std::to_string(p0) + "," + host + std::to_string(p1));
  const service::ShardMap new_map =
      MustParse(host + std::to_string(p2) + "," + host + std::to_string(p0) +
                "," + host + std::to_string(p1));

  std::vector<std::unique_ptr<DecompositionServer>> backends;
  backends.push_back(StartBackend(p0, old_map, 0));
  backends.push_back(StartBackend(p1, old_map, 1));
  // p2 is intentionally never started: polling must survive the new map's
  // range endpoint being dead AND wrong.

  ShardRouterOptions router_options{old_map};
  router_options.connect_timeout_seconds = 1.0;
  ShardRouter router(std::move(router_options));

  const std::string instance = WriteHyperBench(MakePath(5));
  HttpResponse admitted =
      router.Handle(Request("POST", "/v1/decompose?k=2&async=1", instance));
  ASSERT_EQ(admitted.status, 202) << admitted.body;
  size_t start = admitted.body.find("\"job\": \"") + 8;
  const std::string id =
      admitted.body.substr(start, admitted.body.find('"', start) - start);

  ASSERT_TRUE(router.BeginTransition(new_map).ok());
  ASSERT_TRUE(router.CompleteTransition().ok());

  HttpResponse job;
  for (int i = 0; i < 200; ++i) {
    job = router.Handle(Request("GET", "/v1/jobs/" + id));
    ASSERT_EQ(job.status, 200)
        << "a pre-flip job id must stay pollable: " << job.body;
    if (job.body.find("\"state\": \"done\"") != std::string::npos) break;
  }
  EXPECT_NE(job.body.find("\"state\": \"done\""), std::string::npos) << job.body;

  for (auto& backend : backends) backend->Stop();
}

TEST(ReshardTest, ReplicatedRangeRoundRobinsAndSurvivesReplicaDeath) {
  const int pa = FreePort(), pb = FreePort();
  const std::string host = "127.0.0.1:";
  // One range, two replicas: both processes serve the full space as index 0.
  const service::ShardMap map = MustParse(host + std::to_string(pa) + "*2," +
                                          host + std::to_string(pb));
  std::vector<std::unique_ptr<DecompositionServer>> replicas;
  replicas.push_back(StartBackend(pa, map, 0));
  replicas.push_back(StartBackend(pb, map, 0));

  ShardRouterOptions router_options{map};
  router_options.backoff_base_seconds = 5.0;  // long: one failure sticks
  router_options.connect_timeout_seconds = 1.0;
  ShardRouter router(std::move(router_options));

  // Round-robin: two identical requests land on BOTH replicas (each solves
  // once — the second is NOT a cache hit because it hit the other replica).
  const std::string instance = WriteHyperBench(MakePath(6));
  for (int round = 0; round < 2; ++round) {
    HttpResponse response =
        router.Handle(Request("POST", "/v1/decompose?k=2", instance));
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_NE(response.body.find("\"cache_hit\": false"), std::string::npos)
        << "round-robin must alternate replicas: " << response.body;
  }
  EXPECT_EQ(replicas[0]->admission_stats().admitted, 1u);
  EXPECT_EQ(replicas[1]->admission_stats().admitted, 1u);

  // Async jobs round-robin too, and each replica mints its OWN counter, so
  // the router's id prefix must name the replica — polling "s0.j1" on the
  // wrong replica would return a DIFFERENT client's job.
  const std::string other = WriteHyperBench(MakeCycle(7));
  std::vector<std::pair<std::string, std::string>> jobs;  // id -> instance
  for (const std::string* body : {&instance, &other}) {
    HttpResponse admitted =
        router.Handle(Request("POST", "/v1/decompose?k=2&async=1", *body));
    ASSERT_EQ(admitted.status, 202) << admitted.body;
    size_t start = admitted.body.find("\"job\": \"") + 8;
    jobs.emplace_back(
        admitted.body.substr(start, admitted.body.find('"', start) - start),
        *body);
  }
  EXPECT_NE(jobs[0].first.substr(0, jobs[0].first.find('.')),
            jobs[1].first.substr(0, jobs[1].first.find('.')))
      << "round-robined async jobs must carry distinct replica prefixes";
  for (const auto& [id, body] : jobs) {
    auto parsed = ParseAuto(body);
    ASSERT_TRUE(parsed.ok());
    const std::string fp_hex =
        service::CanonicalFingerprint(*parsed).ToHex();
    HttpResponse job;
    for (int i = 0; i < 200; ++i) {
      job = router.Handle(Request("GET", "/v1/jobs/" + id));
      ASSERT_EQ(job.status, 200) << job.body;
      if (job.body.find("\"state\": \"done\"") != std::string::npos) break;
    }
    EXPECT_NE(job.body.find("\"fingerprint\": \"" + fp_hex + "\""),
              std::string::npos)
        << "poll of " << id << " must return ITS job, not a sibling's: "
        << job.body;
  }

  // Kill one replica: the next request pays one transport failure, fails
  // over to the survivor, and serves its warm entry — a 200 cache hit, not
  // a 503 and not a cold start.
  replicas[0]->Stop();
  for (int round = 0; round < 2; ++round) {
    HttpResponse response =
        router.Handle(Request("POST", "/v1/decompose?k=2", instance));
    ASSERT_EQ(response.status, 200)
        << "replica death must not surface: " << response.body;
    EXPECT_NE(response.body.find("\"cache_hit\": true"), std::string::npos)
        << response.body;
  }
  auto stats = router.shard_stats();
  ASSERT_EQ(stats.size(), 2u);
  uint64_t transport_errors = 0;
  for (const auto& endpoint : stats) transport_errors += endpoint.transport_errors;
  EXPECT_GE(transport_errors, 1u);

  replicas[1]->Stop();
}

}  // namespace
}  // namespace htd::net
