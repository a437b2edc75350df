#include "service/shard_map.h"

#include <cstdio>

#include "service/persistence.h"
#include "util/cli.h"
#include "util/hash.h"
#include "util/logging.h"

namespace htd::service {

namespace {

constexpr int kMaxShards = 4096;
constexpr int kMaxReplicas = 8;

std::string_view TrimSpaces(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

util::StatusOr<ShardEndpoint> ShardEndpoint::Parse(std::string_view text) {
  size_t colon = text.rfind(':');
  long port;
  if (colon == std::string_view::npos || colon == 0 ||
      !util::ParseIntFlag(text.substr(colon + 1), 1, 65535, &port)) {
    return util::Status::InvalidArgument(
        "endpoint \"" + std::string(text) +
        "\" is not host:port with a port in [1, 65535]");
  }
  return ShardEndpoint{std::string(text.substr(0, colon)),
                       static_cast<int>(port)};
}

ShardMap::ShardMap(std::vector<std::vector<ShardEndpoint>> replicas)
    : replicas_(std::move(replicas)) {
  HTD_CHECK_GE(replicas_.size(), 1u);
  const uint64_t n = replicas_.size();
  // floor((2^64 - 1) / n) + 1: n slices of this width cover the whole space,
  // and (n-1) * step_ never overflows for n <= kMaxShards (<< 2^32).
  step_ = n == 1 ? 0 : (~0ULL / n) + 1;
}

util::StatusOr<ShardMap> ShardMap::Parse(const std::string& spec) {
  std::vector<std::vector<ShardEndpoint>> replicas;
  int pending_replicas = 0;  // plain items still owed to the open group
  std::string_view rest = spec;
  while (true) {
    size_t comma = rest.find(',');
    std::string_view item = TrimSpaces(rest.substr(0, comma));
    if (item.empty()) {
      return util::Status::InvalidArgument(
          "shard map: empty endpoint in \"" + spec + "\"");
    }
    // "host:port*R" opens a replica group of R endpoints; the R-1 plain
    // items that follow join it instead of opening new ranges.
    long replica_count = 1;
    size_t star = item.rfind('*');
    if (star != std::string_view::npos) {
      if (pending_replicas > 0) {
        return util::Status::InvalidArgument(
            "shard map: \"" + std::string(item) +
            "\" opens a replica group inside another replica group");
      }
      if (!util::ParseIntFlag(item.substr(star + 1), 1, kMaxReplicas,
                              &replica_count)) {
        return util::Status::InvalidArgument(
            "shard map: bad replica count in \"" + std::string(item) +
            "\" (expected *1 to *" + std::to_string(kMaxReplicas) + ")");
      }
      item = item.substr(0, star);
    }
    auto parsed = ShardEndpoint::Parse(item);
    if (!parsed.ok()) {
      return util::Status::InvalidArgument("shard map: " +
                                           parsed.status().message());
    }
    ShardEndpoint endpoint = std::move(*parsed);
    for (const auto& range : replicas) {
      for (const ShardEndpoint& existing : range) {
        if (existing == endpoint) {
          return util::Status::InvalidArgument(
              "shard map: duplicate endpoint " + endpoint.host + ":" +
              std::to_string(endpoint.port));
        }
      }
    }
    if (pending_replicas > 0) {
      replicas.back().push_back(std::move(endpoint));
      --pending_replicas;
    } else {
      replicas.push_back({std::move(endpoint)});
      pending_replicas = static_cast<int>(replica_count) - 1;
    }
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  if (pending_replicas > 0) {
    return util::Status::InvalidArgument(
        "shard map: replica group is " + std::to_string(pending_replicas) +
        " endpoint(s) short in \"" + spec + "\"");
  }
  if (static_cast<int>(replicas.size()) > kMaxShards) {
    return util::Status::InvalidArgument(
        "shard map: more than " + std::to_string(kMaxShards) + " shards");
  }
  return ShardMap(std::move(replicas));
}

std::string ShardMap::Serialise() const {
  std::string out;
  for (const std::vector<ShardEndpoint>& range : replicas_) {
    for (size_t r = 0; r < range.size(); ++r) {
      if (!out.empty()) out += ',';
      out += range[r].host + ":" + std::to_string(range[r].port);
      if (r == 0 && range.size() > 1) {
        out += "*" + std::to_string(range.size());
      }
    }
  }
  return out;
}

uint64_t ShardMap::Digest() const {
  // FNV-1a over the canonical serialisation, then mixed: equal maps — and
  // only equal maps — digest equally. The serialisation carries the replica
  // grouping, so changing replication alone changes the digest too. The
  // snapshot version names the fingerprint function whose space the ranges
  // split, so peers on different versions disagree on the digest (421)
  // instead of filing entries outside each other's ranges.
  uint64_t h = 1469598103934665603ULL;
  const std::string text = "v" + std::to_string(kSnapshotVersion) + ";" +
                           std::to_string(replicas_.size()) + ";" +
                           Serialise();
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return util::Mix64(h);
}

std::string ShardMap::DigestHex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Digest()));
  return std::string(buf);
}

int ShardMap::num_endpoints() const {
  int total = 0;
  for (const std::vector<ShardEndpoint>& range : replicas_) {
    total += static_cast<int>(range.size());
  }
  return total;
}

int ShardMap::RangeOfEndpoint(const ShardEndpoint& endpoint) const {
  for (size_t index = 0; index < replicas_.size(); ++index) {
    for (const ShardEndpoint& candidate : replicas_[index]) {
      if (candidate == endpoint) return static_cast<int>(index);
    }
  }
  return -1;
}

std::vector<ShardEndpoint> ShardMap::Siblings(int index,
                                              const ShardEndpoint& self) const {
  HTD_CHECK_GE(index, 0);
  HTD_CHECK_LT(index, num_shards());
  std::vector<ShardEndpoint> siblings;
  for (const ShardEndpoint& candidate : replicas_[index]) {
    if (candidate == self) continue;
    siblings.push_back(candidate);
  }
  return siblings;
}

int ShardMap::IndexFor(const Fingerprint& fp) const {
  if (step_ == 0) return 0;
  const uint64_t index = fp.hi / step_;
  const uint64_t last = replicas_.size() - 1;
  return static_cast<int>(index < last ? index : last);
}

FingerprintRange ShardMap::RangeFor(int index) const {
  HTD_CHECK_GE(index, 0);
  HTD_CHECK_LT(index, num_shards());
  if (step_ == 0) return FingerprintRange{};
  FingerprintRange range;
  range.first_hi = static_cast<uint64_t>(index) * step_;
  range.last_hi = index == num_shards() - 1
                      ? ~0ULL
                      : static_cast<uint64_t>(index + 1) * step_ - 1;
  return range;
}

}  // namespace htd::service
