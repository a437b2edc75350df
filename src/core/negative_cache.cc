#include "core/negative_cache.h"

#include <algorithm>

namespace htd {

bool NegativeCache::ContainsDominating(const ExtendedSubhypergraph& comp,
                                       const util::DynamicBitset& conn,
                                       const util::DynamicBitset& allowed) const {
  Key key{comp.edges, comp.specials, conn};
  key.ComputeHash();
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return false;
  for (const util::DynamicBitset& recorded : it->second) {
    if (allowed.IsSubsetOf(recorded)) return true;
  }
  return false;
}

void NegativeCache::Insert(const ExtendedSubhypergraph& comp,
                           const util::DynamicBitset& conn,
                           const util::DynamicBitset& allowed) {
  Key key{comp.edges, comp.specials, conn};
  key.ComputeHash();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::vector<util::DynamicBitset>& recorded = shard.entries[key];
  for (const util::DynamicBitset& existing : recorded) {
    if (allowed.IsSubsetOf(existing)) return;  // already dominated
  }
  // Keep the antichain: drop entries the new set dominates.
  recorded.erase(std::remove_if(recorded.begin(), recorded.end(),
                                [&](const util::DynamicBitset& existing) {
                                  return existing.IsSubsetOf(allowed);
                                }),
                 recorded.end());
  recorded.push_back(allowed);
}

size_t NegativeCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace htd
