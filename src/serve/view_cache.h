// The approximate-view cache: merged estimator state as a servable value.
//
// The paper's estimator state is mergeable and tiny relative to base
// data; once a query's partial states have been merged, the
// merged state IS the answer's input — Finish() over it reproduces the
// report bit for bit (est/streaming.h round-trip guarantees). So the
// cache stores exactly that: one wire v2.1 bundle of merged state per
// (query definition, catalog content, seed, morsel geometry, admission
// scale). A hit re-runs Finish over deserialized state and touches no
// base data, no daemons, no executors.
//
// Keying doubles as invalidation:
//   * query_fingerprint  — plan shape, aggregate, GUS design, estimator
//     options; a different query (or confidence level) is a different
//     entry, never a wrong answer.
//   * catalog_fingerprint — PlanCatalogFingerprint over the scanned base
//     relations' *content*; any data change moves the key, so stale
//     state is structurally unreachable (and evictable in bulk via
//     InvalidateCatalog when a coordinator learns data changed).
//   * seed / morsel_rows / scale_bits — the remaining inputs the result
//     bits depend on. num_shards and num_threads are deliberately
//     absent: at a pinned morsel_rows results are shard- and
//     thread-count invariant (dist/shard.h), so gathers at different
//     fleet sizes — and sqlish kServed misses, which run kMorselParallel
//     in process — share one entry per query.
//
// Bundles are checksummed containers (est/wire.h); a poisoned entry
// fails ParseWireBundle loudly at hit time instead of serving numbers.
// Degraded (partial) gathers are never inserted — a cache must not
// immortalize an outage.

#ifndef GUS_SERVE_VIEW_CACHE_H_
#define GUS_SERVE_VIEW_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace gus {

/// \brief Identity of one cached merged-state bundle (see file comment).
struct ViewCacheKey {
  uint64_t query_fingerprint = 0;
  uint64_t catalog_fingerprint = 0;
  uint64_t seed = 0;
  int64_t morsel_rows = 0;
  /// IEEE-754 bits of the admission scale the entry ran at (scaled
  /// designs are different estimates; bit-compare, never epsilon).
  uint64_t scale_bits = 0;

  bool operator==(const ViewCacheKey& o) const {
    return query_fingerprint == o.query_fingerprint &&
           catalog_fingerprint == o.catalog_fingerprint && seed == o.seed &&
           morsel_rows == o.morsel_rows && scale_bits == o.scale_bits;
  }

  struct Hash {
    size_t operator()(const ViewCacheKey& k) const;
  };
};

/// \brief Thread-safe LRU cache of serialized merged estimator bundles.
class ViewCache {
 public:
  explicit ViewCache(size_t max_entries = 128);

  /// The cached bundle bytes, counting a hit (or miss). The returned
  /// copy is the caller's; the cache never hands out references.
  std::optional<std::string> Lookup(const ViewCacheKey& key);

  /// Inserts (or replaces) an entry, evicting LRU entries over capacity.
  void Insert(const ViewCacheKey& key, std::string bundle);

  /// \brief Drops every entry gathered against `catalog_fingerprint`;
  /// returns the count (also added to invalidations()).
  ///
  /// Keys already make stale entries unreachable — this reclaims their
  /// memory eagerly when a coordinator learns the data changed.
  int64_t InvalidateCatalog(uint64_t catalog_fingerprint);

  /// Drops everything (counted as invalidations).
  int64_t Clear();

  int64_t hits() const;
  int64_t misses() const;
  int64_t invalidations() const;
  size_t size() const;

  /// Test hook: flips bytes inside a cached bundle in place (true if the
  /// entry existed) — the poisoned-cache loud-failure path.
  bool CorruptEntryForTesting(const ViewCacheKey& key);

 private:
  struct Entry {
    std::string bundle;
    std::list<ViewCacheKey>::iterator lru_pos;
  };

  mutable std::mutex mu_;
  size_t max_entries_;
  std::unordered_map<ViewCacheKey, Entry, ViewCacheKey::Hash> entries_;
  /// Most-recent first; back is the eviction victim.
  std::list<ViewCacheKey> lru_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t invalidations_ = 0;
};

/// \brief The process-wide cache behind ExecEngine::kServed (sqlish) —
/// one instance so repeated queries across call sites share entries.
ViewCache* ProcessViewCache();

}  // namespace gus

#endif  // GUS_SERVE_VIEW_CACHE_H_
