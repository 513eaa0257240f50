// CacheStore: the bounded data plane of the mid-tier read cache.
//
// One LRU tier in node-local memory. Entries are whole stored objects keyed
// by their object path (which encodes dataset + timestep + run), plus the
// dataset key so heat lookups can work at dataset granularity. An insert
// that does not fit evicts least-recently-used entries until it does.
// Longer-lived local-disk copies are not the cache's business: the mover
// (flow::StagingScheduler) promotes replicas to LOCALDISK, priced and
// catalogued like every other placement.
//
// Readers pin entries through leases: `acquire` hands out a shared snapshot
// that keeps the admission-time bytes readable even if the entry is
// invalidated before the pinned read executes — the same guarantee POSIX
// unlink gives an open file descriptor, and the property the fleet runtime
// needs when a tenant yields between cache lookup and cache read.
//
// All operations are thread-safe; none advance virtual time (the
// CacheEndpoint bills serve time when the bytes are actually read).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace msra::cache {

/// Stats snapshot of one resident entry.
struct CacheEntryInfo {
  std::string path;
  std::string dataset_key;
  std::uint64_t bytes = 0;
  std::uint64_t hits = 0;
  double saved_per_hit = 0.0;  ///< priced refetch - serve at admission time
};

/// Occupancy snapshot of the whole store.
struct CacheStoreStats {
  std::uint64_t memory_capacity = 0;
  std::uint64_t memory_bytes = 0;
  std::uint64_t entries = 0;
};

/// What an insert of `bytes` would do to the resident set (computed with
/// the same LRU walk the insert executes, so admission can price the damage
/// of exactly the evictions that will happen).
struct InsertPlan {
  bool fits = false;
  std::vector<CacheEntryInfo> evicted;  ///< in path order
};

class CacheStore {
 public:
  /// Immutable bytes of one pinned entry.
  struct Snapshot {
    std::shared_ptr<const ByteBuffer> bytes;
    double saved_per_hit = 0.0;  ///< the entry's priced saving per hit
  };

  explicit CacheStore(std::uint64_t capacity);

  /// Pins `path` for an upcoming read: bumps LRU recency, counts a hit and
  /// returns a lease snapshot that stays readable past invalidation. Null
  /// if absent.
  std::shared_ptr<const Snapshot> acquire(const std::string& path);

  /// Resolves `path` for serving: the resident entry first, else the newest
  /// still-live lease (a pinned read whose entry was invalidated in between
  /// sees the pre-invalidation bytes). Null if neither exists.
  std::shared_ptr<const Snapshot> snapshot_for_read(const std::string& path);

  /// LRU consequences of inserting `bytes` right now, without mutating.
  InsertPlan plan_insert(std::uint64_t bytes) const;

  /// Inserts an entry, evicting per plan_insert. Fails with
  /// kCapacityExceeded when the payload is larger than the store and with
  /// kAlreadyExists when `path` is resident.
  Status insert(const std::string& path, const std::string& dataset_key,
                ByteBuffer payload, double saved_per_hit,
                InsertPlan* applied = nullptr);

  bool contains(const std::string& path) const;
  std::optional<CacheEntryInfo> info(const std::string& path) const;

  /// Drops `path`; pinned leases keep their bytes. False if absent.
  bool erase(const std::string& path);
  void clear();

  CacheStoreStats stats() const;
  /// Every resident entry, most-recently-used first (deterministic).
  std::vector<CacheEntryInfo> entries() const;

 private:
  struct Entry {
    std::string dataset_key;
    std::shared_ptr<const ByteBuffer> bytes;
    double saved_per_hit = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t lru = 0;  ///< logical recency clock (higher = more recent)
  };
  using Entries = std::map<std::string, Entry>;

  static CacheEntryInfo info_of(const Entries::value_type& entry);
  InsertPlan plan_insert_locked(std::uint64_t bytes) const;
  /// Drops one resident entry and its recency slot.
  void erase_locked(Entries::iterator it);

  mutable std::mutex mutex_;
  Entries entries_;
  /// Recency index over entries_: LRU clock value -> entry, oldest first.
  std::map<std::uint64_t, Entries::iterator> recency_;
  std::multimap<std::string, std::weak_ptr<const Snapshot>> leases_;
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t clock_ = 0;
};

}  // namespace msra::cache
