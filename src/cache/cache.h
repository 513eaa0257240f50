// ReadCache: the priced mid-tier read cache (facade over store + endpoint +
// admission).
//
// Sits between core::Session reads and the storage endpoints. A session
// read that finds its object here is lowered against the cache's own
// StorageEndpoint — billed through Eq. (1) into `io.cache.*` histograms by
// the usual InstrumentedEndpoint wrap, resumable through PlanCursor like
// any other leg. A miss carries a CacheOffer back; after the payload lands
// the offer is judged by the priced AdmissionJudge and inserted only when
// predicted seconds saved exceed predicted seconds lost. Writes and
// migration drops call invalidate() write-through, so cached bytes are
// never stale (reads already in flight keep their pinned pre-write
// snapshot, exactly like a POSIX reader across an unlink).
//
// Everything is off by default: StorageSystem has no cache until
// enable_cache() is called, and no baseline workload changes by a byte.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/admission.h"
#include "cache/store.h"
#include "common/bytes.h"
#include "common/status.h"

namespace msra::obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace msra::obs

namespace msra::runtime {
class StorageEndpoint;
}  // namespace msra::runtime

namespace msra::predict {
class Predictor;
}  // namespace msra::predict

namespace msra::migrate {
class AccessTracker;
}  // namespace msra::migrate

namespace msra::cache {

struct CacheConfig {
  std::uint64_t memory_bytes = 64ull << 20;  ///< capacity
  AdmissionConfig admission;
};

/// Counter snapshot for `msractl cache stats`.
struct CacheStats {
  CacheStoreStats store;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;        ///< priced offers that did not admit
  std::uint64_t invalidations = 0;   ///< entries dropped write-through
  std::uint64_t evictions = 0;       ///< entries dropped for space
  double saved_seconds = 0.0;        ///< sum of saved_per_hit over all hits
};

class ReadCache {
 public:
  /// `metrics` may be null (no io.cache.* rows, no mirror counters);
  /// `predictor` prices refetch quotes (null = every offer is kUnpriced and
  /// rejected); `tracker` supplies expected reuse (null = reuse 1).
  ReadCache(obs::MetricsRegistry* metrics,
            const predict::Predictor* predictor,
            const migrate::AccessTracker* tracker, const CacheConfig& config);
  ~ReadCache();

  ReadCache(const ReadCache&) = delete;
  ReadCache& operator=(const ReadCache&) = delete;

  /// The endpoint hits are executed against (instrumented when metrics were
  /// given, so `io.cache.*` histograms appear automatically).
  runtime::StorageEndpoint& endpoint() { return *endpoint_; }

  /// Hit-path lookup: non-null pins the entry's current bytes for the
  /// upcoming read (the pin must not outlive this cache) and counts a hit;
  /// null counts a miss. With `credit_saved` (whole-object hits), the
  /// entry's `saved_per_hit` seconds are credited to the
  /// cache.saved_seconds histogram; partial (box) hits pass false since the
  /// admission-time quote priced a whole-object refetch.
  std::shared_ptr<const void> lookup(const std::string& path,
                                     bool credit_saved = true);

  bool contains(const std::string& path) const { return store_.contains(path); }

  /// Prices (without inserting) what offer() would decide for `path` right
  /// now — the `msractl cache explain` entry point.
  AdmissionVerdict judge(const std::string& path,
                         const std::string& dataset_key, std::uint64_t bytes,
                         core::Location origin, double now) const;

  /// Post-miss offer: judge, and on admit keep the payload itself (no
  /// copy). Returns the verdict either way.
  AdmissionVerdict offer(const std::string& path,
                         const std::string& dataset_key, ByteBuffer payload,
                         core::Location origin, double now);

  /// Unpriced insert for PTool probes and tests: bypasses admission (still
  /// bounded by the capacity; evictions happen as usual).
  Status insert_probe(const std::string& path, const std::string& dataset_key,
                      std::span<const std::byte> payload,
                      double saved_per_hit = 0.0);

  /// Write-through invalidation. Entries drop immediately; pinned in-flight
  /// reads keep their pre-invalidation snapshot.
  void invalidate(const std::string& path);
  /// Drops everything (counted as invalidations).
  void flush();

  CacheStats stats() const;
  std::vector<CacheEntryInfo> entries() const { return store_.entries(); }
  const CacheConfig& config() const { return config_; }
  const CacheStore& store() const { return store_; }

 private:
  void apply_insert_side_effects(const InsertPlan& plan);
  void publish_occupancy();

  /// Internal tallies (authoritative for stats(); the obs counters below
  /// are mirrors so dashboards see the same numbers).
  struct Counters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> invalidations{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<double> saved_seconds{0.0};
  };

  CacheConfig config_;
  CacheStore store_;
  AdmissionJudge judge_;
  std::unique_ptr<runtime::StorageEndpoint> endpoint_;
  mutable Counters counters_;

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* admitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* invalidations_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* memory_bytes_gauge_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Histogram* saved_seconds_ = nullptr;
};

}  // namespace msra::cache
