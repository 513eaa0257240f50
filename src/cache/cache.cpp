#include "cache/cache.h"

#include "cache/endpoint.h"
#include "obs/endpoint.h"
#include "obs/metrics.h"

namespace msra::cache {

ReadCache::ReadCache(obs::MetricsRegistry* metrics,
                     const predict::Predictor* predictor,
                     const migrate::AccessTracker* tracker,
                     const CacheConfig& config)
    : config_(config),
      store_(config.memory_bytes),
      judge_(predictor, tracker, config.admission) {
  auto inner = std::make_unique<CacheEndpoint>(&store_);
  if (metrics != nullptr) {
    endpoint_ =
        std::make_unique<obs::InstrumentedEndpoint>(std::move(inner), metrics);
    hits_ = metrics->counter("cache.hits");
    misses_ = metrics->counter("cache.misses");
    admitted_ = metrics->counter("cache.admitted");
    rejected_ = metrics->counter("cache.rejected");
    invalidations_ = metrics->counter("cache.invalidations");
    evictions_ = metrics->counter("cache.evictions");
    memory_bytes_gauge_ = metrics->gauge("cache.memory_bytes");
    entries_gauge_ = metrics->gauge("cache.entries");
    saved_seconds_ = metrics->histogram("cache.saved_seconds");
  } else {
    endpoint_ = std::move(inner);
  }
}

ReadCache::~ReadCache() = default;

void ReadCache::publish_occupancy() {
  if (memory_bytes_gauge_ == nullptr) return;
  const CacheStoreStats stats = store_.stats();
  memory_bytes_gauge_->set(static_cast<double>(stats.memory_bytes));
  entries_gauge_->set(static_cast<double>(stats.entries));
}

std::shared_ptr<const void> ReadCache::lookup(const std::string& path,
                                              bool credit_saved) {
  std::shared_ptr<const CacheStore::Snapshot> pin = store_.acquire(path);
  if (pin == nullptr) {
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    if (misses_ != nullptr) misses_->increment();
    return nullptr;
  }
  counters_.hits.fetch_add(1, std::memory_order_relaxed);
  if (hits_ != nullptr) hits_->increment();
  const double saved = credit_saved ? pin->saved_per_hit : 0.0;
  if (saved > 0.0) {
    double expected = counters_.saved_seconds.load(std::memory_order_relaxed);
    while (!counters_.saved_seconds.compare_exchange_weak(
        expected, expected + saved, std::memory_order_relaxed)) {
    }
    if (saved_seconds_ != nullptr) saved_seconds_->record(saved);
  }
  return pin;
}

AdmissionVerdict ReadCache::judge(const std::string& path,
                                  const std::string& dataset_key,
                                  std::uint64_t bytes, core::Location origin,
                                  double now) const {
  return judge_.judge(store_, path, dataset_key, bytes, origin, now);
}

AdmissionVerdict ReadCache::offer(const std::string& path,
                                  const std::string& dataset_key,
                                  ByteBuffer payload, core::Location origin,
                                  double now) {
  AdmissionVerdict verdict =
      judge(path, dataset_key, payload.size(), origin, now);
  if (!verdict.admit()) {
    if (verdict.outcome != AdmissionOutcome::kAlreadyCached) {
      counters_.rejected.fetch_add(1, std::memory_order_relaxed);
      if (rejected_ != nullptr) rejected_->increment();
    }
    return verdict;
  }
  InsertPlan applied;
  Status inserted = store_.insert(path, dataset_key, std::move(payload),
                                  verdict.saved_per_hit, &applied);
  if (!inserted.ok()) {
    // Lost a race with a concurrent offer/insert of the same object:
    // somebody else already paid, treat as already-cached.
    verdict.outcome = AdmissionOutcome::kAlreadyCached;
    return verdict;
  }
  counters_.admitted.fetch_add(1, std::memory_order_relaxed);
  if (admitted_ != nullptr) admitted_->increment();
  apply_insert_side_effects(applied);
  publish_occupancy();
  return verdict;
}

Status ReadCache::insert_probe(const std::string& path,
                               const std::string& dataset_key,
                               std::span<const std::byte> payload,
                               double saved_per_hit) {
  InsertPlan applied;
  MSRA_RETURN_IF_ERROR(store_.insert(path, dataset_key,
                                     ByteBuffer(payload.begin(), payload.end()),
                                     saved_per_hit, &applied));
  apply_insert_side_effects(applied);
  publish_occupancy();
  return Status::Ok();
}

void ReadCache::apply_insert_side_effects(const InsertPlan& plan) {
  if (!plan.evicted.empty()) {
    counters_.evictions.fetch_add(plan.evicted.size(),
                                  std::memory_order_relaxed);
    if (evictions_ != nullptr) {
      evictions_->add(static_cast<std::uint64_t>(plan.evicted.size()));
    }
  }
}

void ReadCache::invalidate(const std::string& path) {
  if (!store_.erase(path)) return;
  counters_.invalidations.fetch_add(1, std::memory_order_relaxed);
  if (invalidations_ != nullptr) invalidations_->increment();
  publish_occupancy();
}

void ReadCache::flush() {
  const std::size_t dropped = store_.stats().entries;
  store_.clear();
  if (dropped > 0) {
    counters_.invalidations.fetch_add(dropped, std::memory_order_relaxed);
    if (invalidations_ != nullptr) {
      invalidations_->add(static_cast<std::uint64_t>(dropped));
    }
  }
  publish_occupancy();
}

CacheStats ReadCache::stats() const {
  CacheStats out;
  out.store = store_.stats();
  out.hits = counters_.hits.load(std::memory_order_relaxed);
  out.misses = counters_.misses.load(std::memory_order_relaxed);
  out.admitted = counters_.admitted.load(std::memory_order_relaxed);
  out.rejected = counters_.rejected.load(std::memory_order_relaxed);
  out.invalidations = counters_.invalidations.load(std::memory_order_relaxed);
  out.evictions = counters_.evictions.load(std::memory_order_relaxed);
  out.saved_seconds = counters_.saved_seconds.load(std::memory_order_relaxed);
  return out;
}

}  // namespace msra::cache
