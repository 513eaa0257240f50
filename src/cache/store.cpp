#include "cache/store.h"

#include <algorithm>
#include <utility>

namespace msra::cache {

CacheStore::CacheStore(std::uint64_t capacity) : capacity_(capacity) {}

CacheEntryInfo CacheStore::info_of(const Entries::value_type& entry) {
  const auto& [path, e] = entry;
  return CacheEntryInfo{path, e.dataset_key, e.bytes->size(), e.hits,
                        e.saved_per_hit};
}

std::shared_ptr<const CacheStore::Snapshot> CacheStore::acquire(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(path);
  if (it == entries_.end()) return nullptr;
  Entry& entry = it->second;
  recency_.erase(entry.lru);
  entry.lru = ++clock_;
  recency_.emplace(entry.lru, it);
  ++entry.hits;
  auto snapshot =
      std::make_shared<Snapshot>(Snapshot{entry.bytes, entry.saved_per_hit});
  // Register the lease so a read that was lowered against this snapshot can
  // still resolve it after invalidation, pruning expired leases of the same
  // path while we are here.
  auto [begin, end] = leases_.equal_range(path);
  for (auto lease = begin; lease != end;) {
    lease = lease->second.expired() ? leases_.erase(lease) : std::next(lease);
  }
  leases_.emplace(path, snapshot);
  return snapshot;
}

std::shared_ptr<const CacheStore::Snapshot> CacheStore::snapshot_for_read(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(path);
  if (it != entries_.end()) {
    return std::make_shared<Snapshot>(
        Snapshot{it->second.bytes, it->second.saved_per_hit});
  }
  // Entry gone (invalidated / evicted): serve the newest still-pinned lease,
  // dropping expired ones as we go.
  auto [begin, end] = leases_.equal_range(path);
  std::shared_ptr<const Snapshot> newest;
  for (auto lease = begin; lease != end;) {
    if (auto live = lease->second.lock()) {
      newest = std::move(live);  // equal keys iterate in insertion order
      ++lease;
    } else {
      lease = leases_.erase(lease);
    }
  }
  return newest;
}

InsertPlan CacheStore::plan_insert_locked(std::uint64_t bytes) const {
  InsertPlan plan;
  if (bytes > capacity_) return plan;
  std::uint64_t used = used_;
  std::vector<Entries::const_iterator> victims;
  for (auto lru = recency_.begin();
       lru != recency_.end() && used + bytes > capacity_; ++lru) {
    victims.push_back(lru->second);
    used -= lru->second->second.bytes->size();
  }
  plan.fits = true;
  // Report victims in path order: the judge sums their damage in this
  // order, so it is part of the priced verdict.
  std::sort(victims.begin(), victims.end(),
            [](auto a, auto b) { return a->first < b->first; });
  plan.evicted.reserve(victims.size());
  for (auto victim : victims) plan.evicted.push_back(info_of(*victim));
  return plan;
}

InsertPlan CacheStore::plan_insert(std::uint64_t bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_insert_locked(bytes);
}

Status CacheStore::insert(const std::string& path,
                          const std::string& dataset_key, ByteBuffer payload,
                          double saved_per_hit, InsertPlan* applied) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(path) > 0) {
    return Status::AlreadyExists("already cached: " + path);
  }
  const std::uint64_t bytes = payload.size();
  InsertPlan plan = plan_insert_locked(bytes);
  if (!plan.fits) {
    return Status::CapacityExceeded("cache cannot fit " + path);
  }
  for (const CacheEntryInfo& victim : plan.evicted) {
    erase_locked(entries_.find(victim.path));
  }
  Entry entry;
  entry.dataset_key = dataset_key;
  entry.bytes = std::make_shared<ByteBuffer>(std::move(payload));
  entry.saved_per_hit = saved_per_hit;
  entry.lru = ++clock_;
  auto it = entries_.emplace(path, std::move(entry)).first;
  recency_.emplace(it->second.lru, it);
  used_ += bytes;
  if (applied != nullptr) *applied = std::move(plan);
  return Status::Ok();
}

void CacheStore::erase_locked(Entries::iterator it) {
  used_ -= it->second.bytes->size();
  recency_.erase(it->second.lru);
  entries_.erase(it);
}

bool CacheStore::contains(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(path) > 0;
}

std::optional<CacheEntryInfo> CacheStore::info(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(path);
  if (it == entries_.end()) return std::nullopt;
  return info_of(*it);
}

bool CacheStore::erase(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(path);
  if (it == entries_.end()) return false;
  erase_locked(it);
  return true;
}

void CacheStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  recency_.clear();
  entries_.clear();
  used_ = 0;
}

CacheStoreStats CacheStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return CacheStoreStats{capacity_, used_, entries_.size()};
}

std::vector<CacheEntryInfo> CacheStore::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CacheEntryInfo> out;
  out.reserve(recency_.size());
  for (auto lru = recency_.rbegin(); lru != recency_.rend(); ++lru) {
    out.push_back(info_of(*lru->second));
  }
  return out;
}

}  // namespace msra::cache
