#include "tape/hsm.h"

#include <algorithm>
#include <vector>

#include "common/bytes.h"
#include "obs/metrics.h"

namespace msra::tape {

HsmStore::HsmStore(std::string name, HsmModel model, TapeLibrary* tape)
    : name_(std::move(name)),
      model_(model),
      tape_(tape),
      cache_arm_(name_ + "/cache-arm") {}

Status HsmStore::create(const std::string& name, bool overwrite) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (!overwrite) return Status::AlreadyExists("bitfile exists: " + name);
    Entry& entry = it->second;
    if (entry.cached) {
      cache_used_ -= entry.bytes;
      (void)cache_.remove(name);
    }
    if (entry.on_tape) (void)tape_->remove(name);
    entry = Entry{};
    entry.cached = true;
    entry.dirty = true;
    return cache_.create(name, /*overwrite=*/true);
  }
  Entry entry;
  entry.cached = true;
  entry.dirty = true;
  entries_.emplace(name, entry);
  return cache_.create(name, /*overwrite=*/false);
}

bool HsmStore::exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(name) != 0;
}

StatusOr<std::uint64_t> HsmStore::size(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return Status::NotFound("no bitfile: " + name);
  return it->second.bytes;
}

void HsmStore::set_metrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (registry == nullptr) {
    m_hits_ = nullptr;
    m_recalls_ = nullptr;
    m_migrations_ = nullptr;
    m_evictions_ = nullptr;
    m_cache_used_ = nullptr;
    m_recall_time_ = nullptr;
    return;
  }
  m_hits_ = registry->counter("hsm.cache_hits");
  m_recalls_ = registry->counter("hsm.recalls");
  m_migrations_ = registry->counter("hsm.migrations");
  m_evictions_ = registry->counter("hsm.evictions");
  m_cache_used_ = registry->gauge("hsm.cache_used_bytes");
  m_recall_time_ = registry->histogram("hsm.recall_time");
}

Status HsmStore::migrate_locked(simkit::Timeline& timeline,
                                const std::string& name, Entry& entry) {
  // Read the cached copy (disk time) and write it to tape sequentially.
  ByteBuffer payload(entry.bytes);  // read in full before it is written
  MSRA_RETURN_IF_ERROR(cache_.read(name, 0, payload));
  cache_arm_.acquire(timeline, model_.cache_disk.read_time(entry.bytes));
  MSRA_RETURN_IF_ERROR(tape_->create(name, /*overwrite=*/entry.on_tape));
  MSRA_RETURN_IF_ERROR(tape_->append(timeline, name, 0, payload));
  entry.on_tape = true;
  entry.dirty = false;
  ++stats_.migrations;
  if (m_migrations_) m_migrations_->increment();
  return Status::Ok();
}

Status HsmStore::ensure_room_locked(simkit::Timeline& timeline,
                                    std::uint64_t bytes,
                                    const std::string& exclude) {
  if (bytes > model_.cache_capacity) {
    return Status::CapacityExceeded("object larger than the staging cache");
  }
  while (cache_used_ + bytes > model_.cache_capacity) {
    // LRU victim among cached entries.
    std::string victim;
    simkit::SimTime oldest = 0.0;
    bool found = false;
    for (const auto& [name, entry] : entries_) {
      if (!entry.cached || name == exclude) continue;
      if (!found || entry.last_use < oldest) {
        victim = name;
        oldest = entry.last_use;
        found = true;
      }
    }
    if (!found) {
      return Status::CapacityExceeded("staging cache cannot make room");
    }
    Entry& entry = entries_[victim];
    if (entry.dirty) {
      MSRA_RETURN_IF_ERROR(migrate_locked(timeline, victim, entry));
    } else {
      ++stats_.evictions;
      if (m_evictions_) m_evictions_->increment();
    }
    cache_used_ -= entry.bytes;
    if (m_cache_used_) m_cache_used_->set(static_cast<double>(cache_used_));
    entry.cached = false;
    (void)cache_.remove(victim);
  }
  return Status::Ok();
}

Status HsmStore::recall_locked(simkit::Timeline& timeline,
                               const std::string& name, Entry& entry) {
  const simkit::SimTime recall_start = timeline.now();
  MSRA_RETURN_IF_ERROR(ensure_room_locked(timeline, entry.bytes, name));
  ByteBuffer payload(entry.bytes);  // read in full before it is written
  MSRA_RETURN_IF_ERROR(tape_->read(timeline, name, 0, payload));
  MSRA_RETURN_IF_ERROR(cache_.create(name, /*overwrite=*/true));
  MSRA_RETURN_IF_ERROR(cache_.write(name, 0, payload));
  cache_arm_.acquire(timeline, model_.cache_disk.write_time(entry.bytes));
  entry.cached = true;
  entry.dirty = false;
  cache_used_ += entry.bytes;
  ++stats_.recalls;
  if (m_recalls_) m_recalls_->increment();
  if (m_recall_time_) m_recall_time_->record(timeline.now() - recall_start);
  if (m_cache_used_) m_cache_used_->set(static_cast<double>(cache_used_));
  return Status::Ok();
}

Status HsmStore::append(simkit::Timeline& timeline, const std::string& name,
                        std::uint64_t offset, std::span<const std::byte> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return Status::NotFound("no bitfile: " + name);
  Entry& entry = it->second;
  if (offset > entry.bytes) {
    return Status::InvalidArgument("write past end of staged bitfile " + name);
  }
  if (!entry.cached) {
    MSRA_RETURN_IF_ERROR(recall_locked(timeline, name, entry));
  }
  const std::uint64_t growth =
      offset + data.size() > entry.bytes ? offset + data.size() - entry.bytes : 0;
  if (growth > 0) {
    MSRA_RETURN_IF_ERROR(ensure_room_locked(timeline, growth, name));
  }
  MSRA_RETURN_IF_ERROR(cache_.write(name, offset, data));
  cache_arm_.acquire(timeline, model_.cache_disk.write_time(data.size()));
  entry.bytes += growth;
  cache_used_ += growth;
  if (growth > 0 && m_cache_used_) {
    m_cache_used_->set(static_cast<double>(cache_used_));
  }
  entry.dirty = true;
  entry.last_use = timeline.now();
  return Status::Ok();
}

Status HsmStore::read(simkit::Timeline& timeline, const std::string& name,
                      std::uint64_t offset, std::span<std::byte> out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return Status::NotFound("no bitfile: " + name);
  Entry& entry = it->second;
  if (offset + out.size() > entry.bytes) {
    return Status::OutOfRange("read past end of bitfile " + name);
  }
  if (entry.cached) {
    ++stats_.cache_hits;
    if (m_hits_) m_hits_->increment();
  } else {
    MSRA_RETURN_IF_ERROR(recall_locked(timeline, name, entry));
  }
  MSRA_RETURN_IF_ERROR(cache_.read(name, offset, out));
  cache_arm_.acquire(timeline, model_.cache_disk.read_time(out.size()));
  entry.last_use = timeline.now();
  return Status::Ok();
}

Status HsmStore::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return Status::NotFound("no bitfile: " + name);
  if (it->second.cached) {
    cache_used_ -= it->second.bytes;
    if (m_cache_used_) m_cache_used_->set(static_cast<double>(cache_used_));
    (void)cache_.remove(name);
  }
  if (it->second.on_tape) (void)tape_->remove(name);
  entries_.erase(it);
  return Status::Ok();
}

std::vector<store::ObjectInfo> HsmStore::list(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<store::ObjectInfo> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back({it->first, it->second.bytes});
  }
  return out;
}

std::uint64_t HsmStore::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, entry] : entries_) total += entry.bytes;
  return total;
}

simkit::SimTime HsmStore::open_cost(const std::string& name, bool write) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  // Creating a new bitfile stages it: cache-rate open. Reading an
  // un-staged one pays the tape open.
  const bool staged = it == entries_.end() ? write : it->second.cached;
  if (staged) return model_.open_cached;
  return tape_->open_cost(name, write);
}

simkit::SimTime HsmStore::close_cost(bool write) const {
  (void)write;
  return model_.close_cached;
}

void HsmStore::reset_clocks() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cache_arm_.reset();
  }
  tape_->reset_clocks();
}

Status HsmStore::migrate_all(simkit::Timeline& timeline) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : entries_) {
    if (entry.cached && entry.dirty) {
      MSRA_RETURN_IF_ERROR(migrate_locked(timeline, name, entry));
    }
  }
  return Status::Ok();
}

std::uint64_t HsmStore::cache_used() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_used_;
}

HsmStats HsmStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool HsmStore::is_cached(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.cached;
}

}  // namespace msra::tape
