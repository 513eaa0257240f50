#include "simkit/resource.h"

#include <algorithm>
#include <cassert>

namespace msra::simkit {

Resource::Resource(std::string name, int capacity) : name_(std::move(name)) {
  assert(capacity >= 1);
  servers_.resize(static_cast<std::size_t>(capacity));
  server_stats_.resize(static_cast<std::size_t>(capacity));
}

Resource::~Resource() = default;

SimTime Resource::earliest_start(const Schedule& schedule, SimTime ready,
                                 SimTime service) {
  // An interval that ends by `ready` can neither hold the start back nor
  // leave a gap after `ready`, so the scan begins past all of them.
  SimTime start = ready;
  for (auto it = std::partition_point(
           schedule.begin(), schedule.end(),
           [ready](const Interval& interval) { return interval.end <= ready; });
       it != schedule.end(); ++it) {
    if (start + service <= it->start) break;  // fits in the gap before
    start = std::max(start, it->end);
  }
  return start;
}

void Resource::insert(Schedule& schedule, SimTime start, SimTime service) {
  const SimTime end = start + service;
  // A service that rounds away at `start` occupies nothing; an interval
  // [start, start] could land after a later one with the same start and
  // break the ordering of the ends that earliest_start searches.
  if (end == start) return;
  auto it = std::lower_bound(
      schedule.begin(), schedule.end(), start,
      [](const Interval& interval, SimTime t) { return interval.start < t; });
  // Merge with the predecessor when touching (the common append case).
  if (it != schedule.begin()) {
    auto prev = std::prev(it);
    if (prev->end == start) {
      prev->end = end;
      // Merge with the successor too if now touching.
      if (it != schedule.end() && it->start == end) {
        prev->end = it->end;
        schedule.erase(it);
      }
      return;
    }
  }
  if (it != schedule.end() && it->start == end) {
    it->start = start;
    return;
  }
  schedule.insert(it, Interval{start, end});
}

void Resource::note_class(const QosTag& tag, SimTime wait, SimTime backlog,
                          SimTime ready, SimTime completion) {
  ClassQueueStats& stats = class_stats_[tag.class_id];
  ++stats.served;
  stats.total_wait += wait;
  stats.max_wait = std::max(stats.max_wait, wait);
  stats.max_backlog = std::max(stats.max_backlog, backlog);
  if (tag.deadline > 0.0 && completion > ready + tag.deadline) {
    ++stats.deadline_misses;
  }
}

SimTime Resource::reserve(SimTime ready, SimTime service) {
  // Books under the ambient QosScope, like acquire(): direct reserve()
  // callers (e.g. net::Link::transmit_at) otherwise dodge classification.
  return reserve(ready, service, current_qos_tag());
}

SimTime Resource::reserve(SimTime ready, SimTime service, const QosTag& tag) {
  assert(service >= 0.0);
  std::function<void(SimTime)> observer;
  std::function<void(int, SimTime)> class_observer;
  SimTime wait = 0.0;
  SimTime completion;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++ops_;
    if (service <= 0.0) return ready;  // zero work occupies nothing

    if (discipline_ != nullptr) {
      // Discipline path: the fluid model decides the completion; interval
      // schedules stay untouched (their sorted non-overlap invariant only
      // holds for FIFO bookings). Served/horizon accounting attributes the
      // grant to the least-loaded server so utilization() and next_free()
      // keep reporting sensible aggregates.
      const QosGrant grant = discipline_->grant(ready, service, tag);
      completion = grant.completion;
      busy_ += service;
      wait = std::max(0.0, completion - service - ready);
      ++queue_.reservations;
      queue_.total_wait += wait;
      queue_.max_wait = std::max(queue_.max_wait, wait);
      std::size_t best = 0;
      for (std::size_t s = 1; s < server_stats_.size(); ++s) {
        if (server_stats_[s].horizon < server_stats_[best].horizon) best = s;
      }
      ServerStats& stats = server_stats_[best];
      stats.served += service;
      stats.horizon = std::max(stats.horizon, completion);
      note_class(tag, wait, grant.backlog, ready, completion);
    } else {
      // Native FIFO booking: pick the server offering the earliest start.
      std::size_t best = 0;
      SimTime best_start = 0.0;
      bool first = true;
      for (std::size_t s = 0; s < servers_.size(); ++s) {
        const SimTime start = earliest_start(servers_[s], ready, service);
        if (first || start < best_start) {
          best = s;
          best_start = start;
          first = false;
        }
        if (start == ready) break;  // cannot do better
      }
      insert(servers_[best], best_start, service);
      busy_ += service;
      wait = best_start - ready;
      ++queue_.reservations;
      queue_.total_wait += wait;
      queue_.max_wait = std::max(queue_.max_wait, wait);
      ServerStats& stats = server_stats_[best];
      stats.served += service;
      stats.horizon = std::max(stats.horizon, best_start + service);
      completion = best_start + service;
      note_class(tag, wait, /*backlog=*/wait, ready, completion);
    }
    observer = wait_observer_;
    class_observer = class_wait_observer_;
  }
  // Outside the lock: the observers typically land in obs::Histograms
  // with their own synchronization.
  if (observer) observer(wait);
  if (class_observer) class_observer(tag.class_id, wait);
  return completion;
}

SimTime Resource::acquire(Timeline& timeline, SimTime service) {
  const SimTime end = reserve(timeline.now(), service, current_qos_tag());
  timeline.advance_to(end);
  return end;
}

void Resource::set_discipline(DisciplineKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  discipline_ = make_discipline(kind, static_cast<int>(servers_.size()));
}

DisciplineKind Resource::discipline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return discipline_ == nullptr ? DisciplineKind::kFifo : discipline_->kind();
}

SimTime Resource::busy_time() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_;
}

std::uint64_t Resource::operations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ops_;
}

Resource::QueueStats Resource::queue_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_;
}

std::map<int, Resource::ClassQueueStats> Resource::class_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return class_stats_;
}

std::vector<Resource::ServerStats> Resource::server_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return server_stats_;
}

double Resource::utilization() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SimTime served = 0.0;
  SimTime horizon = 0.0;
  for (const ServerStats& stats : server_stats_) {
    served += stats.served;
    horizon = std::max(horizon, stats.horizon);
  }
  if (horizon <= 0.0) return 0.0;
  return served / (horizon * static_cast<double>(servers_.size()));
}

SimTime Resource::next_free() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SimTime earliest = server_stats_.empty() ? 0.0 : server_stats_[0].horizon;
  for (const ServerStats& stats : server_stats_) {
    earliest = std::min(earliest, stats.horizon);
  }
  return earliest;
}

void Resource::set_wait_observer(std::function<void(SimTime)> observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  wait_observer_ = std::move(observer);
}

void Resource::set_class_wait_observer(
    std::function<void(int, SimTime)> observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  class_wait_observer_ = std::move(observer);
}

void Resource::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& schedule : servers_) schedule.clear();
  for (auto& stats : server_stats_) stats = ServerStats{};
  busy_ = 0.0;
  ops_ = 0;
  queue_ = QueueStats{};
  class_stats_.clear();
  if (discipline_ != nullptr) discipline_->reset();
}

}  // namespace msra::simkit
