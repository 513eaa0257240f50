#include "prt/comm.h"

#include <cassert>
#include <cstring>
#include <thread>
#include <tuple>

namespace msra::prt {

World::World(int nprocs) : nprocs_(nprocs) {
  assert(nprocs >= 1);
  shared_.slots.resize(static_cast<std::size_t>(nprocs));
  shared_.turn_clock.resize(static_cast<std::size_t>(nprocs));
  shared_.turn_active.resize(static_cast<std::size_t>(nprocs));
  timelines_.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    timelines_.push_back(std::make_unique<simkit::Timeline>());
  }
}

World::~World() = default;

void World::run(const std::function<void(Comm&)>& fn, simkit::SimTime start) {
  for (auto& tl : timelines_) tl->reset(start);
  if (nprocs_ == 1) {
    Comm comm(this, 0);
    fn(comm);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs_));
  for (int r = 0; r < nprocs_; ++r) {
    threads.emplace_back([this, &fn, r] {
      Comm comm(this, r);
      fn(comm);
    });
  }
  for (auto& t : threads) t.join();
}

void Comm::barrier() {
  World::Shared& s = world_->shared_;
  std::unique_lock<std::mutex> lock(s.mutex);
  const std::uint64_t generation = s.barrier_generation;
  if (++s.barrier_count == world_->size()) {
    s.barrier_count = 0;
    ++s.barrier_generation;
    s.cv.notify_all();
  } else {
    s.cv.wait(lock, [&] { return s.barrier_generation != generation; });
  }
}

ByteBuffer Comm::bcast(std::span<const std::byte> data, int root) {
  World::Shared& s = world_->shared_;
  if (rank_ == root) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.slots[static_cast<std::size_t>(root)].assign(data.begin(), data.end());
  }
  barrier();  // payload visible
  ByteBuffer out;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    out = s.slots[static_cast<std::size_t>(root)];
  }
  barrier();  // slot may be reused
  return out;
}

ByteBuffer Comm::gatherv(std::span<const std::byte> contribution, int root,
                         std::vector<std::uint64_t>* sizes) {
  World::Shared& s = world_->shared_;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.slots[static_cast<std::size_t>(rank_)].assign(contribution.begin(),
                                                    contribution.end());
  }
  barrier();
  ByteBuffer out;
  if (rank_ == root) {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (sizes) sizes->clear();
    std::size_t total = 0;
    for (const auto& slot : s.slots) total += slot.size();
    out.reserve(total);
    for (const auto& slot : s.slots) {
      if (sizes) sizes->push_back(slot.size());
      out.insert(out.end(), slot.begin(), slot.end());
    }
  }
  barrier();
  return out;
}

ByteBuffer Comm::allgatherv(std::span<const std::byte> contribution,
                            std::vector<std::uint64_t>* sizes) {
  World::Shared& s = world_->shared_;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.slots[static_cast<std::size_t>(rank_)].assign(contribution.begin(),
                                                    contribution.end());
  }
  barrier();
  ByteBuffer out;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (sizes) sizes->clear();
    std::size_t total = 0;
    for (const auto& slot : s.slots) total += slot.size();
    out.reserve(total);
    for (const auto& slot : s.slots) {
      if (sizes) sizes->push_back(slot.size());
      out.insert(out.end(), slot.begin(), slot.end());
    }
  }
  barrier();
  return out;
}

ByteBuffer Comm::scatterv(std::vector<ByteBuffer> chunks, int root) {
  World::Shared& s = world_->shared_;
  if (rank_ == root) {
    assert(chunks.size() == static_cast<std::size_t>(size()));
    std::lock_guard<std::mutex> lock(s.mutex);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      s.slots[i] = std::move(chunks[i]);
    }
  }
  barrier();
  ByteBuffer out;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    out = std::move(s.slots[static_cast<std::size_t>(rank_)]);
    s.slots[static_cast<std::size_t>(rank_)].clear();
  }
  barrier();
  return out;
}

namespace {
template <typename T>
std::vector<std::byte> to_bytes(T value) {
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}
template <typename T>
T from_bytes(const std::byte* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}
}  // namespace

double Comm::allreduce_max(double value) {
  auto all = allgatherv(to_bytes(value));
  double best = value;
  for (std::size_t i = 0; i < all.size(); i += sizeof(double)) {
    best = std::max(best, from_bytes<double>(all.data() + i));
  }
  return best;
}

double Comm::allreduce_sum(double value) {
  auto all = allgatherv(to_bytes(value));
  double sum = 0.0;
  for (std::size_t i = 0; i < all.size(); i += sizeof(double)) {
    sum += from_bytes<double>(all.data() + i);
  }
  return sum;
}

std::uint64_t Comm::allreduce_sum_u64(std::uint64_t value) {
  auto all = allgatherv(to_bytes(value));
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < all.size(); i += sizeof(std::uint64_t)) {
    sum += from_bytes<std::uint64_t>(all.data() + i);
  }
  return sum;
}

void Comm::send(int dst, int tag, ByteBuffer data) {
  World::Shared& s = world_->shared_;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.mailboxes[{rank_, dst, tag}].push_back(std::move(data));
  }
  s.cv.notify_all();
}

ByteBuffer Comm::recv(int src, int tag) {
  World::Shared& s = world_->shared_;
  std::unique_lock<std::mutex> lock(s.mutex);
  auto key = std::make_tuple(src, rank_, tag);
  s.cv.wait(lock, [&] {
    auto it = s.mailboxes.find(key);
    return it != s.mailboxes.end() && !it->second.empty();
  });
  auto& queue = s.mailboxes[key];
  ByteBuffer out = std::move(queue.front());
  queue.pop_front();
  return out;
}

void Comm::sync_time() {
  const double latest = allreduce_max(timeline().now());
  timeline().advance_to(latest);
}

void Comm::in_time_order(const std::function<bool()>& step) {
  World::Shared& s = world_->shared_;
  const auto me = static_cast<std::size_t>(rank_);
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.turn_clock[me] = timeline().now();
    s.turn_active[me] = true;
  }
  barrier();  // every rank's clock is posted before anyone steps
  const auto my_turn = [&] {
    for (std::size_t r = 0; r < s.turn_active.size(); ++r) {
      if (r == me || !s.turn_active[r]) continue;
      if (s.turn_clock[r] < s.turn_clock[me] ||
          (s.turn_clock[r] == s.turn_clock[me] && r < me)) {
        return false;
      }
    }
    return true;
  };
  bool more = true;
  while (more) {
    {
      std::unique_lock<std::mutex> lock(s.mutex);
      s.cv.wait(lock, my_turn);
    }
    more = step();
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      s.turn_clock[me] = timeline().now();
      s.turn_active[me] = more;
    }
    s.cv.notify_all();
  }
  barrier();  // no rank re-enters the turnstile while another still steps
}

}  // namespace msra::prt
