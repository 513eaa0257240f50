// A thread-backed message-passing runtime (the IBM SP2 stand-in).
//
// Each "process" of the paper's parallel applications is a host thread with
// a rank. Comm provides the MP primitives the run-time I/O libraries need:
// barrier, broadcast, gather(v), all-reduce, point-to-point send/recv, plus
// virtual-time synchronization (collective operations join the ranks'
// simulated clocks the way a real collective joins wall clocks).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "simkit/timeline.h"

namespace msra::prt {

class Comm;

/// A group of `nprocs` ranks executing one SPMD function on host threads.
class World {
 public:
  explicit World(int nprocs);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return nprocs_; }

  /// Runs `fn(comm)` on every rank concurrently and joins. Each rank gets a
  /// Timeline starting at virtual time 0 unless `start` is given.
  void run(const std::function<void(Comm&)>& fn, simkit::SimTime start = 0.0);

  /// Timeline of a rank after (or during) run(). Valid for rank < size().
  simkit::Timeline& timeline(int rank) { return *timelines_[static_cast<std::size_t>(rank)]; }

 private:
  friend class Comm;

  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    // Generation barrier.
    int barrier_count = 0;
    std::uint64_t barrier_generation = 0;
    // Collective scratch: per-rank byte slots + scalar reduction slots.
    std::vector<ByteBuffer> slots;
    double reduce_double = 0.0;
    std::uint64_t reduce_u64 = 0;
    // Point-to-point mailboxes keyed by (src, dst, tag).
    std::map<std::tuple<int, int, int>, std::deque<ByteBuffer>> mailboxes;
    // in_time_order turnstile: each rank's clock and whether it still steps.
    std::vector<simkit::SimTime> turn_clock;
    std::vector<bool> turn_active;
  };

  int nprocs_;
  Shared shared_;
  std::vector<std::unique_ptr<simkit::Timeline>> timelines_;
};

/// Per-rank handle used inside World::run.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return world_->size(); }
  simkit::Timeline& timeline() { return world_->timeline(rank_); }

  /// Blocks until all ranks arrive.
  void barrier();

  /// Root's bytes are copied to every rank. All ranks must pass the same
  /// root. Returns the broadcast payload.
  ByteBuffer bcast(std::span<const std::byte> data, int root);

  /// Concatenates every rank's contribution in rank order at `root`
  /// (non-root ranks receive an empty buffer). Also returns per-rank sizes
  /// through `sizes` when non-null.
  ByteBuffer gatherv(std::span<const std::byte> contribution, int root,
                     std::vector<std::uint64_t>* sizes = nullptr);

  /// Every rank receives the concatenation (gatherv + bcast semantics).
  ByteBuffer allgatherv(std::span<const std::byte> contribution,
                        std::vector<std::uint64_t>* sizes = nullptr);

  /// Scatter in rank order from root: rank i receives chunks[i], moved
  /// (not copied) out of the root's vector.
  ByteBuffer scatterv(std::vector<ByteBuffer> chunks, int root);

  /// All-reduce over doubles / counters.
  double allreduce_max(double value);
  double allreduce_sum(double value);
  std::uint64_t allreduce_sum_u64(std::uint64_t value);

  /// Point-to-point. Tags disambiguate concurrent streams; matching is FIFO
  /// per (src, dst, tag).
  void send(int dst, int tag, ByteBuffer data);
  ByteBuffer recv(int src, int tag);

  /// Joins simulated clocks: every rank's timeline advances to the global
  /// maximum (the virtual-time analogue of a synchronizing collective).
  void sync_time();

  /// Collective. Calls `step` until it returns false, interleaving every
  /// rank's steps in virtual-time order: a rank steps only while its clock
  /// is the earliest among the ranks still stepping (ties go to the lower
  /// rank). Ranks that book shared devices inside `step` therefore book
  /// them in an order fixed by their clocks, not by the host scheduler, and
  /// every run yields the same virtual times. A rank with nothing to do
  /// passes a step that returns false. `step` must not call into Comm.
  void in_time_order(const std::function<bool()>& step);

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  World* world_;
  int rank_;
};

}  // namespace msra::prt
