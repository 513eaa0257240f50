#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "simkit/noise.h"
#include "simkit/resource.h"
#include "simkit/timeline.h"

namespace msra::simkit {
namespace {

TEST(TimelineTest, AdvanceAccumulates) {
  Timeline tl;
  tl.advance(1.5);
  tl.advance(2.5);
  EXPECT_DOUBLE_EQ(tl.now(), 4.0);
}

TEST(TimelineTest, AdvanceToOnlyMovesForward) {
  Timeline tl(10.0);
  tl.advance_to(5.0);
  EXPECT_DOUBLE_EQ(tl.now(), 10.0);
  tl.advance_to(12.0);
  EXPECT_DOUBLE_EQ(tl.now(), 12.0);
}

TEST(TimelineTest, NegativeAdvanceIgnored) {
  Timeline tl(3.0);
  tl.advance(-1.0);
  EXPECT_DOUBLE_EQ(tl.now(), 3.0);
}

TEST(TimelineTest, ScopedTimerMeasuresElapsed) {
  Timeline tl;
  SimTime elapsed = -1.0;
  {
    ScopedVirtualTimer timer(tl, elapsed);
    tl.advance(7.0);
  }
  EXPECT_DOUBLE_EQ(elapsed, 7.0);
}

TEST(TimelineTest, WakeFiresWhenClockReachesInstant) {
  Timeline tl;
  std::vector<SimTime> fired;
  tl.wake_at(5.0, [&](SimTime now) { fired.push_back(now); });
  tl.advance(4.0);
  EXPECT_TRUE(fired.empty());
  tl.advance(2.0);  // crosses 5.0 at now = 6.0
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0], 6.0);
  tl.advance(10.0);  // one-shot: never fires again
  EXPECT_EQ(fired.size(), 1u);
}

TEST(TimelineTest, PastWakeFiresImmediately) {
  Timeline tl(10.0);
  int fired = 0;
  tl.wake_at(3.0, [&](SimTime) { ++fired; });
  EXPECT_EQ(fired, 1);
  tl.wake_at(10.0, [&](SimTime) { ++fired; });  // present counts as due
  EXPECT_EQ(fired, 2);
}

TEST(TimelineTest, WakesFireInTimeThenRegistrationOrder) {
  Timeline tl;
  std::vector<int> order;
  tl.wake_at(2.0, [&](SimTime) { order.push_back(2); });
  tl.wake_at(1.0, [&](SimTime) { order.push_back(1); });
  tl.wake_at(2.0, [&](SimTime) { order.push_back(3); });  // tie with first
  EXPECT_DOUBLE_EQ(tl.next_wake(), 1.0);
  tl.advance_to(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(std::isinf(tl.next_wake()));
}

TEST(TimelineTest, WakeHookMayRearmItself) {
  Timeline tl;
  std::vector<SimTime> ticks;
  std::function<void(SimTime)> tick = [&](SimTime now) {
    ticks.push_back(now);
    if (now < 3.0) tl.wake_at(now + 1.0, tick);
  };
  tl.wake_at(1.0, tick);
  tl.advance_to(1.0);
  tl.advance_to(2.0);
  tl.advance_to(3.0);
  EXPECT_EQ(ticks, (std::vector<SimTime>{1.0, 2.0, 3.0}));
}

TEST(TimelineTest, AdvanceObserverSeesEveryMovement) {
  Timeline tl;
  std::vector<SimTime> seen;
  tl.set_advance_observer([&](SimTime now) { seen.push_back(now); });
  tl.advance(2.0);
  tl.advance_to(1.0);  // no-op move still notifies
  tl.advance_to(5.0);
  EXPECT_EQ(seen, (std::vector<SimTime>{2.0, 2.0, 5.0}));
  tl.set_advance_observer(nullptr);
  tl.advance(1.0);
  EXPECT_EQ(seen.size(), 3u);
}

TEST(TimelineTest, ResetDropsPendingWakes) {
  Timeline tl;
  int fired = 0;
  tl.wake_at(4.0, [&](SimTime) { ++fired; });
  tl.reset();
  tl.advance(10.0);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(std::isinf(tl.next_wake()));
}

TEST(ResourceTest, SerializesOverlappingWork) {
  Resource disk("disk");
  Timeline a, b;
  // Both actors ask for 10s of service at t=0; the second must queue.
  EXPECT_DOUBLE_EQ(disk.acquire(a, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(disk.acquire(b, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(a.now(), 10.0);
  EXPECT_DOUBLE_EQ(b.now(), 20.0);
}

TEST(ResourceTest, IdleGapsDoNotQueue) {
  Resource disk("disk");
  Timeline a(0.0), b(100.0);
  disk.acquire(a, 5.0);
  // b arrives long after the disk went idle: no queueing delay.
  EXPECT_DOUBLE_EQ(disk.acquire(b, 5.0), 105.0);
}

TEST(ResourceTest, MultiServerRunsInParallel) {
  Resource raid("raid", /*capacity=*/2);
  Timeline a, b, c;
  EXPECT_DOUBLE_EQ(raid.acquire(a, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(raid.acquire(b, 10.0), 10.0);  // second server
  EXPECT_DOUBLE_EQ(raid.acquire(c, 10.0), 20.0);  // queues behind one of them
}

TEST(ResourceTest, TracksBusyTimeAndOps) {
  Resource r("r");
  Timeline tl;
  r.acquire(tl, 2.0);
  r.acquire(tl, 3.0);
  EXPECT_DOUBLE_EQ(r.busy_time(), 5.0);
  EXPECT_EQ(r.operations(), 2u);
  r.reset();
  EXPECT_DOUBLE_EQ(r.busy_time(), 0.0);
  EXPECT_EQ(r.operations(), 0u);
}

TEST(ResourceTest, ThreadSafeUnderConcurrentAcquire) {
  Resource r("r");
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> threads;
  std::vector<Timeline> timelines(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) r.acquire(timelines[static_cast<std::size_t>(t)], 1.0);
    });
  }
  for (auto& th : threads) th.join();
  // All service serialized on one server: total busy == total requested, and
  // the last completion is exactly the sum of services.
  EXPECT_DOUBLE_EQ(r.busy_time(), kThreads * kOpsPerThread * 1.0);
  EXPECT_EQ(r.operations(), static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  SimTime latest = 0.0;
  for (auto& tl : timelines) latest = std::max(latest, tl.now());
  EXPECT_DOUBLE_EQ(latest, kThreads * kOpsPerThread * 1.0);
}

TEST(ResourceTest, EarlyActorBackfillsIdleGapBeforeLaterWork) {
  // An actor that is late in wall-clock but early in virtual time must not
  // queue behind work already booked far in the future.
  Resource disk("disk");
  Timeline late(100.0), early(0.0);
  EXPECT_DOUBLE_EQ(disk.acquire(late, 5.0), 105.0);   // books [100, 105)
  EXPECT_DOUBLE_EQ(disk.acquire(early, 5.0), 5.0);    // backfills [0, 5)
}

TEST(ResourceTest, BackfillOnlyWhenTheGapFits) {
  Resource disk("disk");
  Timeline a(10.0), b(0.0);
  disk.acquire(a, 5.0);  // [10, 15)
  // 20s of work cannot fit in the [0, 10) gap: it starts after.
  EXPECT_DOUBLE_EQ(disk.acquire(b, 20.0), 35.0);
  // But 10s fits exactly.
  Timeline c(0.0);
  EXPECT_DOUBLE_EQ(disk.acquire(c, 10.0), 10.0);
}

TEST(ResourceTest, TouchingReservationsMergeDense) {
  // A long run of contiguous work must not degrade: intervals merge.
  Resource disk("disk");
  Timeline tl;
  for (int i = 0; i < 10000; ++i) disk.acquire(tl, 0.001);
  EXPECT_NEAR(tl.now(), 10.0, 1e-6);
  EXPECT_NEAR(disk.busy_time(), 10.0, 1e-6);
}

TEST(ResourceTest, ZeroServiceCostsNothingAndBlocksNothing) {
  Resource disk("disk");
  Timeline tl(3.0);
  EXPECT_DOUBLE_EQ(disk.reserve(3.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(disk.busy_time(), 0.0);
  EXPECT_DOUBLE_EQ(disk.acquire(tl, 5.0), 8.0);
}

// A positive service that rounds away at its start occupies nothing. Were
// it stored as [t, t], a later booking with the same start could be placed
// in front of it, and the interval ends would stop ascending: the bookings
// below would leave [0,1e-300] [2,2] [3,6] [3,3] [10,11] [20,21], on which
// the gap search skips [3,6] and starts the last booking at 4.
TEST(ResourceTest, ZeroWidthBookingKeepsScheduleSorted) {
  Resource disk("disk");
  EXPECT_EQ(disk.reserve(0.0, 1e-300), 1e-300);
  EXPECT_EQ(disk.reserve(3.0, 1e-300), 3.0);
  EXPECT_EQ(disk.reserve(2.0, 1e-300), 2.0);
  EXPECT_EQ(disk.reserve(3.0, 1e-300), 3.0);
  EXPECT_EQ(disk.reserve(3.0, 3.0), 6.0);
  EXPECT_EQ(disk.reserve(10.0, 1.0), 11.0);
  EXPECT_EQ(disk.reserve(20.0, 1.0), 21.0);
  EXPECT_EQ(disk.reserve(4.0, 1.0), 7.0);
}

/// Uniform in [0, 1) from the top 53 bits, the same on every platform.
double unit_draw(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// FIFO booking that scans every server's intervals from the first one:
// the reference the binary-searched gap scan must match bit for bit.
// Touching intervals merge and services that round away at their start
// store nothing, as in Resource.
class LinearScanBooking {
 public:
  explicit LinearScanBooking(int capacity)
      : servers_(static_cast<std::size_t>(capacity)) {}

  SimTime reserve(SimTime ready, SimTime service) {
    if (service <= 0.0) return ready;
    std::size_t best = 0;
    SimTime best_start = 0.0;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      SimTime start = ready;
      for (const auto& [busy_from, busy_to] : servers_[s]) {
        if (start + service <= busy_from) break;
        start = std::max(start, busy_to);
      }
      if (s == 0 || start < best_start) {
        best = s;
        best_start = start;
      }
    }
    const SimTime end = best_start + service;
    if (end == best_start) return end;
    auto& schedule = servers_[best];
    auto it = schedule.insert(
        std::upper_bound(schedule.begin(), schedule.end(),
                         std::make_pair(best_start, end)),
        std::make_pair(best_start, end));
    if (std::next(it) != schedule.end() && std::next(it)->first == end) {
      it->second = std::next(it)->second;
      schedule.erase(std::next(it));
    }
    if (it != schedule.begin() && std::prev(it)->second == best_start) {
      std::prev(it)->second = it->second;
      schedule.erase(it);
    }
    return end;
  }

 private:
  std::vector<std::vector<std::pair<SimTime, SimTime>>> servers_;
};

// Seeded streams of readies at the frontier, back-dated, tied or anywhere
// in the history, with services from 1e-300 (rounds away) to a few
// seconds, on 1, 2 and 4 servers.
TEST(ResourceTest, FifoGapSearchMatchesLinearScan) {
  std::mt19937_64 rng(15);
  std::uint64_t bookings = 0;
  for (const int capacity : {1, 2, 4}) {
    for (int stream = 0; stream < 40; ++stream) {
      Resource resource("r", capacity);
      LinearScanBooking reference(capacity);
      const int length = 100 + static_cast<int>(unit_draw(rng) * 1400);
      SimTime frontier = 0.0;
      SimTime last_ready = 0.0;
      for (int i = 0; i < length; ++i) {
        frontier += unit_draw(rng) * 2.0 / capacity;
        SimTime ready = frontier;
        const double mode = unit_draw(rng);
        if (mode < 0.3) {
          ready = std::max(0.0, frontier - unit_draw(rng) * 1.2);  // back-dated
        } else if (mode < 0.4) {
          ready = last_ready;  // exact tie
        } else if (mode < 0.5) {
          ready = unit_draw(rng) * frontier;  // deep out of order
        }
        last_ready = ready;
        SimTime service = unit_draw(rng);
        const double size = unit_draw(rng);
        if (size < 0.05) {
          service = 1e-300;
        } else if (size < 0.15) {
          service = std::pow(10.0, -12.0 * unit_draw(rng));
        }
        ASSERT_EQ(resource.reserve(ready, service),
                  reference.reserve(ready, service))
            << "capacity " << capacity << " stream " << stream
            << " booking " << i;
        ++bookings;
      }
    }
  }
  EXPECT_GT(bookings, 50000u);
}

// Booking cost follows the part of history a new booking can change, not
// all of it. 100k FIFO bookings each leave an idle gap, so nothing merges;
// 20k three-class WFQ grants arrive up to 1.2 s behind dispatch order. A
// scan or replay from the start of history needs tens of seconds for this
// in an optimized build; the bound leaves room for sanitizer builds.
TEST(ResourceTest, BookingCostStaysNearLinearInHistory) {
  const auto began = std::chrono::steady_clock::now();
  Resource disk("disk");
  SimTime last = 0.0;
  for (int i = 0; i < 100000; ++i) last = disk.reserve(2.0 * i, 1.0);
  EXPECT_EQ(last, 199999.0);
  EXPECT_EQ(disk.queue_stats().total_wait, 0.0);

  Resource pipe("pipe");
  pipe.set_discipline(DisciplineKind::kWfq);
  const QosTag classes[] = {{0, 8.0, 0.0}, {1, 2.0, 0.0}, {2, 1.0, 0.0}};
  std::mt19937_64 rng(15);
  SimTime frontier = 0.0;
  for (int i = 0; i < 20000; ++i) {
    frontier += 0.01;
    const SimTime ready = std::max(0.0, frontier - 1.2 * unit_draw(rng));
    (void)pipe.reserve(ready, 0.016 * unit_draw(rng) + 1e-4, classes[i % 3]);
  }
  EXPECT_EQ(pipe.operations(), 20000u);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - began)
                             .count();
  EXPECT_LT(seconds, 10.0);
}

TEST(TransferTimeTest, ZeroBandwidthIsInstant) {
  EXPECT_DOUBLE_EQ(transfer_time(1 << 20, 0.0), 0.0);
}

TEST(TransferTimeTest, ScalesLinearly) {
  EXPECT_DOUBLE_EQ(transfer_time(2048, 1024.0), 2.0);
}

TEST(NoiseTest, DisabledByDefault) {
  NoiseModel noise;
  EXPECT_FALSE(noise.enabled());
  EXPECT_DOUBLE_EQ(noise.apply(5.0), 5.0);
}

TEST(NoiseTest, JitterStaysAboveFloor) {
  NoiseModel noise(/*amplitude=*/0.5, /*seed=*/42, /*floor_fraction=*/0.25);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(noise.apply(4.0), 1.0);  // floor 0.25 * 4.0
  }
}

TEST(NoiseTest, JitterIsDeterministicPerSeed) {
  NoiseModel a(0.3, 7), b(0.3, 7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.apply(1.0), b.apply(1.0));
}

TEST(NoiseTest, MeanIsApproximatelyUnbiased) {
  NoiseModel noise(0.1, 3);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += noise.apply(1.0);
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

}  // namespace
}  // namespace msra::simkit
