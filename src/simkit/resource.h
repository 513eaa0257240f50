// Contended devices in virtual time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "simkit/discipline.h"
#include "simkit/qos.h"
#include "simkit/timeline.h"

namespace msra::simkit {

/// A Resource models a serial (or k-server) device: a disk arm, a tape
/// drive, a WAN link, a server CPU. A reservation occupies one server for
/// `service` virtual seconds starting at the earliest instant >= `ready`
/// that the server is idle — including idle *gaps* before already-booked
/// work. Gap-filling matters because host threads issue virtual-time
/// reservations out of order: an actor whose clock reads t=0 must not queue
/// behind work another thread already booked at t=100. Thread-safe.
///
/// Grant order is pluggable (set_discipline): the default FIFO is the
/// native gap-filling booking above, byte-identical to the pre-QoS build;
/// wfq/edf route grants through a QueueDiscipline's fluid model instead
/// (see simkit/discipline.h) and leave the interval schedules untouched —
/// only the per-server served/horizon accounting moves, so utilization(),
/// next_free() and busy_time() keep meaning the same thing.
class Resource {
 public:
  /// Aggregate queueing-delay accounting: how long reservations sat waiting
  /// for a server beyond their ready time. Zero-service reservations occupy
  /// nothing and are excluded.
  struct QueueStats {
    std::uint64_t reservations = 0;  ///< granted reservations with service > 0
    SimTime total_wait = 0.0;        ///< sum of (start - ready)
    SimTime max_wait = 0.0;          ///< worst single wait
  };

  /// Per-class queueing accounting, keyed by QosTag::class_id. Untagged
  /// traffic lands in class 0. `max_backlog` is the worst backlog a grant
  /// of this class joined: under FIFO its queueing delay, under wfq/edf
  /// the fluid backlog reported by the discipline. Deadline misses count
  /// under EVERY discipline whenever a tag carries a deadline, so FIFO
  /// runs and EDF/admission runs compare on the same meter.
  struct ClassQueueStats {
    std::uint64_t served = 0;           ///< granted reservations, service > 0
    SimTime total_wait = 0.0;           ///< sum of (completion-service-ready)
    SimTime max_wait = 0.0;             ///< worst single wait
    SimTime max_backlog = 0.0;          ///< worst backlog joined (seconds)
    std::uint64_t deadline_misses = 0;  ///< completion missed ready+deadline
  };

  /// Per-server accounting maintained incrementally at reservation time, so
  /// utilization is computable without rescanning schedules. `idle` is the
  /// un-booked time inside the server's horizon (gaps left by out-of-order
  /// bookings that later reservations may still fill).
  struct ServerStats {
    SimTime served = 0.0;   ///< booked service seconds on this server
    SimTime horizon = 0.0;  ///< latest booked completion on this server
    SimTime idle() const { return horizon - served; }
  };

  explicit Resource(std::string name, int capacity = 1);
  ~Resource();

  const std::string& name() const { return name_; }
  int capacity() const { return static_cast<int>(servers_.size()); }

  /// Reserves one server for `service` virtual seconds, starting no earlier
  /// than `ready`. Returns the completion time. Books under the default
  /// QosTag (class 0).
  SimTime reserve(SimTime ready, SimTime service);

  /// Tagged reservation: books under `tag`'s class. With no discipline
  /// installed the grant itself is byte-identical to the untagged overload
  /// (only per-class accounting differs); with wfq/edf the discipline
  /// decides the completion time.
  SimTime reserve(SimTime ready, SimTime service, const QosTag& tag);

  /// Convenience: reserve starting at the actor's current time and advance
  /// the actor's clock to completion. Returns the completion time. Books
  /// under the calling thread's ambient QosTag (see simkit/qos.h) — the
  /// hook that lets the tenant layer classify every device booking without
  /// threading a tag through the endpoint/server/store layers.
  SimTime acquire(Timeline& timeline, SimTime service);

  /// Installs the grant-order policy. kFifo (the default) restores the
  /// native booking path. Control-plane: call while no reservations are in
  /// flight; switching mid-run would mix two clocks' worth of fluid state.
  void set_discipline(DisciplineKind kind);
  DisciplineKind discipline() const;

  /// Total virtual seconds of granted service (across servers).
  SimTime busy_time() const;
  /// Number of reservations granted.
  std::uint64_t operations() const;

  /// Queueing-delay totals since construction / last reset().
  QueueStats queue_stats() const;

  /// Per-class queueing totals (empty until a reservation with service > 0
  /// was granted; untagged traffic shows as class 0).
  std::map<int, ClassQueueStats> class_stats() const;

  /// Per-server served/idle split (index = server). The split is maintained
  /// incrementally by reserve(); no schedule rescans.
  std::vector<ServerStats> server_stats() const;

  /// Fraction of the booked horizon the device spent serving:
  /// sum(served) / (capacity * max horizon). 0 when nothing was booked.
  double utilization() const;

  /// Earliest virtual time at which some server runs out of booked work
  /// (min over the servers' horizons; gap-filling may admit work even
  /// earlier). The live backlog signal: a request arriving "now" waits at
  /// most until next_free() for a server to drain. 0 when nothing was
  /// booked.
  SimTime next_free() const;

  /// Installs a callback invoked (outside the internal lock) with the
  /// queueing delay of every granted reservation with service > 0. Used by
  /// the observability layer to export `io.<resource>.queue_wait`
  /// histograms without making simkit depend on obs. Null detaches. Not
  /// synchronized against in-flight reserve() calls: install before the
  /// resource is shared across threads.
  void set_wait_observer(std::function<void(SimTime wait)> observer);

  /// Like set_wait_observer, but the callback also receives the class id of
  /// the grant — the per-class `qos.wait.<class>` histograms. Installed
  /// only when QoS is enabled, so the default build records nothing extra.
  void set_class_wait_observer(
      std::function<void(int class_id, SimTime wait)> observer);

  /// Forgets all bookkeeping (between experiment repetitions). Keeps the
  /// installed discipline kind (its fluid state is cleared).
  void reset();

 private:
  struct Interval {
    SimTime start;
    SimTime end;
  };
  /// Sorted, non-overlapping busy intervals of one server (touching
  /// intervals are merged, so dense workloads stay O(1)). Every interval
  /// has positive width, so the ends ascend too and earliest_start
  /// binary-searches past the intervals that end by `ready`.
  using Schedule = std::vector<Interval>;

  /// Earliest feasible start on one server.
  static SimTime earliest_start(const Schedule& schedule, SimTime ready,
                                SimTime service);
  static void insert(Schedule& schedule, SimTime start, SimTime service);

  /// Per-class accounting shared by both grant paths; runs under mutex_.
  void note_class(const QosTag& tag, SimTime wait, SimTime backlog,
                  SimTime ready, SimTime completion);

  std::string name_;
  mutable std::mutex mutex_;
  std::vector<Schedule> servers_;
  std::vector<ServerStats> server_stats_;
  SimTime busy_ = 0.0;
  std::uint64_t ops_ = 0;
  QueueStats queue_;
  std::map<int, ClassQueueStats> class_stats_;
  std::unique_ptr<QueueDiscipline> discipline_;  ///< null = native FIFO
  std::function<void(SimTime)> wait_observer_;
  std::function<void(int, SimTime)> class_wait_observer_;
};

}  // namespace msra::simkit
