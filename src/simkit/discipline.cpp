#include "simkit/discipline.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace msra::simkit {

std::string_view discipline_name(DisciplineKind kind) {
  switch (kind) {
    case DisciplineKind::kFifo: return "fifo";
    case DisciplineKind::kWfq: return "wfq";
    case DisciplineKind::kEdf: return "edf";
  }
  return "?";
}

StatusOr<DisciplineKind> parse_discipline(std::string_view name) {
  if (name == "fifo") return DisciplineKind::kFifo;
  if (name == "wfq") return DisciplineKind::kWfq;
  if (name == "edf") return DisciplineKind::kEdf;
  return Status::InvalidArgument("unknown queue discipline: " +
                                 std::string(name));
}

namespace {

constexpr double kMinWeight = 1e-9;

/// Fluid GPS over the full arrival history: every backlogged class drains
/// concurrently at rate capacity * w_c / sum(w_active); within a class,
/// requests finish in arrival order. Bookings reach the discipline in
/// DISPATCH order, which is not arrival order — a fleet actor deep in a
/// long slice books far in the virtual future before the next actor books
/// at its (earlier) clock. A monotonic fluid clock would charge such
/// early-ready grants the whole offset, so instead every grant replays the
/// trajectory over all arrivals sorted by ready time: the GPS analogue of
/// the FIFO path's gap-filling interval schedules. Completions stay frozen
/// once returned (later arrivals never rewrite an earlier quote).
///
/// The replay resumes from a checkpoint rather than t = 0. A checkpoint is
/// the replay state at the top of an iteration, saved once every
/// kCheckpointEvery folded arrivals. An iteration reads only the arrivals
/// at or below its post-fold cursor, so after an arrival is inserted at
/// sorted index p every checkpoint with `next < p` still lies on the new
/// trajectory. A grant drops the others and resumes from the last
/// survivor: it costs the arrivals from about p on, not the whole history.
class WfqDiscipline final : public QueueDiscipline {
 public:
  explicit WfqDiscipline(int capacity)
      : capacity_(static_cast<double>(capacity)) {}

  DisciplineKind kind() const override { return DisciplineKind::kWfq; }

  QosGrant grant(SimTime ready, SimTime service, const QosTag& tag) override {
    Arrival arrival;
    arrival.ready = ready;
    arrival.seq = next_seq_++;
    arrival.service = service;
    arrival.class_id = tag.class_id;
    arrival.weight = std::max(tag.weight, kMinWeight);
    const auto before = [](const Arrival& a, const Arrival& b) {
      if (a.ready != b.ready) return a.ready < b.ready;
      return a.seq < b.seq;
    };
    const auto pos =
        std::upper_bound(arrivals_.begin(), arrivals_.end(), arrival, before);
    const auto index = static_cast<std::size_t>(pos - arrivals_.begin());
    arrivals_.insert(pos, arrival);
    while (!checkpoints_.empty() && checkpoints_.back().next >= index) {
      checkpoints_.pop_back();
    }

    QosGrant out;
    out.completion = std::max(replay(arrival.seq, tag.class_id, &out.backlog),
                              ready + service);
    return out;
  }

  void reset() override {
    arrivals_.clear();
    checkpoints_.clear();
    next_seq_ = 0;
  }

 private:
  static constexpr std::size_t kCheckpointEvery = 16;

  struct Arrival {
    SimTime ready = 0.0;
    std::uint64_t seq = 0;
    SimTime service = 0.0;
    int class_id = 0;
    double weight = 1.0;
  };

  struct ClassSim {
    int id = 0;
    double weight = 1.0;
    SimTime backlog = 0.0;  ///< arrived but undrained service seconds
  };

  /// The replay state at the top of an iteration.
  struct Checkpoint {
    SimTime now = 0.0;
    std::size_t next = 0;           ///< arrivals_[0, next) are folded in
    std::vector<ClassSim> classes;  ///< sorted by id: sums run in id order
  };

  static ClassSim& find_class(std::vector<ClassSim>& classes, int id) {
    const auto it = std::lower_bound(
        classes.begin(), classes.end(), id,
        [](const ClassSim& cs, int key) { return cs.id < key; });
    if (it != classes.end() && it->id == id) return *it;
    return *classes.insert(it, ClassSim{id, 1.0, 0.0});
  }

  /// Replays the fluid trajectory over `arrivals_` (already sorted by
  /// ready) from the last checkpoint and returns the instant request `seq`
  /// finishes. FIFO within the class means the request's remaining work is
  /// the class backlog at the moment it joins (everything queued ahead of
  /// it plus itself); later same-class arrivals grow the backlog but sit
  /// behind it, so `remaining` shrinks by exactly what the class drains
  /// and stays <= the backlog — the crossing check below therefore fires
  /// no later than the step that empties the class, immune to float
  /// residue. Also reports that join backlog.
  SimTime replay(std::uint64_t seq, int class_id,
                 SimTime* backlog_at_arrival) {
    Checkpoint state =
        checkpoints_.empty() ? Checkpoint{} : checkpoints_.back();
    SimTime& now = state.now;
    std::size_t& next = state.next;
    std::vector<ClassSim>& sim = state.classes;
    bool joined = false;
    SimTime remaining = 0.0;  ///< request seq's undrained FIFO prefix
    *backlog_at_arrival = 0.0;
    while (true) {
      const std::size_t saved =
          checkpoints_.empty() ? 0 : checkpoints_.back().next;
      if (next >= saved + kCheckpointEvery) checkpoints_.push_back(state);
      // Fold in every arrival at or before `now`.
      while (next < arrivals_.size() && arrivals_[next].ready <= now) {
        const Arrival& a = arrivals_[next];
        ClassSim& cs = find_class(sim, a.class_id);
        cs.weight = a.weight;
        cs.backlog += a.service;
        if (a.seq == seq) {
          joined = true;
          remaining = cs.backlog;
          *backlog_at_arrival = cs.backlog;
        }
        ++next;
      }
      double total_weight = 0.0;
      for (const ClassSim& cs : sim) {
        if (cs.backlog > 0.0) total_weight += cs.weight;
      }
      if (total_weight <= 0.0) {
        // Idle: jump to the next arrival (nothing to drain here).
        if (next >= arrivals_.size()) return now;  // unreachable: seq joins
        now = std::max(now, arrivals_[next].ready);
        continue;
      }
      // Step to the next arrival or class-empty event, whichever first —
      // rates are constant in between.
      SimTime step = std::numeric_limits<SimTime>::infinity();
      if (next < arrivals_.size()) {
        step = std::max(0.0, arrivals_[next].ready - now);
      }
      for (const ClassSim& cs : sim) {
        if (cs.backlog <= 0.0) continue;
        const double rate = capacity_ * cs.weight / total_weight;
        step = std::min(step, cs.backlog / rate);
      }
      if (joined) {
        const double rate =
            capacity_ * find_class(sim, class_id).weight / total_weight;
        if (remaining <= rate * step) return now + remaining / rate;
      }
      for (ClassSim& cs : sim) {
        if (cs.backlog <= 0.0) continue;
        const double rate = capacity_ * cs.weight / total_weight;
        const SimTime drain = std::min(cs.backlog, rate * step);
        cs.backlog -= drain;
        if (cs.id == class_id) remaining -= drain;
      }
      now += step;
    }
  }

  double capacity_;
  std::vector<Arrival> arrivals_;  ///< sorted by (ready, seq)
  std::vector<Checkpoint> checkpoints_;  ///< strictly ascending next
  std::uint64_t next_seq_ = 0;
};

/// EDF over the full arrival history: at every instant the min(capacity, n)
/// outstanding requests with the earliest absolute deadlines (arrival +
/// relative deadline; deadline-less requests sort last, FIFO among
/// themselves) are served at unit rate each. Like WFQ above, every grant
/// replays the trajectory over arrivals sorted by ready time so that
/// early-ready bookings arriving late in dispatch order preempt exactly as
/// a real EDF queue would have; returned completions stay frozen.
class EdfDiscipline final : public QueueDiscipline {
 public:
  explicit EdfDiscipline(int capacity)
      : capacity_(static_cast<std::size_t>(capacity)) {}

  DisciplineKind kind() const override { return DisciplineKind::kEdf; }

  QosGrant grant(SimTime ready, SimTime service, const QosTag& tag) override {
    Arrival arrival;
    arrival.ready = ready;
    arrival.seq = next_seq_++;
    arrival.service = service;
    arrival.deadline = tag.deadline > 0.0
                           ? ready + tag.deadline
                           : std::numeric_limits<SimTime>::infinity();
    const auto pos = std::upper_bound(
        arrivals_.begin(), arrivals_.end(), arrival,
        [](const Arrival& a, const Arrival& b) {
          if (a.ready != b.ready) return a.ready < b.ready;
          return a.seq < b.seq;
        });
    arrivals_.insert(pos, arrival);

    QosGrant out;
    out.completion =
        std::max(replay(arrival.seq, &out.backlog), ready + service);
    return out;
  }

  void reset() override {
    arrivals_.clear();
    next_seq_ = 0;
  }

 private:
  struct Arrival {
    SimTime ready = 0.0;
    std::uint64_t seq = 0;
    SimTime service = 0.0;
    SimTime deadline = 0.0;  ///< absolute; +inf when the tag had none
  };

  struct Outstanding {
    SimTime deadline = 0.0;
    std::uint64_t seq = 0;
    SimTime remaining = 0.0;
  };

  /// Replays the EDF trajectory over `arrivals_` (already sorted by ready)
  /// until request `seq` finishes; reports the total outstanding backlog
  /// the moment it joined.
  SimTime replay(std::uint64_t seq, SimTime* backlog_at_arrival) const {
    std::vector<Outstanding> queue;  // deadline order (then seq)
    SimTime now = 0.0;
    std::size_t next = 0;
    *backlog_at_arrival = 0.0;
    while (true) {
      while (next < arrivals_.size() && arrivals_[next].ready <= now) {
        const Arrival& a = arrivals_[next];
        Outstanding request{a.deadline, a.seq, a.service};
        const auto at = std::upper_bound(
            queue.begin(), queue.end(), request,
            [](const Outstanding& x, const Outstanding& y) {
              if (x.deadline != y.deadline) return x.deadline < y.deadline;
              return x.seq < y.seq;
            });
        queue.insert(at, request);
        if (a.seq == seq) {
          SimTime backlog = 0.0;
          for (const Outstanding& r : queue) backlog += r.remaining;
          *backlog_at_arrival = backlog;
        }
        ++next;
      }
      if (queue.empty()) {
        if (next >= arrivals_.size()) return now;  // unreachable: seq joins
        now = std::max(now, arrivals_[next].ready);
        continue;
      }
      // The earliest-deadline min(capacity, n) run at unit rate until one
      // finishes or the next arrival preempts the served set.
      const std::size_t active = std::min(capacity_, queue.size());
      SimTime step = std::numeric_limits<SimTime>::infinity();
      if (next < arrivals_.size()) {
        step = std::max(0.0, arrivals_[next].ready - now);
      }
      for (std::size_t i = 0; i < active; ++i) {
        step = std::min(step, queue[i].remaining);
      }
      for (std::size_t i = 0; i < active; ++i) {
        queue[i].remaining -= step;
      }
      now += step;
      for (std::size_t i = active; i-- > 0;) {
        if (queue[i].remaining <= 0.0) {
          if (queue[i].seq == seq) return now;
          queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
  }

  std::size_t capacity_;
  std::vector<Arrival> arrivals_;  ///< sorted by (ready, seq)
  std::uint64_t next_seq_ = 0;
};

}  // namespace

std::unique_ptr<QueueDiscipline> make_discipline(DisciplineKind kind,
                                                 int capacity) {
  assert(capacity >= 1);
  switch (kind) {
    case DisciplineKind::kFifo: return nullptr;
    case DisciplineKind::kWfq: return std::make_unique<WfqDiscipline>(capacity);
    case DisciplineKind::kEdf: return std::make_unique<EdfDiscipline>(capacity);
  }
  return nullptr;
}

}  // namespace msra::simkit
