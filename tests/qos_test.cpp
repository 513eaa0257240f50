// The QoS subsystem: pluggable queue disciplines (simkit::discipline),
// tenant-class tag plumbing (simkit::qos + core::Fleet), the per-class
// accounting surfaced by StorageSystem::qos_breakdown, and the
// predictor-quoted admission gate in front of Fleet::submit.
//
// The parity tests pin the PR's core invariant: with the FIFO discipline
// (the default), enabling QoS changes NOTHING — completions, virtual
// times, and every committed bench baseline stay byte-identical. The
// discipline tests pin the fluid models' arithmetic, including the
// regression where a grant booked late in dispatch order but with an
// early ready time must join the trajectory at its ready time instead of
// being charged the whole fluid-clock offset. The concurrent-fleets test
// is written for the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/msra.h"
#include "predict/predictor.h"
#include "predict/ptool.h"
#include "qos/admission.h"
#include "qos/policy.h"
#include "simkit/discipline.h"
#include "simkit/qos.h"
#include "simkit/resource.h"

namespace msra {
namespace {

using core::Client;
using core::Completion;
using core::DatasetDesc;
using core::ElementType;
using core::Fleet;
using core::HardwareProfile;
using core::Location;
using core::SessionOptions;
using core::StorageSystem;
using core::Workload;
using qos::QosConfig;
using qos::TenantClass;
using simkit::DisciplineKind;
using simkit::QosScope;
using simkit::QosTag;
using simkit::Resource;
using simkit::SimTime;

DatasetDesc tiny_dataset(const std::string& name, Location location) {
  DatasetDesc desc;
  desc.name = name;
  desc.dims = {8, 8, 8};
  desc.etype = ElementType::kFloat32;
  desc.frequency = 1;
  desc.location = location;
  return desc;
}

constexpr QosTag kInteractive{/*class_id=*/0, /*weight=*/8.0, /*deadline=*/0.0};
constexpr QosTag kBatch{/*class_id=*/1, /*weight=*/2.0, /*deadline=*/0.0};

// ------------------------------------------------------- tag plumbing --

TEST(QosScopeTest, AmbientTagNestsAndRestores) {
  EXPECT_EQ(simkit::current_qos_tag(), QosTag{});
  {
    QosScope outer(kBatch);
    EXPECT_EQ(simkit::current_qos_tag(), kBatch);
    {
      QosScope inner(kInteractive);
      EXPECT_EQ(simkit::current_qos_tag(), kInteractive);
    }
    EXPECT_EQ(simkit::current_qos_tag(), kBatch);
  }
  EXPECT_EQ(simkit::current_qos_tag(), QosTag{});
}

// -------------------------------------------------- discipline models --

TEST(DisciplineTest, FifoIsTheNullDiscipline) {
  EXPECT_EQ(simkit::make_discipline(DisciplineKind::kFifo, 1), nullptr);
  Resource plain("plain", 1);
  EXPECT_EQ(plain.discipline(), DisciplineKind::kFifo);
}

// Tags under FIFO are accounting-only: the booked completions must be
// bit-identical to untagged bookings — the invariant that keeps every
// pre-QoS bench baseline byte-stable.
TEST(DisciplineTest, TaggedFifoMatchesUntaggedBookings) {
  Resource untagged("untagged", 2);
  Resource tagged("tagged", 2);
  const double readies[] = {0.0, 0.5, 0.5, 3.0, 1.0};
  const double services[] = {2.0, 1.0, 4.0, 0.25, 1.5};
  for (int i = 0; i < 5; ++i) {
    const SimTime a = untagged.reserve(readies[i], services[i]);
    const SimTime b =
        tagged.reserve(readies[i], services[i], i % 2 ? kBatch : kInteractive);
    EXPECT_EQ(a, b) << "booking " << i;
  }
  // The tags still bucket the per-class accounting.
  EXPECT_EQ(tagged.class_stats().at(0).served, 3u);
  EXPECT_EQ(tagged.class_stats().at(1).served, 2u);
  EXPECT_TRUE(untagged.class_stats().count(0));
}

// A thin high-weight class must drain through a deep low-weight backlog
// at its fluid share instead of queueing behind it.
TEST(DisciplineTest, WfqHighWeightClassBypassesDeepBacklog) {
  Resource pipe("pipe", 1);
  pipe.set_discipline(DisciplineKind::kWfq);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(pipe.reserve(0.0, 10.0, kBatch), 10.0 * (i + 1));
  }
  // Arrives at t=1 against 39s of batch backlog; drains at 8/10 capacity:
  // finish = 1 + 1 / 0.8 = 2.25.
  EXPECT_DOUBLE_EQ(pipe.reserve(1.0, 1.0, kInteractive), 2.25);
  // The batch class kept 2/10 during the overlap; its next grant lands
  // after the (slightly stretched) backlog.
  EXPECT_DOUBLE_EQ(pipe.reserve(2.0, 10.0, kBatch), 51.0);
  EXPECT_DOUBLE_EQ(pipe.class_stats().at(0).total_wait, 0.25);
}

TEST(DisciplineTest, WfqEqualWeightsSplitCapacityEvenly) {
  Resource pipe("pipe", 1);
  pipe.set_discipline(DisciplineKind::kWfq);
  const QosTag a{0, 4.0, 0.0};
  const QosTag b{1, 4.0, 0.0};
  // Quotes freeze at grant time: a's is priced before b exists (full
  // capacity, finish 2); b's replay then sees both classes backlogged
  // from t=0 at equal weights and drains at 1/2 — finish 4.
  EXPECT_DOUBLE_EQ(pipe.reserve(0.0, 2.0, a), 2.0);
  EXPECT_DOUBLE_EQ(pipe.reserve(0.0, 2.0, b), 4.0);
}

// Regression: a grant booked AFTER the fluid trajectory has advanced (a
// fleet actor deep in a long slice books far ahead, then another actor
// books at its earlier clock) must join at its own ready time. The broken
// monotonic-clock model charged such grants the whole offset; a float
// residue in the first fix could even park them at the end of the batch
// drain.
TEST(DisciplineTest, LateBookedEarlyReadyGrantJoinsAtItsReadyTime) {
  Resource pipe("pipe", 1);
  pipe.set_discipline(DisciplineKind::kWfq);
  // A batch actor booked ahead: 20 one-second grants at ready 0,1,...,19.
  for (int i = 0; i < 20; ++i) {
    (void)pipe.reserve(static_cast<SimTime>(i), 1.0, kBatch);
  }
  // Four interactive "clients" now book feedback chains starting at t=6 —
  // dispatch order interleaves them, ready times stay early. Every op
  // drains at the 8/10 share behind at most the 4-client convoy: waits
  // stay under a second and completions advance by 0.25 = 0.2 / 0.8.
  SimTime at[4] = {6.0, 6.0, 6.0, 6.0};
  for (int op = 0; op < 3; ++op) {
    for (int c = 0; c < 4; ++c) {
      const SimTime done = pipe.reserve(at[c], 0.2, kInteractive);
      EXPECT_LT(done - at[c] - 0.2, 1.0)
          << "client " << c << " op " << op << " was charged the clock gap";
      at[c] = done;
    }
  }
  EXPECT_DOUBLE_EQ(at[1], 8.5);  // not parked at the 21s batch-drain end
}

TEST(DisciplineTest, WfqLowWeightClassIsNotStarved) {
  Resource pipe("pipe", 1);
  pipe.set_discipline(DisciplineKind::kWfq);
  const QosTag background{2, 1.0, 0.0};
  for (int i = 0; i < 10; ++i) {
    (void)pipe.reserve(0.0, 1.0, kInteractive);
  }
  // One background second against ten interactive seconds at 8:1: the
  // background class drains at exactly its 1/9 share the whole way —
  // delayed 9x, but never starved.
  const SimTime done = pipe.reserve(0.0, 1.0, background);
  EXPECT_DOUBLE_EQ(done, 9.0);
}

TEST(DisciplineTest, EdfServesTheEarliestAbsoluteDeadlineFirst) {
  Resource pipe("pipe", 1);
  pipe.set_discipline(DisciplineKind::kEdf);
  const QosTag lax{1, 1.0, 100.0};
  const QosTag tight{0, 1.0, 2.0};
  // Two lax 5s requests at t=0 (deadlines at 100), then a tight one at
  // t=1 (deadline at 3): it preempts the queued lax work.
  EXPECT_DOUBLE_EQ(pipe.reserve(0.0, 5.0, lax), 5.0);
  (void)pipe.reserve(0.0, 5.0, lax);
  EXPECT_DOUBLE_EQ(pipe.reserve(1.0, 1.0, tight), 2.0);
  EXPECT_EQ(pipe.class_stats().at(0).deadline_misses, 0u);
}

// Misses are metered under EVERY discipline — FIFO included — so the
// bench can compare miss counts across grant orders on equal footing.
TEST(DisciplineTest, DeadlineMissesAreCountedUnderFifo) {
  Resource pipe("pipe", 1);
  const QosTag deadline{0, 1.0, 1.0};
  (void)pipe.reserve(0.0, 5.0, deadline);       // finishes at 5, deadline 1
  (void)pipe.reserve(0.0, 0.5, deadline);       // queued to 5.5, deadline 1
  EXPECT_EQ(pipe.class_stats().at(0).deadline_misses, 2u);
}

// The WFQ fluid replay without checkpoints: every grant replays every
// arrival from t = 0. The reference the checkpointed replay must match
// bit for bit.
class FullReplayWfq {
 public:
  explicit FullReplayWfq(int capacity)
      : capacity_(static_cast<double>(capacity)) {}

  simkit::QosGrant grant(SimTime ready, SimTime service, const QosTag& tag) {
    Arrival arrival{ready, next_seq_++, service, tag.class_id,
                    std::max(tag.weight, 1e-9)};
    const auto pos = std::upper_bound(
        arrivals_.begin(), arrivals_.end(), arrival,
        [](const Arrival& a, const Arrival& b) {
          if (a.ready != b.ready) return a.ready < b.ready;
          return a.seq < b.seq;
        });
    arrivals_.insert(pos, arrival);
    simkit::QosGrant out;
    out.completion = std::max(replay(arrival.seq, tag.class_id, &out.backlog),
                              ready + service);
    return out;
  }

 private:
  struct Arrival {
    SimTime ready;
    std::uint64_t seq;
    SimTime service;
    int class_id;
    double weight;
  };
  struct ClassSim {
    double weight = 1.0;
    SimTime backlog = 0.0;
  };

  SimTime replay(std::uint64_t seq, int class_id, SimTime* backlog_at_arrival) {
    std::map<int, ClassSim> sim;
    SimTime now = 0.0;
    std::size_t next = 0;
    bool joined = false;
    SimTime remaining = 0.0;
    *backlog_at_arrival = 0.0;
    while (true) {
      while (next < arrivals_.size() && arrivals_[next].ready <= now) {
        const Arrival& a = arrivals_[next];
        ClassSim& cs = sim[a.class_id];
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
      for (const auto& [id, cs] : sim) {
        if (cs.backlog > 0.0) total_weight += cs.weight;
      }
      if (total_weight <= 0.0) {
        if (next >= arrivals_.size()) return now;
        now = std::max(now, arrivals_[next].ready);
        continue;
      }
      SimTime step = std::numeric_limits<SimTime>::infinity();
      if (next < arrivals_.size()) {
        step = std::max(0.0, arrivals_[next].ready - now);
      }
      for (const auto& [id, cs] : sim) {
        if (cs.backlog <= 0.0) continue;
        const double rate = capacity_ * cs.weight / total_weight;
        step = std::min(step, cs.backlog / rate);
      }
      if (joined) {
        const double rate = capacity_ * sim[class_id].weight / total_weight;
        if (remaining <= rate * step) return now + remaining / rate;
      }
      for (auto& [id, cs] : sim) {
        if (cs.backlog <= 0.0) continue;
        const double rate = capacity_ * cs.weight / total_weight;
        const SimTime drain = std::min(cs.backlog, rate * step);
        cs.backlog -= drain;
        if (id == class_id) remaining -= drain;
      }
      now += step;
    }
  }

  double capacity_;
  std::vector<Arrival> arrivals_;
  std::uint64_t next_seq_ = 0;
};

// The checkpointed replay must return what the full replay returns, bit
// for bit, on every grant of seeded streams whose readies sit at the
// frontier, are back-dated, tie exactly, or land anywhere in the history;
// whose services go down to 1e-12; and whose class weights occasionally
// drop to 0. One discipline per capacity serves every stream, so reset()
// must drop its checkpoints too.
TEST(DisciplineTest, WfqCheckpointedReplayMatchesFullReplay) {
  std::mt19937_64 rng(15);
  const auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const double weights[] = {8.0, 2.0, 1.0};
  std::uint64_t grants = 0;
  for (const int capacity : {1, 4}) {
    const auto checkpointed =
        simkit::make_discipline(DisciplineKind::kWfq, capacity);
    for (int stream = 0; stream < 60; ++stream) {
      checkpointed->reset();
      FullReplayWfq reference(capacity);
      const int length = 50 + static_cast<int>(unit() * 400);
      SimTime frontier = 0.0;
      SimTime last_ready = 0.0;
      for (int i = 0; i < length; ++i) {
        frontier += unit() * 1.2 / capacity;
        SimTime ready = frontier;
        const double mode = unit();
        if (mode < 0.3) {
          ready = std::max(0.0, frontier - unit() * 1.2);  // back-dated
        } else if (mode < 0.4) {
          ready = last_ready;  // exact tie
        } else if (mode < 0.5) {
          ready = unit() * frontier;  // deep out of order
        }
        last_ready = ready;
        SimTime service = unit();
        if (unit() < 0.1) service = std::pow(10.0, -12.0 * unit());
        const int class_id = static_cast<int>(unit() * 3);
        const double weight = unit() < 0.02 ? 0.0 : weights[class_id];
        const QosTag tag{class_id, weight, 0.0};
        const simkit::QosGrant want = reference.grant(ready, service, tag);
        const simkit::QosGrant got = checkpointed->grant(ready, service, tag);
        ASSERT_EQ(got.completion, want.completion)
            << "capacity " << capacity << " stream " << stream
            << " grant " << i;
        ASSERT_EQ(got.backlog, want.backlog)
            << "capacity " << capacity << " stream " << stream
            << " grant " << i;
        ++grants;
      }
    }
  }
  EXPECT_GT(grants, 20000u);
}

// ------------------------------------------------- system integration --

Workload classed_read(const std::string& name, TenantClass cls) {
  return Workload().classed(cls).open_existing(name).read_whole(name, 0)
      .finalize();
}

/// Writes `name` onto the remote disk and returns the producer's finish.
void seed_dataset(StorageSystem& system, const std::string& name) {
  Fleet fleet(system);
  Client& producer = fleet.add_client("producer");
  Completion* wrote =
      producer.submit(Workload()
                          .open(tiny_dataset(name, Location::kRemoteDisk))
                          .dump(name, 0)
                          .finalize());
  fleet.run_until_idle();
  ASSERT_TRUE(wrote->status().ok());
}

/// Runs the same two-class mix and returns each tenant's finish time.
std::vector<double> run_mix(StorageSystem& system) {
  Fleet fleet(system);
  std::vector<Completion*> done;
  for (int i = 0; i < 3; ++i) {
    // Built via += (not `"b" + s`): the operator+ form trips a GCC 12
    // -Wrestrict false positive when inlined at -O3.
    std::string name("b");
    name += std::to_string(i);
    Client& client = fleet.add_client(
        name,
        SessionOptions{.application = "qos",
                       .tenant_class = TenantClass::kBatch});
    done.push_back(client.submit(classed_read("shared", TenantClass::kBatch)));
  }
  Client& inter = fleet.add_client(
      "i0", SessionOptions{.application = "qos",
                           .tenant_class = TenantClass::kInteractive});
  done.push_back(inter.submit(classed_read("shared",
                                           TenantClass::kInteractive)));
  fleet.run_until_idle();
  std::vector<double> finishes;
  for (Completion* completion : done) {
    EXPECT_TRUE(completion->status().ok());
    finishes.push_back(completion->finished_at());
  }
  return finishes;
}

// Enabling QoS with the FIFO discipline must not move a single virtual
// time — the property that keeps all nine committed bench baselines
// byte-identical with the subsystem merged.
TEST(SystemQosTest, FifoQosLeavesFleetVirtualTimesIdentical) {
  StorageSystem plain(HardwareProfile::paper_2000());
  seed_dataset(plain, "shared");
  plain.reset_time();
  const std::vector<double> before = run_mix(plain);

  StorageSystem gated(HardwareProfile::paper_2000());
  seed_dataset(gated, "shared");
  gated.reset_time();
  ASSERT_TRUE(gated.enable_qos(QosConfig{}).ok());  // default: fifo
  const std::vector<double> after = run_mix(gated);

  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], after[i]) << "tenant " << i;
  }
}

TEST(SystemQosTest, BreakdownReportsPerClassActivity) {
  StorageSystem system(HardwareProfile::paper_2000());
  seed_dataset(system, "shared");
  system.reset_time();
  QosConfig config;
  config.discipline = DisciplineKind::kWfq;
  ASSERT_TRUE(system.enable_qos(config).ok());
  run_mix(system);

  std::uint64_t interactive_served = 0;
  std::uint64_t batch_served = 0;
  for (const obs::QosClassRow& row : system.qos_breakdown()) {
    if (row.tenant == "interactive") interactive_served = row.served;
    if (row.tenant == "batch") batch_served = row.served;
  }
  EXPECT_GT(interactive_served, 0u);
  EXPECT_GT(batch_served, 0u);
  EXPECT_GT(batch_served, interactive_served);  // 3 tenants vs 1

  system.disable_qos();
  for (const auto& [name, resource] : system.shared_devices()) {
    EXPECT_EQ(resource->discipline(), DisciplineKind::kFifo) << name;
  }
}

TEST(PolicyTest, ConfigRoundTripsThroughTheMetadb) {
  StorageSystem system(HardwareProfile::paper_2000());
  QosConfig config;
  config.discipline = DisciplineKind::kEdf;
  config.policy(TenantClass::kInteractive).deadline = 1.5;
  config.policy(TenantClass::kInteractive).slo = 3.0;
  config.policy(TenantClass::kBackground).weight = 0.5;
  config.admission = true;
  ASSERT_TRUE(qos::save_config(system.metadb(), config).ok());

  const auto loaded = qos::load_config(system.metadb());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->discipline, DisciplineKind::kEdf);
  EXPECT_DOUBLE_EQ(loaded->policy(TenantClass::kInteractive).deadline, 1.5);
  EXPECT_DOUBLE_EQ(loaded->policy(TenantClass::kInteractive).slo, 3.0);
  EXPECT_DOUBLE_EQ(loaded->policy(TenantClass::kBackground).weight, 0.5);
  EXPECT_TRUE(loaded->admission);

  StorageSystem fresh(HardwareProfile::paper_2000());
  EXPECT_FALSE(qos::load_config(fresh.metadb()).ok());  // nothing saved
}

// ---------------------------------------------------------- admission --

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest()
      : system_(HardwareProfile::paper_2000()),
        db_(&system_.metadb()),
        predictor_(&db_) {
    predict::PTool ptool(system_, db_);
    predict::PToolConfig config;
    config.sizes = {64 << 10, 256 << 10, 1 << 20};
    config.repeats = 1;
    EXPECT_TRUE(ptool.measure_all(config).ok());
    system_.reset_time();
    seed_dataset(system_, "shared");
    system_.reset_time();
  }

  QosConfig slo_config(double slo) {
    QosConfig config;
    config.policy(TenantClass::kInteractive).slo = slo;
    config.admission = true;
    return config;
  }

  StorageSystem system_;
  predict::PerfDb db_;
  predict::Predictor predictor_;
};

TEST_F(AdmissionTest, AcceptsOnIdleRejectsBehindABookedBacklog) {
  const QosConfig config = slo_config(/*slo=*/4.0);
  ASSERT_TRUE(system_.enable_qos(config).ok());
  qos::AdmissionController controller(system_, &predictor_, config);

  const Workload idle = classed_read("shared", TenantClass::kInteractive);
  const auto accepted =
      controller.decide(idle, TenantClass::kInteractive, /*now=*/0.0);
  EXPECT_EQ(accepted.outcome, qos::AdmissionDecision::Outcome::kAccept);
  EXPECT_LE(accepted.quote, 4.0);

  // Book the remote-disk path 100 virtual seconds deep: the same request
  // now quotes past the SLO and must be refused up front.
  system_.site(0).disk_resource().arm().reserve(0.0, 100.0);
  const Workload flooded = classed_read("shared", TenantClass::kInteractive);
  const auto rejected =
      controller.decide(flooded, TenantClass::kInteractive, /*now=*/0.0);
  EXPECT_EQ(rejected.outcome, qos::AdmissionDecision::Outcome::kReject);
  EXPECT_GT(rejected.quote, 4.0);

  // Classes without an SLO are never gated.
  const auto batch = controller.decide(
      classed_read("shared", TenantClass::kBatch), TenantClass::kBatch, 0.0);
  EXPECT_EQ(batch.outcome, qos::AdmissionDecision::Outcome::kAccept);
}

TEST_F(AdmissionTest, GateFailsSubmitsFastAndRecordsTheDecision) {
  const QosConfig config = slo_config(/*slo=*/4.0);
  ASSERT_TRUE(system_.enable_qos(config).ok());
  qos::AdmissionController controller(system_, &predictor_, config);
  system_.site(0).disk_resource().arm().reserve(0.0, 100.0);

  Fleet fleet(system_);
  controller.attach(fleet);
  Client& client = fleet.add_client(
      "inter", SessionOptions{.application = "qos",
                              .tenant_class = TenantClass::kInteractive});
  Completion* done =
      client.submit(classed_read("shared", TenantClass::kInteractive));
  fleet.run_until_idle();
  ASSERT_FALSE(done->status().ok());
  EXPECT_EQ(done->status().code(), ErrorCode::kCapacityExceeded);
  EXPECT_GE(
      system_.metrics().counter("qos.admission.interactive.rejected")->value(),
      1u);
  EXPECT_GE(system_.metrics().counter("qos.admission.rejected")->value(), 1u);
}

// ------------------------------------------------ concurrent fleets (TSan) --

// Three host threads each drive their own Fleet of classed tenants over
// one WFQ system, so the thread-local tag scope and the discipline's
// locking run from several threads at once. Host-thread interleaving
// decides the booking order, so this only asserts completion — it is the
// TSan job's stress for the QoS path.
TEST(FleetQosTest, ConcurrentClassedTenantsComplete) {
  StorageSystem system(HardwareProfile::paper_2000());
  seed_dataset(system, "shared");
  system.reset_time();
  QosConfig config;
  config.discipline = DisciplineKind::kWfq;
  ASSERT_TRUE(system.enable_qos(config).ok());

  constexpr std::size_t kFleets = 3;
  constexpr std::size_t kTenantsPerFleet = 4;
  const TenantClass classes[] = {TenantClass::kInteractive,
                                 TenantClass::kBatch,
                                 TenantClass::kBackground};
  // Completions belong to their Fleet, so each thread copies its statuses
  // out before its Fleet goes away.
  std::vector<std::vector<Status>> statuses(kFleets);
  std::vector<std::thread> threads;
  for (std::size_t f = 0; f < kFleets; ++f) {
    threads.emplace_back([&, f] {
      Fleet fleet(system);
      std::vector<Completion*> done;
      for (std::size_t i = 0; i < kTenantsPerFleet; ++i) {
        const std::size_t tenant = f * kTenantsPerFleet + i;
        const TenantClass cls = classes[tenant % 3];
        Client& client = fleet.add_client(
            std::string("t").append(std::to_string(tenant)),
            SessionOptions{.application = "qos", .tenant_class = cls});
        done.push_back(client.submit(classed_read("shared", cls)));
      }
      fleet.run_until_idle();
      for (const Completion* completion : done) {
        statuses[f].push_back(completion->status());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (const std::vector<Status>& fleet_statuses : statuses) {
    ASSERT_EQ(fleet_statuses.size(), kTenantsPerFleet);
    for (const Status& status : fleet_statuses) {
      EXPECT_TRUE(status.ok()) << status.to_string();
    }
  }
  std::uint64_t served = 0;
  for (const obs::QosClassRow& row : system.qos_breakdown()) {
    served += row.served;
  }
  EXPECT_GT(served, 0u);
}

}  // namespace
}  // namespace msra
