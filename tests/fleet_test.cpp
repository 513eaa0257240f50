// Fleet runtime: the virtual-time tenant scheduler (core/fleet.h) and the
// resumable plan execution underneath it (runtime::PlanCursor).
//
// The determinism tests run the same tenant mix against two fresh systems
// and require bit-identical per-tenant virtual times — that property is
// what makes BENCH_fleet.json a byte-stable drift guard.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/msra.h"
#include "runtime/plan.h"

namespace msra {
namespace {

using core::Client;
using core::Completion;
using core::DatasetDesc;
using core::ElementType;
using core::Fleet;
using core::HardwareProfile;
using core::Location;
using core::StagedAccess;
using core::StorageSystem;
using core::Workload;

DatasetDesc tiny_dataset(const std::string& name, Location location) {
  DatasetDesc desc;
  desc.name = name;
  desc.dims = {8, 8, 8};
  desc.etype = ElementType::kFloat32;
  desc.frequency = 1;
  desc.location = location;
  return desc;
}

// ------------------------------------------------- PlanCursor parity --

// Stepping a plan stage-at-a-time through a PlanCursor must land on the
// same virtual time, bytes, and status as the one-shot executor — the
// fleet's interleaving depends on it.
TEST(PlanCursorTest, StepwiseMatchesOneShotExecute) {
  StorageSystem system(HardwareProfile::paper_2000());
  Fleet fleet(system);
  Client& writer = fleet.add_client("writer");
  Completion* wrote =
      writer.submit(Workload()
                        .open(tiny_dataset("parity", Location::kRemoteDisk))
                        .dump("parity", 0)
                        .finalize());
  fleet.run_until_idle();
  ASSERT_TRUE(wrote->status().ok());

  core::Session session(system, {.application = "parity_reader"});
  auto handle = session.open_existing("parity");
  ASSERT_TRUE(handle.ok());
  const std::size_t bytes = (*handle)->desc().global_bytes();

  // Lower the same read twice; run one through execute(), one through a
  // cursor drain, each on its own fresh clock.
  auto staged_a = (*handle)->stage_read_whole(0);
  auto staged_b = (*handle)->stage_read_whole(0);
  ASSERT_TRUE(staged_a.ok());
  ASSERT_TRUE(staged_b.ok());
  ASSERT_GT(staged_a->plan.stages.size(), 1u);

  // Each run starts on idle devices — otherwise the second read queues
  // behind the reservations the first one booked on the shared resources.
  system.reset_time();
  simkit::Timeline clock_a;
  std::vector<std::byte> out_a(bytes);
  const Status one_shot = runtime::PlanExecutor::execute(
      staged_a->plan, *staged_a->endpoint, clock_a, out_a, {});
  ASSERT_TRUE(one_shot.ok());

  system.reset_time();
  simkit::Timeline clock_b;
  std::vector<std::byte> out_b(bytes);
  runtime::PlanCursor cursor(staged_b->plan, *staged_b->endpoint, clock_b,
                             out_b, {});
  std::size_t steps = 0;
  while (!cursor.done()) {
    EXPECT_EQ(cursor.next_stage(), steps);
    (void)cursor.step();
    ++steps;
  }
  EXPECT_TRUE(cursor.status().ok());
  EXPECT_EQ(steps, staged_b->plan.stages.size());
  EXPECT_EQ(clock_a.now(), clock_b.now());
  EXPECT_EQ(out_a, out_b);
}

// --------------------------------------------------- Fleet scheduling --

struct FleetRun {
  std::vector<Status> statuses;
  std::vector<simkit::SimTime> finished_at;
  std::vector<simkit::SimTime> latency;
};

/// The bench's tenant mix at small scale: role i % 3 cycles a local-disk
/// checkpoint dump, a whole-frame read, and a one-plane read.
FleetRun run_mixed_fleet(int tenants) {
  StorageSystem system(HardwareProfile::paper_2000());
  Fleet setup(system);
  Client& producer = setup.add_client("producer");
  Completion* wrote =
      producer.submit(Workload()
                          .open(tiny_dataset("frame", Location::kRemoteDisk))
                          .dump("frame", 0)
                          .finalize());
  setup.run_until_idle();
  EXPECT_TRUE(wrote->status().ok());
  system.reset_time();

  Fleet fleet(system);
  std::vector<Completion*> completions;
  for (int i = 0; i < tenants; ++i) {
    Client& client = fleet.add_client("tenant" + std::to_string(i));
    Workload workload;
    switch (i % 3) {
      case 0:
        workload.open(tiny_dataset("ckpt" + std::to_string(i),
                                   Location::kLocalDisk))
            .dump("ckpt" + std::to_string(i), 0);
        break;
      case 1:
        workload.open_existing("frame").read_whole("frame", 0);
        break;
      default:
        workload.open_existing("frame").read_box("frame", 0,
                                                 prt::LocalBox{{{{0, 8}, {0, 8}, {0, 1}}}});
        break;
    }
    completions.push_back(fleet.submit(client, workload.finalize()));
  }
  fleet.run_until_idle();

  FleetRun run;
  for (const Completion* completion : completions) {
    EXPECT_TRUE(completion->done());
    run.statuses.push_back(completion->status());
    run.finished_at.push_back(completion->finished_at());
    run.latency.push_back(completion->latency());
  }
  return run;
}

// Two fresh systems, same tenant mix: every per-tenant virtual time must
// be bit-identical (the fleet runs slices in strict global virtual-time
// order with deterministic tie-breaks).
TEST(FleetTest, RerunIsDeterministic) {
  const FleetRun first = run_mixed_fleet(30);
  const FleetRun second = run_mixed_fleet(30);
  ASSERT_EQ(first.statuses.size(), second.statuses.size());
  for (std::size_t i = 0; i < first.statuses.size(); ++i) {
    EXPECT_TRUE(first.statuses[i].ok()) << first.statuses[i].to_string();
    EXPECT_TRUE(second.statuses[i].ok());
    EXPECT_EQ(first.finished_at[i], second.finished_at[i]) << "tenant " << i;
    EXPECT_EQ(first.latency[i], second.latency[i]) << "tenant " << i;
  }
}

// A reader fleet and the synchronous one-client path must price the same
// read identically: the sync Client methods *are* a one-actor fleet, and
// read_whole defaults to the session's own clock either way.
TEST(FleetTest, MatchesSynchronousClientPath) {
  const auto write_frame = [](StorageSystem& system) {
    Fleet setup(system);
    Client& producer = setup.add_client("producer");
    Completion* wrote =
        producer.submit(Workload()
                            .open(tiny_dataset("frame", Location::kRemoteDisk))
                            .dump("frame", 0)
                            .finalize());
    setup.run_until_idle();
    ASSERT_TRUE(wrote->status().ok());
    system.reset_time();
  };

  StorageSystem fleet_system(HardwareProfile::paper_2000());
  write_frame(fleet_system);
  Fleet fleet(fleet_system);
  Client& tenant = fleet.add_client("reader");
  Completion* read = tenant.submit(
      Workload().open_existing("frame").read_whole("frame", 0).finalize());
  fleet.run_until_idle();
  ASSERT_TRUE(read->status().ok());

  StorageSystem sync_system(HardwareProfile::paper_2000());
  write_frame(sync_system);
  Client reader("reader", sync_system);
  auto handle = reader.open_existing("frame");
  ASSERT_TRUE(handle.ok());
  auto bytes = (*handle)->read_whole(0);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(reader.finalize().ok());

  EXPECT_EQ(read->finished_at(), reader.timeline().now());
}

// 1000 actors through one scheduler thread: everything completes, virtual
// completion order is well-formed, and the count matches.
TEST(FleetTest, ThousandActorSmoke) {
  const FleetRun run = run_mixed_fleet(1000);
  ASSERT_EQ(run.statuses.size(), 1000u);
  for (std::size_t i = 0; i < run.statuses.size(); ++i) {
    EXPECT_TRUE(run.statuses[i].ok()) << "tenant " << i << ": "
                                      << run.statuses[i].to_string();
    EXPECT_GE(run.latency[i], 0.0);
  }
}

// ------------------------------------------------------- Error paths --

// Steps that touch a dataset after finalize() fail the workload with
// FailedPrecondition and skip the rest; later workloads still run.
TEST(FleetTest, SubmitAfterFinalizeFails) {
  StorageSystem system(HardwareProfile::paper_2000());
  Fleet fleet(system);
  Client& client = fleet.add_client("tenant");
  Completion* first =
      client.submit(Workload()
                        .open(tiny_dataset("data", Location::kLocalDisk))
                        .dump("data", 0)
                        .finalize());
  Completion* second = client.submit(Workload().read_whole("data", 0));
  fleet.run_until_idle();
  ASSERT_TRUE(first->status().ok());
  ASSERT_TRUE(second->done());
  EXPECT_EQ(second->status().code(), ErrorCode::kFailedPrecondition);
}

// A read_box workload cannot carry a dedicated clock or a streams
// override: the actor always runs on its own timeline, and staged reads
// cannot reshape the shared endpoint fast path.
TEST(FleetTest, RejectsForeignClockAndStreams) {
  StorageSystem system(HardwareProfile::paper_2000());
  Fleet fleet(system);
  Client& writer = fleet.add_client("writer");
  Completion* wrote =
      writer.submit(Workload()
                        .open(tiny_dataset("frame", Location::kRemoteDisk))
                        .dump("frame", 0)
                        .finalize());
  fleet.run_until_idle();
  ASSERT_TRUE(wrote->status().ok());

  simkit::Timeline foreign;
  Client& reader_a = fleet.add_client("reader_a");
  Completion* bad_clock = reader_a.submit(
      Workload().open_existing("frame").read_box(
          "frame", 0, prt::LocalBox{{{{0, 8}, {0, 8}, {0, 1}}}},
          {.timeline = &foreign}));
  Client& reader_b = fleet.add_client("reader_b");
  Completion* bad_streams = reader_b.submit(
      Workload().open_existing("frame").read_box(
          "frame", 0, prt::LocalBox{{{{0, 8}, {0, 8}, {0, 1}}}},
          {.streams = 2}));
  fleet.run_until_idle();
  EXPECT_EQ(bad_clock->status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(bad_streams->status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace msra
