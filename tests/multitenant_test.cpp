// Multi-tenant core: concurrent client sessions over one shared
// StorageSystem, plus the contention-accounting primitives underneath.
//
// The threaded tests here are written for TSan (the CI sanitizer job runs
// the whole suite under it): every shared structure a session touches —
// resources, catalog, metadata database, performance database, SRB
// connection pool — is hammered from several host threads at once.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/session.h"
#include "predict/perfdb.h"
#include "simkit/resource.h"
#include "srb/client.h"

namespace msra {
namespace {

using core::Client;
using core::DatasetDesc;
using core::DatasetHandle;
using core::ElementType;
using core::HardwareProfile;
using core::Location;
using core::MetaCatalog;
using core::Session;
using core::SessionOptions;
using core::StorageSystem;
using simkit::Resource;
using simkit::SimTime;
using simkit::Timeline;

DatasetDesc tiny_dataset(const std::string& name, Location location) {
  DatasetDesc desc;
  desc.name = name;
  desc.dims = {8, 8, 8};
  desc.etype = ElementType::kFloat32;
  desc.frequency = 1;
  desc.location = location;
  return desc;
}

/// One collective write of `timestep` on the caller's clock (nprocs = 1).
void write_step(Client& client, DatasetHandle* handle, int timestep,
                std::byte fill) {
  std::vector<std::byte> block(handle->desc().global_bytes(), fill);
  prt::World world(1);
  world.run(
      [&](prt::Comm& comm) {
        ASSERT_TRUE(handle->write_timestep(comm, timestep, block).ok());
      },
      client.timeline().now());
  client.timeline().advance_to(world.timeline(0).now());
}

// ------------------------------------------------ Resource accounting --

TEST(ResourceStatsTest, ServedIdleSplitAndGapFilling) {
  Resource arm("arm", 1);
  EXPECT_DOUBLE_EQ(arm.reserve(0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(arm.reserve(5.0, 1.0), 6.0);  // leaves an idle gap [2, 5)

  auto split = arm.server_stats();
  ASSERT_EQ(split.size(), 1u);
  EXPECT_DOUBLE_EQ(split[0].served, 3.0);
  EXPECT_DOUBLE_EQ(split[0].horizon, 6.0);
  EXPECT_DOUBLE_EQ(split[0].idle(), 3.0);

  // A later reservation fills the gap exactly: no extra wait, no idle left.
  EXPECT_DOUBLE_EQ(arm.reserve(2.0, 3.0), 5.0);
  split = arm.server_stats();
  EXPECT_DOUBLE_EQ(split[0].served, 6.0);
  EXPECT_DOUBLE_EQ(split[0].idle(), 0.0);
  EXPECT_DOUBLE_EQ(arm.utilization(), 1.0);
  EXPECT_DOUBLE_EQ(arm.queue_stats().total_wait, 0.0);
}

TEST(ResourceStatsTest, QueueWaitTotals) {
  Resource arm("arm", 1);
  arm.reserve(0.0, 4.0);
  arm.reserve(0.0, 2.0);  // waits 4
  arm.reserve(1.0, 1.0);  // waits 5 (starts at 6)
  const Resource::QueueStats queue = arm.queue_stats();
  EXPECT_EQ(queue.reservations, 3u);
  EXPECT_DOUBLE_EQ(queue.total_wait, 9.0);
  EXPECT_DOUBLE_EQ(queue.max_wait, 5.0);
}

TEST(ResourceStatsTest, MultiServerUtilization) {
  Resource drives("drives", 2);
  drives.reserve(0.0, 4.0);  // server 0
  drives.reserve(0.0, 2.0);  // server 1 (both idle; earliest start ties)
  const auto split = drives.server_stats();
  ASSERT_EQ(split.size(), 2u);
  EXPECT_DOUBLE_EQ(split[0].served + split[1].served, 6.0);
  // served / (capacity * max horizon) = 6 / (2 * 4).
  EXPECT_DOUBLE_EQ(drives.utilization(), 0.75);
}

TEST(ResourceStatsTest, ZeroServiceOccupiesNothing) {
  Resource arm("arm", 1);
  EXPECT_DOUBLE_EQ(arm.reserve(3.0, 0.0), 3.0);
  EXPECT_EQ(arm.operations(), 1u);  // counted as an op...
  EXPECT_EQ(arm.queue_stats().reservations, 0u);  // ...but never queued
  EXPECT_DOUBLE_EQ(arm.utilization(), 0.0);
}

TEST(ResourceStatsTest, WaitObserverSeesEveryQueuedReservation) {
  Resource arm("arm", 1);
  std::vector<SimTime> waits;
  arm.set_wait_observer([&](SimTime wait) { waits.push_back(wait); });
  arm.reserve(0.0, 2.0);
  arm.reserve(0.0, 2.0);
  arm.reserve(0.0, 0.0);  // zero service: not observed
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_DOUBLE_EQ(waits[0], 0.0);
  EXPECT_DOUBLE_EQ(waits[1], 2.0);
  arm.set_wait_observer(nullptr);
  arm.reserve(0.0, 1.0);
  EXPECT_EQ(waits.size(), 2u);
}

TEST(ResourceStatsTest, ResetClearsAccounting) {
  Resource arm("arm", 1);
  arm.reserve(0.0, 2.0);
  arm.reserve(0.0, 2.0);
  arm.reset();
  EXPECT_EQ(arm.operations(), 0u);
  EXPECT_DOUBLE_EQ(arm.busy_time(), 0.0);
  EXPECT_EQ(arm.queue_stats().reservations, 0u);
  EXPECT_DOUBLE_EQ(arm.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(arm.server_stats()[0].horizon, 0.0);
}

TEST(ResourceStatsTest, ConcurrentReservationsStayConsistent) {
  Resource arm("arm", 1);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arm] {
      for (int i = 0; i < kPerThread; ++i) arm.reserve(0.0, 1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(arm.operations(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(arm.busy_time(), kThreads * kPerThread * 1.0);
  // A serial device serving back-to-back unit jobs from t = 0 is dense:
  // total wait is 0 + 1 + ... + (n-1) regardless of arrival interleaving.
  const double n = kThreads * kPerThread;
  EXPECT_DOUBLE_EQ(arm.queue_stats().total_wait, n * (n - 1) / 2.0);
  EXPECT_DOUBLE_EQ(arm.utilization(), 1.0);
}

// ------------------------------------------------ Session finalize --

class FinalizeTest : public ::testing::Test {
 protected:
  FinalizeTest() : system_(HardwareProfile::test_profile()) {}
  StorageSystem system_;
};

TEST_F(FinalizeTest, OpenAfterFinalizeFailsPrecondition) {
  Session session(system_, {});
  ASSERT_TRUE(session.finalize().ok());
  EXPECT_TRUE(session.finalized());
  const auto opened = session.open(tiny_dataset("late", Location::kLocalDisk));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), ErrorCode::kFailedPrecondition);
  const auto existing = session.open_existing("late");
  ASSERT_FALSE(existing.ok());
  EXPECT_EQ(existing.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(FinalizeTest, DoubleFinalizeIsIdempotent) {
  Session session(system_, {});
  EXPECT_TRUE(session.finalize().ok());
  EXPECT_TRUE(session.finalize().ok());
  EXPECT_TRUE(session.finalized());
}

TEST_F(FinalizeTest, FinalizeWithOpenHandles) {
  Client client("writer", system_);
  DatasetHandle* a =
      *client.open(tiny_dataset("finalize-a", Location::kLocalDisk));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(*client.open(tiny_dataset("finalize-b", Location::kLocalDisk)),
            nullptr);
  write_step(client, a, 0, std::byte{7});
  // finalize() destroys the session's handles, `a` included.
  const std::uint64_t global_bytes = a->desc().global_bytes();
  EXPECT_TRUE(client.finalize().ok());
  EXPECT_TRUE(client.session().finalized());
  // The data outlives the session: a fresh consumer still reads it.
  Client reader("reader", system_);
  DatasetHandle* again = *reader.open_existing("finalize-a");
  const auto bytes = again->read_whole(0);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), global_bytes);
}

TEST_F(FinalizeTest, ConcurrentFinalizeOneWins) {
  Session session(system_, {});
  ASSERT_TRUE(session.open(tiny_dataset("shared", Location::kLocalDisk)).ok());
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Status> results(kThreads, Status::Ok());
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session, &results, t] {
      results[static_cast<std::size_t>(t)] = session.finalize();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Status& status : results) EXPECT_TRUE(status.ok());
  EXPECT_TRUE(session.finalized());
}

TEST_F(FinalizeTest, ConcurrentOpensThenFinalize) {
  Session session(system_, {});
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session, t] {
      const auto handle = session.open(
          tiny_dataset("ds" + std::to_string(t), Location::kLocalDisk));
      EXPECT_TRUE(handle.ok());
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(session.finalize().ok());
}

// ------------------------------------------------ concurrent tenants --

class MultiTenantTest : public ::testing::Test {
 protected:
  MultiTenantTest() : system_(HardwareProfile::test_profile()) {}
  StorageSystem system_;
};

TEST_F(MultiTenantTest, ClientsOnDistinctThreadsShareOneSystem) {
  constexpr int kClients = 4;
  constexpr int kSteps = 3;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>("tenant" + std::to_string(c),
                                               system_));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *clients[static_cast<std::size_t>(c)];
      // Half the tenants hit the local disk, half the remote disk: they
      // contend pairwise on arms and all together on the metadata layer.
      const Location location =
          c % 2 == 0 ? Location::kLocalDisk : Location::kRemoteDisk;
      std::string dataset = "t";
      dataset += std::to_string(c);
      DatasetHandle* handle = *client.open(tiny_dataset(dataset, location));
      for (int step = 0; step < kSteps; ++step) {
        write_step(client, handle, step,
                   std::byte{static_cast<unsigned char>(c + 1)});
      }
      for (int step = 0; step < kSteps; ++step) {
        const auto bytes = handle->read_whole(step);
        ASSERT_TRUE(bytes.ok());
        for (const std::byte b : *bytes) {
          ASSERT_EQ(b, std::byte{static_cast<unsigned char>(c + 1)});
        }
      }
      EXPECT_TRUE(client.finalize().ok());
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& client : clients) EXPECT_GT(client->elapsed(), 0.0);
  // The contention snapshot saw the traffic.
  double ops = 0;
  for (const auto& row : system_.resource_loads()) {
    ops += static_cast<double>(row.operations);
  }
  EXPECT_GT(ops, 0);
}

TEST_F(MultiTenantTest, RoundRobinContentionIsDeterministic) {
  // Two identical single-threaded runs of a 2-client round-robin produce
  // bit-identical virtual times: contention is a function of reservation
  // order only.
  auto run_once = [] {
    StorageSystem system(HardwareProfile::test_profile());
    Client producer("producer", system);
    DatasetHandle* handle =
        *producer.open(tiny_dataset("frame", Location::kLocalDisk));
    write_step(producer, handle, 0, std::byte{1});
    Client a("a", system), b("b", system);
    DatasetHandle* ha = *a.open_existing("frame");
    DatasetHandle* hb = *b.open_existing("frame");
    for (int round = 0; round < 3; ++round) {
      EXPECT_TRUE(ha->read_whole(0).ok());
      EXPECT_TRUE(hb->read_whole(0).ok());
    }
    return std::pair<SimTime, SimTime>(a.elapsed(), b.elapsed());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  // And the second client of each pair genuinely queued behind the first.
  EXPECT_GT(first.second, first.first);
}

TEST_F(MultiTenantTest, CatalogSurvivesConcurrentRegistration) {
  MetaCatalog catalog(&system_.metadb());
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&catalog, t] {
      const std::string id = std::to_string(t);
      EXPECT_TRUE(catalog.register_user("user" + id, "nwu").ok());
      EXPECT_TRUE(
          catalog.register_application("app" + id, "user" + id, 1, 4).ok());
      DatasetDesc desc = tiny_dataset("data" + id, Location::kLocalDisk);
      EXPECT_TRUE(
          catalog.register_dataset("app" + id, desc, Location::kLocalDisk).ok());
      core::InstanceRecord record;
      record.dataset_key = MetaCatalog::dataset_key("app" + id, "data" + id);
      record.timestep = 0;
      record.replicas = {Location::kLocalDisk};
      record.path = record.dataset_key + "/t0";
      record.bytes = desc.global_bytes();
      EXPECT_TRUE(catalog.record_instance(record).ok());
      EXPECT_TRUE(catalog
                      .add_replica("app" + id, "data" + id, 0,
                                   Location::kRemoteDisk)
                      .ok());
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(catalog.all_datasets().size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    const std::string id = std::to_string(t);
    const auto instance = catalog.instance("app" + id, "data" + id, 0);
    ASSERT_TRUE(instance.ok());
    EXPECT_EQ(instance->replicas.size(), 2u);
  }
}

TEST_F(MultiTenantTest, PerfDbSurvivesConcurrentPuts) {
  predict::PerfDb perfdb(&system_.metadb());
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&perfdb, t] {
      const auto op = t % 2 == 0 ? predict::IoOp::kRead : predict::IoOp::kWrite;
      const std::uint64_t bytes = 1024u * static_cast<std::uint64_t>(t + 1);
      EXPECT_TRUE(perfdb
                      .put_rw_point(Location::kLocalDisk, op, bytes,
                                    0.001 * (t + 1))
                      .ok());
      EXPECT_TRUE(perfdb
                      .put_contended_rw_point(Location::kLocalDisk, op,
                                              2 + (t % 3) * 2, bytes,
                                              0.002 * (t + 1))
                      .ok());
      predict::FixedCosts costs;
      costs.conn = 0.1 * (t + 1);
      EXPECT_TRUE(perfdb.put_fixed(Location::kRemoteDisk, op, costs).ok());
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto op = t % 2 == 0 ? predict::IoOp::kRead : predict::IoOp::kWrite;
    const std::uint64_t bytes = 1024u * static_cast<std::uint64_t>(t + 1);
    const auto seconds = perfdb.rw_time(Location::kLocalDisk, op, bytes);
    ASSERT_TRUE(seconds.ok());
    EXPECT_DOUBLE_EQ(*seconds, 0.001 * (t + 1));
  }
  EXPECT_FALSE(
      perfdb.contended_levels(Location::kLocalDisk, predict::IoOp::kRead)
          .empty());
}

// ------------------------------------------------ SRB connection pool --

TEST_F(MultiTenantTest, SrbPoolSurvivesConnectDrainRaces) {
  // Sessions keep connections pooled between file sessions; an idle-pool
  // reaper calls drain() concurrently. The pool must never lose a wire
  // teardown or hand out a "connected" client with no physical connection.
  srb::SrbClient client(&system_.site(0).server(), &system_.site(0).disk_link());
  constexpr int kThreads = 6;
  constexpr int kCycles = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client, t] {
      Timeline timeline;
      for (int i = 0; i < kCycles; ++i) {
        if (t % 3 == 2) {
          EXPECT_TRUE(client.drain(timeline).ok());  // the reaper
        } else {
          EXPECT_TRUE(client.connect(timeline).ok());
          EXPECT_TRUE(client.connected());
          EXPECT_TRUE(client.disconnect(timeline).ok());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(client.connected());
  Timeline timeline;
  EXPECT_TRUE(client.drain(timeline).ok());  // retire: close any pooled wire
}

}  // namespace
}  // namespace msra
