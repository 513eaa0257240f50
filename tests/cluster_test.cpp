// The sharded SRB cluster: server-qualified replica addresses, dataset
// sharding, the predictor-driven balancer, server-down failover and the
// cross-server rebalance pass. Threaded tests are written for the TSan CI
// job: an operator takes a site down while client sessions are mid-run.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "core/balancer.h"
#include "core/client.h"
#include "core/placement.h"
#include "core/session.h"
#include "flow/stager.h"
#include "meta/database.h"
#include "predict/ptool.h"
#include "runtime/plan.h"

namespace msra {
namespace {

using core::Balancer;
using core::BalancerPolicy;
using core::Client;
using core::DatasetDesc;
using core::DatasetHandle;
using core::HardwareProfile;
using core::Location;
using core::MetaCatalog;
using core::ReplicaAddress;
using core::Session;
using core::StorageSystem;
using prt::Comm;
using prt::World;
using simkit::Timeline;

DatasetDesc small_dataset(const std::string& name, Location location) {
  DatasetDesc desc;
  desc.name = name;
  desc.dims = {16, 16, 16};
  desc.etype = core::ElementType::kFloat32;
  desc.pattern = "BBB";
  desc.frequency = 1;
  desc.location = location;
  return desc;
}

HardwareProfile cluster_profile(int servers) {
  HardwareProfile profile = HardwareProfile::test_profile();
  profile.cluster.servers = servers;
  return profile;
}

/// Dumps `timesteps` timesteps of a fresh dataset and returns its handle.
DatasetHandle* write_dataset(Session& session, const DatasetDesc& desc,
                             int timesteps) {
  auto handle = session.open(desc);
  EXPECT_TRUE(handle.ok()) << handle.status().to_string();
  auto layout = (*handle)->layout(1);
  EXPECT_TRUE(layout.ok());
  std::vector<std::byte> block(layout->global_bytes(), std::byte{0x5a});
  World world(1);
  world.run([&](Comm& comm) {
    for (int t = 0; t < timesteps; ++t) {
      ASSERT_TRUE((*handle)->write_timestep(comm, t, block).ok());
    }
  });
  return *handle;
}

// ------------------------------------------------------ address grammar --

TEST(AddressGrammarTest, NamesRoundTripAndServerZeroStaysBare) {
  // Server 0 prints without the suffix: single-server catalogs are
  // textually identical to the pre-cluster format.
  EXPECT_EQ(core::address_name({Location::kRemoteDisk, 0}), "REMOTEDISK");
  EXPECT_EQ(core::address_name({Location::kRemoteTape, 2}), "REMOTETAPE@2");
  for (ReplicaAddress address :
       {ReplicaAddress{Location::kLocalDisk, 0},
        ReplicaAddress{Location::kRemoteDisk, 1},
        ReplicaAddress{Location::kRemoteTape, 7}}) {
    auto parsed = core::parse_address(core::address_name(address));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, address);
  }
  // A bare location name is server 0 (the pre-cluster meaning).
  auto bare = core::parse_address("REMOTETAPE");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(*bare, ReplicaAddress(Location::kRemoteTape, 0));
  EXPECT_FALSE(core::parse_address("FLOPPY@1").ok());
}

// ------------------------------------------------------------- sharding --

TEST(ShardTest, DeterministicInRangeAndLocalAlwaysZero) {
  const int servers = 4;
  for (const char* name : {"temp", "press", "vr_temp", "chem"}) {
    const int server =
        core::shard_server(name, Location::kRemoteDisk, servers);
    EXPECT_GE(server, 0);
    EXPECT_LT(server, servers);
    // Re-derivable: same key, same shard, everywhere.
    EXPECT_EQ(core::shard_server(name, Location::kRemoteDisk, servers),
              server);
    EXPECT_EQ(core::shard_server(name, Location::kRemoteTape, servers),
              core::shard_server(name, Location::kRemoteDisk, servers));
    // Local disks sit on the client side of the WAN: never sharded.
    EXPECT_EQ(core::shard_server(name, Location::kLocalDisk, servers), 0);
    // A single-server cluster has nothing to shard over.
    EXPECT_EQ(core::shard_server(name, Location::kRemoteDisk, 1), 0);
  }
}

TEST(ShardTest, HashSpreadsDatasetsOverTheCluster) {
  const int servers = 4;
  std::set<int> hit;
  for (int i = 0; i < 64; ++i) {
    hit.insert(core::shard_server("dataset" + std::to_string(i),
                                  Location::kRemoteDisk, servers));
  }
  EXPECT_EQ(hit.size(), static_cast<std::size_t>(servers))
      << "64 names over 4 servers must reach every server";
}

TEST(ShardTest, OrderedCandidateAddressesCoverTheCluster) {
  const auto chain =
      core::ordered_candidate_addresses({Location::kRemoteDisk, 2}, 4);
  // Preferred address first, then every other server of the class, then
  // the remaining classes: 4 disk + 1 local + 4 tape.
  ASSERT_EQ(chain.size(), 9u);
  EXPECT_EQ(chain.front(), ReplicaAddress(Location::kRemoteDisk, 2));
  std::set<std::pair<int, int>> seen;
  for (ReplicaAddress address : chain) {
    seen.insert({static_cast<int>(address.location), address.server});
    if (address.location == Location::kLocalDisk) {
      EXPECT_EQ(address.server, 0);
    }
  }
  EXPECT_EQ(seen.size(), chain.size()) << "no duplicate candidates";
  // Single-server expansion is exactly the classic class order.
  const auto single =
      core::ordered_candidate_addresses({Location::kRemoteDisk, 0}, 1);
  const auto classic = core::ordered_candidates(Location::kRemoteDisk);
  ASSERT_EQ(single.size(), classic.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i], ReplicaAddress(classic[i], 0));
  }
}

// ------------------------------------------------------- cluster build --

TEST(ClusterBuildTest, SitesAreIndependentAndSiteZeroKeepsLegacyNames) {
  StorageSystem system(cluster_profile(3));
  ASSERT_EQ(system.cluster_size(), 3);
  EXPECT_EQ(system.site(0).server().name(), "sdsc");
  EXPECT_EQ(system.site(1).server().name(), "sdsc1");
  EXPECT_EQ(system.site(0).disk_resource().name(), "remotedisk");
  EXPECT_EQ(system.site(2).disk_resource().name(), "remotedisk2");
  // Distinct physical resources per site.
  EXPECT_NE(&system.site(0).disk_resource(), &system.site(1).disk_resource());
  EXPECT_NE(&system.site(0).tape_library(), &system.site(1).tape_library());
  EXPECT_NE(&system.endpoint({Location::kRemoteDisk, 0}),
            &system.endpoint({Location::kRemoteDisk, 1}));
  // Every site starts empty and bounded like the paper's single site.
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(system.endpoint({Location::kRemoteDisk, s}).used(), 0u);
    EXPECT_EQ(system.endpoint({Location::kRemoteDisk, s}).capacity(),
              system.profile().remote_disk_capacity);
  }
}

TEST(ClusterBuildTest, ShardedWritesLandOnTheHomeServerOnly) {
  StorageSystem system(cluster_profile(4));
  Session session(system, {.application = "astro", .nprocs = 1,
                           .iterations = 2});
  DatasetHandle* handle =
      write_dataset(session, small_dataset("temp", Location::kRemoteDisk), 1);
  const int home = core::shard_server("temp", Location::kRemoteDisk, 4);
  const auto replicas = handle->replica_addresses(0);
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas[0], ReplicaAddress(Location::kRemoteDisk, home));
  for (int s = 0; s < 4; ++s) {
    const std::uint64_t used = system.endpoint({Location::kRemoteDisk, s}).used();
    if (s == home) {
      EXPECT_GT(used, 0u);
    } else {
      EXPECT_EQ(used, 0u) << "server " << s << " must stay empty";
    }
  }
}

// ------------------------------------------------- catalog persistence --

class ClusterCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("msra_cluster_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::filesystem::path root_;
};

TEST_F(ClusterCatalogTest, ServerQualifiedReplicasSurviveReopen) {
  const int home = core::shard_server("temp", Location::kRemoteDisk, 4);
  const int other = (home + 1) % 4;
  {
    StorageSystem system(cluster_profile(4), root_);
    Session session(system, {.application = "astro", .nprocs = 1,
                             .iterations = 2});
    DatasetHandle* handle = write_dataset(
        session, small_dataset("temp", Location::kRemoteDisk), 1);
    Timeline tl;
    ASSERT_TRUE(handle
                    ->replicate_timestep(0, {Location::kRemoteDisk, other},
                                         {.timeline = &tl})
                    .ok());
    ASSERT_TRUE(system.save_metadata().ok());
  }
  StorageSystem system(cluster_profile(4), root_);
  MetaCatalog catalog(&system.metadb());
  auto record = catalog.instance("astro", "temp", 0);
  ASSERT_TRUE(record.ok());
  const std::vector<ReplicaAddress> expected = {
      {Location::kRemoteDisk, home}, {Location::kRemoteDisk, other}};
  EXPECT_EQ(record->replicas, expected);
  // And a fresh session reads through either replica.
  Session session(system, {.application = "astro", .nprocs = 1,
                           .iterations = 2});
  auto handle = session.open_existing("temp");
  ASSERT_TRUE(handle.ok());
  Timeline tl;
  EXPECT_TRUE((*handle)->read_whole(0, {.timeline = &tl}).ok());
}

TEST(ClusterCatalogUpgradeTest, V1SingleLocationRowsUpgradeLosslessly) {
  meta::Database db;
  // A catalog written before replica sets: one row per replica with a
  // single `location` column.
  auto v1 = db.open_table(
      "instances", meta::Schema{{"dataset_key", meta::ColumnType::kText},
                                {"timestep", meta::ColumnType::kInt},
                                {"location", meta::ColumnType::kText},
                                {"path", meta::ColumnType::kText},
                                {"bytes", meta::ColumnType::kInt}});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE((*v1)->insert({std::string("astro/temp"), std::int64_t{0},
                             std::string("REMOTETAPE"),
                             std::string("astro/temp/t0"), std::int64_t{4096}})
                  .ok());
  ASSERT_TRUE((*v1)->insert({std::string("astro/temp"), std::int64_t{0},
                             std::string("LOCALDISK"),
                             std::string("astro/temp/t0"), std::int64_t{4096}})
                  .ok());
  MetaCatalog catalog(&db);
  auto record = catalog.instance("astro", "temp", 0);
  ASSERT_TRUE(record.ok());
  // Merged into one timestep row; first-recorded order keeps the original
  // dump location primary; every upgraded replica lands on server 0.
  const std::vector<ReplicaAddress> expected = {
      {Location::kRemoteTape, 0}, {Location::kLocalDisk, 0}};
  EXPECT_EQ(record->replicas, expected);
  EXPECT_EQ(record->primary(), ReplicaAddress(Location::kRemoteTape, 0));
}

TEST(ClusterCatalogUpgradeTest, BareV2ReplicaNamesMeanServerZero) {
  meta::Database db;
  // An older v2 catalog: replica sets exist but predate the "@server"
  // grammar. Bare names must keep meaning exactly what they meant.
  auto v2 = db.open_table(
      "instances", meta::Schema{{"dataset_key", meta::ColumnType::kText},
                                {"timestep", meta::ColumnType::kInt},
                                {"replicas", meta::ColumnType::kText},
                                {"path", meta::ColumnType::kText},
                                {"bytes", meta::ColumnType::kInt}});
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE((*v2)->insert({std::string("astro/press"), std::int64_t{3},
                             std::string("REMOTETAPE,REMOTEDISK@2"),
                             std::string("astro/press/t3"),
                             std::int64_t{8192}})
                  .ok());
  MetaCatalog catalog(&db);
  auto record = catalog.instance("astro", "press", 3);
  ASSERT_TRUE(record.ok());
  const std::vector<ReplicaAddress> expected = {{Location::kRemoteTape, 0},
                                                {Location::kRemoteDisk, 2}};
  EXPECT_EQ(record->replicas, expected);
}

// ------------------------------------------------------------- balancer --

class BalancerTest : public ::testing::Test {
 protected:
  BalancerTest() : system_(cluster_profile(4)), db_(&system_.metadb()),
                   predictor_(&db_) {
    predict::PTool ptool(system_, db_);
    predict::PToolConfig config;
    config.sizes = {64 << 10, 256 << 10, 1 << 20};
    config.repeats = 1;
    EXPECT_TRUE(ptool.measure_all(config).ok());
    system_.reset_time();  // quotes start from idle hardware
  }

  std::vector<ReplicaAddress> disk_candidates() const {
    return {{Location::kRemoteDisk, 0},
            {Location::kRemoteDisk, 1},
            {Location::kRemoteDisk, 2},
            {Location::kRemoteDisk, 3}};
  }

  StorageSystem system_;
  predict::PerfDb db_;
  predict::Predictor predictor_;
};

TEST_F(BalancerTest, CheapestQuoteAvoidsTheBusyServers) {
  // Servers 0-2 are saturated; server 3 is idle.
  for (int s = 0; s < 3; ++s) {
    system_.site(s).disk_resource().arm().reserve(0.0, 50.0);
  }
  EXPECT_GT(system_.balancer().observed_utilization({Location::kRemoteDisk, 0}),
            0.9);
  EXPECT_DOUBLE_EQ(
      system_.balancer().observed_utilization({Location::kRemoteDisk, 3}),
      0.0);
  const runtime::IoPlan plan =
      runtime::PlanBuilder::object_read("probe/object", 1 << 20);
  for (int round = 0; round < 4; ++round) {
    const auto chain =
        system_.balancer().order(plan, disk_candidates(), &predictor_);
    ASSERT_EQ(chain.size(), 4u);
    EXPECT_EQ(chain.front(), ReplicaAddress(Location::kRemoteDisk, 3))
        << "round " << round
        << ": the idle server must win every cheapest-quote round";
  }
}

TEST_F(BalancerTest, RoundRobinIsLoadBlind) {
  for (int s = 0; s < 3; ++s) {
    system_.site(s).disk_resource().arm().reserve(0.0, 50.0);
  }
  system_.balancer().set_policy(BalancerPolicy::kRoundRobin);
  const runtime::IoPlan plan =
      runtime::PlanBuilder::object_read("probe/object", 1 << 20);
  std::set<int> fronts;
  for (int round = 0; round < 4; ++round) {
    const auto chain =
        system_.balancer().order(plan, disk_candidates(), &predictor_);
    fronts.insert(chain.front().server);
  }
  // Blind rotation visits every server, busy or not.
  EXPECT_EQ(fronts.size(), 4u);
  system_.balancer().set_policy(BalancerPolicy::kCheapestQuote);
}

TEST_F(BalancerTest, StaticOrderAndSingleCandidatePassThrough) {
  system_.balancer().set_policy(BalancerPolicy::kStatic);
  const runtime::IoPlan plan =
      runtime::PlanBuilder::object_read("probe/object", 1 << 20);
  auto chain = system_.balancer().order(
      plan, {{Location::kRemoteTape, 1}, {Location::kLocalDisk, 0},
             {Location::kRemoteDisk, 2}, {Location::kRemoteDisk, 0}},
      &predictor_);
  const std::vector<ReplicaAddress> expected = {{Location::kLocalDisk, 0},
                                                {Location::kRemoteDisk, 0},
                                                {Location::kRemoteDisk, 2},
                                                {Location::kRemoteTape, 1}};
  EXPECT_EQ(chain, expected);
  system_.balancer().set_policy(BalancerPolicy::kCheapestQuote);
  // A single candidate is returned untouched (no quoting work).
  auto single = system_.balancer().order(
      plan, {{Location::kRemoteTape, 2}}, &predictor_);
  const std::vector<ReplicaAddress> one = {{Location::kRemoteTape, 2}};
  EXPECT_EQ(single, one);
}

TEST_F(BalancerTest, QuoteTableCoversEveryAddressAndPricesIdleCheapest) {
  system_.site(1).disk_resource().arm().reserve(0.0, 50.0);
  const auto table = system_.balancer().quote_table(1 << 20, &predictor_);
  // 1 local + 4 remote disk + 4 remote tape.
  ASSERT_EQ(table.size(), 9u);
  double busy_quote = -1.0, idle_quote = -1.0;
  for (const core::ServerQuote& quote : table) {
    EXPECT_TRUE(quote.available);
    EXPECT_GE(quote.seconds, 0.0) << core::address_name(quote.address);
    if (quote.address == ReplicaAddress(Location::kRemoteDisk, 1)) {
      busy_quote = quote.seconds;
    }
    if (quote.address == ReplicaAddress(Location::kRemoteDisk, 2)) {
      idle_quote = quote.seconds;
    }
  }
  // The load-inflated quote on the busy server prices it out.
  EXPECT_GT(busy_quote, idle_quote);
}

// ------------------------------------------------- server-down failover --

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest() : system_(cluster_profile(4)) {}
  StorageSystem system_;
};

TEST_F(FailoverTest, ReadsFailOverToTheSurvivingReplica) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 2});
  DatasetHandle* handle =
      write_dataset(session, small_dataset("temp", Location::kRemoteDisk), 1);
  const int home = core::shard_server("temp", Location::kRemoteDisk, 4);
  const int other = (home + 2) % 4;
  Timeline tl;
  ASSERT_TRUE(handle
                  ->replicate_timestep(0, {Location::kRemoteDisk, other},
                                       {.timeline = &tl})
                  .ok());
  // Take the home site down: reads must route to the surviving replica.
  system_.site(home).server().set_down(true);
  Timeline read_tl;
  auto bytes = handle->read_whole(0, {.timeline = &read_tl});
  ASSERT_TRUE(bytes.ok()) << bytes.status().to_string();
  EXPECT_EQ(bytes->size(), handle->desc().global_bytes());
  system_.site(home).server().set_down(false);
}

TEST_F(FailoverTest, LastReplicaDownExhaustsRetriesThenRecovers) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 2});
  DatasetHandle* handle =
      write_dataset(session, small_dataset("solo", Location::kRemoteDisk), 1);
  const int home = core::shard_server("solo", Location::kRemoteDisk, 4);
  system_.site(home).server().set_down(true);
  Timeline tl;
  const auto bytes = handle->read_whole(0, {.timeline = &tl});
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), ErrorCode::kUnavailable);
  // The retry loop walked its attempts before giving up.
  EXPECT_GT(
      system_.metrics().counter("session.read_failovers")->value(), 0u);
  system_.site(home).server().set_down(false);
  Timeline tl2;
  EXPECT_TRUE(handle->read_whole(0, {.timeline = &tl2}).ok());
}

TEST_F(FailoverTest, OutageMidRunCompletesEveryReadViaFailover) {
  // The TSan scenario: four tenants read in a loop while an operator takes
  // one site down and brings it back. Every dataset has a replica on a
  // second server, so no read may fail.
  constexpr int kClients = 4;
  constexpr int kReads = 12;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<DatasetHandle*> handles;
  std::vector<int> homes;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(
        std::make_unique<Client>("tenant" + std::to_string(c), system_));
    const std::string name = "fleet" + std::to_string(c);
    auto handle = clients.back()->open(
        small_dataset(name, Location::kRemoteDisk));
    ASSERT_TRUE(handle.ok());
    World world(1);
    world.run([&](Comm& comm) {
      auto layout = (*handle)->layout(1);
      std::vector<std::byte> block(layout->global_bytes(),
                                   std::byte{static_cast<unsigned char>(c)});
      ASSERT_TRUE((*handle)->write_timestep(comm, 0, block).ok());
    });
    const int home = core::shard_server(name, Location::kRemoteDisk, 4);
    Timeline tl;
    ASSERT_TRUE((*handle)
                    ->replicate_timestep(0,
                                         {Location::kRemoteDisk,
                                          (home + 1) % 4},
                                         {.timeline = &tl})
                    .ok());
    handles.push_back(*handle);
    homes.push_back(home);
  }
  const int victim = homes[0];
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kReads; ++i) {
        Timeline tl;
        const auto bytes = handles[static_cast<std::size_t>(c)]->read_whole(
            0, {.timeline = &tl});
        ASSERT_TRUE(bytes.ok())
            << "client " << c << " read " << i << ": "
            << bytes.status().to_string();
      }
    });
  }
  // Outage mid-run, then recovery — concurrent with the readers.
  system_.site(victim).server().set_down(true);
  std::this_thread::yield();
  system_.site(victim).server().set_down(false);
  for (auto& thread : threads) thread.join();
  // No client saw a failed read (asserted above); the victim is back up.
  EXPECT_TRUE(system_.endpoint({Location::kRemoteDisk, victim}).available());
}

// ------------------------------------------------------ rebalance pass --

class RebalanceTest : public ::testing::Test {
 protected:
  RebalanceTest() : system_(cluster_profile(4)), db_(&system_.metadb()),
                    predictor_(&db_) {
    predict::PTool ptool(system_, db_);
    predict::PToolConfig config;
    config.sizes = {64 << 10, 256 << 10, 1 << 20};
    config.repeats = 1;
    EXPECT_TRUE(ptool.measure_all(config).ok());
    system_.reset_time();
  }

  StorageSystem system_;
  predict::PerfDb db_;
  predict::Predictor predictor_;
};

TEST_F(RebalanceTest, RebalancePricesExactlyReadPlusWriteAndEvensServers) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 16});
  // 12 x 8 MiB dumps on one server: ~37% of its 256 MiB disk while the
  // other three sit empty — well past the 25% rebalance gap.
  DatasetDesc big = small_dataset("bulk", Location::kRemoteDisk);
  big.dims = {128, 128, 128};
  DatasetHandle* handle = write_dataset(session, big, 12);
  const int home = core::shard_server("bulk", Location::kRemoteDisk, 4);
  ASSERT_GT(system_.endpoint({Location::kRemoteDisk, home}).used(),
            system_.profile().remote_disk_capacity / 4);

  flow::MigrationConfig config;
  config.rebalance = true;
  flow::StagingScheduler stager(system_, predictor_);
  auto plan = stager.plan_migration(config);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_FALSE(plan->empty()) << "the skew must trigger a rebalance";
  for (const auto& step : *plan) {
    ASSERT_EQ(step.kind, flow::StageTaskKind::kRebalance);
    EXPECT_EQ(step.from, ReplicaAddress(Location::kRemoteDisk, home));
    EXPECT_EQ(step.to.location, Location::kRemoteDisk);
    EXPECT_NE(step.to.server, home);
    EXPECT_TRUE(step.drop_source) << "a rebalance moves, it does not copy";
    // Cross-server price equality: a rebalance bills exactly the
    // predictor's read@from + write@to, same as every other step.
    auto priced = stager.price_task(step);
    ASSERT_TRUE(priced.ok());
    auto read_cost = predictor_.price(
        runtime::PlanBuilder::object_read(step.path, step.bytes),
        step.from.location);
    auto write_cost = predictor_.price(
        runtime::PlanBuilder::object_write(step.path, step.bytes,
                                           srb::OpenMode::kOverwrite),
        step.to.location);
    ASSERT_TRUE(read_cost.ok());
    ASSERT_TRUE(write_cost.ok());
    EXPECT_DOUBLE_EQ(*priced, *read_cost + *write_cost);
  }

  MetaCatalog catalog(&system_.metadb());
  for (const auto& outcome : stager.execute(*plan)) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.to_string();
    // Each moved instance now lives on its new server only.
    auto record = catalog.instance(outcome.task.app, outcome.task.name,
                                   outcome.task.timestep);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->replicas,
              std::vector<ReplicaAddress>{outcome.task.to});
  }
  // The gap closed below the trigger: a second planning round is idle.
  auto second = stager.plan_migration(config);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->empty());
  // Moved instances still read back fine from their new home.
  const auto replicas = handle->replica_addresses(0);
  ASSERT_EQ(replicas.size(), 1u);
  Timeline tl;
  EXPECT_TRUE(handle->read_whole(0, {.timeline = &tl}).ok());
}

}  // namespace
}  // namespace msra
