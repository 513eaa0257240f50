// Heat- and pressure-driven migration: access tracking, the mover's
// predictor-priced migration planner (flow::StagingScheduler::
// plan_migration) and its execution, replica catalogs and the
// deferred-unlink safety net that lets readers survive a concurrent
// demotion.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "core/placement.h"
#include "core/session.h"
#include "flow/stager.h"
#include "meta/database.h"
#include "obs/report.h"
#include "predict/ptool.h"
#include "runtime/plan.h"

namespace msra::migrate {
namespace {

using core::HardwareProfile;
using core::InstanceRecord;
using core::Location;
using core::MetaCatalog;
using core::Session;
using core::StorageSystem;
using flow::MigrationConfig;
using flow::StageOutcome;
using flow::StageTask;
using flow::StageTaskKind;
using flow::StagingScheduler;
using prt::Comm;
using prt::World;

core::DatasetDesc small_dataset(const std::string& name, Location location) {
  core::DatasetDesc desc;
  desc.name = name;
  desc.dims = {16, 16, 16};
  desc.etype = core::ElementType::kFloat32;
  desc.pattern = "BBB";
  desc.frequency = 1;
  desc.location = location;
  return desc;
}

class MigrateTest : public ::testing::Test {
 protected:
  MigrateTest()
      : system_(HardwareProfile::test_profile()),
        db_(&system_.metadb()),
        predictor_(&db_) {
    predict::PTool ptool(system_, db_);
    predict::PToolConfig config;
    config.sizes = {64 << 10, 256 << 10, 1 << 20};
    config.repeats = 1;
    EXPECT_TRUE(ptool.measure_all(config).ok());
  }

  /// Dumps `timesteps` timesteps of a fresh dataset and returns its handle.
  core::DatasetHandle* write_dataset(Session& session, const std::string& name,
                                     Location location, int timesteps) {
    auto handle = session.open(small_dataset(name, location));
    EXPECT_TRUE(handle.ok()) << handle.status().to_string();
    auto layout = (*handle)->layout(1);
    EXPECT_TRUE(layout.ok());
    std::vector<std::byte> block(layout->global_bytes(), std::byte{0x2a});
    World world(1);
    world.run([&](Comm& comm) {
      for (int t = 0; t < timesteps; ++t) {
        ASSERT_TRUE((*handle)->write_timestep(comm, t, block).ok());
      }
    });
    return *handle;
  }

  StorageSystem system_;
  predict::PerfDb db_;
  predict::Predictor predictor_;
};

// ------------------------------------------------------------- tracking --

TEST_F(MigrateTest, TrackerSeesSessionTraffic) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 2});
  auto* handle = write_dataset(session, "hot", Location::kRemoteDisk, 1);
  simkit::Timeline tl;
  ASSERT_TRUE(handle->read_whole(0, {.timeline = &tl}).ok());
  ASSERT_TRUE(handle->read_whole(0, {.timeline = &tl}).ok());

  const DatasetHeat heat = system_.access_tracker().heat("astro/hot");
  EXPECT_EQ(heat.writes, 1u);
  EXPECT_EQ(heat.reads, 2u);
  EXPECT_GT(heat.read_bytes, 0u);
  EXPECT_EQ(system_.access_tracker().hottest().front().first, "astro/hot");
}

// -------------------------------------------------- promotion (tentpole) --

// Acceptance: promoting a hot tape-resident dataset measurably reduces both
// the predicted and the executed read time.
TEST_F(MigrateTest, HotTapePromotionReducesReadTime) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 2, .predictor = &predictor_});
  auto* handle = write_dataset(session, "hot", Location::kRemoteTape, 1);

  // Reads feed the tracker; the last timeline is the pre-migration cost.
  double before_seconds = 0.0;
  for (int i = 0; i < 4; ++i) {
    simkit::Timeline tl;
    ASSERT_TRUE(handle->read_whole(0, {.timeline = &tl}).ok());
    before_seconds = tl.now();
  }

  StagingScheduler stager(system_, predictor_);
  auto plan = stager.plan_migration({});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 1u);
  const StageTask& step = plan->front();
  EXPECT_EQ(step.kind, StageTaskKind::kPromote);
  EXPECT_EQ(step.from, Location::kRemoteTape);
  EXPECT_EQ(step.to, Location::kLocalDisk);
  EXPECT_FALSE(step.drop_source) << "promotion must keep the archive copy";
  EXPECT_GT(step.benefit, step.cost);

  // Predicted: the destination read is cheaper than today's cheapest.
  const auto read_plan = runtime::PlanBuilder::object_read(step.path, step.bytes);
  auto tape_price = predictor_.price(read_plan, Location::kRemoteTape);
  auto local_price = predictor_.price(read_plan, Location::kLocalDisk);
  ASSERT_TRUE(tape_price.ok());
  ASSERT_TRUE(local_price.ok());
  EXPECT_LT(*local_price, *tape_price);

  std::vector<StageOutcome> report = stager.execute(*plan);
  ASSERT_TRUE(report.front().status.ok()) << report.front().status.to_string();

  // The replica set grew; the session now reads the promoted copy faster.
  auto record = session.catalog().instance("astro", "hot", 0);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(record->on(Location::kLocalDisk));
  EXPECT_TRUE(record->on(Location::kRemoteTape));
  simkit::Timeline after;
  auto data = handle->read_whole(0, {.timeline = &after});
  ASSERT_TRUE(data.ok());
  EXPECT_LT(after.now(), before_seconds);

  // Stable state: a second round has nothing left to improve.
  auto again = stager.plan_migration({});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());
}

// Acceptance: the mover's reported cost is the predictor's price of the
// very same whole-object plans — exact double equality, no slack.
TEST_F(MigrateTest, EngineCostEqualsPredictorPriceExactly) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 1});
  write_dataset(session, "ds", Location::kRemoteTape, 1);
  auto record = session.catalog().instance("astro", "ds", 0);
  ASSERT_TRUE(record.ok());

  StageTask step;
  step.kind = StageTaskKind::kPromote;
  step.app = "astro";
  step.name = "ds";
  step.timestep = 0;
  step.from = Location::kRemoteTape;
  step.to = Location::kLocalDisk;
  step.path = record->path;
  step.bytes = record->bytes;

  StagingScheduler stager(system_, predictor_);
  std::vector<StageOutcome> report = stager.execute({step});
  ASSERT_TRUE(report.front().status.ok());

  auto read_price = predictor_.price(
      runtime::PlanBuilder::object_read(step.path, step.bytes), step.from.location);
  auto write_price = predictor_.price(
      runtime::PlanBuilder::object_write(step.path, step.bytes,
                                         srb::OpenMode::kOverwrite),
      step.to.location);
  ASSERT_TRUE(read_price.ok());
  ASSERT_TRUE(write_price.ok());
  EXPECT_EQ(report.front().priced_cost, *read_price + *write_price);
  auto planner_price = stager.price_task(step);
  ASSERT_TRUE(planner_price.ok());
  EXPECT_EQ(report.front().priced_cost, *planner_price);
}

// --------------------------------------------------- pressure / eviction --

TEST_F(MigrateTest, PressureDemotesColdestToTape) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 1});
  write_dataset(session, "cold", Location::kLocalDisk, 1);
  auto* warm = write_dataset(session, "warm", Location::kLocalDisk, 1);
  simkit::Timeline tl;
  ASSERT_TRUE(warm->read_whole(0, {.timeline = &tl}).ok());
  ASSERT_TRUE(warm->read_whole(0, {.timeline = &tl}).ok());

  auto cold = session.catalog().instance("astro", "cold", 0);
  ASSERT_TRUE(cold.ok());

  // Squeeze the watermarks around the real usage so exactly one instance
  // must leave (the ptool probes left untracked bytes behind, so derive the
  // thresholds from the live gauge instead of hard-coding them).
  runtime::StorageEndpoint& local = system_.endpoint(Location::kLocalDisk);
  const double capacity = static_cast<double>(local.capacity());
  const double used = static_cast<double>(local.used());
  MigrationConfig config;
  config.pressure_watermark = (used - 1.0) / capacity;
  config.target_watermark =
      (used - 0.5 * static_cast<double>(cold->bytes)) / capacity;

  StagingScheduler stager(system_, predictor_);
  auto plan = stager.plan_migration(config);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 1u);
  const StageTask& step = plan->front();
  EXPECT_EQ(step.kind, StageTaskKind::kDemote) << step.label();
  EXPECT_EQ(step.name, "cold") << "coldest resident must go first";
  EXPECT_EQ(step.to, Location::kRemoteTape);
  EXPECT_TRUE(step.drop_source);

  std::vector<StageOutcome> report = stager.execute(*plan);
  ASSERT_TRUE(report.front().status.ok()) << report.front().status.to_string();
  auto record = session.catalog().instance("astro", "cold", 0);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->replicas, std::vector<core::ReplicaAddress>{Location::kRemoteTape});
  // The demoted payload is gone from disk but still readable from tape.
  simkit::Timeline tl2;
  EXPECT_FALSE(local.size(tl2, record->path).ok());
  EXPECT_TRUE(warm->read_whole(0, {.timeline = &tl2}).ok());
}

// Acceptance: eviction never drops the last live replica, even when a stale
// plan asks for it.
TEST_F(MigrateTest, EvictionNeverDropsLastLiveReplica) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 1});
  write_dataset(session, "solo", Location::kLocalDisk, 1);
  auto record = session.catalog().instance("astro", "solo", 0);
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record->replicas.size(), 1u);

  StageTask step;
  step.kind = StageTaskKind::kEvict;
  step.app = "astro";
  step.name = "solo";
  step.timestep = 0;
  step.from = Location::kLocalDisk;
  step.to = Location::kLocalDisk;
  step.path = record->path;
  step.bytes = record->bytes;
  step.drop_source = true;

  StagingScheduler stager(system_, predictor_);
  std::vector<StageOutcome> report = stager.execute({step});
  EXPECT_EQ(report.front().status.code(), ErrorCode::kPermissionDenied);

  // Catalog and payload are untouched.
  auto after = session.catalog().instance("astro", "solo", 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->replicas, record->replicas);
  simkit::Timeline probe;
  EXPECT_TRUE(
      system_.endpoint(Location::kLocalDisk).size(probe, record->path).ok());

  // Same refusal when the "other" replica exists but its resource is down:
  // live replicas are what counts, not catalog rows.
  ASSERT_TRUE(session.catalog()
                  .add_replica("astro", "solo", 0, Location::kRemoteDisk)
                  .ok());
  system_.set_location_available(Location::kRemoteDisk, false);
  report = stager.execute({step});
  EXPECT_EQ(report.front().status.code(), ErrorCode::kPermissionDenied);
  system_.set_location_available(Location::kRemoteDisk, true);
}

// ------------------------------------------------------------- throttle --

TEST_F(MigrateTest, ThrottleStretchesExecutedTime) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 1});
  write_dataset(session, "bulk", Location::kRemoteTape, 1);
  auto record = session.catalog().instance("astro", "bulk", 0);
  ASSERT_TRUE(record.ok());

  flow::StagingConfig config;
  config.throttle_bytes_per_sec = 1024;  // 16 KiB payload -> >= 16 s floor
  StageTask step;
  step.kind = StageTaskKind::kPromote;
  step.app = "astro";
  step.name = "bulk";
  step.timestep = 0;
  step.from = Location::kRemoteTape;
  step.to = Location::kLocalDisk;
  step.path = record->path;
  step.bytes = record->bytes;

  StagingScheduler stager(system_, predictor_, config);
  std::vector<StageOutcome> report = stager.execute({step});
  const StageOutcome& outcome = report.front();
  ASSERT_TRUE(outcome.status.ok());
  const double floor_seconds =
      static_cast<double>(step.bytes) / 1024.0;
  EXPECT_GE(outcome.executed_seconds, floor_seconds);
  EXPECT_GT(outcome.throttle_wait, 0.0);

  // Mover billing lives under io.flow.* op names outside the Eq.-1
  // primitive set, so the per-resource breakdown is unaffected.
  for (const auto& row : obs::io_breakdown(system_.metrics())) {
    EXPECT_NE(row.resource, "io.flow");
  }
}

// ------------------------------------- concurrent reader vs demotion race --

// A reader holding an open file session while the mover demotes (and
// unlinks) the same object must still read valid bytes: the resources defer
// the physical unlink until the last handle closes. Runs under TSan in CI.
TEST_F(MigrateTest, ReaderSurvivesConcurrentDemotion) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 1});
  write_dataset(session, "racy", Location::kLocalDisk, 1);
  auto record = session.catalog().instance("astro", "racy", 0);
  ASSERT_TRUE(record.ok());
  const std::string path = record->path;
  const std::uint64_t bytes = record->bytes;

  runtime::StorageEndpoint& local = system_.endpoint(Location::kLocalDisk);
  simkit::Timeline reader_tl;
  auto reader = runtime::FileSession::start(local, reader_tl, path,
                                            srb::OpenMode::kRead);
  ASSERT_TRUE(reader.ok());

  StageTask step;
  step.kind = StageTaskKind::kDemote;
  step.app = "astro";
  step.name = "racy";
  step.timestep = 0;
  step.from = Location::kLocalDisk;
  step.to = Location::kRemoteTape;
  step.path = path;
  step.bytes = bytes;
  step.drop_source = true;

  StagingScheduler stager(system_, predictor_);
  std::vector<std::byte> seen(bytes);
  std::thread reading([&] {
    ASSERT_TRUE(reader->read(std::span<std::byte>(seen).first(bytes / 2)).ok());
    std::this_thread::yield();
    ASSERT_TRUE(reader->read(std::span<std::byte>(seen).subspan(bytes / 2)).ok());
  });
  std::vector<StageOutcome> report = stager.execute({step});
  reading.join();
  ASSERT_TRUE(report.front().status.ok()) << report.front().status.to_string();

  EXPECT_EQ(seen, std::vector<std::byte>(bytes, std::byte{0x2a}));
  auto after = session.catalog().instance("astro", "racy", 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->replicas, std::vector<core::ReplicaAddress>{Location::kRemoteTape});

  // Closing the last handle completes the deferred unlink.
  ASSERT_TRUE(reader->finish().ok());
  EXPECT_FALSE(local.size(reader_tl, path).ok());

  // The instance never went missing: it still reads fine (from tape now).
  Session consumer(system_, {.application = "viewer", .nprocs = 1});
  auto handle = consumer.open_existing("racy");
  ASSERT_TRUE(handle.ok());
  simkit::Timeline tl;
  auto data = (*handle)->read_whole(0, {.timeline = &tl});
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, seen);
}

// POSIX-style deferred unlink at the resource level: the name disappears
// immediately, the bytes only with the last close.
TEST_F(MigrateTest, DeferredUnlinkKeepsBytesUntilLastClose) {
  runtime::StorageEndpoint& local = system_.endpoint(Location::kLocalDisk);
  simkit::Timeline tl;
  const std::string path = "unlink/probe";
  std::vector<std::byte> payload(4096, std::byte{0x7e});
  {
    auto writer = runtime::FileSession::start(local, tl, path,
                                              srb::OpenMode::kOverwrite);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->write(payload).ok());
    ASSERT_TRUE(writer->finish().ok());
  }
  auto reader =
      runtime::FileSession::start(local, tl, path, srb::OpenMode::kRead);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(local.remove(tl, path).ok());

  // Unlinked name: new opens fail, the open handle still reads.
  EXPECT_EQ(runtime::FileSession::start(local, tl, path, srb::OpenMode::kRead)
                .status()
                .code(),
            ErrorCode::kNotFound);
  std::vector<std::byte> seen(payload.size());
  EXPECT_TRUE(reader->read(seen).ok());
  EXPECT_EQ(seen, payload);
  ASSERT_TRUE(reader->finish().ok());
  EXPECT_FALSE(local.size(tl, path).ok());
}

// ------------------------------------------------- replica selection ------

TEST_F(MigrateTest, ReadsFailOverToLiveReplica) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 1, .predictor = &predictor_});
  auto* handle = write_dataset(session, "dual", Location::kLocalDisk, 1);
  simkit::Timeline tl;
  ASSERT_TRUE(handle->replicate_timestep(0, Location::kRemoteTape, {.timeline = &tl}).ok());

  system_.set_location_available(Location::kLocalDisk, false);
  simkit::Timeline tl2;
  auto data = handle->read_whole(0, {.timeline = &tl2});
  ASSERT_TRUE(data.ok()) << "reads must fall back to the surviving replica";
  system_.set_location_available(Location::kLocalDisk, true);
}

// -------------------------------------------------- catalog persistence --

class CatalogFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("msra_migrate_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::filesystem::path root_;
};

TEST_F(CatalogFormatTest, MultiReplicaRecordsRoundTrip) {
  {
    StorageSystem system(HardwareProfile::test_profile(), root_);
    MetaCatalog catalog(&system.metadb());
    InstanceRecord record;
    record.dataset_key = "app/ds";
    record.timestep = 3;
    record.replicas = {Location::kRemoteTape, Location::kLocalDisk};
    record.path = "app/ds/t3";
    record.bytes = 4096;
    ASSERT_TRUE(catalog.record_instance(record).ok());
    ASSERT_TRUE(
        catalog.add_replica("app", "ds", 3, Location::kRemoteDisk).ok());
    ASSERT_TRUE(system.save_metadata().ok());
  }
  StorageSystem system(HardwareProfile::test_profile(), root_);
  MetaCatalog catalog(&system.metadb());
  auto record = catalog.instance("app", "ds", 3);
  ASSERT_TRUE(record.ok());
  const std::vector<core::ReplicaAddress> expected = {
      Location::kRemoteTape, Location::kLocalDisk, Location::kRemoteDisk};
  EXPECT_EQ(record->replicas, expected) << "replica order must persist";
  EXPECT_EQ(record->primary(), Location::kRemoteTape);
  EXPECT_EQ(record->bytes, 4096u);
}

// A catalog written by the pre-replica format (one row per replica, a
// single `location` column) upgrades in place on open. The v1 file is
// written through a bare Database, as an old build left it: a
// StorageSystem opens its catalog (and the v2 table) at construction.
TEST_F(CatalogFormatTest, OldFormatCatalogLoads) {
  {
    meta::Database db;
    auto table = db.open_table(
        "instances",
        meta::Schema{{"dataset_key", meta::ColumnType::kText},
                     {"timestep", meta::ColumnType::kInt},
                     {"location", meta::ColumnType::kText},
                     {"path", meta::ColumnType::kText},
                     {"bytes", meta::ColumnType::kInt}});
    ASSERT_TRUE(table.ok());
    using meta::Value;
    ASSERT_TRUE((*table)
                    ->insert({Value{"app/ds"}, Value{std::int64_t{0}},
                              Value{"REMOTETAPE"}, Value{"app/ds/t0"},
                              Value{std::int64_t{1024}}})
                    .ok());
    // Replication in the old format: a second row for the same timestep.
    ASSERT_TRUE((*table)
                    ->insert({Value{"app/ds"}, Value{std::int64_t{0}},
                              Value{"LOCALDISK"}, Value{"app/ds/t0"},
                              Value{std::int64_t{1024}}})
                    .ok());
    ASSERT_TRUE((*table)
                    ->insert({Value{"app/other"}, Value{std::int64_t{7}},
                              Value{"REMOTEDISK"}, Value{"app/other/t7"},
                              Value{std::int64_t{2048}}})
                    .ok());
    std::filesystem::create_directories(root_);
    ASSERT_TRUE(db.save(root_ / "meta.db").ok());
  }
  StorageSystem system(HardwareProfile::test_profile(), root_);
  MetaCatalog catalog(&system.metadb());

  auto merged = catalog.instance("app", "ds", 0);
  ASSERT_TRUE(merged.ok());
  const std::vector<core::ReplicaAddress> expected = {Location::kRemoteTape,
                                                      Location::kLocalDisk};
  EXPECT_EQ(merged->replicas, expected)
      << "v1 rows of one timestep must merge into one replica set";
  EXPECT_EQ(merged->primary(), Location::kRemoteTape);

  auto other = catalog.instance("app", "other", 7);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->replicas, std::vector<core::ReplicaAddress>{Location::kRemoteDisk});
  EXPECT_EQ(other->bytes, 2048u);
  EXPECT_EQ(catalog.all_instances().size(), 2u);
}

// Every catalog lookup reads an index, so its cost does not grow with the
// rows the catalog holds. 50k datasets with one instance each register and
// resolve in about a second in an optimized build; a scan per lookup makes
// this quadratic (minutes). The bound leaves room for sanitizer builds.
TEST(CatalogScaleTest, LookupCostStaysFlatInCatalogSize) {
  const auto began = std::chrono::steady_clock::now();
  meta::Database db;
  MetaCatalog catalog(&db);
  constexpr int kDatasets = 50000;
  auto name_of = [](int i) {
    std::string name("ckpt");
    name += std::to_string(i);
    return name;
  };
  core::DatasetDesc desc;
  desc.dims = {8, 8, 8};
  desc.location = Location::kLocalDisk;
  for (int i = 0; i < kDatasets; ++i) {
    desc.name = name_of(i);
    ASSERT_TRUE(catalog.register_dataset("fleet", desc, Location::kLocalDisk).ok());
    InstanceRecord record;
    record.dataset_key = MetaCatalog::dataset_key("fleet", desc.name);
    record.replicas = {Location::kLocalDisk};
    record.path = record.dataset_key;
    record.bytes = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(catalog.record_instance(record).ok());
  }
  for (int i = 0; i < kDatasets; ++i) {
    const std::string name = name_of(i);
    auto dataset = catalog.find_dataset(name);
    ASSERT_TRUE(dataset.ok()) << name;
    EXPECT_EQ(dataset->desc.name, name);
    auto instance = catalog.instance("fleet", name, 0);
    ASSERT_TRUE(instance.ok()) << name;
    EXPECT_EQ(instance->bytes, static_cast<std::uint64_t>(i));
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - began)
                             .count();
  EXPECT_LT(seconds, 10.0);
}

// ------------------------------------------------- ordered candidates ----

TEST(OrderedCandidatesTest, SharedPreferenceOrder) {
  using core::ordered_candidates;
  const std::vector<Location> from_local = {
      Location::kLocalDisk, Location::kRemoteDisk, Location::kRemoteTape};
  EXPECT_EQ(ordered_candidates(Location::kLocalDisk), from_local);
  const std::vector<Location> from_tape = {
      Location::kRemoteTape, Location::kRemoteDisk, Location::kLocalDisk};
  EXPECT_EQ(ordered_candidates(Location::kRemoteTape), from_tape);
  EXPECT_EQ(ordered_candidates(Location::kAuto), from_tape);
  EXPECT_TRUE(ordered_candidates(Location::kDisable).empty());

  // failover_chain stays the tail of the same order.
  for (Location preferred : core::kConcreteLocations) {
    const auto candidates = ordered_candidates(preferred);
    const auto chain = core::PlacementPolicy::failover_chain(preferred);
    ASSERT_EQ(chain.size(), candidates.size() - 1);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      EXPECT_EQ(chain[i], candidates[i + 1]);
    }
  }
}

}  // namespace
}  // namespace msra::migrate
