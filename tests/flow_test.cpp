// The workflow layer: campaign DAG declaration, end-to-end pricing with
// cross-stage staleness, the unified StagingScheduler (prestage planning,
// pin/GC discipline, tracker seeding) and Fleet::submit_campaign.
//
// The determinism test reruns one campaign against two fresh systems and
// requires bit-identical per-stage virtual latencies — the same property
// BENCH_flow.json's byte-stable baseline relies on. The concurrent test
// races a campaign against migration rounds on one shared scheduler and
// doubles as the TSan stress for the mover's pin/catalog locking.
#include <gtest/gtest.h>

#include <thread>

#include "core/balancer.h"
#include "core/client.h"
#include "core/placement.h"
#include "core/session.h"
#include "flow/campaign.h"
#include "flow/pricer.h"
#include "flow/run.h"
#include "flow/stager.h"
#include "predict/ptool.h"
#include "qos/admission.h"

namespace msra::flow {
namespace {

using core::Client;
using core::DatasetDesc;
using core::ElementType;
using core::Fleet;
using core::HardwareProfile;
using core::Location;
using core::MetaCatalog;
using core::Session;
using core::StorageSystem;
using core::Workload;

DatasetDesc small_dataset(const std::string& name, Location location) {
  DatasetDesc desc;
  desc.name = name;
  desc.dims = {16, 16, 16};
  desc.etype = ElementType::kFloat32;
  desc.pattern = "BBB";
  desc.frequency = 1;
  desc.location = location;
  return desc;
}

// --------------------------------------------------------- campaign DAG --

TEST(CampaignDagTest, EdgesDeriveFromIntents) {
  Campaign campaign("astro");
  campaign.stage("sim", Workload()
                            .open(small_dataset("frame", Location::kRemoteDisk))
                            .dump("frame", 0)
                            .dump("frame", 1)
                            .finalize());
  campaign.stage("mse", Workload()
                            .open_existing("frame")
                            .read_whole("frame", 0)
                            .read_whole("frame", 1)
                            .finalize());
  campaign.stage("viz", Workload()
                            .open_existing("frame")
                            .read_whole("frame", 1)
                            .finalize());

  auto producers = campaign.producers();
  ASSERT_TRUE(producers.ok()) << producers.status().to_string();
  EXPECT_TRUE((*producers)[0].empty());
  EXPECT_EQ((*producers)[1], (std::vector<std::size_t>{0}));
  EXPECT_EQ((*producers)[2], (std::vector<std::size_t>{0}));

  auto waves = campaign.waves();
  ASSERT_TRUE(waves.ok());
  ASSERT_EQ(waves->size(), 2u);
  EXPECT_EQ((*waves)[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ((*waves)[1], (std::vector<std::size_t>{1, 2}));
}

TEST(CampaignDagTest, ReadBeforeProducerIsDeclarationError) {
  Campaign campaign("astro");
  campaign.stage("mse", Workload().open_existing("frame").read_whole("frame", 0));
  campaign.stage("sim", Workload()
                            .open(small_dataset("frame", Location::kRemoteDisk))
                            .dump("frame", 0));
  auto producers = campaign.producers();
  EXPECT_EQ(producers.status().code(), ErrorCode::kInvalidArgument);
}

TEST(CampaignDagTest, ExplicitAfterMustNameEarlierStage) {
  Campaign campaign("astro");
  campaign.stage("a", Workload().open(
      small_dataset("x", Location::kRemoteDisk)).dump("x", 0));
  campaign.stage("b", Workload().open(
      small_dataset("y", Location::kRemoteDisk)).dump("y", 0));
  campaign.after("a", "b");  // b is declared later: invalid
  EXPECT_EQ(campaign.producers().status().code(),
            ErrorCode::kInvalidArgument);

  Campaign ordered("astro2");
  ordered.stage("a", Workload().open(
      small_dataset("x", Location::kRemoteDisk)).dump("x", 0));
  ordered.stage("b", Workload().open(
      small_dataset("y", Location::kRemoteDisk)).dump("y", 0));
  ordered.after("b", "a");
  auto waves = ordered.waves();
  ASSERT_TRUE(waves.ok());
  EXPECT_EQ(waves->size(), 2u) << "explicit after() must serialize the dumps";
}

TEST(CampaignDagTest, PendingReadersCountsUndispatchedStages) {
  Campaign campaign("astro");
  campaign.stage("sim", Workload()
                            .open(small_dataset("frame", Location::kRemoteDisk))
                            .dump("frame", 0));
  campaign.stage("mse", Workload().open_existing("frame").read_whole("frame", 0));
  campaign.stage("viz", Workload().open_existing("frame").read_whole("frame", 0));
  const DatasetRef ref{"frame", 0};
  EXPECT_EQ(campaign.pending_readers(ref, {}), 2);
  EXPECT_EQ(campaign.pending_readers(ref, {true, true, false}), 1);
  EXPECT_EQ(campaign.pending_readers(ref, {true, true, true}), 0);
}

// -------------------------------------------------------------- fixture --

class FlowTest : public ::testing::Test {
 protected:
  FlowTest()
      : system_(HardwareProfile::test_profile()),
        db_(&system_.metadb()),
        predictor_(&db_) {
    predict::PTool ptool(system_, db_);
    predict::PToolConfig config;
    config.sizes = {64 << 10, 256 << 10, 1 << 20};
    config.repeats = 1;
    EXPECT_TRUE(ptool.measure_all(config).ok());
    system_.reset_time();
  }

  /// Registers and dumps `timesteps` of a dataset under application `app`.
  void seed_dataset(const std::string& app, const std::string& name,
                    Location location, int timesteps) {
    Session session(system_, {.application = app, .nprocs = 1, .iterations = 1});
    auto handle = session.open(small_dataset(name, location));
    ASSERT_TRUE(handle.ok()) << handle.status().to_string();
    auto layout = (*handle)->layout(1);
    ASSERT_TRUE(layout.ok());
    std::vector<std::byte> block(layout->global_bytes(), std::byte{0x2a});
    prt::World world(1);
    world.run([&](prt::Comm& comm) {
      for (int t = 0; t < timesteps; ++t) {
        ASSERT_TRUE((*handle)->write_timestep(comm, t, block).ok());
      }
    });
    ASSERT_TRUE(session.finalize().ok());
    system_.reset_time();
  }

  StorageSystem system_;
  predict::PerfDb db_;
  predict::Predictor predictor_;
};

// --------------------------------------------------------------- pricer --

TEST_F(FlowTest, PricerQuotesReadsAtProducerPlacement) {
  // Register (but do not dump) the dataset so the write leg has a resolved
  // placement — the campaign itself will produce the bytes.
  {
    Session session(system_, {.application = "astro"});
    ASSERT_TRUE(
        session.open(small_dataset("frame", Location::kRemoteDisk)).ok());
    ASSERT_TRUE(session.finalize().ok());
  }
  Campaign campaign("astro");
  campaign.stage("sim", Workload()
                            .open(small_dataset("frame", Location::kRemoteDisk))
                            .dump("frame", 0));
  campaign.stage("mse", Workload().open_existing("frame").read_whole("frame", 0));

  CampaignPricer pricer(system_, predictor_);
  auto price = pricer.price(campaign);
  ASSERT_TRUE(price.ok()) << price.status().to_string();
  ASSERT_EQ(price->stages.size(), 2u);

  const StagePriceRow& sim = price->stages[0];
  const StagePriceRow& mse = price->stages[1];
  ASSERT_EQ(sim.intents.size(), 1u);
  ASSERT_EQ(mse.intents.size(), 1u);
  EXPECT_EQ(sim.intents[0].note, "resolved placement");
  // Cross-stage staleness: mse's read quotes at where sim's output WILL
  // live, even though nothing has been dumped yet.
  EXPECT_EQ(mse.intents[0].note, "producer output");
  EXPECT_EQ(mse.intents[0].address.location, Location::kRemoteDisk);
  EXPECT_GT(sim.seconds, 0.0);
  EXPECT_GT(mse.seconds, 0.0);

  // Serial chain: mse starts when sim finishes; Eq. (2) total is the sum.
  EXPECT_DOUBLE_EQ(mse.start, sim.finish);
  EXPECT_DOUBLE_EQ(price->total, sim.seconds + mse.seconds);
  EXPECT_DOUBLE_EQ(price->makespan, mse.finish);
}

TEST_F(FlowTest, PricerQuotesExternalInputAtCheapestReplica) {
  seed_dataset("astro", "ref", Location::kRemoteTape, 1);
  Campaign campaign("astro");
  campaign.stage("mse", Workload().open_existing("ref").read_whole("ref", 0));
  CampaignPricer pricer(system_, predictor_);
  auto price = pricer.price(campaign);
  ASSERT_TRUE(price.ok()) << price.status().to_string();
  ASSERT_EQ(price->stages[0].intents.size(), 1u);
  EXPECT_EQ(price->stages[0].intents[0].note, "catalog replica");
  EXPECT_EQ(price->stages[0].intents[0].address.location,
            Location::kRemoteTape);
}

TEST_F(FlowTest, PricerWithStagerQuotesPrestagedPlacement) {
  seed_dataset("astro", "ref", Location::kRemoteTape, 1);
  Campaign campaign("astro");
  // Two declared readers make the tape->disk copy pay for itself.
  campaign.stage("mse", Workload().open_existing("ref").read_whole("ref", 0));
  campaign.stage("viz", Workload().open_existing("ref").read_whole("ref", 0));

  CampaignPricer pricer(system_, predictor_);
  auto static_price = pricer.price(campaign);
  ASSERT_TRUE(static_price.ok());

  StagingScheduler stager(system_, predictor_);
  auto planned_price = pricer.price(campaign, &stager);
  ASSERT_TRUE(planned_price.ok());
  ASSERT_EQ(planned_price->stages[0].intents.size(), 1u);
  EXPECT_EQ(planned_price->stages[0].intents[0].note, "prestaged");
  EXPECT_NE(planned_price->stages[0].intents[0].address.location,
            Location::kRemoteTape);
  // The quote reflects where the data WILL live: cheaper than tape.
  EXPECT_LT(planned_price->total, static_price->total);
}

// --------------------------------------------------------------- stager --

TEST_F(FlowTest, PrestagePlanCopiesTowardDeclaredConsumers) {
  seed_dataset("astro", "ref", Location::kRemoteTape, 1);
  Campaign campaign("astro");
  campaign.stage("mse", Workload().open_existing("ref").read_whole("ref", 0));
  campaign.stage("viz", Workload().open_existing("ref").read_whole("ref", 0));

  StagingScheduler stager(system_, predictor_);
  std::vector<StageTask> tasks = stager.plan_prestage(campaign, {});
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].kind, StageTaskKind::kPrestage);
  EXPECT_EQ(tasks[0].from.location, Location::kRemoteTape);
  EXPECT_NE(tasks[0].to.location, Location::kRemoteTape);
  EXPECT_GT(tasks[0].benefit, tasks[0].cost)
      << "a prestage must pay for itself across its declared readers";

  auto outcomes = stager.execute(tasks);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.to_string();
  EXPECT_GT(outcomes[0].finished_at, 0.0);

  MetaCatalog catalog(&system_.metadb());
  auto record = catalog.instance("astro", "ref", 0);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(record->on(tasks[0].to)) << "the staged replica must be live";
  auto count = system_.metrics().counter("flow.prestage.copies")->value();
  EXPECT_EQ(count, 1u);

  // Nothing left to plan: the input now sits on the fast tier.
  EXPECT_TRUE(stager.plan_prestage(campaign, {}).empty());
}

TEST_F(FlowTest, GcRefusesToDropReplicaNamedByUndispatchedStage) {
  seed_dataset("astro", "ref", Location::kRemoteTape, 1);
  Campaign campaign("astro");
  campaign.stage("mse", Workload().open_existing("ref").read_whole("ref", 0));
  campaign.stage("viz", Workload().open_existing("ref").read_whole("ref", 0));

  StagingScheduler stager(system_, predictor_);
  stager.pin_campaign(campaign);
  std::vector<StageTask> tasks = stager.plan_prestage(campaign, {});
  ASSERT_EQ(tasks.size(), 1u);
  auto outcomes = stager.execute(tasks);
  ASSERT_TRUE(outcomes[0].status.ok());

  // While any stage still names the input, GC plans nothing...
  EXPECT_TRUE(stager.plan_gc().empty());

  // ...and even a directly-submitted drop is refused (CASTOR's last-consumer
  // rule), with the refusal counted.
  StageTask drop;
  drop.kind = StageTaskKind::kGc;
  drop.app = "astro";
  drop.name = "ref";
  drop.timestep = 0;
  drop.from = tasks[0].to;
  drop.to = tasks[0].to;
  drop.path = tasks[0].path;
  drop.bytes = tasks[0].bytes;
  drop.drop_source = true;
  auto refused = stager.execute({drop});
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(refused[0].status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_GE(system_.metrics().counter("flow.gc.refused")->value(), 1u);
  MetaCatalog catalog(&system_.metadb());
  auto record = catalog.instance("astro", "ref", 0);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(record->on(tasks[0].to)) << "refused drop must keep the replica";

  // After the last consumer dispatches, GC drops the staged copy.
  stager.release_stage(campaign, 0);
  stager.release_stage(campaign, 1);
  std::vector<StageTask> gc = stager.plan_gc();
  ASSERT_EQ(gc.size(), 1u);
  EXPECT_EQ(gc[0].kind, StageTaskKind::kGc);
  auto dropped = stager.execute(gc);
  ASSERT_TRUE(dropped[0].status.ok()) << dropped[0].status.to_string();
  record = catalog.instance("astro", "ref", 0);
  ASSERT_TRUE(record.ok());
  EXPECT_FALSE(record->on(gc[0].from));
  EXPECT_TRUE(record->on_location(Location::kRemoteTape))
      << "the archival replica survives GC";
  EXPECT_GE(system_.metrics().counter("flow.gc.dropped")->value(), 1u);
  EXPECT_GE(system_.metrics().counter("flow.gc.unlinks")->value(), 1u);
}

TEST_F(FlowTest, CampaignDeclarationsSeedTrackerHeat) {
  seed_dataset("astro", "ref", Location::kRemoteTape, 1);
  Campaign campaign("astro");
  campaign.stage("mse", Workload().open_existing("ref").read_whole("ref", 0));
  campaign.stage("viz", Workload().open_existing("ref").read_whole("ref", 0));

  migrate::AccessTracker& tracker = system_.access_tracker();
  const double before = tracker.heat("astro/ref").anticipated_reads();

  StagingScheduler stager(system_, predictor_);
  stager.pin_campaign(campaign);
  migrate::DatasetHeat pinned = tracker.heat("astro/ref");
  EXPECT_DOUBLE_EQ(pinned.expected_reads, 2.0);
  EXPECT_DOUBLE_EQ(pinned.anticipated_reads(), before + 2.0)
      << "declared future readers must register as expected reuse";

  stager.release_stage(campaign, 0);
  EXPECT_DOUBLE_EQ(tracker.heat("astro/ref").expected_reads, 1.0);
  stager.release_stage(campaign, 1);
  EXPECT_DOUBLE_EQ(tracker.heat("astro/ref").expected_reads, 0.0);
  EXPECT_DOUBLE_EQ(tracker.heat("astro/ref").decayed_reads,
                   tracker.heat("astro/ref").anticipated_reads())
      << "withdrawn declarations must leave observed heat untouched";
}

// ------------------------------------------------------ submit_campaign --

TEST_F(FlowTest, SubmitCampaignRunsWavesInDependencyOrder) {
  Campaign campaign("astro");
  campaign.stage("sim", Workload()
                            .open(small_dataset("frame", Location::kRemoteDisk))
                            .dump("frame", 0)
                            .finalize());
  campaign.stage("mse", Workload()
                            .open_existing("frame")
                            .read_whole("frame", 0)
                            .finalize());

  Fleet fleet(system_);
  auto report = fleet.submit_campaign(campaign);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report->ok());
  ASSERT_EQ(report->stages.size(), 2u);
  EXPECT_DOUBLE_EQ(report->stages[0].started_at, 0.0);
  EXPECT_GE(report->stages[1].started_at, report->stages[0].finished_at)
      << "a consumer must not start before its producer finishes";
  EXPECT_DOUBLE_EQ(report->makespan, report->stages[1].finished_at);
  EXPECT_TRUE(report->staging.empty()) << "no stager: pure wave dispatch";
  EXPECT_EQ(system_.metrics().counter("flow.campaigns")->value(), 1u);
}

/// Runs a sim -> mse -> viz campaign over tape-resident `ref`, staged by
/// `stager` (null: pure wave dispatch), and returns its makespan.
double campaign_makespan(StorageSystem& system,
                         const predict::Predictor& predictor,
                         StagingScheduler* stager,
                         std::vector<double>* latencies) {
  Campaign campaign("astro");
  campaign.stage("sim", Workload()
                            .open(small_dataset("frame", Location::kRemoteDisk))
                            .dump("frame", 0)
                            .dump("frame", 1)
                            .finalize());
  campaign.stage("mse", Workload()
                            .open_existing("frame")
                            .open_existing("ref")
                            .read_whole("frame", 0)
                            .read_whole("frame", 1)
                            .read_whole("ref", 0)
                            .finalize());
  // Second declared reader of the tape-resident input: the prestage copy
  // must pay for itself across the declared future reads.
  campaign.stage("viz", Workload()
                            .open_existing("ref")
                            .read_whole("ref", 0)
                            .finalize());
  campaign.after("viz", "mse");
  Fleet fleet(system);
  CampaignOptions options;
  options.predictor = &predictor;
  options.stager = stager;
  auto report = fleet.submit_campaign(campaign, options);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report->ok());
  if (latencies != nullptr) {
    for (const StageResult& stage : report->stages) {
      latencies->push_back(stage.latency());
    }
  }
  if (stager != nullptr) {
    bool prestaged = false;
    for (const StageOutcome& outcome : report->staging) {
      if (outcome.task.kind == StageTaskKind::kPrestage && outcome.status.ok()) {
        prestaged = true;
      }
    }
    EXPECT_TRUE(prestaged) << "the tape-resident input must have been staged";
  }
  return report->makespan;
}

TEST_F(FlowTest, PlannedStagingBeatsStaticPlacement) {
  // The external input lives on tape; the sim stage gives the mover a
  // window to stage it toward the consumer before mse dispatches.
  seed_dataset("astro", "ref", Location::kRemoteTape, 1);
  const double static_makespan =
      campaign_makespan(system_, predictor_, /*stager=*/nullptr, nullptr);
  system_.reset_time();
  StagingScheduler stager(system_, predictor_);
  const double planned_makespan =
      campaign_makespan(system_, predictor_, &stager, nullptr);
  EXPECT_LT(planned_makespan, static_makespan)
      << "staging the tape input toward its consumer must shorten the "
         "campaign";
}

TEST_F(FlowTest, CampaignRerunIsBitIdentical) {
  auto run = [](std::vector<double>* latencies) {
    StorageSystem system(HardwareProfile::test_profile());
    predict::PerfDb db(&system.metadb());
    predict::Predictor predictor(&db);
    predict::PTool ptool(system, db);
    predict::PToolConfig config;
    config.sizes = {64 << 10, 256 << 10, 1 << 20};
    config.repeats = 1;
    ASSERT_TRUE(ptool.measure_all(config).ok());
    system.reset_time();
    {
      Session session(system, {.application = "astro"});
      auto handle = session.open(small_dataset("ref", Location::kRemoteTape));
      ASSERT_TRUE(handle.ok());
      std::vector<std::byte> block((*handle)->desc().global_bytes(),
                                   std::byte{0x2a});
      prt::World world(1);
      world.run([&](prt::Comm& comm) {
        ASSERT_TRUE((*handle)->write_timestep(comm, 0, block).ok());
      });
      ASSERT_TRUE(session.finalize().ok());
    }
    system.reset_time();
    StagingScheduler stager(system, predictor);
    campaign_makespan(system, predictor, &stager, latencies);
  };
  std::vector<double> first, second;
  run(&first);
  run(&second);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i])
        << "stage " << i << " latency must replay bit-identically";
  }
}

TEST_F(FlowTest, ConcurrentCampaignsAndMigrationPressure) {
  // A campaign and migration rounds race on one scheduler over one shared
  // system: the mover's pin registry, catalog commits and the fleet's
  // shared devices are all exercised from two host threads (the TSan
  // target).
  seed_dataset("astro", "ref", Location::kRemoteTape, 1);
  seed_dataset("astro", "cold", Location::kRemoteDisk, 2);

  StagingScheduler stager(system_, predictor_);
  std::thread migrator([&] {
    for (int round = 0; round < 3; ++round) {
      auto tasks = stager.plan_migration({});
      ASSERT_TRUE(tasks.ok()) << tasks.status().to_string();
      stager.execute(*tasks);
    }
  });
  std::thread runner(
      [&] { campaign_makespan(system_, predictor_, &stager, nullptr); });
  migrator.join();
  runner.join();
}

// A heat- or pressure-driven drop checks the same pins as a campaign's GC:
// a replica an undispatched stage still reads stays put under pressure.
TEST_F(FlowTest, MigrationRefusesToDemotePinnedReplica) {
  seed_dataset("astro", "ref", Location::kLocalDisk, 1);
  Campaign campaign("astro");
  campaign.stage("mse", Workload().open_existing("ref").read_whole("ref", 0));
  StagingScheduler stager(system_, predictor_);
  stager.pin_campaign(campaign);

  // Local disk over the watermark: `ref`, its only resident, must demote.
  runtime::StorageEndpoint& local = system_.endpoint(Location::kLocalDisk);
  const double capacity = static_cast<double>(local.capacity());
  const double used = static_cast<double>(local.used());
  MigrationConfig config;
  config.pressure_watermark = (used - 1.0) / capacity;
  config.target_watermark = 0.0;
  auto tasks = stager.plan_migration(config);
  ASSERT_TRUE(tasks.ok()) << tasks.status().to_string();
  ASSERT_EQ(tasks->size(), 1u);
  EXPECT_EQ(tasks->front().kind, StageTaskKind::kDemote);

  std::vector<StageOutcome> outcomes = stager.execute(*tasks);
  EXPECT_EQ(outcomes.front().status.code(), ErrorCode::kFailedPrecondition)
      << outcomes.front().status.to_string();
  EXPECT_EQ(system_.metrics().counter("flow.gc.refused")->value(), 1u);
  MetaCatalog catalog(&system_.metadb());
  auto record = catalog.instance("astro", "ref", 0);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(record->on(Location::kLocalDisk));
  simkit::Timeline probe;
  EXPECT_TRUE(local.size(probe, record->path).ok())
      << "the pinned replica's payload must stay on disk";
}

}  // namespace
}  // namespace msra::flow
