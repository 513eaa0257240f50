// Migration engine — hot-data promotion speedup and throttle overhead.
//
// The paper's section 6 names automatic storage-resource selection as the
// natural extension of the prediction work: "the system can automatically
// decide which storage resources should be used according to the capacity
// and performance of each storage resource." This bench exercises that
// loop end to end on the calibrated testbed:
//
//   1. A producer archives a dataset to remote tape; a consumer reads it
//      repeatedly (feeding the access tracker).
//   2. The migration engine prices promotion candidates with the
//      predictor (benefit = heat x future read savings, cost = the priced
//      copy itself) and promotes the hot timesteps to local disk.
//   3. The same reads run again — the speedup column is the payoff.
//   4. The same migration re-runs under a bytes/sec throttle; the stretch
//      factor is the price of being polite to production traffic.
//
// All numbers are deterministic simulated seconds, so the --json summary
// doubles as a drift guard (bench/baselines/BENCH_migration.json).
#include "bench_util.h"

#include "migrate/engine.h"

namespace msra::bench {
namespace {

constexpr int kTimesteps = 4;
constexpr int kReadsPerTimestep = 2;

struct Workload {
  Testbed testbed;
  std::unique_ptr<core::Session> session;
  core::DatasetHandle* handle = nullptr;

  Workload() {
    check(testbed.calibrate(), "PTool calibration");
    session = std::make_unique<core::Session>(
        testbed.system,
        core::SessionOptions{.application = "astro3d", .user = "xshen",
                             .nprocs = 1, .iterations = kTimesteps,
                             .predictor = &testbed.predictor});
    core::DatasetDesc desc;
    desc.name = "frame";
    desc.dims = full_scale() ? std::array<std::uint64_t, 3>{128, 128, 128}
                             : std::array<std::uint64_t, 3>{64, 64, 64};
    desc.etype = core::ElementType::kFloat32;
    desc.frequency = 1;
    desc.location = core::Location::kRemoteTape;
    handle = check(session->open(desc), "open frame");
    auto layout = check(handle->layout(1), "layout");
    std::vector<std::byte> block(layout.global_bytes(), std::byte{1});
    prt::World world(1);
    world.run([&](prt::Comm& comm) {
      for (int t = 0; t < kTimesteps; ++t) {
        check(handle->write_timestep(comm, t, block), "dump");
      }
    });
    testbed.system.reset_time();
  }

  /// Reads every timestep `kReadsPerTimestep` times; returns the summed
  /// simulated seconds.
  double read_all() {
    double total = 0.0;
    for (int r = 0; r < kReadsPerTimestep; ++r) {
      for (int t = 0; t < kTimesteps; ++t) {
        simkit::Timeline tl;
        check(handle->read_whole(t, {.timeline = &tl}).status(), "read");
        total += tl.now();
      }
    }
    return total;
  }

  migrate::MigrationReport migrate_once(std::uint64_t throttle_bytes_per_sec) {
    // The background engine gets an idle maintenance window: start the
    // device clocks fresh so its bill reflects the copies, not the queue
    // behind the foreground reads.
    testbed.system.reset_time();
    migrate::MigrationConfig config;
    config.enabled = true;
    config.throttle_bytes_per_sec = throttle_bytes_per_sec;
    migrate::MigrationEngine engine(testbed.system, testbed.predictor, config);
    return check(engine.run_once(), "migration round");
  }
};

int run(const std::string& json_path) {
  print_header("Migration — predictor-priced promotion of hot tape data",
               "Shen et al., HPDC 2000, section 6 (automatic resource "
               "selection)");

  // ---- promotion payoff --------------------------------------------------
  Workload hot;
  const double tape_seconds = hot.read_all();
  std::printf("\ncold reads, all replicas on tape: %10.2f s "
              "(%d timesteps x %d reads)\n",
              tape_seconds, kTimesteps, kReadsPerTimestep);

  migrate::MigrationReport report = hot.migrate_once(0);
  std::printf("\nmigration round (%zu step(s)):\n", report.outcomes.size());
  double priced_cost = 0.0;
  double executed_seconds = 0.0;
  for (const auto& outcome : report.outcomes) {
    std::printf("  %-44s priced %8.2f s, executed %8.2f s\n",
                outcome.step.label().c_str(), outcome.priced_cost,
                outcome.executed_seconds);
    priced_cost += outcome.priced_cost;
    executed_seconds += outcome.executed_seconds;
  }
  if (report.failures() != 0) {
    std::fprintf(stderr, "FATAL: %zu migration step(s) failed\n",
                 report.failures());
    return 1;
  }

  hot.testbed.system.reset_time();
  const double disk_seconds = hot.read_all();
  const double speedup = disk_seconds > 0.0 ? tape_seconds / disk_seconds : 0.0;
  std::printf("\nhot reads after promotion:        %10.2f s  -> %.1fx faster\n",
              disk_seconds, speedup);
  std::printf("copy bill: %.2f s executed vs %.2f s predicted; payoff after "
              "%.1f read sweeps\n",
              executed_seconds, priced_cost,
              tape_seconds > disk_seconds
                  ? executed_seconds / (tape_seconds - disk_seconds) *
                        static_cast<double>(kReadsPerTimestep)
                  : 0.0);

  // ---- throttle overhead -------------------------------------------------
  // The identical migration, paced at 8 KiB/s: steady-state production
  // traffic keeps its bandwidth, the migration stretches instead.
  Workload throttled;
  (void)throttled.read_all();  // same heat as the unthrottled run
  migrate::MigrationReport slow = throttled.migrate_once(8ull << 10);
  double throttled_seconds = 0.0;
  double throttle_wait = 0.0;
  for (const auto& outcome : slow.outcomes) {
    throttled_seconds += outcome.executed_seconds;
    throttle_wait += outcome.throttle_wait;
  }
  if (slow.failures() != 0 ||
      slow.outcomes.size() != report.outcomes.size()) {
    std::fprintf(stderr, "FATAL: throttled round diverged from unthrottled\n");
    return 1;
  }
  const double stretch =
      executed_seconds > 0.0 ? throttled_seconds / executed_seconds : 0.0;
  std::printf("\nthrottled migration (8 KiB/s):    %10.2f s executed "
              "(+%.2f s waiting, %.2fx stretch)\n",
              throttled_seconds, throttle_wait, stretch);

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\":\"migration\",\"timesteps\":%d,"
                "\"reads_per_timestep\":%d,\"steps\":%zu,"
                "\"tape_read_seconds\":%.6f,\"disk_read_seconds\":%.6f,"
                "\"speedup\":%.6f,\"priced_cost_seconds\":%.6f,"
                "\"executed_seconds\":%.6f,"
                "\"throttled_executed_seconds\":%.6f,"
                "\"throttle_wait_seconds\":%.6f}",
                kTimesteps, kReadsPerTimestep, report.outcomes.size(),
                tape_seconds, disk_seconds, speedup, priced_cost,
                executed_seconds, throttled_seconds, throttle_wait);
  write_summary_json(json_path, buf);
  return 0;
}

}  // namespace
}  // namespace msra::bench

int main(int argc, char** argv) {
  const std::string json_path = msra::bench::consume_json_out_flag(argc, argv);
  return msra::bench::run(json_path);
}
