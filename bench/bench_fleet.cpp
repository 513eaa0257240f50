// Fleet runtime scaling sweep: how far does the event-driven tenant
// scheduler stretch on one host thread?
//
// Each scale point builds a fresh calibrated testbed, has a producer write
// a shared 16^3 "frame" dataset to the remote disks, then launches N
// tenants in one Fleet. Tenant i takes role i % 3:
//
//   dump   — opens its own 8^3 checkpoint dataset on the local disks and
//            dumps one timestep (the simulation-side write path),
//   mse    — reads the whole frame back (post-processing, like the paper's
//            MSE analysis tool),
//   volren — reads one z-plane of the frame (visualization slice, like
//            Volren).
//
// Reported per scale: the per-role virtual latency distribution (exact
// order statistics over every tenant's Completion), the virtual makespan,
// and the summed queueing delay on the shared devices. Everything in the
// --json summary is simulated time, so the file is byte-stable and guards
// drift (bench/baselines/BENCH_fleet.json); host wall-clock and
// tenants/second go to stdout only. The summary's "workers":1 field is kept
// for baseline compatibility: the fleet always runs on one host thread.
//
//   --json FILE        machine-readable summary (see bench/run_all.sh)
//   --max-tenants N    cap the sweep (CI smoke uses 10000)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/msra.h"
#include "obs/report.h"

namespace msra::bench {
namespace {

constexpr std::array<std::uint64_t, 3> kFrameDims = {16, 16, 16};
constexpr std::array<std::uint64_t, 3> kCkptDims = {8, 8, 8};

/// The shared frame dataset (2 timesteps on the remote disks) the reader
/// roles consume.
core::DatasetDesc frame_desc() {
  return mix_dataset("frame", kFrameDims, core::Location::kRemoteDisk);
}

struct ScaleResult {
  int tenants = 0;
  double makespan = 0.0;    ///< max finished_at (virtual s)
  double queue_wait = 0.0;  ///< summed device queueing delay (virtual s)
  std::array<obs::LatencySummary, 3> roles;
};

ScaleResult run_scale(int tenants) {
  core::StorageSystem system(core::HardwareProfile::paper_2000());
  // The sweep's numbers come from Completion records and simkit::Resource
  // accounting; the per-op instruments and tracer spans would only burn
  // host time at 100k tenants.
  system.metrics().set_enabled(false);
  system.tracer().set_enabled(false);

  const core::DatasetDesc frame = frame_desc();
  write_mix_frame(system, frame, 2);
  system.reset_time();

  const auto wall_start = std::chrono::steady_clock::now();
  core::Fleet fleet(system);
  std::vector<core::Completion*> completions;
  std::vector<int> roles;
  completions.reserve(static_cast<std::size_t>(tenants));
  roles.reserve(static_cast<std::size_t>(tenants));
  for (int i = 0; i < tenants; ++i) {
    const int role = i % 3;
    core::Client& client = fleet.add_client("tenant" + std::to_string(i));
    completions.push_back(client.submit(
        mix_workload(i, role, frame, kCkptDims, core::Location::kLocalDisk)));
    roles.push_back(role);
  }
  fleet.run_until_idle();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  ScaleResult result;
  result.tenants = tenants;
  std::array<std::vector<double>, 3> latencies;
  for (std::size_t i = 0; i < completions.size(); ++i) {
    check(completions[i]->status(), "tenant workload");
    result.makespan = std::max(result.makespan, completions[i]->finished_at());
    latencies[static_cast<std::size_t>(roles[i])].push_back(
        completions[i]->latency());
  }
  for (int role = 0; role < 3; ++role) {
    result.roles[static_cast<std::size_t>(role)] = obs::summarize_latencies(
        std::move(latencies[static_cast<std::size_t>(role)]));
  }
  for (const obs::ResourceLoadRow& row : system.resource_loads()) {
    result.queue_wait += row.total_wait;
  }

  std::printf("%8d tenants: makespan %12.2f s  queue wait %14.2f s   "
              "[host: %6.2f s, %.0f tenants/s]\n",
              tenants, result.makespan, result.queue_wait, wall_seconds,
              wall_seconds > 0.0 ? tenants / wall_seconds : 0.0);
  for (int role = 0; role < 3; ++role) {
    const obs::LatencySummary& s = result.roles[static_cast<std::size_t>(role)];
    std::printf("          %-6s n=%-6zu mean %10.2f  p50 %10.2f  "
                "p90 %10.2f  p99 %10.2f  max %10.2f\n",
                mix_role_name(role), s.count, s.mean, s.p50, s.p90, s.p99,
                s.max);
  }
  return result;
}

int run(int max_tenants, const std::string& json_path) {
  std::printf("==============================================================\n");
  std::printf("Fleet scaling sweep: N tenants on one scheduler thread\n");
  std::printf("Roles cycle dump / mse / volren; all latencies are SIMULATED\n");
  std::printf("seconds; host wall-clock shown in brackets is NOT in the JSON.\n");
  std::printf("==============================================================\n");

  std::vector<ScaleResult> results;
  for (const int tenants : {100, 1000, 10000, 100000}) {
    if (tenants > max_tenants) break;
    results.push_back(run_scale(tenants));
  }

  std::string json = "{\"bench\":\"fleet\",\"workers\":1,\"scales\":[";
  char buf[512];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    if (i != 0) json += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"tenants\":%d,\"makespan\":%.6f,\"queue_wait\":%.6f,"
                  "\"roles\":{",
                  r.tenants, r.makespan, r.queue_wait);
    json += buf;
    for (int role = 0; role < 3; ++role) {
      const obs::LatencySummary& s = r.roles[static_cast<std::size_t>(role)];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"count\":%zu,\"mean\":%.6f,\"p50\":%.6f,"
                    "\"p90\":%.6f,\"p99\":%.6f,\"max\":%.6f}",
                    role == 0 ? "" : ",", mix_role_name(role), s.count, s.mean,
                    s.p50, s.p90, s.p99, s.max);
      json += buf;
    }
    json += "}}";
  }
  json += "]}";
  write_summary_json(json_path, json);
  return 0;
}

}  // namespace
}  // namespace msra::bench

int main(int argc, char** argv) {
  const std::string json_path = msra::bench::consume_json_out_flag(argc, argv);
  int max_tenants = 100000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-tenants") == 0 && i + 1 < argc) {
      max_tenants = std::atoi(argv[i + 1]);
      ++i;
    } else if (std::strncmp(argv[i], "--max-tenants=", 14) == 0) {
      max_tenants = std::atoi(argv[i] + 14);
    }
  }
  return msra::bench::run(max_tenants, json_path);
}
