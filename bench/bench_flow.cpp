// Whole-campaign scheduling: what declaring the DAG up front buys.
//
// One campaign shape, three staging strategies, all deterministic simulated
// time (the --json summary is byte-stable and guards drift,
// bench/baselines/BENCH_flow.json):
//
//   * static — the campaign runs where the data sits: the tape-resident
//     reference dataset is read from tape by BOTH consumer stages. The
//     paper's baseline: placement is whatever the archive left behind.
//
//   * hint — the operator knows the campaign needs `ref` and stages it to
//     local disk FIRST, then launches (the PBS/CASTOR stage-in discipline).
//     Reads are fast, but the whole stage-in sits on the critical path
//     ahead of the simulation stage that doesn't even use `ref`.
//
//   * planned — the campaign DAG is declared to Fleet::submit_campaign with
//     a StagingScheduler: the planner sees that `ref` has two declared
//     future readers (benefit = 2 x read savings > priced move), copies it
//     toward the consumers in the tape path's idle window WHILE the
//     simulation wave runs, and GCs the staged copy after the last
//     consumer. Stage-in leaves the critical path.
//
// Gate: planned < hint < static makespan, the planner stages exactly the
// declared-reuse inputs (one move per ref timestep, all successful), and
// the static run stages nothing.
//
//   --json FILE   machine-readable summary (see bench/run_all.sh)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "flow/pricer.h"
#include "flow/run.h"
#include "obs/report.h"

namespace msra::bench {
namespace {

constexpr std::array<std::uint64_t, 3> kFrameDims = {48, 48, 48};
constexpr int kFrameTimesteps = 6;  ///< sim wave length (the overlap window)
constexpr std::array<std::uint64_t, 3> kRefDims = {64, 64, 64};
constexpr int kRefTimesteps = 2;    ///< tape-resident input both consumers read

core::SessionOptions flow_options() {
  core::SessionOptions options;
  options.application = "flow";
  return options;
}

/// Seeds the tape-resident reference dataset the consumer stages read.
void seed_ref(core::StorageSystem& system) {
  const core::DatasetDesc ref =
      mix_dataset("ref", kRefDims, core::Location::kRemoteTape);
  core::Fleet fleet(system);
  core::Client& producer = fleet.add_client("ref_producer", flow_options());
  core::Workload workload;
  workload.open(ref);
  for (int t = 0; t < kRefTimesteps; ++t) workload.dump(ref.name, t);
  workload.finalize();
  core::Completion* done = producer.submit(std::move(workload));
  fleet.run_until_idle();
  check(done->status(), "ref producer");
  system.reset_time();
}

/// The campaign: sim dumps frames to remote disk (long, no ref), mse reads
/// frames + ref, viz reads ref again after mse — two declared readers per
/// ref timestep, which is what makes pre-staging pay.
flow::Campaign build_campaign() {
  const core::DatasetDesc frame =
      mix_dataset("frame", kFrameDims, core::Location::kRemoteDisk);
  flow::Campaign campaign("bench", "flow");

  core::Workload sim;
  sim.open(frame);
  for (int t = 0; t < kFrameTimesteps; ++t) sim.dump(frame.name, t);
  sim.finalize();
  campaign.stage("sim", std::move(sim));

  core::Workload mse;
  mse.open_existing(frame.name).open_existing("ref");
  for (int t = 0; t < kFrameTimesteps; ++t) mse.read_whole(frame.name, t);
  for (int t = 0; t < kRefTimesteps; ++t) mse.read_whole("ref", t);
  mse.finalize();
  campaign.stage("mse", std::move(mse));

  core::Workload viz;
  viz.open_existing("ref");
  for (int t = 0; t < kRefTimesteps; ++t) viz.read_whole("ref", t);
  viz.finalize();
  campaign.stage("viz", std::move(viz));
  campaign.after("viz", "mse");
  return campaign;
}

struct RunResult {
  double makespan = 0.0;
  double stage_in = 0.0;  ///< hint: blocking stage-in ahead of the launch
  int moves = 0;          ///< successful staging copies
  std::vector<obs::CampaignStageRow> rows;
};

std::vector<obs::CampaignStageRow> stage_rows(
    const flow::CampaignReport& report) {
  std::vector<obs::CampaignStageRow> rows;
  for (const flow::StageResult& stage : report.stages) {
    check(stage.status, stage.stage.c_str());
    rows.push_back({stage.stage, stage.started_at, stage.finished_at, ""});
  }
  return rows;
}

/// static / planned: submit the declared campaign, with or without the
/// unified staging scheduler behind it.
RunResult run_campaign(bool planned) {
  Testbed bed;
  check(bed.calibrate(), "ptool calibration");
  seed_ref(bed.system);

  flow::StagingScheduler stager(bed.system, &bed.predictor);
  flow::CampaignOptions options;
  options.predictor = &bed.predictor;
  if (planned) options.stager = &stager;

  core::Fleet fleet(bed.system);
  const flow::CampaignReport report =
      check(fleet.submit_campaign(build_campaign(), options), "campaign");
  RunResult result;
  result.makespan = report.makespan;
  result.rows = stage_rows(report);
  for (const flow::StageOutcome& outcome : report.staging) {
    if (outcome.task.kind == flow::StageTaskKind::kPrestage &&
        outcome.status.ok()) {
      ++result.moves;
    }
  }
  return result;
}

/// hint: promote every ref timestep to local disk first (the operator's
/// stage-in script), wait for it, then launch the campaign without a
/// scheduler. The stage-in time is on the critical path by construction.
RunResult run_hint() {
  Testbed bed;
  check(bed.calibrate(), "ptool calibration");
  seed_ref(bed.system);

  flow::StagingScheduler stager(bed.system, &bed.predictor);
  core::MetaCatalog catalog(&bed.system.metadb());
  std::vector<flow::StageTask> tasks;
  for (int t = 0; t < kRefTimesteps; ++t) {
    const core::InstanceRecord instance =
        check(catalog.instance("flow", "ref", t), "ref instance");
    flow::StageTask task;
    task.kind = flow::StageTaskKind::kPromote;
    task.app = "flow";
    task.name = "ref";
    task.timestep = t;
    task.from = instance.primary();
    task.to = core::ReplicaAddress{core::Location::kLocalDisk, 0};
    task.path = instance.path;
    task.bytes = instance.bytes;
    tasks.push_back(task);
  }
  RunResult result;
  for (const flow::StageOutcome& outcome : stager.execute(tasks)) {
    check(outcome.status, "stage-in copy");
    result.stage_in = std::max(result.stage_in, outcome.finished_at);
    ++result.moves;
  }

  flow::CampaignOptions options;
  options.predictor = &bed.predictor;
  core::Fleet fleet(bed.system);
  const flow::CampaignReport report =
      check(fleet.submit_campaign(build_campaign(), options), "campaign");
  result.makespan = result.stage_in + report.makespan;
  result.rows = stage_rows(report);
  return result;
}

void result_json(std::string& json, const char* name, const RunResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"makespan\":%.6f,\"stage_in\":%.6f,\"moves\":%d}",
                name, r.makespan, r.stage_in, r.moves);
  json += buf;
}

int run(const std::string& json_path) {
  std::printf("==============================================================\n");
  std::printf("Campaign staging: declared DAG vs stage-in hints vs static\n");
  std::printf("sim dumps %d frames (remote disk); mse + viz both read the\n",
              kFrameTimesteps);
  std::printf("%d-timestep tape-resident ref dataset. All times are\n",
              kRefTimesteps);
  std::printf("SIMULATED seconds on the calibrated testbed.\n");
  std::printf("==============================================================\n");

  const RunResult stat = run_campaign(/*planned=*/false);
  const RunResult hint = run_hint();
  const RunResult planned = run_campaign(/*planned=*/true);

  std::printf("\n%10s %14s %14s %8s\n", "strategy", "stage_in[s]",
              "makespan[s]", "moves");
  std::printf("%10s %14.4f %14.4f %8d\n", "static", 0.0, stat.makespan,
              stat.moves);
  std::printf("%10s %14.4f %14.4f %8d\n", "hint", hint.stage_in,
              hint.makespan, hint.moves);
  std::printf("%10s %14.4f %14.4f %8d\n", "planned", 0.0, planned.makespan,
              planned.moves);
  std::printf("\nplanned stage timeline:\n%s",
              obs::format_campaign_table("bench", planned.rows).c_str());

  if (stat.moves != 0) {
    std::fprintf(stderr, "FATAL: static run staged %d moves (want 0)\n",
                 stat.moves);
    return 1;
  }
  if (planned.moves != kRefTimesteps) {
    std::fprintf(stderr,
                 "FATAL: planner staged %d moves (want %d: one per declared "
                 "ref timestep)\n",
                 planned.moves, kRefTimesteps);
    return 1;
  }
  if (!(planned.makespan < hint.makespan && hint.makespan < stat.makespan)) {
    std::fprintf(stderr, "FATAL: makespan ordering gate missed (want "
                         "planned < hint < static)\n");
    return 1;
  }
  std::printf("\nplanned %.4f s < hint %.4f s < static %.4f s "
              "(%.2fx vs static)\n",
              planned.makespan, hint.makespan, stat.makespan,
              stat.makespan / planned.makespan);

  std::string json = "{\"bench\":\"flow\",\"frame_timesteps\":" +
                     std::to_string(kFrameTimesteps) + ",\"ref_timesteps\":" +
                     std::to_string(kRefTimesteps) + ",";
  result_json(json, "static", stat);
  json += ",";
  result_json(json, "hint", hint);
  json += ",";
  result_json(json, "planned", planned);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"speedup_vs_static\":%.6f}",
                stat.makespan / planned.makespan);
  json += buf;
  write_summary_json(json_path, json);
  return 0;
}

}  // namespace
}  // namespace msra::bench

int main(int argc, char** argv) {
  const std::string json_path = msra::bench::consume_json_out_flag(argc, argv);
  (void)argc;
  (void)argv;
  return msra::bench::run(json_path);
}
