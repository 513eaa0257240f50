// astro3d: the paper's own workload as one closed batch job.
//
// Table 2 reduced (64^3, 60 iterations, 2 ranks, collective I/O): the
// producer dumps its 19 datasets at seeded placements, then MSE analyses
// `temp` and Volren renders `vr_temp`, each consumer starting on idle
// devices like Fig. 10. The job is the paper's Fig. 9/10 I/O time and the
// Fig. 11 prediction; the fleet and device contention stay idle.
//
// The seed deals a fixed media mix — six datasets on local disk, five on
// remote disk, six on remote tape — over the 17 datasets the consumers do
// not read, so every seed uses all three classes but float and uchar
// datasets land on different media. `temp` (the MSE input) always lives
// on the remote disks and `vr_temp` (the Volren input) on the remote
// tapes, as in the paper's Fig. 10 experiments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "apps/astro3d/astro3d.h"
#include "apps/mse/mse.h"
#include "apps/volren/volren.h"
#include "common/rng.h"
#include "msrabench.h"

namespace msrabench {
namespace {

using core::Location;

constexpr Location L = Location::kLocalDisk;
constexpr Location D = Location::kRemoteDisk;
constexpr Location T = Location::kRemoteTape;

apps::astro3d::Config astro_config(std::uint64_t seed) {
  apps::astro3d::Config config;
  config.dims = {64, 64, 64};
  config.iterations = 60;
  config.analysis_freq = 6;
  config.viz_freq = 6;
  config.checkpoint_freq = 6;
  config.nprocs = kAstro3dRanks;
  config.hints["temp"] = D;
  config.hints["vr_temp"] = T;
  std::vector<std::string> names;
  for (const auto* group : {&apps::astro3d::analysis_names(),
                            &apps::astro3d::viz_names(),
                            &apps::astro3d::checkpoint_names()}) {
    for (const std::string& name : *group) {
      if (!config.hints.contains(name)) names.push_back(name);
    }
  }
  std::vector<Location> classes = {L, L, L, L, L, L, D, D, D,
                                   D, D, T, T, T, T, T, T};
  Rng rng(seed);
  for (std::size_t i = classes.size(); i > 1; --i) {
    std::swap(classes[i - 1], classes[rng.next_below(i)]);
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    config.hints[names[i]] = classes[i];
  }
  return config;
}

const core::DatasetDesc& find_desc(const std::vector<core::DatasetDesc>& descs,
                                   const std::string& name) {
  return *std::find_if(
      descs.begin(), descs.end(),
      [&](const core::DatasetDesc& d) { return d.name == name; });
}

template <typename Fn>
auto timed_app(double& host_s, SpanLog* spans, SpanLog::Id parent,
               const char* name, Fn&& fn) {
  const SpanLog::Id id = spans != nullptr ? spans->open(name, parent) : 0;
  const Clock::time_point start = Clock::now();
  auto result = fn();
  host_s = seconds_between(start, Clock::now());
  if (spans != nullptr) spans->close(id);
  return result;
}

/// Builds and calibrates the testbed; the producer run is the drive, so
/// there is nothing to populate.
Status set_up(std::unique_ptr<Testbed>& bed, SetupTimes& times) {
  Clock::time_point start = Clock::now();
  bed = std::make_unique<Testbed>(core::HardwareProfile::paper_2000());
  bed->system.metrics().set_enabled(false);
  bed->system.tracer().set_enabled(false);
  const Clock::time_point built = Clock::now();
  times.build_s = seconds_between(start, built);
  Status status = bed->calibrate({64ull << 10, 256ull << 10, 1ull << 20,
                                  2ull << 20, 4ull << 20, 8ull << 20,
                                  16ull << 20});
  times.calibrate_s = seconds_between(built, Clock::now());
  return status;
}

}  // namespace

SetupTimes astro3d_set_up() {
  std::unique_ptr<Testbed> bed;
  SetupTimes times;
  (void)set_up(bed, times);
  return times;
}

RunResult run_astro3d(const RunOptions& options) {
  RunResult result;
  const apps::astro3d::Config config = astro_config(options.seed);
  const std::vector<core::DatasetDesc> descs =
      apps::astro3d::dataset_descs(config);

  std::unique_ptr<Testbed> bed;
  Status calibrated = set_up(bed, result.setup);
  if (!calibrated.ok()) {
    result.error = "calibration: " + calibrated.to_string();
    return result;
  }

  // The drive: producer, then each consumer on idle devices. The registry
  // records every collective dump's I/O phase, the per-dump latency below.
  bed->system.metrics().set_enabled(true);
  bed->system.tracer().set_enabled(options.traced);
  SpanLog* spans = options.spans;
  const SpanLog::Id root = spans != nullptr ? spans->open("drive", 0) : 0;
  double producer_host = 0.0, mse_host = 0.0, volren_host = 0.0;
  core::Session producer(bed->system, {.application = "astro3d",
                                       .user = "xshen",
                                       .nprocs = kAstro3dRanks,
                                       .iterations = config.iterations});
  auto produced = timed_app(producer_host, spans, root, "astro3d::run", [&] {
    return apps::astro3d::run(producer, config);
  });
  bed->system.reset_time();
  core::Session analysis(bed->system,
                         {.application = "mse", .nprocs = kAstro3dRanks});
  auto analysed = timed_app(mse_host, spans, root, "mse::run", [&] {
    return apps::mse::run(analysis,
                          {.dataset = "temp", .nprocs = kAstro3dRanks});
  });
  bed->system.reset_time();
  core::Session render(bed->system,
                       {.application = "volren", .nprocs = kAstro3dRanks});
  auto rendered = timed_app(volren_host, spans, root, "volren::run", [&] {
    return apps::volren::run(render, {.dataset = "vr_temp",
                                      .width = 64,
                                      .height = 64,
                                      .nprocs = kAstro3dRanks,
                                      .image_location = L,
                                      .image_base = "volren/images"});
  });
  if (spans != nullptr) spans->close(root);
  bed->system.tracer().set_enabled(false);
  for (const Status& status :
       {produced.status(), analysed.status(), rendered.status()}) {
    if (!status.ok()) {
      result.error = "astro3d pipeline: " + status.to_string();
      return result;
    }
  }
  result.drive_host_s = producer_host + mse_host + volren_host;

  // Requests: one per dataset-timestep dump, analysed timestep and image.
  result.attempted = produced->dumps + analysed->timesteps.size() +
                     static_cast<std::uint64_t>(rendered->images);
  const double producer_io = produced->io_time;
  const double consumer_io =
      analysed->io_time + rendered->read_io_time + rendered->write_io_time;
  const double measured_io = producer_io + consumer_io;

  // Eq. (2) for the producer run at its placements, plus each consumer's
  // read of its input (Fig. 10's predictions). Volren's image writes have
  // no prediction, so they stay out of both sides.
  std::vector<std::pair<core::DatasetDesc, Location>> placed;
  for (const core::DatasetDesc& desc : descs) {
    placed.emplace_back(desc, produced->placements.at(desc.name));
  }
  double predicted = 0.0;
  auto run_prediction = bed->predictor.predict_run(placed, config.iterations,
                                                   kAstro3dRanks);
  auto mse_prediction = bed->predictor.predict_dataset(
      find_desc(descs, "temp"), produced->placements.at("temp"),
      config.iterations, kAstro3dRanks, predict::IoOp::kRead);
  auto volren_prediction = bed->predictor.predict_dataset(
      find_desc(descs, "vr_temp"), produced->placements.at("vr_temp"),
      config.iterations, kAstro3dRanks, predict::IoOp::kRead);
  if (!run_prediction.ok() || !mse_prediction.ok() ||
      !volren_prediction.ok()) {
    result.error = "astro3d prediction failed";
    return result;
  }
  predicted = run_prediction->total + mse_prediction->total +
              volren_prediction->total;
  const double predicted_base =
      producer_io + analysed->io_time + rendered->read_io_time;

  const obs::Histogram* dumps =
      bed->system.metrics().find_histogram("collective.write.io_time");
  Metrics& v = result.virt;
  v["virt_lat_p50_s"] = {dumps != nullptr ? dumps->percentile(50.0) : 0.0, "s"};
  v["virt_lat_p99_s"] = {dumps != nullptr ? dumps->percentile(99.0) : 0.0, "s"};
  v["virt_makespan_s"] = {measured_io, "s"};
  v["first_try_frac"] = {1.0, "fraction"};
  v["slo_met_frac"] = {1.0, "fraction"};
  v["predict_err_pct"] = {
      100.0 * std::abs(predicted - predicted_base) / predicted_base, "%"};
  v["virt_capacity_rps"] = {static_cast<double>(result.attempted) / measured_io,
                            "req/s"};

  Metrics& l = result.layers;
  l["core.requests"] = {static_cast<double>(result.attempted), "count"};
  l["predict.bias_pct"] = {
      100.0 * (predicted - predicted_base) / predicted_base, "%"};
  l["apps.astro3d.host_s"] = {producer_host, "s"};
  l["apps.mse.host_s"] = {mse_host, "s"};
  l["apps.volren.host_s"] = {volren_host, "s"};
  l["apps.astro3d.io_s"] = {producer_io, "s"};
  l["apps.mse.io_s"] = {analysed->io_time, "s"};
  l["apps.volren.io_s"] = {rendered->read_io_time + rendered->write_io_time,
                           "s"};
  l["apps.astro3d.bytes"] = {static_cast<double>(produced->bytes_written), "B"};

  if (options.traced) {
    system_layers(*bed, measured_io, l);
    const core::DatasetDesc temp = find_desc(descs, "temp");
    probe_layers(*bed,
                 {.dataset = "temp",
                  .app = "astro3d",
                  .timestep = 0,
                  .location = produced->placements.at("temp"),
                  .lower = [temp]() -> StatusOr<runtime::IoPlan> {
                    MSRA_ASSIGN_OR_RETURN(
                        prt::Decomposition decomp,
                        prt::Decomposition::create(temp.dims, kAstro3dRanks,
                                                   temp.pattern));
                    return runtime::PlanBuilder::dataset_dump(
                        {decomp, core::element_size(temp.etype)},
                        runtime::IoMethod::kCollective, 1,
                        runtime::PlanDir::kWrite);
                  }},
                 l);
  }

  // Correctness: MSE saw every dumped timestep pair and produced finite
  // values; Volren rendered every timestep; `temp` reads back finite.
  Digest digest;
  const std::size_t timesteps =
      find_desc(descs, "temp").dumps(config.iterations);
  if (analysed->mse.size() + 1 != timesteps) {
    result.error = "MSE produced " + std::to_string(analysed->mse.size()) +
                   " values for " + std::to_string(timesteps) + " dumps";
  }
  for (double value : analysed->mse) {
    if (!std::isfinite(value)) result.error = "MSE produced a non-finite value";
    digest.add_double(value);
  }
  if (static_cast<std::size_t>(rendered->images) != timesteps) {
    result.error = "Volren rendered " + std::to_string(rendered->images) +
                   " images for " + std::to_string(timesteps) + " dumps";
  }
  core::Session reader(bed->system, {.application = "verify"});
  auto handle = reader.open_existing("temp");
  for (std::size_t i = 0; handle.ok() && i < analysed->timesteps.size(); ++i) {
    auto bytes = (*handle)->read_whole(analysed->timesteps[i]);
    if (!bytes.ok()) {
      result.error = "temp read-back: " + bytes.status().to_string();
      break;
    }
    digest.add(*bytes);
    const std::size_t count = bytes->size() / sizeof(float);
    for (std::size_t k = 0; k < count; ++k) {
      float f;
      std::memcpy(&f, bytes->data() + k * sizeof(float), sizeof(float));
      if (!std::isfinite(f)) {
        result.error = "temp holds a non-finite value";
        break;
      }
    }
  }
  if (!handle.ok()) result.error = "temp open: " + handle.status().to_string();
  result.digest = digest.hex();
  return result;
}

}  // namespace msrabench
