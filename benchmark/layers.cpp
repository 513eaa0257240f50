// Per-layer metrics: what the system already counts, copied out after the
// drive, and per-call probes timed against the end-of-run state.
//
// Layers are named after src/ modules: core (User API, sessions, fleet,
// balancer), meta, runtime (the run-time library), eq1 (the native
// SRB/UNIX interface, billed by Eq. (1)), simkit (device service vs queue
// wait), qos, predict, cache, apps, plus the benchmark's own set-up and
// tracing overhead.
#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>

#include "cache/cache.h"
#include "core/balancer.h"
#include "msrabench.h"
#include "obs/report.h"

namespace msrabench {
namespace {

constexpr std::array<const char*, 4> kEq1Classes = {"localdisk", "remotedisk",
                                                    "remotetape", "cache"};
constexpr std::array<const char*, 6> kDeviceClasses = {
    "localdisk", "remotedisk", "cpu", "wan_disk", "wan_tape", "tape"};
constexpr int kSites = 4;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Storage class of an `io.<resource>.*` row ("localdisk", "sdsc:remotedisk",
/// "sdsc2:remotetape2", "cache"), and the SRB site it lives on.
std::string eq1_class(const std::string& resource, int* site) {
  *site = 0;
  for (const char* cls : {"remotedisk", "remotetape"}) {
    const std::size_t at = resource.find(cls);
    if (at == std::string::npos) continue;
    const std::string digits = resource.substr(at + std::string(cls).size());
    if (!digits.empty() &&
        std::isdigit(static_cast<unsigned char>(digits[0]))) {
      *site = std::stoi(digits);
    }
    return cls;
  }
  return resource;
}

/// Device class of a shared simkit::Resource, by its telemetry name.
std::string device_class(const std::string& name) {
  if (starts_with(name, "localdisk")) return "localdisk";
  if (starts_with(name, "remotedisk")) return "remotedisk";
  if (name.size() > 4 && name.compare(name.size() - 4, 4, "-cpu") == 0) {
    return "cpu";
  }
  if (starts_with(name, "wan-disk")) return "wan_disk";
  if (starts_with(name, "wan-tape")) return "wan_tape";
  return "tape";  // robot, drives and the HSM staging cache
}

double counter(const obs::MetricsRegistry& metrics, const char* name) {
  const obs::Counter* c = metrics.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

double histogram_sum(const obs::MetricsRegistry& metrics, const char* name) {
  const obs::Histogram* h = metrics.find_histogram(name);
  return h != nullptr ? h->sum() : 0.0;
}

/// Median host microseconds of one call of `fn`, over nine timed batches
/// sized so each batch runs for at least ~20 microseconds.
template <typename Fn>
double per_call_us(Fn&& fn) {
  Clock::time_point start = Clock::now();
  fn();
  const double once = seconds_between(start, Clock::now());
  const int batch =
      std::clamp(static_cast<int>(20e-6 / std::max(once, 1e-9)) + 1, 1, 1000);
  std::array<double, 9> samples{};
  for (double& sample : samples) {
    start = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    sample = 1e6 * seconds_between(start, Clock::now()) / batch;
  }
  std::nth_element(samples.begin(), samples.begin() + 4, samples.end());
  return samples[4];
}

}  // namespace

const std::vector<std::string>& failure_codes() {
  static const std::vector<std::string> codes = {"OUT_OF_RANGE", "NOT_FOUND",
                                                 "UNAVAILABLE", "OTHER"};
  return codes;
}

const std::vector<std::string>& sweep_probes() {
  static const std::vector<std::string> probes = {
      "core.add_client_us",         "core.submit_us",
      "core.drain_us",              "core.balancer.order_us",
      "meta.find_dataset_us",       "meta.instance_us",
      "runtime.lower_us",           "predict.price_us",
      "predict.quote_us",           "simkit.reserve_us.localdisk",
      "simkit.reserve_us.remotedisk", "simkit.reserve_us.cpu",
      "simkit.reserve_us.wan_disk"};
  return probes;
}

const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = [] {
    std::vector<std::pair<std::string, std::string>> c;
    auto add = [&c](std::string name, const char* unit) {
      c.emplace_back(std::move(name), unit);
    };
    add("core.requests", "count");
    add("core.refused", "count");
    add("core.failed", "count");
    for (const std::string& code : failure_codes()) {
      add("core.failed." + code, "count");
    }
    add("core.read_failovers", "count");
    add("core.add_client_us", "us");
    add("core.submit_us", "us");
    add("core.drain_us", "us");
    add("core.balancer.order_us", "us");
    for (int site = 0; site < kSites; ++site) {
      add("core.balancer.site" + std::to_string(site) + ".read_share",
          "fraction");
    }
    add("core.balancer.multi_replica_share", "fraction");
    add("meta.datasets", "count");
    add("meta.find_dataset_us", "us");
    add("meta.instance_us", "us");
    add("runtime.lower_us", "us");
    add("runtime.plan_stages", "count");
    add("runtime.stages_run", "count");
    add("runtime.sieve_accesses", "count");
    add("runtime.sieve_useful_ratio", "fraction");
    add("runtime.collective_write_io_s", "s");
    add("runtime.collective_read_io_s", "s");
    add("runtime.collective_exchange_s", "s");
    for (const char* cls : kEq1Classes) {
      const std::string p = std::string("eq1.") + cls;
      add(p + ".fixed_s", "s");
      add(p + ".rw_s", "s");
      add(p + ".ops", "count");
      add(p + ".bytes", "B");
    }
    add("eq1.accounted_pct", "%");
    for (const char* cls : kDeviceClasses) {
      const std::string p = std::string("simkit.") + cls;
      add(p + ".ops", "count");
      add(p + ".busy_s", "s");
      add(p + ".util", "fraction");
      add(p + ".wait_s", "s");
    }
    for (const char* cls : kDeviceClasses) {
      add(std::string("simkit.reserve_us.") + cls, "us");
    }
    for (const char* cls : {"interactive", "batch", "background"}) {
      const std::string p = std::string("qos.") + cls;
      add(p + ".served", "count");
      add(p + ".wait_p99_s", "s");
      add(p + ".deadline_misses", "count");
      add(p + ".accepted", "count");
      add(p + ".rejected", "count");
    }
    add("predict.price_us", "us");
    add("predict.quote_us", "us");
    add("predict.bias_pct", "%");
    add("predict.unpriced", "count");
    add("cache.hits", "count");
    add("cache.misses", "count");
    add("cache.hit_ratio", "fraction");
    add("cache.admitted", "count");
    add("cache.rejected", "count");
    add("cache.invalidations", "count");
    add("cache.evictions", "count");
    add("cache.saved_s", "s");
    for (const char* app : {"astro3d", "mse", "volren"}) {
      add(std::string("apps.") + app + ".host_s", "s");
    }
    for (const char* app : {"astro3d", "mse", "volren"}) {
      add(std::string("apps.") + app + ".io_s", "s");
    }
    add("apps.astro3d.bytes", "B");
    add("setup.build_s", "s");
    add("setup.calibrate_s", "s");
    add("setup.populate_s", "s");
    add("obs.trace_overhead_pct", "%");
    for (const std::string& probe : sweep_probes()) add(probe + ".slope", "1");
    return c;
  }();
  return catalog;
}

void system_layers(Testbed& bed, double billed_io_s, Metrics& out) {
  core::StorageSystem& system = bed.system;
  const obs::MetricsRegistry& metrics = system.metrics();

  out["core.read_failovers"] = {counter(metrics, "session.read_failovers"),
                                "count"};
  if (const meta::Table* datasets = system.metadb().table("datasets")) {
    out["meta.datasets"] = {static_cast<double>(datasets->size()), "count"};
  }

  out["runtime.stages_run"] = {counter(metrics, "plan.stages"), "count"};
  out["runtime.sieve_accesses"] = {counter(metrics, "sieve.accesses"), "count"};
  const double extent = counter(metrics, "sieve.extent_bytes");
  out["runtime.sieve_useful_ratio"] = {
      extent > 0.0 ? counter(metrics, "sieve.useful_bytes") / extent : 0.0,
      "fraction"};
  out["runtime.collective_write_io_s"] = {
      histogram_sum(metrics, "collective.write.io_time"), "s"};
  out["runtime.collective_read_io_s"] = {
      histogram_sum(metrics, "collective.read.io_time"), "s"};
  out["runtime.collective_exchange_s"] = {
      histogram_sum(metrics, "collective.write.exchange_time") +
          histogram_sum(metrics, "collective.read.exchange_time"),
      "s"};

  // Eq. (1) by storage class, summed over sites; remote reads by site.
  double accounted = 0.0;
  std::array<double, kSites> site_reads{};
  for (const obs::ResourceIoReport& row : obs::io_breakdown(metrics)) {
    int site = 0;
    const std::string cls = eq1_class(row.resource, &site);
    const std::string p = "eq1." + cls;
    out[p + ".fixed_s"].value += row.conn + row.open + row.seek + row.close;
    out[p + ".rw_s"].value += row.read + row.write;
    out[p + ".ops"].value += static_cast<double>(row.ops);
    out[p + ".bytes"].value +=
        static_cast<double>(row.read_bytes + row.write_bytes);
    accounted += row.total();
    if ((cls == "remotedisk" || cls == "remotetape") && site < kSites) {
      site_reads[static_cast<std::size_t>(site)] +=
          static_cast<double>(row.read_bytes);
    }
  }
  out["eq1.accounted_pct"] = {
      billed_io_s > 0.0 ? 100.0 * accounted / billed_io_s : 0.0, "%"};
  double remote_reads = 0.0;
  for (double reads : site_reads) remote_reads += reads;
  for (int site = 0; site < kSites; ++site) {
    out["core.balancer.site" + std::to_string(site) + ".read_share"] = {
        remote_reads > 0.0
            ? site_reads[static_cast<std::size_t>(site)] / remote_reads
            : 0.0,
        "fraction"};
  }

  // Device service vs queue wait, by device class over every site.
  for (const obs::ResourceLoadRow& row : system.resource_loads()) {
    const std::string p = "simkit." + device_class(row.name);
    out[p + ".ops"].value += static_cast<double>(row.operations);
    out[p + ".busy_s"].value += row.busy_seconds;
    out[p + ".util"].value = std::max(out[p + ".util"].value, row.utilization);
    out[p + ".wait_s"].value += row.total_wait;
  }

  for (const obs::QosClassRow& row : system.qos_breakdown()) {
    const std::string p = "qos." + row.tenant;
    out[p + ".served"] = {static_cast<double>(row.served), "count"};
    out[p + ".wait_p99_s"] = {row.wait_p99, "s"};
    out[p + ".deadline_misses"] = {static_cast<double>(row.deadline_misses),
                                   "count"};
    out[p + ".accepted"] = {static_cast<double>(row.accepted), "count"};
    out[p + ".rejected"] = {static_cast<double>(row.rejected), "count"};
  }

  if (const cache::ReadCache* cache = system.cache()) {
    const cache::CacheStats stats = cache->stats();
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    out["cache.hits"] = {static_cast<double>(stats.hits), "count"};
    out["cache.misses"] = {static_cast<double>(stats.misses), "count"};
    out["cache.hit_ratio"] = {
        lookups > 0.0 ? static_cast<double>(stats.hits) / lookups : 0.0,
        "fraction"};
    out["cache.admitted"] = {static_cast<double>(stats.admitted), "count"};
    out["cache.rejected"] = {static_cast<double>(stats.rejected), "count"};
    out["cache.invalidations"] = {static_cast<double>(stats.invalidations),
                                  "count"};
    out["cache.evictions"] = {static_cast<double>(stats.evictions), "count"};
    out["cache.saved_s"] = {stats.saved_seconds, "s"};
  }
}

void probe_layers(Testbed& bed, const ProbeTarget& target, Metrics& out) {
  core::StorageSystem& system = bed.system;
  const core::MetaCatalog catalog(&system.metadb());
  out["meta.find_dataset_us"] = {
      per_call_us([&] { (void)catalog.find_dataset(target.dataset); }), "us"};
  out["meta.instance_us"] = {
      per_call_us([&] {
        (void)catalog.instance(target.app, target.dataset, target.timestep);
      }),
      "us"};

  StatusOr<runtime::IoPlan> plan = target.lower();
  if (plan.ok()) {
    out["runtime.lower_us"] = {per_call_us([&] { (void)target.lower(); }),
                               "us"};
    out["runtime.plan_stages"] = {static_cast<double>(plan->stages.size()),
                                  "count"};
    const core::Balancer& balancer = system.balancer();
    predict::LoadAssumptions load;
    load.utilization = balancer.observed_utilization(target.location);
    out["predict.price_us"] = {
        per_call_us([&] {
          (void)bed.predictor.price(*plan, target.location, load);
        }),
        "us"};
    auto instance =
        catalog.instance(target.app, target.dataset, target.timestep);
    if (instance.ok()) {
      out["core.balancer.order_us"] = {
          per_call_us([&] {
            (void)balancer.order(*plan, instance->replicas, &bed.predictor);
          }),
          "us"};
    }
  }

  // One booking on the busiest device of each class, appended past its
  // booked horizon so every call scans the whole schedule.
  std::map<std::string, std::pair<std::uint64_t, simkit::Resource*>> busiest;
  for (auto& [name, resource] : system.shared_devices()) {
    auto& [ops, chosen] = busiest[device_class(name)];
    if (chosen == nullptr || resource->operations() > ops) {
      ops = resource->operations();
      chosen = resource;
    }
  }
  for (auto& [cls, entry] : busiest) {
    simkit::Resource* resource = entry.second;
    double ready = resource->next_free() + 1.0;
    out["simkit.reserve_us." + cls] = {
        per_call_us([&] { ready = resource->reserve(ready, 1e-3) + 1.0; }),
        "us"};
  }
}

}  // namespace msrabench
