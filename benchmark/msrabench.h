// Shared pieces of msrabench: the testbed, host-time accounting,
// benchmark-side spans, the output digest and the per-run result.
//
// Two clocks run through everything here. Host seconds are wall time on
// std::chrono::steady_clock inside this process: what someone running the
// simulator waits for (msrabench.cpp scales the end-to-end ones to a
// reference host). Virtual seconds are the model's output: what a tenant on
// the modelled testbed waits for, deterministic for a seed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/msra.h"
#include "predict/perfdb.h"
#include "predict/predictor.h"
#include "runtime/plan.h"

namespace msrabench {

using namespace msra;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The median of `values`, 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// astro3d's prt ranks, the benchmark's only threads besides main. Four
/// ranks on a four-core box leave no idle core to absorb a stalled one: one
/// busy spell on the shared host halved astro3d's host rate, while two
/// ranks ran within 7% of their quiet rate beside four busy processes.
constexpr int kAstro3dRanks = 2;

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The calibrated testbed every workload builds: the storage system, the
/// performance database PTool fills, and the predictor reading it.
struct Testbed {
  core::StorageSystem system;
  predict::PerfDb perfdb;
  predict::Predictor predictor;

  explicit Testbed(const core::HardwareProfile& profile)
      : system(profile), perfdb(&system.metadb()), predictor(&perfdb) {}

  /// PTool over every resource (the paper's single calibration run), then
  /// idle devices again.
  Status calibrate(std::vector<std::uint64_t> sizes);
};

/// Host seconds of the three set-up phases.
struct SetupTimes {
  double build_s = 0.0;      ///< construct the testbed
  double calibrate_s = 0.0;  ///< PTool calibration
  double populate_s = 0.0;   ///< write the data the requests use
  double total() const { return build_s + calibrate_s + populate_s; }
};

/// Host time spent inside one kind of call.
struct CallTimer {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  double mean_us() const {
    return calls == 0 ? 0.0 : 1e6 * seconds / static_cast<double>(calls);
  }
};

/// Benchmark-side spans in host time: one per public call into the system
/// and one per request, kept in memory and written out as Chrome
/// trace-event JSON. Untraced runs have none (a null SpanLog*).
class SpanLog {
 public:
  using Id = std::uint64_t;

  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span now.
  Id open(std::string name, Id parent, int lane = 1);
  /// Closes `id` now, attaching `args` (a JSON object body, may be empty).
  void close(Id id, std::string args = {});
  /// Records a span whose start was taken earlier (request spans).
  Id add(std::string name, Id parent, Clock::time_point start,
         Clock::time_point end, int lane, std::string args);

  /// {"traceEvents":[...]} with ts/dur in microseconds of host time.
  std::string chrome_json() const;

 private:
  struct Span {
    Id id = 0;
    Id parent = 0;
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int lane = 1;
    std::string args;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// FNV-1a over every byte the run read back.
class Digest {
 public:
  void add(std::span<const std::byte> bytes);
  void add_double(double value);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// The representative access of a workload, for the per-call probes.
struct ProbeTarget {
  std::string dataset;      ///< looked up by bare name (meta probes)
  std::string app;          ///< producer application of `dataset`
  int timestep = 0;
  core::Location location = core::Location::kRemoteDisk;
  /// Lowers the workload's representative access (runtime.lower_us).
  std::function<StatusOr<runtime::IoPlan>()> lower;
};

/// What one run of a workload produced.
struct RunResult {
  SetupTimes setup;
  double drive_host_s = 0.0;  ///< host seconds inside the system's calls
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   ///< requests whose last attempt returned an error
  std::uint64_t refused = 0;  ///< requests the admission gate turned away
  Metrics virt;               ///< virtual end-to-end metrics
  Metrics layers;             ///< per-layer metrics (traced runs)
  std::string digest;
  std::string error;  ///< why a correctness check failed ("" = passed)
};

struct RunOptions {
  std::uint64_t seed = 1;
  double scale = 1.0;     ///< fraction of the workload's request count
  /// The system's span recorder on during the drive, then the per-layer
  /// snapshot and probes.
  bool traced = false;
  SpanLog* spans = nullptr;  ///< benchmark-side spans (null = none)
};

bool is_open_loop(const std::string& workload);
RunResult run_open_loop(const std::string& workload, const RunOptions& options);
/// Highest arrival rate the workload sustains (virtual req/s; untimed):
/// the rate ladder pooled over the replica `seeds`, interpolated between
/// the last rung that meets the SLO without a growing backlog and the
/// first that does not.
double open_loop_capacity(const std::string& workload,
                          const std::vector<std::uint64_t>& seeds);
RunResult run_astro3d(const RunOptions& options);
/// Set-up alone (testbed, calibration, data): extra setup_s samples.
SetupTimes open_loop_set_up(const std::string& workload);
SetupTimes astro3d_set_up();

// ---- per-layer snapshot (layers.cpp) --------------------------------------

/// Copies what the system already counts — Eq.-1 breakdown, device loads,
/// QoS classes, the cache, run-time library counters, balancer shares —
/// into per-layer metrics. `billed_io_s` is the virtual I/O time the run
/// measured, the base of eq1.accounted_pct.
void system_layers(Testbed& bed, double billed_io_s, Metrics& out);

/// Times single public calls against the end-of-run state: catalog
/// lookups, plan lowering, pricing, balancer ordering and one device
/// booking per device class.
void probe_layers(Testbed& bed, const ProbeTarget& target, Metrics& out);

/// Every per-layer metric name with its unit, in output order; a run
/// reports each one (0 where the layer did no work).
const std::vector<std::pair<std::string, std::string>>& layer_catalog();

/// The probes the scaling sweep fits a log-log slope to.
const std::vector<std::string>& sweep_probes();

/// Status-code names core.failed.<CODE> reports; others land in OTHER.
const std::vector<std::string>& failure_codes();

}  // namespace msrabench
