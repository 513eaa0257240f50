// msrabench: end-to-end and per-layer benchmark of the MSRA library.
//
//   msrabench --workload W [--seed S] [--seconds T] [--json OUT]
//             [--traced --trace-out TRACE]
//
// A run is several independent replicas of the workload, each on its own
// seed derived from --seed. Each repetition builds a fresh testbed, sets
// it up, drives one replica and checks its outputs; repetitions cycle
// through the replicas until --seconds of host time have passed (at least
// once through). Virtual metrics are the mean over the replicas, and every
// later repetition of a replica must reproduce them exactly; host metrics
// are medians over all repetitions. --traced (or --trace 1) then drives
// replica 0 once more with the system's span recorder and benchmark-side
// spans on, snapshots every layer, times the per-call probes against the
// end-of-run state, and sweeps the open-loop workloads at 1/4 and 1/2 of
// their request count to fit each probe's log-log slope. The last line on
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}
// — the end-to-end metrics, or the per-layer metrics when traced.
#include "msrabench.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "predict/ptool.h"

namespace msrabench {

Status Testbed::calibrate(std::vector<std::uint64_t> sizes) {
  predict::PToolConfig config;
  config.sizes = std::move(sizes);
  config.repeats = 1;
  predict::PTool ptool(system, perfdb);
  MSRA_RETURN_IF_ERROR(ptool.measure_all(config));
  system.reset_time();
  return Status::Ok();
}

SpanLog::Id SpanLog::open(std::string name, Id parent, int lane) {
  const Clock::time_point now = Clock::now();
  return add(std::move(name), parent, now, now, lane, {});
}

void SpanLog::close(Id id, std::string args) {
  Span& span = spans_[id - 1];
  span.end = Clock::now();
  span.args = std::move(args);
}

SpanLog::Id SpanLog::add(std::string name, Id parent, Clock::time_point start,
                         Clock::time_point end, int lane, std::string args) {
  const Id id = spans_.size() + 1;
  spans_.push_back({id, parent, std::move(name), start, end, lane,
                    std::move(args)});
  return id;
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (const Span& span : spans_) {
    const double ts = 1e6 * seconds_between(origin_, span.start);
    const double dur = 1e6 * seconds_between(span.start, span.end);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu",
                  span.id == 1 ? "" : ",\n", span.name.c_str(), span.lane, ts,
                  dur, static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent));
    out += buf;
    if (!span.args.empty()) {
      out += ',';
      out += span.args;
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

void Digest::add(std::span<const std::byte> bytes) {
  for (std::byte b : bytes) {
    state_ ^= static_cast<std::uint64_t>(b);
    state_ *= 0x100000001b3ull;
  }
}

void Digest::add_double(double value) {
  std::byte bytes[sizeof(double)];
  std::memcpy(bytes, &value, sizeof(double));
  add(bytes);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

namespace {

/// Set-ups per process: the repetitions' own plus set-up-only ones.
constexpr std::size_t kSetupSamples = 9;
/// A probe whose log-log slope exceeds this grows per call with N.
constexpr double kSuperlinearSlope = 0.5;
constexpr double kSweepScales[] = {0.25, 0.5, 1.0};

/// The speed of the host. The shared machines this benchmark runs on drift
/// by up to 1.5x within minutes, more than any regression bound, so host
/// times are reported on a reference host: divided by scale(), the time a
/// fixed kernel takes in this process over the kernel's nominal time. The
/// kernel walks a random cycle through 256 KiB, a core- and L2-bound pointer
/// chase; of the kernels tried it tracked the drift of all four workloads
/// best. It is the benchmark's own code, so no change to the library can
/// move it.
class HostSpeed {
 public:
  HostSpeed() : next_(kCycle) {
    std::vector<std::uint32_t> order(kCycle);
    for (std::uint32_t i = 0; i < kCycle; ++i) order[i] = i;
    Rng rng(kCycle);
    for (std::uint32_t i = kCycle - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    for (std::uint32_t i = 0; i < kCycle; ++i) {
      next_[order[i]] = order[(i + 1) % kCycle];
    }
  }

  /// Times the kernel now, keeping the median of kWalks walks.
  void sample() {
    std::array<double, kWalks> walks{};
    for (double& walk : walks) {
      const Clock::time_point start = Clock::now();
      digest_ ^= chase();
      walk = seconds_between(start, Clock::now());
    }
    std::nth_element(walks.begin(), walks.begin() + kWalks / 2, walks.end());
    samples_.push_back(walks[kWalks / 2]);
  }

  /// The median sample over the nominal time: 1 on the reference host, 2
  /// on a host running half as fast.
  double scale() const { return median(samples_) / kNominalSeconds; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr std::uint32_t kCycle = 1u << 16;
  static constexpr int kSteps = 1000000;
  static constexpr int kWalks = 7;
  /// About one walk on the four-core 2.1 GHz x86-64 box the bounds were
  /// set on.
  static constexpr double kNominalSeconds = 0.005;

  /// One walk of kSteps links; the FNV hash of the visited indexes keeps the
  /// compiler from dropping it.
  std::uint64_t chase() const {
    std::uint32_t at = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (int i = 0; i < kSteps; ++i) {
      at = next_[at];
      digest = (digest ^ at) * 0x100000001b3ull;
    }
    return digest;
  }

  std::vector<std::uint32_t> next_;
  std::uint64_t digest_ = 0;
  std::vector<double> samples_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string json_out;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "msrabench: %s\n"
               "usage: msrabench --workload fleet_fifo|qos_wfq|astro3d|"
               "cluster_cache [--seed S] [--seconds T] [--json OUT]\n"
               "                 [--traced | --trace 0|1] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--json") {
      args.json_out = value();
    } else if (flag == "--traced") {
      args.traced = true;
    } else if (flag == "--trace") {
      args.traced = value() != "0";
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "astro3d" && !is_open_loop(args.workload)) {
    usage("unknown workload");
  }
  return args;
}

RunResult run(const Args& args, const RunOptions& options) {
  return args.workload == "astro3d" ? run_astro3d(options)
                                    : run_open_loop(args.workload, options);
}

/// The seed of each replica: the first outputs of SplitMix64 over the run's
/// seed. One open-loop drive's tail latency and capacity swing ~10% between
/// seeds, and astro3d's makespan and prediction error as much with its
/// placement; the mean over five replicas (eight for astro3d) keeps a run's
/// virtual metrics steady enough to compare commits.
std::vector<std::uint64_t> replica_seeds(const Args& args) {
  SplitMix64 mix(args.seed);
  std::vector<std::uint64_t> seeds(args.workload == "astro3d" ? 8 : 5);
  for (std::uint64_t& s : seeds) s = mix.next();
  return seeds;
}

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Least-squares slope of log(value) over log(requests).
double log_log_slope(const std::vector<double>& requests,
                     const std::vector<double>& values) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] <= 0.0) return 0.0;
    const double x = std::log(requests[i]);
    const double y = std::log(values[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double den = n * sxx - sx * sx;
  return den > 0.0 ? (n * sxy - sx * sy) / den : 0.0;
}

/// First difference between two runs' virtual metrics, or "".
std::string virtual_mismatch(const RunResult& a, const RunResult& b) {
  for (const auto& [name, metric] : a.virt) {
    auto it = b.virt.find(name);
    if (it == b.virt.end() || it->second.value != metric.value) {
      return "virtual metric " + name + " differs between runs";
    }
  }
  if (a.digest != b.digest) return "outputs_digest differs between runs";
  return "";
}

void append_metrics(std::string& out, const Metrics& metrics) {
  out += '{';
  char buf[128];
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  first ? "" : ",", name.c_str(), metric.value,
                  metric.unit.c_str());
    out += buf;
    first = false;
  }
  out += '}';
}

void append_samples(std::string& out, const std::vector<double>& samples) {
  out += '[';
  char buf[32];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", samples[i]);
    out += buf;
  }
  out += ']';
}

void write_file(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "msrabench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-40s %18.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

}  // namespace
}  // namespace msrabench

int main(int argc, char** argv) {
  using namespace msrabench;
  const Args args = parse(argc, argv);

  // Untraced repetitions cycle through the replicas: the first pass gives
  // the virtual metrics, every later one must reproduce them exactly.
  const std::vector<std::uint64_t> seeds = replica_seeds(args);
  HostSpeed speed;
  std::vector<RunResult> replicas;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s, rate;
  double rss = 0.0;
  std::uint64_t attempted = 0, failed = 0, refused = 0;
  std::string error;
  auto note = [&error](const std::string& why) {
    if (error.empty()) error = why;
  };
  const Clock::time_point start = Clock::now();
  std::size_t runs = 0;
  for (; runs < seeds.size() ||
         seconds_between(start, Clock::now()) < args.seconds;
       ++runs) {
    speed.sample();
    RunResult r = run(args, {.seed = seeds[runs % seeds.size()]});
    // Peak RSS of the first repetition, which runs in a fresh process like
    // a user's run. Later ones inherit the allocator's per-thread arenas,
    // which swing astro3d's peak by 60% from run to run.
    if (runs == 0) rss = peak_rss_mb();
    note(r.error);
    if (runs >= seeds.size()) {
      note(virtual_mismatch(replicas[runs % seeds.size()], r));
    }
    setups.push_back(r.setup);
    rate.push_back(static_cast<double>(r.attempted) / r.drive_host_s);
    attempted += r.attempted;
    failed += r.failed;
    refused += r.refused;
    if (runs < seeds.size()) replicas.push_back(std::move(r));
  }
  while (setups.size() < kSetupSamples) {
    speed.sample();
    setups.push_back(is_open_loop(args.workload)
                         ? open_loop_set_up(args.workload)
                         : astro3d_set_up());
  }
  const double scale = speed.scale();
  std::vector<double> setup_build, setup_calibrate, setup_populate;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.total());
    setup_build.push_back(t.build_s);
    setup_calibrate.push_back(t.calibrate_s);
    setup_populate.push_back(t.populate_s);
  }

  Metrics e2e;
  Digest digest;
  for (const RunResult& replica : replicas) {
    for (const auto& [name, metric] : replica.virt) {
      Metric& mean = e2e[name];
      mean.value += metric.value / static_cast<double>(replicas.size());
      mean.unit = metric.unit;
    }
    digest.add(std::as_bytes(std::span(replica.digest)));
  }
  e2e["setup_s"] = {median(setup_s) / scale, "s"};
  e2e["host_req_per_s"] = {median(rate) * scale, "req/s"};
  e2e["peak_rss_mb"] = {rss, "MB"};
  if (is_open_loop(args.workload)) {
    e2e["virt_capacity_rps"] = {open_loop_capacity(args.workload, seeds),
                                "req/s"};
  }

  Metrics layers;
  if (args.traced) {
    SpanLog spans;
    const RunResult traced =
        run(args, {.seed = seeds[0], .traced = true, .spans = &spans});
    note(traced.error);
    note(virtual_mismatch(replicas[0], traced));
    Metrics raw = traced.layers;
    raw["setup.build_s"].value = median(setup_build) / scale;
    raw["setup.calibrate_s"].value = median(setup_calibrate) / scale;
    raw["setup.populate_s"].value = median(setup_populate) / scale;
    const double traced_rate =
        static_cast<double>(traced.attempted) / traced.drive_host_s;
    raw["obs.trace_overhead_pct"].value =
        100.0 * (median(rate) / traced_rate - 1.0);

    if (is_open_loop(args.workload)) {
      // Scaling sweep: the same probes at 1/4, 1/2 and all of the requests.
      std::vector<double> requests;
      std::vector<Metrics> points;
      for (const double fraction : kSweepScales) {
        const RunResult point =
            fraction == 1.0 ? traced
                            : run(args, {.seed = seeds[0], .scale = fraction,
                                         .traced = true});
        note(point.error);
        requests.push_back(static_cast<double>(point.attempted));
        points.push_back(point.layers);
      }
      for (const std::string& probe : sweep_probes()) {
        std::vector<double> values;
        for (Metrics& point : points) values.push_back(point[probe].value);
        raw[probe + ".slope"].value = log_log_slope(requests, values);
      }
    }
    for (const auto& [name, unit] : layer_catalog()) {
      auto it = raw.find(name);
      layers[name] = {it != raw.end() ? it->second.value : 0.0, unit};
    }
    if (!args.trace_out.empty()) {
      write_file(args.trace_out, spans.chrome_json());
    }
  }

  const bool correct = error.empty();
  char head[512];
  std::snprintf(head, sizeof(head),
                "{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,"
                "\"runs\":%zu,\"replicas\":%zu,\"correct\":%s,"
                "\"attempted\":%llu,\"failed\":%llu,\"refused\":%llu,"
                "\"outputs_digest\":\"%s\",",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.traced ? "true" : "false", runs, seeds.size(),
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(refused), digest.hex().c_str());
  std::string doc = head;
  doc += "\"metrics\":";
  append_metrics(doc, e2e);
  doc += ",\"layers\":";
  append_metrics(doc, layers);
  doc += ",\"host_samples\":{\"setup_s\":";
  append_samples(doc, setup_s);
  doc += ",\"host_req_per_s\":";
  append_samples(doc, rate);
  doc += ",\"host_speed_s\":";
  append_samples(doc, speed.samples());
  doc += '}';
  if (!correct) {
    doc += ",\"error\":\"";
    for (char c : error) doc += (c == '"' || c == '\\') ? '\'' : c;
    doc += '"';
  }
  doc += "}\n";
  write_file(args.json_out, doc);

  std::printf("msrabench %s seed %llu: %zu runs over %zu replicas, %llu "
              "requests, %llu failed, %llu refused, digest %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              runs, seeds.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(refused), digest.hex().c_str());
  print_metrics("end-to-end:", e2e);
  if (args.traced) {
    print_metrics("per-layer:", layers);
    std::string grows;
    for (const std::string& probe : sweep_probes()) {
      const double slope = layers[probe + ".slope"].value;
      if (slope <= kSuperlinearSlope) continue;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s %s (slope %.2f)",
                    grows.empty() ? "" : ",", probe.c_str(), slope);
      grows += buf;
    }
    if (is_open_loop(args.workload)) {
      std::printf("per-call cost grows with N in:%s\n",
                  grows.empty() ? " nothing" : grows.c_str());
    }
  }
  if (!correct) std::printf("CORRECTNESS CHECK FAILED: %s\n", error.c_str());

  std::string line = "{\"correct\":";
  line += correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(attempted);
  line += ",\"failed\":" + std::to_string(failed);
  line += ",\"metrics\":";
  append_metrics(line, args.traced ? layers : e2e);
  line += "}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
