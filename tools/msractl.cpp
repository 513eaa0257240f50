// msractl — command-line front end to the multi-storage resource
// architecture (the role the paper's IJ-GUI plays: submit runs, inspect the
// catalog, run post-processing, and get I/O predictions).
//
// With --root DIR, disk-resident datasets and the metadata database persist
// on the host filesystem, so workflows span processes:
//
//   msractl ptool   --root /tmp/msra
//   msractl run     --root /tmp/msra --dims 48,48,48 --iterations 24
//                   --hint temp=REMOTEDISK --hint vr_temp=LOCALDISK
//   msractl catalog --root /tmp/msra
//   msractl mse     --root /tmp/msra --dataset temp
//   msractl volren  --root /tmp/msra --dataset vr_temp --superfile
//   msractl slice   --root /tmp/msra --dataset temp --timestep 12 --index 24
//   msractl predict --root /tmp/msra --dims 128,128,128 --iterations 120
//   msractl advise  --root /tmp/msra --dims 64,64,64 --iterations 60
//
// Every command is one row of kCommands: its verbs, the options it reads
// (the same text is its usage; any other option is rejected) and its
// handler. Handlers print through Out, so --json means one thing
// everywhere: bare --json makes one JSON document the only stdout, and
// --json FILE writes that document to FILE and keeps the text on stdout.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/astro3d/astro3d.h"
#include "apps/imgview/image.h"
#include "apps/mse/mse.h"
#include "apps/vizlib/vizlib.h"
#include "apps/volren/volren.h"
#include "argparse.h"
#include "cache/cache.h"
#include "common/bytes.h"
#include "core/balancer.h"
#include "core/placement.h"
#include "flow/pricer.h"
#include "flow/run.h"
#include "obs/report.h"
#include "predict/advisor.h"
#include "predict/ptool.h"
#include "qos/admission.h"
#include "qos/policy.h"

namespace msra::tools {
namespace {

template <typename T>
T die_on_error(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    std::fprintf(stderr, "msractl: %s: %s\n", what,
                 value.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(value).value();
}

void die_on_error(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "msractl: %s: %s\n", what, status.to_string().c_str());
    std::exit(1);
  }
}

// ---- output: each record lists its columns once, for text and JSON --------

__attribute__((format(printf, 1, 2))) std::string fmt(const char* format,
                                                      ...) {
  va_list args, again;
  va_start(args, format);
  va_copy(again, args);
  const int size = std::vsnprintf(nullptr, 0, format, again);
  va_end(again);
  std::string out(static_cast<std::size_t>(std::max(size, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

/// One value of a record: its text and its JSON literal. Format strings
/// shape the text only; JSON goes through obs::json_escape/json_number.
struct Cell {
  std::string text;
  std::string json;
};

Cell str(std::string_view value, const char* format = "%s") {
  std::string json = "\"";
  obs::json_escape(json, value);
  return {fmt(format, std::string(value).c_str()), json + "\""};
}

Cell num(double value, const char* format = "") {
  std::string json;
  obs::json_number(json, value);
  return {fmt(format, value), json};
}

Cell integer(long long value, const char* format = "%lld") {
  return {fmt(format, value), std::to_string(value)};
}

Cell bytes(std::uint64_t value, const char* format = "%s") {
  return {fmt(format, format_bytes(value).c_str()), std::to_string(value)};
}

Cell flag(bool value, const char* yes = "", const char* no = "") {
  return {value ? yes : no, value ? "true" : "false"};
}

/// Renders one record, through the `columns(Row&, const Record&)` overload
/// that lists its columns in order, as a text line, as the header line of a
/// table of such records, or as a JSON object. A column with a null key is
/// text only and one with a null header is JSON only; text cells are
/// padded to |width| (negative: left-aligned) and joined by one space.
class Row {
 public:
  enum Mode { kText, kHeader, kJson };
  explicit Row(Mode mode) : mode_(mode) {}

  void col(const char* key, const char* header, int width, const Cell& cell) {
    if (mode_ == kJson && key != nullptr) {
      out_ += out_.empty() ? "\"" : ",\"";
      obs::json_escape(out_, key);
      out_ += "\":" + cell.json;
    }
    if (mode_ == kJson || header == nullptr) return;
    const std::string text = mode_ == kHeader ? header : cell.text;
    const std::size_t size = static_cast<std::size_t>(std::abs(width));
    const std::string pad(size > text.size() ? size - text.size() : 0, ' ');
    if (!first_) out_ += ' ';
    first_ = false;
    out_ += width < 0 ? text + pad : pad + text;
  }

  /// JSON mode: appends the members of `object`, itself a JSON object.
  void splice(const std::string& object) {
    if (mode_ != kJson || object.size() <= 2) return;
    if (!out_.empty()) out_ += ',';
    out_ += object.substr(1, object.size() - 2);
  }

  std::string str() const { return mode_ == kJson ? "{" + out_ + "}" : out_; }

 private:
  Mode mode_;
  bool first_ = true;
  std::string out_;
};

template <typename T>
std::string render(const T& record, Row::Mode mode) {
  Row row(mode);
  columns(row, record);
  return row.str();
}

template <typename T>
Cell json_array(const std::vector<T>& records) {
  std::string json = "[";
  for (const T& record : records) {
    if (json.size() > 1) json += ',';
    json += render(record, Row::kJson);
  }
  return {"", json + "]"};
}

/// One command's output: text lines, and a JSON document built from the
/// members the command adds as it goes.
class Out {
 public:
  explicit Out(const Args& args)
      : json_(args.has("json")), path_(args.get("json")) {}

  /// Prints unless a bare --json asked for the JSON document alone.
  __attribute__((format(printf, 2, 3))) void print(const char* format,
                                                   ...) const {
    if (json_ && path_.empty()) return;
    va_list args;
    va_start(args, format);
    std::vprintf(format, args);
    va_end(args);
  }

  void member(const char* key, const Cell& value) {
    doc_.col(key, nullptr, 0, value);
  }

  /// Adds the members of `object`, itself a JSON object, to the document.
  void splice(const std::string& object) { doc_.splice(object); }

  /// Prints `value`'s text columns as one line (when it has any) and adds
  /// its JSON members to the document.
  template <typename T>
  void record(const T& value) {
    const std::string line = render(value, Row::kText);
    if (!line.empty()) print("%s\n", line.c_str());
    splice(render(value, Row::kJson));
  }

  /// Text only: `records` under their header line, or each after `indent`.
  template <typename T>
  void rows(const std::vector<T>& records, const char* indent = nullptr) {
    if (indent == nullptr) print("%s\n", render(T{}, Row::kHeader).c_str());
    for (const T& value : records) {
      print("%s%s\n", indent ? indent : "", render(value, Row::kText).c_str());
    }
  }

  /// rows() plus the records as the JSON array member `key`.
  template <typename T>
  void table(const char* key, const std::vector<T>& records,
             const char* indent = nullptr) {
    member(key, json_array(records));
    rows(records, indent);
  }

  /// Emits the JSON document, when --json asked for one and the command
  /// built one, and returns `code` (1 when FILE cannot be written).
  int finish(int code) const {
    const std::string json = doc_.str();
    if (!json_ || json == "{}") return code;
    std::FILE* file = path_.empty() ? stdout : std::fopen(path_.c_str(), "w");
    bool ok = file != nullptr &&
              std::fprintf(file, "%s\n", json.c_str()) >= 0;
    if (file != nullptr && file != stdout) ok = std::fclose(file) == 0 && ok;
    if (ok) return code;
    std::fprintf(stderr, "msractl: cannot write %s\n", path_.c_str());
    return 1;
  }

 private:
  bool json_;
  std::string path_;
  Row doc_{Row::kJson};
};

// ---- shared option readers and bootstrap -----------------------------------

std::array<std::uint64_t, 3> dims_from(const Args& args) {
  std::array<std::uint64_t, 3> dims = {64, 64, 64};
  const std::string text = args.get("dims");
  std::size_t start = 0;
  for (std::size_t i = 0; i < dims.size() && !text.empty(); ++i) {
    const std::size_t end = i < 2 ? text.find(',', start) : text.size();
    if (end == std::string::npos) {
      throw UsageError("--dims '" + text + "' wants X,Y,Z");
    }
    dims[i] = Args::to_number("--dims", text.substr(start, end - start), 1);
    start = end + 1;
  }
  return dims;
}

apps::astro3d::Config config_from(const Args& args) {
  apps::astro3d::Config config;
  config.dims = dims_from(args);
  config.iterations = args.get_int("iterations", 24);
  config.analysis_freq = args.get_int("analysis-freq", 6, 1);
  config.viz_freq = args.get_int("viz-freq", 6, 1);
  config.checkpoint_freq = args.get_int("checkpoint-freq", 6, 1);
  config.nprocs = args.get_int("nprocs", 4);
  config.default_location =
      die_on_error(core::parse_location(args.get("default", "REMOTETAPE")),
                   "bad --default");
  for (const auto& [name, location] : args.get_specs("hint", nullptr)) {
    config.hints[name] = die_on_error(core::parse_location(location),
                                      "bad hint location");
  }
  return config;
}

// --load N (concurrent clients) and --util U (background device utilization
// in [0, 1)) switch the predictor into load-aware pricing. Omitting both
// keeps the classic dedicated-system prediction.
predict::LoadAssumptions load_from(const Args& args, const Out& out) {
  predict::LoadAssumptions load;
  load.clients = args.get_int("load", 1, 1);
  load.utilization = args.get_double("util", 0.0);
  if (load.utilization < 0.0 || load.utilization >= 1.0) {
    throw UsageError("--util wants a fraction in [0, 1)");
  }
  if (!load.dedicated()) {
    out.print("load-aware: %.0f concurrent client(s), %.0f%% background "
              "utilization\n",
              load.clients, load.utilization * 100.0);
  }
  return load;
}

/// Catalog instances of dataset `name`, given bare ("temp") or as its full
/// key ("astro3d/temp").
std::vector<core::InstanceRecord> instances_named(
    const core::MetaCatalog& catalog, const std::string& name) {
  std::vector<core::InstanceRecord> matches;
  for (core::InstanceRecord& record : catalog.all_instances()) {
    if (record.dataset_key == name ||
        core::MetaCatalog::split_key(record.dataset_key).second == name) {
      matches.push_back(std::move(record));
    }
  }
  return matches;
}

std::unique_ptr<core::StorageSystem> make_system(const Args& args) {
  core::HardwareProfile profile = core::HardwareProfile::paper_2000();
  // --tape-cache MB enables the HPSS staging hierarchy.
  if (const std::uint64_t bytes = args.get_mb("tape-cache", 0, 0); bytes) {
    profile.tape_cache_bytes = bytes;
    profile.tape_cache.cache_disk = profile.remote_disk;
  }
  // --servers N scales the SRB cluster out to N server sites (each with its
  // own remote disk/tape resources and WAN links).
  const int servers = args.get_int("servers", 1);
  if (servers > 1) profile.cluster.servers = servers;
  auto system = std::make_unique<core::StorageSystem>(profile, args.get("root"));
  // --balancer picks the replica/server routing policy for every read this
  // invocation performs.
  if (args.has("balancer")) {
    system->balancer().set_policy(die_on_error(
        core::parse_balancer_policy(args.get("balancer")), "bad --balancer"));
  }
  // A persisted QoS policy (set with `msractl qos`) governs every
  // invocation against the same data root.
  StatusOr<qos::QosConfig> qos_config = qos::load_config(system->metadb());
  if (qos_config.ok()) {
    die_on_error(system->enable_qos(*qos_config), "installing qos policy");
  }
  return system;
}

/// What every command runs against: the system, its performance database
/// and the predictor over it. The metadata is saved on the way out.
struct Env {
  std::unique_ptr<core::StorageSystem> system;
  predict::PerfDb perfdb;
  predict::Predictor predictor;

  explicit Env(const Args& args)
      : system(make_system(args)),
        perfdb(&system->metadb()),
        predictor(&perfdb) {}
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    Status status = system->save_metadata();
    if (!status.ok()) {
      std::fprintf(stderr, "msractl: metadata save failed: %s\n",
                   status.to_string().c_str());
    }
  }
};

// ---- run, predict and inspect ----------------------------------------------

int cmd_ptool(Env& env, const Args& args, Out& out, const std::string&) {
  predict::PToolConfig config;
  config.repeats = args.get_int("repeats", 3);
  config.measure_contended = args.has("contended");
  config.measure_cache = args.has("cache");
  // The cache probe needs a live cache endpoint; a default-sized one is
  // fine — the perf_cache_* tables only depend on the cache's cost model.
  if (config.measure_cache && env.system->cache() == nullptr) {
    env.system->enable_cache(cache::CacheConfig{}, nullptr);
  }
  predict::PTool ptool(*env.system, env.perfdb);
  die_on_error(ptool.measure_all(config), "ptool");
  out.print("performance database populated: %zu transfer points, "
            "fixed costs for 3 resources x 2 directions\n",
            env.perfdb.rw_point_count());
  if (config.measure_contended) {
    out.print("contended curves measured at");
    for (int clients : config.contended_levels) out.print(" %d", clients);
    out.print(" concurrent client(s)\n");
  }
  if (config.measure_cache) {
    out.print("cache tier probed into perf_cache_* (fixed costs + %zu read "
              "points)\n",
              config.sizes.size());
  }
  return 0;
}

core::Location resolved(const core::DatasetDesc& desc) {
  return desc.location == core::Location::kAuto ? core::Location::kRemoteTape
                                                : desc.location;
}

int cmd_predict(Env& env, const Args& args, Out& out, const std::string&) {
  const auto config = config_from(args);
  std::vector<std::pair<core::DatasetDesc, core::Location>> plan;
  for (const auto& desc : apps::astro3d::dataset_descs(config)) {
    plan.emplace_back(desc, resolved(desc));
  }
  const predict::LoadAssumptions load = load_from(args, out);
  auto prediction = die_on_error(
      env.predictor.predict_run(plan, config.iterations, config.nprocs,
                                predict::IoOp::kWrite, load),
      "prediction (run `msractl ptool` first?)");
  out.print("%-16s %-12s %6s %14s\n", "NAME", "LOCATION", "DUMPS",
            "VIRTUALTIME(s)");
  for (const auto& d : prediction.datasets) {
    out.print("%-16s %-12s %6llu %14.2f\n", d.name.c_str(),
              core::location_name(d.location).data(),
              static_cast<unsigned long long>(d.dumps), d.total);
  }
  out.print("%-16s %-12s %6s %14.2f\n", "TOTAL", "", "", prediction.total);
  return 0;
}

std::string_view plan_stage_kind_name(runtime::PlanStageKind kind) {
  switch (kind) {
    case runtime::PlanStageKind::kSetup: return "setup";
    case runtime::PlanStageKind::kIo: return "io";
    case runtime::PlanStageKind::kCopy: return "copy";
    case runtime::PlanStageKind::kTeardown: return "teardown";
    case runtime::PlanStageKind::kExchange: return "exchange";
    case runtime::PlanStageKind::kSession: return "session";
  }
  return "?";
}

/// One stage of an explained plan: its price and the lowered stage.
using ExplainStage = std::pair<predict::StagePrice, runtime::PlanStage>;

void columns(Row& r, const ExplainStage& x) {
  const predict::StagePrice& price = x.first;
  Cell ops = integer(x.second.ops.size(), "%2lld op(s)");
  Cell seconds = num(price.seconds, " %12.6f s");
  if (price.kind == runtime::PlanStageKind::kExchange) {
    ops.text = bytes(x.second.exchange_bytes, "%10s shuffled  ").text;
    seconds.text = "(no native I/O)";
  }
  r.col("kind", "", -9, str(plan_stage_kind_name(price.kind)));
  r.col("label", "", -24, str(price.label));
  r.col("repeat", "", 0, integer(price.repeat, "x%-6lld"));
  r.col("ops", "", 0, ops);
  r.col("seconds", "", 0, seconds);
}

// Lowers one dataset's per-dump access to the same IoPlan the runtime
// executes and the predictor prices, then prints the stage tree with
// per-stage Eq. (1) costs. The total is the exact `msractl predict` number.
int cmd_explain(Env& env, const Args& args, Out& out, const std::string&) {
  const auto config = config_from(args);
  std::string name = args.get("dataset");
  if (!args.positional().empty()) name = args.positional().front();
  if (name.empty()) throw UsageError("explain wants a dataset name");
  const auto descs = apps::astro3d::dataset_descs(config);
  const auto desc = std::find_if(descs.begin(), descs.end(),
                                 [&](const auto& d) { return d.name == name; });
  if (desc == descs.end()) {
    std::string known;
    for (const auto& d : descs) known += " " + d.name;
    throw UsageError("unknown dataset '" + name + "'; run datasets:" + known);
  }
  const core::Location location = resolved(*desc);
  const bool read = args.get("op", "write") == "read";
  const predict::IoOp op = read ? predict::IoOp::kRead : predict::IoOp::kWrite;
  const predict::LoadAssumptions load = load_from(args, out);
  auto prediction = die_on_error(
      env.predictor.predict_dataset(*desc, location, config.iterations,
                                    config.nprocs, op,
                                    predict::FastPathAssumptions{}, load),
      "prediction (run `msractl ptool` first?)");
  out.member("dataset", str(desc->name));
  out.member("location", str(core::location_name(location)));
  if (prediction.location == core::Location::kDisable) {
    out.print("%s: DISABLE — never dumped, zero I/O cost\n", name.c_str());
    out.member("total", num(0.0));
    return 0;
  }
  // Rebuild the plan the prediction priced, for the stage breakdown.
  auto decomp = die_on_error(
      prt::Decomposition::create(desc->dims, config.nprocs, desc->pattern),
      "decompose");
  runtime::ArrayLayout layout{decomp, core::element_size(desc->etype)};
  auto plan = die_on_error(
      runtime::PlanBuilder::dataset_dump(
          layout, desc->method, desc->aggregators,
          read ? runtime::PlanDir::kRead : runtime::PlanDir::kWrite),
      "lowering");
  auto prices =
      die_on_error(env.predictor.price_stages(plan, location, load), "pricing");
  std::vector<ExplainStage> stages;
  for (std::size_t i = 0; i < prices.size(); ++i) {
    stages.emplace_back(prices[i], plan.stages[i]);
  }
  out.print("%s: %s %s, pattern %s, %s on %s\n", desc->name.c_str(),
            fmt("%llux%llux%llu",
                static_cast<unsigned long long>(desc->dims[0]),
                static_cast<unsigned long long>(desc->dims[1]),
                static_cast<unsigned long long>(desc->dims[2]))
                .c_str(),
            core::element_type_name(desc->etype).data(), desc->pattern.c_str(),
            runtime::io_method_name(desc->method).data(),
            core::location_name(location).data());
  out.print("lowered %s plan, one dump (%d rank(s)%s%s%s):\n",
            io_op_name(op).data(), config.nprocs,
            plan.vectored ? ", vectored" : "",
            plan.pipelined ? ", pipelined" : "",
            plan.pooled ? ", pooled connections" : "");
  out.table("stages", stages, "  ");
  out.print("per dump: %llu call(s) x %s -> t_j(s) = %.6f s\n",
            static_cast<unsigned long long>(prediction.calls_per_dump),
            format_bytes(prediction.call_bytes).c_str(),
            prediction.call_time);
  out.print("dumps %llu, connection setup %.6f s\n",
            static_cast<unsigned long long>(prediction.dumps),
            prediction.connection_time);
  out.print("predicted I/O time %.2f simulated s (= `msractl predict` row)\n",
            prediction.total);
  out.member("direction", str(io_op_name(op)));
  out.member("method", str(runtime::io_method_name(desc->method)));
  out.member("vectored", flag(plan.vectored));
  out.member("pipelined", flag(plan.pipelined));
  out.member("pooled", flag(plan.pooled));
  out.member("dumps", integer(prediction.dumps));
  out.member("calls_per_dump", integer(prediction.calls_per_dump));
  out.member("call_bytes", integer(prediction.call_bytes));
  out.member("call_time", num(prediction.call_time));
  out.member("connection_time", num(prediction.connection_time));
  out.member("total", num(prediction.total));
  return 0;
}

int cmd_advise(Env& env, const Args& args, Out& out, const std::string&) {
  auto config = config_from(args);
  config.default_location = core::Location::kAuto;  // let the advisor decide
  predict::PlacementAdvisor advisor(*env.system, env.predictor);
  auto plan = die_on_error(
      advisor.recommend_run(apps::astro3d::dataset_descs(config),
                            config.iterations, config.nprocs),
      "advice (run `msractl ptool` first?)");
  out.print("%-16s %-12s\n", "NAME", "RECOMMENDED");
  for (const auto& [name, location] : plan) {
    out.print("%-16s %-12s\n", name.c_str(),
              core::location_name(location).data());
  }
  return 0;
}

int cmd_run(Env& env, const Args& args, Out& out, const std::string&) {
  auto config = config_from(args);
  config.resume = args.has("resume");
  core::Session session(*env.system,
                        {.application = args.get("app", "astro3d"),
                         .user = args.get("user", "demo"),
                         .nprocs = config.nprocs,
                         .iterations = config.iterations});
  auto result = die_on_error(apps::astro3d::run(session, config), "run");
  out.print("run complete: %llu dumps, %s written, I/O time %.1f simulated s"
            "%s\n",
            static_cast<unsigned long long>(result.dumps),
            format_bytes(result.bytes_written).c_str(), result.io_time,
            result.start_iteration > 0 ? " (resumed)" : "");
  for (const auto& [name, location] : result.placements) {
    out.print("  %-16s -> %s\n", name.c_str(),
              core::location_name(location).data());
  }
  return 0;
}

int cmd_mse(Env& env, const Args& args, Out& out, const std::string&) {
  core::Session session(*env.system, {.application = "msractl-mse"});
  auto result = die_on_error(
      apps::mse::run(session, {.dataset = args.get("dataset", "temp"),
                               .nprocs = args.get_int("nprocs", 4)}),
      "mse");
  for (std::size_t i = 0; i < result.mse.size(); ++i) {
    out.print("t%4d -> t%4d : %.8f\n", result.timesteps[i],
              result.timesteps[i + 1], result.mse[i]);
  }
  out.print("read I/O: %.1f simulated s\n", result.io_time);
  return 0;
}

int cmd_volren(Env& env, const Args& args, Out& out, const std::string&) {
  core::Session session(*env.system, {.application = "msractl-volren"});
  apps::volren::Config config;
  config.dataset = args.get("dataset", "vr_temp");
  config.width = args.get_int("width", 128);
  config.height = args.get_int("height", 128);
  config.nprocs = args.get_int("nprocs", 4);
  config.use_superfile = args.has("superfile");
  config.image_location = die_on_error(
      core::parse_location(args.get("images", "LOCALDISK")), "bad --images");
  auto result = die_on_error(apps::volren::run(session, config), "volren");
  out.print("%d images rendered (read %.1f s, write %.1f s)%s\n",
            result.images, result.read_io_time, result.write_io_time,
            config.use_superfile ? " [superfile]" : "");
  return 0;
}

int cmd_slice(Env& env, const Args& args, Out& out, const std::string&) {
  core::Session session(*env.system, {.application = "msractl-slice"});
  auto handle = die_on_error(
      session.open_existing(args.get("dataset", "temp")), "open dataset");
  simkit::Timeline tl;
  const auto axis_name = args.get("axis", "z");
  const auto axis = axis_name == "x"   ? apps::vizlib::Axis::kX
                    : axis_name == "y" ? apps::vizlib::Axis::kY
                                       : apps::vizlib::Axis::kZ;
  auto image = die_on_error(
      apps::vizlib::extract_slice(*handle, args.get_int("timestep", 0), axis,
                                  args.get_int("index", 0), {.timeline = &tl}),
      "slice");
  out.print("%s", apps::imgview::ascii_render(image, 64).c_str());
  out.print("(read %.2f simulated s)\n", tl.now());
  return 0;
}

int cmd_replicate(Env& env, const Args& args, Out& out, const std::string&) {
  core::Session session(*env.system, {.application = "msractl-replicate"});
  auto handle = die_on_error(
      session.open_existing(args.get("dataset", "temp")), "open dataset");
  // --to accepts server-qualified addresses ("REMOTEDISK@1"); a bare
  // location name is server 0.
  const auto destination = die_on_error(
      core::parse_address(args.get("to", "LOCALDISK")), "bad --to");
  simkit::Timeline tl;
  const int timestep = args.get_int("timestep", 0);
  die_on_error(
      handle->replicate_timestep(timestep, destination, {.timeline = &tl}),
      "replicate");
  out.print("replicated %s t%d to %s in %.2f simulated s; replicas now:",
            handle->desc().name.c_str(), timestep,
            core::address_name(destination).c_str(), tl.now());
  for (core::ReplicaAddress address : handle->replica_addresses(timestep)) {
    out.print(" %s", core::address_name(address).c_str());
  }
  out.print("\n");
  return 0;
}

int cmd_histogram(Env& env, const Args& args, Out& out, const std::string&) {
  core::Session session(*env.system, {.application = "msractl-histogram"});
  auto handle = die_on_error(
      session.open_existing(args.get("dataset", "temp")), "open dataset");
  if (handle->desc().etype != core::ElementType::kFloat32) {
    std::fprintf(stderr, "msractl: histogram expects a float dataset\n");
    return 1;
  }
  simkit::Timeline tl;
  const int timestep = args.get_int("timestep", 0);
  auto raw =
      die_on_error(handle->read_whole(timestep, {.timeline = &tl}), "read");
  std::vector<float> volume(raw.size() / sizeof(float));
  std::memcpy(volume.data(), raw.data(), raw.size());
  const auto [low, high] = std::minmax_element(volume.begin(), volume.end());
  const float lo = *low, hi = *high;
  auto bins = apps::vizlib::field_histogram(volume, lo, hi, 16);
  const std::uint64_t peak =
      std::max<std::uint64_t>(1, *std::max_element(bins.begin(), bins.end()));
  out.print("%s t%d: min %.4f max %.4f (read %.2f simulated s)\n",
            handle->desc().name.c_str(), timestep, lo, hi, tl.now());
  for (std::size_t b = 0; b < bins.size(); ++b) {
    const float edge = lo + (hi - lo) * static_cast<float>(b) / 16.0f;
    const int bar = static_cast<int>(48 * bins[b] / peak);
    out.print("%10.4f | %-48.*s %llu\n", edge, bar,
              "################################################",
              static_cast<unsigned long long>(bins[b]));
  }
  return 0;
}

int cmd_catalog(Env& env, const Args&, Out& out, const std::string&) {
  const core::MetaCatalog& catalog = env.system->catalog();
  out.print("%-12s %-16s %-10s %-6s %-14s %-12s %6s\n", "APP", "NAME",
            "AMODE", "ETYPE", "DIMS", "LOCATION", "DUMPS");
  for (const auto& record : catalog.all_datasets()) {
    const core::DatasetDesc& desc = record.desc;
    out.print("%-12s %-16s %-10s %-6s %-14s %-12s %6zu\n", record.app.c_str(),
              desc.name.c_str(), core::access_mode_name(desc.amode).data(),
              core::element_type_name(desc.etype).data(),
              fmt("%llu,%llu,%llu",
                  static_cast<unsigned long long>(desc.dims[0]),
                  static_cast<unsigned long long>(desc.dims[1]),
                  static_cast<unsigned long long>(desc.dims[2]))
                  .c_str(),
              core::location_name(record.resolved).data(),
              catalog.instances(record.app, desc.name).size());
  }
  return 0;
}

// ---- resources and cluster -------------------------------------------------

/// One (class, server) resource: the operator's view the planner prices
/// against. A capacity of UINT64_MAX means unbounded.
struct ResourceRow {
  core::ReplicaAddress address;
  bool up = false;
  std::uint64_t capacity = 0;
  std::uint64_t used = 0;
  std::uint64_t free = 0;
  std::uint64_t replicas = 0;
};

void columns(Row& r, const ResourceRow& x) {
  const bool bounded = x.capacity != UINT64_MAX;
  r.col("name", "RESOURCE", -14, str(core::address_name(x.address)));
  r.col("server", nullptr, 0, integer(x.address.server));
  r.col("up", "STATE", -6, flag(x.up, "up", "DOWN"));
  r.col("capacity", "CAPACITY", 12,
        bounded ? bytes(x.capacity) : Cell{"-", "-1"});
  r.col("used", "USED", 12, bytes(x.used));
  r.col("free", "FREE", 12, bounded ? bytes(x.free) : Cell{"-", "-1"});
  r.col("replicas", "REPLICAS", 9, integer(x.replicas));
}

// One row per (class, server) in static (failover) order; a single-server
// cluster prints exactly the classic three rows.
int cmd_resources(Env& env, const Args&, Out& out, const std::string&) {
  core::StorageSystem& system = *env.system;
  std::map<std::pair<int, int>, std::uint64_t> replicas;
  const core::MetaCatalog& catalog = system.catalog();
  for (const core::InstanceRecord& record : catalog.all_instances()) {
    for (core::ReplicaAddress address : record.replicas) {
      ++replicas[{static_cast<int>(address.location), address.server}];
    }
  }
  std::vector<ResourceRow> rows;
  for (const core::ServerQuote& quote :
       system.balancer().quote_table(1, nullptr)) {
    runtime::StorageEndpoint& endpoint = system.endpoint(quote.address);
    rows.push_back({quote.address, quote.available, endpoint.capacity(),
                    endpoint.used(), endpoint.free_bytes(),
                    replicas[{static_cast<int>(quote.address.location),
                              quote.address.server}]});
  }
  out.table("resources", rows);
  return 0;
}

/// One server site: state, usage and queueing over its shared devices.
struct SiteRow {
  int server = 0;
  std::string name;
  bool disk_up = false;
  bool tape_up = false;
  std::uint64_t disk_capacity = 0;
  std::uint64_t disk_used = 0;
  std::uint64_t tape_used = 0;
  double utilization = 0.0;
  double mean_wait = 0.0;
};

Cell percent(double fraction) {
  return {fmt("%.0f%%", fraction * 100.0), num(fraction).json};
}

void columns(Row& r, const SiteRow& x) {
  r.col("server", "SERVER", -6, integer(x.server));
  r.col("name", "SITE", -8, str(x.name));
  r.col("disk_up", "DISK", -6, flag(x.disk_up, "up", "DOWN"));
  r.col("tape_up", "TAPE", -6, flag(x.tape_up, "up", "DOWN"));
  r.col("disk_capacity", "CAPACITY", 12, bytes(x.disk_capacity));
  r.col("disk_used", "USED(DISK)", 12, bytes(x.disk_used));
  r.col("tape_used", "USED(TAPE)", 12, bytes(x.tape_used));
  r.col("utilization", "UTIL", 6, percent(x.utilization));
  r.col("queue_wait", "QWAIT", 10, num(x.mean_wait, "%.3fs"));
}

void columns(Row& r, const core::ServerQuote& x) {
  Cell quote = num(x.seconds, "%.3fs");
  if (x.seconds < 0.0) quote.text = "unpriced";
  r.col("address", "ADDRESS", -14, str(core::address_name(x.address)));
  r.col("up", "STATE", -6, flag(x.available, "up", "DOWN"));
  r.col("utilization", "UTIL", 6, percent(x.utilization));
  r.col("seconds", "QUOTE", 12, quote);
}

// Per-server cluster view plus the balancer's live quote table — what the
// cheapest-quote policy sees when it routes a read.
int cmd_cluster(Env& env, const Args& args, Out& out, const std::string&) {
  core::StorageSystem& system = *env.system;
  const std::uint64_t probe_bytes = args.get_mb("size-mb", 16, 1);
  std::vector<SiteRow> sites;
  for (int s = 0; s < system.cluster_size(); ++s) {
    core::ServerSite& site = system.site(s);
    const core::ReplicaAddress disk_address{core::Location::kRemoteDisk, s};
    const core::ReplicaAddress tape_address{core::Location::kRemoteTape, s};
    runtime::StorageEndpoint& disk = system.endpoint(disk_address);
    runtime::StorageEndpoint& tape = system.endpoint(tape_address);
    std::vector<simkit::Resource*> devices = {
        &site.disk_resource().arm(), &site.server().cpu(),
        &site.disk_link().pipe(), &site.tape_link().pipe()};
    if (site.hsm() != nullptr) devices.push_back(&site.hsm()->cache_arm());
    for (auto& [name, resource] : site.tape_library().contended_resources()) {
      devices.push_back(resource);
    }
    std::uint64_t reservations = 0;
    double total_wait = 0.0;
    for (simkit::Resource* device : devices) {
      reservations += device->queue_stats().reservations;
      total_wait += device->queue_stats().total_wait;
    }
    sites.push_back(
        {s, site.server().name(), disk.available(), tape.available(),
         disk.capacity(), disk.used(), tape.used(),
         std::max(system.balancer().observed_utilization(disk_address),
                  system.balancer().observed_utilization(tape_address)),
         reservations > 0 ? total_wait / static_cast<double>(reservations)
                          : 0.0});
  }
  const std::string_view policy =
      core::balancer_policy_name(system.balancer().policy());
  out.member("servers", integer(system.cluster_size()));
  out.member("policy", str(policy));
  out.print("cluster: %d server site(s), balancer policy %s\n",
            system.cluster_size(), std::string(policy).c_str());
  out.table("sites", sites);
  out.print("\nquote table (%s object read):\n",
            format_bytes(probe_bytes).c_str());
  out.table("quotes",
            system.balancer().quote_table(probe_bytes, &env.predictor));
  return 0;
}

// ---- migrate ---------------------------------------------------------------

// The AccessTracker is in-process, so a fresh CLI process starts cold.
// --hot name[=reads] (repeatable) synthesizes read heat for a dataset so
// planning decisions are reproducible from the shell.
void seed_heat(core::StorageSystem& system, const Args& args) {
  for (const auto& [name, text] : args.get_specs("hot", "4")) {
    const int reads = Args::to_number("--hot " + name, text, 0);
    const auto instances = instances_named(system.catalog(), name);
    if (instances.empty()) {
      std::fprintf(stderr, "msractl: --hot %s matches no dumped instance\n",
                   name.c_str());
    }
    for (const core::InstanceRecord& record : instances) {
      for (int i = 0; i < reads; ++i) {
        system.access_tracker().record_read(record.dataset_key, record.bytes,
                                            0.0);
      }
    }
  }
}

// `migrate` prints the mover's tasks and outcomes in its own columns (`flow`
// prints the same types its way); these records select them.
struct Move {
  flow::StageTask task;
};

struct MoveOutcome {
  flow::StageOutcome outcome;
};

/// One planned round.
struct MovePlan {
  std::vector<Move> steps;
};

/// One executed round.
struct MoveReport {
  std::vector<MoveOutcome> outcomes;

  long long failures() const {
    return std::count_if(outcomes.begin(), outcomes.end(),
                         [](const auto& o) { return !o.outcome.status.ok(); });
  }
};

void columns(Row& r, const Move& move) {
  const flow::StageTask& x = move.task;
  const std::string from = core::address_name(x.from);
  const std::string to = core::address_name(x.to);
  const bool evict = x.kind == flow::StageTaskKind::kEvict;
  r.col("kind", "KIND", -8, str(flow::stage_task_kind_name(x.kind)));
  r.col("dataset", "DATASET", -20, str(x.app + "/" + x.name));
  r.col("timestep", "T", 5, integer(x.timestep));
  r.col(nullptr, "MOVE", -26, str(evict ? "drop @" + from : from + " -> " + to));
  r.col("from", nullptr, 0, str(from));
  r.col("to", nullptr, 0, str(to));
  r.col("bytes", "BYTES", 10, bytes(x.bytes));
  r.col("drop_source", nullptr, 0, flag(x.drop_source));
  r.col("benefit", "BENEFIT", 10, num(x.benefit, "%.3fs"));
  r.col("cost", "COST", 10, num(x.cost, "%.3fs"));
}

void columns(Row& r, const MovePlan& x) {
  std::uint64_t total_bytes = 0;
  double benefit = 0.0;
  double cost = 0.0;
  for (const Move& move : x.steps) {
    if (move.task.kind != flow::StageTaskKind::kEvict) {
      total_bytes += move.task.bytes;
    }
    benefit += move.task.benefit;
    cost += move.task.cost;
  }
  Cell steps = json_array(x.steps);
  steps.text = fmt("%zu step(s),", x.steps.size());
  r.col("steps", "", 0, steps);
  r.col("total_bytes", "", 0, bytes(total_bytes, "%s payload,"));
  r.col("predicted_benefit", "", 0, num(benefit, "predicted benefit %.3f s,"));
  r.col("predicted_cost", "", 0, num(cost, "predicted cost %.3f s"));
}

void columns(Row& r, const MoveOutcome& move) {
  const flow::StageOutcome& x = move.outcome;
  std::string detail = x.status.to_string();
  if (x.status.ok()) {
    detail = fmt("priced %8.3fs executed %8.3fs", x.priced_cost,
                 x.executed_seconds);
  }
  if (x.status.ok() && x.throttle_wait > 0.0) {
    detail += fmt(" (throttled +%.3fs)", x.throttle_wait);
  }
  r.col(nullptr, "", -4, str(x.status.ok() ? "ok" : "FAIL"));
  r.col(nullptr, "", -52, str(x.task.label()));
  r.col(nullptr, "", 0, str(detail));
  r.col("step", nullptr, 0, {"", render(Move{x.task}, Row::kJson)});
  r.col("ok", nullptr, 0, flag(x.status.ok()));
  r.col("priced_cost", nullptr, 0, num(x.priced_cost));
  r.col("executed_seconds", nullptr, 0, num(x.executed_seconds));
  r.col("throttle_wait", nullptr, 0, num(x.throttle_wait));
}

void columns(Row& r, const MoveReport& x) {
  std::uint64_t moved_bytes = 0;
  long long dropped_replicas = 0;
  double executed_seconds = 0.0;
  for (const MoveOutcome& move : x.outcomes) {
    const flow::StageOutcome& outcome = move.outcome;
    executed_seconds += outcome.executed_seconds;
    if (!outcome.status.ok()) continue;
    if (outcome.task.kind != flow::StageTaskKind::kEvict) {
      moved_bytes += outcome.task.bytes;
    }
    if (outcome.task.drop_source) ++dropped_replicas;
  }
  r.col("outcomes", nullptr, 0, json_array(x.outcomes));
  r.col("moved_bytes", "", 0, bytes(moved_bytes, "moved %s,"));
  r.col("dropped_replicas", "", 0,
        integer(dropped_replicas, "dropped %lld source replica(s),"));
  r.col("executed_seconds", "", 0,
        num(executed_seconds, "executed %.3f simulated s,"));
  r.col("failures", "", 0, integer(x.failures(), "%lld failure(s)"));
}

int cmd_migrate(Env& env, const Args& args, Out& out,
                const std::string& verb) {
  seed_heat(*env.system, args);
  flow::StagingConfig staging;
  staging.throttle_bytes_per_sec = args.get_mb("throttle-mb", 0, 0);
  flow::MigrationConfig config;
  config.max_batch_bytes = args.get_mb("batch-mb", 0, 0);
  config.hot_reads = args.get_int("hot-reads", 2, 0);
  config.pressure_watermark =
      args.get_double("pressure", config.pressure_watermark);
  config.target_watermark = args.get_double("target", config.target_watermark);
  flow::StagingScheduler stager(*env.system, env.predictor, staging);
  if (verb == "plan") {
    MovePlan plan;
    for (flow::StageTask& task :
         die_on_error(stager.plan_migration(config),
                      "migration planning (run `msractl ptool` first?)")) {
      plan.steps.push_back({std::move(task)});
    }
    out.rows(plan.steps);
    out.record(plan);
    return 0;
  }
  // One round: plan, then execute the plan through the mover.
  auto run_once = [&] {
    MoveReport report;
    for (flow::StageOutcome& outcome : stager.execute(
             die_on_error(stager.plan_migration(config),
                          "migration (run `msractl ptool` first?)"))) {
      report.outcomes.push_back({std::move(outcome)});
    }
    return report;
  };
  if (verb == "run") {
    MoveReport report = run_once();
    out.rows(report.outcomes, "  ");
    out.record(report);
    return report.failures() == 0 ? 0 : 1;
  }
  // watch: run rounds until the planner finds nothing more to do.
  const int rounds = args.get_int("rounds", 10);
  std::vector<MoveReport> reports;
  long long failures = 0;
  for (int round = 1; round <= rounds; ++round) {
    reports.push_back(run_once());
    const MoveReport& report = reports.back();
    failures += report.failures();
    if (report.outcomes.empty()) {
      out.print("round %d: catalog stable, nothing to migrate\n", round);
      break;
    }
    out.print("round %d:\n", round);
    out.rows(report.outcomes, "  ");
    out.print("%s\n", render(report, Row::kText).c_str());
  }
  out.member("rounds", json_array(reports));
  return failures == 0 ? 0 : 1;
}

// ---- flow: whole-campaign scheduling ---------------------------------------

/// The canonical Astro3D-shaped campaign over one dataset: sim dumps
/// `--timesteps` frames, mse reads every frame back, viz reads them again
/// after mse — two declared readers per frame, which is what makes
/// pre-staging pay for itself. Unregistered datasets are placed and
/// registered first so the pricer has a resolved placement to quote.
flow::Campaign flow_campaign(const Args& args, core::StorageSystem& system) {
  const std::string dataset = args.get("dataset", "temp");
  const int timesteps = std::max(1, args.get_int("timesteps", 2));
  core::MetaCatalog& catalog = system.catalog();
  auto record = catalog.find_dataset(dataset);
  std::string app = "astro";
  core::DatasetDesc desc;
  if (record.ok()) {
    app = record->app;
    desc = record->desc;
  } else {
    desc.name = dataset;
    desc.dims = dims_from(args);
    desc.etype = core::ElementType::kFloat32;
    desc.frequency = 1;
    desc.location = die_on_error(
        core::parse_location(args.get("location", "REMOTETAPE")),
        "bad --location");
    auto decision = die_on_error(
        core::PlacementPolicy::resolve(system, desc, timesteps),
        "placing the campaign dataset");
    die_on_error(catalog.register_dataset(app, desc, decision.location),
                 "registering the campaign dataset");
  }

  flow::Campaign campaign("campaign-" + dataset, app);
  core::Workload sim;
  sim.open(desc);
  for (int t = 0; t < timesteps; ++t) sim.dump(dataset, t);
  sim.finalize();
  campaign.stage("sim", std::move(sim));
  for (const char* stage : {"mse", "viz"}) {
    core::Workload reader;
    reader.open_existing(dataset);
    for (int t = 0; t < timesteps; ++t) reader.read_whole(dataset, t);
    reader.finalize();
    campaign.stage(stage, std::move(reader));
  }
  campaign.after("viz", "mse");
  return campaign;
}

void columns(Row& r, const flow::StageTask& x) {
  r.col("kind", "", -9, str(flow::stage_task_kind_name(x.kind)));
  r.col("dataset", "", 0, str(x.app + "/" + x.name));
  r.col("timestep", "", 0, integer(x.timestep, "t%-3lld"));
  r.col("from", "", 0, str(core::address_name(x.from)));
  r.col("to", "", 0, str(core::address_name(x.to), "-> %s"));
  r.col("bytes", "", 0, bytes(x.bytes, " %8s"));
  r.col("benefit", "", 0, num(x.benefit, " benefit %.3fs"));
  r.col("cost", "", 0, num(x.cost, "cost %.3fs"));
  r.col("start_at", "", 0, num(x.start_at, "start %.3fs"));
}

void columns(Row& r, const flow::StageOutcome& x) {
  r.col(nullptr, "", -40, str(x.task.label()));
  r.col(nullptr, "", 0, str(x.status.ok() ? "ok" : x.status.to_string()));
  r.splice(render(x.task, Row::kJson));
  r.col("ok", nullptr, 0, flag(x.status.ok()));
  r.col("executed_seconds", "", 0, num(x.executed_seconds, " %.3fs"));
  r.col("finished_at", "", 0, num(x.finished_at, "(finished %.3fs)"));
}

void columns(Row& r, const flow::StageResult& x) {
  r.col("stage", nullptr, 0, str(x.stage));
  r.col("ok", nullptr, 0, flag(x.status.ok()));
  r.col("started_at", nullptr, 0, num(x.started_at));
  r.col("finished_at", nullptr, 0, num(x.finished_at));
  r.col("latency", nullptr, 0, num(x.latency()));
}

void columns(Row& r, const flow::CampaignReport& x) {
  r.col("campaign", nullptr, 0, str(x.campaign));
  r.col("stages", nullptr, 0, json_array(x.stages));
  r.col("staging", nullptr, 0, json_array(x.staging));
  r.col("makespan", nullptr, 0, num(x.makespan));
}

void columns(Row& r, const flow::IntentPrice& x) {
  const bool write = x.kind == core::Workload::IoIntent::Kind::kWrite;
  r.col("kind", "", -5, str(write ? "write" : "read"));
  r.col("dataset", "", 0, str(x.dataset));
  r.col("timestep", "", 0, integer(x.timestep, "t%-3lld"));
  r.col("address", "", 0, str(core::address_name(x.address), "@ %-14s"));
  r.col("seconds", "", 0, num(x.seconds, "%8.3fs "));
  r.col("note", "", 0, str(x.note));
}

void columns(Row& r, const flow::StagePriceRow& x) {
  std::string producers = "[";
  for (std::size_t p : x.producers) {
    if (producers.size() > 1) producers += ',';
    producers += std::to_string(p);
  }
  r.col("stage", "", -8, str(x.stage));
  r.col("class", "", -12, str(qos::tenant_class_name(x.tenant_class)));
  r.col("producers", nullptr, 0, {"", producers + "]"});
  r.col("start", "", 0, num(x.start, "start %8.3fs"));
  r.col("finish", "", 0, num(x.finish, "finish %8.3fs"));
  r.col("seconds", "", 0, num(x.seconds, "(%0.3fs)"));
  r.col("intents", nullptr, 0, json_array(x.intents));
}

void columns(Row& r, const flow::CampaignPrice& x) {
  r.col("stages", nullptr, 0, json_array(x.stages));
  r.col("total", "", 0, num(x.total, "total %.3fs "));
  r.col("makespan", "", 0, num(x.makespan, "makespan %.3fs"));
}

int cmd_flow(Env& env, const Args& args, Out& out, const std::string& verb) {
  core::StorageSystem& system = *env.system;
  flow::Campaign campaign = flow_campaign(args, system);
  flow::StagingConfig staging;
  staging.throttle_bytes_per_sec = args.get_mb("throttle-mb", 0, 0);
  flow::StagingScheduler stager(system, env.predictor, staging);
  // A persisted QoS policy with admission enabled also gates staging moves:
  // the mover defers when a move's quote would miss its class SLO.
  std::unique_ptr<qos::AdmissionController> admission;
  if (const qos::QosConfig* config = system.qos_config();
      config != nullptr && config->admission) {
    admission = std::make_unique<qos::AdmissionController>(
        system, &env.predictor, *config);
    stager.set_admission(admission.get());
  }

  if (verb == "plan") {
    std::vector<flow::StageTask> tasks = stager.plan_prestage(campaign, {});
    out.print("campaign %s prestage plan:\n", campaign.name().c_str());
    out.table("tasks", tasks, "  ");
    if (tasks.empty()) {
      out.print("nothing to stage (inputs already sit on their best tier)\n");
    }
    return 0;
  }
  if (verb == "explain") {
    flow::CampaignPricer pricer(system, env.predictor);
    auto price = die_on_error(pricer.price(campaign, &stager),
                              "campaign pricing (run `msractl ptool` first?)");
    out.member("campaign", str(campaign.name()));
    out.print("campaign %s priced end-to-end (Eq. 2 over the DAG):\n",
              campaign.name().c_str());
    for (std::size_t i = 0; i < price.stages.size(); ++i) {
      out.print("  [%zu] %s\n", i, render(price.stages[i], Row::kText).c_str());
      out.rows(price.stages[i].intents, "        ");
    }
    out.record(price);
    return 0;
  }

  flow::CampaignOptions options;
  options.predictor = &env.predictor;
  if (!args.has("no-staging")) options.stager = &stager;
  if (verb == "run") {
    core::Fleet fleet(system);
    auto report = die_on_error(fleet.submit_campaign(campaign, options),
                               "campaign run");
    std::vector<obs::CampaignStageRow> rows;
    for (const flow::StageResult& stage : report.stages) {
      rows.push_back({stage.stage, stage.started_at, stage.finished_at,
                      stage.status.ok() ? "ok" : stage.status.to_string()});
    }
    out.print("%s", obs::format_campaign_table(report.campaign, rows).c_str());
    if (!report.staging.empty()) out.print("staging moves:\n");
    out.rows(report.staging, "  ");
    out.record(report);
    return report.ok() ? 0 : 1;
  }
  // watch: rerun the campaign for --rounds rounds, makespan per round.
  const int rounds = args.get_int("rounds", 3);
  std::vector<flow::CampaignReport> reports;
  int failures = 0;
  for (int round = 1; round <= rounds; ++round) {
    system.reset_time();
    core::Fleet fleet(system);
    auto report = die_on_error(fleet.submit_campaign(campaign, options),
                               "campaign run");
    if (!report.ok()) ++failures;
    out.print("round %d: makespan %.3fs, %td staging moves\n", round,
              report.makespan,
              std::count_if(report.staging.begin(), report.staging.end(),
                            [](const auto& o) { return o.status.ok(); }));
    reports.push_back(std::move(report));
  }
  out.member("rounds", json_array(reports));
  return failures == 0 ? 0 : 1;
}

// ---- stats and qos ---------------------------------------------------------

void columns(Row& r, const obs::QosClassRow& x) {
  r.col("class", nullptr, 0, str(x.tenant));
  r.col("served", nullptr, 0, integer(x.served));
  r.col("wait_p50", nullptr, 0, num(x.wait_p50));
  r.col("wait_p99", nullptr, 0, num(x.wait_p99));
  r.col("wait_max", nullptr, 0, num(x.wait_max));
  r.col("max_backlog", nullptr, 0, num(x.max_backlog));
  r.col("deadline_misses", nullptr, 0, integer(x.deadline_misses));
  r.col("accepted", nullptr, 0, integer(x.accepted));
  r.col("redirected", nullptr, 0, integer(x.redirected));
  r.col("rejected", nullptr, 0, integer(x.rejected));
}

// Runs a deterministic probe (write, then seek + read half) against every
// available resource through the instrumented endpoints, then prints the
// Eq. (1) component breakdown. Every simulated second of the probe is
// advanced inside an instrumented primitive, so the table's TOTAL matches
// the billed timeline exactly — the same accounting a real workload gets.
// The JSON document is the metrics registry plus the per-class QoS rows.
int cmd_stats(Env& env, const Args& args, Out& out, const std::string&) {
  core::StorageSystem& system = *env.system;
  const std::uint64_t payload_bytes = args.get_mb("size-mb", 2, 1);
  std::vector<std::byte> payload(payload_bytes, std::byte{0x5a});
  std::vector<std::byte> half(payload_bytes / 2);

  simkit::Timeline tl;
  for (core::Location location :
       {core::Location::kLocalDisk, core::Location::kRemoteDisk,
        core::Location::kRemoteTape}) {
    runtime::StorageEndpoint& endpoint = system.endpoint(location);
    if (!endpoint.available()) {
      out.print("skipping %s (down)\n", core::location_name(location).data());
      continue;
    }
    const std::string path = "stats/probe";
    {
      auto file = die_on_error(
          runtime::FileSession::start(endpoint, tl, path,
                                      srb::OpenMode::kOverwrite),
          "stats probe write-open");
      die_on_error(file.write(payload), "stats probe write");
      die_on_error(file.finish(), "stats probe write-close");
    }
    {
      auto file = die_on_error(
          runtime::FileSession::start(endpoint, tl, path, srb::OpenMode::kRead),
          "stats probe read-open");
      die_on_error(file.seek(payload_bytes / 2), "stats probe seek");
      die_on_error(file.read(half), "stats probe read");
      die_on_error(file.finish(), "stats probe read-close");
    }
  }

  const auto rows = obs::io_breakdown(system.metrics());
  out.print("Eq. (1) component breakdown (simulated seconds):\n%s",
            obs::format_io_table(rows).c_str());
  out.print("\ndevice contention (queueing on shared resources):\n%s",
            obs::format_contention_table(system.resource_loads()).c_str());
  const std::vector<obs::QosClassRow> qos_rows = system.qos_breakdown();
  out.print("\nper-class QoS (grant order: %s):\n%s",
            std::string(simkit::discipline_name(
                            system.qos_config() != nullptr
                                ? system.qos_config()->discipline
                                : simkit::DisciplineKind::kFifo))
                .c_str(),
            obs::format_qos_table(qos_rows).c_str());
  double breakdown_sum = 0.0;
  for (const auto& row : rows) breakdown_sum += row.total();
  const double billed = tl.now();
  out.print("\nbreakdown sum %.4f s; billed I/O time %.4f s", breakdown_sum,
            billed);
  if (billed > 0.0) {
    out.print(" (%.2f%% accounted)", 100.0 * breakdown_sum / billed);
  }
  out.print("\n");

  bool header = false;
  for (const auto& [name, value] : system.metrics().counters()) {
    if (value == 0 || name.rfind("io.", 0) == 0) continue;
    if (!header) {
      out.print("\nevent counters:\n");
      header = true;
    }
    out.print("  %-28s %llu\n", name.c_str(),
              static_cast<unsigned long long>(value));
  }
  out.splice(system.metrics().to_json());
  out.member("qos", json_array(qos_rows));
  return 0;
}

using ClassRow = std::pair<qos::TenantClass, qos::ClassPolicy>;

void columns(Row& r, const ClassRow& x) {
  r.col("class", "class", -12, str(qos::tenant_class_name(x.first)));
  r.col("weight", "weight", 8, num(x.second.weight, "%.2f"));
  r.col("deadline", "deadline[s]", 12, num(x.second.deadline, "%.2f"));
  r.col("slo", "slo[s]", 10, num(x.second.slo, "%.2f"));
}

// Shows or updates the persisted QoS policy. Updates land in the metadata
// database (table "qos_config"), so every later invocation against the
// same --root — and any embedder that calls qos::load_config — schedules
// under the same discipline, weights, deadlines and SLOs. --clear drops it.
int cmd_qos(Env& env, const Args& args, Out& out, const std::string&) {
  core::StorageSystem& system = *env.system;
  const bool clear = args.has("clear");
  qos::QosConfig config = system.qos_config() != nullptr && !clear
                              ? *system.qos_config()
                              : qos::QosConfig{};
  bool changed = false;
  if (clear) {
    if (meta::Table* table = system.metadb().table("qos_config")) {
      table->clear();
    }
    system.disable_qos();
  } else {
    if (args.has("discipline")) {
      config.discipline =
          die_on_error(simkit::parse_discipline(args.get("discipline")),
                       "bad --discipline");
      changed = true;
    }
    for (const auto& [key, field] :
         {std::pair{"weight", &qos::ClassPolicy::weight},
          std::pair{"deadline", &qos::ClassPolicy::deadline},
          std::pair{"slo", &qos::ClassPolicy::slo}}) {
      for (const auto& [name, value] : args.get_specs(key, nullptr)) {
        config.policy(die_on_error(qos::parse_tenant_class(name),
                                   "bad tenant class")).*field =
            Args::to_number(std::string("--") + key, value,
                            std::numeric_limits<double>::lowest());
        changed = true;
      }
    }
    if (args.has("admission")) {
      const std::string value = args.get("admission", "on");
      config.admission = value != "off" && value != "0" && value != "false";
      changed = true;
    }
  }
  if (changed) {
    die_on_error(qos::save_config(system.metadb(), config),
                 "saving qos policy");
    die_on_error(system.enable_qos(config), "installing qos policy");
  }
  std::vector<ClassRow> rows;
  for (qos::TenantClass cls : qos::kAllTenantClasses) {
    rows.emplace_back(cls, config.policy(cls));
  }
  const std::string_view discipline = simkit::discipline_name(config.discipline);
  out.member("discipline", str(discipline));
  out.member("admission", flag(config.admission));
  if (clear) {
    out.print("qos policy cleared (devices grant FIFO)\n");
    out.member("classes", json_array(rows));
    return 0;
  }
  out.print("discipline: %s%s\nadmission:  %s\n",
            std::string(discipline).c_str(), changed ? " (saved)" : "",
            config.admission ? "on" : "off");
  out.table("classes", rows);
  return 0;
}

// ---- cache -----------------------------------------------------------------

void columns(Row& r, const cache::CacheConfig& x) {
  r.col("memory_bytes", nullptr, 0, integer(x.memory_bytes));
}

void columns(Row& r, const cache::CacheStats& x) {
  r.col("entries", nullptr, 0, integer(x.store.entries));
  r.col("memory_used", nullptr, 0, integer(x.store.memory_bytes));
  r.col("hits", "", 0, integer(x.hits, "hits %lld "));
  r.col("misses", "", 0, integer(x.misses, "misses %lld "));
  r.col("admitted", "", 0, integer(x.admitted, "admitted %lld "));
  r.col("rejected", "", 0, integer(x.rejected, "rejected %lld "));
  r.col("invalidations", "", 0,
        integer(x.invalidations, "invalidations %lld "));
  r.col("evictions", "", 0, integer(x.evictions, "evictions %lld"));
  r.col("saved_seconds", nullptr, 0, num(x.saved_seconds));
}

void columns(Row& r, const cache::CacheEntryInfo& x) {
  r.col("path", "PATH", -32, str(x.path));
  r.col("dataset", nullptr, 0, str(x.dataset_key));
  r.col("bytes", "BYTES", 10, bytes(x.bytes));
  r.col("hits", "HITS", 6, integer(x.hits));
  r.col("saved_per_hit", "SAVED/HIT", 12, num(x.saved_per_hit, "%.4fs"));
}

/// The admission verdict for one dumped instance.
using Verdict = std::pair<core::InstanceRecord, cache::AdmissionVerdict>;

void columns(Row& r, const Verdict& x) {
  const cache::AdmissionVerdict& v = x.second;
  r.col("path", "PATH", -28, str(x.first.path));
  r.col("bytes", "BYTES", 10, bytes(x.first.bytes));
  r.col("origin", "ORIGIN", -12,
        str(core::location_name(x.first.primary().location)));
  r.col("verdict", "VERDICT", -16,
        str(cache::admission_outcome_name(v.outcome)));
  r.col("refetch", "REFETCH", 9, num(v.refetch_seconds, "%.3fs"));
  r.col("serve", "SERVE", 9, num(v.serve_seconds, "%.4fs"));
  r.col("reuse", "REUSE", 6, num(v.expected_reuse, "%.1f"));
  r.col("benefit", "BENEFIT", 9, num(v.benefit_seconds, "%.3fs"));
  r.col("damage", "DAMAGE", 9, num(v.damage_seconds, "%.3fs"));
}

// The priced mid-tier read cache, from the shell. The cache (like the
// AccessTracker) is in-process, so a fresh CLI starts cold; --warm
// name[=rounds] replays whole-dataset reads through a session so offers
// land, hits accumulate, and the counters mean something.
int cmd_cache(Env& env, const Args& args, Out& out, const std::string& verb) {
  seed_heat(*env.system, args);
  const core::MetaCatalog& catalog = env.system->catalog();
  cache::CacheConfig config;
  config.memory_bytes = args.get_mb("cache-mb", 64, 1);
  config.admission.min_benefit_seconds = args.get_double(
      "min-benefit", config.admission.min_benefit_seconds);
  cache::ReadCache* cache = env.system->enable_cache(config, &env.predictor);

  for (const auto& [name, text] : args.get_specs("warm", "2")) {
    const int rounds = Args::to_number("--warm " + name, text, 0);
    core::Session session(*env.system, {.application = "msractl-cache"});
    auto handle = die_on_error(session.open_existing(name), "open dataset");
    simkit::Timeline tl;
    for (int round = 0; round < rounds; ++round) {
      for (const core::InstanceRecord& record : instances_named(catalog, name)) {
        die_on_error(handle->read_whole(record.timestep, {.timeline = &tl}),
                     "warm read");
      }
    }
    out.print("warmed %s: %d round(s), %.2f simulated s of reads\n",
              name.c_str(), rounds, tl.now());
  }

  if (verb == "explain") {
    std::string name = args.get("dataset");
    if (args.positional().size() > 1) name = args.positional()[1];
    if (name.empty()) throw UsageError("cache explain wants a dataset name");
    std::vector<Verdict> verdicts;
    for (const core::InstanceRecord& record : instances_named(catalog, name)) {
      verdicts.emplace_back(
          record, cache->judge(record.path, record.dataset_key, record.bytes,
                               record.primary().location, 0.0));
    }
    out.member("dataset", str(name));
    out.table("verdicts", verdicts);
    if (verdicts.empty()) {
      std::fprintf(stderr,
                   "msractl: '%s' matches no dumped instance "
                   "(kUnpriced quotes also need `msractl ptool` first)\n",
                   name.c_str());
    }
    return verdicts.empty() ? 1 : 0;
  }

  if (verb == "flush") {
    const std::size_t before = cache->stats().store.entries;
    cache->flush();
    out.print("flushed %zu entr%s\n", before, before == 1 ? "y" : "ies");
  }
  const cache::CacheStats stats = cache->stats();
  out.print("cache: memory %s used of %s, %zu entr%s\n",
            format_bytes(stats.store.memory_bytes).c_str(),
            format_bytes(cache->config().memory_bytes).c_str(),
            stats.store.entries, stats.store.entries == 1 ? "y" : "ies");
  out.print("%s\n", render(stats, Row::kText).c_str());
  out.print("predicted seconds saved by hits: %.3f\n", stats.saved_seconds);
  out.member("config", {"", render(cache->config(), Row::kJson)});
  out.member("stats", {"", render(stats, Row::kJson)});
  const auto entries = cache->entries();
  out.member("entries", json_array(entries));
  if (!entries.empty()) out.rows(entries);
  return 0;
}

// ---- the command table -----------------------------------------------------

struct Command {
  const char* name;
  const char* verbs;  ///< "plan|run|watch": the first is the default
  const char* help;
  const char* flags;  ///< every option it reads beyond kEveryCommand
  int (*run)(Env&, const Args&, Out&, const std::string& verb);
};

constexpr const char* kEveryCommand =
    "[--root DIR] [--servers N] [--tape-cache MB]\n"
    "               [--balancer balanced|round-robin|static]";
constexpr const char* kRunOptions =
    "[--dims X,Y,Z] [--iterations N] [--nprocs N] [--hint NAME=LOC]...\n"
    "               [--analysis-freq N] [--viz-freq N] [--checkpoint-freq N]";

constexpr Command kCommands[] = {
    {"ptool", "", "populate the I/O performance database",
     "[--repeats N] [--contended] [--cache]", cmd_ptool},
    {"predict", "", "predict a run's I/O time (Eq. 1 + Eq. 2)",
     "[run options] [--default LOC] [--load N] [--util U]", cmd_predict},
    {"explain", "", "one dataset's lowered I/O plan, priced per stage",
     "<dataset> | --dataset NAME [run options] [--op read|write]\n"
     "            [--default LOC] [--load N] [--util U] [--json [FILE]]",
     cmd_explain},
    {"advise", "", "performance-aware placement recommendation",
     "[run options]", cmd_advise},
    {"run", "", "run the Astro3D producer",
     "[run options] [--default LOC] [--resume] [--app NAME] [--user NAME]",
     cmd_run},
    {"mse", "", "data analysis over a dataset",
     "[--dataset NAME] [--nprocs N]", cmd_mse},
    {"volren", "", "parallel volume rendering",
     "[--dataset NAME] [--width N] [--height N] [--nprocs N]\n"
     "            [--superfile] [--images LOC]",
     cmd_volren},
    {"slice", "", "extract + print a slice",
     "[--dataset NAME] [--timestep N] [--index N] [--axis x|y|z]", cmd_slice},
    {"replicate", "", "copy a dumped timestep to another resource",
     "[--dataset NAME] [--timestep N] [--to LOC[@SERVER]]", cmd_replicate},
    {"histogram", "", "value histogram of a float dataset timestep",
     "[--dataset NAME] [--timestep N]", cmd_histogram},
    {"catalog", "", "list registered datasets and dumped instances",
     "", cmd_catalog},
    {"resources", "", "capacity, usage, state, replicas per resource",
     "[--json [FILE]]", cmd_resources},
    {"cluster", "", "per-server site state and the balancer's quotes",
     "[--size-mb N] [--json [FILE]]", cmd_cluster},
    {"migrate", "plan|run|watch", "predictor-priced migration engine",
     "[--hot NAME[=READS]]... [--hot-reads N] [--throttle-mb N]\n"
     "            [--batch-mb N] [--pressure F] [--target F] [--rounds N]\n"
     "            [--json [FILE]]",
     cmd_migrate},
    {"flow", "explain|plan|run|watch", "workflow-aware campaign scheduler",
     "[--dataset NAME] [--timesteps N] [--dims X,Y,Z] [--location LOC]\n"
     "            [--throttle-mb N] [--no-staging] [--rounds N] [--json [FILE]]",
     cmd_flow},
    {"stats", "", "Eq. 1 breakdown, device contention and QoS tables",
     "[--size-mb N] [--json [FILE]]", cmd_stats},
    {"qos", "", "show or set the persisted QoS policy",
     "[--discipline fifo|wfq|edf] [--weight CLASS=W]...\n"
     "            [--deadline CLASS=SECONDS]... [--slo CLASS=SECONDS]...\n"
     "            [--admission on|off] [--clear] [--json [FILE]]",
     cmd_qos},
    {"cache", "stats|flush|explain", "priced mid-tier read cache",
     "[<dataset> | --dataset NAME] [--cache-mb N]\n"
     "            [--min-benefit SECONDS] [--warm NAME[=ROUNDS]]...\n"
     "            [--hot NAME[=READS]]... [--json [FILE]]",
     cmd_cache},
};

void print_usage(const Command& command) {
  std::fprintf(stderr, "  %-9s %s%s%s\n", command.name, command.verbs,
               *command.verbs != '\0' ? ": " : "", command.help);
  if (*command.flags != '\0') {
    std::fprintf(stderr, "            %s\n", command.flags);
  }
}

int usage() {
  std::fprintf(
      stderr,
      "usage: msractl <command> [verb] [options]\n"
      "every command: %s\n"
      "run options:   %s\n"
      "--load N --util U: price under N concurrent clients and a background\n"
      "               utilization U in [0,1)\n"
      "--json:        bare, the JSON document is the only stdout;\n"
      "               --json FILE writes it to FILE and keeps the text\n"
      "commands:\n",
      kEveryCommand, kRunOptions);
  for (const Command& command : kCommands) print_usage(command);
  return 2;
}

int run_command(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];
  const Command* command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return name == c.name; });
  if (command == std::end(kCommands)) return usage();
  try {
    const Args args = Args::parse(argc, argv, 2);
    const std::string flags = command->flags;
    args.check_known(kEveryCommand + flags +
                     (flags.find("[run options]") != std::string::npos
                          ? kRunOptions
                          : ""));
    const std::string verbs = command->verbs;
    const std::string verb = verbs.empty() || args.positional().empty()
                                 ? verbs.substr(0, verbs.find('|'))
                                 : args.positional().front();
    if (("|" + verbs + "|").find("|" + verb + "|") == std::string::npos) {
      throw UsageError(name + " wants one of " + verbs);
    }
    Env env(args);
    Out out(args);
    return out.finish(command->run(env, args, out, verb));
  } catch (const UsageError& error) {
    std::fprintf(stderr, "msractl: %s\nusage:\n", error.what());
    print_usage(*command);
    return 2;
  }
}

}  // namespace
}  // namespace msra::tools

int main(int argc, char** argv) { return msra::tools::run_command(argc, argv); }
