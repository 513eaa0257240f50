// The three open-loop workloads and the load generator they share.
//
// The seed generates every request: exponential gaps at the workload's
// rate, then the role and dataset draws. Arrivals are grouped into windows
// of kWindowSeconds virtual seconds. For each arrival the generator adds a
// tenant to the one Fleet serving the run, moves the tenant's clock to the
// arrival with timeline().advance_to(), and submits its workload; then it
// drains the window with one run_until_idle(). Latency is therefore
// measured from the due time, and the generator is never late: the run
// checks that every request was submitted exactly at its arrival. A request
// that fails with OUT_OF_RANGE is retried in the next window's batch (see
// kMaxAttempts).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "cache/cache.h"
#include "common/rng.h"
#include "core/placement.h"
#include "msrabench.h"
#include "obs/report.h"
#include "predict/ptool.h"
#include "qos/admission.h"

namespace msrabench {
namespace {

constexpr double kWindowSeconds = 10.0;
/// Transfer sizes PTool calibrates for the open-loop workloads, whose
/// requests move 2-128 KiB.
const std::vector<std::uint64_t> kPtoolSizes = {64ull << 10, 256ull << 10,
                                                1ull << 20};
constexpr double kCapacityRungs[] = {0.5, 0.75, 1.0, 1.25, 1.5, 2.0};
constexpr double kMaxMissFrac = 0.05;  ///< SLO-miss share a rung may have
constexpr double kMaxBacklog = 2.0;    ///< last-tenth / first-tenth median
/// The quote-only controller needs an SLO on every class to price it; the
/// value never rejects anything because that controller is never attached.
constexpr double kQuoteOnlySlo = 1e12;
/// Attempts a request gets when it fails with OUT_OF_RANGE. A read that
/// interleaves with an overwrite of the same object fails past its end (a
/// known defect, see README.md); the client retries it as a user would, in
/// the next window's batch, kRetryBackoffSeconds times the attempt count
/// after it failed. The failed attempts count in core.failed.OUT_OF_RANGE
/// and against first_try_frac.
constexpr std::size_t kMaxAttempts = 5;
constexpr double kRetryBackoffSeconds = 1.0;

struct Arrival {
  double at = 0.0;  ///< due time, virtual seconds
  int role = 0;
  int dataset = 0;
};

/// One request's fate, copied out of its Completions (which the Fleet owns).
struct Outcome {
  bool refused = false;  ///< turned away by the admission gate at submit
  double quote = 0.0;    ///< predicted completion (0 = unpriced)
  double slo = 0.0;
  Status status = Status::Ok();    ///< of the last attempt
  std::vector<ErrorCode> errors;   ///< of every failed attempt
  double latency = 0.0;      ///< virtual seconds from the due time
  double finished_at = 0.0;  ///< virtual time
  bool served() const { return !refused && status.ok(); }
};

core::DatasetDesc float_dataset(std::string name,
                                std::array<std::uint64_t, 3> dims,
                                core::Location location) {
  core::DatasetDesc desc;
  desc.name = std::move(name);
  desc.dims = dims;
  desc.etype = core::ElementType::kFloat32;
  desc.location = location;
  return desc;
}

/// The fill byte of position `i` of timestep `t` of a seeded dataset.
std::byte fill_byte(std::uint64_t salt, int t, std::size_t i) {
  const std::uint64_t step = static_cast<std::uint64_t>(t);
  return static_cast<std::byte>((salt * 131 + step * 31 + i * 7 + 1) & 0xff);
}

std::vector<std::byte> filled(std::uint64_t salt, int t, std::size_t bytes) {
  std::vector<std::byte> out(bytes);
  for (std::size_t i = 0; i < bytes; ++i) out[i] = fill_byte(salt, t, i);
  return out;
}

/// Dumps `timesteps` seeded timesteps of `desc` through a one-rank producer
/// session (the collective path), replicating each to `twin` when set.
Status write_dataset(Testbed& bed, const std::string& app,
                     const core::DatasetDesc& desc, int timesteps,
                     std::uint64_t salt,
                     std::optional<core::ReplicaAddress> twin = {}) {
  core::Session producer(bed.system, {.application = app, .nprocs = 1,
                                      .iterations = timesteps});
  MSRA_ASSIGN_OR_RETURN(core::DatasetHandle * handle, producer.open(desc));
  Status status = Status::Ok();
  prt::World world(1);
  world.run([&](prt::Comm& comm) {
    for (int t = 0; t < timesteps && status.ok(); ++t) {
      status = handle->write_timestep(comm, t,
                                      filled(salt, t, desc.global_bytes()));
    }
  });
  MSRA_RETURN_IF_ERROR(status);
  if (twin.has_value()) {
    for (int t = 0; t < timesteps; ++t) {
      simkit::Timeline tl;
      MSRA_RETURN_IF_ERROR(
          handle->replicate_timestep(t, *twin, {.timeline = &tl}));
    }
  }
  return producer.finalize();
}

/// Reads one timestep back through `reader` and checks it byte for byte.
Status read_back(core::Session& reader, const std::string& dataset, int t,
                 const std::vector<std::byte>& expected, Digest& digest) {
  MSRA_ASSIGN_OR_RETURN(core::DatasetHandle * handle,
                        reader.open_existing(dataset));
  MSRA_ASSIGN_OR_RETURN(std::vector<std::byte> bytes, handle->read_whole(t));
  digest.add(bytes);
  if (bytes != expected) {
    return Status::Internal(dataset + "/t" + std::to_string(t) +
                            " read back different bytes than were written");
  }
  return Status::Ok();
}

/// The z = 0 plane of a dataset (a Volren-style slice).
prt::LocalBox z_plane(const std::array<std::uint64_t, 3>& dims) {
  return {{{{0, dims[0]}, {0, dims[1]}, {0, 1}}}};
}

/// Lowers a serial sub-array read of `box`, as DatasetHandle::read_box does
/// for an unchunked dataset.
StatusOr<runtime::IoPlan> lower_box(const core::DatasetDesc& desc,
                                    const std::string& path,
                                    const prt::LocalBox& box) {
  runtime::GlobalArraySpec spec;
  spec.dims = desc.dims;
  spec.elem_size = core::element_size(desc.etype);
  return runtime::PlanBuilder::dataset_read_box(
      spec, {1, 1, 1}, box, path, runtime::AccessStrategy::kSieving,
      /*vectored=*/false, box.volume() * spec.elem_size);
}

/// One open-loop workload: the testbed it runs on, how a seeded arrival
/// becomes a tenant workload, and how its outputs are checked.
class Spec {
 public:
  virtual ~Spec() = default;

  virtual double rate() const = 0;   ///< arrivals per virtual second
  virtual int requests() const = 0;  ///< request count at scale 1
  /// Requests per replica at each rung of the capacity ladder.
  virtual int capacity_requests() const { return 1000; }
  virtual core::HardwareProfile profile() const {
    return core::HardwareProfile::paper_2000();
  }
  /// Writes the data requests use and installs the workload's policies.
  virtual Status populate(Testbed& bed) = 0;
  /// The admission gate's policy, or nullptr (no gate).
  virtual const qos::QosConfig* gate() const { return nullptr; }

  /// Draws the role and dataset of one arrival.
  virtual void draw(Rng& rng, Arrival& arrival) const = 0;
  virtual core::Workload workload(int tenant, const Arrival& arrival) const = 0;
  virtual core::SessionOptions session(const Arrival& arrival,
                                       Testbed& bed) const = 0;
  virtual double slo(const Arrival& arrival) const = 0;

  /// Reads the outputs back and checks them; every byte goes into `digest`.
  virtual Status verify(Testbed& bed, const std::vector<Arrival>& arrivals,
                        const std::vector<Outcome>& outcomes,
                        std::uint64_t seed, Digest& digest) const = 0;
  virtual ProbeTarget probe() const = 0;
  /// Per-layer metrics only the workload's own steps can count.
  virtual void layers(Metrics&) const {}
};

// ---- fleet_fifo -------------------------------------------------------------
//
// The paper's single-site testbed under FIFO with no cache, no QoS and no
// predictor: arrivals alone drive the fleet, the simkit booking path and
// the metadata catalog (each dump registers a new dataset row).

class FleetFifo final : public Spec {
 public:
  static constexpr std::array<std::uint64_t, 3> kFrame = {16, 16, 16};
  static constexpr std::array<std::uint64_t, 3> kCkpt = {8, 8, 8};
  static constexpr int kFrameTimesteps = 2;
  static constexpr int kCheckedDumps = 100;

  double rate() const override { return 1.0; }
  int requests() const override { return 6000; }

  Status populate(Testbed& bed) override {
    return write_dataset(bed, "archive", frame(), kFrameTimesteps,
                         /*salt=*/0);
  }

  void draw(Rng& rng, Arrival& arrival) const override {
    arrival.role = static_cast<int>(rng.next_below(3));
  }

  core::Workload workload(int tenant, const Arrival& arrival) const override {
    switch (arrival.role) {
      case 0: {  // dump: a new checkpoint on the local disks
        const core::DatasetDesc ckpt = float_dataset(
            ckpt_name(tenant), kCkpt, core::Location::kLocalDisk);
        return core::Workload()
            .tagged("dump")
            .open(ckpt)
            .dump(ckpt.name, 0)
            .finalize();
      }
      case 1:  // mse: the whole frame
        return core::Workload()
            .tagged("mse")
            .open_existing("frame")
            .read_whole("frame", 0)
            .finalize();
      default:  // volren: one z-plane
        return core::Workload()
            .tagged("volren")
            .open_existing("frame")
            .read_box("frame", 1, z_plane(kFrame))
            .finalize();
    }
  }

  core::SessionOptions session(const Arrival&, Testbed&) const override {
    return {.application = "fleet"};
  }

  double slo(const Arrival&) const override { return 5.0; }

  Status verify(Testbed& bed, const std::vector<Arrival>& arrivals,
                const std::vector<Outcome>& outcomes, std::uint64_t seed,
                Digest& digest) const override {
    core::Session reader(bed.system, {.application = "verify"});
    const core::DatasetDesc desc = frame();
    for (int t = 0; t < kFrameTimesteps; ++t) {
      MSRA_RETURN_IF_ERROR(read_back(reader, "frame", t,
                                     filled(0, t, desc.global_bytes()),
                                     digest));
    }
    std::vector<int> dumps;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i].role == 0 && outcomes[i].served()) {
        dumps.push_back(static_cast<int>(i));
      }
    }
    // A seeded sample of the dumps: Workload::dump writes a zero fill.
    Rng rng(seed ^ 0x5eedc0deull);
    const std::vector<std::byte> zeros(
        float_dataset("", kCkpt, core::Location::kLocalDisk).global_bytes());
    for (int k = 0; k < kCheckedDumps && !dumps.empty(); ++k) {
      const int tenant = dumps[rng.next_below(dumps.size())];
      MSRA_RETURN_IF_ERROR(
          read_back(reader, ckpt_name(tenant), 0, zeros, digest));
    }
    return reader.finalize();
  }

  ProbeTarget probe() const override {
    return {.dataset = "frame",
            .app = "archive",
            .timestep = 1,
            .location = core::Location::kRemoteDisk,
            .lower = [] {
              return lower_box(frame(), "archive/frame/t1", z_plane(kFrame));
            }};
  }

 private:
  static core::DatasetDesc frame() {
    return float_dataset("frame", kFrame, core::Location::kRemoteDisk);
  }
  static std::string ckpt_name(int tenant) {
    return "ckpt" + std::to_string(tenant);
  }
};

// ---- qos_wfq ----------------------------------------------------------------
//
// WFQ on every device with interactive slices behind an admission gate and
// a batch stream of whole-frame reads: the only workload where the
// discipline's fluid replay and admission pricing carry the load.

class QosWfq final : public Spec {
 public:
  static constexpr std::array<std::uint64_t, 3> kFrame = {32, 32, 32};
  static constexpr int kFrameTimesteps = 2;
  static constexpr double kInteractiveShare = 0.2;
  static constexpr double kInteractiveSlo = 4.0;
  static constexpr double kBatchSlo = 8.0;
  enum Role { kInteractive = 0, kBatch = 1 };

  QosWfq() {
    config_.discipline = simkit::DisciplineKind::kWfq;
    config_.policy(qos::TenantClass::kInteractive).slo = kInteractiveSlo;
    config_.admission = true;
  }

  double rate() const override { return 0.5; }
  int requests() const override { return 1000; }
  // The fluid replay costs O(arrivals) per grant, so a longer rung would
  // cost as much as the timed drive.
  int capacity_requests() const override { return 300; }

  Status populate(Testbed& bed) override {
    MSRA_RETURN_IF_ERROR(
        write_dataset(bed, "archive", frame(), kFrameTimesteps, /*salt=*/1));
    return bed.system.enable_qos(config_);
  }

  const qos::QosConfig* gate() const override { return &config_; }

  void draw(Rng& rng, Arrival& arrival) const override {
    arrival.role =
        rng.next_double() < kInteractiveShare ? kInteractive : kBatch;
    arrival.dataset = static_cast<int>(rng.next_below(kFrameTimesteps));
  }

  core::Workload workload(int, const Arrival& arrival) const override {
    if (arrival.role == kInteractive) {
      return core::Workload()
          .tagged("interactive")
          .open_existing("frame")
          .read_box("frame", 0, z_plane(kFrame))
          .finalize();
    }
    return core::Workload()
        .tagged("batch")
        .open_existing("frame")
        .read_whole("frame", arrival.dataset)
        .finalize();
  }

  core::SessionOptions session(const Arrival& arrival,
                               Testbed&) const override {
    return {.application = "qos",
            .tenant_class = arrival.role == kInteractive
                                ? qos::TenantClass::kInteractive
                                : qos::TenantClass::kBatch};
  }

  double slo(const Arrival& arrival) const override {
    return arrival.role == kInteractive ? kInteractiveSlo : kBatchSlo;
  }

  Status verify(Testbed& bed, const std::vector<Arrival>&,
                const std::vector<Outcome>&, std::uint64_t,
                Digest& digest) const override {
    core::Session reader(bed.system, {.application = "verify"});
    for (int t = 0; t < kFrameTimesteps; ++t) {
      MSRA_RETURN_IF_ERROR(read_back(
          reader, "frame", t, filled(1, t, frame().global_bytes()), digest));
    }
    return reader.finalize();
  }

  ProbeTarget probe() const override {
    return {.dataset = "frame",
            .app = "archive",
            .timestep = 0,
            .location = core::Location::kRemoteDisk,
            .lower = [] {
              return lower_box(frame(), "archive/frame/t0", z_plane(kFrame));
            }};
  }

 private:
  static core::DatasetDesc frame() {
    return float_dataset("frame", kFrame, core::Location::kRemoteDisk);
  }
  qos::QosConfig config_;
};

// ---- cluster_cache ----------------------------------------------------------
//
// Four SRB sites behind the cheapest-quote balancer and a 2 MB priced read
// cache. 64 datasets of 128 KiB, each on its sharded home site plus one
// twin, so the balancer picks between two replicas; Zipf(0.9) picks the
// dataset, so the head of the 8 MiB working set fits in the cache and the
// tail does not. One request in ten overwrites t0, which invalidates the
// cached copy write-through.

class ClusterCache final : public Spec {
 public:
  static constexpr int kServers = 4;
  static constexpr int kDatasets = 64;
  static constexpr std::array<std::uint64_t, 3> kDims = {32, 32, 32};
  static constexpr double kWriteShare = 0.1;
  static constexpr double kZipfExponent = 0.9;
  static constexpr std::uint64_t kCacheBytes = 2ull << 20;
  static constexpr const char* kApp = "archive";
  static constexpr double kReadSlo = 4.0;
  /// A write dumps the home copy, then copies it to the twin.
  static constexpr double kWriteSlo = 12.0;
  enum Role { kRead = 0, kWrite = 1 };

  ClusterCache() {
    double total = 0.0;
    for (int d = 0; d < kDatasets; ++d) {
      total += 1.0 / std::pow(d + 1.0, kZipfExponent);
      zipf_cdf_[static_cast<std::size_t>(d)] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  double rate() const override { return 1.5; }
  int requests() const override { return 10000; }

  core::HardwareProfile profile() const override {
    core::HardwareProfile profile = core::HardwareProfile::paper_2000();
    profile.cluster.servers = kServers;
    return profile;
  }

  Status populate(Testbed& bed) override {
    *reads_ = {};
    cache::CacheConfig config;
    config.memory_bytes = kCacheBytes;
    bed.system.enable_cache(config, &bed.predictor);
    predict::PToolConfig probe;
    probe.sizes = kPtoolSizes;
    probe.repeats = 1;
    predict::PTool ptool(bed.system, bed.perfdb);
    MSRA_RETURN_IF_ERROR(ptool.measure_cache(probe));
    bed.system.reset_time();
    for (int d = 0; d < kDatasets; ++d) {
      MSRA_RETURN_IF_ERROR(write_dataset(bed, "archive", dataset(d), 1,
                                         salt(d), twin(d)));
    }
    return Status::Ok();
  }

  void draw(Rng& rng, Arrival& arrival) const override {
    arrival.role = rng.next_double() < kWriteShare ? kWrite : kRead;
    const double u = rng.next_double();
    arrival.dataset = static_cast<int>(
        std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end() - 1, u) -
        zipf_cdf_.begin());
  }

  core::Workload workload(int, const Arrival& arrival) const override {
    const std::string name = dataset(arrival.dataset).name;
    if (arrival.role == kRead) {
      // Counted one step before the read is staged: the balancer only has a
      // choice to make when two replicas are live.
      return core::Workload()
          .tagged("read")
          .open_existing(name)
          .then("count replicas " + name,
                [name, reads = reads_.get()](core::TenantContext& ctx) {
                  ++reads->total;
                  if (ctx.handle(name)->replica_addresses(0).size() >= 2) {
                    ++reads->with_choice;
                  }
                  return Status::Ok();
                })
          .read_whole(name, 0)
          .finalize();
    }
    // Workload::dump rewrites only the home copy and leaves the twin in the
    // replica set with the old bytes (a known defect, see README.md). So
    // the writer takes the twin out of the catalog for the dump, then copies
    // the new home copy back to it. Every writer dumps the same zero fill,
    // so a twin another writer already restored holds the same bytes.
    const core::ReplicaAddress stale = twin(arrival.dataset);
    return core::Workload()
        .tagged("write")
        .open_existing(name)
        .then("drop twin " + name,
              [name, stale](core::TenantContext& ctx) {
                Status status = ctx.session().catalog().remove_replica(
                    kApp, name, 0, stale);
                return status.code() == ErrorCode::kNotFound ? Status::Ok()
                                                             : status;
              })
        .dump(name, 0)
        .then("restore twin " + name,
              [name, stale](core::TenantContext& ctx) {
                Status status = ctx.handle(name)->replicate_timestep(
                    0, stale, {.timeline = &ctx.timeline()});
                return status.code() == ErrorCode::kAlreadyExists
                           ? Status::Ok()
                           : status;
              })
        .finalize();
  }

  core::SessionOptions session(const Arrival&, Testbed& bed) const override {
    return {.application = "cluster", .predictor = &bed.predictor};
  }

  double slo(const Arrival& arrival) const override {
    return arrival.role == kRead ? kReadSlo : kWriteSlo;
  }

  Status verify(Testbed& bed, const std::vector<Arrival>& arrivals,
                const std::vector<Outcome>& outcomes, std::uint64_t,
                Digest& digest) const override {
    // A writer that failed for good may or may not have dumped, so a
    // dataset with one has no single expected content and is only read.
    std::array<bool, kDatasets> overwritten{};
    std::array<bool, kDatasets> unknown{};
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const auto d = static_cast<std::size_t>(arrivals[i].dataset);
      if (arrivals[i].role != kWrite || outcomes[i].refused) continue;
      (outcomes[i].served() ? overwritten : unknown)[d] = true;
    }
    // Read through a cache-enabled, balanced session: a stale hit after
    // write-through invalidation would return the seeded bytes.
    core::Session reader(
        bed.system, {.application = "verify", .predictor = &bed.predictor});
    for (int d = 0; d < kDatasets; ++d) {
      const auto at = static_cast<std::size_t>(d);
      if (unknown[at]) {
        MSRA_ASSIGN_OR_RETURN(core::DatasetHandle * handle,
                              reader.open_existing(dataset(d).name));
        MSRA_ASSIGN_OR_RETURN(std::vector<std::byte> read,
                              handle->read_whole(0));
        digest.add(read);
        continue;
      }
      const std::size_t bytes = dataset(d).global_bytes();
      const std::vector<std::byte> expected =
          overwritten[at] ? std::vector<std::byte>(bytes)
                          : filled(salt(d), 0, bytes);
      MSRA_RETURN_IF_ERROR(
          read_back(reader, dataset(d).name, 0, expected, digest));
    }
    return reader.finalize();
  }

  ProbeTarget probe() const override {
    return {.dataset = dataset(0).name,
            .app = "archive",
            .timestep = 0,
            .location = core::Location::kRemoteDisk,
            .lower = [] {
              const core::DatasetDesc desc = dataset(0);
              return StatusOr<runtime::IoPlan>(
                  runtime::PlanBuilder::object_read(
                      "archive/" + desc.name + "/t0", desc.global_bytes()));
            }};
  }

  void layers(Metrics& out) const override {
    out["core.balancer.multi_replica_share"] = {
        reads_->total > 0 ? static_cast<double>(reads_->with_choice) /
                                static_cast<double>(reads_->total)
                          : 0.0,
        "fraction"};
  }

 private:
  /// Reads issued since populate(), and those that found two or more
  /// replicas in the catalog.
  struct Reads {
    std::uint64_t total = 0;
    std::uint64_t with_choice = 0;
  };

  static core::DatasetDesc dataset(int d) {
    return float_dataset("ds" + std::to_string(d), kDims,
                         core::Location::kRemoteDisk);
  }
  static std::uint64_t salt(int d) {
    return 100 + static_cast<std::uint64_t>(d);
  }
  static core::ReplicaAddress twin(int d) {
    const int home = core::shard_server(dataset(d).name,
                                        core::Location::kRemoteDisk, kServers);
    return {core::Location::kRemoteDisk, (home + 1) % kServers};
  }

  std::array<double, kDatasets> zipf_cdf_{};
  std::unique_ptr<Reads> reads_ = std::make_unique<Reads>();
};

std::unique_ptr<Spec> make_spec(const std::string& workload) {
  if (workload == "fleet_fifo") return std::make_unique<FleetFifo>();
  if (workload == "qos_wfq") return std::make_unique<QosWfq>();
  if (workload == "cluster_cache") return std::make_unique<ClusterCache>();
  return nullptr;
}

// ---- the load generator -----------------------------------------------------

std::vector<Arrival> generate(const Spec& spec, std::uint64_t seed, int count,
                              double rate) {
  Rng rng(seed);
  std::vector<Arrival> arrivals(static_cast<std::size_t>(count));
  double at = 0.0;
  for (Arrival& arrival : arrivals) {
    at += -std::log(1.0 - rng.next_double()) / rate;
    arrival.at = at;
    spec.draw(rng, arrival);
  }
  return arrivals;
}

struct Drive {
  std::vector<Outcome> outcomes;
  CallTimer add_client;
  CallTimer submit;
  CallTimer drain;
  CallTimer quote;  ///< benchmark-side AdmissionController::decide
  std::string error;

  double host_seconds() const {
    return add_client.seconds + submit.seconds + drain.seconds;
  }
};

/// Times `fn` into `timer` and, when tracing, records it as a span.
template <typename Fn>
decltype(auto) timed(CallTimer& timer, SpanLog* spans, const char* name,
                     SpanLog::Id parent, Fn&& fn) {
  const SpanLog::Id id =
      spans != nullptr ? spans->open(name, parent) : SpanLog::Id{0};
  const Clock::time_point start = Clock::now();
  decltype(auto) result = fn();
  timer.seconds += seconds_between(start, Clock::now());
  ++timer.calls;
  if (spans != nullptr) spans->close(id);
  return result;
}

void drive(Spec& spec, Testbed& bed, const std::vector<Arrival>& arrivals,
           SpanLog* spans, Drive& out) {
  core::Fleet fleet(bed.system);
  std::optional<qos::AdmissionController> gate;
  if (const qos::QosConfig* config = spec.gate()) {
    gate.emplace(bed.system, &bed.predictor, *config);
    gate->attach(fleet);
  }
  qos::QosConfig quote_config;
  for (qos::TenantClass cls : qos::kAllTenantClasses) {
    quote_config.policy(cls).slo = kQuoteOnlySlo;
  }
  const qos::AdmissionController quoter(bed.system, &bed.predictor,
                                        quote_config);

  out.outcomes.assign(arrivals.size(), Outcome{});
  struct Attempt {
    std::size_t request = 0;
    double at = 0.0;  ///< virtual submit time
    Clock::time_point begun = {};
    core::Completion* done = nullptr;
  };
  std::vector<Attempt> retries;
  const SpanLog::Id root = spans != nullptr ? spans->open("drive", 0) : 0;
  std::size_t next = 0;
  while (next < arrivals.size() || !retries.empty()) {
    const double window_end =
        next < arrivals.size()
            ? (std::floor(arrivals[next].at / kWindowSeconds) + 1.0) *
                  kWindowSeconds
            : 0.0;
    std::vector<Attempt> batch = std::move(retries);
    retries.clear();
    for (; next < arrivals.size() && arrivals[next].at < window_end; ++next) {
      batch.push_back({.request = next, .at = arrivals[next].at});
    }
    const SpanLog::Id window =
        spans != nullptr ? spans->open("window", root) : 0;
    for (Attempt& attempt : batch) {
      const Arrival& arrival = arrivals[attempt.request];
      Outcome& outcome = out.outcomes[attempt.request];
      const int tenant = static_cast<int>(attempt.request);
      attempt.begun = Clock::now();
      const core::SessionOptions options = spec.session(arrival, bed);
      std::string name = std::to_string(tenant);
      name.insert(0, 1, 't');
      if (!outcome.errors.empty()) {
        name += '.' + std::to_string(outcome.errors.size());
      }
      core::Client& client = timed(
          out.add_client, spans, "Fleet::add_client", window,
          [&]() -> core::Client& { return fleet.add_client(name, options); });
      client.timeline().advance_to(attempt.at);
      core::Workload workload = spec.workload(tenant, arrival);
      if (outcome.errors.empty()) {
        outcome.slo = spec.slo(arrival);
        outcome.quote =
            timed(out.quote, spans, "AdmissionController::decide", window, [&] {
              return quoter.decide(workload, options.tenant_class, arrival.at)
                  .quote;
            });
      }
      attempt.done = timed(out.submit, spans, "Fleet::submit", window, [&] {
        return fleet.submit(client, std::move(workload));
      });
      outcome.refused = attempt.done->done();
      if (attempt.done->submitted_at() != attempt.at && out.error.empty()) {
        out.error = "request " + std::to_string(tenant) +
                    " was submitted late: the generator must never lag";
      }
    }
    timed(out.drain, spans, "Fleet::run_until_idle", window, [&] {
      fleet.run_until_idle();
      return 0;
    });
    const Clock::time_point end = Clock::now();
    for (const Attempt& attempt : batch) {
      const Arrival& arrival = arrivals[attempt.request];
      Outcome& outcome = out.outcomes[attempt.request];
      const core::Completion& done = *attempt.done;
      if (!done.done() && out.error.empty()) {
        out.error = "a request was still pending after run_until_idle";
      }
      outcome.status = done.status();
      outcome.finished_at = done.finished_at();
      outcome.latency = done.finished_at() - arrival.at;
      if (spans != nullptr) {
        char args[256];
        std::snprintf(
            args, sizeof(args),
            "\"tenant\":%zu,\"attempt\":%zu,\"role\":%d,\"arrival_s\":%.6f,"
            "\"latency_s\":%.6f,\"status\":\"%s\"",
            attempt.request, outcome.errors.size() + 1, arrival.role,
            arrival.at, outcome.latency,
            std::string(error_code_name(outcome.status.code())).c_str());
        spans->add("request", window, attempt.begun, end, /*lane=*/2, args);
      }
      if (outcome.refused || outcome.status.ok()) continue;
      outcome.errors.push_back(outcome.status.code());
      if (outcome.status.code() == ErrorCode::kOutOfRange &&
          outcome.errors.size() < kMaxAttempts) {
        retries.push_back(
            {.request = attempt.request,
             .at = done.finished_at() +
                   kRetryBackoffSeconds *
                       static_cast<double>(outcome.errors.size())});
      }
    }
    if (spans != nullptr) {
      char args[96];
      std::snprintf(args, sizeof(args),
                    "\"requests\":%zu,\"window_end_s\":%.1f", batch.size(),
                    window_end);
      spans->close(window, args);
    }
  }
  if (spans != nullptr) spans->close(root);
}

/// Virtual end-to-end metrics of one drive, plus the per-layer counts that
/// come from the same completions.
void summarize(const std::vector<Arrival>& arrivals, const Drive& drive,
               RunResult& result) {
  std::vector<double> latencies;
  double first_arrival = arrivals.empty() ? 0.0 : arrivals.front().at;
  double last_finish = first_arrival;
  std::uint64_t met = 0;
  std::uint64_t first_try = 0;
  std::uint64_t unpriced = 0;
  double quoted = 0.0;
  double measured = 0.0;
  double billed = 0.0;
  std::map<std::string, std::uint64_t> failures;  // failed attempts by code
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Outcome& outcome = drive.outcomes[i];
    ++result.attempted;
    last_finish = std::max(last_finish, outcome.finished_at);
    if (outcome.refused) {
      ++result.refused;
      continue;
    }
    billed += outcome.latency;
    for (const ErrorCode error : outcome.errors) {
      const std::string code(error_code_name(error));
      const auto& known = failure_codes();
      ++failures[std::find(known.begin(), known.end(), code) != known.end()
                     ? code
                     : "OTHER"];
    }
    if (!outcome.status.ok()) {
      ++result.failed;
      continue;
    }
    latencies.push_back(outcome.latency);
    if (outcome.errors.empty()) ++first_try;
    if (outcome.latency <= outcome.slo) ++met;
    if (outcome.quote <= 0.0) {
      ++unpriced;
    } else {
      quoted += outcome.quote;
      measured += outcome.latency;
    }
  }
  const double attempted = static_cast<double>(result.attempted);
  const obs::LatencySummary summary = obs::summarize_latencies(latencies);
  Metrics& v = result.virt;
  v["virt_lat_p50_s"] = {summary.p50, "s"};
  v["virt_lat_p99_s"] = {summary.p99, "s"};
  v["virt_makespan_s"] = {last_finish - first_arrival, "s"};
  v["first_try_frac"] = {static_cast<double>(first_try) / attempted,
                         "fraction"};
  v["slo_met_frac"] = {static_cast<double>(met) / attempted, "fraction"};
  v["predict_err_pct"] = {
      measured > 0.0 ? 100.0 * std::abs(quoted - measured) / measured : 0.0,
      "%"};

  Metrics& l = result.layers;
  l["core.requests"] = {attempted, "count"};
  l["core.refused"] = {static_cast<double>(result.refused), "count"};
  l["core.failed"] = {static_cast<double>(result.failed), "count"};
  for (const std::string& code : failure_codes()) {
    l["core.failed." + code] = {static_cast<double>(failures[code]), "count"};
  }
  l["core.add_client_us"] = {drive.add_client.mean_us(), "us"};
  l["core.submit_us"] = {drive.submit.mean_us(), "us"};
  l["core.drain_us"] = {1e6 * drive.drain.seconds / attempted, "us"};
  l["predict.quote_us"] = {drive.quote.mean_us(), "us"};
  l["predict.bias_pct"] = {
      measured > 0.0 ? 100.0 * (quoted - measured) / measured : 0.0, "%"};
  l["predict.unpriced"] = {static_cast<double>(unpriced), "count"};
  l["eq1.billed_s"] = {billed, "s"};
}

SetupTimes set_up(Spec& spec, std::unique_ptr<Testbed>& bed) {
  SetupTimes times;
  Clock::time_point start = Clock::now();
  bed = std::make_unique<Testbed>(spec.profile());
  // Telemetry covers the drive only: calibration and the initial dumps
  // would otherwise land in the same Eq.-1 breakdown.
  bed->system.metrics().set_enabled(false);
  bed->system.tracer().set_enabled(false);
  Clock::time_point now = Clock::now();
  times.build_s = seconds_between(start, now);
  start = now;
  Status status = bed->calibrate(kPtoolSizes);
  now = Clock::now();
  times.calibrate_s = seconds_between(start, now);
  start = now;
  if (status.ok()) status = spec.populate(*bed);
  bed->system.reset_time();
  times.populate_s = seconds_between(start, Clock::now());
  if (!status.ok()) {
    std::fprintf(stderr, "msrabench: set-up failed: %s\n",
                 status.to_string().c_str());
    std::exit(1);
  }
  return times;
}

/// How close one rung of the capacity ladder comes to failing, pooled over
/// the replica seeds: the larger of its SLO-miss share over kMaxMissFrac
/// and its last-tenth median latency over kMaxBacklog times the first
/// tenth's (a growing backlog). The rung passes at <= 1.
double rung_load(Spec& spec, const std::vector<std::uint64_t>& seeds,
                 double rate) {
  std::uint64_t misses = 0;
  std::uint64_t attempted = 0;
  std::vector<double> head, tail;
  for (const std::uint64_t seed : seeds) {
    std::unique_ptr<Testbed> bed;
    set_up(spec, bed);
    const std::vector<Arrival> arrivals =
        generate(spec, seed, spec.capacity_requests(), rate);
    Drive d;
    drive(spec, *bed, arrivals, nullptr, d);
    const std::size_t tenth = arrivals.size() / 10;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Outcome& outcome = d.outcomes[i];
      ++attempted;
      if (!outcome.served() || outcome.latency > outcome.slo) ++misses;
      if (!outcome.served()) continue;
      if (i < tenth) head.push_back(outcome.latency);
      if (i >= arrivals.size() - tenth) tail.push_back(outcome.latency);
    }
  }
  const double miss_load = static_cast<double>(misses) /
                           (kMaxMissFrac * static_cast<double>(attempted));
  const double backlog_load =
      median(tail) / (kMaxBacklog * median(head));
  return std::max(miss_load, backlog_load);
}

}  // namespace

bool is_open_loop(const std::string& workload) {
  return make_spec(workload) != nullptr;
}

RunResult run_open_loop(const std::string& workload,
                        const RunOptions& options) {
  std::unique_ptr<Spec> spec = make_spec(workload);
  RunResult result;
  std::unique_ptr<Testbed> bed;
  result.setup = set_up(*spec, bed);

  const int count = std::max(
      1, static_cast<int>(std::lround(spec->requests() * options.scale)));
  const std::vector<Arrival> arrivals =
      generate(*spec, options.seed, count, spec->rate());
  bed->system.metrics().set_enabled(true);
  bed->system.tracer().set_enabled(options.traced);
  Drive d;
  drive(*spec, *bed, arrivals, options.spans, d);
  bed->system.tracer().set_enabled(false);
  result.drive_host_s = d.host_seconds();
  summarize(arrivals, d, result);
  result.error = d.error;

  if (options.traced) {
    system_layers(*bed, result.layers["eq1.billed_s"].value, result.layers);
    probe_layers(*bed, spec->probe(), result.layers);
    spec->layers(result.layers);
  }
  Digest digest;
  const Status verified =
      spec->verify(*bed, arrivals, d.outcomes, options.seed, digest);
  if (!verified.ok() && result.error.empty()) {
    result.error = verified.to_string();
  }
  result.digest = digest.hex();
  return result;
}

SetupTimes open_loop_set_up(const std::string& workload) {
  std::unique_ptr<Spec> spec = make_spec(workload);
  std::unique_ptr<Testbed> bed;
  return set_up(*spec, bed);
}

double open_loop_capacity(const std::string& workload,
                          const std::vector<std::uint64_t>& seeds) {
  std::unique_ptr<Spec> spec = make_spec(workload);
  double last_rate = 0.0;
  double last_load = 0.0;
  for (const double rung : kCapacityRungs) {
    const double rate = rung * spec->rate();
    const double load = rung_load(*spec, seeds, rate);
    if (load > 1.0) {
      if (last_rate == 0.0) return rate / load;  // the lowest rung fails
      // Where the load crosses 1 between the two rungs, in log rate.
      const double t = (1.0 - last_load) / (load - last_load);
      return std::exp(std::log(last_rate) +
                      t * (std::log(rate) - std::log(last_rate)));
    }
    last_rate = rate;
    last_load = load;
  }
  return last_rate;
}

}  // namespace msrabench
