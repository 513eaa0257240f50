#include "predict/ptool.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "cache/cache.h"
#include "runtime/endpoint.h"

namespace msra::predict {

namespace {
/// Byte i of a probe is i·131+7 mod 256, a pattern with period 256: write
/// one period, then double the filled prefix until the buffer is full.
ByteBuffer probe_payload(std::uint64_t bytes) {
  constexpr std::uint64_t kPeriod = 256;
  ByteBuffer out(bytes);
  const std::uint64_t first = std::min(bytes, kPeriod);
  for (std::uint64_t i = 0; i < first; ++i) {
    out[i] = static_cast<std::byte>(i * 131 + 7);
  }
  // `filled` stays a multiple of the period, so each copy continues it.
  for (std::uint64_t filled = first; filled < bytes;) {
    const std::uint64_t n = std::min(filled, bytes - filled);
    std::memcpy(out.data() + filled, out.data(), n);
    filled += n;
  }
  return out;
}

/// Restores an endpoint's fast-path config when a probe exits early.
struct FastPathGuard {
  runtime::StorageEndpoint* endpoint;
  runtime::FastPathConfig saved;
  ~FastPathGuard() { endpoint->set_fast_path(saved); }
};
}  // namespace

Status PTool::warm_up(core::Location location) {
  if (location != core::Location::kRemoteTape) return Status::Ok();
  // Touch the tape so the cartridge is mounted; otherwise the first probe
  // absorbs the one-time mount (the paper's Table 1 numbers are steady-state).
  runtime::StorageEndpoint& endpoint = system_.endpoint(location);
  simkit::Timeline tl;
  MSRA_RETURN_IF_ERROR(endpoint.connect(tl));
  const std::string path = "ptool/warmup";
  MSRA_ASSIGN_OR_RETURN(auto handle,
                        endpoint.open(tl, path, srb::OpenMode::kOverwrite));
  auto payload = probe_payload(1024);
  MSRA_RETURN_IF_ERROR(endpoint.write(tl, handle, payload));
  MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
  return endpoint.disconnect(tl);
}

StatusOr<FixedCosts> PTool::measure_fixed(core::Location location, IoOp op) {
  runtime::StorageEndpoint& endpoint = system_.endpoint(location);
  const std::string path = "ptool/fixed" + std::to_string(probe_counter_++);
  FixedCosts costs;
  system_.reset_time();  // probe idle hardware, not a queue behind past probes
  simkit::Timeline tl;

  // Tconn.
  double t0 = tl.now();
  MSRA_RETURN_IF_ERROR(endpoint.connect(tl));
  costs.conn = tl.now() - t0;

  if (op == IoOp::kWrite) {
    // Topen (create).
    t0 = tl.now();
    MSRA_ASSIGN_OR_RETURN(auto handle,
                          endpoint.open(tl, path, srb::OpenMode::kOverwrite));
    costs.open = tl.now() - t0;
    auto payload = probe_payload(4096);
    MSRA_RETURN_IF_ERROR(endpoint.write(tl, handle, payload));
    // Tclose.
    t0 = tl.now();
    MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
    costs.close = tl.now() - t0;
    costs.seek = 0.0;  // writes in our stack are sequential (the paper's "-")
  } else {
    // A read probe needs an existing object (written untimed).
    {
      MSRA_ASSIGN_OR_RETURN(auto handle,
                            endpoint.open(tl, path, srb::OpenMode::kOverwrite));
      auto payload = probe_payload(8192);
      MSRA_RETURN_IF_ERROR(endpoint.write(tl, handle, payload));
      MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
    }
    t0 = tl.now();
    MSRA_ASSIGN_OR_RETURN(auto handle,
                          endpoint.open(tl, path, srb::OpenMode::kRead));
    costs.open = tl.now() - t0;
    // Tseek: reposition to a different offset.
    t0 = tl.now();
    MSRA_RETURN_IF_ERROR(endpoint.seek(tl, handle, 4096));
    costs.seek = tl.now() - t0;
    t0 = tl.now();
    MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
    costs.close = tl.now() - t0;
  }

  // Tconnclose.
  t0 = tl.now();
  MSRA_RETURN_IF_ERROR(endpoint.disconnect(tl));
  costs.connclose = tl.now() - t0;

  (void)endpoint.connect(tl);
  (void)endpoint.remove(tl, path);
  (void)endpoint.disconnect(tl);
  return costs;
}

StatusOr<double> PTool::measure_rw(core::Location location, IoOp op,
                                   std::uint64_t bytes, int repeats) {
  if (repeats < 1) repeats = 1;
  runtime::StorageEndpoint& endpoint = system_.endpoint(location);
  system_.reset_time();  // probe idle hardware
  simkit::Timeline tl;
  MSRA_RETURN_IF_ERROR(endpoint.connect(tl));
  auto payload = probe_payload(bytes);
  double total = 0.0;
  std::vector<std::string> probe_paths;

  for (int rep = 0; rep < repeats; ++rep) {
    const std::string path = "ptool/rw" + std::to_string(probe_counter_++);
    probe_paths.push_back(path);
    if (op == IoOp::kWrite) {
      MSRA_ASSIGN_OR_RETURN(auto handle,
                            endpoint.open(tl, path, srb::OpenMode::kOverwrite));
      const double t0 = tl.now();
      MSRA_RETURN_IF_ERROR(endpoint.write(tl, handle, payload));
      total += tl.now() - t0;
      MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
    } else {
      {
        MSRA_ASSIGN_OR_RETURN(auto handle,
                              endpoint.open(tl, path, srb::OpenMode::kOverwrite));
        MSRA_RETURN_IF_ERROR(endpoint.write(tl, handle, payload));
        MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
      }
      MSRA_ASSIGN_OR_RETURN(auto handle,
                            endpoint.open(tl, path, srb::OpenMode::kRead));
      std::vector<std::byte> out(bytes);
      const double t0 = tl.now();
      MSRA_RETURN_IF_ERROR(endpoint.read(tl, handle, out));
      total += tl.now() - t0;
      MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
    }
  }
  for (const auto& path : probe_paths) (void)endpoint.remove(tl, path);
  MSRA_RETURN_IF_ERROR(endpoint.disconnect(tl));
  return total / repeats;
}

StatusOr<double> PTool::measure_rw_pipelined(core::Location location, IoOp op,
                                             std::uint64_t bytes,
                                             std::uint32_t streams, int repeats) {
  runtime::StorageEndpoint& endpoint = system_.endpoint(location);
  FastPathGuard guard{&endpoint, endpoint.fast_path()};
  runtime::FastPathConfig cfg = guard.saved;
  cfg.pipelined_transfers = true;
  cfg.streams = streams;
  cfg.pipeline_threshold_bytes = 1;  // probe the fast path at every size
  endpoint.set_fast_path(cfg);
  return measure_rw(location, op, bytes, repeats);
}

StatusOr<double> PTool::measure_batch_overhead(core::Location location, IoOp op,
                                               int runs,
                                               std::uint64_t run_bytes) {
  if (runs < 2) runs = 2;
  if (run_bytes == 0) run_bytes = 1;
  runtime::StorageEndpoint& endpoint = system_.endpoint(location);
  FastPathGuard guard{&endpoint, endpoint.fast_path()};
  runtime::FastPathConfig cfg = guard.saved;
  cfg.vectored_rpc = true;
  endpoint.set_fast_path(cfg);

  const std::uint64_t total = static_cast<std::uint64_t>(runs) * run_bytes;
  // Every other run of the object is touched, so each strided run needs a
  // real (billed) server-side seek; the contiguous baseline needs none.
  std::vector<runtime::IoRun> strided;
  strided.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    strided.push_back({2 * static_cast<std::uint64_t>(i) * run_bytes, run_bytes});
  }
  const std::vector<runtime::IoRun> contiguous = {{0, total}};

  system_.reset_time();  // probe idle hardware
  simkit::Timeline tl;
  MSRA_RETURN_IF_ERROR(endpoint.connect(tl));
  const std::string path = "ptool/batch" + std::to_string(probe_counter_++);
  auto object = probe_payload(2 * total);
  {
    // Untimed prep: the full object must exist for both probes.
    MSRA_ASSIGN_OR_RETURN(auto handle,
                          endpoint.open(tl, path, srb::OpenMode::kOverwrite));
    MSRA_RETURN_IF_ERROR(endpoint.write(tl, handle, object));
    MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
  }
  double t_many = 0.0;
  double t_one = 0.0;
  const srb::OpenMode mode =
      op == IoOp::kRead ? srb::OpenMode::kRead : srb::OpenMode::kUpdate;
  std::vector<std::byte> buffer(total);
  std::span<const std::byte> payload(object.data(), total);
  for (int probe = 0; probe < 2; ++probe) {
    const auto& runlist = probe == 0 ? strided : contiguous;
    // Fresh handle per probe so the previous probe's file position cannot
    // turn the first access into a billed seek.
    MSRA_ASSIGN_OR_RETURN(auto handle, endpoint.open(tl, path, mode));
    const double t0 = tl.now();
    if (op == IoOp::kRead) {
      MSRA_RETURN_IF_ERROR(endpoint.readv(tl, handle, runlist, buffer));
    } else {
      MSRA_RETURN_IF_ERROR(endpoint.writev(tl, handle, runlist, payload));
    }
    (probe == 0 ? t_many : t_one) = tl.now() - t0;
    MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
  }
  (void)endpoint.remove(tl, path);
  MSRA_RETURN_IF_ERROR(endpoint.disconnect(tl));
  return std::max(0.0, (t_many - t_one) / (runs - 1));
}

StatusOr<double> PTool::measure_contended_rw(core::Location location, IoOp op,
                                             int clients, std::uint64_t bytes,
                                             int rounds) {
  if (clients < 1) clients = 1;
  if (rounds < 1) rounds = 1;
  runtime::StorageEndpoint& endpoint = system_.endpoint(location);
  auto payload = probe_payload(bytes);

  // Untimed prep: one shared connection (the same substrate concurrent
  // sessions use) and one open handle per probe client. Read probes get
  // `rounds` payloads back to back so every timed round reads fresh bytes
  // sequentially — no repositioning inside the measurement.
  system_.reset_time();
  simkit::Timeline prep;
  MSRA_RETURN_IF_ERROR(endpoint.connect(prep));
  std::vector<std::string> paths;
  std::vector<srb::HandleId> handles;
  handles.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    const std::string path = "ptool/load" + std::to_string(probe_counter_++);
    paths.push_back(path);
    if (op == IoOp::kWrite) {
      MSRA_ASSIGN_OR_RETURN(auto handle,
                            endpoint.open(prep, path, srb::OpenMode::kOverwrite));
      handles.push_back(handle);
    } else {
      {
        MSRA_ASSIGN_OR_RETURN(
            auto handle, endpoint.open(prep, path, srb::OpenMode::kOverwrite));
        for (int r = 0; r < rounds; ++r) {
          MSRA_RETURN_IF_ERROR(endpoint.write(prep, handle, payload));
        }
        MSRA_RETURN_IF_ERROR(endpoint.close(prep, handle));
      }
      MSRA_ASSIGN_OR_RETURN(auto handle,
                            endpoint.open(prep, path, srb::OpenMode::kRead));
      handles.push_back(handle);
    }
  }

  // Timed phase: fresh device clocks, one fresh timeline per probe, every
  // probe ready at t = 0, transfers issued round-robin for `rounds` rounds.
  // Round 1 is the FIFO service of a simultaneous burst; later rounds are
  // the steady state of `clients` tenants time-sharing the device — the
  // regime a sustained multi-client run actually sees.
  system_.reset_time();
  std::vector<simkit::Timeline> timelines(static_cast<std::size_t>(clients));
  double total = 0.0;
  std::vector<std::byte> out(bytes);
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < clients; ++i) {
      simkit::Timeline& tl = timelines[static_cast<std::size_t>(i)];
      const double t0 = tl.now();
      if (op == IoOp::kWrite) {
        MSRA_RETURN_IF_ERROR(
            endpoint.write(tl, handles[static_cast<std::size_t>(i)], payload));
      } else {
        MSRA_RETURN_IF_ERROR(
            endpoint.read(tl, handles[static_cast<std::size_t>(i)], out));
      }
      total += tl.now() - t0;
    }
  }

  simkit::Timeline cleanup;
  for (int i = 0; i < clients; ++i) {
    (void)endpoint.close(cleanup, handles[static_cast<std::size_t>(i)]);
  }
  for (const auto& path : paths) (void)endpoint.remove(cleanup, path);
  MSRA_RETURN_IF_ERROR(endpoint.disconnect(cleanup));
  return total / (static_cast<double>(clients) * rounds);
}

StatusOr<FixedCosts> PTool::measure_contended_fixed(core::Location location,
                                                    IoOp op, int clients,
                                                    int rounds) {
  if (clients < 1) clients = 1;
  if (rounds < 1) rounds = 1;
  runtime::StorageEndpoint& endpoint = system_.endpoint(location);
  std::vector<std::string> paths;
  for (int i = 0; i < clients; ++i) {
    paths.push_back("ptool/loadfix" + std::to_string(probe_counter_++));
  }

  // Read probes need existing objects (written untimed, connection torn
  // down again so the timed phase starts cold).
  if (op == IoOp::kRead) {
    system_.reset_time();
    simkit::Timeline prep;
    MSRA_RETURN_IF_ERROR(endpoint.connect(prep));
    auto payload = probe_payload(8192);
    for (const auto& path : paths) {
      MSRA_ASSIGN_OR_RETURN(auto handle,
                            endpoint.open(prep, path, srb::OpenMode::kOverwrite));
      MSRA_RETURN_IF_ERROR(endpoint.write(prep, handle, payload));
      MSRA_RETURN_IF_ERROR(endpoint.close(prep, handle));
    }
    MSRA_RETURN_IF_ERROR(endpoint.disconnect(prep));
  }

  // Every Eq. (1) phase runs as a burst of `clients` probes, phase by phase
  // in lockstep, repeated for `rounds` full sessions — the same shared
  // endpoint concurrent sessions go through, so pooled-connection effects
  // (the first session in flight keeps the wire up for the others) are
  // measured, not modeled. Later rounds give the steady-state inflation a
  // sustained multi-client run sees.
  system_.reset_time();
  std::vector<simkit::Timeline> timelines(static_cast<std::size_t>(clients));
  std::vector<srb::HandleId> handles(
      static_cast<std::size_t>(clients));
  FixedCosts sum;
  const srb::OpenMode mode =
      op == IoOp::kWrite ? srb::OpenMode::kOverwrite : srb::OpenMode::kRead;

  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < clients; ++i) {
      simkit::Timeline& tl = timelines[static_cast<std::size_t>(i)];
      const double t0 = tl.now();
      MSRA_RETURN_IF_ERROR(endpoint.connect(tl));
      sum.conn += tl.now() - t0;
    }
    for (int i = 0; i < clients; ++i) {
      simkit::Timeline& tl = timelines[static_cast<std::size_t>(i)];
      const double t0 = tl.now();
      MSRA_ASSIGN_OR_RETURN(
          handles[static_cast<std::size_t>(i)],
          endpoint.open(tl, paths[static_cast<std::size_t>(i)], mode));
      sum.open += tl.now() - t0;
    }
    if (op == IoOp::kWrite) {
      auto payload = probe_payload(4096);
      for (int i = 0; i < clients; ++i) {
        MSRA_RETURN_IF_ERROR(endpoint.write(
            timelines[static_cast<std::size_t>(i)],
            handles[static_cast<std::size_t>(i)], payload));
      }
      sum.seek = 0.0;  // writes in our stack are sequential (the paper's "-")
    } else {
      for (int i = 0; i < clients; ++i) {
        simkit::Timeline& tl = timelines[static_cast<std::size_t>(i)];
        const double t0 = tl.now();
        MSRA_RETURN_IF_ERROR(
            endpoint.seek(tl, handles[static_cast<std::size_t>(i)], 4096));
        sum.seek += tl.now() - t0;
      }
    }
    for (int i = 0; i < clients; ++i) {
      simkit::Timeline& tl = timelines[static_cast<std::size_t>(i)];
      const double t0 = tl.now();
      MSRA_RETURN_IF_ERROR(
          endpoint.close(tl, handles[static_cast<std::size_t>(i)]));
      sum.close += tl.now() - t0;
    }
    for (int i = 0; i < clients; ++i) {
      simkit::Timeline& tl = timelines[static_cast<std::size_t>(i)];
      const double t0 = tl.now();
      MSRA_RETURN_IF_ERROR(endpoint.disconnect(tl));
      sum.connclose += tl.now() - t0;
    }
  }

  simkit::Timeline cleanup;
  (void)endpoint.connect(cleanup);
  for (const auto& path : paths) (void)endpoint.remove(cleanup, path);
  (void)endpoint.disconnect(cleanup);

  const double n = static_cast<double>(clients) * rounds;
  FixedCosts mean;
  mean.conn = sum.conn / n;
  mean.open = sum.open / n;
  mean.seek = sum.seek / n;
  mean.close = sum.close / n;
  mean.connclose = sum.connclose / n;
  return mean;
}

StatusOr<FixedCosts> PTool::measure_cache_fixed() {
  cache::ReadCache* cache = system_.cache();
  if (cache == nullptr) {
    return Status::FailedPrecondition(
        "no read cache enabled (StorageSystem::enable_cache)");
  }
  runtime::StorageEndpoint& endpoint = cache->endpoint();
  const std::string path = "ptool/cachefix" + std::to_string(probe_counter_++);
  // Probe entry inserted unpriced (admission would reject an object the
  // predictor has no refetch quote for) and dropped again afterwards.
  auto payload = probe_payload(8192);
  MSRA_RETURN_IF_ERROR(cache->insert_probe(path, "ptool", payload));
  FixedCosts costs;
  simkit::Timeline tl;

  double t0 = tl.now();
  MSRA_RETURN_IF_ERROR(endpoint.connect(tl));
  costs.conn = tl.now() - t0;

  t0 = tl.now();
  MSRA_ASSIGN_OR_RETURN(auto handle,
                        endpoint.open(tl, path, srb::OpenMode::kRead));
  costs.open = tl.now() - t0;

  t0 = tl.now();
  MSRA_RETURN_IF_ERROR(endpoint.seek(tl, handle, 4096));
  costs.seek = tl.now() - t0;

  t0 = tl.now();
  MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
  costs.close = tl.now() - t0;

  t0 = tl.now();
  MSRA_RETURN_IF_ERROR(endpoint.disconnect(tl));
  costs.connclose = tl.now() - t0;

  cache->invalidate(path);
  return costs;
}

StatusOr<double> PTool::measure_cache_rw(std::uint64_t bytes, int repeats) {
  if (repeats < 1) repeats = 1;
  cache::ReadCache* cache = system_.cache();
  if (cache == nullptr) {
    return Status::FailedPrecondition(
        "no read cache enabled (StorageSystem::enable_cache)");
  }
  runtime::StorageEndpoint& endpoint = cache->endpoint();
  auto payload = probe_payload(bytes);
  simkit::Timeline tl;
  MSRA_RETURN_IF_ERROR(endpoint.connect(tl));
  double total = 0.0;
  std::vector<std::byte> out(bytes);
  for (int rep = 0; rep < repeats; ++rep) {
    const std::string path = "ptool/cacherw" + std::to_string(probe_counter_++);
    MSRA_RETURN_IF_ERROR(cache->insert_probe(path, "ptool", payload));
    MSRA_ASSIGN_OR_RETURN(auto handle,
                          endpoint.open(tl, path, srb::OpenMode::kRead));
    const double t0 = tl.now();
    MSRA_RETURN_IF_ERROR(endpoint.read(tl, handle, out));
    total += tl.now() - t0;
    MSRA_RETURN_IF_ERROR(endpoint.close(tl, handle));
    cache->invalidate(path);
  }
  MSRA_RETURN_IF_ERROR(endpoint.disconnect(tl));
  return total / repeats;
}

Status PTool::measure_cache(const PToolConfig& config) {
  MSRA_ASSIGN_OR_RETURN(FixedCosts costs, measure_cache_fixed());
  MSRA_RETURN_IF_ERROR(db_.put_cache_fixed(IoOp::kRead, costs));
  for (std::uint64_t bytes : config.sizes) {
    MSRA_ASSIGN_OR_RETURN(double seconds,
                          measure_cache_rw(bytes, config.repeats));
    MSRA_RETURN_IF_ERROR(db_.put_cache_rw_point(IoOp::kRead, bytes, seconds));
  }
  return Status::Ok();
}

Status PTool::measure_location(core::Location location, const PToolConfig& config) {
  MSRA_RETURN_IF_ERROR(warm_up(location));
  for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    MSRA_ASSIGN_OR_RETURN(FixedCosts costs, measure_fixed(location, op));
    MSRA_RETURN_IF_ERROR(db_.put_fixed(location, op, costs));
    for (std::uint64_t bytes : config.sizes) {
      MSRA_ASSIGN_OR_RETURN(double seconds,
                            measure_rw(location, op, bytes, config.repeats));
      MSRA_RETURN_IF_ERROR(db_.put_rw_point(location, op, bytes, seconds));
    }
  }
  // Fast-path cost model: only the remote disks have a pipelined/vectored
  // path worth measuring (tape stays sequential, local disks have no WAN).
  if (config.measure_fast_path && location == core::Location::kRemoteDisk) {
    for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      for (std::uint64_t bytes : config.sizes) {
        MSRA_ASSIGN_OR_RETURN(
            double seconds,
            measure_rw_pipelined(location, op, bytes, config.pipeline_streams,
                                 config.repeats));
        MSRA_RETURN_IF_ERROR(db_.put_rw_point(location, op, bytes, seconds,
                                              TransferMode::kPipelined));
      }
      MSRA_ASSIGN_OR_RETURN(
          double per_run,
          measure_batch_overhead(location, op, config.batch_probe_runs,
                                 config.batch_probe_run_bytes));
      MSRA_RETURN_IF_ERROR(db_.put_batch_overhead(location, op, per_run));
    }
  }
  // Contended curves: re-probe with k simultaneous clients so the predictor
  // can price multi-tenant runs from measurements instead of the analytic
  // queueing fallback. Off by default (the single-client tables above stay
  // byte-identical when disabled).
  if (config.measure_contended) {
    for (int clients : config.contended_levels) {
      if (clients < 2) continue;
      for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
        MSRA_ASSIGN_OR_RETURN(
            FixedCosts costs,
            measure_contended_fixed(location, op, clients,
                                    config.contended_rounds));
        MSRA_RETURN_IF_ERROR(
            db_.put_contended_fixed(location, op, clients, costs));
        for (std::uint64_t bytes : config.sizes) {
          MSRA_ASSIGN_OR_RETURN(
              double seconds,
              measure_contended_rw(location, op, clients, bytes,
                                   config.contended_rounds));
          MSRA_RETURN_IF_ERROR(
              db_.put_contended_rw_point(location, op, clients, bytes, seconds));
        }
      }
    }
  }
  return Status::Ok();
}

Status PTool::measure_all(const PToolConfig& config) {
  for (core::Location location : core::kConcreteLocations) {
    MSRA_RETURN_IF_ERROR(measure_location(location, config));
  }
  // Cache tier: probed once (node-local, fronting every resource the same
  // way), and only on request against an enabled cache.
  if (config.measure_cache && system_.cache() != nullptr) {
    MSRA_RETURN_IF_ERROR(measure_cache(config));
  }
  return Status::Ok();
}

}  // namespace msra::predict
