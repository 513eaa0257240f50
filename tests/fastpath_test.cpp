// Remote I/O fast path: vectored RPC batching, pipelined striped transfers
// and connection pooling — semantics, billing, and the predictor's grip on
// the new cost model. Every optimization is OFF by default; the first tests
// pin down that OFF reproduces the baseline exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/profiles.h"
#include "core/session.h"
#include "core/system.h"
#include "obs/report.h"
#include "predict/perfdb.h"
#include "predict/predictor.h"
#include "predict/ptool.h"
#include "prt/comm.h"
#include "runtime/endpoint.h"
#include "runtime/parallel_io.h"
#include "runtime/plan.h"
#include "srb/protocol.h"

namespace msra::runtime {
namespace {

using core::HardwareProfile;
using core::Location;
using core::StorageSystem;
using prt::Comm;
using prt::World;
using simkit::Timeline;

srb::FastPathStats client_stats(StorageEndpoint& endpoint) {
  auto* remote = dynamic_cast<RemoteEndpoint*>(endpoint.unwrap());
  EXPECT_NE(remote, nullptr);
  return remote->client().stats();
}

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 131 + static_cast<std::size_t>(seed)) & 0xff);
  }
  return out;
}

void store_object(StorageEndpoint& endpoint, const std::string& path,
                  std::span<const std::byte> data) {
  Timeline tl;
  auto file = FileSession::start(endpoint, tl, path, srb::OpenMode::kOverwrite);
  ASSERT_TRUE(file.ok()) << file.status().to_string();
  ASSERT_TRUE(file->write(data).ok());
  ASSERT_TRUE(file->finish().ok());
}

// ------------------------------------------------------- vectored RPCs ----

class VectoredRpcTest : public ::testing::Test {
 protected:
  VectoredRpcTest() : system_(HardwareProfile::test_profile()) {}
  StorageSystem system_;
};

// A rank's whole run list travels in one kReadv instead of a seek+read RPC
// pair per run: same bytes, at least 5x faster on the emulated WAN.
TEST_F(VectoredRpcTest, NaiveStridedReadMatchesAndBeatsPerRunLoop) {
  auto d = prt::Decomposition::create({64, 64, 64}, 4, "BBB");
  ASSERT_TRUE(d.ok());
  ArrayLayout layout{*d, 4};
  StorageEndpoint& endpoint = system_.endpoint(Location::kRemoteDisk);
  {
    World world(4);
    world.run([&](Comm& comm) {
      const prt::LocalBox box = layout.decomp.local_box(comm.rank());
      auto block = pattern(box.volume() * 4, comm.rank());
      ASSERT_TRUE(write_array(endpoint, comm, "vec/a", layout, block,
                              IoMethod::kCollective).ok());
    });
  }
  double times[2] = {0.0, 0.0};
  int idx = 0;
  for (bool vectored : {false, true}) {
    system_.reset_time();
    FastPathConfig cfg;
    cfg.vectored_rpc = vectored;
    endpoint.set_fast_path(cfg);
    World world(4);
    world.run([&](Comm& comm) {
      const prt::LocalBox box = layout.decomp.local_box(comm.rank());
      std::vector<std::byte> out(box.volume() * 4);
      ASSERT_TRUE(read_array(endpoint, comm, "vec/a", layout, out,
                             IoMethod::kNaive).ok());
      EXPECT_EQ(out, pattern(out.size(), comm.rank()));
      if (comm.rank() == 0) times[idx] = comm.timeline().now();
    });
    ++idx;
  }
  endpoint.set_fast_path({});
  EXPECT_GE(times[0] / times[1], 5.0)
      << "off " << times[0] << "s vs on " << times[1] << "s";
  const auto stats = client_stats(endpoint);
  EXPECT_GE(stats.batched_calls, 4u);  // one kReadv per rank
  // Each rank's strided accesses coalesce into 32 contiguous runs here
  // (adjacent rows merge); all of them rode in the vectored calls.
  EXPECT_GE(stats.batched_runs, 4u * 32u);
  EXPECT_GT(stats.batched_runs, stats.batched_calls);
}

TEST_F(VectoredRpcTest, OffByDefaultReproducesBaselineExactly) {
  FastPathConfig defaults;
  EXPECT_FALSE(defaults.vectored_rpc);
  EXPECT_FALSE(defaults.pipelined_transfers);
  EXPECT_FALSE(defaults.connection_pool);

  auto d = prt::Decomposition::create({16, 16, 16}, 2, "BBB");
  ASSERT_TRUE(d.ok());
  ArrayLayout layout{*d, 4};
  StorageEndpoint& endpoint = system_.endpoint(Location::kRemoteDisk);
  {
    World world(2);
    world.run([&](Comm& comm) {
      const prt::LocalBox box = layout.decomp.local_box(comm.rank());
      auto block = pattern(box.volume() * 4, comm.rank());
      ASSERT_TRUE(write_array(endpoint, comm, "vec/b", layout, block,
                              IoMethod::kCollective).ok());
    });
  }
  // Untouched config vs explicitly-default config vs on-then-off again:
  // bit-identical virtual times.
  double times[3] = {0.0, 0.0, 0.0};
  for (int round = 0; round < 3; ++round) {
    if (round == 1) endpoint.set_fast_path(FastPathConfig{});
    if (round == 2) {
      FastPathConfig cfg;
      cfg.vectored_rpc = true;
      cfg.pipelined_transfers = true;
      cfg.connection_pool = true;
      endpoint.set_fast_path(cfg);
      endpoint.set_fast_path(FastPathConfig{});
    }
    system_.reset_time();
    World world(2);
    world.run([&](Comm& comm) {
      const prt::LocalBox box = layout.decomp.local_box(comm.rank());
      std::vector<std::byte> out(box.volume() * 4);
      ASSERT_TRUE(read_array(endpoint, comm, "vec/b", layout, out,
                             IoMethod::kNaive).ok());
      if (comm.rank() == 0) times[round] = comm.timeline().now();
    });
  }
  EXPECT_DOUBLE_EQ(times[0], times[1]);
  EXPECT_DOUBLE_EQ(times[0], times[2]);
}

// The wire accounting stays honest: a vectored request still pays for the
// message header, every run descriptor, and the full payload on the WAN.
TEST_F(VectoredRpcTest, WireChargesHeaderDescriptorsAndPayload) {
  StorageEndpoint& endpoint = system_.endpoint(Location::kRemoteDisk);
  const std::uint64_t kRunBytes = 4096;
  const int kRuns = 16;
  const std::uint64_t total = kRuns * kRunBytes;
  auto object = pattern(2 * total, 7);
  store_object(endpoint, "vec/wire", object);

  FastPathConfig cfg;
  cfg.vectored_rpc = true;
  endpoint.set_fast_path(cfg);
  std::vector<IoRun> runs;
  for (int i = 0; i < kRuns; ++i) {
    runs.push_back({2 * static_cast<std::uint64_t>(i) * kRunBytes, kRunBytes});
  }
  Timeline tl;
  auto file = FileSession::start(endpoint, tl, "vec/wire", srb::OpenMode::kRead);
  ASSERT_TRUE(file.ok());
  std::vector<std::byte> out(total);
  const double t0 = tl.now();
  ASSERT_TRUE(file->readv(runs, out).ok());
  const double elapsed = tl.now() - t0;
  ASSERT_TRUE(file->finish().ok());
  endpoint.set_fast_path({});

  // Every requested byte is the right one.
  for (int i = 0; i < kRuns; ++i) {
    for (std::uint64_t b = 0; b < kRunBytes; ++b) {
      ASSERT_EQ(out[i * kRunBytes + b], object[runs[i].offset + b]);
    }
  }
  // Lower bound from the test profile: request + response cross a 1 MB/s,
  // 10 ms link; the response alone carries header + payload.
  const double kBandwidth = 1.0e6;
  const double wire_floor =
      2 * 0.01 +
      (2 * srb::kMessageOverheadBytes + kRuns * srb::kRunDescriptorBytes +
       static_cast<double>(total)) /
          kBandwidth;
  EXPECT_GE(elapsed, wire_floor);
}

TEST_F(VectoredRpcTest, DumpPlanBatchedCoalescesRuns) {
  auto d = prt::Decomposition::create({64, 64, 64}, 8, "BBB");
  ASSERT_TRUE(d.ok());
  ArrayLayout layout{*d, 4};
  const auto classic =
      PlanBuilder::dataset_dump(layout, IoMethod::kNaive, 1, PlanDir::kWrite);
  ASSERT_TRUE(classic.ok());
  EXPECT_EQ(classic->runs_per_call(), 1u);
  EXPECT_FALSE(classic->vectored);
  const auto batched =
      PlanBuilder::dataset_dump(layout, IoMethod::kNaive, 1, PlanDir::kWrite,
                                {.vectored_rpc = true});
  ASSERT_TRUE(batched.ok());
  EXPECT_TRUE(batched->vectored);
  EXPECT_EQ(batched->calls_per_dump(), 8u);  // one vectored RPC per rank
  EXPECT_EQ(batched->runs_per_call(), 32u * 32u);
  EXPECT_EQ(batched->call_bytes(), 64u * 64 * 64 * 4 / 8);
  // The collective plan is untouched: it already issues one large request.
  const auto collective =
      PlanBuilder::dataset_dump(layout, IoMethod::kCollective, 1,
                                PlanDir::kWrite, {.vectored_rpc = true});
  ASSERT_TRUE(collective.ok());
  EXPECT_EQ(collective->calls_per_dump(), 1u);
  EXPECT_EQ(collective->runs_per_call(), 1u);
}

// --------------------------------------------------- pipelined transfers --

class PipelinedTest : public ::testing::Test {
 protected:
  PipelinedTest() : system_(HardwareProfile::paper_2000()) {}
  StorageSystem system_;
};

TEST_F(PipelinedTest, MultiStreamReadOverlapsDiskWithWan) {
  StorageEndpoint& endpoint = system_.endpoint(Location::kRemoteDisk);
  auto data = pattern(8ull << 20, 3);
  store_object(endpoint, "pipe/big", data);

  double serial = 0.0, pipelined = 0.0;
  const auto before = client_stats(endpoint);
  for (bool on : {false, true}) {
    system_.reset_time();
    FastPathConfig cfg;
    cfg.pipelined_transfers = on;
    endpoint.set_fast_path(cfg);
    Timeline tl;
    auto file = FileSession::start(endpoint, tl, "pipe/big", srb::OpenMode::kRead);
    ASSERT_TRUE(file.ok());
    std::vector<std::byte> out(data.size());
    ASSERT_TRUE(file->read(out).ok());
    ASSERT_TRUE(file->finish().ok());
    EXPECT_EQ(out, data);
    (on ? pipelined : serial) = tl.now();
  }
  endpoint.set_fast_path({});
  EXPECT_LT(pipelined, serial);
  const auto after = client_stats(endpoint);
  EXPECT_EQ(after.pipelined_transfers - before.pipelined_transfers, 1u);
  EXPECT_EQ(after.pipelined_chunks - before.pipelined_chunks, 8u);
  EXPECT_GT(after.overlap_saved_seconds(), before.overlap_saved_seconds());
}

// One stream is the chunked-serial control: round-trip spans tile exactly,
// so zero overlap is reported (and nothing is "saved" by chunking alone).
TEST_F(PipelinedTest, SingleStreamReportsNoOverlap) {
  StorageEndpoint& endpoint = system_.endpoint(Location::kRemoteDisk);
  auto data = pattern(4ull << 20, 4);
  store_object(endpoint, "pipe/one", data);

  const auto before = client_stats(endpoint);
  FastPathConfig cfg;
  cfg.pipelined_transfers = true;
  cfg.streams = 1;
  endpoint.set_fast_path(cfg);
  Timeline tl;
  auto file = FileSession::start(endpoint, tl, "pipe/one", srb::OpenMode::kRead);
  ASSERT_TRUE(file.ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(file->read(out).ok());
  ASSERT_TRUE(file->finish().ok());
  endpoint.set_fast_path({});
  EXPECT_EQ(out, data);
  const auto after = client_stats(endpoint);
  const double serial_delta =
      after.pipeline_serial_seconds - before.pipeline_serial_seconds;
  const double elapsed_delta =
      after.pipeline_elapsed_seconds - before.pipeline_elapsed_seconds;
  EXPECT_GT(serial_delta, 0.0);
  EXPECT_NEAR(serial_delta, elapsed_delta, 1e-9);
}

TEST_F(PipelinedTest, MultiStreamWriteOverlapsAndRoundTrips) {
  StorageEndpoint& endpoint = system_.endpoint(Location::kRemoteDisk);
  auto data = pattern(6ull << 20, 5);

  double serial = 0.0, pipelined = 0.0;
  for (bool on : {false, true}) {
    system_.reset_time();
    FastPathConfig cfg;
    cfg.pipelined_transfers = on;
    endpoint.set_fast_path(cfg);
    Timeline tl;
    auto file = FileSession::start(endpoint, tl, "pipe/w", srb::OpenMode::kOverwrite);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->write(data).ok());
    ASSERT_TRUE(file->finish().ok());
    (on ? pipelined : serial) = tl.now();
  }
  endpoint.set_fast_path({});
  EXPECT_LT(pipelined, serial);
  // The pipelined write left the same bytes behind.
  Timeline tl;
  auto file = FileSession::start(endpoint, tl, "pipe/w", srb::OpenMode::kRead);
  ASSERT_TRUE(file.ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(file->read(out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(PipelinedTest, BelowThresholdStaysOnSingleRpcPath) {
  StorageEndpoint& endpoint = system_.endpoint(Location::kRemoteDisk);
  auto data = pattern(1ull << 20, 6);
  store_object(endpoint, "pipe/small", data);
  const auto before = client_stats(endpoint);
  FastPathConfig cfg;
  cfg.pipelined_transfers = true;  // 1 MiB < default 2 MiB threshold
  endpoint.set_fast_path(cfg);
  Timeline tl;
  auto file = FileSession::start(endpoint, tl, "pipe/small", srb::OpenMode::kRead);
  ASSERT_TRUE(file.ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(file->read(out).ok());
  endpoint.set_fast_path({});
  EXPECT_EQ(out, data);
  EXPECT_EQ(client_stats(endpoint).pipelined_transfers,
            before.pipelined_transfers);
}

// ----------------------------------------------------- connection pool ----

class PoolTest : public ::testing::Test {
 protected:
  PoolTest() : system_(HardwareProfile::test_profile()) {}
  StorageSystem system_;
};

TEST_F(PoolTest, PoolAmortizesSetupAcrossSessions) {
  StorageEndpoint& endpoint = system_.endpoint(Location::kRemoteDisk);
  auto data = pattern(4096, 8);
  double times[2] = {0.0, 0.0};
  int idx = 0;
  for (bool pooled : {false, true}) {
    system_.reset_time();
    FastPathConfig cfg;
    cfg.connection_pool = pooled;
    endpoint.set_fast_path(cfg);
    Timeline tl;
    for (int s = 0; s < 5; ++s) {
      auto file = FileSession::start(endpoint, tl, "pool/" + std::to_string(s),
                                     srb::OpenMode::kOverwrite);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE(file->write(data).ok());
      ASSERT_TRUE(file->finish().ok());
    }
    times[idx++] = tl.now();
  }
  // Four of the five setups (and teardowns) are gone.
  EXPECT_LT(times[1], times[0] - 4 * 0.1);
  const auto stats = client_stats(endpoint);
  EXPECT_EQ(stats.pool_hits, 4u);
  EXPECT_EQ(stats.pool_misses, 1u);

  // drain() settles the parked connection; afterwards nothing is live.
  auto* remote = dynamic_cast<RemoteEndpoint*>(endpoint.unwrap());
  Timeline tl;
  ASSERT_TRUE(remote->client().drain(tl).ok());
  EXPECT_GT(tl.now(), 0.0);  // the teardown is billed, not dropped
  EXPECT_FALSE(remote->client().connected());
  ASSERT_TRUE(remote->client().drain(tl).ok());  // idempotent
  endpoint.set_fast_path({});
}

TEST_F(PoolTest, IdleTimeoutForcesFreshConnection) {
  StorageEndpoint& endpoint = system_.endpoint(Location::kRemoteDisk);
  FastPathConfig cfg;
  cfg.connection_pool = true;
  cfg.pool_idle_timeout = 0.5;
  endpoint.set_fast_path(cfg);
  auto data = pattern(1024, 9);
  Timeline tl;
  for (int s = 0; s < 2; ++s) {
    auto file = FileSession::start(endpoint, tl, "pool/stale", srb::OpenMode::kOverwrite);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->write(data).ok());
    ASSERT_TRUE(file->finish().ok());
    tl.advance(2.0);  // idle past the timeout
  }
  auto* remote = dynamic_cast<RemoteEndpoint*>(endpoint.unwrap());
  ASSERT_TRUE(remote->client().drain(tl).ok());
  endpoint.set_fast_path({});
  const auto stats = client_stats(endpoint);
  EXPECT_EQ(stats.pool_hits, 0u);
  EXPECT_EQ(stats.pool_misses, 2u);
}

// With pooling on, the Eq.-1 breakdown must still account for 100% of the
// billed time: hits bill ~zero into conn, parked disconnects ~zero into
// close, and the sum over every primitive equals the elapsed virtual time.
TEST_F(PoolTest, BreakdownSumsToBilledTimeWithPooling) {
  StorageEndpoint& endpoint = system_.endpoint(Location::kRemoteDisk);
  FastPathConfig cfg;
  cfg.connection_pool = true;
  endpoint.set_fast_path(cfg);
  auto data = pattern(64 << 10, 10);
  Timeline tl;
  for (int s = 0; s < 3; ++s) {
    auto file = FileSession::start(endpoint, tl, "pool/acct" + std::to_string(s),
                                   srb::OpenMode::kOverwrite);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->write(data).ok());
    ASSERT_TRUE(file->finish().ok());
  }
  for (int s = 0; s < 3; ++s) {
    auto file = FileSession::start(endpoint, tl, "pool/acct" + std::to_string(s),
                                   srb::OpenMode::kRead);
    ASSERT_TRUE(file.ok());
    std::vector<std::byte> out(data.size());
    ASSERT_TRUE(file->read(out).ok());
    ASSERT_TRUE(file->finish().ok());
  }
  const double elapsed = tl.now();
  endpoint.set_fast_path({});

  double billed = 0.0;
  for (const auto& row : obs::io_breakdown(system_.metrics())) {
    billed += row.total();
  }
  EXPECT_NEAR(billed, elapsed, 1e-9 * elapsed);
}

}  // namespace
}  // namespace msra::runtime

// --------------------------------------------- predictor & cost model -----

namespace msra::predict {
namespace {

using core::HardwareProfile;
using core::Location;
using core::StorageSystem;

struct CalibratedFixture : public ::testing::Test {
  CalibratedFixture()
      : system(HardwareProfile::test_profile()),
        db(&system.metadb()),
        predictor(&db),
        ptool(system, db) {}

  Status calibrate() {
    PToolConfig config;
    config.sizes = {256ull << 10, 512ull << 10, 1ull << 20, 2ull << 20,
                    4ull << 20, 8ull << 20};
    config.repeats = 1;
    config.measure_fast_path = true;
    MSRA_RETURN_IF_ERROR(ptool.measure_location(Location::kRemoteDisk, config));
    system.reset_time();
    return Status::Ok();
  }

  StorageSystem system;
  PerfDb db;
  Predictor predictor;
  PTool ptool;
};

// The pipelined rw curve interpolates to within 2% of a direct measurement
// at a size PTool never probed (deterministic profile, repeats = 1).
TEST_F(CalibratedFixture, PipelinedCurveInterpolatesWithinTwoPercent) {
  ASSERT_TRUE(calibrate().ok());
  for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    const std::uint64_t unmeasured = 3ull << 20;  // between the 2 and 4 MiB points
    auto predicted = db.rw_time(Location::kRemoteDisk, op, unmeasured,
                                TransferMode::kPipelined);
    ASSERT_TRUE(predicted.ok()) << predicted.status().to_string();
    auto measured =
        ptool.measure_rw_pipelined(Location::kRemoteDisk, op, unmeasured, 4, 1);
    ASSERT_TRUE(measured.ok()) << measured.status().to_string();
    EXPECT_NEAR(*predicted, *measured, 0.02 * *measured)
        << io_op_name(op) << ": predicted " << *predicted << " measured "
        << *measured;
  }
}

// Pipelined call_time falls back to the serial curve for locations PTool
// never probed with the fast path on.
TEST_F(CalibratedFixture, PipelinedLookupFallsBackToSerialCurve) {
  PToolConfig config;
  config.sizes = {64ull << 10, 1ull << 20};
  config.repeats = 1;  // classic probes only: no pipelined curve
  ASSERT_TRUE(ptool.measure_location(Location::kLocalDisk, config).ok());
  auto serial = predictor.call_time(Location::kLocalDisk, IoOp::kRead, 1ull << 20);
  auto fast = predictor.call_time(Location::kLocalDisk, IoOp::kRead, 1ull << 20,
                                  TransferMode::kPipelined);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_DOUBLE_EQ(*serial, *fast);
}

// A matched-geometry vectored call is predicted to within 2%: rw(total) off
// the measured serial curve plus (runs-1) x the measured per-run overhead.
TEST_F(CalibratedFixture, BatchedCallTimeTracksMeasuredVectoredCall) {
  ASSERT_TRUE(calibrate().ok());
  const int kRuns = 8;                        // the PTool probe geometry
  const std::uint64_t kRunBytes = 64ull << 10;
  const std::uint64_t total = kRuns * kRunBytes;

  auto predicted = predictor.batched_call_time(
      Location::kRemoteDisk, IoOp::kRead, kRuns, total, TransferMode::kSerial);
  ASSERT_TRUE(predicted.ok()) << predicted.status().to_string();

  // Measure the same call end-to-end through the real stack.
  runtime::StorageEndpoint& endpoint = system.endpoint(Location::kRemoteDisk);
  runtime::FastPathConfig cfg;
  cfg.vectored_rpc = true;
  endpoint.set_fast_path(cfg);
  std::vector<std::byte> object(2 * total, std::byte{12});
  {
    simkit::Timeline tl;
    auto file = runtime::FileSession::start(endpoint, tl, "pred/batch",
                                            srb::OpenMode::kOverwrite);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->write(object).ok());
    ASSERT_TRUE(file->finish().ok());
  }
  system.reset_time();
  std::vector<runtime::IoRun> runs;
  for (int i = 0; i < kRuns; ++i) {
    runs.push_back({2 * static_cast<std::uint64_t>(i) * kRunBytes, kRunBytes});
  }
  simkit::Timeline tl;
  ASSERT_TRUE(endpoint.connect(tl).ok());
  auto handle = endpoint.open(tl, "pred/batch", srb::OpenMode::kRead);
  ASSERT_TRUE(handle.ok());
  std::vector<std::byte> out(total);
  ASSERT_TRUE(endpoint.readv(tl, *handle, runs, out).ok());
  ASSERT_TRUE(endpoint.close(tl, *handle).ok());
  ASSERT_TRUE(endpoint.disconnect(tl).ok());
  endpoint.set_fast_path({});
  const double measured = tl.now();

  EXPECT_NEAR(*predicted, measured, 0.02 * measured)
      << "predicted " << *predicted << " measured " << measured;
}

TEST_F(CalibratedFixture, FastPathAssumptionsReshapeDatasetPrediction) {
  ASSERT_TRUE(calibrate().ok());
  core::DatasetDesc desc;
  desc.name = "temp";
  desc.dims = {32, 32, 32};
  desc.etype = core::ElementType::kFloat32;
  desc.frequency = 1;
  desc.method = runtime::IoMethod::kNaive;
  desc.location = Location::kRemoteDisk;

  auto classic = predictor.predict_dataset(desc, Location::kRemoteDisk, 4, 4,
                                           IoOp::kRead);
  ASSERT_TRUE(classic.ok());
  // Default assumptions reproduce the classic prediction exactly.
  auto neutral = predictor.predict_dataset(desc, Location::kRemoteDisk, 4, 4,
                                           IoOp::kRead, FastPathAssumptions{});
  ASSERT_TRUE(neutral.ok());
  EXPECT_DOUBLE_EQ(classic->total, neutral->total);
  EXPECT_EQ(classic->calls_per_dump, neutral->calls_per_dump);
  EXPECT_DOUBLE_EQ(neutral->connection_time, 0.0);

  // Vectored batching: one call per rank, >= 5x cheaper in total.
  FastPathAssumptions vectored;
  vectored.vectored_rpc = true;
  auto batched = predictor.predict_dataset(desc, Location::kRemoteDisk, 4, 4,
                                           IoOp::kRead, vectored);
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(batched->calls_per_dump, 4u);
  EXPECT_GE(classic->total / batched->total, 5.0);

  // Pooling bills Tconn/Tconnclose once, outside the per-call product.
  FastPathAssumptions pooled = vectored;
  pooled.pooled_connections = true;
  auto amortized = predictor.predict_dataset(desc, Location::kRemoteDisk, 4, 4,
                                             IoOp::kRead, pooled);
  ASSERT_TRUE(amortized.ok());
  EXPECT_GT(amortized->connection_time, 0.0);
  EXPECT_LT(amortized->total, batched->total);
  auto fixed = db.fixed(Location::kRemoteDisk, IoOp::kRead);
  ASSERT_TRUE(fixed.ok());
  EXPECT_NEAR(amortized->connection_time, fixed->conn + fixed->connclose, 1e-12);
}

}  // namespace
}  // namespace msra::predict
