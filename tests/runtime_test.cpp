#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/profiles.h"
#include "core/system.h"
#include "prt/comm.h"
#include "runtime/async_io.h"
#include "runtime/parallel_io.h"
#include "runtime/plan.h"
#include "runtime/sieve.h"
#include "runtime/subfile.h"
#include "runtime/superfile.h"

namespace msra::runtime {
namespace {

using core::HardwareProfile;
using core::Location;
using core::StorageSystem;
using prt::Comm;
using prt::World;
using simkit::Timeline;

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  return out;
}

// ----------------------------------------------------------- run layout --

TEST(RunsTest, FullArrayIsOneRun) {
  auto d = prt::Decomposition::create({8, 8, 8}, 1, "BBB");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(count_runs(*d, d->local_box(0)), 1u);
}

TEST(RunsTest, SlabDecompositionIsOneRunPerRank) {
  auto d = prt::Decomposition::create({8, 8, 8}, 4, "B**");
  ASSERT_TRUE(d.ok());
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(count_runs(*d, d->local_box(r)), 1u);
  }
}

TEST(RunsTest, PencilDecompositionHasRunPerSheet) {
  auto d = prt::Decomposition::create({8, 8, 8}, 2, "*B*");
  ASSERT_TRUE(d.ok());
  // j split in half, k full: each i contributes one sheet → 8 runs.
  EXPECT_EQ(count_runs(*d, d->local_box(0)), 8u);
}

TEST(RunsTest, GeneralBoxHasRunPerRowSegment) {
  auto d = prt::Decomposition::create({4, 4, 4}, 8, "BBB");
  ASSERT_TRUE(d.ok());
  // 2x2x2 grid: each box is 2x2x2, k does not span → 2*2 = 4 runs.
  EXPECT_EQ(count_runs(*d, d->local_box(0)), 4u);
}

TEST(RunsTest, RunsCoverEveryElementExactlyOnce) {
  auto d = prt::Decomposition::create({6, 5, 4}, 6, "BBB");
  ASSERT_TRUE(d.ok());
  std::vector<int> hits(d->global_volume(), 0);
  for (int r = 0; r < d->nprocs(); ++r) {
    for_each_run(*d, d->local_box(r),
                 [&](std::uint64_t goff, std::uint64_t count, std::uint64_t) {
                   for (std::uint64_t i = 0; i < count; ++i) hits[goff + i]++;
                 });
  }
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(PlanTest, CollectiveIsOneCall) {
  auto d = prt::Decomposition::create({64, 64, 64}, 8, "BBB");
  ASSERT_TRUE(d.ok());
  ArrayLayout layout{*d, 4};
  auto plan = PlanBuilder::dataset_dump(layout, IoMethod::kCollective, 1,
                                        PlanDir::kWrite);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->calls_per_dump(), 1u);
  EXPECT_EQ(plan->call_bytes(), 64u * 64 * 64 * 4);
}

TEST(PlanTest, NaivePlanCountsAllRuns) {
  auto d = prt::Decomposition::create({64, 64, 64}, 8, "BBB");
  ASSERT_TRUE(d.ok());
  ArrayLayout layout{*d, 4};
  auto plan = PlanBuilder::dataset_dump(layout, IoMethod::kNaive, 1,
                                        PlanDir::kWrite);
  ASSERT_TRUE(plan.ok());
  // 2x2x2 grid: each rank 32 x 32 rows = 1024 runs, x8 ranks.
  EXPECT_EQ(plan->calls_per_dump(), 8u * 32 * 32);
  EXPECT_EQ(plan->call_bytes(), 32u * 4);
}

// ------------------------------------------------------- parallel I/O ----

class ParallelIoTest
    : public ::testing::TestWithParam<std::tuple<int, IoMethod, Location>> {
 protected:
  ParallelIoTest() : system_(HardwareProfile::test_profile()) {}
  StorageSystem system_;
};

TEST_P(ParallelIoTest, WriteThenReadRoundTrip) {
  const auto [nprocs, method, location] = GetParam();
  if (location == Location::kRemoteTape && method == IoMethod::kNaive) {
    GTEST_SKIP() << "naive strided writes are invalid on tape";
  }
  auto d = prt::Decomposition::create({12, 10, 8}, nprocs, "BBB");
  ASSERT_TRUE(d.ok());
  ArrayLayout layout{*d, 4};
  StorageEndpoint& endpoint = system_.endpoint(location);

  // Each rank fills its block with rank-tagged data derived from global
  // coordinates, writes collectively, reads back, and verifies.
  World world(nprocs);
  world.run([&](Comm& comm) {
    const prt::LocalBox box = layout.decomp.local_box(comm.rank());
    std::vector<float> local(box.volume());
    std::size_t idx = 0;
    for (std::uint64_t i = box.extent[0].lo; i < box.extent[0].hi; ++i) {
      for (std::uint64_t j = box.extent[1].lo; j < box.extent[1].hi; ++j) {
        for (std::uint64_t k = box.extent[2].lo; k < box.extent[2].hi; ++k) {
          local[idx++] = static_cast<float>(layout.decomp.linear_offset(i, j, k));
        }
      }
    }
    std::span<const std::byte> bytes(
        reinterpret_cast<const std::byte*>(local.data()), local.size() * 4);
    ASSERT_TRUE(write_array(endpoint, comm, "pio/test", layout, bytes, method).ok());

    std::vector<float> readback(box.volume(), -1.0f);
    std::span<std::byte> out(reinterpret_cast<std::byte*>(readback.data()),
                             readback.size() * 4);
    ASSERT_TRUE(read_array(endpoint, comm, "pio/test", layout, out, method).ok());
    EXPECT_EQ(readback, local);
    EXPECT_GT(comm.timeline().now(), 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelIoTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(IoMethod::kNaive, IoMethod::kCollective),
                       ::testing::Values(Location::kLocalDisk,
                                         Location::kRemoteDisk,
                                         Location::kRemoteTape)));

TEST(ParallelIoTimingTest, CollectiveBeatsNaiveOnRemoteDisk) {
  StorageSystem system(HardwareProfile::test_profile());
  auto d = prt::Decomposition::create({16, 16, 16}, 4, "BBB");
  ASSERT_TRUE(d.ok());
  ArrayLayout layout{*d, 4};
  double naive_time = 0.0, collective_time = 0.0;
  for (IoMethod method : {IoMethod::kNaive, IoMethod::kCollective}) {
    system.reset_time();  // each method starts on idle hardware
    World world(4);
    world.run([&](Comm& comm) {
      const prt::LocalBox box = layout.decomp.local_box(comm.rank());
      std::vector<std::byte> local(box.volume() * 4, std::byte{1});
      const std::string path =
          std::string("timing/") + std::string(io_method_name(method));
      ASSERT_TRUE(write_array(system.endpoint(Location::kRemoteDisk), comm, path,
                              layout, local, method)
                      .ok());
      if (comm.rank() == 0) {
        (method == IoMethod::kNaive ? naive_time : collective_time) =
            comm.timeline().now();
      }
    });
  }
  // Strided requests pay per-request WAN latency + open/seek costs: naive
  // must be dramatically slower (the paper: "many times slower").
  EXPECT_GT(naive_time, 3.0 * collective_time);
}

// Multi-aggregator two-phase I/O must be byte-equivalent to the single
// aggregator path for every (ranks, aggregators) combination.
class MultiAggregatorIo
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MultiAggregatorIo, RoundTripMatchesData) {
  const auto [nprocs, aggregators] = GetParam();
  StorageSystem system(HardwareProfile::test_profile());
  auto d = prt::Decomposition::create({10, 9, 7}, nprocs, "BBB");
  ASSERT_TRUE(d.ok());
  ArrayLayout layout{*d, 4};
  StorageEndpoint& endpoint = system.endpoint(Location::kRemoteDisk);
  CollectiveOptions options{aggregators};

  World world(nprocs);
  world.run([&](Comm& comm) {
    const prt::LocalBox box = layout.decomp.local_box(comm.rank());
    std::vector<float> local(box.volume());
    std::size_t idx = 0;
    for (std::uint64_t i = box.extent[0].lo; i < box.extent[0].hi; ++i) {
      for (std::uint64_t j = box.extent[1].lo; j < box.extent[1].hi; ++j) {
        for (std::uint64_t k = box.extent[2].lo; k < box.extent[2].hi; ++k) {
          local[idx++] = static_cast<float>(layout.decomp.linear_offset(i, j, k));
        }
      }
    }
    std::span<const std::byte> bytes(
        reinterpret_cast<const std::byte*>(local.data()), local.size() * 4);
    ASSERT_TRUE(write_array(endpoint, comm, "magg/test", layout, bytes,
                            IoMethod::kCollective, OpenMode::kOverwrite, options)
                    .ok());
    std::vector<float> readback(box.volume(), -1.0f);
    std::span<std::byte> out(reinterpret_cast<std::byte*>(readback.data()),
                             readback.size() * 4);
    ASSERT_TRUE(read_array(endpoint, comm, "magg/test", layout, out,
                           IoMethod::kCollective, options)
                    .ok());
    EXPECT_EQ(readback, local);
  });
  // The stored object equals the canonical row-major array regardless of
  // how many aggregators wrote it.
  simkit::Timeline tl;
  auto size = endpoint.size(tl, "magg/test");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, layout.global_bytes());
}

INSTANTIATE_TEST_SUITE_P(Sweep, MultiAggregatorIo,
                         ::testing::Combine(::testing::Values(1, 2, 4, 6),
                                            ::testing::Values(1, 2, 3, 6, 8)));

TEST(MultiAggregatorIo, AggregatorsPayOffOnlyWhenTheDeviceIsTheBottleneck) {
  // Device-bound profile: a fast network in front of slow striped disks.
  // With 4 arms, 4 aggregators split the device time ~4x; on the default
  // WAN-bound profile extra aggregators only add per-request overhead.
  auto run_once = [](const HardwareProfile& profile, int aggregators) {
    StorageSystem system(profile);
    auto d = prt::Decomposition::create({128, 128, 128}, 4, "BBB");  // 8 MiB
    EXPECT_TRUE(d.ok());
    ArrayLayout layout{*d, 4};
    double total = 0.0;
    World world(4);
    world.run([&](Comm& comm) {
      const prt::LocalBox box = layout.decomp.local_box(comm.rank());
      std::vector<std::byte> block(box.volume() * 4, std::byte{1});
      ASSERT_TRUE(write_array(system.endpoint(Location::kRemoteDisk), comm,
                              "stripe/t", layout, block, IoMethod::kCollective,
                              OpenMode::kOverwrite, {aggregators})
                      .ok());
      if (comm.rank() == 0) total = comm.timeline().now();
    });
    return total;
  };

  HardwareProfile device_bound = HardwareProfile::test_profile();
  device_bound.wan_disk.bandwidth = 100.0e6;  // network out of the way
  device_bound.remote_disk.write_bw = 1.0e6;  // slow spindles...
  device_bound.remote_disk_arms = 4;          // ...but four of them
  const double one = run_once(device_bound, 1);
  const double four = run_once(device_bound, 4);
  EXPECT_LT(four, 0.6 * one)
      << "striped device: 4 aggregators must cut the device time";

  HardwareProfile wan_bound = HardwareProfile::test_profile();  // 1 MB/s WAN
  const double wan_one = run_once(wan_bound, 1);
  const double wan_four = run_once(wan_bound, 4);
  EXPECT_GT(wan_four, 0.9 * wan_one)
      << "a serialized WAN cannot be split; extra requests only add overhead";
}

TEST(ParallelIoErrorTest, MissingFileReportsOnAllRanks) {
  StorageSystem system(HardwareProfile::test_profile());
  auto d = prt::Decomposition::create({8, 8, 8}, 2, "BBB");
  ASSERT_TRUE(d.ok());
  ArrayLayout layout{*d, 4};
  World world(2);
  world.run([&](Comm& comm) {
    const prt::LocalBox box = layout.decomp.local_box(comm.rank());
    std::vector<std::byte> local(box.volume() * 4);
    Status status = read_array(system.endpoint(Location::kLocalDisk), comm,
                               "ghost", layout, local, IoMethod::kCollective);
    EXPECT_EQ(status.code(), ErrorCode::kNotFound)
        << "rank " << comm.rank() << ": " << status.to_string();
  });
}

TEST(ParallelIoErrorTest, LocalBufferSizeValidated) {
  StorageSystem system(HardwareProfile::test_profile());
  auto d = prt::Decomposition::create({8, 8, 8}, 1, "BBB");
  ASSERT_TRUE(d.ok());
  ArrayLayout layout{*d, 4};
  World world(1);
  world.run([&](Comm& comm) {
    std::vector<std::byte> wrong(7);
    EXPECT_EQ(write_array(system.endpoint(Location::kLocalDisk), comm, "x",
                          layout, wrong, IoMethod::kCollective)
                  .code(),
              ErrorCode::kInvalidArgument);
  });
}

// ----------------------------------------------------------- sieving -----

class SieveTest : public ::testing::Test {
 protected:
  SieveTest() : system_(HardwareProfile::test_profile()) {
    spec_.dims = {16, 16, 16};
    spec_.elem_size = 4;
    // Store a reference array on the remote disk.
    reference_ = pattern_bytes(spec_.bytes(), 7);
    Timeline tl;
    StorageEndpoint& ep = system_.endpoint(Location::kRemoteDisk);
    auto session = FileSession::start(ep, tl, "sieve/data", OpenMode::kOverwrite);
    EXPECT_TRUE(session.ok());
    EXPECT_TRUE(session->write(reference_).ok());
    EXPECT_TRUE(session->finish().ok());
  }

  std::vector<std::byte> expected_box(const prt::LocalBox& box) const {
    std::vector<std::byte> out(box.volume() * spec_.elem_size);
    std::size_t idx = 0;
    for (std::uint64_t i = box.extent[0].lo; i < box.extent[0].hi; ++i) {
      for (std::uint64_t j = box.extent[1].lo; j < box.extent[1].hi; ++j) {
        for (std::uint64_t k = box.extent[2].lo; k < box.extent[2].hi; ++k) {
          const std::uint64_t goff = spec_.linear_offset(i, j, k) * spec_.elem_size;
          std::memcpy(out.data() + idx, reference_.data() + goff, spec_.elem_size);
          idx += spec_.elem_size;
        }
      }
    }
    return out;
  }

  StorageSystem system_;
  GlobalArraySpec spec_;
  std::vector<std::byte> reference_;
};

TEST_F(SieveTest, BothStrategiesReturnIdenticalData) {
  prt::LocalBox box;
  box.extent = {prt::Extent{3, 9}, prt::Extent{2, 14}, prt::Extent{5, 11}};
  const auto expected = expected_box(box);
  for (AccessStrategy strategy : {AccessStrategy::kDirect, AccessStrategy::kSieving}) {
    Timeline tl;
    std::vector<std::byte> out(expected.size());
    ASSERT_TRUE(read_subarray(system_.endpoint(Location::kRemoteDisk), tl,
                              "sieve/data", spec_, box, out, strategy)
                    .ok());
    EXPECT_EQ(out, expected);
  }
}

TEST_F(SieveTest, SievingIsFasterForScatteredBoxes) {
  prt::LocalBox box;
  box.extent = {prt::Extent{0, 16}, prt::Extent{0, 16}, prt::Extent{4, 6}};
  std::vector<std::byte> out(box.volume() * spec_.elem_size);
  double direct_time = 0.0, sieve_time = 0.0;
  {
    system_.reset_time();
    Timeline tl;
    ASSERT_TRUE(read_subarray(system_.endpoint(Location::kRemoteDisk), tl,
                              "sieve/data", spec_, box, out,
                              AccessStrategy::kDirect)
                    .ok());
    direct_time = tl.now();
  }
  {
    system_.reset_time();
    Timeline tl;
    ASSERT_TRUE(read_subarray(system_.endpoint(Location::kRemoteDisk), tl,
                              "sieve/data", spec_, box, out,
                              AccessStrategy::kSieving)
                    .ok());
    sieve_time = tl.now();
  }
  // 256 tiny strided reads vs one big read over the WAN.
  EXPECT_GT(direct_time, 5.0 * sieve_time);
  EXPECT_EQ(access_calls(spec_, box, AccessStrategy::kDirect), 256u);
  EXPECT_EQ(access_calls(spec_, box, AccessStrategy::kSieving), 1u);
}

TEST_F(SieveTest, SievingWritePreservesUnrelatedBytes) {
  prt::LocalBox box;
  box.extent = {prt::Extent{4, 8}, prt::Extent{4, 8}, prt::Extent{4, 8}};
  const auto patch = pattern_bytes(box.volume() * spec_.elem_size, 99);
  Timeline tl;
  ASSERT_TRUE(write_subarray(system_.endpoint(Location::kRemoteDisk), tl,
                             "sieve/data", spec_, box, patch,
                             AccessStrategy::kSieving)
                  .ok());
  // Read the whole array back and verify patch + untouched remainder.
  std::vector<std::byte> all(spec_.bytes());
  prt::LocalBox full;
  full.extent = {prt::Extent{0, 16}, prt::Extent{0, 16}, prt::Extent{0, 16}};
  ASSERT_TRUE(read_subarray(system_.endpoint(Location::kRemoteDisk), tl,
                            "sieve/data", spec_, full, all,
                            AccessStrategy::kSieving)
                  .ok());
  std::size_t patch_idx = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    for (std::uint64_t j = 0; j < 16; ++j) {
      for (std::uint64_t k = 0; k < 16; ++k) {
        const std::uint64_t off = spec_.linear_offset(i, j, k) * 4;
        const bool inside = box.extent[0].contains(i) &&
                            box.extent[1].contains(j) && box.extent[2].contains(k);
        if (inside) {
          ASSERT_EQ(std::memcmp(all.data() + off, patch.data() + patch_idx, 4), 0);
          patch_idx += 4;
        } else {
          ASSERT_EQ(std::memcmp(all.data() + off, reference_.data() + off, 4), 0);
        }
      }
    }
  }
}

TEST_F(SieveTest, BoxValidation) {
  Timeline tl;
  prt::LocalBox bad;
  bad.extent = {prt::Extent{0, 20}, prt::Extent{0, 1}, prt::Extent{0, 1}};
  std::vector<std::byte> out(20 * 4);
  EXPECT_EQ(read_subarray(system_.endpoint(Location::kRemoteDisk), tl,
                          "sieve/data", spec_, bad, out, AccessStrategy::kDirect)
                .code(),
            ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------------- async -----

TEST(AsyncWriterTest, OverlapsIoWithCompute) {
  StorageSystem system(HardwareProfile::test_profile());
  AsyncWriter writer(system.endpoint(Location::kRemoteDisk));
  Timeline caller;
  auto data = pattern_bytes(1000000, 3);  // 1 s on the 1 MB/s test link
  ASSERT_TRUE(writer.submit(caller, "async/a", data).ok());
  const double after_submit = caller.now();
  EXPECT_LT(after_submit, 0.1) << "submit must cost only the staging copy";
  caller.advance(10.0);  // "compute" long enough to hide the I/O
  ASSERT_TRUE(writer.flush(caller).ok());
  EXPECT_LT(caller.now(), 10.5) << "flush after long compute is nearly free";
}

TEST(AsyncWriterTest, FlushWaitsWhenComputeIsShort) {
  StorageSystem system(HardwareProfile::test_profile());
  AsyncWriter writer(system.endpoint(Location::kRemoteDisk));
  Timeline caller;
  auto data = pattern_bytes(1000000, 3);
  ASSERT_TRUE(writer.submit(caller, "async/b", data).ok());
  ASSERT_TRUE(writer.flush(caller).ok());
  EXPECT_GE(caller.now(), 1.0) << "the transfer itself cannot be hidden";
}

TEST(AsyncWriterTest, DataActuallyLands) {
  StorageSystem system(HardwareProfile::test_profile());
  auto data = pattern_bytes(5000, 11);
  Timeline caller;
  {
    AsyncWriter writer(system.endpoint(Location::kRemoteDisk));
    ASSERT_TRUE(writer.submit(caller, "async/c", data).ok());
    ASSERT_TRUE(writer.flush(caller).ok());
    EXPECT_EQ(writer.submitted(), 1u);
  }
  Timeline tl;
  StorageEndpoint& ep = system.endpoint(Location::kRemoteDisk);
  auto session = FileSession::start(ep, tl, "async/c", OpenMode::kRead);
  ASSERT_TRUE(session.ok());
  std::vector<std::byte> out(5000);
  ASSERT_TRUE(session->read(out).ok());
  EXPECT_EQ(out, data);
}

TEST(AsyncWriterTest, ErrorSurfacesAtFlush) {
  StorageSystem system(HardwareProfile::test_profile());
  system.set_location_available(Location::kRemoteDisk, false);
  AsyncWriter writer(system.endpoint(Location::kRemoteDisk));
  Timeline caller;
  ASSERT_TRUE(writer.submit(caller, "async/fail", pattern_bytes(100, 1)).ok());
  EXPECT_EQ(writer.flush(caller).code(), ErrorCode::kUnavailable);
}

// Writes book the devices in the caller's order, so five submits with 5 s
// of compute between them land on the same clock on every run. Each write
// outlasts the compute, so they run back to back from the first submit
// instant: the clock of the same writes run synchronously.
TEST(AsyncWriterTest, RepeatedRunsLandOnTheSynchronousClock) {
  constexpr double kCompute = 5.0;
  constexpr int kWrites = 5;
  const auto data = pattern_bytes(2ull << 20, 4);
  double first_submit = 0.0;
  std::vector<double> totals;
  for (int rep = 0; rep < 20; ++rep) {
    StorageSystem system(HardwareProfile::paper_2000());
    AsyncWriter writer(system.endpoint(Location::kRemoteDisk));
    Timeline caller;
    for (int t = 0; t < kWrites; ++t) {
      caller.advance(kCompute);
      ASSERT_TRUE(
          writer.submit(caller, "async/t" + std::to_string(t), data).ok());
      if (t == 0) first_submit = caller.now();
    }
    ASSERT_TRUE(writer.flush(caller).ok());
    totals.push_back(caller.now());
  }

  StorageSystem system(HardwareProfile::paper_2000());
  StorageEndpoint& endpoint = system.endpoint(Location::kRemoteDisk);
  Timeline sync;
  sync.advance_to(first_submit);
  for (int t = 0; t < kWrites; ++t) {
    const double start = sync.now();
    auto file = FileSession::start(endpoint, sync,
                                   "async/t" + std::to_string(t),
                                   OpenMode::kOverwrite);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->write(data).ok());
    ASSERT_TRUE(file->finish().ok());
    ASSERT_GT(sync.now() - start, kCompute) << "write " << t;
  }
  for (std::size_t rep = 0; rep < totals.size(); ++rep) {
    EXPECT_EQ(totals[rep], sync.now()) << "run " << rep;
  }
}

// ------------------------------------------------------------ subfile ----

TEST(SubfileTest, LayoutValidation) {
  GlobalArraySpec spec{{8, 8, 8}, 4};
  EXPECT_TRUE(SubfileLayout::create(spec, {2, 2, 2}).ok());
  EXPECT_FALSE(SubfileLayout::create(spec, {0, 2, 2}).ok());
  EXPECT_FALSE(SubfileLayout::create(spec, {9, 1, 1}).ok());
}

TEST(SubfileTest, WriteReadRoundTripAllChunks) {
  StorageSystem system(HardwareProfile::test_profile());
  GlobalArraySpec spec{{12, 10, 8}, 4};
  auto layout = SubfileLayout::create(spec, {3, 2, 2});
  ASSERT_TRUE(layout.ok());
  auto global = pattern_bytes(spec.bytes(), 21);
  Timeline tl;
  StorageEndpoint& ep = system.endpoint(Location::kRemoteDisk);
  ASSERT_TRUE(write_subfiles(ep, tl, "sub/data", *layout, global).ok());
  EXPECT_EQ(ep.list(tl, "sub/data/")->size(), 12u);

  prt::LocalBox full;
  full.extent = {prt::Extent{0, 12}, prt::Extent{0, 10}, prt::Extent{0, 8}};
  std::vector<std::byte> out(spec.bytes());
  ASSERT_TRUE(read_subfiles_box(ep, tl, "sub/data", *layout, full, out).ok());
  EXPECT_EQ(out, global);
}

TEST(SubfileTest, PartialReadTouchesOnlyIntersectingChunks) {
  StorageSystem system(HardwareProfile::test_profile());
  GlobalArraySpec spec{{16, 16, 16}, 1};
  auto layout = SubfileLayout::create(spec, {4, 4, 4});
  ASSERT_TRUE(layout.ok());
  auto global = pattern_bytes(spec.bytes(), 33);
  Timeline tl;
  StorageEndpoint& ep = system.endpoint(Location::kRemoteDisk);
  ASSERT_TRUE(write_subfiles(ep, tl, "sub/p", *layout, global).ok());

  // A z-slice at k=5 touches only the ck=1 plane of chunks: 4*4*1 = 16.
  prt::LocalBox slice;
  slice.extent = {prt::Extent{0, 16}, prt::Extent{0, 16}, prt::Extent{5, 6}};
  EXPECT_EQ(layout->chunks_touched(slice), 16u);

  std::vector<std::byte> out(slice.extent[0].size() * slice.extent[1].size());
  ASSERT_TRUE(read_subfiles_box(ep, tl, "sub/p", *layout, slice, out).ok());
  std::size_t idx = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    for (std::uint64_t j = 0; j < 16; ++j) {
      EXPECT_EQ(out[idx++], global[spec.linear_offset(i, j, 5)]);
    }
  }
}

TEST(SubfileTest, SliceReadBeatsWholeFileFetch) {
  StorageSystem system(HardwareProfile::test_profile());
  GlobalArraySpec spec{{64, 64, 64}, 4};  // 1 MiB: transfer dominates fixed costs
  auto layout = SubfileLayout::create(spec, {1, 1, 4});  // chunked along k
  ASSERT_TRUE(layout.ok());
  auto global = pattern_bytes(spec.bytes(), 44);
  StorageEndpoint& ep = system.endpoint(Location::kRemoteDisk);
  Timeline wtl;
  ASSERT_TRUE(write_subfiles(ep, wtl, "sub/s", *layout, global).ok());
  // Also store as one monolithic file for comparison.
  {
    auto session = FileSession::start(ep, wtl, "sub/mono", OpenMode::kOverwrite);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->write(global).ok());
  }
  prt::LocalBox kband;
  kband.extent = {prt::Extent{0, 64}, prt::Extent{0, 64}, prt::Extent{0, 16}};
  std::vector<std::byte> out(kband.volume() * 4);

  system.reset_time();
  Timeline sub_tl;
  ASSERT_TRUE(read_subfiles_box(ep, sub_tl, "sub/s", *layout, kband, out).ok());
  system.reset_time();
  Timeline mono_tl;
  std::vector<std::byte> whole(spec.bytes());
  auto session = FileSession::start(ep, mono_tl, "sub/mono", OpenMode::kRead);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->read(whole).ok());
  ASSERT_TRUE(session->finish().ok());
  // Subfile fetches 1/4 of the data: must be clearly cheaper.
  EXPECT_LT(sub_tl.now(), 0.6 * mono_tl.now());
}

// ---------------------------------------------------------- superfile ----

TEST(SuperfileTest, PackUnpackIdentity) {
  StorageSystem system(HardwareProfile::test_profile());
  StorageEndpoint& ep = system.endpoint(Location::kRemoteDisk);
  std::map<std::string, std::vector<std::byte>> members;
  for (int i = 0; i < 10; ++i) {
    members["img" + std::to_string(i)] =
        pattern_bytes(1000 + static_cast<std::size_t>(i) * 17, 50 + static_cast<std::uint64_t>(i));
  }
  Timeline tl;
  auto writer = SuperfileWriter::create(ep, tl, "sf/images");
  ASSERT_TRUE(writer.ok());
  for (const auto& [name, data] : members) {
    ASSERT_TRUE(writer->add(name, data).ok());
  }
  EXPECT_EQ(writer->member_count(), 10u);
  ASSERT_TRUE(writer->finalize().ok());

  auto reader = SuperfileReader::open(ep, tl, "sf/images");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->names().size(), 10u);
  for (const auto& [name, data] : members) {
    auto got = reader->read(name);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(std::equal(got->begin(), got->end(), data.begin(), data.end()));
  }
  EXPECT_FALSE(reader->read("missing").ok());
}

TEST(SuperfileTest, DuplicateMemberRejected) {
  StorageSystem system(HardwareProfile::test_profile());
  Timeline tl;
  auto writer =
      SuperfileWriter::create(system.endpoint(Location::kRemoteDisk), tl, "sf/dup");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->add("a", pattern_bytes(10, 1)).ok());
  EXPECT_EQ(writer->add("a", pattern_bytes(10, 1)).code(),
            ErrorCode::kAlreadyExists);
  ASSERT_TRUE(writer->finalize().ok());
}

TEST(SuperfileTest, NonSuperfileRejected) {
  StorageSystem system(HardwareProfile::test_profile());
  StorageEndpoint& ep = system.endpoint(Location::kRemoteDisk);
  Timeline tl;
  auto session = FileSession::start(ep, tl, "sf/garbage", OpenMode::kOverwrite);
  ASSERT_TRUE(session.ok());
  auto junk = pattern_bytes(100, 9);
  ASSERT_TRUE(session->write(junk).ok());
  ASSERT_TRUE(session->finish().ok());
  EXPECT_FALSE(SuperfileReader::open(ep, tl, "sf/garbage").ok());
}

TEST(SuperfileTest, BeatsManySmallFilesOnRemoteStorage) {
  StorageSystem system(HardwareProfile::test_profile());
  StorageEndpoint& ep = system.endpoint(Location::kRemoteDisk);
  constexpr int kFiles = 20;
  const auto payload = pattern_bytes(16000, 4);

  // Naive: one object per image.
  system.reset_time();
  Timeline naive_w, naive_r;
  for (int i = 0; i < kFiles; ++i) {
    auto session = FileSession::start(
        ep, naive_w, "naive/img" + std::to_string(i), OpenMode::kOverwrite);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->write(payload).ok());
    ASSERT_TRUE(session->finish().ok());
  }
  std::vector<std::byte> out(payload.size());
  system.reset_time();
  for (int i = 0; i < kFiles; ++i) {
    auto session = FileSession::start(ep, naive_r, "naive/img" + std::to_string(i),
                                      OpenMode::kRead);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->read(out).ok());
    ASSERT_TRUE(session->finish().ok());
  }

  // Superfile: one object holding all images.
  system.reset_time();
  Timeline super_w, super_r;
  auto writer = SuperfileWriter::create(ep, super_w, "super/imgs");
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(writer->add("img" + std::to_string(i), payload).ok());
  }
  ASSERT_TRUE(writer->finalize().ok());
  system.reset_time();
  auto reader = SuperfileReader::open(ep, super_r, "super/imgs");
  ASSERT_TRUE(reader.ok());
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(reader->read("img" + std::to_string(i)).ok());
  }

  EXPECT_LT(super_w.now(), 0.7 * naive_w.now());
  EXPECT_LT(super_r.now(), 0.5 * naive_r.now());
}

}  // namespace
}  // namespace msra::runtime
