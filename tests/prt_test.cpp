#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "prt/array.h"
#include "prt/comm.h"
#include "prt/dist.h"

namespace msra::prt {
namespace {

// ------------------------------------------------------------------ dist --

TEST(PatternTest, ParseAndRender) {
  auto bbb = parse_pattern("BBB");
  ASSERT_TRUE(bbb.ok());
  EXPECT_EQ(pattern_to_string(*bbb), "BBB");
  auto mixed = parse_pattern("B*C");
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ((*mixed)[0], DistKind::kBlock);
  EXPECT_EQ((*mixed)[1], DistKind::kStar);
  EXPECT_EQ((*mixed)[2], DistKind::kCyclic);
  EXPECT_FALSE(parse_pattern("").ok());
  EXPECT_FALSE(parse_pattern("BBBB").ok());
  EXPECT_FALSE(parse_pattern("BXB").ok());
}

TEST(BlockExtentTest, EvenSplit) {
  EXPECT_EQ(block_extent(100, 4, 0).lo, 0u);
  EXPECT_EQ(block_extent(100, 4, 0).hi, 25u);
  EXPECT_EQ(block_extent(100, 4, 3).hi, 100u);
}

TEST(BlockExtentTest, UnevenSplitFrontLoaded) {
  // 10 over 3: 4, 3, 3.
  EXPECT_EQ(block_extent(10, 3, 0).size(), 4u);
  EXPECT_EQ(block_extent(10, 3, 1).size(), 3u);
  EXPECT_EQ(block_extent(10, 3, 2).size(), 3u);
  EXPECT_EQ(block_extent(10, 3, 2).hi, 10u);
}

class BlockExtentProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(BlockExtentProperty, PartitionIsExactAndOrdered) {
  const auto [n, p] = GetParam();
  std::uint64_t covered = 0;
  std::uint64_t prev_hi = 0;
  for (int i = 0; i < p; ++i) {
    const Extent e = block_extent(n, p, i);
    EXPECT_EQ(e.lo, prev_hi) << "parts must tile without gaps";
    prev_hi = e.hi;
    covered += e.size();
  }
  EXPECT_EQ(prev_hi, n);
  EXPECT_EQ(covered, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockExtentProperty,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 7, 64, 128, 1000),
                       ::testing::Values(1, 2, 3, 4, 8, 16)));

TEST(GridTest, StarDimsGetOne) {
  auto pattern = *parse_pattern("B*B");
  auto grid = make_grid(8, pattern, {64, 64, 64});
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->shape[1], 1);
  EXPECT_EQ(grid->size(), 8);
}

TEST(GridTest, AllStarRejectsMultipleProcs) {
  auto pattern = *parse_pattern("***");
  EXPECT_FALSE(make_grid(4, pattern, {64, 64, 64}).ok());
  EXPECT_TRUE(make_grid(1, pattern, {64, 64, 64}).ok());
}

TEST(GridTest, RankCoordsRoundTrip) {
  ProcessGrid grid;
  grid.shape = {2, 3, 4};
  for (int r = 0; r < grid.size(); ++r) {
    EXPECT_EQ(grid.rank_of(grid.coords_of(r)), r);
  }
}

class DecompositionProperty
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DecompositionProperty, BoxesTileTheGlobalArray) {
  const auto [nprocs, pattern] = GetParam();
  const std::array<std::uint64_t, 3> dims = {12, 10, 8};
  auto decomp = Decomposition::create(dims, nprocs, pattern);
  ASSERT_TRUE(decomp.ok());
  // Every global element is owned by exactly one rank, and that rank's box
  // contains it.
  std::uint64_t total = 0;
  for (int r = 0; r < decomp->nprocs(); ++r) total += decomp->local_box(r).volume();
  if (pattern == "BBB" || pattern == "B**") {
    EXPECT_EQ(total, decomp->global_volume());
  }
  for (std::uint64_t i = 0; i < dims[0]; ++i) {
    for (std::uint64_t j = 0; j < dims[1]; ++j) {
      for (std::uint64_t k = 0; k < dims[2]; ++k) {
        const int owner = decomp->owner_of(i, j, k);
        ASSERT_GE(owner, 0);
        ASSERT_LT(owner, decomp->nprocs());
        const LocalBox box = decomp->local_box(owner);
        EXPECT_TRUE(box.extent[0].contains(i) && box.extent[1].contains(j) &&
                    box.extent[2].contains(k));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecompositionProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 6, 8),
                       ::testing::Values(std::string("BBB"), std::string("B**"),
                                         std::string("BB*"))));

TEST(DecompositionTest, CyclicUnimplemented) {
  EXPECT_EQ(Decomposition::create({8, 8, 8}, 2, "CBB").status().code(),
            ErrorCode::kUnimplemented);
}

TEST(DecompositionTest, LinearOffsetIsRowMajor) {
  auto d = Decomposition::create({4, 3, 2}, 1, "BBB");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->linear_offset(0, 0, 0), 0u);
  EXPECT_EQ(d->linear_offset(0, 0, 1), 1u);
  EXPECT_EQ(d->linear_offset(0, 1, 0), 2u);
  EXPECT_EQ(d->linear_offset(1, 0, 0), 6u);
  EXPECT_EQ(d->linear_offset(3, 2, 1), 23u);
}

// ------------------------------------------------------------------ comm --

TEST(CommTest, WorldRunsAllRanks) {
  World world(4);
  std::atomic<int> mask{0};
  world.run([&](Comm& comm) { mask |= 1 << comm.rank(); });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(CommTest, BarrierSynchronizes) {
  World world(4);
  std::atomic<int> before{0}, after{0};
  world.run([&](Comm& comm) {
    (void)comm;
    before++;
    comm.barrier();
    EXPECT_EQ(before.load(), 4) << "all ranks must arrive before any leaves";
    after++;
  });
  EXPECT_EQ(after.load(), 4);
}

TEST(CommTest, BcastDeliversRootPayload) {
  World world(4);
  world.run([&](Comm& comm) {
    std::vector<std::byte> data;
    if (comm.rank() == 2) data = {std::byte{7}, std::byte{8}};
    auto got = comm.bcast(std::move(data), 2);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], std::byte{7});
  });
}

TEST(CommTest, GathervConcatenatesInRankOrder) {
  World world(3);
  world.run([&](Comm& comm) {
    std::vector<std::byte> mine(static_cast<std::size_t>(comm.rank()) + 1,
                                static_cast<std::byte>(comm.rank()));
    std::vector<std::uint64_t> sizes;
    auto all = comm.gatherv(mine, 0, &sizes);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 6u);  // 1 + 2 + 3
      EXPECT_EQ(sizes, (std::vector<std::uint64_t>{1, 2, 3}));
      EXPECT_EQ(all[0], std::byte{0});
      EXPECT_EQ(all[1], std::byte{1});
      EXPECT_EQ(all[3], std::byte{2});
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(CommTest, AllgathervGivesEveryoneEverything) {
  World world(3);
  world.run([&](Comm& comm) {
    std::vector<std::byte> mine(2, static_cast<std::byte>(comm.rank() + 1));
    auto all = comm.allgatherv(mine);
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0], std::byte{1});
    EXPECT_EQ(all[2], std::byte{2});
    EXPECT_EQ(all[4], std::byte{3});
  });
}

TEST(CommTest, ScattervDistributesChunks) {
  World world(3);
  world.run([&](Comm& comm) {
    std::vector<ByteBuffer> chunks;
    if (comm.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        chunks.emplace_back(static_cast<std::size_t>(i) + 1,
                            static_cast<std::byte>(i * 10));
      }
    }
    auto mine = comm.scatterv(std::move(chunks), 0);
    EXPECT_EQ(mine.size(), static_cast<std::size_t>(comm.rank()) + 1);
    if (!mine.empty()) {
      EXPECT_EQ(mine[0], static_cast<std::byte>(comm.rank() * 10));
    }
  });
}

TEST(CommTest, AllReduceOps) {
  World world(4);
  world.run([&](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())), 3.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(1.5), 6.0);
    EXPECT_EQ(comm.allreduce_sum_u64(static_cast<std::uint64_t>(comm.rank())), 6u);
  });
}

TEST(CommTest, SendRecvPointToPoint) {
  World world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 42, {std::byte{0xAB}});
      auto reply = comm.recv(1, 43);
      ASSERT_EQ(reply.size(), 1u);
      EXPECT_EQ(reply[0], std::byte{0xCD});
    } else {
      auto msg = comm.recv(0, 42);
      ASSERT_EQ(msg.size(), 1u);
      EXPECT_EQ(msg[0], std::byte{0xAB});
      comm.send(0, 43, {std::byte{0xCD}});
    }
  });
}

TEST(CommTest, SendRecvFifoPerTag) {
  World world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        comm.send(1, 7, {static_cast<std::byte>(i)});
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        auto msg = comm.recv(0, 7);
        EXPECT_EQ(msg[0], static_cast<std::byte>(i));
      }
    }
  });
}

TEST(CommTest, SyncTimeJoinsClocks) {
  World world(3);
  world.run([&](Comm& comm) {
    comm.timeline().advance(static_cast<double>(comm.rank()) * 10.0);
    comm.sync_time();
    EXPECT_DOUBLE_EQ(comm.timeline().now(), 20.0);
  });
}

// One rank steps at a time, earliest clock first and the lower rank on a
// tie, so the interleaving is the same whatever order the threads run in.
TEST(CommTest, InTimeOrderStepsEarliestClockFirst) {
  World world(3);
  std::vector<std::pair<int, double>> steps;  // (rank, clock before step)
  world.run([&](Comm& comm) {
    // Rank r takes three steps of r + 1 virtual seconds; rank 2 has none.
    int left = comm.rank() == 2 ? 0 : 3;
    comm.in_time_order([&] {
      if (left == 0) return false;
      steps.emplace_back(comm.rank(), comm.timeline().now());
      comm.timeline().advance(comm.rank() + 1.0);
      return --left > 0;
    });
  });
  const std::vector<std::pair<int, double>> want = {
      {0, 0.0}, {1, 0.0}, {0, 1.0}, {0, 2.0}, {1, 2.0}, {1, 4.0}};
  EXPECT_EQ(steps, want);
  EXPECT_DOUBLE_EQ(world.timeline(0).now(), 3.0);
  EXPECT_DOUBLE_EQ(world.timeline(1).now(), 6.0);
  EXPECT_DOUBLE_EQ(world.timeline(2).now(), 0.0);
}

TEST(CommTest, ConsecutiveCollectivesDoNotInterfere) {
  World world(4);
  world.run([&](Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      std::vector<std::byte> mine(1, static_cast<std::byte>(comm.rank() + round));
      auto all = comm.allgatherv(mine);
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], static_cast<std::byte>(r + round));
      }
    }
  });
}

TEST(CommTest, SingleRankWorldRunsInline) {
  World world(1);
  world.run([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    auto all = comm.allgatherv(std::vector<std::byte>{std::byte{9}});
    EXPECT_EQ(all.size(), 1u);
    comm.barrier();
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(2.0), 2.0);
  });
}

// ----------------------------------------------------------------- array --

TEST(Array3DTest, GlobalIndexingOverLocalBox) {
  LocalBox box;
  box.extent = {Extent{2, 5}, Extent{0, 4}, Extent{1, 3}};
  Array3D<float> a(box);
  EXPECT_EQ(a.volume(), 3u * 4 * 2);
  a.at(2, 0, 1) = 1.5f;
  a.at(4, 3, 2) = 2.5f;
  EXPECT_FLOAT_EQ(a.at(2, 0, 1), 1.5f);
  EXPECT_FLOAT_EQ(a.at(4, 3, 2), 2.5f);
  EXPECT_TRUE(a.contains(3, 2, 1));
  EXPECT_FALSE(a.contains(5, 0, 1));
}

TEST(Array3DTest, BytesViewAliasesData) {
  LocalBox box;
  box.extent = {Extent{0, 2}, Extent{0, 2}, Extent{0, 2}};
  Array3D<std::uint8_t> a(box);
  a.fill(7);
  auto bytes = a.bytes();
  EXPECT_EQ(bytes.size(), 8u);
  EXPECT_EQ(bytes[0], std::byte{7});
  bytes[0] = std::byte{9};
  EXPECT_EQ(a.at(0, 0, 0), 9);
}

}  // namespace
}  // namespace msra::prt
