#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "store/disk_model.h"
#include "store/file_store.h"
#include "store/mem_store.h"

namespace msra::store {
namespace {

std::vector<std::byte> make_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string to_string(std::span<const std::byte> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// Parameterized over both backends: every conformance test runs against
// MemObjectStore and FileObjectStore.
class ObjectStoreConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "mem") {
      store_ = std::make_unique<MemObjectStore>();
    } else {
      dir_ = std::filesystem::temp_directory_path() /
             ("msra_store_test_" + std::to_string(::getpid()));
      std::filesystem::remove_all(dir_);
      store_ = std::make_unique<FileObjectStore>(dir_);
    }
  }
  void TearDown() override {
    store_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<ObjectStore> store_;
  std::filesystem::path dir_;
};

TEST_P(ObjectStoreConformance, CreateWriteReadRoundTrip) {
  ASSERT_TRUE(store_->create("a/b/data", false).ok());
  auto payload = make_bytes("hello storage");
  ASSERT_TRUE(store_->write("a/b/data", 0, payload).ok());
  std::vector<std::byte> out(payload.size());
  ASSERT_TRUE(store_->read("a/b/data", 0, out).ok());
  EXPECT_EQ(to_string(out), "hello storage");
}

TEST_P(ObjectStoreConformance, CreateTwiceFailsWithoutOverwrite) {
  ASSERT_TRUE(store_->create("x", false).ok());
  EXPECT_EQ(store_->create("x", false).code(), ErrorCode::kAlreadyExists);
}

TEST_P(ObjectStoreConformance, OverwriteTruncates) {
  ASSERT_TRUE(store_->create("x", false).ok());
  ASSERT_TRUE(store_->write("x", 0, make_bytes("0123456789")).ok());
  ASSERT_TRUE(store_->create("x", true).ok());
  EXPECT_EQ(store_->size("x").value(), 0u);
}

TEST_P(ObjectStoreConformance, WriteAtOffsetZeroFillsGap) {
  ASSERT_TRUE(store_->create("gap", false).ok());
  ASSERT_TRUE(store_->write("gap", 4, make_bytes("tail")).ok());
  EXPECT_EQ(store_->size("gap").value(), 8u);
  std::vector<std::byte> out(4);
  ASSERT_TRUE(store_->read("gap", 0, out).ok());
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
  ASSERT_TRUE(store_->read("gap", 4, out).ok());
  EXPECT_EQ(to_string(out), "tail");
}

TEST_P(ObjectStoreConformance, PartialOverwriteInPlace) {
  ASSERT_TRUE(store_->create("f", false).ok());
  ASSERT_TRUE(store_->write("f", 0, make_bytes("abcdefgh")).ok());
  ASSERT_TRUE(store_->write("f", 2, make_bytes("XY")).ok());
  std::vector<std::byte> out(8);
  ASSERT_TRUE(store_->read("f", 0, out).ok());
  EXPECT_EQ(to_string(out), "abXYefgh");
}

TEST_P(ObjectStoreConformance, ReadPastEndIsOutOfRange) {
  ASSERT_TRUE(store_->create("s", false).ok());
  ASSERT_TRUE(store_->write("s", 0, make_bytes("abc")).ok());
  std::vector<std::byte> out(5);
  EXPECT_EQ(store_->read("s", 0, out).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(store_->read("s", 2, out).code(), ErrorCode::kOutOfRange);
}

TEST_P(ObjectStoreConformance, MissingObjectIsNotFound) {
  std::vector<std::byte> out(1);
  EXPECT_EQ(store_->read("nope", 0, out).code(), ErrorCode::kNotFound);
  EXPECT_EQ(store_->write("nope", 0, out).code(), ErrorCode::kNotFound);
  EXPECT_EQ(store_->size("nope").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(store_->remove("nope").code(), ErrorCode::kNotFound);
  EXPECT_FALSE(store_->exists("nope"));
}

TEST_P(ObjectStoreConformance, RemoveDeletes) {
  ASSERT_TRUE(store_->create("gone", false).ok());
  ASSERT_TRUE(store_->remove("gone").ok());
  EXPECT_FALSE(store_->exists("gone"));
}

TEST_P(ObjectStoreConformance, ListByPrefixSorted) {
  for (const char* name : {"runs/astro/t0", "runs/astro/t1", "runs/volren/img0", "other"}) {
    ASSERT_TRUE(store_->create(name, false).ok());
  }
  auto astro = store_->list("runs/astro/");
  ASSERT_EQ(astro.size(), 2u);
  EXPECT_EQ(astro[0].name, "runs/astro/t0");
  EXPECT_EQ(astro[1].name, "runs/astro/t1");
  EXPECT_EQ(store_->list("").size(), 4u);
  EXPECT_TRUE(store_->list("zzz").empty());
}

TEST_P(ObjectStoreConformance, UsedBytesTracksContent) {
  ASSERT_TRUE(store_->create("a", false).ok());
  ASSERT_TRUE(store_->write("a", 0, std::vector<std::byte>(1000)).ok());
  ASSERT_TRUE(store_->create("b", false).ok());
  ASSERT_TRUE(store_->write("b", 0, std::vector<std::byte>(500)).ok());
  EXPECT_EQ(store_->used_bytes(), 1500u);
  ASSERT_TRUE(store_->remove("a").ok());
  EXPECT_EQ(store_->used_bytes(), 500u);
}

TEST_P(ObjectStoreConformance, RandomizedChunkedWritesMatchReference) {
  // Property: any sequence of chunked writes equals a reference byte array.
  Rng rng(2024);
  ASSERT_TRUE(store_->create("blob", false).ok());
  std::vector<std::byte> reference(4096, std::byte{0});
  ASSERT_TRUE(store_->write("blob", 0, reference).ok());  // establish extent
  for (int i = 0; i < 50; ++i) {
    const auto offset = rng.next_below(3500);
    const auto len = 1 + rng.next_below(500);
    std::vector<std::byte> chunk(len);
    for (auto& b : chunk) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    ASSERT_TRUE(store_->write("blob", offset, chunk).ok());
    const std::uint64_t end = offset + len;
    if (end > reference.size()) reference.resize(end, std::byte{0});
    std::memcpy(reference.data() + offset, chunk.data(), len);
  }
  // Writes that grow the object, each placed relative to its current end:
  // an append, one straddling the end, one leaving a gap (which reads back
  // as zeros) and a zero-byte write past the end (which moves the end).
  struct Growth {
    std::int64_t from_end;
    std::uint64_t len;
  };
  const Growth growths[] = {{0, 300}, {-100, 400}, {500, 50}, {300, 0}};
  auto grow = [&](std::uint8_t fill) {
    for (const Growth& g : growths) {
      const auto offset = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(reference.size()) + g.from_end);
      const std::vector<std::byte> chunk(g.len, static_cast<std::byte>(fill++));
      ASSERT_TRUE(store_->write("blob", offset, chunk).ok());
      if (offset + g.len > reference.size()) {
        reference.resize(offset + g.len, std::byte{0});
      }
      std::copy(chunk.begin(), chunk.end(), reference.begin() + offset);
      ASSERT_EQ(store_->size("blob").value(), reference.size());
    }
  };
  grow(0xA0);
  std::vector<std::byte> out(reference.size());
  ASSERT_TRUE(store_->read("blob", 0, out).ok());
  EXPECT_EQ(out, reference);
  // Again from empty, over an object recreated in place: its old bytes
  // must not show through the gap.
  ASSERT_TRUE(store_->create("blob", /*overwrite=*/true).ok());
  reference.clear();
  grow(0xB0);
  out.assign(reference.size(), std::byte{0xFF});
  ASSERT_TRUE(store_->read("blob", 0, out).ok());
  EXPECT_EQ(out, reference);
}

INSTANTIATE_TEST_SUITE_P(Backends, ObjectStoreConformance,
                         ::testing::Values("mem", "file"),
                         [](const auto& info) { return info.param; });

TEST(MemObjectStoreTest, ConcurrentDistinctObjectsAreSafe) {
  MemObjectStore store;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      const std::string name = "obj" + std::to_string(t);
      ASSERT_TRUE(store.create(name, false).ok());
      std::vector<std::byte> data(128, static_cast<std::byte>(t));
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(store.write(name, static_cast<std::uint64_t>(i), data).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.list("").size(), static_cast<std::size_t>(kThreads));
}

TEST(FileObjectStoreTest, RejectsEscapingNames) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "msra_escape_test";
  FileObjectStore store(dir);
  EXPECT_EQ(store.create("../evil", false).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(store.create("/abs", false).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(store.create("", false).code(), ErrorCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(DiskModelTest, CostBreakdown) {
  DiskModel model;
  model.per_op = 0.01;
  model.read_bw = 1024.0;
  model.write_bw = 512.0;
  EXPECT_DOUBLE_EQ(model.read_time(1024), 0.01 + 1.0);
  EXPECT_DOUBLE_EQ(model.write_time(1024), 0.01 + 2.0);
}

TEST(DiskModelTest, ZeroBandwidthMeansInstantTransfer) {
  DiskModel model;
  EXPECT_DOUBLE_EQ(model.read_time(1 << 20), 0.0);
}

}  // namespace
}  // namespace msra::store
