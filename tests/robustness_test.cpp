// Failure-injection and fuzz-style property tests: malformed wire bytes,
// truncated containers, random operation sequences vs reference models.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/profiles.h"
#include "core/session.h"
#include "core/system.h"
#include "net/wire.h"
#include "predict/perfdb.h"
#include "runtime/superfile.h"
#include "tape/tape_library.h"

namespace msra {
namespace {

using core::HardwareProfile;
using core::Location;
using core::StorageSystem;
using simkit::Timeline;

// ----------------------------------------------------------- wire fuzz ---

TEST(WireFuzzTest, RandomBytesNeverCrashTheReader) {
  Rng rng(4242);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    net::WireReader reader(junk);
    // Alternate random get calls; every one must return a value or a clean
    // error, never read out of bounds (ASAN/valgrind would catch).
    for (int i = 0; i < 8; ++i) {
      switch (rng.next_below(5)) {
        case 0: (void)reader.get_u8(); break;
        case 1: (void)reader.get_u32(); break;
        case 2: (void)reader.get_u64(); break;
        case 3: (void)reader.get_string(); break;
        case 4: (void)reader.get_bytes(); break;
      }
    }
  }
  SUCCEED();
}

TEST(WireFuzzTest, TruncationAtEveryOffsetFailsCleanly) {
  net::WireWriter w;
  w.put_string("dataset/temp");
  w.put_u64(123456);
  w.put_bytes(std::vector<std::byte>(100, std::byte{7}));
  const auto full = w.take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    net::WireReader reader(std::span<const std::byte>(full).first(cut));
    auto name = reader.get_string();
    if (!name.ok()) continue;
    auto number = reader.get_u64();
    if (!number.ok()) continue;
    auto blob = reader.get_bytes();
    EXPECT_FALSE(blob.ok()) << "cut at " << cut << " should have truncated";
  }
}

// ------------------------------------------------------- server fuzz -----

TEST(ServerFuzzTest, RandomRequestsAreRejectedNotFatal) {
  StorageSystem system(HardwareProfile::test_profile());
  Rng rng(99);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> request(rng.next_below(48));
    for (auto& b : request) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    simkit::SimTime completion = 0.0;
    auto response = system.site(0).server().dispatch(request, 0.0, &completion);
    net::WireReader reader(response);
    // Every response starts with a parseable status.
    auto status = srb::proto::get_status(reader);
    (void)status;
  }
  // The server still works after the bombardment.
  srb::SrbClient client(&system.site(0).server(), &system.site(0).disk_link());
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  EXPECT_TRUE(client.obj_open(tl, "remotedisk", "ok", srb::OpenMode::kCreate).ok());
}

TEST(ServerFuzzTest, AbsurdLengthsFailWithAStatusNotAnAllocation) {
  // The random requests above are 48 bytes at most and never reach these
  // paths: a read length, run length or run count far beyond anything the
  // server holds must come back as a status-only error, not sized into a
  // buffer first, and a write whose end wraps past 2^64 must not land.
  StorageSystem system(HardwareProfile::test_profile());
  srb::SrbServer& server = system.site(0).server();
  srb::SrbClient client(&server, &system.site(0).disk_link());
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  auto open = client.obj_open(tl, "remotedisk", "small", srb::OpenMode::kCreate);
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(client.obj_write(tl, "remotedisk", *open,
                               std::vector<std::byte>(100, std::byte{5}))
                  .ok());
  const srb::HandleId never_opened = *open + 1000;
  constexpr std::uint64_t kHuge = 1ull << 62;

  // Dispatches a raw request; its response must hold a status and nothing
  // else.
  auto status_of = [&](net::WireWriter request) {
    const ByteBuffer bytes = request.take();
    simkit::SimTime completion = 0.0;
    const ByteBuffer response = server.dispatch(bytes, 0.0, &completion);
    net::WireReader reader(response);
    Status status = srb::proto::get_status(reader);
    EXPECT_TRUE(reader.exhausted()) << status.to_string();
    return status;
  };
  auto header = [](srb::Op op, srb::HandleId handle) {
    net::WireWriter w;
    w.put_u8(static_cast<std::uint8_t>(op));
    w.put_string("remotedisk");
    w.put_u64(handle);
    return w;
  };

  // kRead of 2^62 bytes, on a handle never opened and on an open one.
  net::WireWriter read_bad = header(srb::Op::kRead, never_opened);
  read_bad.put_u64(kHuge);
  EXPECT_EQ(status_of(std::move(read_bad)).code(), ErrorCode::kInvalidArgument);
  net::WireWriter read_open = header(srb::Op::kRead, *open);
  read_open.put_u64(kHuge);
  EXPECT_EQ(status_of(std::move(read_open)).code(), ErrorCode::kOutOfRange);

  // kPRead of 2^62 bytes at offset 0 of the open object.
  net::WireWriter pread = header(srb::Op::kPRead, *open);
  pread.put_u64(0);
  pread.put_u64(kHuge);
  EXPECT_EQ(status_of(std::move(pread)).code(), ErrorCode::kOutOfRange);

  // kReadv: runs of 2^63 bytes whose lengths sum past 2^64.
  net::WireWriter readv = header(srb::Op::kReadv, *open);
  readv.put_u32(2);
  for (int i = 0; i < 2; ++i) {
    readv.put_u64(0);
    readv.put_u64(1ull << 63);
  }
  EXPECT_EQ(status_of(std::move(readv)).code(), ErrorCode::kOutOfRange);

  // kReadv and kWritev claiming 2^32 - 1 run descriptors they do not carry.
  for (srb::Op op : {srb::Op::kReadv, srb::Op::kWritev}) {
    net::WireWriter runs = header(op, *open);
    runs.put_u32(~std::uint32_t{0});
    EXPECT_EQ(status_of(std::move(runs)).code(), ErrorCode::kInvalidArgument);
  }

  // kPWrite of 2 bytes at offset 2^64 - 1: offset + size wraps to 1.
  net::WireWriter pwrite = header(srb::Op::kPWrite, *open);
  pwrite.put_u64(~std::uint64_t{0});
  pwrite.put_bytes(std::vector<std::byte>(2, std::byte{9}));
  EXPECT_EQ(status_of(std::move(pwrite)).code(), ErrorCode::kOutOfRange);

  // The server still serves the object, unchanged.
  ASSERT_TRUE(client.obj_seek(tl, "remotedisk", *open, 0).ok());
  std::vector<std::byte> back(100);
  ASSERT_TRUE(client.obj_read(tl, "remotedisk", *open, back).ok());
  EXPECT_EQ(back, std::vector<std::byte>(100, std::byte{5}));
}

// ---------------------------------------------------- superfile fuzz -----

TEST(SuperfileFuzzTest, TruncatedSuperfilesAreRejected) {
  StorageSystem system(HardwareProfile::test_profile());
  auto& endpoint = system.endpoint(Location::kRemoteDisk);
  Timeline tl;
  {
    auto writer = runtime::SuperfileWriter::create(endpoint, tl, "sf");
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          writer->add("m" + std::to_string(i),
                      std::vector<std::byte>(50 + static_cast<std::size_t>(i),
                                             static_cast<std::byte>(i)))
              .ok());
    }
    ASSERT_TRUE(writer->finalize().ok());
  }
  auto total = endpoint.size(tl, "sf");
  ASSERT_TRUE(total.ok());
  // Re-store truncated copies at several cut points; every open must fail
  // cleanly (or succeed only if the cut is beyond the footer, impossible).
  std::vector<std::byte> blob(*total);
  {
    auto file = runtime::FileSession::start(endpoint, tl, "sf",
                                            srb::OpenMode::kRead);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->read(blob).ok());
  }
  for (std::size_t cut : {std::size_t{0}, std::size_t{10}, blob.size() - 40,
                          blob.size() - 17, blob.size() - 1}) {
    auto file = runtime::FileSession::start(endpoint, tl, "sf_cut",
                                            srb::OpenMode::kOverwrite);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        file->write(std::span<const std::byte>(blob).first(cut)).ok());
    ASSERT_TRUE(file->finish().ok());
    auto reader = runtime::SuperfileReader::open(endpoint, tl, "sf_cut");
    EXPECT_FALSE(reader.ok()) << "cut at " << cut;
  }
}

TEST(SuperfileFuzzTest, RandomMembersRoundTrip) {
  StorageSystem system(HardwareProfile::test_profile());
  auto& endpoint = system.endpoint(Location::kLocalDisk);
  Rng rng(777);
  for (int round = 0; round < 10; ++round) {
    Timeline tl;
    std::map<std::string, std::vector<std::byte>> members;
    const std::string path = "fuzz/sf" + std::to_string(round);
    auto writer = runtime::SuperfileWriter::create(endpoint, tl, path);
    ASSERT_TRUE(writer.ok());
    const int count = 1 + static_cast<int>(rng.next_below(12));
    for (int m = 0; m < count; ++m) {
      std::vector<std::byte> data(rng.next_below(2000));
      for (auto& b : data) b = static_cast<std::byte>(rng.next_u64() & 0xff);
      const std::string name = "member" + std::to_string(m);
      ASSERT_TRUE(writer->add(name, data).ok());
      members[name] = std::move(data);
    }
    ASSERT_TRUE(writer->finalize().ok());
    auto reader = runtime::SuperfileReader::open(endpoint, tl, path);
    ASSERT_TRUE(reader.ok());
    for (const auto& [name, data] : members) {
      auto got = reader->read(name);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), data.size());
      EXPECT_TRUE(std::equal(got->begin(), got->end(), data.begin()));
    }
  }
}

// --------------------------------------------------- tape fuzz model -----

TEST(TapeFuzzTest, RandomOpsMatchReferenceModelAndTimeIsMonotone) {
  tape::TapeModel model;
  model.mount = 1.0;
  model.dismount = 0.5;
  model.min_seek = 0.01;
  model.seek_rate = 1e-9;
  model.read_bw = 1e6;
  model.write_bw = 1e6;
  model.per_op = 0.0;
  model.cartridge_capacity = 1 << 20;
  tape::TapeLibrary lib("fuzz", model, 2);
  Timeline tl;
  Rng rng(31337);
  std::map<std::string, std::vector<std::byte>> reference;
  double last_time = 0.0;
  for (int step = 0; step < 400; ++step) {
    const std::string name = "bf" + std::to_string(rng.next_below(8));
    switch (rng.next_below(4)) {
      case 0: {  // create/overwrite
        const bool overwrite = rng.next_below(2) == 1;
        Status s = lib.create(name, overwrite);
        if (reference.count(name) && !overwrite) {
          EXPECT_EQ(s.code(), ErrorCode::kAlreadyExists);
        } else {
          EXPECT_TRUE(s.ok());
          reference[name] = {};
        }
        break;
      }
      case 1: {  // append
        if (!reference.count(name)) break;
        std::vector<std::byte> data(1 + rng.next_below(5000));
        for (auto& b : data) b = static_cast<std::byte>(rng.next_u64() & 0xff);
        ASSERT_TRUE(
            lib.append(tl, name, reference[name].size(), data).ok());
        auto& ref = reference[name];
        ref.insert(ref.end(), data.begin(), data.end());
        break;
      }
      case 2: {  // read a random range
        if (!reference.count(name) || reference[name].empty()) break;
        const auto& ref = reference[name];
        const std::uint64_t off = rng.next_below(ref.size());
        const std::uint64_t len = 1 + rng.next_below(ref.size() - off);
        std::vector<std::byte> out(len);
        ASSERT_TRUE(lib.read(tl, name, off, out).ok());
        EXPECT_EQ(0, std::memcmp(out.data(), ref.data() + off, len));
        break;
      }
      case 3: {  // remove (sometimes)
        if (!reference.count(name) || rng.next_below(4) != 0) break;
        ASSERT_TRUE(lib.remove(name).ok());
        reference.erase(name);
        break;
      }
    }
    EXPECT_GE(tl.now(), last_time) << "virtual time must never regress";
    last_time = tl.now();
  }
  // Accounting invariant: bytes on tape == reference bytes.
  std::uint64_t expected = 0;
  for (const auto& [name, data] : reference) expected += data.size();
  EXPECT_EQ(lib.used_bytes(), expected);
}

// ------------------------------------------------ perfdb monotonicity ----

TEST(PerfDbPropertyTest, InterpolationIsMonotoneOnMonotoneCurves) {
  meta::Database db;
  predict::PerfDb perfdb(&db);
  // An affine curve measured at a few sizes.
  for (std::uint64_t size : {100u, 1000u, 10000u, 100000u}) {
    ASSERT_TRUE(perfdb
                    .put_rw_point(Location::kRemoteDisk, predict::IoOp::kWrite,
                                  size, 0.5 + static_cast<double>(size) * 1e-5)
                    .ok());
  }
  double last = 0.0;
  for (std::uint64_t bytes = 1; bytes <= 200000; bytes += 777) {
    auto t = perfdb.rw_time(Location::kRemoteDisk, predict::IoOp::kWrite, bytes);
    ASSERT_TRUE(t.ok());
    EXPECT_GE(*t + 1e-12, last) << "at " << bytes;
    last = *t;
  }
}

// -------------------------------------------- capacity + failover mix ----

TEST(FailureInjectionTest, WritesSurviveRollingOutages) {
  StorageSystem system(HardwareProfile::test_profile());
  core::Session session(system, {.application = "chaos", .nprocs = 1,
                                 .iterations = 30});
  core::DatasetDesc desc;
  desc.name = "survivor";
  desc.dims = {16, 16, 16};
  desc.etype = core::ElementType::kFloat32;
  desc.frequency = 1;
  desc.location = Location::kRemoteTape;
  auto handle = session.open(desc);
  ASSERT_TRUE(handle.ok());

  prt::World world(1);
  world.run([&](prt::Comm& comm) {
    std::vector<std::byte> block(16 * 16 * 16 * 4, std::byte{1});
    for (int t = 0; t <= 30; ++t) {
      // Rolling outages: tape dies at t=10, disk at t=20 (tape revives).
      if (t == 10) {
        system.set_location_available(Location::kRemoteTape, false);
      }
      if (t == 20) {
        system.set_location_available(Location::kRemoteTape, true);
        system.set_location_available(Location::kRemoteDisk, false);
      }
      ASSERT_TRUE((*handle)->write_timestep(comm, t, block).ok())
          << "t=" << t;
    }
  });
  // Everything written is readable afterwards (all resources back up).
  system.set_location_available(Location::kRemoteDisk, true);
  Timeline tl;
  for (int t = 0; t <= 30; ++t) {
    EXPECT_TRUE((*handle)->read_whole(t, {.timeline = &tl}).ok()) << "t=" << t;
  }
}

}  // namespace
}  // namespace msra
