#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/profiles.h"
#include "core/system.h"
#include "srb/client.h"

namespace msra::srb {
namespace {

using core::HardwareProfile;
using core::Location;
using core::StorageSystem;
using simkit::Timeline;

std::vector<std::byte> make_bytes(std::size_t n, unsigned char fill) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

// Wire sizes of the protocol: a string is a u32 length and its bytes, and a
// status is a u8 code and its message string.
std::uint64_t string_bytes(const std::string& s) { return 4 + s.size(); }
std::uint64_t status_bytes(const std::string& message) {
  return 1 + string_bytes(message);
}

// What the link bills for one round trip: each message's size plus the
// fixed framing overhead.
std::uint64_t round_trip(std::uint64_t request, std::uint64_t response) {
  return request + response + 2 * kMessageOverheadBytes;
}

// Bytes `link` transmitted while `op` ran: its pipe is busy size/bandwidth
// per message (no noise in the test profile).
template <typename Fn>
std::uint64_t billed_bytes(net::Link& link, Fn&& op) {
  const double before = link.pipe().busy_time();
  op();
  return static_cast<std::uint64_t>(
      std::llround((link.pipe().busy_time() - before) * link.model().bandwidth));
}

class SrbTest : public ::testing::Test {
 protected:
  SrbTest() : system_(HardwareProfile::test_profile()) {}

  SrbClient make_client(bool tape = false) {
    return SrbClient(&system_.site(0).server(),
                     tape ? &system_.site(0).tape_link() : &system_.site(0).disk_link());
  }

  StorageSystem system_;
};

TEST_F(SrbTest, RequiresConnection) {
  SrbClient client = make_client();
  Timeline tl;
  EXPECT_EQ(client.obj_open(tl, "remotedisk", "x", OpenMode::kCreate)
                .status()
                .code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(SrbTest, ConnectDisconnectChargesLinkCosts) {
  SrbClient client = make_client();
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  // conn_setup 0.1 + request/response round trip.
  EXPECT_GE(tl.now(), 0.1);
  const double after_connect = tl.now();
  ASSERT_TRUE(client.disconnect(tl).ok());
  EXPECT_GT(tl.now(), after_connect);
  EXPECT_FALSE(client.connected());
}

TEST_F(SrbTest, WriteReadRoundTripThroughProtocol) {
  SrbClient client = make_client();
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  auto handle = client.obj_open(tl, "remotedisk", "data/obj", OpenMode::kCreate);
  ASSERT_TRUE(handle.ok());
  auto payload = make_bytes(50000, 0x42);
  ASSERT_TRUE(client.obj_write(tl, "remotedisk", *handle, payload).ok());
  ASSERT_TRUE(client.obj_close(tl, "remotedisk", *handle).ok());

  auto rhandle = client.obj_open(tl, "remotedisk", "data/obj", OpenMode::kRead);
  ASSERT_TRUE(rhandle.ok());
  std::vector<std::byte> out(50000);
  ASSERT_TRUE(client.obj_read(tl, "remotedisk", *rhandle, out).ok());
  EXPECT_EQ(out, payload);
  ASSERT_TRUE(client.obj_close(tl, "remotedisk", *rhandle).ok());
  ASSERT_TRUE(client.disconnect(tl).ok());
}

TEST_F(SrbTest, BulkTransferIsBandwidthBound) {
  SrbClient client = make_client();
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  auto handle = client.obj_open(tl, "remotedisk", "bulk", OpenMode::kCreate);
  ASSERT_TRUE(handle.ok());
  const double before = tl.now();
  auto payload = make_bytes(1000000, 1);  // 1 MB over a 1 MB/s test link
  ASSERT_TRUE(client.obj_write(tl, "remotedisk", *handle, payload).ok());
  const double elapsed = tl.now() - before;
  EXPECT_GE(elapsed, 1.0);  // link transfer dominates
  EXPECT_LT(elapsed, 1.5);  // but not by much more than device time
  ASSERT_TRUE(client.obj_close(tl, "remotedisk", *handle).ok());
}

TEST_F(SrbTest, SeekOnRemoteDiskCostsARoundTrip) {
  SrbClient client = make_client();
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  auto handle = client.obj_open(tl, "remotedisk", "seek", OpenMode::kCreate);
  ASSERT_TRUE(handle.ok());
  auto payload = make_bytes(1000, 1);
  ASSERT_TRUE(client.obj_write(tl, "remotedisk", *handle, payload).ok());
  const double before = tl.now();
  ASSERT_TRUE(client.obj_seek(tl, "remotedisk", *handle, 0).ok());
  // 2x latency (0.01) + server cpu + device seek (0.05).
  EXPECT_GE(tl.now() - before, 0.07);
  ASSERT_TRUE(client.obj_close(tl, "remotedisk", *handle).ok());
}

TEST_F(SrbTest, TapeResourceAcceptsOnlySequentialWrites) {
  SrbClient client = make_client(/*tape=*/true);
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  auto handle = client.obj_open(tl, "remotetape", "bitfile", OpenMode::kCreate);
  ASSERT_TRUE(handle.ok());
  auto payload = make_bytes(1000, 1);
  ASSERT_TRUE(client.obj_write(tl, "remotetape", *handle, payload).ok());
  // Seek backward then write: tape rejects.
  ASSERT_TRUE(client.obj_seek(tl, "remotetape", *handle, 0).ok());
  EXPECT_EQ(client.obj_write(tl, "remotetape", *handle, payload).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(client.obj_close(tl, "remotetape", *handle).ok());
}

TEST_F(SrbTest, TapeOpenIsExpensive) {
  SrbClient client = make_client(/*tape=*/true);
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  const double before = tl.now();
  auto handle = client.obj_open(tl, "remotetape", "slow", OpenMode::kCreate);
  ASSERT_TRUE(handle.ok());
  EXPECT_GE(tl.now() - before, 1.0);  // test profile: tape open 1.0 s
  ASSERT_TRUE(client.obj_close(tl, "remotetape", *handle).ok());
}

TEST_F(SrbTest, StatAndList) {
  SrbClient client = make_client();
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  for (const char* name : {"runs/a", "runs/b"}) {
    auto handle = client.obj_open(tl, "remotedisk", name, OpenMode::kCreate);
    ASSERT_TRUE(handle.ok());
    auto payload = make_bytes(123, 1);
    ASSERT_TRUE(client.obj_write(tl, "remotedisk", *handle, payload).ok());
    ASSERT_TRUE(client.obj_close(tl, "remotedisk", *handle).ok());
  }
  auto size = client.obj_stat(tl, "remotedisk", "runs/a");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 123u);
  auto listed = client.obj_list(tl, "remotedisk", "runs/");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 2u);
  ASSERT_TRUE(client.obj_remove(tl, "remotedisk", "runs/a").ok());
  EXPECT_EQ(client.obj_stat(tl, "remotedisk", "runs/a").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(SrbTest, UnknownResourceIsNotFound) {
  SrbClient client = make_client();
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  EXPECT_EQ(client.obj_open(tl, "nowhere", "x", OpenMode::kCreate).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(SrbTest, ServerDownFailsEverything) {
  SrbClient client = make_client();
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  system_.site(0).server().set_down(true);
  EXPECT_EQ(client.obj_open(tl, "remotedisk", "x", OpenMode::kCreate)
                .status()
                .code(),
            ErrorCode::kUnavailable);
  system_.site(0).server().set_down(false);
  EXPECT_TRUE(client.obj_open(tl, "remotedisk", "x", OpenMode::kCreate).ok());
}

TEST_F(SrbTest, ResourceFaultInjection) {
  SrbClient client = make_client(/*tape=*/true);
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  system_.set_location_available(Location::kRemoteTape, false);
  EXPECT_EQ(client.obj_open(tl, "remotetape", "x", OpenMode::kCreate)
                .status()
                .code(),
            ErrorCode::kUnavailable);
  // The disk resource on the same server still works.
  SrbClient disk_client = make_client();
  ASSERT_TRUE(disk_client.connect(tl).ok());
  EXPECT_TRUE(disk_client.obj_open(tl, "remotedisk", "y", OpenMode::kCreate).ok());
  system_.set_location_available(Location::kRemoteTape, true);
}

TEST_F(SrbTest, ReplicateCopiesBetweenResources) {
  SrbClient client = make_client();
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  auto handle = client.obj_open(tl, "remotedisk", "rep", OpenMode::kCreate);
  ASSERT_TRUE(handle.ok());
  auto payload = make_bytes(5000, 0x5A);
  ASSERT_TRUE(client.obj_write(tl, "remotedisk", *handle, payload).ok());
  ASSERT_TRUE(client.obj_close(tl, "remotedisk", *handle).ok());

  ASSERT_TRUE(client.obj_replicate(tl, "remotedisk", "rep", "remotetape").ok());
  auto size = client.obj_stat(tl, "remotetape", "rep");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 5000u);
  // Replica content matches.
  auto rhandle = client.obj_open(tl, "remotetape", "rep", OpenMode::kRead);
  ASSERT_TRUE(rhandle.ok());
  std::vector<std::byte> out(5000);
  ASSERT_TRUE(client.obj_read(tl, "remotetape", *rhandle, out).ok());
  EXPECT_EQ(out, payload);
  ASSERT_TRUE(client.obj_close(tl, "remotetape", *rhandle).ok());
}

TEST_F(SrbTest, CapacityExceededOnSmallDisk) {
  // Local resource in the test profile holds 64 MiB.
  auto& local = system_.local_resource();
  Timeline tl;
  auto handle = local.open(tl, "big", OpenMode::kCreate);
  ASSERT_TRUE(handle.ok());
  std::vector<std::byte> chunk(32 << 20);
  ASSERT_TRUE(local.write(tl, *handle, chunk).ok());
  ASSERT_TRUE(local.write(tl, *handle, chunk).ok());
  EXPECT_EQ(local.write(tl, *handle, chunk).code(), ErrorCode::kCapacityExceeded);
  ASSERT_TRUE(local.close(tl, *handle).ok());
}

TEST_F(SrbTest, MalformedRequestIsRejectedNotFatal) {
  std::vector<std::byte> garbage = make_bytes(10, 0xEE);
  simkit::SimTime completion = 0.0;
  auto response = system_.site(0).server().dispatch(garbage, 0.0, &completion);
  net::WireReader r(response);
  EXPECT_FALSE(proto::get_status(r).ok());
}

// The link bills every message by its size, so the sizes are part of the
// model: a read response is its status (1 + 4 + message length) plus, on
// success only, the payload (8 + n); a failed read sends the status alone.
TEST_F(SrbTest, ReadMessagesKeepTheirWireSizes) {
  SrbClient client = make_client();
  net::Link& link = system_.site(0).disk_link();
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  const std::string rname = "remotedisk";
  const std::string path = "sizes/read";
  auto writer = client.obj_open(tl, rname, path, OpenMode::kCreate);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(client.obj_write(tl, rname, *writer, make_bytes(3000, 7)).ok());
  ASSERT_TRUE(client.obj_close(tl, rname, *writer).ok());
  auto h = client.obj_open(tl, rname, path, OpenMode::kRead);
  ASSERT_TRUE(h.ok());
  const HandleId bad = *h + 1000;
  const std::uint64_t ok = status_bytes("");
  const std::uint64_t past_end = status_bytes("read past end of " + path);
  const std::uint64_t bad_handle = status_bytes("bad handle");
  const std::uint64_t prefix = 1 + string_bytes(rname) + 8;  // op, name, handle
  std::vector<std::byte> out(4000);
  auto first = [&](std::size_t n) { return std::span(out).first(n); };

  // kRead: prefix + length.
  std::uint64_t billed = billed_bytes(link, [&] {
    EXPECT_TRUE(client.obj_read(tl, rname, *h, first(3000)).ok());
  });
  EXPECT_EQ(billed, round_trip(prefix + 8, ok + 8 + 3000));
  ASSERT_TRUE(client.obj_seek(tl, rname, *h, 0).ok());
  billed = billed_bytes(link, [&] {
    EXPECT_EQ(client.obj_read(tl, rname, *h, first(4000)).code(),
              ErrorCode::kOutOfRange);
  });
  EXPECT_EQ(billed, round_trip(prefix + 8, past_end));
  billed = billed_bytes(link, [&] {
    EXPECT_EQ(client.obj_read(tl, rname, bad, first(100)).code(),
              ErrorCode::kInvalidArgument);
  });
  EXPECT_EQ(billed, round_trip(prefix + 8, bad_handle));

  // kReadv: prefix + run count + 16 bytes per run.
  const std::vector<IoRun> runs = {{0, 1000}, {2000, 500}};
  billed = billed_bytes(link, [&] {
    EXPECT_TRUE(client.obj_readv(tl, rname, *h, runs, first(1500)).ok());
  });
  EXPECT_EQ(billed, round_trip(prefix + 4 + 32, ok + 8 + 1500));
  const std::vector<IoRun> past = {{0, 1000}, {2500, 1000}};
  billed = billed_bytes(link, [&] {
    EXPECT_EQ(client.obj_readv(tl, rname, *h, past, first(2000)).code(),
              ErrorCode::kOutOfRange);
  });
  EXPECT_EQ(billed, round_trip(prefix + 4 + 32, past_end));
  billed = billed_bytes(link, [&] {
    EXPECT_EQ(client.obj_readv(tl, rname, bad, runs, first(1500)).code(),
              ErrorCode::kInvalidArgument);
  });
  EXPECT_EQ(billed, round_trip(prefix + 4 + 32, bad_handle));

  // kPRead (prefix + offset + length), one per 1000-byte chunk of a
  // pipelined read, after one kTell (prefix alone; answered with a u64).
  FastPathConfig chunks;
  chunks.pipeline_chunk_bytes = 1000;
  chunks.streams = 1;
  client.set_fast_path(chunks);
  const std::uint64_t tell = round_trip(prefix, ok + 8);
  const std::uint64_t pread = prefix + 8 + 8;
  ASSERT_TRUE(client.obj_seek(tl, rname, *h, 0).ok());
  billed = billed_bytes(link, [&] {
    EXPECT_TRUE(client.read_pipelined(tl, rname, *h, first(2000)).ok());
  });
  EXPECT_EQ(billed, tell + 2 * round_trip(pread, ok + 8 + 1000));
  ASSERT_TRUE(client.obj_seek(tl, rname, *h, 2000).ok());
  billed = billed_bytes(link, [&] {
    EXPECT_EQ(client.read_pipelined(tl, rname, *h, first(2000)).code(),
              ErrorCode::kOutOfRange);
  });
  EXPECT_EQ(billed, tell + round_trip(pread, ok + 8 + 1000) +
                        round_trip(pread, past_end));
  // A kPRead on a bad handle (the pipelined path's kTell would fail first).
  net::WireWriter raw;
  raw.put_u8(static_cast<std::uint8_t>(Op::kPRead));
  raw.put_string(rname);
  raw.put_u64(bad);
  raw.put_u64(0);
  raw.put_u64(100);
  const auto request = raw.take();
  EXPECT_EQ(request.size(), pread);
  simkit::SimTime completion = 0.0;
  EXPECT_EQ(system_.site(0).server().dispatch(request, 0.0, &completion).size(),
            bad_handle);
  ASSERT_TRUE(client.obj_close(tl, rname, *h).ok());
}

TEST_F(SrbTest, WriteMessagesKeepTheirWireSizes) {
  SrbClient client = make_client();
  net::Link& link = system_.site(0).disk_link();
  Timeline tl;
  ASSERT_TRUE(client.connect(tl).ok());
  const std::string rname = "remotedisk";
  auto h = client.obj_open(tl, rname, "sizes/write", OpenMode::kCreate);
  ASSERT_TRUE(h.ok());
  const std::uint64_t ok = status_bytes("");
  const std::uint64_t prefix = 1 + string_bytes(rname) + 8;  // op, name, handle
  const auto payload = make_bytes(2000, 3);

  // kWrite: prefix + the payload (8 + n).
  std::uint64_t billed = billed_bytes(link, [&] {
    EXPECT_TRUE(client.obj_write(tl, rname, *h, std::span(payload).first(1000)).ok());
  });
  EXPECT_EQ(billed, round_trip(prefix + 8 + 1000, ok));

  // kPWrite: prefix + offset + payload, per 1000-byte chunk, after a kTell.
  FastPathConfig chunks;
  chunks.pipeline_chunk_bytes = 1000;
  chunks.streams = 1;
  client.set_fast_path(chunks);
  billed = billed_bytes(link, [&] {
    EXPECT_TRUE(client.write_pipelined(tl, rname, *h, payload).ok());
  });
  EXPECT_EQ(billed,
            round_trip(prefix, ok + 8) + 2 * round_trip(prefix + 8 + 8 + 1000, ok));

  // kWritev: prefix + run count + 16 bytes per run + the payload.
  const std::vector<IoRun> runs = {{0, 100}, {500, 200}};
  billed = billed_bytes(link, [&] {
    EXPECT_TRUE(
        client.obj_writev(tl, rname, *h, runs, std::span(payload).first(300)).ok());
  });
  EXPECT_EQ(billed, round_trip(prefix + 4 + 32 + 8 + 300, ok));
  ASSERT_TRUE(client.obj_close(tl, rname, *h).ok());
}

TEST_F(SrbTest, ConcurrentClientsShareTheLink) {
  SrbClient a = make_client();
  SrbClient b = make_client();
  Timeline ta, tb;
  ASSERT_TRUE(a.connect(ta).ok());
  ASSERT_TRUE(b.connect(tb).ok());
  auto ha = a.obj_open(ta, "remotedisk", "a", OpenMode::kCreate);
  auto hb = b.obj_open(tb, "remotedisk", "b", OpenMode::kCreate);
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hb.ok());
  // Reset both clocks to a common instant, then transfer concurrently.
  ta.reset(100.0);
  tb.reset(100.0);
  auto payload = make_bytes(1000000, 1);
  ASSERT_TRUE(a.obj_write(ta, "remotedisk", *ha, payload).ok());
  ASSERT_TRUE(b.obj_write(tb, "remotedisk", *hb, payload).ok());
  // The second transfer queued behind the first on the shared WAN pipe.
  EXPECT_GE(tb.now(), 102.0);
}

}  // namespace
}  // namespace msra::srb
