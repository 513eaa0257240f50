#include <gtest/gtest.h>

#include <vector>

#include "net/link.h"
#include "net/wire.h"
#include "simkit/timeline.h"

namespace msra::net {
namespace {

TEST(WireTest, ScalarRoundTrip) {
  WireWriter w;
  w.put_u8(7);
  w.put_u16(300);
  w.put_u32(70000);
  w.put_u64(1ull << 40);
  w.put_i64(-42);
  w.put_f64(3.5);
  auto buf = w.take();
  WireReader r(buf);
  EXPECT_EQ(r.get_u8().value(), 7);
  EXPECT_EQ(r.get_u16().value(), 300);
  EXPECT_EQ(r.get_u32().value(), 70000u);
  EXPECT_EQ(r.get_u64().value(), 1ull << 40);
  EXPECT_EQ(r.get_i64().value(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64().value(), 3.5);
  EXPECT_TRUE(r.exhausted());
}

TEST(WireTest, StringAndBytesRoundTrip) {
  WireWriter w;
  w.put_string("dataset/temp");
  std::vector<std::byte> payload(100, std::byte{0x5A});
  w.put_bytes(payload);
  auto buf = w.take();
  WireReader r(buf);
  EXPECT_EQ(r.get_string().value(), "dataset/temp");
  EXPECT_EQ(r.get_bytes().value(), payload);
}

TEST(WireTest, EmptyStringAndBytes) {
  WireWriter w;
  w.put_string("");
  w.put_bytes({});
  auto buf = w.take();
  WireReader r(buf);
  EXPECT_EQ(r.get_string().value(), "");
  EXPECT_TRUE(r.get_bytes().value().empty());
}

TEST(WireTest, TruncatedScalarFails) {
  WireWriter w;
  w.put_u8(1);
  auto buf = w.take();
  WireReader r(buf);
  EXPECT_FALSE(r.get_u32().ok());
}

TEST(WireTest, TruncatedStringFails) {
  WireWriter w;
  w.put_u32(100);  // claims 100 bytes, provides none
  auto buf = w.take();
  WireReader r(buf);
  EXPECT_FALSE(r.get_string().ok());
}

TEST(WireTest, BytesIntoRequiresExactSize) {
  WireWriter w;
  std::vector<std::byte> payload(16, std::byte{1});
  w.put_bytes(payload);
  auto buf = w.take();
  {
    WireReader r(buf);
    std::vector<std::byte> out(16);
    EXPECT_TRUE(r.get_bytes_into(out).ok());
    EXPECT_EQ(out, payload);
  }
  {
    WireReader r(buf);
    std::vector<std::byte> out(8);
    EXPECT_FALSE(r.get_bytes_into(out).ok());
  }
}

TEST(WireTest, LengthPrefixNearTwoTo64FailsWithAStatus) {
  // A 9-byte message whose u64 length prefix claims 2^64 - 8 bytes: added
  // to the position after the prefix it wraps to 0, so only a check against
  // what is left of the message catches it.
  WireWriter w;
  w.put_u64(~std::uint64_t{0} - 7);
  w.put_u8(0xAB);
  const auto buf = w.take();
  ASSERT_EQ(buf.size(), 9u);
  EXPECT_EQ(WireReader(buf).get_bytes().status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(WireReader(buf).get_bytes_view().status().code(),
            ErrorCode::kOutOfRange);
  // A u32 string prefix one byte longer than the rest of the message.
  WireWriter s;
  s.put_u32(2);
  s.put_u8(0xCD);
  const auto sbuf = s.take();
  EXPECT_EQ(WireReader(sbuf).get_string().status().code(), ErrorCode::kOutOfRange);
  // get_bytes_into: a prefix that matches the buffer but not the message.
  WireWriter b;
  b.put_u64(2);
  b.put_u8(0xEF);
  const auto bbuf = b.take();
  std::vector<std::byte> out(2);
  EXPECT_EQ(WireReader(bbuf).get_bytes_into(out).code(), ErrorCode::kOutOfRange);
}

TEST(WireTest, BytesFilledInPlaceReadBackAsAView) {
  WireWriter w;
  w.put_u8(1);
  const std::span<std::byte> slot = w.put_bytes_in_place(5);
  ASSERT_EQ(slot.size(), 5u);
  for (std::size_t i = 0; i < slot.size(); ++i) {
    slot[i] = static_cast<std::byte>(10 + i);
  }
  w.put_u8(2);
  const auto buf = w.take();
  EXPECT_EQ(buf.size(), 1u + 8u + 5u + 1u);  // same bytes as put_bytes
  WireReader r(buf);
  EXPECT_EQ(r.get_u8().value(), 1);
  const auto view = r.get_bytes_view();
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 5u);
  EXPECT_EQ(view->data(), buf.data() + 9);  // a view into the message
  for (std::size_t i = 0; i < view->size(); ++i) {
    EXPECT_EQ((*view)[i], static_cast<std::byte>(10 + i));
  }
  EXPECT_EQ(r.get_u8().value(), 2);
  EXPECT_TRUE(r.exhausted());
}

TEST(LinkTest, TransmitChargesLatencyAndBandwidth) {
  LinkModel model;
  model.latency = 0.05;
  model.bandwidth = 1.0e6;
  Link link("wan", model);
  simkit::Timeline tl;
  link.transmit(tl, 500000);  // 0.5s transmission + 0.05 latency
  EXPECT_NEAR(tl.now(), 0.55, 1e-12);
}

TEST(LinkTest, SharedLinkSerializesTransmissions) {
  LinkModel model;
  model.latency = 0.0;
  model.bandwidth = 1.0e6;
  Link link("wan", model);
  simkit::Timeline a, b;
  link.transmit(a, 1000000);  // occupies [0, 1]
  link.transmit(b, 1000000);  // queues: arrives at 2
  EXPECT_NEAR(a.now(), 1.0, 1e-12);
  EXPECT_NEAR(b.now(), 2.0, 1e-12);
}

TEST(LinkTest, ConnectChargesSetup) {
  LinkModel model;
  model.conn_setup = 0.44;
  model.conn_teardown = 0.0002;
  Link link("wan", model);
  simkit::Timeline tl;
  link.connect(tl);
  EXPECT_NEAR(tl.now(), 0.44, 1e-12);
  link.disconnect(tl);
  EXPECT_NEAR(tl.now(), 0.4402, 1e-12);
}

TEST(LinkTest, LocalLinkIsFree) {
  Link link("lo", LinkModel{});
  simkit::Timeline tl;
  link.transmit(tl, 1 << 30);
  EXPECT_DOUBLE_EQ(tl.now(), 0.0);
  EXPECT_TRUE(link.model().is_local());
}

}  // namespace
}  // namespace msra::net
