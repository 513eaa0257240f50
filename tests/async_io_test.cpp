// AsyncWriter error paths.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/profiles.h"
#include "core/system.h"
#include "runtime/async_io.h"
#include "runtime/endpoint.h"

namespace msra::runtime {
namespace {

using core::HardwareProfile;
using core::Location;
using core::StorageSystem;
using simkit::Timeline;

std::vector<std::byte> bytes_of(std::size_t n, int seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 7 + static_cast<std::size_t>(seed)) & 0xff);
  }
  return out;
}

// ------------------------------------------------- writer error paths -----

TEST(AsyncWriterErrorTest, FailedWriteSurfacesFromFlushNotSubmit) {
  StorageSystem system(HardwareProfile::test_profile());
  StorageEndpoint& ep = system.endpoint(Location::kRemoteDisk);
  system.set_location_available(Location::kRemoteDisk, false);
  AsyncWriter writer(ep);
  Timeline caller;
  // Submission only stages the buffer; the outage is discovered by the
  // background engine and must come back out of flush().
  ASSERT_TRUE(writer.submit(caller, "werr/a", bytes_of(100, 1)).ok());
  EXPECT_EQ(writer.flush(caller).code(), ErrorCode::kUnavailable);
}

TEST(AsyncWriterErrorTest, SubmitFailsFastAfterStickyError) {
  StorageSystem system(HardwareProfile::test_profile());
  StorageEndpoint& ep = system.endpoint(Location::kRemoteDisk);
  system.set_location_available(Location::kRemoteDisk, false);
  AsyncWriter writer(ep);
  Timeline caller;
  ASSERT_TRUE(writer.submit(caller, "werr/b", bytes_of(100, 2)).ok());
  ASSERT_EQ(writer.flush(caller).code(), ErrorCode::kUnavailable);
  const std::uint64_t submitted = writer.submitted();

  // The error is sticky: even after the resource comes back, later submits
  // must not silently succeed — the caller has unacknowledged lost data.
  system.set_location_available(Location::kRemoteDisk, true);
  Status again = writer.submit(caller, "werr/c", bytes_of(100, 3));
  EXPECT_EQ(again.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(writer.submitted(), submitted) << "rejected submit must not count";
  EXPECT_EQ(writer.flush(caller).code(), ErrorCode::kUnavailable);

  // And the rejected object never landed.
  Timeline tl;
  EXPECT_FALSE(ep.size(tl, "werr/c").ok());
}

TEST(AsyncWriterErrorTest, EarlierWritesLandDespiteLaterFailure) {
  StorageSystem system(HardwareProfile::test_profile());
  StorageEndpoint& ep = system.endpoint(Location::kRemoteDisk);
  const auto good = bytes_of(4000, 4);
  AsyncWriter writer(ep);
  Timeline caller;
  ASSERT_TRUE(writer.submit(caller, "werr/good", good).ok());
  // Writes retire in order on the single engine worker, so the outage
  // injected now is only seen by the second write.
  ASSERT_TRUE(writer.flush(caller).ok());
  system.set_location_available(Location::kRemoteDisk, false);
  ASSERT_TRUE(writer.submit(caller, "werr/bad", bytes_of(4000, 5)).ok());
  EXPECT_EQ(writer.flush(caller).code(), ErrorCode::kUnavailable);
  system.set_location_available(Location::kRemoteDisk, true);

  Timeline tl;
  auto session = FileSession::start(ep, tl, "werr/good", OpenMode::kRead);
  ASSERT_TRUE(session.ok());
  std::vector<std::byte> out(good.size());
  ASSERT_TRUE(session->read(out).ok());
  EXPECT_EQ(out, good);
}

}  // namespace
}  // namespace msra::runtime
