#include <gtest/gtest.h>

#include <set>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace msra {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("dataset temp");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: dataset temp");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::Unavailable("tape down");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(v.value_or(7), 7);
}

StatusOr<int> parse_positive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status use_macros(int x, int* out) {
  MSRA_ASSIGN_OR_RETURN(int v, parse_positive(x));
  MSRA_RETURN_IF_ERROR(Status::Ok());
  *out = v;
  return Status::Ok();
}

TEST(StatusOrTest, MacrosPropagateAndAssign) {
  int out = 0;
  EXPECT_TRUE(use_macros(5, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(use_macros(-1, &out).code(), ErrorCode::kInvalidArgument);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kUnimplemented); ++c) {
    EXPECT_NE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

// ----------------------------------------------------------------- Bytes --

TEST(BytesTest, Literals) {
  using namespace msra::literals;
  EXPECT_EQ(8_KiB, 8192u);
  EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
  EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
}

TEST(BytesTest, Formatting) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(8 * kMiB), "8.0 MiB");
  EXPECT_EQ(format_bytes(kGiB + kGiB / 2), "1.5 GiB");
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.uniform(2.5, 3.5);
    EXPECT_GE(d, 2.5);
    EXPECT_LT(d, 3.5);
  }
}

TEST(RngTest, GaussianHasReasonableMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

// ----------------------------------------------------------------- Stats --

TEST(StatsTest, BasicMoments) {
  StatAccumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_NEAR(acc.stddev(), 1.5811, 1e-3);
}

TEST(StatsTest, Percentiles) {
  StatAccumulator acc;
  for (int i = 1; i <= 100; ++i) acc.add(static_cast<double>(i));
  EXPECT_NEAR(acc.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(acc.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(acc.percentile(50), 50.5, 1e-9);
}

}  // namespace
}  // namespace msra
