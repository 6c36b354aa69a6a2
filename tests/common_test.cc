// Unit tests for the common kit: status, units, rng, stats, crc, table,
// logging.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/crc.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/units.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;

// ---------------------------------------------------------------------
// Logging (must run before anything else latches the NVMECR_LOG
// threshold, which is read once per process)
// ---------------------------------------------------------------------

TEST(LogTest, PrefixesLevelAndSubsystem) {
  setenv("NVMECR_LOG", "warn", /*overwrite=*/1);
  testing::internal::CaptureStderr();
  NVMECR_SLOG_WARN("oplog", "ring %d%% full", 93);
  NVMECR_LOG_WARN("untagged %s", "line");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] [oplog] ring 93% full\n[WARN] untagged line\n");

  // Below-threshold levels stay silent.
  testing::internal::CaptureStderr();
  NVMECR_LOG_DEBUG("invisible");
  NVMECR_SLOG_INFO("oplog", "invisible");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  Status s = NotFoundError("no such file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such file");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NoSpaceError("pool empty");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kNoSpace);
}

Status helper_returns(Status in) {
  NVMECR_RETURN_IF_ERROR(in);
  return OkStatus();
}

TEST(StatusOrTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(helper_returns(OkStatus()).ok());
  EXPECT_EQ(helper_returns(IoError()).code(), ErrorCode::kIoError);
}

StatusOr<int> make_value(bool ok) {
  if (!ok) return InvalidArgumentError("nope");
  return 7;
}

Status assign_or(bool ok, int& out) {
  NVMECR_ASSIGN_OR_RETURN(out, make_value(ok));
  return OkStatus();
}

TEST(StatusOrTest, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(assign_or(true, out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(assign_or(false, out).code(), ErrorCode::kInvalidArgument);
}

TEST(UnitsTest, SizeLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(32_KiB, 32768u);
  EXPECT_EQ(1_GiB, 1073741824u);
  EXPECT_EQ(1_GBps, 1000000000u);
}

TEST(UnitsTest, TimeLiterals) {
  EXPECT_EQ(1_us, 1000);
  EXPECT_EQ(1_ms, 1000000);
  EXPECT_EQ(2_s, 2000000000);
}

TEST(UnitsTest, TransferTime) {
  // 1 GB at 1 GB/s (decimal) = 1 second.
  EXPECT_EQ(transfer_time(1000000000ull, 1_GBps), kSecond);
  // Zero rate = instant.
  EXPECT_EQ(transfer_time(12345, 0), 0);
  // Zero bytes = instant.
  EXPECT_EQ(transfer_time(0, 1_GBps), 0);
  // Sub-ns transfers round up to 1 ns.
  EXPECT_EQ(transfer_time(1, 100_GBps), 1);
}

TEST(UnitsTest, TransferTimeNoOverflowForTerabytes) {
  const uint64_t tb10 = 10ull << 40;
  const SimDuration d = transfer_time(tb10, 2_GBps);
  EXPECT_NEAR(to_seconds(d), static_cast<double>(tb10) / 2e9, 1e-3);
}

// transfer_time must stay usable in constant expressions, on both the
// 64-bit and the 128-bit path.
static_assert(transfer_time(1_GiB, 0) == 0);
static_assert(transfer_time(1000000000ull, 1_GBps) == kSecond);
static_assert(transfer_time(1000000000000ull, 1_GBps) == 1000 * kSecond);

/// The all-128-bit formula the split 64/128-bit version must equal.
SimDuration transfer_time_reference(uint64_t bytes, uint64_t bytes_per_sec) {
  if (bytes_per_sec == 0 || bytes == 0) return 0;
  const auto ns = static_cast<__int128>(bytes) * kSecond / bytes_per_sec;
  return ns > 0 ? static_cast<SimDuration>(ns) : 1;
}

TEST(UnitsTest, TransferTimeMatches128BitReference) {
  constexpr uint64_t kEdge = UINT64_MAX / kSecond;  // last 64-bit byte count
  for (uint64_t bytes : {uint64_t{1}, uint64_t{1} << 34, kEdge - 1, kEdge,
                         kEdge + 1, UINT64_MAX}) {
    for (uint64_t rate : {uint64_t{1}, uint64_t{3}, 1_GBps, UINT64_MAX}) {
      EXPECT_EQ(transfer_time(bytes, rate),
                transfer_time_reference(bytes, rate))
          << bytes << " B at " << rate << " B/s";
    }
  }
  Rng rng(2021);
  for (int i = 0; i < 100000; ++i) {
    // Random bit widths, so small, edge-sized and huge values all occur.
    const uint64_t bytes_shift = rng.uniform(64);
    const uint64_t bytes = rng.next() >> bytes_shift;
    const uint64_t rate_shift = rng.uniform(64);
    const uint64_t rate = rng.next() >> rate_shift;
    ASSERT_EQ(transfer_time(bytes, rate), transfer_time_reference(bytes, rate))
        << bytes << " B at " << rate << " B/s";
  }
}

TEST(UnitsTest, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 4), 3u);
  EXPECT_EQ(ceil_div(8, 4), 2u);
  EXPECT_EQ(round_up(10, 4), 12u);
  EXPECT_EQ(round_up(8, 4), 8u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.uniform(5, 10);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 10u);
  }
}

TEST(RngTest, Uniform01Bounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, Mix64Avalanches) {
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

TEST(StreamingStatsTest, MeanVarianceCov) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stdev(), 2.0);  // classic population-stdev example
  EXPECT_DOUBLE_EQ(s.cov(), 0.4);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.cov(), 0.0);
}

TEST(StreamingStatsTest, UniformLoadHasZeroCov) {
  StreamingStats s;
  for (int i = 0; i < 8; ++i) s.add(1000.0);
  EXPECT_DOUBLE_EQ(s.cov(), 0.0);
}

TEST(SamplesTest, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.05);
}

TEST(SamplesTest, QueriesAreConstCorrect) {
  Samples s;
  for (int i = 10; i >= 1; --i) s.add(static_cast<double>(i));
  // min()/max()/percentile() are usable through a const reference (the
  // lazy sort is an internal mutable detail) and interleave with add().
  const Samples& cs = s;
  EXPECT_DOUBLE_EQ(cs.min(), 1.0);
  EXPECT_DOUBLE_EQ(cs.max(), 10.0);
  EXPECT_DOUBLE_EQ(cs.percentile(0), 1.0);
  s.add(0.5);  // re-dirties the sort
  EXPECT_DOUBLE_EQ(cs.min(), 0.5);
  EXPECT_DOUBLE_EQ(cs.percentile(100), 10.0);
  EXPECT_EQ(cs.size(), 11u);
}

TEST(SamplesTest, CovMatchesStreaming) {
  Samples s;
  StreamingStats t;
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform01() * 10 + 1;
    s.add(v);
    t.add(v);
  }
  EXPECT_NEAR(s.cov(), t.cov(), 1e-9);
}

TEST(CrcTest, KnownProperties) {
  const char msg[] = "123456789";
  const uint64_t c = crc64(msg, 9);
  EXPECT_NE(c, 0u);
  // Stable across calls.
  EXPECT_EQ(crc64(msg, 9), c);
  // Sensitive to any byte change.
  char msg2[] = "123456780";
  EXPECT_NE(crc64(msg2, 9), c);
}

TEST(CrcTest, SeedChaining) {
  const char a[] = "hello";
  const char b[] = "world";
  const uint64_t c1 = crc64(a, 5);
  const uint64_t chained = crc64(b, 5, c1);
  EXPECT_NE(chained, crc64(b, 5));
}

TEST(CrcTest, Crc64XzCheckValue) {
  // The CRC-64/XZ parameterization's published check value.
  const char msg[] = "123456789";
  EXPECT_EQ(crc64(msg, 9), 0x995DC9BBDF1939FAull);
  EXPECT_EQ(detail::crc64_reference(msg, 9), 0x995DC9BBDF1939FAull);
}

// The slice-by-16 hot path must be bit-identical to the byte-at-a-time
// reference for every length class (tail handling: 16-byte groups, an
// 8-byte group, then single bytes), alignment, and seed.
TEST(CrcTest, SlicedMatchesReference) {
  Rng rng(1234);
  std::vector<unsigned char> buf(1024);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.uniform(256));
  for (size_t len : {0ul, 1ul, 7ul, 8ul, 9ul, 15ul, 16ul, 17ul, 31ul, 32ul,
                     63ul, 100ul, 255ul, 256ul, 1000ul}) {
    for (size_t shift : {0ul, 1ul, 3ul, 8ul}) {
      for (uint64_t seed : {0ull, 1ull, 0xdeadbeefcafef00dull}) {
        ASSERT_EQ(crc64(buf.data() + shift, len, seed),
                  detail::crc64_reference(buf.data() + shift, len, seed))
            << "len=" << len << " shift=" << shift << " seed=" << seed;
      }
    }
  }
}

TEST(TablePrinterTest, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(uint64_t{42}), "42");
}

TEST(TablePrinterTest, PrintsWithoutCrash) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1.0"});
  t.add_row({"beta", "2.0"});
  t.print(stderr);  // smoke: alignment code paths execute
}

}  // namespace
}  // namespace nvmecr
