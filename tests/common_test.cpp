// Common kernel: serialization, checksums, clocks, RNG determinism,
// statistics.
#include <gtest/gtest.h>

#include <string_view>

#include "common/buffer.h"
#include "common/clock.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace raincore {
namespace {

TEST(BufferTest, RoundTripAllWidths) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.bytes({1, 2, 3});

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(BufferTest, LittleEndianOnWire) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.view(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

TEST(BufferTest, ShortReadSetsFailedState) {
  Bytes b{0x01, 0x02};
  ByteReader r(b);
  r.u32();
  EXPECT_FALSE(r.ok());
}

TEST(BufferTest, FailedStateIsSticky) {
  Bytes b{0x01};
  ByteReader r(b);
  r.u64();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0);  // still failed, returns zero
  EXPECT_FALSE(r.ok());
}

TEST(BufferTest, OversizedLengthPrefixFailsCleanly) {
  ByteWriter w;
  w.u32(0xFFFFFFFF);  // length prefix far beyond the buffer
  ByteReader r(w.view());
  Bytes out = r.bytes();
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(r.ok());
}

TEST(BufferTest, EmptyStringAndBytes) {
  ByteWriter w;
  w.str("");
  w.bytes(Bytes{});
  ByteReader r(w.view());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.ok());
}

// RFC 3720 §B.4's CRC32C examples, plus the common "123456789" check
// value. Each is checked on the portable path, on the SSE4.2 path where the
// CPU has it, and through crc32c(), which picks one.
TEST(Crc32cTest, PublishedCheckValues) {
  struct Vector {
    Bytes data;
    std::uint32_t crc;
  };
  std::vector<Vector> vectors = {{Bytes(32, 0x00), 0x8A9136AAu},
                                 {Bytes(32, 0xFF), 0x62A8AB43u},
                                 {Bytes(32), 0x46DD794Eu},
                                 {Bytes(32), 0x113FDB5Cu}};
  for (std::uint8_t i = 0; i < 32; ++i) {
    vectors[2].data[i] = i;
    vectors[3].data[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::string_view check = "123456789";
  vectors.push_back({Bytes(check.begin(), check.end()), 0xE3069283u});

  for (const Vector& v : vectors) {
    EXPECT_EQ(crc32c_portable(v.data.data(), v.data.size()), v.crc);
    EXPECT_EQ(crc32c(v.data.data(), v.data.size()), v.crc);
    if (crc32c_hw_available()) {
      EXPECT_EQ(crc32c_hw(v.data.data(), v.data.size()), v.crc);
    }
  }
  EXPECT_EQ(crc32c_portable(nullptr, 0), 0u);
}

// The slice-by-8 loop and the 8-byte `crc32` loop each fold whole words
// and then finish bytewise, so every length 0..1024 at every start offset
// 0..7 crosses each head, body and tail split.
TEST(Crc32cTest, HardwareAndPortablePathsAgree) {
  if (!crc32c_hw_available()) GTEST_SKIP() << "no SSE4.2 crc32 on this CPU";
  Rng rng(3720);
  Bytes buf(1024 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; n <= 1024; ++n) {
      ASSERT_EQ(crc32c_hw(buf.data() + off, n),
                crc32c_portable(buf.data() + off, n))
          << "offset " << off << ", length " << n;
    }
  }
}

TEST(ClockTest, ManualClockAdvancesMonotonically) {
  ManualClock c;
  EXPECT_EQ(c.now(), 0);
  c.advance_to(100);
  EXPECT_EQ(c.now(), 100);
  c.advance_to(50);  // never goes backwards
  EXPECT_EQ(c.now(), 100);
  c.advance_by(10);
  EXPECT_EQ(c.now(), 110);
}

TEST(ClockTest, RealClockMovesForward) {
  RealClock c;
  Time a = c.now();
  Time b = c.now();
  EXPECT_GE(b, a);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ExponentialHasRoughlyCorrectMean) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RngTest, ChanceExtremes) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(1);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(HistogramTest, BasicStatistics) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 5.0);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(HistogramTest, RecordAfterQueryResorts) {
  Histogram h;
  h.record(5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  h.record(9.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(TypesTest, TimeConversions) {
  EXPECT_EQ(millis(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_millis(millis(3)), 3.0);
}

TEST(TypesTest, FormatTimePicksUnit) {
  EXPECT_EQ(format_time(seconds(2)), "2.000s");
  EXPECT_EQ(format_time(millis(5)), "5.000ms");
  EXPECT_EQ(format_time(micros(7)), "7.000us");
  EXPECT_EQ(format_time(123), "123ns");
}

TEST(CounterTest, IncAndReset) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

}  // namespace
}  // namespace raincore
