// Unit tests for stq/common: Status, Result, RNG, CRC32, byte accounting,
// clock, and update canonicalization.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/bytes.h"
#include "stq/common/clock.h"
#include "stq/common/crc32.h"
#include "stq/common/random.h"
#include "stq/common/result.h"
#include "stq/common/status.h"
#include "stq/core/types.h"

namespace stq {
namespace {

// --- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("object 7 unknown");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "object 7 unknown");
  EXPECT_EQ(s.ToString(), "NotFound: object 7 unknown");
}

TEST(StatusTest, FactoryHelpersMapToCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Corruption("a"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
}

Status Fails() { return Status::IOError("disk on fire"); }
Status Propagates() {
  STQ_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(Propagates(), Status::IOError("disk on fire"));
}

// --- Result -----------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MovesValueOut) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  EXPECT_EQ(r->size(), 3u);
}

// --- Xorshift128Plus ----------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Xorshift128Plus a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Xorshift128Plus a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, ZeroSeedIsRemapped) {
  Xorshift128Plus rng(0);
  EXPECT_NE(rng.NextUint64(), 0u);  // all-zero state would stick at zero
}

TEST(RandomTest, BoundedUint64StaysInRange) {
  Xorshift128Plus rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
  }
}

TEST(RandomTest, BoundedUint64CoversRange) {
  Xorshift128Plus rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextUint64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, DoubleInUnitInterval) {
  Xorshift128Plus rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, DoubleRangeRespectsBounds) {
  Xorshift128Plus rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble(-2.5, 7.5);
    EXPECT_GE(d, -2.5);
    EXPECT_LT(d, 7.5);
  }
}

TEST(RandomTest, IntRangeInclusive) {
  Xorshift128Plus rng(17);
  std::set<int> seen;
  for (int i = 0; i < 300; ++i) {
    const int v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomTest, BoolProbabilityEdges) {
  Xorshift128Plus rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RandomTest, BoolProbabilityRoughlyCalibrated) {
  Xorshift128Plus rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RandomTest, GaussianMomentsRoughlyStandard) {
  Xorshift128Plus rng(29);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

// --- CRC32C --------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  const char data[] = "123456789";
  EXPECT_EQ(Crc32c(data, 9), 0xE3069283u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(Crc32c("", 0), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string payload = "incremental evaluation of continuous queries";
  const uint32_t one_shot = Crc32c(payload.data(), payload.size());
  uint32_t crc = 0;
  // Feeding in two chunks must agree with the one-shot checksum.
  crc = Crc32c(crc, payload.data(), 10);
  crc = Crc32c(crc, payload.data() + 10, payload.size() - 10);
  EXPECT_EQ(crc, one_shot);
}

// Known answers from RFC 3720 (iSCSI), appendix B.4.
TEST(Crc32Test, Rfc3720KnownAnswers) {
  std::string bytes(32, '\0');
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x8A9136AAu);
  bytes.assign(32, '\xFF');
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) bytes[i] = static_cast<char>(i);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x46DD794Eu);
  for (int i = 0; i < 32; ++i) bytes[i] = static_cast<char>(31 - i);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x113FDB5Cu);
  // An iSCSI SCSI Read (10) command PDU.
  const unsigned char pdu[48] = {
      0x01, 0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(Crc32c(pdu, sizeof(pdu)), 0xD9963A56u);
}

// The textbook one-byte-at-a-time CRC-32C, the oracle for the sliced one.
uint32_t BytewiseCrc32c(uint32_t crc, const char* data, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Xorshift128Plus rng(0xC3C32Cull);
  std::string buf(600, '\0');
  for (char& c : buf) c = static_cast<char>(rng.NextUint64(256));
  // Every length up to a few slices at every misalignment.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 40; ++n) {
      ASSERT_EQ(Crc32c(buf.data() + offset, n),
                BytewiseCrc32c(0, buf.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
  // Random spans, checksummed as chains of random pieces.
  for (int trial = 0; trial < 500; ++trial) {
    const size_t offset = rng.NextUint64(64);
    const size_t n = rng.NextUint64(buf.size() - offset + 1);
    const uint32_t expect = BytewiseCrc32c(0, buf.data() + offset, n);
    ASSERT_EQ(Crc32c(buf.data() + offset, n), expect);
    uint32_t chained = rng.NextUint64(2) == 0 ? 0 : 0x12345678u;
    uint32_t chained_expect = chained;
    size_t done = 0;
    while (done < n) {
      const size_t piece = std::min(n - done, 1 + rng.NextUint64(37));
      chained = Crc32c(chained, buf.data() + offset + done, piece);
      chained_expect =
          BytewiseCrc32c(chained_expect, buf.data() + offset + done, piece);
      done += piece;
    }
    ASSERT_EQ(chained, chained_expect) << "trial " << trial;
  }
}

TEST(Crc32Test, SensitiveToSingleBitFlip) {
  std::string payload = "payload";
  const uint32_t before = Crc32c(payload.data(), payload.size());
  payload[3] ^= 1;
  EXPECT_NE(before, Crc32c(payload.data(), payload.size()));
}

// --- Byte accounting --------------------------------------------------------------

TEST(WireCostTest, DefaultsMatchDocumentedLayout) {
  WireCostModel model;
  EXPECT_EQ(model.UpdateBytes(0), 0u);
  EXPECT_EQ(model.UpdateBytes(3), 3u * 17u);
  EXPECT_EQ(model.CompleteAnswerBytes(0), 12u);
  EXPECT_EQ(model.CompleteAnswerBytes(10), 12u + 80u);
}

TEST(WireCostTest, BytesToKb) {
  EXPECT_DOUBLE_EQ(BytesToKb(2048), 2.0);
  EXPECT_DOUBLE_EQ(BytesToKb(0), 0.0);
}

// --- SimClock -----------------------------------------------------------------------

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  EXPECT_DOUBLE_EQ(clock.Advance(5.0), 5.0);
  EXPECT_DOUBLE_EQ(clock.Advance(-3.0), 5.0);  // never flows backwards
  EXPECT_DOUBLE_EQ(clock.Advance(0.5), 5.5);
}

TEST(SimClockTest, CustomStart) {
  SimClock clock(100.0);
  EXPECT_DOUBLE_EQ(clock.now(), 100.0);
}

// --- Update canonicalization ------------------------------------------------------------

TEST(UpdateTest, DebugStringMatchesPaperNotation) {
  EXPECT_EQ(Update::Positive(1, 2).DebugString(), "(Q1, +p2)");
  EXPECT_EQ(Update::Negative(3, 4).DebugString(), "(Q3, -p4)");
}

TEST(CanonicalizeTest, SortsByQueryThenObjectThenSign) {
  std::vector<Update> updates = {
      Update::Positive(2, 1),
      Update::Negative(1, 9),
      Update::Positive(1, 2),
  };
  CanonicalizeUpdates(&updates);
  ASSERT_EQ(updates.size(), 3u);
  EXPECT_EQ(updates[0], Update::Positive(1, 2));
  EXPECT_EQ(updates[1], Update::Negative(1, 9));
  EXPECT_EQ(updates[2], Update::Positive(2, 1));
}

TEST(CanonicalizeTest, CancelsOppositePairs) {
  std::vector<Update> updates = {
      Update::Positive(1, 5),
      Update::Negative(1, 5),
      Update::Positive(1, 6),
  };
  CanonicalizeUpdates(&updates);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0], Update::Positive(1, 6));
}

TEST(CanonicalizeTest, DoesNotCancelAcrossQueries) {
  std::vector<Update> updates = {
      Update::Positive(1, 5),
      Update::Negative(2, 5),
  };
  CanonicalizeUpdates(&updates);
  EXPECT_EQ(updates.size(), 2u);
}

TEST(CanonicalizeTest, EmptyIsFine) {
  std::vector<Update> updates;
  CanonicalizeUpdates(&updates);
  EXPECT_TRUE(updates.empty());
}

}  // namespace
}  // namespace stq
