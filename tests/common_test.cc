#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/barrier.h"
#include "common/crc32.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/stable_vector.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/varint.h"

namespace flex {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("vertex 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: vertex 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDataLoss); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

// Guards the name table against drift: a newly added StatusCode that
// reuses (copy-pastes) an existing case label would silently alias two
// codes in every log line and test failure message.
TEST(StatusTest, AllCodeNamesDistinct) {
  std::set<std::string> names;
  int count = 0;
  // Walk past the last known code until the table answers "Unknown", so
  // codes added after kDataLoss are still covered without editing this
  // test.
  for (int c = 0; c < 64; ++c) {
    const char* name = StatusCodeName(static_cast<StatusCode>(c));
    if (std::string(name) == "Unknown") break;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
    ++count;
  }
  EXPECT_EQ(count, static_cast<int>(StatusCode::kDataLoss) + 1)
      << "StatusCodeName has a gap before the last enumerator";
}

TEST(StatusTest, RobustnessFactoriesCarryTheirCodes) {
  EXPECT_EQ(Status::Cancelled("c").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::DeadlineExceeded("d").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("r").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DataLoss("l").code(), StatusCode::kDataLoss);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalve(int x, int* out) {
  FLEX_ASSIGN_OR_RETURN(*out, HalveEven(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalve(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseHalve(3, &out).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Varint

TEST(VarintTest, RoundTripSmall) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 0);
  PutVarint64(&buf, 127);
  PutVarint64(&buf, 128);
  size_t pos = 0;
  uint64_t v = 99;
  ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, 127u);
  ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, 128u);
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, SmallValuesAreOneByte) {
  EXPECT_EQ(VarintLength(0), 1u);
  EXPECT_EQ(VarintLength(127), 1u);
  EXPECT_EQ(VarintLength(128), 2u);
  EXPECT_EQ(VarintLength(UINT64_MAX), 10u);
}

TEST(VarintTest, TruncatedInputFails) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 1ull << 40);
  size_t pos = 0;
  uint64_t v;
  EXPECT_FALSE(GetVarint64(buf.data(), buf.size() - 1, &pos, &v));
}

TEST(VarintTest, ZigZagOrdering) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  for (int64_t x : {int64_t{0}, int64_t{-5}, int64_t{12345},
                    int64_t{-9876543210}, INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(x)), x);
  }
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, GetParam());
  EXPECT_EQ(buf.size(), VarintLength(GetParam()));
  size_t pos = 0;
  uint64_t v = 0;
  ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull,
                                           16383ull, 16384ull, (1ull << 35),
                                           UINT64_MAX - 1, UINT64_MAX));

// Property test: seeded-random values around every 7-bit group boundary
// (where the encoded length changes) plus u32/u64 extremes round-trip,
// and encoded streams decode back in order.
TEST(VarintTest, RandomizedRoundTripAtGroupBoundaries) {
  Rng rng(2024);
  std::vector<uint64_t> values;
  for (int group = 1; group < 10; ++group) {
    const uint64_t boundary = 1ull << (7 * group);
    for (uint64_t delta : {uint64_t{0}, uint64_t{1}, uint64_t{2}}) {
      values.push_back(boundary - delta);
      values.push_back(boundary + delta);
    }
    // A few random values inside this length class.
    for (int i = 0; i < 16; ++i) {
      values.push_back((boundary >> 1) + rng.Uniform(boundary >> 1));
    }
  }
  values.push_back(uint64_t{UINT32_MAX} - 1);
  values.push_back(uint64_t{UINT32_MAX});
  values.push_back(uint64_t{UINT32_MAX} + 1);
  values.push_back(UINT64_MAX);

  std::vector<uint8_t> buf;
  for (uint64_t v : values) {
    const size_t before = buf.size();
    PutVarint64(&buf, v);
    ASSERT_EQ(buf.size() - before, VarintLength(v)) << v;
  }
  size_t pos = 0;
  for (uint64_t want : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &got));
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, RandomizedSignedRoundTrip) {
  Rng rng(4048);
  std::vector<uint8_t> buf;
  std::vector<int64_t> values = {0, -1, 1, INT64_MIN, INT64_MAX,
                                 INT64_MIN + 1, INT64_MAX - 1};
  for (int i = 0; i < 200; ++i) {
    const uint64_t raw = rng.Next();
    values.push_back(static_cast<int64_t>(raw));
  }
  for (int64_t v : values) PutVarintSigned(&buf, v);
  size_t pos = 0;
  for (int64_t want : values) {
    int64_t got = 0;
    ASSERT_TRUE(GetVarintSigned(buf.data(), buf.size(), &pos, &got));
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(pos, buf.size());
}

// ------------------------------------------------------------------ CRC32

TEST(Crc32Test, GoldenVectors) {
  // The IEEE 802.3 check value: CRC-32 of the ASCII digits "123456789".
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits, sizeof(digits)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0x00000000u);
  const uint8_t a[] = {'a'};
  EXPECT_EQ(Crc32(a, 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShotAtEverySplit) {
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  const uint32_t want = Crc32(data, sizeof(data));
  for (size_t split = 0; split <= sizeof(data); ++split) {
    uint32_t state = Crc32Init();
    state = Crc32Update(state, data, split);
    state = Crc32Update(state, data + split, sizeof(data) - split);
    EXPECT_EQ(Crc32Finalize(state), want) << "split at " << split;
  }
  // Byte-at-a-time equals one shot too.
  uint32_t state = Crc32Init();
  for (uint8_t byte : data) state = Crc32Update(state, &byte, 1);
  EXPECT_EQ(Crc32Finalize(state), want);
}

TEST(Crc32Test, SlicedKernelMatchesBytewiseReference) {
  // The slicing-by-8 kernel must agree with the Sarwate byte-at-a-time
  // reference for every length and alignment around the 8-byte block
  // boundary (where a sliced implementation's bugs live): lengths 0..64
  // starting at offsets 0..8 into a random buffer, plus a large buffer.
  Rng rng(4242);
  std::vector<uint8_t> data(64 + 9);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t offset = 0; offset <= 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint32_t sliced =
          Crc32Finalize(Crc32Update(Crc32Init(), data.data() + offset, len));
      const uint32_t reference = Crc32Finalize(
          Crc32UpdateBytewise(Crc32Init(), data.data() + offset, len));
      ASSERT_EQ(sliced, reference) << "offset " << offset << " len " << len;
    }
  }
  std::vector<uint8_t> big(1 << 16);
  for (auto& b : big) b = static_cast<uint8_t>(rng.Uniform(256));
  EXPECT_EQ(Crc32(big.data(), big.size()),
            Crc32Finalize(Crc32UpdateBytewise(Crc32Init(), big.data(),
                                              big.size())));
}

TEST(Crc32Test, IncrementalSplitsCrossBlockBoundaries) {
  // Splitting mid-block forces the sliced kernel to mix block and tail
  // processing; every split of a 3-block buffer must match one shot.
  Rng rng(7);
  std::vector<uint8_t> data(24);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Uniform(256));
  const uint32_t want = Crc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t state = Crc32Init();
    state = Crc32Update(state, data.data(), split);
    state = Crc32Update(state, data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32Finalize(state), want) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  Rng rng(99);
  std::vector<uint8_t> payload(64);
  for (auto& b : payload) b = static_cast<uint8_t>(rng.Uniform(256));
  const uint32_t clean = Crc32(payload.data(), payload.size());
  for (size_t bit = 0; bit < payload.size() * 8; bit += 13) {
    payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(payload.data(), payload.size()), clean) << bit;
    payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(Crc32(payload.data(), payload.size()), clean);
}

TEST(VarintTest, ScratchEncodeMatchesVectorAppendEverywhere) {
  // PutVarint64To (the bulk-encode primitive Send() builds messages with)
  // must emit byte-identical encodings to the vector append path, report
  // the VarintLength it consumed, and never exceed kMaxVarintLen64.
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             UINT64_MAX};
  for (uint64_t v : values) {
    uint8_t scratch[kMaxVarintLen64];
    const size_t n = PutVarint64To(scratch, v);
    EXPECT_EQ(n, VarintLength(v)) << v;
    ASSERT_LE(n, kMaxVarintLen64);
    std::vector<uint8_t> buf;
    PutVarint64(&buf, v);
    ASSERT_EQ(buf.size(), n) << v;
    EXPECT_EQ(std::memcmp(scratch, buf.data(), n), 0) << v;
    size_t pos = 0;
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(scratch, n, &pos, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(VarintTest, TruncatedMidVarintAtEveryPrefix) {
  // A decoder fed any strict prefix of a multi-byte encoding must fail and
  // must not advance pos (so callers can safely retry after a refill).
  std::vector<uint8_t> buf;
  PutVarint64(&buf, UINT64_MAX);  // 10-byte maximum-length encoding.
  ASSERT_EQ(buf.size(), 10u);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    uint64_t v = 0;
    EXPECT_FALSE(GetVarint64(buf.data(), cut, &pos, &v)) << "cut=" << cut;
    EXPECT_EQ(pos, 0u) << "cut=" << cut;
  }
}

TEST(VarintTest, MaxLengthEncodingRoundTrips) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, UINT64_MAX);
  ASSERT_EQ(buf.size(), 10u);
  // Every byte but the last carries a continuation bit.
  for (size_t i = 0; i + 1 < buf.size(); ++i) EXPECT_TRUE(buf[i] & 0x80);
  EXPECT_FALSE(buf.back() & 0x80);
  size_t pos = 0;
  uint64_t v = 0;
  ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_EQ(pos, 10u);
}

TEST(VarintTest, OverlongContinuationRunFails) {
  // 11+ continuation bytes can never terminate a valid 64-bit varint; the
  // decoder must reject rather than shift past 63 bits.
  std::vector<uint8_t> buf(16, 0x80);
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(buf.data(), buf.size(), &pos, &v));
}

TEST(VarintTest, DecodeAtNonZeroPosRespectsBounds) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 7);
  PutVarint64(&buf, 300);
  size_t pos = 1;  // Start at the second value.
  uint64_t v = 0;
  ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, 300u);
  // One byte short of the second value's encoding.
  pos = 1;
  EXPECT_FALSE(GetVarint64(buf.data(), buf.size() - 1, &pos, &v));
}

TEST(VarintTest, SignedTruncatedFails) {
  std::vector<uint8_t> buf;
  PutVarintSigned(&buf, INT64_MIN);  // ZigZags to UINT64_MAX: 10 bytes.
  ASSERT_EQ(buf.size(), 10u);
  size_t pos = 0;
  int64_t v = 0;
  EXPECT_FALSE(GetVarintSigned(buf.data(), buf.size() - 1, &pos, &v));
  pos = 0;
  ASSERT_TRUE(GetVarintSigned(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, INT64_MIN);
}

TEST(VarintTest, EmptyBufferFails) {
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(nullptr, 0, &pos, &v));
  EXPECT_EQ(pos, 0u);
}

// ---------------------------------------------------------------- Random

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIsInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(10), 10u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, SkewConcentratesMassOnHead) {
  ZipfSampler zipf(1000, 1.2, 3);
  size_t head = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next() < 10) ++head;
  }
  // With s=1.2 the top-10 ranks should hold a large share of the mass.
  EXPECT_GT(head, kDraws / 4);
}

// ---------------------------------------------------------------- Strings

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitSingleToken) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinInvertsSplit) {
  EXPECT_EQ(Join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_TRUE(StartsWith("MATCH (n)", "MATCH"));
  EXPECT_FALSE(StartsWith("MA", "MATCH"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_EQ(ToLower("GrEmLiN"), "gremlin");
  EXPECT_TRUE(EqualsIgnoreCase("RETURN", "return"));
  EXPECT_FALSE(EqualsIgnoreCase("RETURN", "returns"));
}

TEST(StringUtilTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
}

// ---------------------------------------------------------------- Queue

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(8);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, ProducerConsumerTransfersEverything) {
  BoundedQueue<int> q(4);
  constexpr int kItems = 2000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) q.Push(i);
    q.Close();
  });
  int64_t sum = 0;
  int count = 0;
  while (auto v = q.Pop()) {
    sum += *v;
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, kItems);
  EXPECT_EQ(sum, static_cast<int64_t>(kItems) * (kItems - 1) / 2);
}

// ---------------------------------------------------------------- Pool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRangePartitionsDisjointly) {
  ThreadPool pool(4);
  std::vector<int> owner(103, -1);
  std::mutex mu;
  pool.ParallelForRange(103, [&](size_t w, size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    for (size_t i = begin; i < end; ++i) {
      EXPECT_EQ(owner[i], -1);
      owner[i] = static_cast<int>(w);
    }
  });
  for (int o : owner) EXPECT_NE(o, -1);
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

// ---------------------------------------------------------------- Barrier

TEST(BarrierTest, SynchronizesRounds) {
  constexpr size_t kThreads = 4;
  constexpr int kRounds = 20;
  Barrier barrier(kThreads);
  std::atomic<int> round_counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> violation{false};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        ++round_counter;
        barrier.Await();
        // After the barrier every thread must have bumped the counter.
        if (round_counter.load() < (r + 1) * static_cast<int>(kThreads)) {
          violation = true;
        }
        barrier.Await();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(round_counter.load(), kRounds * static_cast<int>(kThreads));
}

TEST(BarrierTest, ExactlyOneLeaderPerGeneration) {
  constexpr size_t kThreads = 3;
  Barrier barrier(kThreads);
  std::atomic<int> leaders{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      if (barrier.Await()) ++leaders;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(leaders.load(), 1);
}

// ---------------------------------------------------------- StableVector

TEST(StableVectorTest, AppendsAcrossBlocks) {
  StableVector<int, 4> v;
  for (int i = 0; i < 50; ++i) v.push_back(i * i);
  ASSERT_EQ(v.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(v[i], i * i);
}

TEST(StableVectorTest, AddressesAreStable) {
  StableVector<int, 2> v;
  v.push_back(1);
  const int* first = &v[0];
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(first, &v[0]);  // No reallocation ever moves elements.
  EXPECT_EQ(*first, 1);
}

TEST(StableVectorTest, GrowsPastAFixedBlockTable) {
  // One element per block: 100,000 blocks, far past any fixed table.
  StableVector<uint32_t, 1> v;
  for (uint32_t i = 0; i < 100000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 100000u);
  for (uint32_t i = 0; i < 100000; ++i) ASSERT_EQ(v[i], i * 3);
}

TEST(StableVectorTest, ConcurrentReadersSeeOnlyPublishedElements) {
  StableVector<uint64_t, 64> v;
  std::atomic<bool> stop{false};
  std::atomic<size_t> violations{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const size_t n = v.size();
      for (size_t i = 0; i < n; ++i) {
        // Writer publishes i+1 at slot i before bumping the size.
        if (v[i] != i + 1) violations.fetch_add(1);
      }
    }
  });
  for (uint64_t i = 0; i < 200000; ++i) v.push_back(i + 1);
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(v.size(), 200000u);
}

TEST(StableVectorTest, EmplaceDefaultThenMutate) {
  StableVector<std::vector<int>, 8> v;
  auto& slot = v.emplace_back();
  slot.push_back(42);
  EXPECT_EQ(v[0].size(), 1u);
  EXPECT_EQ(v[0][0], 42);
}

}  // namespace
}  // namespace flex
