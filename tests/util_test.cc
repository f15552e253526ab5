#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "util/bytes.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/status.h"

namespace nexus {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = PermissionDenied("proof does not discharge goal");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(s.ToString(), "PERMISSION_DENIED: proof does not discharge goal");
}

TEST(StatusTest, AllErrorCodesHaveNames) {
  for (int i = 0; i <= static_cast<int>(ErrorCode::kInternal); ++i) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(i)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("no such label");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(BytesTest, RoundTripStringConversion) {
  Bytes b = ToBytes("nexus");
  EXPECT_EQ(ToString(b), "nexus");
}

TEST(BytesTest, HexEncode) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(b), "0001abff");
}

TEST(BytesTest, HexDecodeRoundTrip) {
  Result<Bytes> decoded = HexDecode("0001abff");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, (Bytes{0x00, 0x01, 0xab, 0xff}));
}

TEST(BytesTest, HexDecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(BytesTest, HexDecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(BytesTest, HexDecodeAcceptsUpperCase) {
  Result<Bytes> decoded = HexDecode("ABFF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, (Bytes{0xab, 0xff}));
}

TEST(BytesTest, ConstantTimeEquals) {
  Bytes a = ToBytes("secret");
  Bytes b = ToBytes("secret");
  Bytes c = ToBytes("secreT");
  Bytes d = ToBytes("secre");
  EXPECT_TRUE(ConstantTimeEquals(a, b));
  EXPECT_FALSE(ConstantTimeEquals(a, c));
  EXPECT_FALSE(ConstantTimeEquals(a, d));
}

TEST(BytesTest, U32RoundTrip) {
  Bytes buf;
  AppendU32(buf, 0xdeadbeef);
  ByteReader reader(buf);
  Result<uint32_t> v = reader.ReadU32();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0xdeadbeefu);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, U64RoundTrip) {
  Bytes buf;
  AppendU64(buf, 0x0123456789abcdefULL);
  ByteReader reader(buf);
  Result<uint64_t> v = reader.ReadU64();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0x0123456789abcdefULL);
}

TEST(BytesTest, LengthPrefixedRoundTrip) {
  Bytes buf;
  AppendLengthPrefixed(buf, ToBytes("alpha"));
  AppendLengthPrefixed(buf, ToBytes(""));
  AppendLengthPrefixed(buf, ToBytes("beta"));
  ByteReader reader(buf);
  EXPECT_EQ(ToString(*reader.ReadLengthPrefixed()), "alpha");
  EXPECT_EQ(ToString(*reader.ReadLengthPrefixed()), "");
  EXPECT_EQ(ToString(*reader.ReadLengthPrefixed()), "beta");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, ReaderRejectsTruncatedInput) {
  Bytes buf = {0x00, 0x00, 0x00, 0x08, 0x01};  // Claims 8 bytes, has 1.
  ByteReader reader(buf);
  EXPECT_FALSE(reader.ReadLengthPrefixed().ok());
}

TEST(BytesTest, ReaderRejectsShortU32) {
  Bytes buf = {0x01, 0x02};
  ByteReader reader(buf);
  EXPECT_FALSE(reader.ReadU32().ok());
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(7);
  bool seen[5] = {false};
  for (int i = 0; i < 200; ++i) {
    seen[rng.NextBelow(5)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoolProbabilityExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, RandomBytesLength) {
  Rng rng(11);
  EXPECT_EQ(rng.RandomBytes(0).size(), 0u);
  EXPECT_EQ(rng.RandomBytes(1).size(), 1u);
  EXPECT_EQ(rng.RandomBytes(33).size(), 33u);
}

// ------------------------------------------------------------ metrics

TEST(MetricsTest, CounterAndGaugeBasics) {
  metrics::Registry registry;
  metrics::MetricGroup group(&registry, "test");
  metrics::Counter* c = group.NewCounter("hits");
  metrics::Gauge* g = group.NewGauge("depth");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 5);

  metrics::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.at("test.hits").value, 42);
  EXPECT_EQ(snap.at("test.depth").value, 5);
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  metrics::Histogram h;
  h.Record(0);    // bucket 0
  h.Record(1);    // bucket 1
  h.Record(5);    // bucket 3: [4, 8)
  h.Record(5);
  h.Record(900);  // bucket 10: [512, 1024)
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 911u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(3), 2u);
  EXPECT_EQ(h.BucketCount(10), 1u);
}

TEST(MetricsTest, SnapshotAggregatesAcrossInstancesAndRetirement) {
  metrics::Registry registry;
  metrics::MetricGroup a(&registry, "guard");
  a.NewCounter("checks")->Increment(10);
  {
    // A second instance with the same prefix: the registry view sums them,
    // while each instance's own pointer still reads its private tally.
    metrics::MetricGroup b(&registry, "guard");
    metrics::Counter* b_checks = b.NewCounter("checks");
    b_checks->Increment(5);
    EXPECT_EQ(b_checks->Value(), 5u);
    EXPECT_EQ(registry.TakeSnapshot().at("guard.checks").value, 15);
  }
  // `b` died; its total is retired, not lost.
  EXPECT_EQ(registry.TakeSnapshot().at("guard.checks").value, 15);
}

TEST(MetricsTest, SnapshotPrefixFilters) {
  metrics::Registry registry;
  metrics::MetricGroup cache(&registry, "cache");
  metrics::MetricGroup engine(&registry, "engine");
  cache.NewCounter("hits")->Increment();
  engine.NewCounter("misses")->Increment();
  metrics::Snapshot snap = registry.TakeSnapshot("cache");
  EXPECT_TRUE(snap.contains("cache.hits"));
  EXPECT_FALSE(snap.contains("engine.misses"));
}

TEST(MetricsTest, RenderTextAndJson) {
  metrics::Registry registry;
  metrics::MetricGroup group(&registry, "kernel");
  group.NewCounter("calls")->Increment(3);
  metrics::Histogram* lat = group.NewHistogram("cycles");
  for (int i = 0; i < 100; ++i) {
    lat->Record(1000);
  }
  std::string text = registry.RenderText("kernel");
  EXPECT_NE(text.find("kernel.calls 3"), std::string::npos);
  EXPECT_NE(text.find("kernel.cycles count=100"), std::string::npos);
  // 1000 has bit width 10, so every quantile reports the 2^10-1 bound.
  EXPECT_NE(text.find("p99=1023"), std::string::npos);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"kernel.calls\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"kernel.cycles\": {\"count\": 100"), std::string::npos);
}

TEST(MetricsTest, ApproxQuantileWalksBuckets) {
  metrics::Registry registry;
  metrics::MetricGroup group(&registry, "q");
  metrics::Histogram* h = group.NewHistogram("h");
  for (int i = 0; i < 90; ++i) {
    h->Record(3);  // bucket 2, bound 3.
  }
  for (int i = 0; i < 10; ++i) {
    h->Record(1 << 20);  // bucket 21.
  }
  metrics::InstrumentValue v = registry.TakeSnapshot().at("q.h");
  EXPECT_EQ(v.ApproxQuantile(0.5), 3u);
  EXPECT_GT(v.ApproxQuantile(0.99), 1u << 19);
}

// Counters are per-thread cells summed on read; these pin that the split
// never loses an increment — live, in a snapshot racing the writers, and
// after the owning group retires. (ThreadSanitizer target in CI.)
TEST(MetricsTest, CounterCellsAreExactUnderConcurrentIncrements) {
  constexpr int kThreads = 4;
  constexpr uint64_t kIncrements = 200000;
  metrics::Registry registry;
  auto group = std::make_unique<metrics::MetricGroup>(&registry, "mt");
  metrics::Counter* counter = group->NewCounter("hits");
  std::atomic<bool> done{false};
  // A reader snapshotting throughout: every value it sees is a sum of
  // per-cell values, so it can only grow.
  std::thread reader([&] {
    int64_t last = 0;
    while (!done.load()) {
      int64_t now = registry.TakeSnapshot("mt").at("mt.hits").value;
      EXPECT_GE(now, last);
      last = now;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kIncrements; ++i) {
        counter->Increment();
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(counter->Value(), kThreads * kIncrements);
  EXPECT_EQ(registry.TakeSnapshot().at("mt.hits").value,
            static_cast<int64_t>(kThreads * kIncrements));
  group.reset();  // Retire: the total moves into the registry intact.
  EXPECT_EQ(registry.TakeSnapshot().at("mt.hits").value,
            static_cast<int64_t>(kThreads * kIncrements));
}

TEST(MetricsTest, CounterStaysExactWithMoreThreadsThanCells) {
  // Threads past Counter::kCells share cells; the atomic add keeps the sum
  // exact anyway.
  constexpr int kThreads = static_cast<int>(metrics::Counter::kCells) + 4;
  constexpr uint64_t kIncrements = 20000;
  metrics::Counter counter;
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // All threads live at once, so the slots really do overflow.
      started.fetch_add(1);
      while (started.load() < kThreads) {
        std::this_thread::yield();
      }
      for (uint64_t i = 0; i < kIncrements; ++i) {
        counter.Increment(2);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), 2 * kThreads * kIncrements);
}

TEST(MetricsTest, LiveThreadsOwnDistinctCellsAndExitedSlotsAreReused) {
  constexpr int kThreads = 4;
  std::vector<uint32_t> cells(kThreads);
  std::atomic<int> claimed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      cells[t] = metrics::internal::CellIndex() % metrics::Counter::kCells;
      // Stay alive until every thread has its slot: slots are only
      // recycled at thread exit.
      claimed.fetch_add(1);
      while (claimed.load() < kThreads) {
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::set<uint32_t> distinct(cells.begin(), cells.end());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kThreads));
  // The four slots were released at exit: a new thread takes one of them
  // back instead of growing the slot table.
  uint32_t reused = 0;
  std::thread([&] { reused = metrics::internal::CellIndex() % metrics::Counter::kCells; }).join();
  EXPECT_TRUE(distinct.contains(reused));
}

}  // namespace
}  // namespace nexus
