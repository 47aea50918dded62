#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/obs/quantile_histogram.h"

namespace deltaclus::obs {
namespace {

// The enabled flag is process-global; every test restores the disabled
// default so ordering cannot leak between tests (or into other suites).
class MetricsTest : public ::testing::Test {
 protected:
  void TearDown() override { MetricsRegistry::SetEnabled(false); }
};

TEST_F(MetricsTest, DisabledMutationsAreNoOps) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  Gauge* g = registry.GetGauge("test.gauge");
  QuantileHistogram* q =
      registry.GetQuantileHistogram("test.quantile", LatencySecondsOptions());
  MetricsRegistry::SetEnabled(false);
  c->Inc();
  g->Set(5.0);
  q->Observe(1.5);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(q->Count(), 0u);
}

TEST_F(MetricsTest, CounterAccumulatesWhenEnabled) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  MetricsRegistry::SetEnabled(true);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->Value(), 42u);
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST_F(MetricsTest, GaugeKeepsLastWrite) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  MetricsRegistry::SetEnabled(true);
  g->Set(1.5);
  g->Set(-2.5);
  EXPECT_EQ(g->Value(), -2.5);
}

TEST_F(MetricsTest, RegistrationReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("stable");
  // Force vector growth with many registrations.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler." + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("stable"), first);
}

TEST_F(MetricsTest, ConcurrentIncrementsAreLockFreeAndExact) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.concurrent");
  MetricsRegistry::SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Inc();
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, ResetAllZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  Gauge* g = registry.GetGauge("test.gauge");
  QuantileHistogram* q =
      registry.GetQuantileHistogram("test.quantile", LatencySecondsOptions());
  MetricsRegistry::SetEnabled(true);
  c->Inc(3);
  g->Set(9.0);
  q->Observe(0.5);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(q->Count(), 0u);
  EXPECT_EQ(registry.GetCounter("test.counter"), c);
}

TEST_F(MetricsTest, JsonSnapshotHasSortedSections) {
  MetricsRegistry registry;
  MetricsRegistry::SetEnabled(true);
  registry.GetCounter("z.second")->Inc(2);
  registry.GetCounter("a.first")->Inc(1);
  registry.GetGauge("z.gauge")->Set(1.5);
  registry.GetGauge("a.gauge")->Set(-2.0);
  std::string json = registry.SnapshotJson();
  EXPECT_EQ(json,
            "{\"counters\":{\"a.first\":1,\"z.second\":2},"
            "\"gauges\":{\"a.gauge\":-2,\"z.gauge\":1.5}}\n");
}

TEST_F(MetricsTest, JsonSnapshotHasQuantileSectionOnlyWhenRegistered) {
  MetricsRegistry registry;
  MetricsRegistry::SetEnabled(true);
  QuantileHistogram* q =
      registry.GetQuantileHistogram("iter.latency", LatencySecondsOptions());
  for (int i = 1; i <= 100; ++i) q->Observe(i * 0.001);
  // The JSON snapshot gains a quantile_histograms section only when one
  // is registered.
  std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"quantile_histograms\":{\"iter.latency\":"),
            std::string::npos)
      << json;
  MetricsRegistry empty;
  EXPECT_EQ(empty.SnapshotJson().find("quantile_histograms"),
            std::string::npos);
}

TEST_F(MetricsTest, WriteJsonFileRoundTrips) {
  MetricsRegistry registry;
  MetricsRegistry::SetEnabled(true);
  registry.GetCounter("file.counter")->Inc(7);
  std::string path = ::testing::TempDir() + "/metrics_snapshot.json";
  ASSERT_TRUE(registry.WriteJsonFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"file.counter\":7"), std::string::npos);
}

}  // namespace
}  // namespace deltaclus::obs
