// The observability layer's own verification net: counter/gauge/histogram
// semantics (including sharded concurrent increments), deterministic
// Prometheus-style exposition with a drift guard over the standard metric
// set, per-query trace structure, and end-to-end checks that the engines
// actually feed the registry and traces while executing real work.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "datagen/generators.h"
#include "graph/partitioner.h"
#include "grape/apps/pagerank.h"
#include "query/service.h"
#include "storage/simple.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex {
namespace {

using metrics::MetricsRegistry;

MetricsRegistry& Registry() { return MetricsRegistry::Instance(); }

// ------------------------------------------------------------- primitives

TEST(MetricsTest, CounterAccumulatesAcrossThreads) {
  metrics::Counter* c = Registry().GetCounter("test_counter_threads_total");
  c->ResetForTesting();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, RegistryReturnsSamePointerForSameName) {
  metrics::Counter* a = Registry().GetCounter("test_counter_identity_total");
  metrics::Counter* b = Registry().GetCounter("test_counter_identity_total");
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, GaugeGoesUpAndDown) {
  metrics::Gauge* g = Registry().GetGauge("test_gauge");
  g->ResetForTesting();
  g->Add(5);
  g->Add(-7);
  EXPECT_EQ(g->Value(), -2);
}

TEST(MetricsTest, HistogramBucketsAreCumulativeAndSumIsExact) {
  metrics::Histogram* h = Registry().GetHistogram("test_histogram_us");
  h->ResetForTesting();
  h->Observe(0);       // <= 1us bucket.
  h->Observe(3);       // <= 5us bucket.
  h->Observe(600);     // <= 1000us bucket.
  h->Observe(999999);  // +Inf bucket.
  EXPECT_EQ(h->TotalCount(), 4u);
  EXPECT_EQ(h->SumMicros(), 0u + 3u + 600u + 999999u);
  EXPECT_EQ(metrics::Histogram::BucketOf(0), 0u);
  EXPECT_EQ(metrics::Histogram::BucketOf(1), 0u);
  EXPECT_EQ(metrics::Histogram::BucketOf(2), 1u);
  EXPECT_EQ(metrics::Histogram::BucketOf(100000), 13u);
  EXPECT_EQ(metrics::Histogram::BucketOf(100001),
            metrics::kLatencyBucketBoundsUs.size());  // +Inf.
}

// ------------------------------------------------------------- exposition

TEST(MetricsTest, RenderIsDeterministic) {
  metrics::TouchStandardMetrics();
  FLEX_COUNTER_ADD(metrics::kQueriesTotal, 3);
  const std::string first = Registry().Render();
  const std::string second = Registry().Render();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(MetricsTest, RenderExposesCountersGaugesAndHistogramSeries) {
  metrics::TouchStandardMetrics();
  Registry().ResetAllForTesting();
  FLEX_COUNTER_ADD(metrics::kQueriesTotal, 2);
  FLEX_GAUGE_ADD(metrics::kHiactorPendingTasks, 4);
  FLEX_HISTOGRAM_OBSERVE_US(metrics::kQueryLatencyUs, 30);
  const std::string text = Registry().Render();
  EXPECT_NE(text.find("# TYPE flex_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("flex_queries_total 2"), std::string::npos);
  EXPECT_NE(text.find("flex_hiactor_pending_tasks 4"), std::string::npos);
  // 30us lands in the le="50" bucket; cumulative buckets and count agree.
  EXPECT_NE(text.find("flex_query_latency_us_bucket{le=\"50\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("flex_query_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("flex_query_latency_us_sum 30"), std::string::npos);
  EXPECT_NE(text.find("flex_query_latency_us_count 1"), std::string::npos);
  // Help text comes from the standard-metric table.
  EXPECT_NE(text.find("# HELP flex_queries_total"), std::string::npos);
}

// The drift guard: this list is the reviewed, alphabetically sorted set of
// standard stack metrics. Adding a metric to metric_names.h (or registering
// a new flex_* series from instrumentation) without updating this list —
// or vice versa — fails the test.
const char* const kExpectedStackMetrics[] = {
    "flex_faults_fired_total",
    "flex_flush_parallel_shards_total",
    "flex_fused_expands_total",
    "flex_fused_rows_pruned_total",
    "flex_fused_scans_total",
    "flex_hiactor_pending_tasks",
    "flex_hiactor_tasks_completed_total",
    "flex_hiactor_tasks_stolen_total",
    "flex_msg_bytes_copy_avoided_total",
    "flex_msg_bytes_flushed_total",
    "flex_msg_retransmits_total",
    "flex_msgs_sent_total",
    "flex_pie_barrier_wait_us",
    "flex_pie_compute_us",
    "flex_pie_recoveries_total",
    "flex_pie_supersteps_total",
    "flex_pie_superstep_duration_us",
    "flex_plan_cache_evictions_total",
    "flex_plan_cache_hits_total",
    "flex_plan_cache_invalidations_total",
    "flex_plan_cache_misses_total",
    "flex_queries_shed_total",
    "flex_queries_total",
    "flex_query_batches_total",
    "flex_query_failures_total",
    "flex_query_latency_us",
    "flex_query_retries_total",
    "flex_query_rows_per_batch",
    "flex_storage_adj_visits_total",
    "flex_storage_index_lookups_total",
    "flex_storage_scans_total",
    "flex_storage_snapshots_pinned_total",
    "flex_tenant_rejections_total",
    "flex_wal_batches_committed_total",
    "flex_wal_records_appended_total",
    "flex_wal_replay_duplicates_skipped_total",
    "flex_wal_replay_records_total",
    "flex_wal_syncs_total",
    "flex_wal_torn_tails_truncated_total",
};

TEST(MetricsTest, StandardMetricSetMatchesExpectedList) {
  std::vector<std::string> expected(std::begin(kExpectedStackMetrics),
                                    std::end(kExpectedStackMetrics));
  std::sort(expected.begin(), expected.end());

  // metric_names.h's table vs this test's reviewed list.
  std::vector<std::string> table;
  for (const metrics::MetricSpec& spec : metrics::AllStackMetrics()) {
    table.push_back(spec.name);
  }
  std::sort(table.begin(), table.end());
  EXPECT_EQ(table, expected)
      << "metric_names.h drifted from the expected list in metrics_test.cc; "
         "update both together";

  // And the registry itself: after touching the standard set, every flex_*
  // series actually registered must be in the list (instrumentation cannot
  // mint off-list names).
  metrics::TouchStandardMetrics();
  for (const std::string& name : Registry().Names()) {
    if (name.rfind("flex_", 0) != 0) continue;  // Test-local metrics.
    EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), name))
        << "unexpected registered metric: " << name;
  }
  // Conversely the standard set must all be registered.
  for (const std::string& name : expected) {
    const auto names = Registry().Names();
    EXPECT_TRUE(std::find(names.begin(), names.end(), name) != names.end())
        << "standard metric missing from registry: " << name;
  }
}

TEST(MetricsTest, EveryStandardMetricHasKindAndHelp) {
  for (const metrics::MetricSpec& spec : metrics::AllStackMetrics()) {
    EXPECT_TRUE(metrics::FindStackMetric(spec.name) == &spec);
    const std::string kind = spec.kind;
    EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
        << spec.name;
    EXPECT_GT(std::string(spec.help).size(), 10u) << spec.name;
    const std::string name = spec.name;
    if (kind == "counter") {
      EXPECT_TRUE(name.ends_with("_total")) << name;
    } else if (kind == "histogram") {
      // Histograms carry a unit suffix: `_us` for latencies, or a
      // `_per_<x>` distribution name for value histograms.
      EXPECT_TRUE(name.ends_with("_us") || name.find("_per_") !=
                                               std::string::npos)
          << name;
    }
  }
  EXPECT_EQ(metrics::FindStackMetric("no_such_metric"), nullptr);
}

// ------------------------------------------------------------------ trace

TEST(TraceTest, SpansNestAndDurationsAreConsistent) {
  trace::Trace trace("unit");
  const uint64_t root = trace.BeginSpan("query", "query");
  const uint64_t child1 = trace.BeginSpan("compile", "compile", root);
  trace.EndSpan(child1);
  const uint64_t child2 = trace.BeginSpan("execute", "execute", root);
  trace.EndSpan(child2);
  trace.EndSpan(root);
  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, trace::kNoParent);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, root);
  EXPECT_LE(trace.ChildDurationMicros(root), trace.SpanDurationMicros(root));
  EXPECT_EQ(trace.SpanDurationMicros(child1),
            spans[1].end_us - spans[1].start_us);
}

TEST(TraceTest, EndSpanKeepsFirstEndTime) {
  trace::Trace trace("unit");
  const uint64_t id = trace.BeginSpan("s", "test");
  trace.EndSpan(id);
  const uint64_t first_end = trace.spans()[0].end_us;
  trace.EndSpan(id);
  EXPECT_EQ(trace.spans()[0].end_us, first_end);
}

TEST(TraceTest, ScopedSpanIsNullSafe) {
  trace::ScopedSpan span(nullptr, "noop", "test");
  EXPECT_EQ(span.id(), trace::kNoParent);
}

TEST(TraceTest, ToJsonIsWellFormedAndEscapes) {
  trace::Trace trace("q\"1\\");
  const uint64_t root = trace.BeginSpan("query", "query");
  trace.EndSpan(root);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"query_id\": \"q\\\"1\\\\\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_us\": "), std::string::npos);
  EXPECT_NE(json.find("\"spans\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"query\""), std::string::npos);
}

// ------------------------------------------------------------ end-to-end

class EndToEndMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EdgeList list = datagen::GenerateUniform(150, 1200, 5);
    store_ = storage::VineyardStore::Build(
                 storage::MakeSimpleGraphData(list, false))
                 .value();
    graph_ = store_->GetGrinHandle();
  }

  std::unique_ptr<storage::VineyardStore> store_;
  std::unique_ptr<grin::GrinGraph> graph_;
};

TEST_F(EndToEndMetricsTest, QueryRunFeedsCountersAndTrace) {
  query::QueryService service(graph_.get(), 2);
  Registry().ResetAllForTesting();

  trace::Trace trace("two-hop");
  query::RunOptions options;
  options.trace = &trace;
  auto rows = service.Run(query::Language::kCypher,
                          "MATCH (a:V)-[:E]->(b:V) WHERE a.id < 10 "
                          "RETURN a.id, count(b) ORDER BY a.id",
                          options);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  EXPECT_EQ(Registry().GetCounter(metrics::kQueriesTotal)->Value(), 1u);
  EXPECT_EQ(Registry().GetCounter(metrics::kQueryFailuresTotal)->Value(), 0u);
  EXPECT_EQ(Registry().GetHistogram(metrics::kQueryLatencyUs)->TotalCount(),
            1u);
  EXPECT_GT(Registry().GetCounter(metrics::kStorageScansTotal)->Value(), 0u);

  // Trace structure: a "query" root whose direct children (compile,
  // execute) fit inside it; engine + operator + storage spans below.
  const auto spans = trace.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, trace::kNoParent);
  std::vector<std::string> names;
  for (const auto& s : spans) names.push_back(s.name);
  EXPECT_TRUE(std::find(names.begin(), names.end(), "compile") != names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "execute") != names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "gaia") != names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "storage.read") !=
              names.end());
  const uint64_t root_us = trace.SpanDurationMicros(spans[0].id);
  EXPECT_LE(trace.ChildDurationMicros(spans[0].id), root_us + 1);
  // Every non-root span closed and nested inside the root interval.
  for (const auto& s : spans) {
    EXPECT_GT(s.end_us, 0u) << s.name << " left open";
    EXPECT_LE(s.end_us, spans[0].end_us + 1) << s.name;
  }
}

TEST_F(EndToEndMetricsTest, FailedQueryCountsAsFailure) {
  query::QueryService service(graph_.get(), 1);
  Registry().ResetAllForTesting();
  auto rows = service.Run(query::Language::kCypher, "THIS IS NOT CYPHER",
                          query::RunOptions{});
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(Registry().GetCounter(metrics::kQueriesTotal)->Value(), 1u);
  EXPECT_EQ(Registry().GetCounter(metrics::kQueryFailuresTotal)->Value(), 1u);
}

TEST_F(EndToEndMetricsTest, PieRunFeedsSuperstepAndMessageCounters) {
  Registry().ResetAllForTesting();
  EdgeList g = datagen::GenerateUniform(100, 800, 11);
  EdgeCutPartitioner part(g.num_vertices, 3);
  auto frags = grape::Partition(g, part);
  const auto ranks = grape::RunPageRank(frags, 5, 0.85);
  EXPECT_EQ(ranks.size(), g.num_vertices);
  EXPECT_GE(Registry().GetCounter(metrics::kPieSuperstepsTotal)->Value(), 5u);
  EXPECT_GT(Registry().GetCounter(metrics::kMsgsSentTotal)->Value(), 0u);
  EXPECT_GT(Registry().GetCounter(metrics::kMsgBytesFlushedTotal)->Value(),
            0u);
  EXPECT_GT(
      Registry().GetHistogram(metrics::kPieSuperstepDurationUs)->TotalCount(),
      0u);
  // One compute and one barrier-wait observation per fragment per round:
  // 3 fragments, PEval plus 5 IncEval rounds.
  EXPECT_GE(Registry().GetHistogram(metrics::kPieComputeUs)->TotalCount(),
            3u * 6u);
  EXPECT_GE(Registry().GetHistogram(metrics::kPieBarrierWaitUs)->TotalCount(),
            3u * 5u);
}

}  // namespace
}  // namespace flex
