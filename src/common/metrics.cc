#include "common/metrics.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "common/metric_names.h"

namespace flex::metrics {

size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return slot;
}

MetricsRegistry& MetricsRegistry::Instance() {
  // Intentionally leaked: instrumented code may run during static
  // destruction (engine threads joining), so the registry must outlive
  // every other object in the process.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

MetricsRegistry::Entry MetricsRegistry::GetOrCreate(const std::string& name,
                                                    Kind kind) {
  MutexLock lock(&mu_);
  for (auto& [entry_name, entry] : entries_) {
    if (entry_name == name) {
      FLEX_CHECK(entry.kind == kind);  // One kind per name, forever.
      return entry;
    }
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry.counter = new Counter();
      break;
    case Kind::kGauge:
      entry.gauge = new Gauge();
      break;
    case Kind::kHistogram:
      entry.histogram = new Histogram();
      break;
  }
  entries_.emplace_back(name, entry);
  return entry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return GetOrCreate(name, Kind::kCounter).counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return GetOrCreate(name, Kind::kGauge).gauge;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetOrCreate(name, Kind::kHistogram).histogram;
}

namespace {

void RenderHistogram(std::ostringstream* out, const std::string& name,
                     const Histogram& hist) {
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kLatencyBucketBoundsUs.size(); ++i) {
    cumulative += hist.BucketCount(i);
    *out << name << "_bucket{le=\"" << kLatencyBucketBoundsUs[i] << "\"} "
         << cumulative << "\n";
  }
  cumulative += hist.BucketCount(kLatencyBucketBoundsUs.size());
  *out << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
  *out << name << "_sum " << hist.SumMicros() << "\n";
  *out << name << "_count " << cumulative << "\n";
}

}  // namespace

std::string MetricsRegistry::Render() const {
  // Snapshot (name, entry) pairs under the lock, then render sorted by
  // name so the exposition is deterministic regardless of registration
  // order. Entry pointers stay valid after unlock (never freed).
  std::vector<std::pair<std::string, Entry>> snapshot;
  {
    MutexLock lock(&mu_);
    snapshot = entries_;
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::ostringstream out;
  for (const auto& [name, entry] : snapshot) {
    const MetricSpec* spec = FindStackMetric(name.c_str());
    if (spec != nullptr) {
      out << "# HELP " << name << " " << spec->help << "\n";
    }
    switch (entry.kind) {
      case Kind::kCounter:
        out << "# TYPE " << name << " counter\n";
        out << name << " " << entry.counter->Value() << "\n";
        break;
      case Kind::kGauge:
        out << "# TYPE " << name << " gauge\n";
        out << name << " " << entry.gauge->Value() << "\n";
        break;
      case Kind::kHistogram:
        out << "# TYPE " << name << " histogram\n";
        RenderHistogram(&out, name, *entry.histogram);
        break;
    }
  }
  return out.str();
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::vector<std::string> names;
  {
    MutexLock lock(&mu_);
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void MetricsRegistry::ResetAllForTesting() {
  MutexLock lock(&mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->ResetForTesting();
        break;
      case Kind::kGauge:
        entry.gauge->ResetForTesting();
        break;
      case Kind::kHistogram:
        entry.histogram->ResetForTesting();
        break;
    }
  }
}

namespace {

/// Sorted by name; keep in lockstep with the constants in metric_names.h
/// and the expected-names list in tests/metrics_test.cc (the drift guard).
constexpr MetricSpec kStackMetrics[] = {
    {kFaultsFiredTotal, "counter",
     "Fault-injection sites that fired (common/fault.h chaos harness)."},
    {kFlushParallelShardsTotal, "counter",
     "Per-destination flush shards framed at superstep boundaries "
     "(FlushShard calls that produced at least one frame)."},
    {kFusedExpandsTotal, "counter",
     "FUSED_EXPAND operator executions (predicate pushed into the batched "
     "adjacency visit)."},
    {kFusedRowsPrunedTotal, "counter",
     "Rows rejected by a pushed-down filter inside a storage scan or "
     "adjacency visit, before materialization."},
    {kFusedScansTotal, "counter",
     "FUSED_SCAN operator executions (predicate/projection pushed into "
     "the storage scan loop)."},
    {kHiactorPendingTasks, "gauge",
     "Tasks currently queued across HiActor shards."},
    {kHiactorTasksCompletedTotal, "counter",
     "Tasks resolved by HiActor shard workers (includes rejected-at-dispatch)."},
    {kHiactorTasksStolenTotal, "counter",
     "Tasks a HiActor worker stole from a peer shard's queue."},
    {kMsgBytesCopyAvoidedTotal, "counter",
     "Payload bytes delivered zero-copy (frame spans into retained "
     "buffers) that the pre-descriptor flush path would have copied."},
    {kMsgBytesFlushedTotal, "counter",
     "Wire-equivalent framed bytes published at superstep boundaries."},
    {kMsgRetransmitsTotal, "counter",
     "Damaged frames repaired by retained-payload retransmission."},
    {kMsgsSentTotal, "counter",
     "Messages handed to MessageManager::Send across all fragments."},
    {kPieBarrierWaitUs, "histogram",
     "Time one fragment worker spent blocked in one superstep's barrier "
     "awaits, microseconds."},
    {kPieComputeUs, "histogram",
     "One fragment's PEval or IncEval in one superstep, microseconds."},
    {kPieRecoveriesTotal, "counter",
     "Fail-stopped fragment computes re-executed by the superstep leader."},
    {kPieSuperstepDurationUs, "histogram",
     "Wall time of one PIE superstep (barrier to barrier), microseconds."},
    {kPieSuperstepsTotal, "counter",
     "PIE supersteps executed (PEval round included)."},
    {kPlanCacheEvictionsTotal, "counter",
     "Plans evicted from the serving plan cache (per-shard LRU)."},
    {kPlanCacheHitsTotal, "counter",
     "QueryService compiles skipped by a plan-cache hit."},
    {kPlanCacheInvalidationsTotal, "counter",
     "Whole-cache invalidations (RegisterProcedure / catalog change)."},
    {kPlanCacheMissesTotal, "counter",
     "Plan-cache lookups that fell through to a cold compile."},
    {kQueriesShedTotal, "counter",
     "Submissions shed by HiActor bounded-queue admission control."},
    {kQueriesTotal, "counter", "Queries accepted by QueryService::Run."},
    {kQueryBatchesTotal, "counter",
     "Columnar batches emitted by query operators."},
    {kQueryFailuresTotal, "counter",
     "Queries that returned a non-OK status after all retries."},
    {kQueryLatencyUs, "histogram",
     "End-to-end QueryService::Run latency (compile + execute), microseconds."},
    {kQueryRetriesTotal, "counter",
     "Transient-failure retry attempts made by QueryService::Run."},
    {kQueryRowsPerBatch, "histogram",
     "Selected rows per emitted columnar batch (value histogram over the "
     "latency buckets; a batch of n rows observes n)."},
    {kStorageAdjVisitsTotal, "counter",
     "Adjacency-list reads (GRIN VisitAdj) across all storage backends."},
    {kStorageIndexLookupsTotal, "counter",
     "Oid-index lookups (GRIN FindVertex) across all storage backends."},
    {kStorageScansTotal, "counter",
     "Vertex scan windows across all storage backends: one per GRIN "
     "VisitVertices / VisitVerticesFiltered call, i.e. one per scanned "
     "window of each label."},
    {kStorageSnapshotsPinnedTotal, "counter",
     "GART MVCC snapshots taken (GartStore::GetSnapshot, which "
     "DurableStore::PinSnapshot calls)."},
    {kTenantRejectionsTotal, "counter",
     "Queries rejected at admission because the tenant's concurrency "
     "quota was exhausted (kResourceExhausted)."},
    {kWalBatchesCommittedTotal, "counter",
     "Mutation batches group-committed (one write+fsync) to the WAL."},
    {kWalRecordsAppendedTotal, "counter",
     "Mutation records appended to the WAL (commit records excluded)."},
    {kWalReplayDuplicatesSkippedTotal, "counter",
     "Already-committed records skipped by idempotent WAL replay."},
    {kWalReplayRecordsTotal, "counter",
     "Committed mutation records re-applied during WAL replay."},
    {kWalSyncsTotal, "counter", "Successful WAL fsync barriers."},
    {kWalTornTailsTruncatedTotal, "counter",
     "Torn WAL tails detected by replay and truncated on reopen."},
};

}  // namespace

std::span<const MetricSpec> AllStackMetrics() { return kStackMetrics; }

const MetricSpec* FindStackMetric(const char* name) {
  for (const MetricSpec& spec : kStackMetrics) {
    if (std::strcmp(spec.name, name) == 0) return &spec;
  }
  return nullptr;
}

void TouchStandardMetrics() {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  for (const MetricSpec& spec : kStackMetrics) {
    if (std::strcmp(spec.kind, "counter") == 0) {
      registry.GetCounter(spec.name);
    } else if (std::strcmp(spec.kind, "gauge") == 0) {
      registry.GetGauge(spec.name);
    } else {
      registry.GetHistogram(spec.name);
    }
  }
}

}  // namespace flex::metrics
