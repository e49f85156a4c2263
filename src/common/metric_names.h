#ifndef FLEX_COMMON_METRIC_NAMES_H_
#define FLEX_COMMON_METRIC_NAMES_H_

#include <cstddef>
#include <span>

namespace flex::metrics {

/// The stack's standard metric names, in one place so call sites cannot
/// typo a name into a second series and so the exposition snapshot test
/// can drift-guard the full set (tests/metrics_test.cc fails when a name
/// is added here without updating its expected list, and vice versa).
///
/// Naming convention (DESIGN.md §Observability): `flex_<layer>_<what>`,
/// `_total` suffix for counters, `_us` suffix for microsecond histograms
/// (value histograms use a `_per_<x>` distribution name instead).

// --- query layer (QueryService) ---
inline constexpr char kQueriesTotal[] = "flex_queries_total";
inline constexpr char kQueryFailuresTotal[] = "flex_query_failures_total";
inline constexpr char kQueryRetriesTotal[] = "flex_query_retries_total";
inline constexpr char kQueryLatencyUs[] = "flex_query_latency_us";
inline constexpr char kQueryBatchesTotal[] = "flex_query_batches_total";
inline constexpr char kQueryRowsPerBatch[] = "flex_query_rows_per_batch";

// --- serving front (plan cache + tenant admission) ---
inline constexpr char kPlanCacheHitsTotal[] = "flex_plan_cache_hits_total";
inline constexpr char kPlanCacheMissesTotal[] = "flex_plan_cache_misses_total";
inline constexpr char kPlanCacheEvictionsTotal[] =
    "flex_plan_cache_evictions_total";
inline constexpr char kPlanCacheInvalidationsTotal[] =
    "flex_plan_cache_invalidations_total";
inline constexpr char kTenantRejectionsTotal[] =
    "flex_tenant_rejections_total";

// --- HiActor (OLTP engine) ---
inline constexpr char kQueriesShedTotal[] = "flex_queries_shed_total";
inline constexpr char kHiactorTasksCompletedTotal[] =
    "flex_hiactor_tasks_completed_total";
inline constexpr char kHiactorTasksStolenTotal[] =
    "flex_hiactor_tasks_stolen_total";
inline constexpr char kHiactorPendingTasks[] = "flex_hiactor_pending_tasks";

// --- GRAPE / PIE (OLAP engine) ---
inline constexpr char kPieSuperstepsTotal[] = "flex_pie_supersteps_total";
inline constexpr char kPieRecoveriesTotal[] = "flex_pie_recoveries_total";
inline constexpr char kPieSuperstepDurationUs[] =
    "flex_pie_superstep_duration_us";
inline constexpr char kPieComputeUs[] = "flex_pie_compute_us";
inline constexpr char kPieBarrierWaitUs[] = "flex_pie_barrier_wait_us";

// --- MessageManager ---
inline constexpr char kMsgsSentTotal[] = "flex_msgs_sent_total";
inline constexpr char kMsgBytesFlushedTotal[] = "flex_msg_bytes_flushed_total";
inline constexpr char kMsgRetransmitsTotal[] = "flex_msg_retransmits_total";
inline constexpr char kFlushParallelShardsTotal[] =
    "flex_flush_parallel_shards_total";
inline constexpr char kMsgBytesCopyAvoidedTotal[] =
    "flex_msg_bytes_copy_avoided_total";

// --- fused execution (pushdown pipelines, interpreter + GRIN) ---
inline constexpr char kFusedScansTotal[] = "flex_fused_scans_total";
inline constexpr char kFusedExpandsTotal[] = "flex_fused_expands_total";
inline constexpr char kFusedRowsPrunedTotal[] =
    "flex_fused_rows_pruned_total";

// --- storage (GRIN read paths, all backends) ---
inline constexpr char kStorageScansTotal[] = "flex_storage_scans_total";
inline constexpr char kStorageAdjVisitsTotal[] =
    "flex_storage_adj_visits_total";
inline constexpr char kStorageIndexLookupsTotal[] =
    "flex_storage_index_lookups_total";
inline constexpr char kStorageSnapshotsPinnedTotal[] =
    "flex_storage_snapshots_pinned_total";

// --- storage write path (WAL + recovery) ---
inline constexpr char kWalRecordsAppendedTotal[] =
    "flex_wal_records_appended_total";
inline constexpr char kWalSyncsTotal[] = "flex_wal_syncs_total";
inline constexpr char kWalBatchesCommittedTotal[] =
    "flex_wal_batches_committed_total";
inline constexpr char kWalReplayRecordsTotal[] =
    "flex_wal_replay_records_total";
inline constexpr char kWalReplayDuplicatesSkippedTotal[] =
    "flex_wal_replay_duplicates_skipped_total";
inline constexpr char kWalTornTailsTruncatedTotal[] =
    "flex_wal_torn_tails_truncated_total";

// --- chaos harness ---
inline constexpr char kFaultsFiredTotal[] = "flex_faults_fired_total";

/// One standard metric's registration info.
struct MetricSpec {
  const char* name;
  const char* kind;  ///< "counter" | "gauge" | "histogram"
  const char* help;
};

/// Every standard stack metric, sorted by name. The Render() exposition
/// uses `help` for `# HELP` lines; tests use the list as the drift guard.
std::span<const MetricSpec> AllStackMetrics();

/// Looks up a standard metric's spec by name (nullptr if non-standard).
const MetricSpec* FindStackMetric(const char* name);

/// Registers every standard metric with the process registry so a Render()
/// (or snapshot test) sees the full exposition even before a workload has
/// touched every code path.
void TouchStandardMetrics();

}  // namespace flex::metrics

#endif  // FLEX_COMMON_METRIC_NAMES_H_
