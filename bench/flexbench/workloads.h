#ifndef FLEX_BENCH_FLEXBENCH_WORKLOADS_H_
#define FLEX_BENCH_FLEXBENCH_WORKLOADS_H_

#include "harness.h"

namespace flex::flexbench {

/// Each runs one workload end to end: set-up (median of several), warm-up,
/// the untraced measured window, the traced pass when config.trace is set,
/// and the output oracles. Results and failures go to `report`; spans go to
/// <out>/<workload>.trace.json.

/// Closed-loop SNB interactive mix through QueryService on HiActor (GART).
void RunInteractive(const Config& config, Report* report);
/// Closed-loop BI suite through QueryService on Gaia (Vineyard).
void RunBi(const Config& config, Report* report);
/// Open-loop WAL commits beside closed-loop pinned-snapshot reads (GART).
void RunHtap(const Config& config, Report* report);
/// PageRank, BFS and WCC through GRAPE on an RMAT graph.
void RunAnalytics(const Config& config, Report* report);

}  // namespace flex::flexbench

#endif  // FLEX_BENCH_FLEXBENCH_WORKLOADS_H_
