// Exp-3 / Fig 7(h)(i): Graphalytics PageRank and BFS — GRAPE vs the
// CPU-based comparators (PowerGraph-like GAS engine, Gemini-like
// push/pull engine), plus the message-aggregation ablation
// (grape-noagg = per-message sends instead of compact buffers).
// Paper: on average 25.1x vs PowerGraph and 2.3x vs Gemini.

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "baselines/analytics_baselines.h"
#include "bench/bench_util.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "datagen/generators.h"
#include "datagen/registry.h"
#include "grape/apps/pagerank.h"
#include "grape/apps/traversal.h"

namespace {

/// One sweep cell: mean wall time per run, and the shares of the workers'
/// time (fragments x wall) spent computing and blocked at barriers, read
/// from flex_pie_compute_us and flex_pie_barrier_wait_us over the timed
/// runs. The rest is flush and the superstep leaders' bookkeeping.
struct Cell {
  double ms = 0.0;
  double compute_share = 0.0;
  double wait_share = 0.0;
};

Cell TimeCell(const std::function<void()>& fn, int reps, size_t nfrag) {
  using namespace flex::metrics;
  Histogram* compute =
      MetricsRegistry::Instance().GetHistogram(kPieComputeUs);
  Histogram* wait = MetricsRegistry::Instance().GetHistogram(kPieBarrierWaitUs);
  fn();  // Warmup.
  const uint64_t compute0 = compute->SumMicros();
  const uint64_t wait0 = wait->SumMicros();
  flex::Timer timer;
  for (int r = 0; r < reps; ++r) fn();
  const double wall_us = timer.ElapsedMicros();
  const double worker_us = wall_us * static_cast<double>(nfrag);
  return {wall_us / 1e3 / reps,
          static_cast<double>(compute->SumMicros() - compute0) / worker_us,
          static_cast<double>(wait->SumMicros() - wait0) / worker_us};
}

/// Fragment-count scaling sweep: PageRank + BFS wall times at 1/2/4/8
/// fragments on FB0, G500 and flexbench analytics' graph shape (RMAT
/// scale 18, edge factor 16, fixed seed), where per-edge work outweighs
/// the fixed superstep costs. These are the numbers the perf ratchet
/// tracks — `--json=PATH` writes them in the BENCH_exp3_analytics.json
/// schema that tools/bench_compare.py diffs against the committed
/// baseline (>15% regression fails `tools/check.sh bench`).
void RunScalingSweep(const std::string& json_path) {
  using namespace flex;
  const int kPrIters = 10;
  const size_t kFragCounts[] = {1, 2, 4, 8};
  struct Dataset {
    const char* abbr;
    EdgeList graph;
  };
  std::vector<Dataset> datasets;
  for (const char* abbr : {"FB0", "G500"}) {
    datasets.push_back(
        {abbr, datagen::Generate(datagen::FindDataset(abbr).value())});
  }
  datasets.push_back(
      {"RMAT18", datagen::GenerateRmat({.scale = 18, .edge_factor = 16.0,
                                        .seed = 1})});

  bench::PrintHeader(
      "Exp-3 scaling: PageRank + BFS vs fragment count (superstep comm path)");
  std::printf("%-8s %6s %12s %9s %7s %12s %9s %7s\n", "dataset", "frags",
              "PageRank", "compute", "wait", "BFS", "compute", "wait");

  std::string json = "{\n  \"bench\": \"exp3_analytics\",\n  \"results\": [\n";
  bool first = true;
  for (const Dataset& d : datasets) {
    for (size_t nfrag : kFragCounts) {
      EdgeCutPartitioner part(d.graph.num_vertices,
                              static_cast<partition_t>(nfrag));
      auto frags = grape::Partition(d.graph, part);
      const Cell pr = TimeCell(
          [&] { grape::RunPageRank(frags, kPrIters); }, 2, nfrag);
      const Cell bfs = TimeCell([&] { grape::RunBfs(frags, 0); }, 2, nfrag);
      std::printf("%-8s %6zu %10.1fms %8.0f%% %6.0f%% %10.1fms %8.0f%% %6.0f%%\n",
                  d.abbr, nfrag, pr.ms, 100 * pr.compute_share,
                  100 * pr.wait_share, bfs.ms, 100 * bfs.compute_share,
                  100 * bfs.wait_share);
      char row[256];
      std::snprintf(row, sizeof(row),
                    "%s    {\"name\": \"pagerank_%s_f%zu\", \"ms\": %.2f},\n"
                    "    {\"name\": \"bfs_%s_f%zu\", \"ms\": %.2f}",
                    first ? "" : ",\n", d.abbr, nfrag, pr.ms, d.abbr, nfrag,
                    bfs.ms);
      json += row;
      first = false;
    }
  }
  json += "\n  ]\n}\n";

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("warning: cannot write %s\n", json_path.c_str());
    } else {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("scaling results: %s\n", json_path.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flex;
  bool scaling_only = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling-only") == 0) {
      scaling_only = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  if (scaling_only) {
    RunScalingSweep(json_path);
    return 0;
  }

  const size_t kWorkers = 4;
  // One fragment: this host is a single node, and GRAPE deploys one
  // fragment per node (the multi-fragment message path is exercised by
  // the ablation below and by the unit tests).
  const size_t kFragments = 1;
  const int kPrIters = 10;

  bench::PrintHeader(
      "Exp-3 / Fig 7(h): PageRank — GRAPE vs CPU comparators (ms)");
  std::printf("%-8s %10s %12s %12s | %9s %9s\n", "dataset", "GRAPE",
              "PowerGraph*", "Gemini*", "vs PG", "vs Gem");

  struct Totals {
    double pg = 0.0, gem = 0.0;
    int n = 0;
  } pr_tot, bfs_tot;

  const char* datasets[] = {"FB0", "G500", "WB", "UK", "CF", "TW"};
  std::vector<EdgeList> graphs;
  for (const char* abbr : datasets) {
    graphs.push_back(datagen::Generate(datagen::FindDataset(abbr).value()));
  }

  for (size_t d = 0; d < graphs.size(); ++d) {
    const EdgeList& g = graphs[d];
    EdgeCutPartitioner part(g.num_vertices, kFragments);
    auto frags = grape::Partition(g, part);
    baselines::GasEngine gas(g, kWorkers);
    baselines::PushPullEngine gem(g, kWorkers);

    const double grape_ms = bench::TimeMs(
        [&] { grape::RunPageRank(frags, kPrIters); }, 1);
    const double gas_ms = bench::TimeMs([&] { gas.PageRank(kPrIters); }, 1);
    const double gem_ms = bench::TimeMs([&] { gem.PageRank(kPrIters); }, 1);
    pr_tot.pg += gas_ms / grape_ms;
    pr_tot.gem += gem_ms / grape_ms;
    ++pr_tot.n;
    std::printf("%-8s %8.0fms %10.0fms %10.0fms | %8.1fx %8.1fx\n",
                datasets[d], grape_ms, gas_ms, gem_ms, gas_ms / grape_ms,
                gem_ms / grape_ms);
  }

  // Message-aggregation ablation (needs cross-fragment traffic): 4
  // fragments, compact varint buffers vs per-message sends.
  {
    const EdgeList& g = graphs[0];
    EdgeCutPartitioner part(g.num_vertices, 4);
    auto frags = grape::Partition(g, part);
    const double agg_ms =
        bench::TimeMs([&] { grape::RunPageRank(frags, kPrIters); }, 1);
    const double noagg_ms = bench::TimeMs(
        [&] {
          grape::RunPageRank(frags, kPrIters, 0.85,
                             grape::MessageMode::kPerMessage);
        },
        1);
    std::printf(
        "ablation (FB0, 4 fragments): aggregated buffers %.0fms vs "
        "per-message %.0fms (%s)\n",
        agg_ms, noagg_ms, bench::Ratio(noagg_ms, agg_ms).c_str());
  }

  bench::PrintHeader(
      "Exp-3 / Fig 7(i): BFS — GRAPE vs CPU comparators (ms)");
  std::printf("%-8s %10s %12s %12s | %9s %9s\n", "dataset", "GRAPE",
              "PowerGraph*", "Gemini*", "vs PG", "vs Gem");
  for (size_t d = 0; d < graphs.size(); ++d) {
    const EdgeList& g = graphs[d];
    EdgeCutPartitioner part(g.num_vertices, kFragments);
    auto frags = grape::Partition(g, part);
    baselines::GasEngine gas(g, kWorkers);
    baselines::PushPullEngine gem(g, kWorkers);

    const double grape_ms =
        bench::TimeMs([&] { grape::RunBfs(frags, 0); }, 2);
    const double gas_ms = bench::TimeMs([&] { gas.Bfs(0); }, 2);
    const double gem_ms = bench::TimeMs([&] { gem.Bfs(0); }, 2);
    bfs_tot.pg += gas_ms / grape_ms;
    bfs_tot.gem += gem_ms / grape_ms;
    ++bfs_tot.n;
    std::printf("%-8s %8.1fms %10.1fms %10.1fms | %8.1fx %8.1fx\n",
                datasets[d], grape_ms, gas_ms, gem_ms, gas_ms / grape_ms,
                gem_ms / grape_ms);
  }

  std::printf(
      "\n* PowerGraph/Gemini = architectural CPU stand-ins (DESIGN.md).\n"
      "avg: PageRank %.1fx vs PG, %.1fx vs Gemini; BFS %.1fx vs PG, "
      "%.1fx vs Gemini (paper avg 25.1x / 2.3x)\n",
      pr_tot.pg / pr_tot.n, pr_tot.gem / pr_tot.n, bfs_tot.pg / bfs_tot.n,
      bfs_tot.gem / bfs_tot.n);

  RunScalingSweep(json_path);
  return 0;
}
