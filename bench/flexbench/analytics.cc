// The analytics workload: PageRank, BFS and WCC through GRAPE's
// RunPieChecked on an RMAT graph, with GAP-style result verification
// against a single-fragment run and serial references.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "datagen/generators.h"
#include "grape/apps/pagerank.h"
#include "grape/apps/traversal.h"
#include "grape/fragment.h"
#include "workloads.h"

namespace flex::flexbench {

namespace {

using Fragments = std::vector<std::unique_ptr<grape::Fragment>>;

constexpr int kPageRankIterations = 10;
constexpr double kDamping = 0.85;
constexpr vid_t kBfsSource = 0;
constexpr size_t kFragments = 4;

enum Kernel { kPageRank, kBfs, kWcc, kNumKernels };
const char* const kKernelNames[kNumKernels] = {"pagerank", "bfs", "wcc"};

struct AnalyticsState {
  EdgeList edges;
  // Fragments keep a pointer to their partitioner: declared first, so it is
  // destroyed last.
  std::unique_ptr<EdgeCutPartitioner> part_n;
  std::unique_ptr<EdgeCutPartitioner> part_1;
  Fragments frags_n;
  Fragments frags_1;
};

/// One kernel's output: ranks for PageRank, depths for BFS, labels for WCC.
struct KernelOutput {
  std::vector<double> ranks;
  std::vector<uint32_t> values;
};

/// Runs one app per fragment through RunPieChecked and gathers every
/// fragment's inner-vertex values into one global vector.
template <typename App, typename Msg, typename T, typename Get>
Result<std::vector<T>> RunApp(const Fragments& frags,
                              const std::function<std::unique_ptr<App>()>& make,
                              Get get, T init,
                              const grape::PieOptions& options) {
  std::vector<std::unique_ptr<grape::PieApp<Msg>>> apps;
  std::vector<const App*> typed;
  for (size_t i = 0; i < frags.size(); ++i) {
    std::unique_ptr<App> app = make();
    typed.push_back(app.get());
    apps.push_back(std::move(app));
  }
  Result<int> rounds = grape::RunPieChecked<Msg>(frags, apps, options);
  if (!rounds.ok()) return rounds.status();
  std::vector<T> merged(frags.empty() ? 0 : frags[0]->total_vertices(), init);
  for (size_t i = 0; i < frags.size(); ++i) {
    for (vid_t v : frags[i]->inner_vertices()) merged[v] = get(*typed[i], v);
  }
  return merged;
}

Result<KernelOutput> RunKernel(Kernel kernel, const Fragments& frags,
                               const grape::PieOptions& options) {
  KernelOutput out;
  switch (kernel) {
    case kPageRank: {
      auto ranks = RunApp<grape::PageRankApp, double, double>(
          frags,
          [] {
            return std::make_unique<grape::PageRankApp>(kPageRankIterations,
                                                        kDamping);
          },
          [](const grape::PageRankApp& app, vid_t v) { return app.ranks()[v]; },
          0.0, options);
      if (!ranks.ok()) return ranks.status();
      out.ranks = std::move(ranks).value();
      break;
    }
    case kBfs: {
      auto depths = RunApp<grape::BfsApp, uint32_t, uint32_t>(
          frags, [] { return std::make_unique<grape::BfsApp>(kBfsSource); },
          [](const grape::BfsApp& app, vid_t v) { return app.depths()[v]; },
          grape::kUnreachedDepth, options);
      if (!depths.ok()) return depths.status();
      out.values = std::move(depths).value();
      break;
    }
    default: {
      auto labels = RunApp<grape::WccApp, uint32_t, uint32_t>(
          frags, [] { return std::make_unique<grape::WccApp>(); },
          [](const grape::WccApp& app, vid_t v) { return app.labels()[v]; },
          kInvalidVid, options);
      if (!labels.ok()) return labels.status();
      out.values = std::move(labels).value();
      break;
    }
  }
  return out;
}

/// Serial BFS along out-edges: the reference for BfsApp's depths.
std::vector<uint32_t> SerialBfs(const EdgeList& g, vid_t source) {
  std::vector<size_t> offsets(g.num_vertices + 1, 0);
  for (const RawEdge& e : g.edges) ++offsets[e.src + 1];
  for (vid_t v = 0; v < g.num_vertices; ++v) offsets[v + 1] += offsets[v];
  std::vector<vid_t> targets(g.edges.size());
  std::vector<size_t> fill(offsets.begin(), offsets.end() - 1);
  for (const RawEdge& e : g.edges) targets[fill[e.src]++] = e.dst;

  std::vector<uint32_t> depth(g.num_vertices, grape::kUnreachedDepth);
  if (source >= g.num_vertices) return depth;
  std::vector<vid_t> frontier = {source};
  depth[source] = 0;
  for (uint32_t level = 1; !frontier.empty(); ++level) {
    std::vector<vid_t> next;
    for (vid_t v : frontier) {
      for (size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        if (depth[targets[i]] == grape::kUnreachedDepth) {
          depth[targets[i]] = level;
          next.push_back(targets[i]);
        }
      }
    }
    frontier.swap(next);
  }
  return depth;
}

/// Union-find over both edge directions, labelling every vertex with the
/// smallest vertex id of its component: the reference for WccApp.
std::vector<uint32_t> SerialWcc(const EdgeList& g) {
  std::vector<uint32_t> parent(g.num_vertices);
  for (vid_t v = 0; v < g.num_vertices; ++v) parent[v] = v;
  auto find = [&](uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (const RawEdge& e : g.edges) {
    const uint32_t a = find(e.src);
    const uint32_t b = find(e.dst);
    // Attaching the larger root under the smaller keeps every root the
    // minimum id of its component.
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  for (vid_t v = 0; v < g.num_vertices; ++v) parent[v] = find(v);
  return parent;
}

/// GAP-style verification of the window's last result of every kernel.
void Verify(const AnalyticsState& g, const KernelOutput (&last)[kNumKernels],
            const KernelOutput (&single)[kNumKernels], Report* report) {
  const std::vector<uint32_t> bfs = SerialBfs(g.edges, kBfsSource);
  const std::vector<uint32_t> wcc = SerialWcc(g.edges);
  report->Attempt(5);
  if (last[kBfs].values != single[kBfs].values) {
    report->Fail("bfs depths differ between 4 fragments and 1 fragment");
  }
  if (last[kBfs].values != bfs) {
    report->Fail("bfs depths differ from the serial reference");
  }
  if (last[kWcc].values != single[kWcc].values) {
    report->Fail("wcc labels differ between 4 fragments and 1 fragment");
  }
  if (last[kWcc].values != wcc) {
    report->Fail("wcc labels differ from the serial reference");
  }
  const std::vector<double>& ranks = last[kPageRank].ranks;
  const std::vector<double>& ranks_1 = single[kPageRank].ranks;
  double max_diff = ranks.size() == ranks_1.size() ? 0.0 : 1.0;
  double sum = 0.0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    sum += ranks[v];
    if (v < ranks_1.size()) {
      max_diff = std::max(max_diff, std::abs(ranks[v] - ranks_1[v]));
    }
  }
  if (max_diff > 1e-9 || std::abs(sum - 1.0) > 1e-6) {
    report->Fail("pagerank: max |f4 - f1| " + std::to_string(max_diff) +
                 ", sum " + std::to_string(sum));
  }
}

}  // namespace

void RunAnalytics(const Config& config, Report* report) {
  datagen::RmatParams params;
  params.scale = config.smoke ? 12 : 18;
  params.edge_factor = 16.0;
  params.seed = StreamSeed(config.seed, 2);

  auto state = MedianSetup<AnalyticsState>(
      config, report, [&](SetupPhases* phases) {
        auto s = std::make_unique<AnalyticsState>();
        Timer timer;
        s->edges = datagen::GenerateRmat(params);
        phases->generate_s = timer.ElapsedSeconds();
        timer.Restart();
        const vid_t n = s->edges.num_vertices;
        s->part_n = std::make_unique<EdgeCutPartitioner>(
            n, static_cast<partition_t>(kFragments));
        s->frags_n = grape::Partition(s->edges, *s->part_n);
        s->part_1 = std::make_unique<EdgeCutPartitioner>(n, 1);
        s->frags_1 = grape::Partition(s->edges, *s->part_1);
        phases->load_s = timer.ElapsedSeconds();
        return s;
      });

  KernelOutput last[kNumKernels];
  // One closed-loop "client" cycling PageRank -> BFS -> WCC at 4 fragments;
  // each step books its latency and keeps the output for verification.
  size_t next = 0;
  auto step = [&](LatencyBook* book, const grape::PieOptions& options) {
    const Kernel kernel = static_cast<Kernel>(next++ % kNumKernels);
    Timer timer;
    Result<KernelOutput> out = RunKernel(kernel, state->frags_n, options);
    const double ms = timer.ElapsedMillis();
    if (!out.ok()) {
      return Status(out.status().code(), std::string(kKernelNames[kernel]) +
                                             ": " + out.status().message());
    }
    if (book != nullptr) book->Add(kKernelNames[kernel], ms);
    last[kernel] = std::move(out).value();
    return Status::OK();
  };

  uint64_t errors = 0;
  std::string first_error;
  auto checked_step = [&](LatencyBook* book, const grape::PieOptions& options) {
    Status st = step(book, options);
    if (!st.ok() && errors++ == 0) first_error = st.ToString();
  };

  for (int k = 0; k < kNumKernels; ++k) checked_step(nullptr, {});  // Warm-up.

  next = 0;
  LatencyBook book;
  const CounterSnapshot before = CounterSnapshot::Take();
  const double window_s = RunClosedLoop(
      1, config.seconds, [&](size_t) { checked_step(&book, {}); });
  const CounterSnapshot delta = CounterSnapshot::Take().Since(before);
  report->Attempt(book.count() + errors);
  for (uint64_t i = 0; i < errors; ++i) report->Fail(first_error);
  ReportLatency(book, 90, book.count(), window_s, report);
  ReportCounters(delta, book.count(), report);

  // Single-fragment references: the oracle's second opinion, and the
  // fragment-scaling ratio (above 1 when 4 fragments beat 1).
  KernelOutput single[kNumKernels];
  double log_ratio = 0.0;
  for (int k = 0; k < kNumKernels; ++k) {
    Timer timer;
    Result<KernelOutput> out =
        RunKernel(static_cast<Kernel>(k), state->frags_1, {});
    const double ms = timer.ElapsedMillis();
    report->Attempt();
    if (!out.ok()) {
      report->Fail(std::string(kKernelNames[k]) + " at 1 fragment: " +
                   out.status().ToString());
      continue;
    }
    single[k] = std::move(out).value();
    auto f4 = book.by_type().find(kKernelNames[k]);
    if (f4 != book.by_type().end()) {
      log_ratio += std::log(ms / std::max(Percentile(f4->second, 50), 1e-9));
    }
  }
  report->PerLayer("pie.f1_over_f4", std::exp(log_ratio / double{kNumKernels}),
                   "ratio", kNumKernels);

  if (config.trace) {
    std::vector<TracedOp> ops;
    LatencyBook traced;
    for (int k = 0; k < kNumKernels; ++k) {
      TracedOp op = BeginTracedOp(kKernelNames[k], "bench.kernel");
      grape::PieOptions options;
      options.trace = op.trace.get();
      options.trace_parent = op.root;
      next = static_cast<size_t>(k);
      report->Attempt();
      Status st = step(&traced, options);
      if (!st.ok()) report->Fail(st.ToString());
      op.trace->EndSpan(op.root);
      ops.push_back(std::move(op));
    }
    ReportTracedPass(config, ops, traced, book, report);
  }
  Verify(*state, last, single, report);
}

}  // namespace flex::flexbench
