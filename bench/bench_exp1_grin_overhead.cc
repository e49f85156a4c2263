// Exp-1 / Fig 7(b): overhead of the GRIN indirection layer vs native
// (storage-specific) access on Vineyard. The paper reports Flex-with-GRIN
// within 8% of the tightly-coupled original.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "datagen/registry.h"
#include "storage/simple.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex {
namespace {

/// Native: devirtualized span access straight into the store's topology.
double NativePageRank(const storage::CsrTopology& topo, int iters) {
  const vid_t n = topo.num_vertices();
  std::vector<double> rank(n, 1.0 / n), next(n);
  for (int it = 0; it < iters; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (vid_t v = 0; v < n; ++v) {
      const auto nbrs = topo.OutNeighbors(v, 0);
      if (nbrs.empty()) {
        dangling += rank[v];
        continue;
      }
      const double c = rank[v] / static_cast<double>(nbrs.size());
      for (vid_t u : nbrs) next[u] += c;
    }
    for (vid_t v = 0; v < n; ++v) {
      rank[v] = 0.15 / n + 0.85 * (next[v] + dangling / n);
    }
  }
  return rank[0];
}

/// GRIN with the array-like adjacency trait (Figure 4): the engine
/// negotiates kAdjacentListArray, obtains the backend's CSR handles once,
/// and scans them directly — how a real engine binds to this backend.
double GrinPageRank(const grin::GrinGraph& g, int iters) {
  FLEX_CHECK(g.RequireTraits(grin::kAdjacentListArray).ok());
  const vid_t n = g.NumVertices();
  const auto offsets = g.AdjacencyOffsets(0, Direction::kOut);
  const auto nbrs = g.AdjacencyNeighbors(0, Direction::kOut);
  std::vector<double> rank(n, 1.0 / n), next(n);
  for (int it = 0; it < iters; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (vid_t v = 0; v < n; ++v) {
      const eid_t begin = offsets[v], end = offsets[v + 1];
      if (begin == end) {
        dangling += rank[v];
        continue;
      }
      const double c = rank[v] / static_cast<double>(end - begin);
      for (eid_t e = begin; e < end; ++e) next[nbrs[e]] += c;
    }
    for (vid_t v = 0; v < n; ++v) {
      rank[v] = 0.15 / n + 0.85 * (next[v] + dangling / n);
    }
  }
  return rank[0];
}

size_t NativeEdgeScan(const storage::CsrTopology& topo) {
  size_t sum = 0;
  for (vid_t v = 0; v < topo.num_vertices(); ++v) {
    for (vid_t u : topo.OutNeighbors(v, 0)) sum += u;
  }
  return sum;
}

size_t GrinEdgeScan(const grin::GrinGraph& g) {
  const auto nbrs = g.AdjacencyNeighbors(0, Direction::kOut);
  size_t sum = 0;
  for (vid_t u : nbrs) sum += u;
  return sum;
}

size_t NativeTwoHop(const storage::CsrTopology& topo, vid_t probes) {
  size_t count = 0;
  for (vid_t v = 0; v < probes; ++v) {
    for (vid_t u : topo.OutNeighbors(v, 0)) {
      count += topo.OutNeighbors(u, 0).size();
    }
  }
  return count;
}

size_t GrinTwoHop(const grin::GrinGraph& g, vid_t probes) {
  const auto offsets = g.AdjacencyOffsets(0, Direction::kOut);
  const auto nbrs = g.AdjacencyNeighbors(0, Direction::kOut);
  size_t count = 0;
  for (vid_t v = 0; v < probes; ++v) {
    for (eid_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      const vid_t u = nbrs[e];
      count += offsets[u + 1] - offsets[u];
    }
  }
  return count;
}

}  // namespace
}  // namespace flex

int main() {
  using namespace flex;
  bench::PrintHeader("Exp-1 / Fig 7(b): GRIN overhead vs native (Vineyard)");

  auto graph = datagen::Generate(datagen::FindDataset("TW").value());
  auto store = storage::VineyardStore::Build(
                   storage::MakeSimpleGraphData(graph, false))
                   .value();
  const storage::CsrTopology& topo = store->topology();
  auto grin = store->GetGrinHandle();

  struct Row {
    const char* app;
    double native_ms;
    double grin_ms;
  };
  std::vector<Row> rows;
  rows.push_back(
      {"edge-scan",
       bench::TimeMs([&] { bench::Sink(NativeEdgeScan(topo)); }, 5),
       bench::TimeMs([&] { bench::Sink(GrinEdgeScan(*grin)); }, 5)});
  rows.push_back(
      {"pagerank(5it)",
       bench::TimeMs([&] { bench::Sink(NativePageRank(topo, 5)); }, 7),
       bench::TimeMs([&] { bench::Sink(GrinPageRank(*grin, 5)); }, 7)});
  rows.push_back(
      {"two-hop",
       bench::TimeMs([&] { bench::Sink(NativeTwoHop(topo, 2000)); }, 5),
       bench::TimeMs([&] { bench::Sink(GrinTwoHop(*grin, 2000)); }, 5)});

  std::printf("%-14s %12s %12s %10s\n", "workload", "native", "GRIN",
              "overhead");
  double worst = 0.0;
  for (const Row& row : rows) {
    const double overhead =
        (row.grin_ms - row.native_ms) / row.native_ms * 100.0;
    worst = std::max(worst, overhead);
    std::printf("%-14s %10.2fms %10.2fms %+9.1f%%\n", row.app, row.native_ms,
                row.grin_ms, overhead);
  }
  std::printf("\nworst-case GRIN overhead: %.1f%% (paper: <= 8%%)\n", worst);
  return 0;
}
