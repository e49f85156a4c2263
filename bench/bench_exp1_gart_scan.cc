// Exp-1 / Fig 7(c): read (edge-scan) throughput of the dynamic stores.
// Paper: GART ≈ 3.88x LiveGraph and ≈ 73.5% of static CSR.
// Ablation: GART-log writes every edge through AddEdge, so each one lives
// in the log rather than the CSR base, and shows what the base buys.

#include <cstdio>

#include "baselines/livegraph.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "datagen/registry.h"
#include "graph/csr.h"
#include "storage/gart/gart_store.h"
#include "storage/simple.h"

namespace flex {
namespace {

size_t ScanCsr(const Csr& csr) {
  size_t sum = 0;
  for (vid_t v = 0; v < csr.num_vertices(); ++v) {
    for (vid_t u : csr.Neighbors(v)) sum += u;
  }
  return sum;
}

size_t ScanGrin(const grin::GrinGraph& g) {
  size_t sum = 0;
  for (vid_t v = 0; v < g.NumVertices(); ++v) {
    g.VisitAdj(
        v, Direction::kOut, 0,
        [](void* raw, const grin::AdjChunk& chunk) {
          size_t local = 0;
          for (vid_t u : chunk.neighbors) local += u;
          *static_cast<size_t*>(raw) += local;
          return true;
        },
        &sum);
  }
  return sum;
}

// (Both dynamic stores are scanned through their GRIN snapshots so the
// comparison isolates the storage layout, not the access API.)

}  // namespace
}  // namespace flex

int main() {
  using namespace flex;
  bench::PrintHeader(
      "Exp-1 / Fig 7(c): edge-scan throughput, dynamic stores vs static CSR "
      "(millions of edges/s)");
  std::printf("%-8s %10s %10s %12s %12s | %10s %10s\n", "dataset", "CSR",
              "GART", "GART-log", "LiveGraph", "GART/LG", "GART/CSR");

  double ratio_lg_sum = 0.0, ratio_csr_sum = 0.0;
  int count = 0;
  for (const char* abbr : {"UK", "CF", "TW", "SNB-30"}) {
    auto graph = datagen::Generate(datagen::FindDataset(abbr).value());
    const double edges_m = static_cast<double>(graph.num_edges()) / 1e6;

    Csr csr = Csr::FromEdges(graph);
    auto data = storage::MakeSimpleGraphData(graph, false);
    auto gart = storage::GartStore::Build(data).value();
    auto gart_snap = gart->GetSnapshot();
    // Ablation: the same graph with every edge in the log.
    auto gart_log = storage::GartStore::Create(data.schema).value();
    for (vid_t v = 0; v < graph.num_vertices; ++v) {
      FLEX_CHECK(gart_log->AddVertex(0, static_cast<oid_t>(v), {}).ok());
    }
    for (const RawEdge& e : graph.edges) {
      FLEX_CHECK(gart_log
                     ->AddEdge(0, static_cast<oid_t>(e.src),
                               static_cast<oid_t>(e.dst))
                     .ok());
    }
    gart_log->CommitVersion();
    auto gart_log_snap = gart_log->GetSnapshot();
    auto live = baselines::LiveGraphStore::Build(graph);
    auto live_snap = live->GetSnapshot();

    const double csr_ms =
        bench::TimeMs([&] { bench::Sink(ScanCsr(csr)); }, 5);
    const double gart_ms =
        bench::TimeMs([&] { bench::Sink(ScanGrin(*gart_snap)); }, 5);
    const double gart_log_ms =
        bench::TimeMs([&] { bench::Sink(ScanGrin(*gart_log_snap)); }, 5);
    const double live_ms =
        bench::TimeMs([&] { bench::Sink(ScanGrin(*live_snap)); }, 5);

    const double csr_tp = edges_m / (csr_ms / 1e3);
    const double gart_tp = edges_m / (gart_ms / 1e3);
    const double gart_log_tp = edges_m / (gart_log_ms / 1e3);
    const double live_tp = edges_m / (live_ms / 1e3);
    ratio_lg_sum += gart_tp / live_tp;
    ratio_csr_sum += gart_tp / csr_tp;
    ++count;
    std::printf("%-8s %9.0fM %9.0fM %11.0fM %11.0fM | %9.2fx %9.1f%%\n",
                abbr, csr_tp, gart_tp, gart_log_tp, live_tp,
                gart_tp / live_tp, gart_tp / csr_tp * 100.0);
  }
  std::printf(
      "\navg GART vs LiveGraph: %.2fx (paper 3.88x); GART vs CSR: %.1f%% "
      "(paper 73.5%%)\n",
      ratio_lg_sum / count, ratio_csr_sum / count * 100.0);
  return 0;
}
