// Exp-1 / Fig 7(d): time to construct an in-memory graph from a GraphAr
// archive vs a CSV baseline. Paper: ~5x speedup across datasets.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "datagen/generators.h"
#include "datagen/registry.h"
#include "snb/snb.h"
#include "storage/graphar/csv.h"
#include "storage/graphar/graphar.h"
#include "storage/simple.h"
#include "storage/vineyard/vineyard_store.h"

int main() {
  using namespace flex;
  bench::PrintHeader(
      "Exp-1 / Fig 7(d): graph construction from GraphAr vs CSV");
  std::printf("%-10s %12s %12s %10s\n", "dataset", "CSV load", "GraphAr",
              "speedup");

  auto run_one = [&](const std::string& name, const PropertyGraphData& data) {
    const std::string csv_dir = "/tmp/exp1d_csv_" + name;
    const std::string ar_path = "/tmp/exp1d_" + name + ".gar";
    FLEX_CHECK(storage::graphar::WriteCsv(csv_dir, data).ok());
    FLEX_CHECK(storage::graphar::WriteGraphAr(ar_path, data).ok());

    const double csv_ms = bench::TimeMs(
        [&] {
          auto loaded =
              storage::graphar::ReadCsv(csv_dir, data.schema).value();
          auto store = storage::VineyardStore::Build(loaded).value();
          FLEX_CHECK(store->topology().num_vertices() > 0);
        },
        2);
    const double ar_ms = bench::TimeMs(
        [&] {
          auto reader = storage::graphar::GraphArReader::Open(ar_path).value();
          auto loaded = reader->ReadAll().value();
          auto store = storage::VineyardStore::Build(loaded).value();
          FLEX_CHECK(store->topology().num_vertices() > 0);
        },
        2);
    std::printf("%-10s %10.1fms %10.1fms %10s\n", name.c_str(), csv_ms,
                ar_ms, bench::Ratio(csv_ms, ar_ms).c_str());
  };

  // Weighted simple graphs (double property per edge) from Table 1.
  for (const char* abbr : {"FB0", "G500", "UK"}) {
    auto graph = datagen::Generate(datagen::FindDataset(abbr).value());
    datagen::AssignWeights(&graph, 9);
    run_one(abbr, storage::MakeSimpleGraphData(graph));
  }
  // A property-rich LPG (the SNB social network).
  snb::SnbConfig config;
  config.num_persons = 2000;
  snb::SnbStats stats;
  run_one("SNB", snb::GenerateSnb(config, &stats));
  return 0;
}
