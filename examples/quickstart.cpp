// Quickstart: assemble a tiny GraphScope Flex stack in ~80 lines.
//
//   1. Define a labeled property graph and load it into Vineyard.
//   2. Query it with Cypher (Gaia engine) and Gremlin.
//   3. Run PageRank on the GRAPE analytical engine.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "common/fault.h"
#include "grape/apps/pagerank.h"
#include "query/service.h"
#include "storage/vineyard/vineyard_store.h"

using namespace flex;

int main() {
  // Optional chaos: FLEX_FAULT='site=key:value;...' arms fault injection
  // (see src/common/fault.h); unset means zero-overhead disarmed sites.
  if (flex::Status st = flex::fault::Injector::Instance().ArmFromEnv();
      !st.ok()) {
    std::fprintf(stderr, "bad FLEX_FAULT: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- 1. A small e-commerce graph (Figure 2 of the paper).
  PropertyGraphData data;
  const label_t buyer =
      data.schema
          .AddVertexLabel("Buyer", {{"username", PropertyType::kString}})
          .value();
  const label_t item =
      data.schema.AddVertexLabel("Item", {{"price", PropertyType::kDouble}})
          .value();
  const label_t knows = data.schema.AddEdgeLabel("KNOWS", buyer, buyer, {})
                            .value();
  const label_t buy = data.schema.AddEdgeLabel("BUY", buyer, item, {}).value();

  data.AddVertex(buyer, 1, {PropertyValue("alice")});
  data.AddVertex(buyer, 2, {PropertyValue("bob")});
  data.AddVertex(buyer, 3, {PropertyValue("carol")});
  data.AddVertex(item, 100, {PropertyValue(9.99)});
  data.AddVertex(item, 101, {PropertyValue(3.50)});
  data.AddEdge(knows, 1, 2, {});
  data.AddEdge(knows, 2, 3, {});
  data.AddEdge(buy, 2, 100, {});
  data.AddEdge(buy, 2, 101, {});
  data.AddEdge(buy, 3, 101, {});

  auto store = storage::VineyardStore::Build(data).value();
  auto graph = store->GetGrinHandle();  // The GRIN view engines consume.
  std::printf("loaded %u vertices, %zu edges into Vineyard\n",
              graph->NumVertices(), store->topology().num_edges());

  // ---- 2. Query through the interactive stack. Transient failures
  // (e.g. an injected storage.read fault) are retried with backoff;
  // anything else surfaces as a clean Status instead of a crash.
  query::QueryService service(graph.get(), /*num_workers=*/2);
  query::RunOptions run_options;
  run_options.max_retries = 2;
  auto rows = service.Run(
      query::Language::kCypher,
      "MATCH (a:Buyer {username: 'alice'})-[:KNOWS]->(b:Buyer)"
      "-[:BUY]->(i:Item) RETURN i.price ORDER BY i.price",
      run_options);
  if (!rows.ok()) {
    std::fprintf(stderr, "Cypher query failed: %s\n",
                 rows.status().ToString().c_str());
    return 1;
  }
  std::printf("\nCypher: prices of items alice's friends bought:\n");
  for (const auto& line : query::RowsToStrings(rows.value())) {
    std::printf("  %s\n", line.c_str());
  }

  auto gremlin = service.Run(query::Language::kGremlin,
                             "g.V().hasLabel('Item').in('BUY').dedup()"
                             ".values('username')",
                             run_options);
  if (!gremlin.ok()) {
    std::fprintf(stderr, "Gremlin query failed: %s\n",
                 gremlin.status().ToString().c_str());
    return 1;
  }
  std::printf("\nGremlin: who bought anything:\n");
  for (const auto& line : query::RowsToStrings(gremlin.value())) {
    std::printf("  %s\n", line.c_str());
  }

  // ---- 3. Analytics on GRAPE (2 fragments standing in for 2 nodes).
  EdgeList simple;
  simple.num_vertices = graph->NumVertices();
  for (vid_t v = 0; v < graph->NumVertices(); ++v) {
    grin::ForEachAdj(*graph, v, Direction::kOut, knows,
                     [&](vid_t u, double, eid_t) {
                       simple.edges.push_back({v, u, 1.0});
                       return true;
                     });
  }
  EdgeCutPartitioner partitioner(simple.num_vertices, 2);
  auto fragments = grape::Partition(simple, partitioner);
  auto ranks = grape::RunPageRank(fragments, /*iterations=*/10);
  std::printf("\nPageRank over KNOWS:\n");
  for (vid_t v = 0; v < graph->NumVertices(); ++v) {
    if (graph->VertexLabelOf(v) != buyer) continue;
    std::printf("  %s: %.4f\n",
                graph->GetVertexProperty(v, 0).AsString().c_str(), ranks[v]);
  }
  return 0;
}
