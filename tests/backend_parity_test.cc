// Cross-backend parity: the same generated graph served through GRIN by
// the four storage backends (simple CSR, vineyard, GART, GraphAr) and the
// LiveGraph baseline must yield bit-identical analytics results, each checked
// against the edge list itself (three backends share one CSR builder, so
// none of them can be the reference). Vid numbering is a backend-private
// detail, so every traversal below goes through the index trait
// (oid -> vid -> oid) and normalizes adjacency to sorted oid lists; after
// that, PageRank runs the exact same FP operations in the exact same order
// for every backend, making EXPECT_EQ on doubles the honest comparison,
// not an approximation. The edge-identity tests hold every backend to
// GRIN's one-id-per-edge contract, the scan-window tests to its
// position-window contract, and GRIN's one filtered scan and filtered
// expansion, on each property backend, to a scalar reference written
// here (VisitVertices / VisitAdj + GetVertexProperty + MatchesCondition).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/livegraph.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "datagen/generators.h"
#include "grin/grin.h"
#include "query/service.h"
#include "storage/gart/gart_store.h"
#include "storage/graphar/graphar.h"
#include "storage/simple.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex {
namespace {

/// One backend under test: a GRIN handle plus whatever owning objects keep
/// it valid.
struct Backend {
  std::string name;
  const grin::GrinGraph* graph = nullptr;
  std::shared_ptr<void> owner;  ///< Keeps store (+ snapshot) alive.
};

/// The shared input graph. Duplicate (src, dst) pairs are removed so
/// backends that may normalize multi-edges cannot disagree with those
/// that keep them.
EdgeList ParityGraph() {
  EdgeList list = datagen::GenerateUniform(120, 900, 77);
  std::sort(list.edges.begin(), list.edges.end(),
            [](const RawEdge& a, const RawEdge& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  list.edges.erase(std::unique(list.edges.begin(), list.edges.end(),
                               [](const RawEdge& a, const RawEdge& b) {
                                 return a.src == b.src && a.dst == b.dst;
                               }),
                   list.edges.end());
  return list;
}

/// `data` served by the three property backends: Vineyard, a GART
/// snapshot and a GraphAr direct view written with `chunk_size`.
std::vector<Backend> PropertyBackends(
    const PropertyGraphData& data,
    size_t chunk_size = storage::graphar::kDefaultChunkSize) {
  std::vector<Backend> backends;
  {
    std::shared_ptr<storage::VineyardStore> store =
        std::move(storage::VineyardStore::Build(data).value());
    std::shared_ptr<grin::GrinGraph> g = store->GetGrinHandle();
    backends.push_back(
        {"vineyard", g.get(),
         std::make_shared<std::pair<decltype(store), decltype(g)>>(store, g)});
  }
  {
    std::shared_ptr<storage::GartStore> store =
        std::move(storage::GartStore::Build(data).value());
    std::shared_ptr<grin::GrinGraph> g = store->GetSnapshot();
    backends.push_back(
        {"gart", g.get(),
         std::make_shared<std::pair<decltype(store), decltype(g)>>(store, g)});
  }
  {
    const std::string path = testing::TempDir() + "backend_properties.gar";
    EXPECT_TRUE(storage::graphar::WriteGraphAr(path, data, chunk_size).ok());
    std::shared_ptr<storage::graphar::GraphArReader> reader =
        std::move(storage::graphar::GraphArReader::Open(path).value());
    std::shared_ptr<grin::GrinGraph> g =
        std::move(reader->OpenDirect().value());
    backends.push_back(
        {"graphar", g.get(),
         std::make_shared<std::pair<decltype(reader), decltype(g)>>(reader,
                                                                    g)});
  }
  return backends;
}

/// All five backends over `list`: simple, the three property backends
/// and LiveGraph.
std::vector<Backend> BuildBackends(const EdgeList& list) {
  std::vector<Backend> backends;
  {
    auto store = std::make_shared<storage::SimpleCsrStore>(list);
    std::shared_ptr<grin::GrinGraph> g = store->GetGrinHandle();
    backends.push_back(
        {"simple", g.get(),
         std::make_shared<std::pair<decltype(store), decltype(g)>>(store, g)});
  }
  for (Backend& b : PropertyBackends(
           storage::MakeSimpleGraphData(list, /*with_weights=*/false))) {
    backends.push_back(std::move(b));
  }
  {
    std::shared_ptr<baselines::LiveGraphStore> store =
        baselines::LiveGraphStore::Build(list);
    std::shared_ptr<grin::GrinGraph> g = store->GetSnapshot();
    backends.push_back(
        {"livegraph", g.get(),
         std::make_shared<std::pair<decltype(store), decltype(g)>>(store, g)});
  }
  return backends;
}

/// Out-adjacency normalized to sorted oid lists, indexed by oid.
std::vector<std::vector<oid_t>> OidAdjacency(const grin::GrinGraph& g,
                                             oid_t n) {
  std::vector<std::vector<oid_t>> out(static_cast<size_t>(n));
  for (oid_t o = 0; o < n; ++o) {
    Result<vid_t> v = g.FindVertex(0, o);
    EXPECT_TRUE(v.ok()) << g.backend_name() << " oid " << o;
    grin::ForEachAdj(g, v.value(), Direction::kOut, 0,
                     [&](vid_t nbr, double, eid_t) {
                       out[static_cast<size_t>(o)].push_back(g.GetOid(nbr));
                     });
    std::sort(out[static_cast<size_t>(o)].begin(),
              out[static_cast<size_t>(o)].end());
  }
  return out;
}

/// The edge list's own out-adjacency as sorted oid lists (oid == index).
std::vector<std::vector<oid_t>> ListAdjacency(const EdgeList& list) {
  std::vector<std::vector<oid_t>> out(list.num_vertices);
  for (const RawEdge& e : list.edges) out[e.src].push_back(e.dst);
  for (auto& nbrs : out) std::sort(nbrs.begin(), nbrs.end());
  return out;
}

/// Textbook PageRank over pre-normalized adjacency. Identical inputs →
/// identical FP operation order → bit-identical output.
std::vector<double> PageRank(const std::vector<std::vector<oid_t>>& out,
                             int iters) {
  const size_t n = out.size();
  const double kDamping = 0.85;
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int it = 0; it < iters; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (size_t o = 0; o < n; ++o) {
      if (out[o].empty()) {
        dangling += rank[o];
        continue;
      }
      const double share = rank[o] / static_cast<double>(out[o].size());
      for (oid_t d : out[o]) next[static_cast<size_t>(d)] += share;
    }
    const double base =
        (1.0 - kDamping + kDamping * dangling) / static_cast<double>(n);
    for (size_t o = 0; o < n; ++o) rank[o] = base + kDamping * next[o];
  }
  return rank;
}

/// Sorted multiset of 2-hop out-neighbor oids of `source`, walked through
/// VisitAdj live (not the cached lists) to exercise each backend's
/// adjacency path twice.
std::vector<oid_t> TwoHop(const grin::GrinGraph& g, oid_t source) {
  std::vector<oid_t> result;
  Result<vid_t> v = g.FindVertex(0, source);
  EXPECT_TRUE(v.ok());
  std::vector<vid_t> hop1;
  grin::ForEachAdj(g, v.value(), Direction::kOut, 0,
                   [&](vid_t nbr, double, eid_t) { hop1.push_back(nbr); });
  for (vid_t h : hop1) {
    grin::ForEachAdj(g, h, Direction::kOut, 0, [&](vid_t nbr, double, eid_t) {
      result.push_back(g.GetOid(nbr));
    });
  }
  std::sort(result.begin(), result.end());
  return result;
}

/// TwoHop computed on the edge list's adjacency.
std::vector<oid_t> ListTwoHop(const std::vector<std::vector<oid_t>>& adj,
                              oid_t source) {
  std::vector<oid_t> result;
  for (const oid_t h : adj[static_cast<size_t>(source)]) {
    const auto& next = adj[static_cast<size_t>(h)];
    result.insert(result.end(), next.begin(), next.end());
  }
  std::sort(result.begin(), result.end());
  return result;
}

TEST(BackendParityTest, TopologyAgreesAcrossAllBackends) {
  const EdgeList list = ParityGraph();
  const auto backends = BuildBackends(list);
  ASSERT_EQ(backends.size(), 5u);
  for (const Backend& b : backends) {
    EXPECT_EQ(b.graph->NumVertices(), list.num_vertices) << b.name;
    EXPECT_EQ(b.graph->NumVerticesOfLabel(0), list.num_vertices) << b.name;
  }
  const auto reference = ListAdjacency(list);
  size_t total_edges = 0;
  for (const auto& nbrs : reference) total_edges += nbrs.size();
  EXPECT_EQ(total_edges, list.num_edges());
  for (size_t i = 0; i < backends.size(); ++i) {
    const auto adj = OidAdjacency(*backends[i].graph, list.num_vertices);
    EXPECT_EQ(adj, reference) << backends[i].name << " vs the edge list";
  }
  // Degree through the dedicated accessor matches the visited adjacency.
  for (const Backend& b : backends) {
    for (oid_t o = 0; o < list.num_vertices; o += 7) {
      const vid_t v = b.graph->FindVertex(0, o).value();
      EXPECT_EQ(b.graph->Degree(v, Direction::kOut, 0),
                reference[static_cast<size_t>(o)].size())
          << b.name << " oid " << o;
    }
  }
}

TEST(BackendParityTest, PageRankIsBitIdenticalAcrossBackends) {
  const EdgeList list = ParityGraph();
  const auto backends = BuildBackends(list);
  const int kIters = 20;
  const std::vector<double> reference =
      PageRank(ListAdjacency(list), kIters);
  double sum = 0.0;
  for (double r : reference) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-9);  // Ranks stay a distribution.
  for (size_t i = 0; i < backends.size(); ++i) {
    const std::vector<double> ranks =
        PageRank(OidAdjacency(*backends[i].graph, list.num_vertices), kIters);
    ASSERT_EQ(ranks.size(), reference.size());
    for (size_t o = 0; o < ranks.size(); ++o) {
      // Bit-identical, not approximately equal: same data, same ops.
      EXPECT_EQ(ranks[o], reference[o])
          << backends[i].name << " diverges at oid " << o;
    }
  }
}

TEST(BackendParityTest, TwoHopNeighborhoodsAgreeAcrossBackends) {
  const EdgeList list = ParityGraph();
  const auto backends = BuildBackends(list);
  const auto adjacency = ListAdjacency(list);
  for (oid_t source : {oid_t{0}, oid_t{13}, oid_t{59}, oid_t{118}}) {
    const auto reference = ListTwoHop(adjacency, source);
    for (size_t i = 0; i < backends.size(); ++i) {
      EXPECT_EQ(TwoHop(*backends[i].graph, source), reference)
          << backends[i].name << " source " << source;
    }
  }
}

// ------------------------------------------------ GRIN edge identity

/// (src oid, dst oid, edge id) of every edge as its `dir` adjacency
/// reports it, sorted.
std::vector<std::tuple<oid_t, oid_t, eid_t>> EdgesSeenFrom(
    const grin::GrinGraph& g, oid_t n, Direction dir) {
  std::vector<std::tuple<oid_t, oid_t, eid_t>> edges;
  for (oid_t o = 0; o < n; ++o) {
    grin::ForEachAdj(g, g.FindVertex(0, o).value(), dir, 0,
                     [&](vid_t nbr, double, eid_t e) {
                       const oid_t other = g.GetOid(nbr);
                       edges.emplace_back(dir == Direction::kOut ? o : other,
                                          dir == Direction::kOut ? other : o,
                                          e);
                     });
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

TEST(BackendParityTest, EveryEdgeHasOneIdFromEitherEnd) {
  const EdgeList list = ParityGraph();
  for (const Backend& b : BuildBackends(list)) {
    SCOPED_TRACE(b.name);
    const auto out = EdgesSeenFrom(*b.graph, list.num_vertices, Direction::kOut);
    ASSERT_EQ(out.size(), list.num_edges());
    std::set<eid_t> ids;
    for (const auto& edge : out) ids.insert(std::get<2>(edge));
    EXPECT_EQ(ids.size(), out.size()) << "edge ids repeat within the label";
    if (b.name == "livegraph") continue;  // Out-adjacency only.
    EXPECT_EQ(EdgesSeenFrom(*b.graph, list.num_vertices, Direction::kIn), out);
  }
}

TEST(BackendParityTest, AdvertisedAdjacencyArraysMatchVisitAdj) {
  const EdgeList list = ParityGraph();
  std::vector<std::string> array_backends;
  for (const Backend& b : BuildBackends(list)) {
    if (!b.graph->RequireTraits(grin::kAdjacentListArray).ok()) continue;
    SCOPED_TRACE(b.name);
    array_backends.push_back(b.name);
    for (const Direction dir : {Direction::kOut, Direction::kIn}) {
      const auto offsets = b.graph->AdjacencyOffsets(0, dir);
      const auto nbrs = b.graph->AdjacencyNeighbors(0, dir);
      ASSERT_EQ(offsets.size(), b.graph->NumVertices() + 1);
      ASSERT_EQ(nbrs.size(), list.num_edges());
      for (vid_t v = 0; v < b.graph->NumVertices(); ++v) {
        std::vector<vid_t> visited;
        grin::ForEachAdj(*b.graph, v, dir, 0,
                         [&](vid_t nbr, double, eid_t) {
                           visited.push_back(nbr);
                         });
        EXPECT_EQ(std::vector<vid_t>(nbrs.begin() + offsets[v],
                                     nbrs.begin() + offsets[v + 1]),
                  visited)
            << "vid " << v;
      }
    }
  }
  EXPECT_EQ(array_backends,
            (std::vector<std::string>{"simple", "vineyard", "graphar"}));
}

/// count(c) of `query` through NaiveGraphDB and through Gaia, which must
/// agree.
int64_t CountOnBothEngines(const grin::GrinGraph& g, const std::string& query) {
  SCOPED_TRACE(query);
  query::NaiveGraphDB naive(&g);
  auto reference = naive.Run(query::Language::kCypher, query);
  EXPECT_TRUE(reference.ok()) << reference.status().ToString();
  query::QueryService service(&g, 2);
  auto gaia = service.Run(query::Language::kCypher, query,
                          query::EngineKind::kGaia);
  EXPECT_TRUE(gaia.ok()) << gaia.status().ToString();
  if (!reference.ok() || !gaia.ok()) return -1;
  EXPECT_EQ(query::RowsToStrings(gaia.value()),
            query::RowsToStrings(reference.value()));
  return std::get<PropertyValue>(reference.value()[0][0]).AsInt64();
}

TEST(BackendParityTest, VarLengthPathsCountEachEdgeOnce) {
  // The 2-cycle 0 -> 1 -> 0. Relationship uniqueness keys on edge ids, so
  // a backend giving one edge two ids counts extra paths and one giving
  // two edges one id prunes real ones.
  EdgeList list;
  list.num_vertices = 2;
  list.edges = {{0, 1, 1.0}, {1, 0, 1.0}};
  for (const Backend& b : BuildBackends(list)) {
    SCOPED_TRACE(b.name);
    EXPECT_EQ(CountOnBothEngines(
                  *b.graph,
                  "MATCH (a:V {id: 0})-[:E*2..2]->(c:V) RETURN count(c)"),
              1);
    if (b.name == "livegraph") continue;  // Out-adjacency only.
    EXPECT_EQ(CountOnBothEngines(
                  *b.graph,
                  "MATCH (a:V {id: 0})-[:E*2..2]-(c:V) RETURN count(c)"),
              2);
  }
}

// ------------------------------------------------ GRIN scan windows

/// Vids of `label` at scan positions [begin, end).
std::vector<vid_t> VisitWindow(const grin::GrinGraph& g, label_t label,
                               size_t begin, size_t end) {
  std::vector<vid_t> out;
  g.VisitVertices(
      label, begin, end,
      [](void* raw, vid_t v) {
        static_cast<std::vector<vid_t>*>(raw)->push_back(v);
        return true;
      },
      &out);
  return out;
}

/// Checks the window contract on `label`: 7-position windows concatenate
/// to the full-label order, a window at or past the end visits nothing,
/// and an `end` past the label clamps.
void ExpectWindowsTileLabel(const grin::GrinGraph& g, label_t label) {
  const size_t n = g.NumVerticesOfLabel(label);
  const std::vector<vid_t> full = VisitWindow(g, label, 0, n);
  ASSERT_EQ(full.size(), n);
  std::vector<vid_t> tiled;
  for (size_t begin = 0; begin < n; begin += 7) {
    const std::vector<vid_t> part = VisitWindow(g, label, begin, begin + 7);
    EXPECT_EQ(part.size(), std::min<size_t>(7, n - begin)) << begin;
    tiled.insert(tiled.end(), part.begin(), part.end());
  }
  EXPECT_EQ(tiled, full);
  EXPECT_TRUE(VisitWindow(g, label, n, n + 7).empty());
  EXPECT_TRUE(VisitWindow(g, label, n + 7, n + 14).empty());
  EXPECT_EQ(VisitWindow(g, label, 0, n + 1000), full);
  if (n > 3) {
    EXPECT_EQ(VisitWindow(g, label, n - 3, n + 1000),
              std::vector<vid_t>(full.end() - 3, full.end()));
  }
}

TEST(BackendParityTest, ScanWindowsTileTheLabelOnEveryBackend) {
  const EdgeList list = ParityGraph();
  const auto backends = BuildBackends(list);
  for (const Backend& b : backends) {
    SCOPED_TRACE(b.name);
    ExpectWindowsTileLabel(*b.graph, 0);
    // The scan order enumerates every vertex exactly once.
    std::vector<oid_t> oids;
    for (const vid_t v : VisitWindow(*b.graph, 0, 0, list.num_vertices)) {
      oids.push_back(b.graph->GetOid(v));
    }
    std::sort(oids.begin(), oids.end());
    ASSERT_EQ(oids.size(), list.num_vertices);
    for (size_t i = 0; i < oids.size(); ++i) {
      EXPECT_EQ(oids[i], static_cast<oid_t>(i));
    }
  }
}

/// Two labels with an int and a string property, their vertices added
/// interleaved so each label's scan order differs from global insertion
/// order, and an edge label from A to B giving every A vertex two
/// neighbors.
PropertyGraphData LabelledGraph() {
  PropertyGraphData data;
  const std::vector<PropertyDef> props = {{"num", PropertyType::kInt64},
                                          {"name", PropertyType::kString}};
  const label_t a = data.schema.AddVertexLabel("A", props).value();
  const label_t b = data.schema.AddVertexLabel("B", props).value();
  const label_t e = data.schema.AddEdgeLabel("E", a, b, {}).value();
  for (oid_t i = 0; i < 50; ++i) {
    const std::vector<PropertyValue> values = {
        PropertyValue(int64_t{(i * 7) % 11 - 3}),
        PropertyValue("n" + std::to_string(i % 5))};
    data.AddVertex(i % 3 == 0 ? b : a, i, values);
  }
  // B holds the 17 multiples of 3; A vertex i links to two of them.
  for (oid_t i = 0; i < 50; ++i) {
    if (i % 3 == 0) continue;
    data.AddEdge(e, i, 3 * ((i * 7) % 17), {});
    data.AddEdge(e, i, 3 * ((i * 11 + 5) % 17), {});
  }
  return data;
}

/// Every comparison against an int and a string column, the unresolved
/// column both ways, a two-condition filter and the empty filter.
std::vector<grin::VertexFilter> TestFilters() {
  using Cmp = grin::VertexCondition::Cmp;
  std::vector<grin::VertexFilter> filters;
  filters.push_back({});  // Empty: every candidate survives.
  for (const Cmp cmp : {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt,
                        Cmp::kGe}) {
    filters.push_back({{{0, cmp, PropertyValue(int64_t{2})}}});
    filters.push_back({{{1, cmp, PropertyValue("n2")}}});
  }
  // A property the schema could not resolve compares as the empty value.
  filters.push_back(
      {{{grin::VertexCondition::kNoColumn, Cmp::kEq, PropertyValue()}}});
  filters.push_back(
      {{{grin::VertexCondition::kNoColumn, Cmp::kNe, PropertyValue()}}});
  filters.push_back({{{0, Cmp::kGe, PropertyValue(int64_t{0})},
                      {1, Cmp::kNe, PropertyValue("n1")}}});
  return filters;
}

/// `prefix` followed by "|type:value" per property.
std::string Render(std::string prefix, std::span<const PropertyValue> props) {
  for (const PropertyValue& p : props) {
    prefix += "|" + std::to_string(static_cast<int>(p.type())) + ":" +
              p.ToString();
  }
  return prefix;
}

/// The scalar reference: `filter` on `v`, one boxed read per condition.
bool ScalarMatches(const grin::GrinGraph& g, const grin::VertexFilter& filter,
                   vid_t v) {
  for (const grin::VertexCondition& c : filter.conditions) {
    const PropertyValue value = c.column == grin::VertexCondition::kNoColumn
                                    ? PropertyValue()
                                    : g.GetVertexProperty(v, c.column);
    if (!grin::MatchesCondition(c, value)) return false;
  }
  return true;
}

/// The scalar reference's projection of `v`.
std::vector<PropertyValue> ScalarProject(const grin::GrinGraph& g, vid_t v,
                                         std::span<const size_t> cols) {
  std::vector<PropertyValue> props;
  for (const size_t col : cols) props.push_back(g.GetVertexProperty(v, col));
  return props;
}

/// One filtered window, rendered as "vid|type:value|..." per survivor.
std::vector<std::string> FilteredWindow(const grin::GrinGraph& g,
                                        label_t label, size_t begin,
                                        size_t end,
                                        const grin::VertexFilter& filter,
                                        std::span<const size_t> cols) {
  std::vector<std::string> out;
  EXPECT_TRUE(g.VisitVerticesFiltered(
      label, begin, end, filter, cols,
      [](void* raw, vid_t v, std::span<const PropertyValue> props) -> bool {
        static_cast<std::vector<std::string>*>(raw)->push_back(
            Render(std::to_string(v), props));
        return true;
      },
      &out));
  return out;
}

/// FilteredWindow computed by the scalar reference.
std::vector<std::string> ReferenceWindow(const grin::GrinGraph& g,
                                         label_t label, size_t begin,
                                         size_t end,
                                         const grin::VertexFilter& filter,
                                         std::span<const size_t> cols) {
  std::vector<std::string> out;
  for (const vid_t v : VisitWindow(g, label, begin, end)) {
    if (!ScalarMatches(g, filter, v)) continue;
    out.push_back(Render(std::to_string(v), ScalarProject(g, v, cols)));
  }
  return out;
}

TEST(BackendParityTest, FilteredWindowsMatchAScalarReference) {
  const std::vector<Backend> backends = PropertyBackends(LabelledGraph());
  const std::vector<grin::VertexFilter> filters = TestFilters();
  const std::vector<size_t> no_cols;
  const std::vector<size_t> cols = {1, 0};

  for (const Backend& b : backends) {
    SCOPED_TRACE(b.name);
    const grin::GrinGraph& g = *b.graph;
    for (label_t label = 0; label < 2; ++label) {
      ExpectWindowsTileLabel(g, label);
      const size_t n = g.NumVerticesOfLabel(label);
      for (size_t f = 0; f < filters.size(); ++f) {
        SCOPED_TRACE("label " + std::to_string(label) + " filter " +
                     std::to_string(f));
        for (const std::span<const size_t> project : {std::span(no_cols),
                                                      std::span(cols)}) {
          for (size_t begin = 0; begin < n + 7; begin += 7) {
            EXPECT_EQ(FilteredWindow(g, label, begin, begin + 7, filters[f],
                                     project),
                      ReferenceWindow(g, label, begin, begin + 7,
                                      filters[f], project))
                << "window " << begin;
          }
          EXPECT_EQ(FilteredWindow(g, label, 0, n, filters[f], project),
                    ReferenceWindow(g, label, 0, n, filters[f], project));
        }
      }
      // The empty filter keeps the whole label, in VisitVertices order.
      const auto all = FilteredWindow(g, label, 0, n, filters[0], {});
      const auto vids = VisitWindow(g, label, 0, n);
      ASSERT_EQ(all.size(), vids.size());
      for (size_t i = 0; i < vids.size(); ++i) {
        EXPECT_EQ(all[i], std::to_string(vids[i]));
      }
    }
  }
}

/// One filtered batched expansion, rendered as "src_index|nbr" per
/// surviving neighbor.
std::vector<std::string> FilteredNeighbors(const grin::GrinGraph& g,
                                           std::span<const vid_t> vids,
                                           Direction dir, label_t dst_label,
                                           const grin::VertexFilter& filter) {
  std::vector<std::string> out;
  EXPECT_TRUE(g.GetNeighborsBatch(
      vids, dir, 0, dst_label, filter,
      [](void* raw, size_t src_index, vid_t nbr) -> bool {
        static_cast<std::vector<std::string>*>(raw)->push_back(
            std::to_string(src_index) + "|" + std::to_string(nbr));
        return true;
      },
      &out));
  return out;
}

/// FilteredNeighbors computed by the scalar reference: VisitAdj per
/// source, out before in.
std::vector<std::string> ReferenceNeighbors(const grin::GrinGraph& g,
                                            std::span<const vid_t> vids,
                                            Direction dir, label_t dst_label,
                                            const grin::VertexFilter& filter) {
  std::vector<std::string> out;
  for (size_t i = 0; i < vids.size(); ++i) {
    for (const Direction d : {Direction::kOut, Direction::kIn}) {
      if (dir != Direction::kBoth && dir != d) continue;
      grin::ForEachAdj(g, vids[i], d, 0, [&](vid_t nbr, double, eid_t) {
        if (dst_label != kInvalidLabel && g.VertexLabelOf(nbr) != dst_label) {
          return;
        }
        if (!ScalarMatches(g, filter, nbr)) return;
        out.push_back(std::to_string(i) + "|" + std::to_string(nbr));
      });
    }
  }
  return out;
}

TEST(BackendParityTest, FilteredNeighborBatchesMatchAScalarReference) {
  const std::vector<Backend> backends = PropertyBackends(LabelledGraph());
  const std::vector<grin::VertexFilter> filters = TestFilters();

  for (const Backend& b : backends) {
    SCOPED_TRACE(b.name);
    const grin::GrinGraph& g = *b.graph;
    // Sources of both labels, so kBoth and kInvalidLabel see neighbors of
    // both labels.
    std::vector<vid_t> sources = VisitWindow(g, 0, 0, g.NumVerticesOfLabel(0));
    for (const vid_t v : VisitWindow(g, 1, 0, g.NumVerticesOfLabel(1))) {
      sources.push_back(v);
    }
    for (const Direction dir :
         {Direction::kOut, Direction::kIn, Direction::kBoth}) {
      for (const label_t dst_label : {kInvalidLabel, label_t{0}, label_t{1}}) {
        for (size_t f = 0; f < filters.size(); ++f) {
          SCOPED_TRACE("dir " + std::to_string(static_cast<int>(dir)) +
                       " dst_label " + std::to_string(dst_label) +
                       " filter " + std::to_string(f));
          const std::span<const vid_t> all(sources);
          for (size_t begin = 0; begin < all.size(); begin += 7) {
            const auto part =
                all.subspan(begin, std::min<size_t>(7, all.size() - begin));
            EXPECT_EQ(FilteredNeighbors(g, part, dir, dst_label, filters[f]),
                      ReferenceNeighbors(g, part, dir, dst_label, filters[f]))
                << "sources from " << begin;
          }
          EXPECT_EQ(FilteredNeighbors(g, all, dir, dst_label, filters[f]),
                    ReferenceNeighbors(g, all, dir, dst_label, filters[f]));
        }
      }
    }
  }
}

TEST(BackendParityTest, FilteredVisitStopsOnEitherSideOfAChunkBoundary) {
  // Filters are evaluated 1,024 candidates at a time; 2,500 candidates
  // span three chunks, and every fourth one fails `num != 1`.
  PropertyGraphData data;
  const label_t v =
      data.schema.AddVertexLabel("V", {{"num", PropertyType::kInt64}})
          .value();
  for (oid_t i = 0; i < 2500; ++i) {
    data.AddVertex(v, i, {PropertyValue(int64_t{i % 4})});
  }
  const grin::VertexFilter not_one{
      {{0, grin::VertexCondition::Cmp::kNe, PropertyValue(int64_t{1})}}};
  // A filtered, projected visit and one with neither filter nor
  // projection.
  const std::vector<std::pair<grin::VertexFilter, std::vector<size_t>>>
      visits = {{not_one, {0}}, {{}, {}}};
  metrics::Counter* pruned = metrics::MetricsRegistry::Instance().GetCounter(
      metrics::kFusedRowsPrunedTotal);

  for (const Backend& b : PropertyBackends(data)) {
    const grin::GrinGraph& g = *b.graph;
    const std::vector<vid_t> scan = VisitWindow(g, v, 0, 2500);
    ASSERT_EQ(scan.size(), 2500u);
    for (const auto& [filter, cols] : visits) {
      SCOPED_TRACE(b.name + (filter.empty() ? " unfiltered" : " filtered"));
      // Scan positions of the reference's survivors.
      std::vector<size_t> survivors;
      for (size_t pos = 0; pos < scan.size(); ++pos) {
        if (ScalarMatches(g, filter, scan[pos])) survivors.push_back(pos);
      }
      const auto boundary =
          std::lower_bound(survivors.begin(), survivors.end(), size_t{1024}) -
          survivors.begin();
      // Stop on the last survivor before the boundary, on the first one
      // after it, and never.
      for (const size_t limit : {size_t(boundary), size_t(boundary + 1),
                                 survivors.size() + 1}) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        struct Sink {
          size_t limit;
          std::vector<std::string> rows;
        } sink{limit, {}};
        const uint64_t before = pruned->Value();
        const bool finished = g.VisitVerticesFiltered(
            v, 0, 2500, filter, cols,
            [](void* raw, vid_t u, std::span<const PropertyValue> props) {
              auto* s = static_cast<Sink*>(raw);
              s->rows.push_back(Render(std::to_string(u), props));
              return s->rows.size() < s->limit;
            },
            &sink);
        const size_t delivered = std::min(limit, survivors.size());
        EXPECT_EQ(finished, delivered < limit);
        // The reference's first survivors, in scan order.
        std::vector<std::string> expected;
        for (size_t k = 0; k < delivered; ++k) {
          const vid_t u = scan[survivors[k]];
          expected.push_back(
              Render(std::to_string(u), ScalarProject(g, u, cols)));
        }
        EXPECT_EQ(sink.rows, expected);
        // Rejected: every candidate ahead of the last survivor delivered,
        // or every candidate when the visit ran to the end.
        const size_t seen = finished ? scan.size() : survivors[limit - 1] + 1;
        EXPECT_EQ(pruned->Value() - before, seen - delivered);
      }
    }
  }
}

// ------------------------------------------------ GraphAr edge order

TEST(BackendParityTest, EdgePropertiesSurviveShuffledVertexOrder) {
  // Vertices added out of oid order: vids follow input order, and the
  // archive must lay its edge rows out in that order too.
  PropertyGraphData data;
  const label_t v = data.schema.AddVertexLabel("V", {}).value();
  const label_t e =
      data.schema.AddEdgeLabel("E", v, v, {{"w", PropertyType::kInt64}})
          .value();
  for (const oid_t o : {5, 2, 7, 0, 3, 6, 1, 4}) data.AddVertex(v, o, {});
  auto weight = [](oid_t src, oid_t dst) { return int64_t{src * 100 + dst}; };
  for (const oid_t s : {3, 0, 6, 1, 7, 4, 2, 5}) {
    for (const oid_t d : {(s + 3) % 8, (s + 1) % 8}) {
      data.AddEdge(e, s, d, {PropertyValue(weight(s, d))});
    }
  }
  // Chunks of three rows: sources out of oid order share a chunk, so the
  // chunk index must hold each chunk's true source range.
  const std::string path = testing::TempDir() + "shuffled_vertices.gar";
  ASSERT_TRUE(storage::graphar::WriteGraphAr(path, data, 3).ok());
  std::unique_ptr<storage::graphar::GraphArReader> reader =
      std::move(storage::graphar::GraphArReader::Open(path).value());
  for (oid_t s = 0; s < 8; ++s) {
    Result<std::vector<oid_t>> nbrs = reader->FetchNeighbors(e, s);
    ASSERT_TRUE(nbrs.ok()) << nbrs.status().ToString();
    std::vector<oid_t> got = std::move(nbrs).value();
    std::sort(got.begin(), got.end());
    std::vector<oid_t> want = {(s + 1) % 8, (s + 3) % 8};
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "source " << s;
  }

  for (const Backend& b : PropertyBackends(data, 3)) {
    SCOPED_TRACE(b.name);
    const grin::GrinGraph& g = *b.graph;
    size_t reads = 0;
    for (oid_t o = 0; o < 8; ++o) {
      const vid_t u = g.FindVertex(v, o).value();
      grin::ForEachAdj(g, u, Direction::kOut, e,
                       [&](vid_t nbr, double, eid_t id) {
                         EXPECT_EQ(g.GetEdgeProperty(e, id, 0).ToString(),
                                   std::to_string(weight(o, g.GetOid(nbr))))
                             << o << "->" << g.GetOid(nbr);
                         ++reads;
                       });
      grin::ForEachAdj(g, u, Direction::kIn, e,
                       [&](vid_t nbr, double, eid_t id) {
                         EXPECT_EQ(g.GetEdgeProperty(e, id, 0).ToString(),
                                   std::to_string(weight(g.GetOid(nbr), o)))
                             << g.GetOid(nbr) << "->" << o;
                         ++reads;
                       });
    }
    EXPECT_EQ(reads, 32u);
  }
}

}  // namespace
}  // namespace flex
