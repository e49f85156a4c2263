#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/varint.h"
#include "datagen/generators.h"
#include "snb/snb.h"
#include "storage/durable_store.h"
#include "storage/gart/gart_store.h"
#include "storage/graphar/csv.h"
#include "storage/graphar/encoding.h"
#include "storage/graphar/graphar.h"
#include "storage/livegraph/livegraph_store.h"
#include "storage/simple.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::storage {
namespace {

/// Builds the e-commerce toy graph from Figure 2 of the paper:
/// Buyers {1, 2} and Items {3, 4}; 1-KNOWS->2, buyers BUY items.
PropertyGraphData EcommerceData() {
  PropertyGraphData data;
  label_t buyer =
      data.schema
          .AddVertexLabel("Buyer", {{"username", PropertyType::kString},
                                    {"credits", PropertyType::kInt64}})
          .value();
  label_t item =
      data.schema.AddVertexLabel("Item", {{"price", PropertyType::kDouble}})
          .value();
  label_t knows = data.schema.AddEdgeLabel("KNOWS", buyer, buyer, {}).value();
  label_t buy = data.schema
                    .AddEdgeLabel("BUY", buyer, item,
                                  {{"date", PropertyType::kInt64}})
                    .value();

  data.AddVertex(buyer, 1, {PropertyValue("A1"), PropertyValue(int64_t{10})});
  data.AddVertex(buyer, 2, {PropertyValue("B2"), PropertyValue(int64_t{20})});
  data.AddVertex(item, 3, {PropertyValue(9.5)});
  data.AddVertex(item, 4, {PropertyValue(3.25)});
  data.AddEdge(knows, 1, 2, {});
  data.AddEdge(buy, 1, 3, {PropertyValue(int64_t{100})});
  data.AddEdge(buy, 2, 3, {PropertyValue(int64_t{103})});
  data.AddEdge(buy, 2, 4, {PropertyValue(int64_t{105})});
  return data;
}

std::vector<oid_t> CollectNeighborOids(const grin::GrinGraph& g, vid_t v,
                                       Direction dir, label_t elabel) {
  std::vector<oid_t> out;
  grin::ForEachAdj(g, v, dir, elabel, [&](vid_t nbr, double, eid_t) {
    out.push_back(g.GetOid(nbr));
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------------- Vineyard

TEST(VineyardTest, BuildsAndIndexes) {
  auto store = VineyardStore::Build(EcommerceData()).value();
  EXPECT_EQ(store->topology().num_vertices(), 4u);
  EXPECT_EQ(store->topology().num_edges(), 4u);
  const label_t buyer = store->schema().FindVertexLabel("Buyer").value();
  const label_t item = store->schema().FindVertexLabel("Item").value();
  auto [b0, b1] = store->topology().VertexRange(buyer);
  EXPECT_EQ(b1 - b0, 2u);
  EXPECT_EQ(store->topology().VertexLabelOf(b0), buyer);
  const vid_t v1 = store->topology().FindVertex(buyer, 1).value();
  EXPECT_EQ(store->topology().GetOid(v1), 1);
  EXPECT_FALSE(store->topology().FindVertex(item, 1).ok());
}

TEST(VineyardTest, ForwardAndReverseAdjacencyAgree) {
  auto store = VineyardStore::Build(EcommerceData()).value();
  const auto& schema = store->schema();
  const label_t buyer = schema.FindVertexLabel("Buyer").value();
  const label_t item = schema.FindVertexLabel("Item").value();
  const label_t buy = schema.FindEdgeLabel("BUY").value();
  const vid_t v2 = store->topology().FindVertex(buyer, 2).value();
  const vid_t v3 = store->topology().FindVertex(item, 3).value();

  auto out = store->topology().OutNeighbors(v2, buy);
  ASSERT_EQ(out.size(), 2u);
  auto in = store->topology().InNeighbors(v3, buy);
  ASSERT_EQ(in.size(), 2u);

  // Edge properties resolve identically from both directions.
  auto in_eids = store->topology().InEdgeIds(v3, buy);
  std::multiset<int64_t> dates;
  for (eid_t e : in_eids) {
    dates.insert(store->edge_table(buy).Get(e, 0).AsInt64());
  }
  EXPECT_EQ(dates, (std::multiset<int64_t>{100, 103}));
}

TEST(VineyardTest, PropertyColumns) {
  auto store = VineyardStore::Build(EcommerceData()).value();
  const label_t buyer = store->schema().FindVertexLabel("Buyer").value();
  const auto& table = store->vertex_table(buyer);
  EXPECT_EQ(table.Get(0, 0).AsString(), "A1");
  EXPECT_EQ(table.Get(1, 1).AsInt64(), 20);
}

TEST(VineyardTest, RejectsDuplicateOids) {
  PropertyGraphData data;
  label_t v = data.schema.AddVertexLabel("V", {}).value();
  data.AddVertex(v, 7, {});
  data.AddVertex(v, 7, {});
  EXPECT_EQ(VineyardStore::Build(data).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(VineyardTest, RejectsDanglingEdges) {
  PropertyGraphData data;
  label_t v = data.schema.AddVertexLabel("V", {}).value();
  label_t e = data.schema.AddEdgeLabel("E", v, v, {}).value();
  data.AddVertex(v, 1, {});
  data.AddEdge(e, 1, 99, {});
  EXPECT_EQ(VineyardStore::Build(data).status().code(), StatusCode::kNotFound);
}

TEST(VineyardGrinTest, CapabilitiesAndTraversal) {
  auto store = VineyardStore::Build(EcommerceData()).value();
  auto g = store->GetGrinHandle();
  EXPECT_EQ(g->backend_name(), "vineyard");
  EXPECT_TRUE(g->RequireTraits(grin::kVertexListArray |
                               grin::kAdjacentListArray |
                               grin::kPropertyColumnArray)
                  .ok());
  const label_t buyer = g->schema().FindVertexLabel("Buyer").value();
  const label_t buy = g->schema().FindEdgeLabel("BUY").value();
  const vid_t v2 = g->FindVertex(buyer, 2).value();
  EXPECT_EQ(CollectNeighborOids(*g, v2, Direction::kOut, buy),
            (std::vector<oid_t>{3, 4}));
  EXPECT_EQ(g->Degree(v2, Direction::kOut, buy), 2u);
  EXPECT_EQ(g->GetVertexProperty(v2, 0).AsString(), "B2");
}

TEST(VineyardGrinTest, EdgePropertiesThroughBothDirections) {
  auto store = VineyardStore::Build(EcommerceData()).value();
  auto g = store->GetGrinHandle();
  const label_t item = g->schema().FindVertexLabel("Item").value();
  const label_t buy = g->schema().FindEdgeLabel("BUY").value();
  const vid_t v3 = g->FindVertex(item, 3).value();
  std::multiset<int64_t> dates;
  grin::ForEachAdj(*g, v3, Direction::kIn, buy,
                   [&](vid_t, double, eid_t e) {
                     dates.insert(g->GetEdgeProperty(buy, e, 0).AsInt64());
                     return true;
                   });
  EXPECT_EQ(dates, (std::multiset<int64_t>{100, 103}));
}

TEST(VineyardGrinTest, Int64ColumnSpan) {
  auto store = VineyardStore::Build(EcommerceData()).value();
  auto g = store->GetGrinHandle();
  const label_t buyer = g->schema().FindVertexLabel("Buyer").value();
  auto credits = g->VertexInt64Column(buyer, 1);
  ASSERT_EQ(credits.size(), 2u);
  EXPECT_EQ(credits[0] + credits[1], 30);
  // Wrong-typed column yields an empty span, not garbage.
  EXPECT_TRUE(g->VertexInt64Column(buyer, 0).empty());
}

// ----------------------------------------------------------------- GART

TEST(GartTest, RejectsUnsupportedEdgeSchema) {
  GraphSchema schema;
  label_t v = schema.AddVertexLabel("V", {}).value();
  ASSERT_TRUE(
      schema.AddEdgeLabel("E", v, v, {{"name", PropertyType::kString}}).ok());
  EXPECT_EQ(GartStore::Create(schema).status().code(),
            StatusCode::kUnimplemented);
}

TEST(GartTest, MvccVisibility) {
  GraphSchema schema;
  label_t v = schema.AddVertexLabel("V", {}).value();
  label_t e = schema.AddEdgeLabel("E", v, v, {}).value();
  auto store = GartStore::Create(schema).value();
  ASSERT_TRUE(store->AddVertex(v, 1, {}).ok());
  ASSERT_TRUE(store->AddVertex(v, 2, {}).ok());
  ASSERT_TRUE(store->AddEdge(e, 1, 2).ok());

  // Uncommitted writes are invisible.
  auto snap0 = store->GetSnapshot();
  EXPECT_FALSE(snap0->FindVertex(v, 1).ok());
  EXPECT_EQ(store->CountEdges(e), 0u);

  const version_t v1 = store->CommitVersion();
  auto snap1 = store->GetSnapshot();
  EXPECT_EQ(snap1->SnapshotVersion(), v1);
  EXPECT_TRUE(snap1->FindVertex(v, 1).ok());
  EXPECT_EQ(store->CountEdges(e), 1u);

  // Old snapshot still sees the old state.
  EXPECT_FALSE(snap0->FindVertex(v, 1).ok());
}

TEST(GartTest, DeleteTombstonesRespectVersions) {
  GraphSchema schema;
  label_t v = schema.AddVertexLabel("V", {}).value();
  label_t e = schema.AddEdgeLabel("E", v, v, {}).value();
  auto store = GartStore::Create(schema).value();
  ASSERT_TRUE(store->AddVertex(v, 1, {}).ok());
  ASSERT_TRUE(store->AddVertex(v, 2, {}).ok());
  ASSERT_TRUE(store->AddEdge(e, 1, 2).ok());
  const version_t v1 = store->CommitVersion();

  ASSERT_TRUE(store->DeleteEdge(e, 1, 2).ok());
  const version_t v2 = store->CommitVersion();

  auto snap1 = store->GetSnapshot(v1);
  auto snap2 = store->GetSnapshot(v2);
  const vid_t vid1 = snap1->FindVertex(v, 1).value();
  EXPECT_EQ(snap1->Degree(vid1, Direction::kOut, e), 1u);
  EXPECT_EQ(snap2->Degree(vid1, Direction::kOut, e), 0u);

  // Re-adding after delete resurrects the edge at a later version.
  ASSERT_TRUE(store->AddEdge(e, 1, 2).ok());
  const version_t v3 = store->CommitVersion();
  auto snap3 = store->GetSnapshot(v3);
  EXPECT_EQ(snap3->Degree(vid1, Direction::kOut, e), 1u);
  EXPECT_EQ(snap2->Degree(vid1, Direction::kOut, e), 0u);
}

TEST(GartTest, TombstonesDropLoggedAndBaseEdges) {
  GraphSchema schema;
  label_t v = schema.AddVertexLabel("V", {}).value();
  label_t e = schema.AddEdgeLabel("E", v, v, {}).value();
  auto store = GartStore::Create(schema).value();
  for (oid_t i = 0; i < 10; ++i) ASSERT_TRUE(store->AddVertex(v, i, {}).ok());
  for (oid_t i = 0; i < 9; ++i) ASSERT_TRUE(store->AddEdge(e, i, i + 1).ok());
  store->CommitVersion();
  ASSERT_TRUE(store->DeleteEdge(e, 0, 1).ok());
  store->CommitVersion();
  EXPECT_EQ(store->CountEdges(e), 8u);

  // The same path as base edges: a built store keeps serving reads and
  // accepting writes while its base edges are deleted and re-added
  // through the log.
  PropertyGraphData data;
  data.schema = schema;
  for (oid_t i = 0; i < 10; ++i) data.AddVertex(v, i, {});
  for (oid_t i = 0; i < 9; ++i) data.AddEdge(e, i, i + 1, {});
  auto built = GartStore::Build(data).value();
  ASSERT_TRUE(built->DeleteEdge(e, 0, 1).ok());
  built->CommitVersion();
  EXPECT_EQ(built->CountEdges(e), 8u);
  ASSERT_TRUE(built->DeleteEdge(e, 2, 3).ok());
  ASSERT_TRUE(built->AddEdge(e, 2, 3).ok());
  built->CommitVersion();
  EXPECT_EQ(built->CountEdges(e), 8u);
  ASSERT_TRUE(built->AddEdge(e, 0, 5).ok());
  built->CommitVersion();
  EXPECT_EQ(built->CountEdges(e), 9u);
}

TEST(GartTest, InlineEdgeProperties) {
  GraphSchema schema;
  label_t a = schema.AddVertexLabel("Account", {}).value();
  label_t i = schema.AddVertexLabel("Item", {}).value();
  label_t buy = schema
                    .AddEdgeLabel("BUY", a, i,
                                  {{"amount", PropertyType::kDouble},
                                   {"date", PropertyType::kInt64}})
                    .value();
  auto store = GartStore::Create(schema).value();
  ASSERT_TRUE(store->AddVertex(a, 1, {}).ok());
  ASSERT_TRUE(store->AddVertex(i, 2, {}).ok());
  ASSERT_TRUE(store->AddEdge(buy, 1, 2, 19.99, 42).ok());
  store->CommitVersion();
  auto snap = store->GetSnapshot();
  const vid_t v1 = snap->FindVertex(a, 1).value();
  bool seen = false;
  grin::ForEachAdj(*snap, v1, Direction::kOut, buy,
                   [&](vid_t, double w, eid_t e) {
                     seen = true;
                     EXPECT_DOUBLE_EQ(w, 19.99);
                     EXPECT_DOUBLE_EQ(
                         snap->GetEdgeProperty(buy, e, 0).AsDouble(), 19.99);
                     EXPECT_EQ(snap->GetEdgeProperty(buy, e, 1).AsInt64(), 42);
                     return true;
                   });
  EXPECT_TRUE(seen);
}

TEST(GartTest, BulkBuildMatchesVineyardTopology) {
  EdgeList list = datagen::GenerateUniform(200, 2000, 99);
  PropertyGraphData data = MakeSimpleGraphData(list);
  auto gart = GartStore::Build(data).value();
  auto vineyard = VineyardStore::Build(data).value();
  auto gsnap = gart->GetSnapshot();
  auto vgrin = vineyard->GetGrinHandle();
  const label_t e = 0;
  for (oid_t oid = 0; oid < 200; oid += 17) {
    const vid_t gv = gsnap->FindVertex(0, oid).value();
    const vid_t vv = vgrin->FindVertex(0, oid).value();
    EXPECT_EQ(CollectNeighborOids(*gsnap, gv, Direction::kOut, e),
              CollectNeighborOids(*vgrin, vv, Direction::kOut, e))
        << "vertex " << oid;
    EXPECT_EQ(CollectNeighborOids(*gsnap, gv, Direction::kIn, e),
              CollectNeighborOids(*vgrin, vv, Direction::kIn, e));
  }
}

TEST(GartTest, ConcurrentReadersAndWriters) {
  GraphSchema schema;
  label_t v = schema.AddVertexLabel("V", {}).value();
  label_t e = schema.AddEdgeLabel("E", v, v, {}).value();
  auto store = GartStore::Create(schema).value();
  constexpr oid_t kVerts = 64;
  for (oid_t i = 0; i < kVerts; ++i) {
    ASSERT_TRUE(store->AddVertex(v, i, {}).ok());
  }
  store->CommitVersion();

  std::atomic<bool> stop{false};
  std::atomic<size_t> read_errors{0};
  std::thread writer([&] {
    Rng rng(5);
    for (int k = 0; k < 5000; ++k) {
      const oid_t s = static_cast<oid_t>(rng.Uniform(kVerts));
      const oid_t d = static_cast<oid_t>(rng.Uniform(kVerts));
      if (!store->AddEdge(e, s, d).ok()) ++read_errors;
      if (k % 64 == 0) store->CommitVersion();
    }
    store->CommitVersion();
    stop = true;
  });
  std::thread reader([&] {
    while (!stop.load()) {
      auto snap = store->GetSnapshot();
      size_t count = 0;
      for (oid_t i = 0; i < kVerts; ++i) {
        const auto res = snap->FindVertex(v, i);
        if (!res.ok()) {
          ++read_errors;
          continue;
        }
        count += snap->Degree(res.value(), Direction::kOut, e);
      }
      (void)count;
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(store->CountEdges(e), 5000u);
}

class GartDeltaBoundary : public ::testing::TestWithParam<size_t> {};

TEST_P(GartDeltaBoundary, ScansAcrossChunkBoundaries) {
  // Logged and tombstone-filtered edges are emitted 64 at a time; degrees
  // on either side of a chunk boundary must scan correctly whether the
  // edges were logged or are base edges deleted and re-added through the
  // log.
  const size_t degree = GetParam();
  GraphSchema schema;
  label_t v = schema.AddVertexLabel("V", {}).value();
  label_t e = schema.AddEdgeLabel("E", v, v, {}).value();
  auto logged = storage::GartStore::Create(schema).value();
  ASSERT_TRUE(logged->AddVertex(v, 0, {}).ok());
  PropertyGraphData data;
  data.schema = schema;
  data.AddVertex(v, 0, {});
  for (size_t i = 0; i < degree; ++i) {
    const auto dst = static_cast<oid_t>(i + 1);
    ASSERT_TRUE(logged->AddVertex(v, dst, {}).ok());
    ASSERT_TRUE(logged->AddEdge(e, 0, dst).ok());
    data.AddVertex(v, dst, {});
    data.AddEdge(e, 0, dst, {});
  }
  logged->CommitVersion();

  auto count_from_source = [&](const grin::GrinGraph& g) {
    size_t n = 0;
    const vid_t src = g.FindVertex(v, 0).value();
    grin::ForEachAdj(g, src, Direction::kOut, e,
                     [&](vid_t, double, eid_t) { ++n; return true; });
    EXPECT_EQ(g.Degree(src, Direction::kOut, e), n);
    return n;
  };
  EXPECT_EQ(count_from_source(*logged->GetSnapshot()), degree);

  auto built = storage::GartStore::Build(data).value();
  EXPECT_EQ(count_from_source(*built->GetSnapshot()), degree);
  for (size_t i = 0; i < degree; ++i) {
    ASSERT_TRUE(built->DeleteEdge(e, 0, static_cast<oid_t>(i + 1)).ok());
    ASSERT_TRUE(built->AddEdge(e, 0, static_cast<oid_t>(i + 1)).ok());
  }
  built->CommitVersion();
  EXPECT_EQ(count_from_source(*built->GetSnapshot()), degree);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, GartDeltaBoundary,
                         ::testing::Values(1, 15, 16, 17, 31, 32, 33, 63, 64,
                                           65, 100, 128, 129));

TEST(GartTest, EarlyStopInChunkedScan) {
  EdgeList list = datagen::GenerateUniform(50, 1000, 3);
  auto gart = storage::GartStore::Build(MakeSimpleGraphData(list)).value();
  auto snap = gart->GetSnapshot();
  size_t seen = 0;
  grin::ForEachAdj(*snap, 0, Direction::kOut, 0,
                   [&](vid_t, double, eid_t) { return ++seen < 3; });
  EXPECT_LE(seen, 3u);
}

/// Everything a reader sees of `g`, one sorted line per fact and keyed by
/// oids, so stores that number vertices and edges differently compare
/// equal: per label its visible count; per vertex its properties, whether
/// its oid finds it, and for each edge label and direction it can carry,
/// its degree and its sorted edges as "neighbor oid|edge properties read
/// by id".
std::vector<std::string> VisibleState(const grin::GrinGraph& g) {
  const GraphSchema& schema = g.schema();
  std::vector<std::string> lines;
  for (label_t l = 0; l < schema.vertex_label_num(); ++l) {
    const size_t n = g.NumVerticesOfLabel(l);
    lines.push_back(std::to_string(l) + " count " + std::to_string(n));
    std::vector<vid_t> vids;
    g.VisitVertices(
        l, 0, n,
        [](void* raw, vid_t v) {
          static_cast<std::vector<vid_t>*>(raw)->push_back(v);
          return true;
        },
        &vids);
    for (const vid_t v : vids) {
      const std::string key =
          std::to_string(l) + ":" + std::to_string(g.GetOid(v));
      std::string props = key + " props";
      for (size_t c = 0; c < schema.vertex_label(l).properties.size(); ++c) {
        props += "|" + g.GetVertexProperty(v, c).ToString();
      }
      lines.push_back(props);
      const auto found = g.FindVertex(l, g.GetOid(v));
      lines.push_back(key + " found " +
                      std::to_string(found.ok() && found.value() == v));
      for (label_t el = 0; el < schema.edge_label_num(); ++el) {
        const EdgeLabelDef& def = schema.edge_label(el);
        for (const Direction dir : {Direction::kOut, Direction::kIn}) {
          if ((dir == Direction::kOut ? def.src_label : def.dst_label) != l) {
            continue;
          }
          std::vector<std::string> edges;
          grin::ForEachAdj(g, v, dir, el, [&](vid_t nbr, double, eid_t e) {
            std::string edge = std::to_string(g.GetOid(nbr));
            for (size_t c = 0; c < def.properties.size(); ++c) {
              edge += "|" + g.GetEdgeProperty(el, e, c).ToString();
            }
            edges.push_back(edge);
          });
          std::sort(edges.begin(), edges.end());
          std::string line = key + " " + def.name +
                             (dir == Direction::kOut ? " out " : " in ") +
                             std::to_string(g.Degree(v, dir, el));
          for (const std::string& edge : edges) line += " " + edge;
          lines.push_back(line);
        }
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

void ExpectSameState(const grin::GrinGraph& got, const grin::GrinGraph& want) {
  const std::vector<std::string> a = VisibleState(got);
  const std::vector<std::string> b = VisibleState(want);
  EXPECT_EQ(a.size(), b.size());
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (ia != a.end() || ib != b.end()) {
    ADD_FAILURE() << "first difference: got '"
                  << (ia != a.end() ? *ia : "<end>") << "', want '"
                  << (ib != b.end() ? *ib : "<end>") << "'";
  }
}

TEST(GartTest, BaseAndLogMatchVineyardOfTheVisibleState) {
  // A seeded trace of every write GART takes, on a built SNB base: each
  // committed snapshot must read exactly like a Vineyard store built from
  // the state it should show, and keep its fingerprint as later commits
  // land.
  snb::SnbConfig config;
  config.num_persons = 300;
  snb::SnbStats stats;
  PropertyGraphData expected = snb::GenerateSnb(config, &stats);
  const GraphSchema schema = expected.schema;
  auto store = GartStore::Build(expected).value();
  std::vector<size_t> base_edges;  // Leading entries of expected.edges[el].
  for (const auto& batch : expected.edges) {
    base_edges.push_back(batch.src_oids.size());
  }
  std::vector<size_t> base_vertices;
  for (const auto& batch : expected.vertices) {
    base_vertices.push_back(batch.oids.size());
  }

  Rng rng(2027);
  const auto value_of = [&](PropertyType type) {
    const auto n = static_cast<int64_t>(rng.Uniform(1000));
    if (type == PropertyType::kString) {
      return PropertyValue("s" + std::to_string(n));
    }
    if (type == PropertyType::kDouble) return PropertyValue(n / 4.0);
    return PropertyValue(n);
  };
  const auto random_label = [&](size_t num) {
    return static_cast<label_t>(rng.Uniform(num));
  };
  const auto random_oid = [&](label_t l) {
    const auto& oids = expected.vertices[l].oids;
    return oids[rng.Uniform(oids.size())];
  };
  const auto edge_row = [&](label_t el, double weight, int64_t ts) {
    std::vector<PropertyValue> row;
    for (const PropertyDef& def : schema.edge_label(el).properties) {
      row.push_back(def.type == PropertyType::kDouble ? PropertyValue(weight)
                                                      : PropertyValue(ts));
    }
    return row;
  };
  const auto add_edge = [&](label_t el, oid_t src, oid_t dst) {
    const double weight = static_cast<double>(rng.Uniform(100)) / 8.0;
    const auto ts = static_cast<int64_t>(rng.Uniform(100000));
    ASSERT_TRUE(store->AddEdge(el, src, dst, weight, ts).ok());
    expected.AddEdge(el, src, dst, edge_row(el, weight, ts));
  };
  const auto delete_edge = [&](label_t el, size_t index) {
    auto& batch = expected.edges[el];
    const oid_t src = batch.src_oids[index];
    const oid_t dst = batch.dst_oids[index];
    EXPECT_TRUE(store->DeleteEdge(el, src, dst).ok());
    for (size_t i = batch.src_oids.size(); i-- > 0;) {
      if (batch.src_oids[i] != src || batch.dst_oids[i] != dst) continue;
      batch.src_oids.erase(batch.src_oids.begin() + i);
      batch.dst_oids.erase(batch.dst_oids.begin() + i);
      batch.rows.erase(batch.rows.begin() + i);
      if (i < base_edges[el]) --base_edges[el];
    }
    return std::pair{src, dst};
  };

  std::vector<std::unique_ptr<grin::GrinGraph>> snapshots;
  std::vector<uint32_t> fingerprints;
  oid_t next_oid = 10'000'000;
  size_t ops[6] = {};
  for (int commit = 0; commit < 10; ++commit) {
    for (int k = 0; k < 24; ++k) {
      const uint64_t kind = rng.Uniform(6);
      const label_t el = random_label(schema.edge_label_num());
      auto& edges = expected.edges[el];
      switch (kind) {
        case 0: {  // A vertex, sometimes with an edge to it at once.
          const label_t l = random_label(schema.vertex_label_num());
          std::vector<PropertyValue> props;
          for (const PropertyDef& def : schema.vertex_label(l).properties) {
            props.push_back(value_of(def.type));
          }
          const oid_t oid = next_oid++;
          ASSERT_TRUE(store->AddVertex(l, oid, props).ok());
          expected.AddVertex(l, oid, props);
          for (label_t e = 0; e < schema.edge_label_num(); ++e) {
            if (schema.edge_label(e).dst_label == l) {
              add_edge(e, random_oid(schema.edge_label(e).src_label), oid);
              break;
            }
          }
          break;
        }
        case 1:
          add_edge(el, random_oid(schema.edge_label(el).src_label),
                   random_oid(schema.edge_label(el).dst_label));
          break;
        case 2:  // A base edge.
          if (base_edges[el] == 0) continue;
          delete_edge(el, rng.Uniform(base_edges[el]));
          break;
        case 3:  // A logged edge.
          if (edges.src_oids.size() == base_edges[el]) continue;
          delete_edge(el, base_edges[el] + rng.Uniform(edges.src_oids.size() -
                                                       base_edges[el]));
          break;
        case 4: {  // Delete and re-add in one batch.
          if (edges.src_oids.empty()) continue;
          const auto [src, dst] =
              delete_edge(el, rng.Uniform(edges.src_oids.size()));
          add_edge(el, src, dst);
          break;
        }
        case 5: {  // A base or an added vertex.
          const label_t l = random_label(schema.vertex_label_num());
          auto& batch = expected.vertices[l];
          const bool added =
              batch.oids.size() > base_vertices[l] && rng.Bernoulli(0.5);
          const size_t i =
              added ? base_vertices[l] +
                          rng.Uniform(batch.oids.size() - base_vertices[l])
                    : rng.Uniform(base_vertices[l]);
          const auto& defs = schema.vertex_label(l).properties;
          const auto col = static_cast<uint32_t>(rng.Uniform(defs.size()));
          const PropertyValue value = value_of(defs[col].type);
          ASSERT_TRUE(
              store->UpdateProperty(l, batch.oids[i], col, value).ok());
          batch.rows[i][col] = value;
          break;
        }
      }
      ++ops[kind];
    }
    store->CommitVersion();
    snapshots.push_back(store->PinSnapshot(store->read_version()));
    fingerprints.push_back(SnapshotFingerprint(*snapshots.back()));
    auto vineyard = VineyardStore::Build(expected).value();
    SCOPED_TRACE("commit " + std::to_string(commit));
    ExpectSameState(*snapshots.back(), *vineyard->GetGrinHandle());
  }
  for (const size_t n : ops) EXPECT_GT(n, 0u);
  for (size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_EQ(SnapshotFingerprint(*snapshots[i]), fingerprints[i])
        << "snapshot " << i;
  }
}

TEST(GartTest, ReadersScanBaseVerticesWhileTheirChainsGrow) {
  // One writer appends to and deletes from the chains of base vertices
  // while readers scan them: every edge a reader sees carries the
  // properties it was written with, and Degree agrees with the scan.
  GraphSchema schema;
  const label_t v = schema.AddVertexLabel("V", {}).value();
  const label_t e = schema
                        .AddEdgeLabel("E", v, v,
                                      {{"weight", PropertyType::kDouble},
                                       {"ts", PropertyType::kInt64}})
                        .value();
  constexpr oid_t kVerts = 64;
  PropertyGraphData data;
  data.schema = schema;
  std::multiset<std::pair<oid_t, oid_t>> live;
  for (oid_t i = 0; i < kVerts; ++i) data.AddVertex(v, i, {});
  for (oid_t i = 0; i < kVerts; ++i) {
    data.AddEdge(e, i, (i + 1) % kVerts,
                 {PropertyValue(static_cast<double>(i)),
                  PropertyValue(int64_t{2 * i})});
    live.insert({i, (i + 1) % kVerts});
  }
  auto store = GartStore::Build(data).value();

  std::atomic<bool> stop{false};
  std::atomic<size_t> errors{0};
  std::atomic<size_t> passes{0};
  std::thread writer([&] {
    Rng rng(11);
    for (int k = 0; k < 3000; ++k) {
      const auto s = static_cast<oid_t>(rng.Uniform(kVerts));
      const auto d = static_cast<oid_t>(rng.Uniform(kVerts));
      if (k % 8 == 7) {
        if (!store->DeleteEdge(e, s, d).ok()) ++errors;
        live.erase({s, d});
      } else {
        if (!store->AddEdge(e, s, d, k, 2 * k).ok()) ++errors;
        live.insert({s, d});
      }
      if (k % 32 == 0) {
        // Each commit waits for a reader pass, so reads interleave with
        // every stretch of writes.
        store->CommitVersion();
        const size_t seen = passes.load();
        while (passes.load() == seen) std::this_thread::yield();
      }
    }
    store->CommitVersion();
    stop = true;
  });
  const auto read = [&] {
    while (!stop.load()) {
      auto snap = store->GetSnapshot();
      for (oid_t i = 0; i < kVerts; ++i) {
        const vid_t u = snap->FindVertex(v, i).value();
        for (const Direction dir : {Direction::kOut, Direction::kIn}) {
          size_t n = 0;
          grin::ForEachAdj(*snap, u, dir, e, [&](vid_t, double w, eid_t id) {
            ++n;
            const double weight = snap->GetEdgeProperty(e, id, 0).AsDouble();
            const int64_t ts = snap->GetEdgeProperty(e, id, 1).AsInt64();
            if (ts != static_cast<int64_t>(2 * weight)) ++errors;
            if (dir == Direction::kOut && w != weight) ++errors;
          });
          if (snap->Degree(u, dir, e) != n) ++errors;
        }
      }
      ++passes;
    }
  };
  std::thread reader1(read);
  std::thread reader2(read);
  writer.join();
  reader1.join();
  reader2.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(passes.load(), 3000u / 32);
  EXPECT_EQ(store->CountEdges(e), live.size());
}

// ------------------------------------------------------------ LiveGraph

TEST(LiveGraphTest, VersionedAddDelete) {
  LiveGraphStore store(4);
  ASSERT_TRUE(store.AddEdge(0, 1).ok());
  ASSERT_TRUE(store.AddEdge(0, 2).ok());
  const version_t v1 = store.CommitVersion();
  ASSERT_TRUE(store.DeleteEdge(0, 1).ok());
  const version_t v2 = store.CommitVersion();
  EXPECT_EQ(store.CountEdges(v1), 2u);
  EXPECT_EQ(store.CountEdges(v2), 1u);
  EXPECT_FALSE(store.DeleteEdge(0, 3).ok());
  EXPECT_FALSE(store.AddEdge(9, 0).ok());
}

TEST(LiveGraphTest, GrinSnapshotScan) {
  EdgeList list = datagen::GenerateUniform(100, 600, 4);
  auto store = LiveGraphStore::Build(list);
  auto g = store->GetSnapshot();
  size_t total = 0;
  for (vid_t v = 0; v < 100; ++v) {
    grin::ForEachAdj(*g, v, Direction::kOut, 0,
                     [&](vid_t, double, eid_t) { ++total; return true; });
  }
  EXPECT_EQ(total, 600u);
}

TEST(LiveGraphTest, MatchesGartLiveSet) {
  // Same random add/delete trace applied to both dynamic stores ends in the
  // same live edge set.
  GraphSchema schema;
  label_t v = schema.AddVertexLabel("V", {}).value();
  label_t e = schema.AddEdgeLabel("E", v, v, {}).value();
  auto gart = GartStore::Create(schema).value();
  LiveGraphStore live(50);
  for (oid_t i = 0; i < 50; ++i) ASSERT_TRUE(gart->AddVertex(v, i, {}).ok());
  Rng rng(17);
  std::set<std::pair<vid_t, vid_t>> reference;
  for (int k = 0; k < 800; ++k) {
    const vid_t s = static_cast<vid_t>(rng.Uniform(50));
    const vid_t d = static_cast<vid_t>(rng.Uniform(50));
    if (rng.Bernoulli(0.7) || !reference.count({s, d})) {
      if (!reference.count({s, d})) {
        ASSERT_TRUE(gart->AddEdge(e, s, d).ok());
        ASSERT_TRUE(live.AddEdge(s, d).ok());
        reference.insert({s, d});
      }
    } else {
      ASSERT_TRUE(gart->DeleteEdge(e, s, d).ok());
      ASSERT_TRUE(live.DeleteEdge(s, d).ok());
      reference.erase({s, d});
    }
  }
  gart->CommitVersion();
  live.CommitVersion();
  EXPECT_EQ(gart->CountEdges(e), reference.size());
  EXPECT_EQ(live.CountEdges(live.read_version()), reference.size());

  auto snap = gart->GetSnapshot();
  for (vid_t s = 0; s < 50; ++s) {
    std::set<vid_t> gart_nbrs;
    const vid_t gs = snap->FindVertex(v, s).value();
    grin::ForEachAdj(*snap, gs, Direction::kOut, e,
                     [&](vid_t n, double, eid_t) {
                       gart_nbrs.insert(static_cast<vid_t>(snap->GetOid(n)));
                       return true;
                     });
    std::set<vid_t> live_nbrs;
    live.ForEachOut(s, live.read_version(),
                    [&](vid_t n, double) { live_nbrs.insert(n); });
    EXPECT_EQ(gart_nbrs, live_nbrs) << "vertex " << s;
  }
}

// -------------------------------------------------------------- Encoding

TEST(EncodingTest, Int64DeltaRoundTrip) {
  std::vector<int64_t> values = {5, 6, 7, 100, -3, -3, 1000000, 0};
  std::vector<uint8_t> buf;
  graphar::EncodeInt64Chunk(values, &buf);
  std::vector<int64_t> out;
  ASSERT_TRUE(graphar::DecodeInt64Chunk(buf, values.size(), &out).ok());
  EXPECT_EQ(out, values);
}

TEST(EncodingTest, SortedIdsCompressWell) {
  std::vector<int64_t> ids(10000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i * 3);
  std::vector<uint8_t> buf;
  graphar::EncodeInt64Chunk(ids, &buf);
  // A constant-delta column is one RLE run: a handful of bytes total.
  EXPECT_LE(buf.size(), 16u);
  std::vector<int64_t> out;
  ASSERT_TRUE(graphar::DecodeInt64Chunk(buf, ids.size(), &out).ok());
  EXPECT_EQ(out, ids);
}

TEST(EncodingTest, RleRejectsCorruptRuns) {
  std::vector<int64_t> ids(100, 7);  // All-equal: RLE chosen.
  std::vector<uint8_t> buf;
  graphar::EncodeInt64Chunk(ids, &buf);
  std::vector<int64_t> out;
  // Claiming more rows than encoded must fail cleanly.
  EXPECT_FALSE(graphar::DecodeInt64Chunk(buf, 101, &out).ok());
}

TEST(EncodingTest, StringAndBoolRoundTrip) {
  std::vector<std::string> strs = {"", "a", "hello world", std::string(300, 'x')};
  std::vector<uint8_t> buf;
  graphar::EncodeStringChunk(strs, 0, strs.size(), &buf);
  std::vector<std::string> sout;
  ASSERT_TRUE(graphar::DecodeStringChunk(buf, strs.size(), &sout).ok());
  EXPECT_EQ(sout, strs);

  std::vector<uint8_t> bits = {1, 0, 0, 1, 1, 1, 0, 1, 1};
  buf.clear();
  graphar::EncodeBoolChunk(bits, &buf);
  EXPECT_EQ(buf.size(), 2u);  // 9 bools -> 2 bytes.
  std::vector<uint8_t> bout;
  ASSERT_TRUE(graphar::DecodeBoolChunk(buf, bits.size(), &bout).ok());
  EXPECT_EQ(bout, bits);
}

TEST(EncodingTest, TruncatedChunksFailCleanly) {
  std::vector<int64_t> values = {1, 20, 300, -5, 17};  // Irregular: plain.
  std::vector<uint8_t> buf;
  graphar::EncodeInt64Chunk(values, &buf);
  std::vector<int64_t> out;
  EXPECT_FALSE(graphar::DecodeInt64Chunk({buf.data(), buf.size() - 1},
                                         values.size(), &out)
                   .ok());
  std::vector<double> dout;
  EXPECT_FALSE(graphar::DecodeDoubleChunk({buf.data(), 4}, 3, &dout).ok());
}

// -------------------------------------------------------------- GraphAr

class GraphArRoundTrip : public ::testing::TestWithParam<size_t> {
 protected:
  std::string Path() const {
    return testing::TempDir() + "graphar_rt_" +
           std::to_string(GetParam()) + ".gar";
  }
};

TEST_P(GraphArRoundTrip, PreservesGraphData) {
  PropertyGraphData data = EcommerceData();
  ASSERT_TRUE(graphar::WriteGraphAr(Path(), data, GetParam()).ok());
  auto reader = graphar::GraphArReader::Open(Path()).value();
  PropertyGraphData loaded = reader->ReadAll().value();

  ASSERT_EQ(loaded.schema.vertex_label_num(), 2u);
  ASSERT_EQ(loaded.schema.edge_label_num(), 2u);
  EXPECT_EQ(loaded.total_vertices(), data.total_vertices());
  EXPECT_EQ(loaded.total_edges(), data.total_edges());
  // The loaded archive must build a store identical in shape.
  auto store = VineyardStore::Build(loaded).value();
  const label_t buyer = store->schema().FindVertexLabel("Buyer").value();
  const label_t buy = store->schema().FindEdgeLabel("BUY").value();
  const vid_t v2 = store->topology().FindVertex(buyer, 2).value();
  EXPECT_EQ(store->topology().OutNeighbors(v2, buy).size(), 2u);
  const auto& table = store->vertex_table(buyer);
  // Order may differ; both usernames must be present.
  std::multiset<std::string> names{table.Get(0, 0).AsString(),
                                   table.Get(1, 0).AsString()};
  EXPECT_EQ(names, (std::multiset<std::string>{"A1", "B2"}));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, GraphArRoundTrip,
                         ::testing::Values(1, 2, 3, 1024));

TEST(GraphArTest, ScanVerticesWithPushdown) {
  PropertyGraphData data = EcommerceData();
  const std::string path = testing::TempDir() + "graphar_scan.gar";
  ASSERT_TRUE(graphar::WriteGraphAr(path, data, 2).ok());
  auto reader = graphar::GraphArReader::Open(path).value();
  const label_t buyer = reader->schema().FindVertexLabel("Buyer").value();
  std::vector<oid_t> rich;
  ASSERT_TRUE(reader
                  ->ScanVertices(buyer,
                                 [&](oid_t oid,
                                     const std::vector<PropertyValue>& row) {
                                   if (row[1].AsInt64() >= 15) {
                                     rich.push_back(oid);
                                   }
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(rich, (std::vector<oid_t>{2}));
}

TEST(GraphArTest, FetchNeighborsUsesChunkIndex) {
  EdgeList list = datagen::GenerateUniform(500, 5000, 12);
  PropertyGraphData data = MakeSimpleGraphData(list, /*with_weights=*/false);
  const std::string path = testing::TempDir() + "graphar_nbrs.gar";
  ASSERT_TRUE(graphar::WriteGraphAr(path, data, 256).ok());
  auto reader = graphar::GraphArReader::Open(path).value();

  // Reference adjacency.
  std::multiset<oid_t> expected;
  for (const RawEdge& e : list.edges) {
    if (e.src == 123) expected.insert(static_cast<oid_t>(e.dst));
  }
  auto fetched = reader->FetchNeighbors(0, 123).value();
  EXPECT_EQ(std::multiset<oid_t>(fetched.begin(), fetched.end()), expected);
}

TEST(GraphArTest, OpenDirectServesTopologyAndLazyProperties) {
  PropertyGraphData data = EcommerceData();
  const std::string path = testing::TempDir() + "graphar_direct.gar";
  ASSERT_TRUE(graphar::WriteGraphAr(path, data, 2).ok());
  auto reader = graphar::GraphArReader::Open(path).value();
  auto g = reader->OpenDirect().value();
  EXPECT_EQ(g->backend_name(), "graphar");
  EXPECT_EQ(g->NumVertices(), 4u);
  const label_t buyer = g->schema().FindVertexLabel("Buyer").value();
  const label_t buy = g->schema().FindEdgeLabel("BUY").value();
  const vid_t v2 = g->FindVertex(buyer, 2).value();
  EXPECT_EQ(CollectNeighborOids(*g, v2, Direction::kOut, buy),
            (std::vector<oid_t>{3, 4}));
  EXPECT_EQ(g->GetVertexProperty(v2, 0).AsString(), "B2");
  // Edge property via in-edge ids.
  const label_t item = g->schema().FindVertexLabel("Item").value();
  const vid_t v4 = g->FindVertex(item, 4).value();
  std::multiset<int64_t> dates;
  grin::ForEachAdj(*g, v4, Direction::kIn, buy, [&](vid_t, double, eid_t e) {
    dates.insert(g->GetEdgeProperty(buy, e, 0).AsInt64());
    return true;
  });
  EXPECT_EQ(dates, (std::multiset<int64_t>{105}));
}

TEST(GraphArTest, FetchNeighborsOfUnknownSourceIsEmpty) {
  EdgeList list = datagen::GenerateUniform(100, 500, 2);
  PropertyGraphData data = MakeSimpleGraphData(list, false);
  const std::string path = testing::TempDir() + "graphar_missing.gar";
  ASSERT_TRUE(graphar::WriteGraphAr(path, data, 64).ok());
  auto reader = graphar::GraphArReader::Open(path).value();
  EXPECT_TRUE(reader->FetchNeighbors(0, 999999).value().empty());
  EXPECT_FALSE(reader->FetchNeighbors(5, 0).ok());  // Bad edge label.
}

TEST(GraphArTest, ScanVerticesEarlyStop) {
  PropertyGraphData data = EcommerceData();
  const std::string path = testing::TempDir() + "graphar_stop.gar";
  ASSERT_TRUE(graphar::WriteGraphAr(path, data, 1).ok());
  auto reader = graphar::GraphArReader::Open(path).value();
  size_t visited = 0;
  ASSERT_TRUE(reader
                  ->ScanVertices(0,
                                 [&](oid_t, const std::vector<PropertyValue>&) {
                                   return ++visited < 1;
                                 })
                  .ok());
  EXPECT_EQ(visited, 1u);
}

TEST(GraphArTest, OpenRejectsGarbage) {
  const std::string path = testing::TempDir() + "garbage.gar";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "this is not an archive";
  }
  EXPECT_EQ(graphar::GraphArReader::Open(path).status().code(),
            StatusCode::kIoError);
  EXPECT_FALSE(graphar::GraphArReader::Open("/nonexistent/x.gar").ok());
}

// ---------------------------------------------- Malformed GraphAr archives
//
// Each fixture writes a valid archive, patches one varint and expects the
// readers to return kIoError: a count read from the archive must be checked
// against the bytes that back it before it sizes an allocation or indexes
// another section's chunk table.

constexpr uint64_t kHuge = uint64_t{1} << 62;
constexpr uint64_t kMaxU64 = ~uint64_t{0};

/// An archive split into its named sections, written back with a fresh
/// directory, so one section can be patched in place.
struct Archive {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> sections;
  /// Directory offset to claim for one section instead of its real one.
  std::string bad_offset_section;
  uint64_t bad_offset = 0;

  static Archive Read(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    const std::vector<uint8_t> f((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
    uint64_t dir_offset;
    std::memcpy(&dir_offset, f.data() + f.size() - 12, sizeof(dir_offset));
    size_t pos = dir_offset;
    uint64_t n = 0, len = 0, offset = 0, size = 0;
    EXPECT_TRUE(GetVarint64(f.data(), f.size(), &pos, &n));
    Archive archive;
    for (uint64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(GetVarint64(f.data(), f.size(), &pos, &len));
      std::string name(f.begin() + pos, f.begin() + pos + len);
      pos += len;
      EXPECT_TRUE(GetVarint64(f.data(), f.size(), &pos, &offset));
      EXPECT_TRUE(GetVarint64(f.data(), f.size(), &pos, &size));
      archive.sections.emplace_back(
          std::move(name), std::vector<uint8_t>(f.begin() + offset,
                                                f.begin() + offset + size));
    }
    return archive;
  }

  std::vector<uint8_t>& operator[](const std::string& name) {
    for (auto& [section, bytes] : sections) {
      if (section == name) return bytes;
    }
    ADD_FAILURE() << "no section " << name;
    return sections.front().second;
  }

  void Write(const std::string& path) const {
    std::vector<uint8_t> f = {'G', 'A', 'R', '1'};
    std::vector<uint8_t> dir;
    PutVarint64(&dir, sections.size());
    for (const auto& [name, bytes] : sections) {
      PutVarint64(&dir, name.size());
      dir.insert(dir.end(), name.begin(), name.end());
      PutVarint64(&dir, name == bad_offset_section ? bad_offset : f.size());
      PutVarint64(&dir, bytes.size());
      f.insert(f.end(), bytes.begin(), bytes.end());
    }
    const uint64_t dir_offset = f.size();
    f.insert(f.end(), dir.begin(), dir.end());
    const auto* p = reinterpret_cast<const uint8_t*>(&dir_offset);
    f.insert(f.end(), p, p + sizeof(dir_offset));
    f.insert(f.end(), {'G', 'A', 'R', 'F'});
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(f.data()),
              static_cast<std::streamsize>(f.size()));
  }
};

/// Rewrites a column section (varint total rows, varint chunk count, then
/// per chunk varint rows, varint bytes, payload) with header field `field`
/// set to `value`: 0 = total rows, 1 = chunk count, 2 + 2c = chunk c's row
/// count, 3 + 2c = its byte count. `payload_edit`, if set, rewrites chunk
/// 0's payload first; its byte count follows.
std::vector<uint8_t> PatchSection(
    const std::vector<uint8_t>& section, size_t field, uint64_t value,
    const std::function<void(std::vector<uint8_t>*)>& payload_edit = {}) {
  std::vector<uint8_t> out;
  size_t pos = 0;
  size_t next_field = 0;
  auto copy = [&](uint64_t v) {
    PutVarint64(&out, next_field++ == field ? value : v);
  };
  uint64_t total = 0, nchunks = 0, nrows = 0, nbytes = 0;
  EXPECT_TRUE(GetVarint64(section.data(), section.size(), &pos, &total));
  EXPECT_TRUE(GetVarint64(section.data(), section.size(), &pos, &nchunks));
  copy(total);
  copy(nchunks);
  for (uint64_t c = 0; c < nchunks; ++c) {
    EXPECT_TRUE(GetVarint64(section.data(), section.size(), &pos, &nrows));
    EXPECT_TRUE(GetVarint64(section.data(), section.size(), &pos, &nbytes));
    std::vector<uint8_t> payload(section.begin() + pos,
                                 section.begin() + pos + nbytes);
    pos += nbytes;
    if (c == 0 && payload_edit) payload_edit(&payload);
    copy(nrows);
    copy(payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

/// Replaces the varint starting at `*payload`[pos] with `value`.
void PatchVarintAt(std::vector<uint8_t>* payload, size_t pos, uint64_t value) {
  size_t end = pos;
  uint64_t old = 0;
  ASSERT_TRUE(GetVarint64(payload->data(), payload->size(), &end, &old));
  std::vector<uint8_t> encoded;
  PutVarint64(&encoded, value);
  payload->erase(payload->begin() + pos, payload->begin() + end);
  payload->insert(payload->begin() + pos, encoded.begin(), encoded.end());
}

/// Writes `data` as an archive, patches it with `patch` and reopens it.
std::unique_ptr<graphar::GraphArReader> Malformed(
    const PropertyGraphData& data, size_t chunk_size, const std::string& name,
    const std::function<void(Archive*)>& patch) {
  const std::string path = testing::TempDir() + "malformed_" + name + ".gar";
  EXPECT_TRUE(graphar::WriteGraphAr(path, data, chunk_size).ok());
  Archive archive = Archive::Read(path);
  patch(&archive);
  archive.Write(path);
  auto reader = graphar::GraphArReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return reader.ok() ? std::move(reader).value() : nullptr;
}

TEST(MalformedGraphArTest, ValidArchiveRoundTripsThroughThePatcher) {
  // The patcher itself changes nothing when it rewrites a field as is.
  auto reader = Malformed(EcommerceData(), 2, "identity", [](Archive* a) {
    (*a)["v/Buyer/oid"] = PatchSection((*a)["v/Buyer/oid"], 0, 2);
  });
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->ReadAll().value().total_edges(), 4u);
  EXPECT_TRUE(reader->OpenDirect().ok());
}

TEST(MalformedGraphArTest, OpenRejectsADirectoryExtentThatWraps) {
  const std::string path = testing::TempDir() + "malformed_extent.gar";
  ASSERT_TRUE(graphar::WriteGraphAr(path, EcommerceData()).ok());
  Archive archive = Archive::Read(path);
  // offset + length wraps to a small number, and the section would start
  // eight bytes before the file.
  archive.bad_offset_section = "schema";
  archive.bad_offset = kMaxU64 - 7;
  archive.Write(path);
  EXPECT_EQ(graphar::GraphArReader::Open(path).status().code(),
            StatusCode::kIoError);
}

TEST(MalformedGraphArTest, ChunkTableBeyondTheSectionIsAnIoError) {
  // A chunk count no section could hold, then a chunk byte count that
  // wraps pos + nbytes back inside the section.
  for (const auto& [field, value] :
       {std::pair<size_t, uint64_t>{1, kHuge}, {3, kMaxU64}}) {
    SCOPED_TRACE(field);
    auto reader = Malformed(EcommerceData(), 1, "chunk_table", [&](Archive* a) {
      (*a)["v/Buyer/oid"] = PatchSection((*a)["v/Buyer/oid"], field, value);
    });
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kIoError);
    EXPECT_EQ(reader->OpenDirect().status().code(), StatusCode::kIoError);
  }
}

TEST(MalformedGraphArTest, ScanRejectsAColumnChunkedUnlikeItsOids) {
  // One Buyer per chunk; the credits column claims only its first chunk.
  auto reader = Malformed(EcommerceData(), 1, "scan", [](Archive* a) {
    (*a)["v/Buyer/p1"] = PatchSection((*a)["v/Buyer/p1"], 1, 1);
  });
  ASSERT_NE(reader, nullptr);
  const label_t buyer = reader->schema().FindVertexLabel("Buyer").value();
  EXPECT_EQ(reader
                ->ScanVertices(buyer,
                               [](oid_t, const std::vector<PropertyValue>&) {
                                 return true;
                               })
                .code(),
            StatusCode::kIoError);
  EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kIoError);
}

TEST(MalformedGraphArTest, FetchRejectsAChunkIndexLongerThanItsColumns) {
  EdgeList list = datagen::GenerateUniform(100, 500, 5);
  PropertyGraphData data = MakeSimpleGraphData(list, /*with_weights=*/false);
  // The src column claims one chunk while the index still lists eight.
  auto reader = Malformed(data, 64, "fetch", [](Archive* a) {
    (*a)["e/E/src"] = PatchSection((*a)["e/E/src"], 1, 1);
  });
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->FetchNeighbors(0, 99).status().code(),
            StatusCode::kIoError);
}

TEST(MalformedGraphArTest, DoubleChunkRowCountThatWrapsIsAnIoError) {
  // (2^61 + 1) * 8 wraps to 8, which one stored price covers.
  auto reader = Malformed(EcommerceData(), 1, "double", [](Archive* a) {
    (*a)["v/Item/p0"] =
        PatchSection((*a)["v/Item/p0"], 2, (uint64_t{1} << 61) + 1);
  });
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kIoError);
}

TEST(MalformedGraphArTest, StringLengthThatWrapsIsAnIoError) {
  auto reader = Malformed(EcommerceData(), 2, "string", [](Archive* a) {
    // The first username's length varint: pos + len wraps.
    (*a)["v/Buyer/p0"] = PatchSection(
        (*a)["v/Buyer/p0"], 0, 2, [](std::vector<uint8_t>* payload) {
          PatchVarintAt(payload, 0, kMaxU64);
        });
  });
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kIoError);
}

/// One label whose oids 0..49, 100..149 encode as a four-run RLE chunk.
PropertyGraphData TwoRunOids() {
  PropertyGraphData data;
  const label_t v = data.schema.AddVertexLabel("V", {}).value();
  for (oid_t i = 0; i < 50; ++i) data.AddVertex(v, i, {});
  for (oid_t i = 100; i < 150; ++i) data.AddVertex(v, i, {});
  return data;
}

TEST(MalformedGraphArTest, Int64RowCountIsCheckedBeforeItSizesAnything) {
  auto reader = Malformed(TwoRunOids(), 1024, "int64_rows", [](Archive* a) {
    (*a)["v/V/oid"] = PatchSection((*a)["v/V/oid"], 2, kHuge);
  });
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kIoError);
  EXPECT_EQ(reader->OpenDirect().status().code(), StatusCode::kIoError);
}

TEST(MalformedGraphArTest, RleRunThatWrapsIsAnIoError) {
  auto reader = Malformed(TwoRunOids(), 1024, "rle_run", [](Archive* a) {
    (*a)["v/V/oid"] = PatchSection(
        (*a)["v/V/oid"], 0, 100, [](std::vector<uint8_t>* payload) {
          ASSERT_EQ((*payload)[0], 1);  // RLE: mode, then (run, delta)s.
          size_t pos = 1;
          uint64_t run = 0;
          int64_t delta = 0;
          ASSERT_TRUE(GetVarint64(payload->data(), payload->size(), &pos,
                                  &run));
          ASSERT_TRUE(GetVarintSigned(payload->data(), payload->size(), &pos,
                                      &delta));
          // produced (1) + run wraps to 0 unless checked as run > 100 - 1.
          PatchVarintAt(payload, pos, kMaxU64);
        });
  });
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kIoError);
  EXPECT_EQ(reader->OpenDirect().status().code(), StatusCode::kIoError);
}

// ------------------------------------------------------------------ CSV

TEST(CsvTest, RoundTrip) {
  PropertyGraphData data = EcommerceData();
  const std::string dir = testing::TempDir() + "csv_rt";
  ASSERT_TRUE(graphar::WriteCsv(dir, data).ok());
  PropertyGraphData loaded = graphar::ReadCsv(dir, data.schema).value();
  EXPECT_EQ(loaded.total_vertices(), data.total_vertices());
  EXPECT_EQ(loaded.total_edges(), data.total_edges());
  EXPECT_EQ(loaded.vertices[0].rows[0][0].AsString(), "A1");
  EXPECT_DOUBLE_EQ(loaded.vertices[1].rows[0][0].AsDouble(), 9.5);
  EXPECT_EQ(loaded.edges[1].rows[2][0].AsInt64(), 105);
}

TEST(CsvTest, MissingFileErrors) {
  GraphSchema schema;
  ASSERT_TRUE(schema.AddVertexLabel("Ghost", {}).ok());
  EXPECT_EQ(graphar::ReadCsv("/nonexistent_dir_xyz", schema).status().code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------- GRIN negotiation

TEST(GrinNegotiationTest, BackendsAdvertiseDifferentTraits) {
  PropertyGraphData data = EcommerceData();
  auto vineyard = VineyardStore::Build(data).value();
  auto vg = vineyard->GetGrinHandle();
  EXPECT_TRUE(vg->RequireTraits(grin::kPropertyColumnArray).ok());

  GraphSchema simple_schema;
  label_t v = simple_schema.AddVertexLabel("V", {}).value();
  simple_schema.AddEdgeLabel("E", v, v, {}).value();
  auto gart = GartStore::Create(simple_schema).value();
  auto gs = gart->GetSnapshot();
  // GART cannot provide contiguous columns or vertex ranges.
  EXPECT_EQ(gs->RequireTraits(grin::kPropertyColumnArray).code(),
            StatusCode::kCapabilityMissing);
  EXPECT_EQ(gs->RequireTraits(grin::kVertexListArray).code(),
            StatusCode::kCapabilityMissing);
  // But both honour the iterator trait, so one engine serves both.
  EXPECT_TRUE(vg->RequireTraits(grin::kAdjacentListIterator).ok());
  EXPECT_TRUE(gs->RequireTraits(grin::kAdjacentListIterator).ok());
}

TEST(GrinNegotiationTest, SameAlgorithmRunsOnAllBackends) {
  // A tiny "count all edges via GRIN" engine, run unchanged on three
  // backends — the essence of Exp-1/Fig 7(a).
  EdgeList list = datagen::GenerateUniform(300, 3000, 21);
  PropertyGraphData data = MakeSimpleGraphData(list);
  auto vineyard = VineyardStore::Build(data).value();
  auto gart = GartStore::Build(data).value();
  const std::string path = testing::TempDir() + "grin_all.gar";
  ASSERT_TRUE(graphar::WriteGraphAr(path, data).ok());
  auto reader = graphar::GraphArReader::Open(path).value();

  auto count_edges = [](const grin::GrinGraph& g) {
    size_t total = 0;
    for (vid_t v = 0; v < g.NumVertices(); ++v) {
      grin::ForEachAdj(g, v, Direction::kOut, 0,
                       [&](vid_t, double, eid_t) { ++total; return true; });
    }
    return total;
  };
  EXPECT_EQ(count_edges(*vineyard->GetGrinHandle()), 3000u);
  EXPECT_EQ(count_edges(*gart->GetSnapshot()), 3000u);
  EXPECT_EQ(count_edges(*reader->OpenDirect().value()), 3000u);
}

}  // namespace
}  // namespace flex::storage
