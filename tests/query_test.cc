#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/random.h"
#include "lang/cypher.h"
#include "lang/gremlin.h"
#include "optimizer/optimizer.h"
#include "query/interpreter.h"
#include "query/service.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::query {
namespace {

/// E-commerce graph: 4 Buyers, 4 Items, KNOWS among buyers, BUY edges
/// with dates. Buyer 1 knows 2; 2 knows 3; buys form co-purchases.
PropertyGraphData ShopData() {
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
  const char* names[] = {"A1", "B2", "C3", "D4"};
  for (oid_t i = 1; i <= 4; ++i) {
    data.AddVertex(buyer, i,
                   {PropertyValue(names[i - 1]), PropertyValue(i * 10)});
  }
  for (oid_t i = 101; i <= 104; ++i) {
    data.AddVertex(item, i, {PropertyValue(0.5 * (i - 100))});
  }
  data.AddEdge(knows, 1, 2, {});
  data.AddEdge(knows, 2, 3, {});
  // Buys: 1->101@d1, 2->101@d3, 2->102@d4, 3->102@d9, 4->103@d5, 1->103@d2.
  data.AddEdge(buy, 1, 101, {PropertyValue(int64_t{1})});
  data.AddEdge(buy, 2, 101, {PropertyValue(int64_t{3})});
  data.AddEdge(buy, 2, 102, {PropertyValue(int64_t{4})});
  data.AddEdge(buy, 3, 102, {PropertyValue(int64_t{9})});
  data.AddEdge(buy, 4, 103, {PropertyValue(int64_t{5})});
  data.AddEdge(buy, 1, 103, {PropertyValue(int64_t{2})});
  return data;
}

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = storage::VineyardStore::Build(ShopData()).value();
    graph_ = store_->GetGrinHandle();
  }

  Result<std::vector<ir::Row>> RunCypher(const std::string& text,
                                         std::vector<PropertyValue> params = {},
                                         bool optimize = true) {
    auto plan = lang::ParseCypher(text, graph_->schema());
    if (!plan.ok()) return plan.status();
    Interpreter interp(graph_.get());
    ExecOptions opts;
    opts.params = std::move(params);
    if (!optimize) return interp.Run(plan.value(), opts);
    auto catalog = optimizer::Catalog::Build(*graph_);
    ir::Plan optimized = optimizer::Optimize(plan.value(), &catalog);
    return interp.Run(optimized, opts);
  }

  /// Runs `text` through QueryService on Gaia (4 workers) and on HiActor,
  /// and through NaiveGraphDB. Expects every run to succeed with the same
  /// rendered rows and returns them.
  std::vector<std::string> RunEverywhere(
      Language lang, const std::string& text,
      const std::vector<PropertyValue>& params = {}) {
    SCOPED_TRACE(text);
    std::vector<std::vector<std::string>> results;
    QueryService service(graph_.get(), 4);
    for (EngineKind engine : {EngineKind::kGaia, EngineKind::kHiActor}) {
      auto rows = service.Run(lang, text, engine, params);
      EXPECT_TRUE(rows.ok()) << rows.status().ToString();
      if (rows.ok()) results.push_back(RowsToStrings(rows.value()));
    }
    NaiveGraphDB naive(graph_.get());
    auto rows = naive.Run(lang, text, params);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) results.push_back(RowsToStrings(rows.value()));
    if (results.size() != 3) return {"<failed>"};
    EXPECT_EQ(results[0], results[2]) << "Gaia vs NaiveGraphDB";
    EXPECT_EQ(results[1], results[2]) << "HiActor vs NaiveGraphDB";
    return results[2];
  }

  std::unique_ptr<storage::VineyardStore> store_;
  std::unique_ptr<grin::GrinGraph> graph_;
};

// --------------------------------------------------------------- Cypher

TEST_F(QueryTest, SimpleScanWithFilter) {
  auto rows = RunCypher(
      "MATCH (b:Buyer) WHERE b.credits >= 30 RETURN b.username "
      "ORDER BY b.username");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto lines = RowsToStrings(rows.value());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "C3");
  EXPECT_EQ(lines[1], "D4");
}

TEST_F(QueryTest, PropertyMapFilterInNode) {
  auto rows = RunCypher("MATCH (b:Buyer {username: 'B2'}) RETURN b.credits");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(std::get<PropertyValue>(rows.value()[0][0]).AsInt64(), 20);
}

TEST_F(QueryTest, OneHopExpand) {
  // Items purchased by friends of buyer 1 (the paper's Figure 5 query).
  auto rows = RunCypher(
      "MATCH (a:Buyer {id: 1})-[:KNOWS]->(b:Buyer)-[:BUY]->(c:Item) "
      "RETURN c.price ORDER BY c.price");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto lines = RowsToStrings(rows.value());
  ASSERT_EQ(lines.size(), 2u);  // Buyer 2 bought items 101 and 102.
  EXPECT_EQ(std::get<PropertyValue>(rows.value()[0][0]).AsDouble(), 0.5);
  EXPECT_EQ(std::get<PropertyValue>(rows.value()[1][0]).AsDouble(), 1.0);
}

TEST_F(QueryTest, ReverseAndUndirectedHops) {
  // Who bought item 101? (reverse expansion)
  auto rows = RunCypher(
      "MATCH (i:Item {id: 101})<-[:BUY]-(b:Buyer) RETURN b.username "
      "ORDER BY b.username");
  ASSERT_TRUE(rows.ok());
  auto lines = RowsToStrings(rows.value());
  EXPECT_EQ(lines, (std::vector<std::string>{"A1", "B2"}));

  // Undirected KNOWS around buyer 2: buyers 1 and 3.
  auto rows2 = RunCypher(
      "MATCH (b:Buyer {id: 2})-[:KNOWS]-(f:Buyer) RETURN f.username "
      "ORDER BY f.username");
  ASSERT_TRUE(rows2.ok());
  EXPECT_EQ(RowsToStrings(rows2.value()),
            (std::vector<std::string>{"A1", "C3"}));
}

TEST_F(QueryTest, CoPurchasePatternWithCycleClose) {
  // Co-purchasers: (a)-[:BUY]->(i)<-[:BUY]-(b), a fixed to 1.
  auto rows = RunCypher(
      "MATCH (a:Buyer {id: 1})-[:BUY]->(i:Item)<-[:BUY]-(b:Buyer) "
      "WHERE b.id <> 1 RETURN b.username, i.id ORDER BY b.username");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto lines = RowsToStrings(rows.value());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "B2 | 101");  // Via item 101.
  EXPECT_EQ(lines[1], "D4 | 103");  // Via item 103.
}

TEST_F(QueryTest, AggregationWithGrouping) {
  auto rows = RunCypher(
      "MATCH (b:Buyer)-[:BUY]->(i:Item) "
      "RETURN b.username, count(i) AS purchases, sum(i.price) AS total "
      "ORDER BY b.username");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto lines = RowsToStrings(rows.value());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "A1 | 2 | 2");      // Items 101 (0.5) + 103 (1.5).
  EXPECT_EQ(lines[1], "B2 | 2 | 1.500000");  // 0.5 + 1.0.
}

TEST_F(QueryTest, EdgePropertiesAndArithmetic) {
  // Pairs buying the same item within 2 days.
  auto rows = RunCypher(
      "MATCH (a:Buyer)-[b1:BUY]->(i:Item)<-[b2:BUY]-(s:Buyer) "
      "WHERE a.id < s.id AND b1.date - b2.date < 2 AND "
      "b2.date - b1.date < 2 RETURN a.id, s.id, i.id ORDER BY a.id");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // 1 & 2 on item 101: dates 1 vs 3 -> diff 2, not < 2. Excluded.
  // 2 & 3 on 102: 4 vs 9 -> no. 1 & 4 on 103: 2 vs 5 -> no.
  EXPECT_TRUE(rows.value().empty());

  auto rows2 = RunCypher(
      "MATCH (a:Buyer)-[b1:BUY]->(i:Item)<-[b2:BUY]-(s:Buyer) "
      "WHERE a.id < s.id AND b1.date - b2.date < 3 AND "
      "b2.date - b1.date < 3 RETURN a.id, s.id, i.id");
  ASSERT_TRUE(rows2.ok());
  ASSERT_EQ(rows2.value().size(), 1u);  // Now 1 & 2 via 101 qualify.
  EXPECT_EQ(RowsToStrings(rows2.value())[0], "1 | 2 | 101");
}

TEST_F(QueryTest, InListAndParameters) {
  auto rows = RunCypher(
      "MATCH (b:Buyer) WHERE b.id IN [2, 4, 9] RETURN b.id ORDER BY b.id");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(RowsToStrings(rows.value()),
            (std::vector<std::string>{"2", "4"}));

  auto rows2 = RunCypher(
      "MATCH (b:Buyer {id: $0})-[:BUY]->(i:Item) RETURN count(i)",
      {PropertyValue(int64_t{2})});
  ASSERT_TRUE(rows2.ok());
  EXPECT_EQ(RowsToStrings(rows2.value())[0], "2");
}

TEST_F(QueryTest, MultiStageWithPipeline) {
  // The fraud-detection query shape: two MATCH..WITH stages + threshold.
  const std::string query =
      "MATCH (v:Buyer {id: $0})-[b1:BUY]->(:Item)<-[b2:BUY]-(s:Buyer) "
      "WHERE s.id IN [2, 4] WITH v, count(s) AS cnt1 "
      "MATCH (v)-[:KNOWS]-(f:Buyer), (f)-[b3:BUY]->(:Item)<-[b4:BUY]-(t:Buyer) "
      "WHERE t.id IN [1, 3] WITH v, cnt1, count(t) AS cnt2 "
      "WHERE 1 * cnt1 + 2 * cnt2 > 2 RETURN id(v), cnt1, cnt2";
  auto rows = RunCypher(query, {PropertyValue(int64_t{1})});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // v=1: direct co-purchasers in seeds {2,4}: item101 -> s=2; item103 ->
  // s=4 => cnt1=2. Friends of 1: f=2 (KNOWS undirected). f=2 buys
  // 101, 102; co-purchasers in {1,3}: 101 -> 1; 102 -> 3 => cnt2=2.
  // Score 1*2 + 2*2 = 6 > 2 -> alert row.
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(RowsToStrings(rows.value())[0], "1 | 2 | 2");
}

TEST_F(QueryTest, ParseErrors) {
  EXPECT_EQ(RunCypher("MATCH (a:Nope) RETURN a").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(RunCypher("MATCH (a:Buyer) WHERE x.id = 1 RETURN a")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(RunCypher("MATCH (a:Buyer)").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(RunCypher("FROB (a)").status().code(), StatusCode::kParseError);
}

// -------------------------------------------------------------- Gremlin

TEST_F(QueryTest, GremlinTraversal) {
  auto plan = lang::ParseGremlin(
      "g.V().hasLabel('Buyer').has('id', 1).out('KNOWS').out('BUY')"
      ".values('price')",
      graph_->schema());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Interpreter interp(graph_.get());
  auto rows = interp.Run(plan.value());
  ASSERT_TRUE(rows.ok());
  std::vector<double> prices;
  for (const auto& row : rows.value()) {
    prices.push_back(std::get<PropertyValue>(row[0]).AsDouble());
  }
  std::sort(prices.begin(), prices.end());
  EXPECT_EQ(prices, (std::vector<double>{0.5, 1.0}));
}

TEST_F(QueryTest, GremlinCountDedupLimit) {
  auto plan = lang::ParseGremlin(
      "g.V().hasLabel('Item').in('BUY').dedup().count()", graph_->schema());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Interpreter interp(graph_.get());
  auto rows = interp.Run(plan.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(RowsToStrings(rows.value())[0], "4");  // All four buyers buy.

  auto plan2 = lang::ParseGremlin("g.V().hasLabel('Buyer').limit(2).count()",
                                  graph_->schema());
  auto rows2 = interp.Run(plan2.value());
  EXPECT_EQ(RowsToStrings(rows2.value())[0], "2");
}

TEST_F(QueryTest, GremlinOrderByAndPredicates) {
  auto plan = lang::ParseGremlin(
      "g.V().hasLabel('Buyer').has('credits', gt(10)).order().by('credits', "
      "desc).values('username')",
      graph_->schema());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Interpreter interp(graph_.get());
  auto rows = interp.Run(plan.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(RowsToStrings(rows.value()),
            (std::vector<std::string>{"D4", "C3", "B2"}));
}

TEST_F(QueryTest, GremlinAndCypherAgree) {
  // The paper's Figure 5 pair: same semantics through both front ends.
  auto gremlin_plan = lang::ParseGremlin(
      "g.V().hasLabel('Buyer').has('id', 1).out('KNOWS').out('BUY')"
      ".values('price')",
      graph_->schema());
  ASSERT_TRUE(gremlin_plan.ok());
  Interpreter interp(graph_.get());
  auto g_rows = interp.Run(gremlin_plan.value()).value();

  auto c_rows = RunCypher(
                    "MATCH (a:Buyer {id: 1})-[:KNOWS]->(b:Buyer)"
                    "-[:BUY]->(c:Item) RETURN c.price")
                    .value();
  auto sorted = [](std::vector<ir::Row> rows) {
    auto lines = RowsToStrings(rows);
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(sorted(g_rows), sorted(c_rows));
}

// ------------------------------------------------------------ Optimizer

TEST_F(QueryTest, FusionPreservesResults) {
  const std::string query =
      "MATCH (a:Buyer {id: 1})-[:KNOWS]->(b:Buyer)-[:BUY]->(c:Item) "
      "RETURN c.price ORDER BY c.price";
  auto logical = lang::ParseCypher(query, graph_->schema()).value();
  // Unfused logical plan has EXPAND_EDGE ops; fused one has none.
  optimizer::OptimizerOptions no_fuse;
  no_fuse.edge_vertex_fusion = false;
  no_fuse.cbo = false;
  optimizer::OptimizerOptions fuse;
  fuse.cbo = false;
  auto catalog = optimizer::Catalog::Build(*graph_);
  ir::Plan unfused = optimizer::Optimize(logical, &catalog, no_fuse);
  ir::Plan fused = optimizer::Optimize(logical, &catalog, fuse);

  size_t unfused_pairs = 0, fused_expands = 0;
  for (const auto& op : unfused.ops) {
    unfused_pairs += op.kind == ir::OpKind::kExpandEdge;
  }
  for (const auto& op : fused.ops) {
    fused_expands += op.kind == ir::OpKind::kExpand;
    EXPECT_NE(op.kind, ir::OpKind::kExpandEdge) << fused.ToString();
  }
  EXPECT_EQ(unfused_pairs, 2u);
  EXPECT_EQ(fused_expands, 2u);

  Interpreter interp(graph_.get());
  EXPECT_EQ(RowsToStrings(interp.Run(unfused).value()),
            RowsToStrings(interp.Run(fused).value()));
}

TEST_F(QueryTest, FusionSkipsReferencedEdges) {
  // b1 is referenced by the WHERE: its pair must NOT fuse.
  const std::string query =
      "MATCH (a:Buyer)-[b1:BUY]->(i:Item) WHERE b1.date > 3 "
      "RETURN a.id, i.id ORDER BY a.id";
  auto logical = lang::ParseCypher(query, graph_->schema()).value();
  ir::Plan optimized = optimizer::Optimize(logical, nullptr);
  bool has_pair = false;
  for (const auto& op : optimized.ops) {
    has_pair |= op.kind == ir::OpKind::kExpandEdge;
  }
  EXPECT_TRUE(has_pair);
  Interpreter interp(graph_.get());
  auto rows = interp.Run(optimized).value();
  EXPECT_EQ(RowsToStrings(rows),
            (std::vector<std::string>{"2 | 102", "3 | 102", "4 | 103"}));
}

TEST_F(QueryTest, FilterPushShrinksPlanAndPreservesResults) {
  const std::string query =
      "MATCH (a:Buyer)-[:BUY]->(i:Item) WHERE a.credits > 15 "
      "RETURN a.id, i.id ORDER BY a.id, i.id";
  auto logical = lang::ParseCypher(query, graph_->schema()).value();
  optimizer::OptimizerOptions push;
  push.cbo = false;
  optimizer::OptimizerOptions no_push = push;
  no_push.filter_push_into_match = false;
  ir::Plan pushed = optimizer::Optimize(logical, nullptr, push);
  ir::Plan unpushed = optimizer::Optimize(logical, nullptr, no_push);

  size_t pushed_selects = 0, unpushed_selects = 0;
  for (const auto& op : pushed.ops) {
    pushed_selects += op.kind == ir::OpKind::kSelect;
  }
  for (const auto& op : unpushed.ops) {
    unpushed_selects += op.kind == ir::OpKind::kSelect;
  }
  EXPECT_LT(pushed_selects, unpushed_selects);

  Interpreter interp(graph_.get());
  EXPECT_EQ(RowsToStrings(interp.Run(pushed).value()),
            RowsToStrings(interp.Run(unpushed).value()));
}

TEST_F(QueryTest, CboReordersAndPreservesResults) {
  // Pattern written backwards: starts from all Items, the id filter sits
  // on the far end. CBO should restart from the filtered Buyer.
  const std::string query =
      "MATCH (i:Item)<-[:BUY]-(b:Buyer)<-[:KNOWS]-(a:Buyer) "
      "WHERE a.id = 1 RETURN i.id ORDER BY i.id";
  auto logical = lang::ParseCypher(query, graph_->schema()).value();
  auto catalog = optimizer::Catalog::Build(*graph_);
  optimizer::OptimizerOptions with_cbo;
  optimizer::OptimizerOptions no_cbo;
  no_cbo.cbo = false;
  ir::Plan cbo_plan = optimizer::Optimize(logical, &catalog, with_cbo);
  ir::Plan base_plan = optimizer::Optimize(logical, &catalog, no_cbo);

  // CBO must move the selective scan to the front: the first op's label
  // becomes Buyer instead of Item.
  const label_t buyer = graph_->schema().FindVertexLabel("Buyer").value();
  ASSERT_EQ(cbo_plan.ops[0].kind, ir::OpKind::kScan);
  EXPECT_EQ(cbo_plan.ops[0].label, buyer) << cbo_plan.ToString();

  Interpreter interp(graph_.get());
  EXPECT_EQ(RowsToStrings(interp.Run(cbo_plan).value()),
            RowsToStrings(interp.Run(base_plan).value()));
  EXPECT_EQ(RowsToStrings(interp.Run(cbo_plan).value()),
            (std::vector<std::string>{"101", "102"}));
}

// -------------------------------------------------------------- Engines

TEST_F(QueryTest, GaiaMatchesSingleThreaded) {
  QueryService service(graph_.get(), 4);
  const std::string query =
      "MATCH (b:Buyer)-[:BUY]->(i:Item) "
      "RETURN b.username, count(i) AS n ORDER BY b.username";
  auto gaia_rows = service.Run(Language::kCypher, query, EngineKind::kGaia);
  ASSERT_TRUE(gaia_rows.ok()) << gaia_rows.status().ToString();
  NaiveGraphDB naive(graph_.get());
  auto naive_rows = naive.Run(Language::kCypher, query);
  ASSERT_TRUE(naive_rows.ok());
  EXPECT_EQ(RowsToStrings(gaia_rows.value()),
            RowsToStrings(naive_rows.value()));
}

TEST_F(QueryTest, HiActorStoredProcedureThroughput) {
  QueryService service(graph_.get(), 3);
  ASSERT_TRUE(service
                  .RegisterProcedure(
                      "friend_items", Language::kCypher,
                      "MATCH (a:Buyer {id: $0})-[:KNOWS]-(b:Buyer)"
                      "-[:BUY]->(i:Item) RETURN count(i)")
                  .ok());
  std::vector<std::future<Result<std::vector<ir::Row>>>> futures;
  for (int i = 0; i < 200; ++i) {
    auto fut = service.hiactor().SubmitProcedure(
        "friend_items", {PropertyValue(int64_t{1 + i % 4})});
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(fut).value());
  }
  size_t nonzero = 0;
  for (auto& fut : futures) {
    auto rows = fut.get();
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().size(), 1u);
    nonzero +=
        std::get<PropertyValue>(rows.value()[0][0]).AsInt64() > 0 ? 1 : 0;
  }
  EXPECT_EQ(service.hiactor().completed(), 200u);
  EXPECT_GT(nonzero, 0u);
  EXPECT_FALSE(
      service.hiactor().SubmitProcedure("missing", {}).ok());
}

TEST_F(QueryTest, HiActorMatchesGaia) {
  QueryService service(graph_.get(), 2);
  const std::string query =
      "MATCH (a:Buyer {id: 2})-[:BUY]->(i:Item)<-[:BUY]-(b:Buyer) "
      "RETURN b.id ORDER BY b.id";
  auto a = service.Run(Language::kCypher, query, EngineKind::kGaia);
  auto b = service.Run(Language::kCypher, query, EngineKind::kHiActor);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(RowsToStrings(a.value()), RowsToStrings(b.value()));
}

TEST_F(QueryTest, VariableLengthPaths) {
  // KNOWS chain: 1 -> 2 -> 3. Paths of length 1..2 from buyer 1 reach
  // buyer 2 (1 hop) and buyer 3 (2 hops).
  auto rows = RunCypher(
      "MATCH (a:Buyer {id: 1})-[:KNOWS*1..2]->(b:Buyer) "
      "RETURN b.id ORDER BY b.id");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(RowsToStrings(rows.value()),
            (std::vector<std::string>{"2", "3"}));

  // Exact length *2 only reaches buyer 3.
  auto exact = RunCypher(
      "MATCH (a:Buyer {id: 1})-[:KNOWS*2]->(b:Buyer) RETURN b.id");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(RowsToStrings(exact.value()), (std::vector<std::string>{"3"}));

  // Undirected *1..2 from buyer 2 reaches 1 and 3 once each and, via
  // back-and-forth being forbidden (relationship uniqueness), nothing
  // else.
  auto both = RunCypher(
      "MATCH (a:Buyer {id: 2})-[:KNOWS*1..2]-(b:Buyer) "
      "RETURN b.id ORDER BY b.id");
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(RowsToStrings(both.value()),
            (std::vector<std::string>{"1", "3"}));
}

TEST_F(QueryTest, CountDistinct) {
  // Buyers who co-purchased with buyer 1 across any item: buyer 2 via
  // item 101 and buyer 4 via item 103 — and buyer 1 itself twice.
  auto plain = RunCypher(
      "MATCH (a:Buyer {id: 1})-[:BUY]->(i:Item)<-[:BUY]-(s:Buyer) "
      "RETURN count(s)");
  auto distinct = RunCypher(
      "MATCH (a:Buyer {id: 1})-[:BUY]->(i:Item)<-[:BUY]-(s:Buyer) "
      "RETURN count(DISTINCT s.id)");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(RowsToStrings(plain.value())[0], "4");     // 1,2 via 101; 1,4 via 103.
  EXPECT_EQ(RowsToStrings(distinct.value())[0], "3");  // {1, 2, 4}.
}

// ------------------------------------------------ Edge-case semantics

TEST_F(QueryTest, CartesianWithEmptySideYieldsNoRows) {
  // A later scan extends every input row; with no rows to extend it must
  // yield none instead of restarting as a leading scan.
  const std::vector<std::string> none;
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (a:Buyer {id: 999}), (b:Item) "
                          "RETURN a.username, b.price"),
            none);
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (a:Buyer) WHERE a.credits > 1000 "
                          "MATCH (b:Item) RETURN a.username, b.price"),
            none);
  // The same after a blocking operator, where Gaia runs the scan in its
  // post-exchange suffix.
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (a:Buyer) WHERE a.credits > 1000 "
                          "WITH a.username AS u, count(a) AS c "
                          "MATCH (b:Item) RETURN u, c, b.price"),
            none);
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (a:Buyer {id: 1}), (b:Item) "
                          "RETURN a.username, b.price"),
            (std::vector<std::string>{"A1 | 0.500000", "A1 | 1.000000",
                                      "A1 | 1.500000", "A1 | 2.000000"}));
}

TEST_F(QueryTest, LimitZeroReturnsNoRows) {
  const std::vector<std::string> none;
  EXPECT_EQ(RunEverywhere(Language::kGremlin,
                          "g.V().hasLabel('Buyer').order().by('username')"
                          ".limit(0)"),
            none);
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (b:Buyer) RETURN b.username "
                          "ORDER BY b.username LIMIT 0"),
            none);
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (b:Buyer) RETURN b.username LIMIT 0"),
            none);
  // A nonzero limit still caps, with or without a sort.
  EXPECT_EQ(RunEverywhere(Language::kGremlin,
                          "g.V().hasLabel('Buyer').order().by('username')"
                          ".limit(2).values('username')"),
            (std::vector<std::string>{"A1", "B2"}));
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (b:Buyer) RETURN b.username "
                          "ORDER BY b.username DESC LIMIT 1"),
            (std::vector<std::string>{"D4"}));
}

TEST_F(QueryTest, NonNumericOperandsYieldNull) {
  // A string or bool operand makes arithmetic null instead of aborting.
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (b:Buyer) RETURN b.username * 2, "
                          "b.credits + (b.credits > 15)"),
            std::vector<std::string>(4, "null | null"));
  // SUM/AVG skip string and bool inputs exactly like nulls: nothing is
  // added, the row still counts.
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (b:Buyer) RETURN sum(b.username), "
                          "avg(b.username), sum(b.credits > 15)"),
            (std::vector<std::string>{"0 | 0.000000 | 0"}));
  EXPECT_EQ(RunEverywhere(Language::kGremlin,
                          "g.V().hasLabel('Buyer').values('username')"
                          ".count()"),
            (std::vector<std::string>{"4"}));
}

TEST_F(QueryTest, IntegerOverflowWidensToDouble) {
  const std::vector<PropertyValue> params = {
      PropertyValue(std::numeric_limits<int64_t>::min()),
      PropertyValue(int64_t{-1})};
  // Buyer 1 has credits = 10. In-range results stay int64; overflowing
  // + - * widen to double; INT64_MIN / -1 is null.
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (b:Buyer {id: 1}) RETURN b.credits + 5, "
                          "b.credits + 9223372036854775807, "
                          "b.credits - $0, "
                          "b.credits * 1000000000000000000, "
                          "$0 / $1, $0 / 2",
                          params),
            (std::vector<std::string>{
                "15 | 9223372036854775808.000000 | "
                "9223372036854775808.000000 | "
                "10000000000000000000.000000 | null | "
                "-4611686018427387904"}));
  // An int64 SUM that would overflow widens to double as well.
  const auto sum = RunEverywhere(
      Language::kCypher,
      "MATCH (b:Buyer) RETURN sum(b.credits + 9223372036854775700)");
  ASSERT_EQ(sum.size(), 1u);
  EXPECT_NEAR(std::stod(sum[0]), 4 * 9223372036854775700.0 + 100.0, 1e5);
  EXPECT_NE(sum[0].find('.'), std::string::npos) << sum[0];
}

TEST_F(QueryTest, HugeDoubleGroupKeysAndSums) {
  // Doubles beyond the int64 range must hash and finalize without an
  // out-of-range float-to-int cast; 1e19 and 2e19 stay distinct groups.
  const std::vector<PropertyValue> params = {PropertyValue(1e19)};
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (b:Buyer)-[:BUY]->(i:Item) "
                          "RETURN i.price * 2 * $0 AS k, count(b) AS n "
                          "ORDER BY k",
                          params),
            (std::vector<std::string>{"10000000000000000000.000000 | 2",
                                      "20000000000000000000.000000 | 2",
                                      "30000000000000000000.000000 | 2"}));
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (i:Item) RETURN sum(i.price * $0)", params),
            (std::vector<std::string>{"50000000000000000000.000000"}));
}

TEST_F(QueryTest, MissingParametersAreRejected) {
  // A $i beyond the supplied params is refused at each engine's admission
  // with kInvalidArgument instead of reaching expression evaluation.
  const std::string by_second = "MATCH (b:Buyer {id: $1}) RETURN b.username";
  const std::string by_first =
      "MATCH (b:Buyer) WHERE b.id = $0 RETURN b.username";
  const std::vector<PropertyValue> one = {PropertyValue(int64_t{2})};
  QueryService service(graph_.get(), 4);
  for (EngineKind engine : {EngineKind::kGaia, EngineKind::kHiActor}) {
    EXPECT_EQ(service.Run(Language::kCypher, by_second, engine, one)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(service.Run(Language::kCypher, by_first, engine).status().code(),
              StatusCode::kInvalidArgument);
  }
  ASSERT_TRUE(
      service.RegisterProcedure("by_first", Language::kCypher, by_first).ok());
  auto submitted = service.hiactor().SubmitProcedure("by_first", {});
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(submitted.value().get().status().code(),
            StatusCode::kInvalidArgument);
  NaiveGraphDB naive(graph_.get());
  EXPECT_EQ(naive.Run(Language::kCypher, by_second, one).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(naive.Run(Language::kCypher, by_first).status().code(),
            StatusCode::kInvalidArgument);
  // Supplying enough parameters runs everywhere.
  const std::vector<PropertyValue> two = {PropertyValue(int64_t{9}),
                                          PropertyValue(int64_t{2})};
  EXPECT_EQ(RunEverywhere(Language::kCypher, by_second, two),
            (std::vector<std::string>{"B2"}));
  EXPECT_EQ(RunEverywhere(Language::kCypher, by_first, one),
            (std::vector<std::string>{"B2"}));
}

TEST_F(QueryTest, OverlongNumericLiteralsAreParseErrors) {
  // Out-of-range literals come back as kParseError, never an exception.
  const std::string huge_decimal = std::string(400, '9') + ".5";
  EXPECT_EQ(RunCypher("MATCH (b:Buyer {id: $99999999999999999999}) "
                      "RETURN b.username")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(RunCypher("MATCH (b:Buyer) WHERE b.credits < " + huge_decimal +
                      " RETURN b.username")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(lang::ParseGremlin("g.V().hasLabel('Buyer').has('credits', lt(" +
                                   huge_decimal + "))",
                               graph_->schema())
                .status()
                .code(),
            StatusCode::kParseError);
  // In-range literals of the same shapes still parse and run.
  auto rows = RunCypher(
      "MATCH (b:Buyer {id: $0}) WHERE b.credits < 25.5 RETURN b.username",
      {PropertyValue(int64_t{2})});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(RowsToStrings(rows.value()), (std::vector<std::string>{"B2"}));
}

/// `depth` copies of `open`, then `inner`, then one ')' per copy.
std::string Nested(const std::string& open, size_t depth,
                   const std::string& inner) {
  std::string text;
  for (size_t i = 0; i < depth; ++i) text += open;
  return text + inner + std::string(depth, ')');
}

TEST_F(QueryTest, DeeplyNestedParenthesesAreParseErrors) {
  // 5,000 parentheses in a WHERE come back as kParseError, not a stack
  // overflow; shallow nesting still parses and runs.
  EXPECT_EQ(RunCypher("MATCH (b:Buyer) WHERE " +
                      Nested("(", 5000, "b.credits > 15") +
                      " RETURN b.username")
                .status()
                .code(),
            StatusCode::kParseError);
  auto rows = RunCypher("MATCH (b:Buyer) WHERE " +
                        Nested("(NOT ", 99, "NOT b.credits > 15") +
                        " RETURN b.username ORDER BY b.username");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(RowsToStrings(rows.value()),
            (std::vector<std::string>{"B2", "C3", "D4"}));
}

TEST_F(QueryTest, DeeplyNestedArithmeticIsAParseError) {
  // `(1 + ` nested 20,000 deep in a RETURN.
  EXPECT_EQ(RunCypher("MATCH (b:Buyer) RETURN " + Nested("(1 + ", 20000, "1"))
                .status()
                .code(),
            StatusCode::kParseError);
}

/// `terms` copies of `term` joined by `op`.
std::string Chain(const std::string& term, const std::string& op,
                  size_t terms) {
  std::string text = term;
  for (size_t i = 1; i < terms; ++i) text += op + term;
  return text;
}

TEST_F(QueryTest, FlatOperatorChainIsAParseError) {
  // No parentheses: a left-deep chain grows one level per operator. At
  // 2,000,000 terms the parser itself used to overflow the stack.
  EXPECT_EQ(lang::ParseCypher("MATCH (b:Buyer) RETURN " +
                                  Chain("1", " + ", 2000000),
                              graph_->schema())
                .status()
                .code(),
            StatusCode::kParseError);
  // A 200-term chain still runs everywhere.
  EXPECT_EQ(RunEverywhere(Language::kCypher,
                          "MATCH (b:Buyer {id: 1}) RETURN " +
                              Chain("1", " + ", 200)),
            (std::vector<std::string>{"200"}));
}

TEST_F(QueryTest, LongOperatorChainOnHiActorIsAParseError) {
  // At 20,000 terms, evaluating the chain on HiActor used to overflow the
  // stack.
  QueryService service(graph_.get(), 2);
  EXPECT_EQ(service
                .Run(Language::kCypher,
                     "MATCH (b:Buyer) RETURN " + Chain("1", " + ", 20000),
                     EngineKind::kHiActor)
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST_F(QueryTest, LongGremlinFilterChainIsAParseError) {
  // 50,000 has() steps: the optimizer would AND the SELECTs into one
  // left-deep predicate.
  std::string text = "g.V().hasLabel('Buyer')";
  for (int i = 0; i < 50000; ++i) text += ".has('credits', 10)";
  QueryService service(graph_.get(), 2);
  for (EngineKind engine : {EngineKind::kGaia, EngineKind::kHiActor}) {
    EXPECT_EQ(service.Run(Language::kGremlin, text, engine).status().code(),
              StatusCode::kParseError);
  }
  NaiveGraphDB naive(graph_.get());
  EXPECT_EQ(naive.Run(Language::kGremlin, text).status().code(),
            StatusCode::kParseError);
}

TEST_F(QueryTest, LongFixedLengthMatchIsAParseError) {
  // 20,000 hops around a self-loop, so one row reaches every operator: the
  // streaming reference recursed once per operator.
  PropertyGraphData data;
  const label_t v = data.schema.AddVertexLabel("V", {}).value();
  const label_t e = data.schema.AddEdgeLabel("E", v, v, {}).value();
  data.AddVertex(v, 0, {});
  data.AddEdge(e, 0, 0, {});
  auto store = storage::VineyardStore::Build(data).value();
  auto graph = store->GetGrinHandle();
  std::string text = "MATCH (a:V)";
  for (int i = 0; i < 20000; ++i) text += "-[:E]->(:V)";
  NaiveGraphDB naive(graph.get());
  EXPECT_EQ(naive.Run(Language::kCypher, text + " RETURN count(a)")
                .status()
                .code(),
            StatusCode::kParseError);
}

// ----------------------------------------------------- Randomized check

TEST_F(QueryTest, RandomGraphTwoHopAgainstBruteForce) {
  // Property check on a random labeled graph: Cypher two-hop counts equal
  // brute-force counts computed directly on the raw data.
  PropertyGraphData data;
  label_t person = data.schema.AddVertexLabel("P", {}).value();
  label_t follows = data.schema.AddEdgeLabel("F", person, person, {}).value();
  const int n = 60;
  Rng rng(33);
  std::vector<std::pair<oid_t, oid_t>> edges;
  for (oid_t v = 0; v < n; ++v) data.AddVertex(person, v, {});
  for (int e = 0; e < 300; ++e) {
    oid_t a = static_cast<oid_t>(rng.Uniform(n));
    oid_t b = static_cast<oid_t>(rng.Uniform(n));
    data.AddEdge(follows, a, b, {});
    edges.push_back({a, b});
  }
  auto store = storage::VineyardStore::Build(data).value();
  auto g = store->GetGrinHandle();
  QueryService service(g.get(), 2);

  for (oid_t probe : {oid_t{0}, oid_t{7}, oid_t{42}}) {
    auto rows = service.Run(
        Language::kCypher,
        "MATCH (a:P {id: " + std::to_string(probe) +
            "})-[:F]->(b:P)-[:F]->(c:P) RETURN count(c)");
    ASSERT_TRUE(rows.ok());
    int64_t got = std::get<PropertyValue>(rows.value()[0][0]).AsInt64();
    int64_t want = 0;
    for (const auto& [a, b] : edges) {
      if (a != probe) continue;
      for (const auto& [c, d] : edges) {
        if (c == b) ++want;
      }
    }
    EXPECT_EQ(got, want) << "probe " << probe;
  }
}

// ------------------------------------------------------- retry backoff

TEST(RetryBackoffTest, JitteredSleepStaysInsideBounds) {
  RunOptions options;
  options.retry_backoff = std::chrono::milliseconds(10);
  options.retry_backoff_max = std::chrono::milliseconds(100);
  for (uint64_t seed : {1u, 7u, 23u, 101u, 9999u}) {
    Rng rng(seed);
    for (int attempt = 0; attempt < 12; ++attempt) {
      // Pre-jitter base: 10ms doubled per attempt, saturating at the cap.
      int64_t base = 10;
      for (int i = 0; i < attempt && base < 100; ++i) base *= 2;
      base = std::min<int64_t>(base, 100);
      const auto sleep = RetryBackoffFor(options, attempt, &rng);
      // Jitter is +-25%, then clamped to [1ms, retry_backoff_max].
      const int64_t lo = std::max<int64_t>(1, (base * 3) / 4);
      const int64_t hi = std::min<int64_t>(100, (base * 5 + 3) / 4);
      EXPECT_GE(sleep.count(), lo) << "seed " << seed << " attempt "
                                   << attempt;
      EXPECT_LE(sleep.count(), hi) << "seed " << seed << " attempt "
                                   << attempt;
    }
  }
}

TEST(RetryBackoffTest, NeverExceedsCapAndNeverSleepsZero) {
  RunOptions options;
  options.retry_backoff = std::chrono::milliseconds(0);  // Degenerate base.
  options.retry_backoff_max = std::chrono::milliseconds(4);
  Rng rng(3);
  for (int attempt = 0; attempt < 40; ++attempt) {
    const auto sleep = RetryBackoffFor(options, attempt, &rng);
    EXPECT_GE(sleep.count(), 1);
    EXPECT_LE(sleep.count(), 4);
  }
  // A cap below the base still wins.
  options.retry_backoff = std::chrono::milliseconds(50);
  options.retry_backoff_max = std::chrono::milliseconds(8);
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_LE(RetryBackoffFor(options, attempt, &rng).count(), 8);
  }
}

TEST(RetryBackoffTest, SameSeedSameSleeps) {
  RunOptions options;
  options.retry_backoff = std::chrono::milliseconds(5);
  Rng a(42), b(42), c(43);
  std::vector<int64_t> sa, sb, sc;
  for (int attempt = 0; attempt < 6; ++attempt) {
    sa.push_back(RetryBackoffFor(options, attempt, &a).count());
    sb.push_back(RetryBackoffFor(options, attempt, &b).count());
    sc.push_back(RetryBackoffFor(options, attempt, &c).count());
  }
  EXPECT_EQ(sa, sb);  // Reproducible: tests can pin retry_jitter_seed.
  EXPECT_NE(sa, sc);  // Different seeds desynchronize (whp).
}

}  // namespace
}  // namespace flex::query
