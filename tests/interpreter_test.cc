#include <gtest/gtest.h>

#include "common/random.h"
#include "grape/message_manager.h"
#include "optimizer/optimizer.h"
#include "query/interpreter.h"
#include "runtime/gaia.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::query {
namespace {

using ir::BinOp;
using ir::Expr;
using ir::ExprPtr;
using ir::PlanBuilder;

/// Five "V" vertices with x = {3, 1, 4, 1, 5}; edges 0->1,0->2,1->3,3->0.
std::unique_ptr<storage::VineyardStore> OpStore() {
  PropertyGraphData data;
  label_t v =
      data.schema.AddVertexLabel("V", {{"x", PropertyType::kInt64}}).value();
  data.schema.AddEdgeLabel("E", v, v, {}).value();
  const int64_t xs[] = {3, 1, 4, 1, 5};
  for (oid_t i = 0; i < 5; ++i) {
    data.AddVertex(v, i, {PropertyValue(xs[i])});
  }
  data.AddEdge(0, 0, 1, {});
  data.AddEdge(0, 0, 2, {});
  data.AddEdge(0, 1, 3, {});
  data.AddEdge(0, 3, 0, {});
  return storage::VineyardStore::Build(data).value();
}

class InterpreterOpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = OpStore();
    graph_ = store_->GetGrinHandle();
  }
  std::vector<std::string> Run(ir::Plan plan) {
    Interpreter interp(graph_.get());
    auto rows = interp.Run(plan);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return RowsToStrings(rows.value());
  }
  std::unique_ptr<storage::VineyardStore> store_;
  std::unique_ptr<grin::GrinGraph> graph_;
};

TEST_F(InterpreterOpTest, OrderIsStableOnTies) {
  // Sort by x ascending: vertices 1 and 3 tie on x=1; stable sort keeps
  // scan order (vid 1 before vid 3).
  PlanBuilder b;
  b.Scan("a", 0);
  std::vector<ExprPtr> keys;
  keys.push_back(Expr::Property(0, "x"));
  b.Order(std::move(keys), {true});
  std::vector<ExprPtr> out;
  out.push_back(Expr::VertexId(0));
  b.Project(std::move(out), {"id"});
  EXPECT_EQ(Run(b.Build()),
            (std::vector<std::string>{"1", "3", "0", "2", "4"}));
}

TEST_F(InterpreterOpTest, OrderDescendingWithTopK) {
  PlanBuilder b;
  b.Scan("a", 0);
  std::vector<ExprPtr> keys;
  keys.push_back(Expr::Property(0, "x"));
  b.Order(std::move(keys), {false}, /*limit=*/2);
  std::vector<ExprPtr> out;
  out.push_back(Expr::Property(0, "x"));
  b.Project(std::move(out), {"x"});
  EXPECT_EQ(Run(b.Build()), (std::vector<std::string>{"5", "4"}));
}

TEST_F(InterpreterOpTest, LimitBeyondRowCountIsHarmless) {
  PlanBuilder b;
  b.Scan("a", 0);
  b.Limit(100);
  std::vector<ExprPtr> out;
  out.push_back(Expr::VertexId(0));
  b.Project(std::move(out), {"id"});
  EXPECT_EQ(Run(b.Build()).size(), 5u);
}

TEST_F(InterpreterOpTest, DedupWholeRowAndKeyed) {
  // x values {3,1,4,1,5}: dedup on x keeps 4 rows.
  PlanBuilder b;
  b.Scan("a", 0);
  std::vector<ExprPtr> proj;
  proj.push_back(Expr::Property(0, "x"));
  b.Project(std::move(proj), {"x"});
  b.Dedup({});  // Whole-row dedup.
  EXPECT_EQ(Run(b.Build()).size(), 4u);
}

TEST_F(InterpreterOpTest, GroupAggregateFinalizers) {
  PlanBuilder b;
  b.Scan("a", 0);
  std::vector<ir::AggSpec> aggs;
  auto make = [&](ir::AggSpec::Fn fn, const char* name) {
    ir::AggSpec spec;
    spec.fn = fn;
    spec.arg = Expr::Property(0, "x");
    spec.name = name;
    aggs.push_back(std::move(spec));
  };
  make(ir::AggSpec::Fn::kSum, "sum");
  make(ir::AggSpec::Fn::kMin, "min");
  make(ir::AggSpec::Fn::kMax, "max");
  make(ir::AggSpec::Fn::kAvg, "avg");
  b.Group({}, {}, std::move(aggs));
  auto lines = Run(b.Build());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "14 | 1 | 5 | 2.800000");
}

TEST_F(InterpreterOpTest, ExpandIntoFiltersNonEdges) {
  // (a)-[:E]->(b), then close (b)-[:E]->(a): only 3->0 has 0->... wait:
  // pairs with a reciprocal edge: 0->1? 1->0 absent. 3->0 & 0->3 absent.
  // Only cycles of length 2 survive; none exist here.
  PlanBuilder b;
  const size_t a = b.Scan("a", 0);
  const size_t e = b.ExpandEdge(a, 0, Direction::kOut, "");
  const size_t t = b.GetVertex(e, a, "b");
  b.ExpandInto(t, a, 0, Direction::kOut);
  std::vector<ExprPtr> out;
  out.push_back(Expr::VertexId(a));
  b.Project(std::move(out), {"id"});
  EXPECT_TRUE(Run(b.Build()).empty());

  // 1->3->0 plus 0->1 forms a 3-cycle: (a)->(b)->(c) with (c)->(a).
  PlanBuilder b2;
  const size_t a2 = b2.Scan("a", 0);
  const size_t e2 = b2.ExpandEdge(a2, 0, Direction::kOut, "");
  const size_t v2 = b2.GetVertex(e2, a2, "b");
  const size_t e3 = b2.ExpandEdge(v2, 0, Direction::kOut, "");
  const size_t v3 = b2.GetVertex(e3, v2, "c");
  b2.ExpandInto(v3, a2, 0, Direction::kOut);
  std::vector<ExprPtr> out2;
  out2.push_back(Expr::VertexId(a2));
  b2.Project(std::move(out2), {"id"});
  auto cycles = Run(b2.Build());
  ASSERT_EQ(cycles.size(), 3u);  // Each rotation of the 0->1->3->0 cycle.
}

TEST_F(InterpreterOpTest, RowAndBatchedPathsAgree) {
  // One plan per streaming/blocking operator shape; each must produce
  // bit-identical rows under the columnar path and the tuple-at-a-time
  // reference.
  auto both = [&](ir::Plan plan) {
    Interpreter interp(graph_.get());
    auto row = interp.RunTupleAtATime(plan);
    auto batched = interp.Run(plan);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    EXPECT_EQ(RowsToStrings(row.value()), RowsToStrings(batched.value()));
  };

  {  // SCAN + SELECT + PROJECT: selection flips bits, no copy.
    PlanBuilder b;
    b.Scan("a", 0);
    b.Select(Expr::Binary(BinOp::kGe, Expr::Property(0, "x"),
                          Expr::Const(PropertyValue(int64_t{3}))));
    std::vector<ExprPtr> out;
    out.push_back(Expr::Property(0, "x"));
    b.Project(std::move(out), {"x"});
    both(b.Build());
  }
  {  // EXPAND + GETV with a computed projection.
    PlanBuilder b;
    const size_t a = b.Scan("a", 0);
    const size_t e = b.ExpandEdge(a, 0, Direction::kBoth, "");
    const size_t t = b.GetVertex(e, a, "b");
    std::vector<ExprPtr> out;
    out.push_back(Expr::VertexId(a));
    out.push_back(Expr::Binary(BinOp::kAdd, Expr::Property(t, "x"),
                               Expr::Const(PropertyValue(int64_t{10}))));
    b.Project(std::move(out), {"id", "x10"});
    both(b.Build());
  }
  {  // Blocking ops ride the batch->row bridge.
    PlanBuilder b;
    b.Scan("a", 0);
    std::vector<ExprPtr> keys;
    keys.push_back(Expr::Property(0, "x"));
    b.Order(std::move(keys), {false});
    std::vector<ir::AggSpec> aggs;
    ir::AggSpec spec;
    spec.fn = ir::AggSpec::Fn::kSum;
    spec.arg = Expr::Property(0, "x");
    spec.name = "sum";
    aggs.push_back(std::move(spec));
    std::vector<ExprPtr> gkeys;
    gkeys.push_back(Expr::Property(0, "x"));
    b.Group(std::move(gkeys), {"x"}, std::move(aggs));
    both(b.Build());
  }
  {  // Variable-length expansion bridges per batch.
    PlanBuilder b;
    const size_t a = b.Scan("a", 0);
    const size_t p = b.ExpandVar(a, 0, Direction::kOut, 1, 2, "p");
    std::vector<ExprPtr> out;
    out.push_back(Expr::VertexId(a));
    out.push_back(Expr::VertexId(p));
    b.Project(std::move(out), {"src", "dst"});
    both(b.Build());
  }
}

TEST_F(InterpreterOpTest, BatchedPathCrossesBatchBoundaries) {
  // 3000 vertices spans three kBatchSize windows; the mid-stream SELECT
  // must refine selections across every batch without losing rows.
  PropertyGraphData data;
  label_t v =
      data.schema.AddVertexLabel("V", {{"x", PropertyType::kInt64}}).value();
  for (oid_t i = 0; i < 3000; ++i) {
    data.AddVertex(v, i, {PropertyValue(static_cast<int64_t>(i))});
  }
  auto store = storage::VineyardStore::Build(data).value();
  auto graph = store->GetGrinHandle();

  PlanBuilder b;
  b.Scan("a", 0);
  b.Select(Expr::Binary(BinOp::kGe, Expr::Property(0, "x"),
                        Expr::Const(PropertyValue(int64_t{100}))));
  std::vector<ExprPtr> out;
  out.push_back(Expr::Property(0, "x"));
  b.Project(std::move(out), {"x"});
  const ir::Plan plan = b.Build();

  Interpreter interp(graph.get());
  auto row = interp.RunTupleAtATime(plan);
  auto batched = interp.Run(plan);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(row.value().size(), 2900u);
  EXPECT_EQ(RowsToStrings(row.value()), RowsToStrings(batched.value()));
}

TEST_F(InterpreterOpTest, SumStaysExactAboveDoublePrecision) {
  // 2^53 is the first integer where IEEE doubles lose unit precision:
  // folding the sum through a double would collapse 2^53 + 1 + 1 back to
  // 2^53. The accumulator must keep int64 sums exact.
  PropertyGraphData data;
  label_t v =
      data.schema.AddVertexLabel("V", {{"x", PropertyType::kInt64}}).value();
  const int64_t big = int64_t{1} << 53;
  const int64_t xs[] = {big, 1, 1};
  for (oid_t i = 0; i < 3; ++i) {
    data.AddVertex(v, i, {PropertyValue(xs[i])});
  }
  auto store = storage::VineyardStore::Build(data).value();
  auto graph = store->GetGrinHandle();

  for (const bool reference : {true, false}) {
    PlanBuilder b;
    b.Scan("a", 0);
    std::vector<ir::AggSpec> aggs;
    ir::AggSpec spec;
    spec.fn = ir::AggSpec::Fn::kSum;
    spec.arg = Expr::Property(0, "x");
    spec.name = "sum";
    aggs.push_back(std::move(spec));
    b.Group({}, {}, std::move(aggs));
    const ir::Plan plan = b.Build();
    Interpreter interp(graph.get());
    auto rows = reference ? interp.RunTupleAtATime(plan) : interp.Run(plan);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(RowsToStrings(rows.value()),
              (std::vector<std::string>{"9007199254740994"}));
  }
}

TEST_F(InterpreterOpTest, GaiaMorselWorkersMatchReference) {
  // 3000 vertices span three morsel windows, so four concurrent Gaia
  // workers race on the shared claim helper; the exchange must restore
  // exactly the reference's row order for both scan shapes.
  PropertyGraphData data;
  label_t v =
      data.schema.AddVertexLabel("V", {{"x", PropertyType::kInt64}}).value();
  for (oid_t i = 0; i < 3000; ++i) {
    data.AddVertex(v, i, {PropertyValue(static_cast<int64_t>(i))});
  }
  auto store = storage::VineyardStore::Build(data).value();
  auto graph = store->GetGrinHandle();

  auto x = [] { return Expr::Property(0, "x"); };
  auto num = [](int64_t n) { return Expr::Const(PropertyValue(n)); };
  // Both filters keep the first vertex of every window (x = 0, 1024,
  // 2048), where an off-by-one in the claim helper would show.
  std::vector<ir::Plan> plans;
  {  // SCAN + SELECT.
    PlanBuilder b;
    b.Scan("a", 0);
    b.Select(Expr::Binary(BinOp::kNe, x(), num(1500)));
    std::vector<ExprPtr> out;
    out.push_back(Expr::VertexId(0));
    out.push_back(x());
    b.Project(std::move(out), {"id", "x"});
    plans.push_back(b.Build());
  }
  {  // FUSED_SCAN: `x <= 2900` pushes down, `x + 0 != 700` stays residual.
    PlanBuilder b;
    b.Scan("a", 0,
           Expr::Binary(BinOp::kAnd, Expr::Binary(BinOp::kLe, x(), num(2900)),
                        Expr::Binary(BinOp::kNe,
                                     Expr::Binary(BinOp::kAdd, x(), num(0)),
                                     num(700))));
    std::vector<ExprPtr> out;
    out.push_back(Expr::VertexId(0));
    b.Project(std::move(out), {"id"});
    ir::Plan fused = optimizer::Optimize(b.Build(), nullptr, {},
                                         &graph->schema());
    ASSERT_EQ(fused.ops[0].kind, ir::OpKind::kFusedScan) << fused.ToString();
    const ir::PushdownSplit split = ir::SplitPushdown(
        *fused.ops[0].predicate, 0, v, graph->schema(), nullptr);
    ASSERT_EQ(split.pushed.size(), 1u);
    ASSERT_EQ(split.residual.size(), 1u);
    plans.push_back(std::move(fused));
  }

  Interpreter interp(graph.get());
  runtime::GaiaEngine gaia(graph.get(), 4);
  for (const ir::Plan& plan : plans) {
    SCOPED_TRACE(plan.ToString());
    auto reference = interp.RunTupleAtATime(plan);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_GT(reference.value().size(), ir::kBatchSize);
    for (int round = 0; round < 5; ++round) {
      auto rows = gaia.Run(plan);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(RowsToStrings(rows.value()),
                RowsToStrings(reference.value()));
    }
  }
}

TEST_F(InterpreterOpTest, MorselSourceHandsOutEachWindowOnce) {
  PlanBuilder b;
  b.Scan("a", 0);
  std::vector<ExprPtr> out;
  out.push_back(Expr::VertexId(0));
  b.Project(std::move(out), {"id"});
  const ir::Plan plan = b.Build();

  Interpreter interp(graph_.get());
  ScanMorselSource morsels;
  ExecOptions opts;
  opts.morsels = &morsels;
  // The first "worker" drains every morsel window (claims are handed out
  // atomically, so a sequential run claims them all)...
  auto first = interp.RunRangeBatched(plan, 0, plan.ops.size(), {}, opts);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(RowsToStrings(ir::BatchesToRows(first.value())),
            (std::vector<std::string>{"0", "1", "2", "3", "4"}));
  // ...and a late-arriving worker sharing the source finds nothing left.
  auto second = interp.RunRangeBatched(plan, 0, plan.ops.size(), {}, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().empty());
}

// ---------------------------------------------------- message codecs

template <typename T>
class MsgCodecTest : public ::testing::Test {};

using CodecTypes = ::testing::Types<double, uint32_t, uint64_t>;
TYPED_TEST_SUITE(MsgCodecTest, CodecTypes);

TYPED_TEST(MsgCodecTest, RoundTripsThroughManager) {
  grape::MessageManager<TypeParam> manager(2, grape::MessageMode::kAggregated);
  std::vector<std::pair<vid_t, TypeParam>> sent;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const vid_t target = static_cast<vid_t>(rng.Uniform(1000));
    const TypeParam value = static_cast<TypeParam>(rng.Next() % 100000);
    manager.Send(0, 1, target, value);
    sent.push_back({target, value});
  }
  manager.Flush();
  std::vector<std::pair<vid_t, TypeParam>> received;
  EXPECT_TRUE(manager
                  .Receive(1,
                           [&](vid_t t, const TypeParam& v) {
                             received.push_back({t, v});
                           })
                  .ok());
  EXPECT_EQ(received, sent);
  // Fragment 0 got nothing.
  size_t other = 0;
  EXPECT_TRUE(
      manager.Receive(0, [&](vid_t, const TypeParam&) { ++other; }).ok());
  EXPECT_EQ(other, 0u);
}

TEST(MsgCodecVectorTest, AdjacencyPayloadRoundTrip) {
  grape::MessageManager<std::vector<vid_t>> manager(
      2, grape::MessageMode::kAggregated);
  const std::vector<vid_t> payloads[] = {
      {}, {5}, {1, 2, 3, 1000000}, {7, 7, 7}};
  for (const auto& p : payloads) manager.Send(1, 0, 9, p);
  manager.Flush();
  size_t i = 0;
  EXPECT_TRUE(manager
                  .Receive(0,
                           [&](vid_t target, const std::vector<vid_t>& v) {
                             EXPECT_EQ(target, 9u);
                             EXPECT_EQ(v, payloads[i++]);
                           })
                  .ok());
  EXPECT_EQ(i, 4u);
}

TEST(MessageManagerTest, ModesDeliverIdentically) {
  for (auto mode : {grape::MessageMode::kAggregated,
                    grape::MessageMode::kPerMessage}) {
    grape::MessageManager<uint32_t> manager(3, mode);
    manager.Send(0, 2, 11, 100);
    manager.Send(1, 2, 12, 200);
    manager.Send(2, 2, 13, 300);
    EXPECT_EQ(manager.Flush(), 1u);  // Only fragment 2 has traffic.
    std::vector<uint32_t> got;
    EXPECT_TRUE(
        manager.Receive(2, [&](vid_t, uint32_t v) { got.push_back(v); }).ok());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<uint32_t>{100, 200, 300}));
    // Second flush with nothing sent: channels drain.
    EXPECT_EQ(manager.Flush(), 0u);
    size_t empty = 0;
    EXPECT_TRUE(manager.Receive(2, [&](vid_t, uint32_t) { ++empty; }).ok());
    EXPECT_EQ(empty, 0u);
  }
}

}  // namespace
}  // namespace flex::query
