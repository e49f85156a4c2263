#include <gtest/gtest.h>

#include "lang/lexer.h"
#include "optimizer/optimizer.h"
#include "query/interpreter.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::ir {
namespace {

/// Single-vertex graph so property expressions have something to chew on.
std::unique_ptr<storage::VineyardStore> TinyStore() {
  PropertyGraphData data;
  label_t v = data.schema
                  .AddVertexLabel("V", {{"x", PropertyType::kInt64},
                                        {"name", PropertyType::kString}})
                  .value();
  data.schema.AddEdgeLabel("E", v, v, {}).value();
  data.AddVertex(v, 7, {PropertyValue(int64_t{5}), PropertyValue("n7")});
  data.AddVertex(v, 8, {PropertyValue(int64_t{9}), PropertyValue("n8")});
  data.AddEdge(0, 7, 8, {});
  return storage::VineyardStore::Build(data).value();
}

class ExprTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = TinyStore();
    graph_ = store_->GetGrinHandle();
    row_.push_back(VertexRef{store_->topology().FindVertex(0, 7).value()});
  }
  PropertyValue Eval(const ExprPtr& e,
                     std::vector<PropertyValue> params = {}) {
    return e->Eval(row_, *graph_, params);
  }

  std::unique_ptr<storage::VineyardStore> store_;
  std::unique_ptr<grin::GrinGraph> graph_;
  Row row_;
};

TEST_F(ExprTest, ConstParamColumnProperty) {
  EXPECT_EQ(Eval(Expr::Const(PropertyValue(3))).AsInt64(), 3);
  EXPECT_EQ(Eval(Expr::Param(0), {PropertyValue("p")}).AsString(), "p");
  EXPECT_EQ(Eval(Expr::VertexId(0)).AsInt64(), 7);
  EXPECT_EQ(Eval(Expr::Property(0, "x")).AsInt64(), 5);
  EXPECT_EQ(Eval(Expr::Property(0, "name")).AsString(), "n7");
  EXPECT_EQ(Eval(Expr::LabelName(0)).AsString(), "V");
  // Unknown property degrades to null, not a crash.
  EXPECT_TRUE(Eval(Expr::Property(0, "missing")).is_empty());
}

TEST_F(ExprTest, ArithmeticStaysIntegralWhenPossible) {
  auto add = Expr::Binary(BinOp::kAdd, Expr::Const(PropertyValue(2)),
                          Expr::Const(PropertyValue(3)));
  EXPECT_EQ(Eval(add).type(), PropertyType::kInt64);
  EXPECT_EQ(Eval(add).AsInt64(), 5);
  auto mixed = Expr::Binary(BinOp::kMul, Expr::Const(PropertyValue(2)),
                            Expr::Const(PropertyValue(1.5)));
  EXPECT_EQ(Eval(mixed).type(), PropertyType::kDouble);
  EXPECT_DOUBLE_EQ(Eval(mixed).AsDouble(), 3.0);
  // Division by zero is null, not UB.
  auto div0 = Expr::Binary(BinOp::kDiv, Expr::Const(PropertyValue(1)),
                           Expr::Const(PropertyValue(0)));
  EXPECT_TRUE(Eval(div0).is_empty());
}

TEST_F(ExprTest, BooleanConnectivesAndIn) {
  auto t = Expr::Const(PropertyValue(true));
  auto f = Expr::Const(PropertyValue(false));
  EXPECT_TRUE(Eval(Expr::Binary(BinOp::kOr, t->Clone(), f->Clone())).AsBool());
  EXPECT_FALSE(
      Eval(Expr::Binary(BinOp::kAnd, t->Clone(), f->Clone())).AsBool());
  EXPECT_TRUE(Eval(Expr::Not(f->Clone())).AsBool());
  auto in = Expr::In(Expr::Property(0, "x"),
                     {PropertyValue(1), PropertyValue(5)});
  EXPECT_TRUE(Eval(in).AsBool());
  auto not_in = Expr::In(Expr::Property(0, "x"), {PropertyValue(1)});
  EXPECT_FALSE(Eval(not_in).AsBool());
}

TEST_F(ExprTest, CloneIsDeepAndRemapRewrites) {
  auto original = Expr::Binary(BinOp::kEq, Expr::Property(0, "x"),
                               Expr::Const(PropertyValue(5)));
  auto copy = original->Clone();
  copy->RemapColumns({3});
  std::vector<size_t> orig_cols, copy_cols;
  original->CollectColumns(&orig_cols);
  copy->CollectColumns(&copy_cols);
  EXPECT_EQ(orig_cols, (std::vector<size_t>{0}));
  EXPECT_EQ(copy_cols, (std::vector<size_t>{3}));
}

TEST_F(ExprTest, FindIdEqualityDetection) {
  ExprPtr value;
  // id(col0) == 7 inside a conjunction, either operand order.
  auto direct = Expr::Binary(BinOp::kEq, Expr::VertexId(0),
                             Expr::Const(PropertyValue(7)));
  EXPECT_TRUE(direct->FindIdEquality(0, &value));
  EXPECT_FALSE(direct->FindIdEquality(1, &value));
  auto flipped = Expr::Binary(BinOp::kEq, Expr::Param(0), Expr::VertexId(0));
  EXPECT_TRUE(flipped->FindIdEquality(0, &value));
  auto conj = Expr::Binary(
      BinOp::kAnd,
      Expr::Binary(BinOp::kGt, Expr::Property(0, "x"),
                   Expr::Const(PropertyValue(1))),
      Expr::Binary(BinOp::kEq, Expr::VertexId(0),
                   Expr::Const(PropertyValue(7))));
  EXPECT_TRUE(conj->FindIdEquality(0, &value));
  // Property equality is not an id equality.
  auto prop_eq = Expr::Binary(BinOp::kEq, Expr::Property(0, "x"),
                              Expr::Const(PropertyValue(5)));
  EXPECT_FALSE(prop_eq->FindIdEquality(0, &value));
}

// ------------------------------------------------------------------ Plan

TEST(PlanBuilderTest, TracksAliasesThroughReshapes) {
  PlanBuilder builder;
  const size_t a = builder.Scan("a", 0);
  const size_t e = builder.ExpandEdge(a, 0, Direction::kOut, "r");
  const size_t b = builder.GetVertex(e, a, "b");
  EXPECT_EQ(builder.FindAlias("a"), a);
  EXPECT_EQ(builder.FindAlias("r"), e);
  EXPECT_EQ(builder.FindAlias("b"), b);
  EXPECT_EQ(builder.FindAlias("zzz"), PlanBuilder::kNoColumn);

  std::vector<ExprPtr> exprs;
  exprs.push_back(Expr::Column(b));
  builder.Project(std::move(exprs), {"out"});
  EXPECT_EQ(builder.FindAlias("out"), 0u);
  EXPECT_EQ(builder.FindAlias("a"), PlanBuilder::kNoColumn);

  Plan plan = builder.Build();
  EXPECT_EQ(plan.columns, (std::vector<std::string>{"out"}));
  EXPECT_EQ(plan.ops.size(), 4u);
  EXPECT_NE(plan.ToString().find("SCAN(a)"), std::string::npos);
}

TEST(PlanTest, CloneIsIndependent) {
  PlanBuilder builder;
  builder.Scan("a", 0, Expr::Binary(BinOp::kEq, Expr::VertexId(0),
                                    Expr::Const(PropertyValue(1))));
  Plan plan = builder.Build();
  Plan copy = plan.Clone();
  copy.ops[0].alias = "changed";
  EXPECT_EQ(plan.ops[0].alias, "a");
  EXPECT_NE(copy.ops[0].predicate.get(), plan.ops[0].predicate.get());
}

// ------------------------------------------------------------- Optimizer

TEST(OptimizerUnitTest, LimitPushdownMergesIntoOrder) {
  PlanBuilder builder;
  builder.Scan("a", 0);
  std::vector<ExprPtr> keys;
  keys.push_back(Expr::VertexId(0));
  builder.Order(std::move(keys), {true});
  builder.Limit(5);
  Plan plan = optimizer::Optimize(builder.Build(), nullptr);
  ASSERT_EQ(plan.ops.size(), 2u);
  EXPECT_EQ(plan.ops[1].kind, OpKind::kOrder);
  EXPECT_EQ(plan.ops[1].limit, 5u);
}

TEST(OptimizerUnitTest, IndexScanRequiresIdEquality) {
  PlanBuilder with_id;
  with_id.Scan("a", 0);
  with_id.Select(Expr::Binary(BinOp::kEq, Expr::VertexId(0),
                              Expr::Const(PropertyValue(1))));
  const Plan id_logical = with_id.Build();  // Build() consumes the builder.
  Plan indexed = optimizer::Optimize(id_logical, nullptr);
  ASSERT_EQ(indexed.ops[0].kind, OpKind::kScan);
  EXPECT_NE(indexed.ops[0].id_lookup, nullptr);

  PlanBuilder with_prop;
  with_prop.Scan("a", 0);
  with_prop.Select(Expr::Binary(BinOp::kGt, Expr::Property(0, "x"),
                                Expr::Const(PropertyValue(1))));
  Plan scanned = optimizer::Optimize(with_prop.Build(), nullptr);
  EXPECT_EQ(scanned.ops[0].id_lookup, nullptr);

  optimizer::OptimizerOptions off;
  off.index_scan = false;
  Plan disabled = optimizer::Optimize(id_logical, nullptr, off);
  ASSERT_FALSE(disabled.ops.empty());
  EXPECT_EQ(disabled.ops[0].id_lookup, nullptr);
}

TEST(OptimizerUnitTest, FilterPushStopsAtReshapes) {
  // SELECT after a GROUP must not be pushed into ops before the GROUP.
  PlanBuilder builder;
  builder.Scan("a", 0);
  std::vector<AggSpec> aggs;
  AggSpec count;
  count.fn = AggSpec::Fn::kCount;
  count.name = "n";
  aggs.push_back(std::move(count));
  std::vector<ExprPtr> keys;
  keys.push_back(Expr::Column(0));
  builder.Group(std::move(keys), {"a"}, std::move(aggs));
  builder.Select(Expr::Binary(BinOp::kGt, Expr::Column(1),
                              Expr::Const(PropertyValue(1))));
  Plan plan = optimizer::Optimize(builder.Build(), nullptr);
  // The select survives (post-aggregation filters cannot move).
  bool has_select = false;
  for (const auto& op : plan.ops) has_select |= op.kind == OpKind::kSelect;
  EXPECT_TRUE(has_select);
  EXPECT_EQ(plan.ops[0].predicate, nullptr);
}

// ----------------------------------------------------------------- Lexer

TEST(LexerTest, TokenKindsAndMultiCharPunct) {
  auto tokens =
      lang::Tokenize("MATCH (a)-[:E]->(b) WHERE a.x <= 3.5 AND b <> 'hi' "
                     "/* note */ RETURN $0")
          .value();
  std::vector<std::string> punct;
  int idents = 0, ints = 0, floats = 0, strings = 0, params = 0;
  for (const auto& t : tokens) {
    switch (t.kind) {
      case lang::TokKind::kIdent:
        ++idents;
        break;
      case lang::TokKind::kInt:
        ++ints;
        break;
      case lang::TokKind::kFloat:
        ++floats;
        break;
      case lang::TokKind::kString:
        ++strings;
        break;
      case lang::TokKind::kParam:
        ++params;
        break;
      case lang::TokKind::kPunct:
        punct.push_back(t.text);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(floats, 1);
  EXPECT_EQ(strings, 1);
  EXPECT_EQ(params, 1);
  EXPECT_NE(std::find(punct.begin(), punct.end(), "->"), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "<="), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "<>"), punct.end());
}

TEST(LexerTest, ErrorsOnBrokenInput) {
  EXPECT_EQ(lang::Tokenize("'unterminated").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(lang::Tokenize("/* never closed").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(lang::Tokenize("$x").status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------- columnar batches

TEST(BatchTest, TypedAppendsKeepColumnsTyped) {
  Column c;
  c.AppendVertex(3);
  c.AppendVertex(7);
  EXPECT_EQ(c.kind(), Column::Kind::kVertex);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.vids()[1], 7u);
  EXPECT_TRUE(c.IsVertexAt(0));
  EXPECT_EQ(c.VertexAt(1), 7u);
  EXPECT_EQ(c.EdgeAt(0), nullptr);

  Column e;
  e.AppendEdge(EdgeRef{/*label=*/0, /*eid=*/5, /*src=*/1, /*dst=*/2});
  EXPECT_EQ(e.kind(), Column::Kind::kEdge);
  ASSERT_NE(e.EdgeAt(0), nullptr);
  EXPECT_EQ(e.EdgeAt(0)->dst, 2u);
}

TEST(BatchTest, MixedAppendPromotesToBoxed) {
  Column c;
  c.AppendVertex(3);
  c.AppendValue(PropertyValue(int64_t{42}));  // Kind mismatch: promote.
  EXPECT_EQ(c.kind(), Column::Kind::kBoxed);
  ASSERT_EQ(c.size(), 2u);
  // Per-row views still answer correctly after promotion.
  EXPECT_TRUE(c.IsVertexAt(0));
  EXPECT_EQ(c.VertexAt(0), 3u);
  EXPECT_TRUE(c.IsValueAt(1));
  EXPECT_EQ(c.ValueAt(1).AsInt64(), 42);
}

TEST(BatchTest, PerRowViewsMirrorRowRepresentation) {
  // HashAt/ToStringAt are the batched hash/render paths; they must agree
  // with the row path's EntryHash/EntryToString for every entry kind.
  Column c;
  c.AppendVertex(9);
  c.AppendEdge(EdgeRef{0, 1, 2, 3});
  c.AppendValue(PropertyValue("abc"));
  c.AppendValue(PropertyValue(2.5));
  for (size_t i = 0; i < c.size(); ++i) {
    const Entry boxed = c.EntryAt(i);
    EXPECT_EQ(c.HashAt(i), EntryHash(boxed)) << "row " << i;
    EXPECT_EQ(c.ToStringAt(i), EntryToString(boxed)) << "row " << i;
  }
}

TEST(BatchTest, GatherFromCompactsSelectedRows) {
  Column src;
  for (vid_t v = 0; v < 8; ++v) src.AppendVertex(v * 10);
  Column dst;
  const std::vector<uint32_t> rows = {1, 4, 6};
  dst.GatherFrom(src, rows);
  EXPECT_EQ(dst.kind(), Column::Kind::kVertex);
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.VertexAt(0), 10u);
  EXPECT_EQ(dst.VertexAt(1), 40u);
  EXPECT_EQ(dst.VertexAt(2), 60u);
}

TEST(BatchTest, SelectionRefinesWithoutCopying) {
  Batch b;
  Column c;
  for (vid_t v = 0; v < 5; ++v) c.AppendVertex(v);
  b.AddColumn(std::move(c));
  b.SelectAll();
  EXPECT_EQ(b.NumRows(), 5u);
  EXPECT_EQ(b.NumSelected(), 5u);
  b.SetSelection({0, 2, 4});
  EXPECT_EQ(b.NumRows(), 5u);       // Physical rows untouched...
  EXPECT_EQ(b.NumSelected(), 3u);   // ...only the view narrowed.
  EXPECT_EQ(b.column(0).VertexAt(b.selection()[1]), 2u);
}

TEST(BatchTest, RowsRoundTripThroughBatches) {
  // > kBatchSize rows so the chunker emits multiple batches with
  // consecutive order keys.
  std::vector<Row> rows;
  for (vid_t v = 0; v < kBatchSize + 10; ++v) {
    Row row;
    row.push_back(VertexRef{v});
    row.push_back(Entry{PropertyValue(static_cast<int64_t>(v) * 2)});
    rows.push_back(std::move(row));
  }
  const auto batches = RowsToBatches(rows, /*first_order_key=*/7);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].order_key, 7u);
  EXPECT_EQ(batches[1].order_key, 7u + kBatchSize);
  EXPECT_EQ(TotalSelected(batches), rows.size());
  const auto back = BatchesToRows(batches);
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(back[i], rows[i]) << "row " << i;
  }
}

TEST(BatchTest, BatchesToRowsHonorsSelection) {
  std::vector<Row> rows;
  for (vid_t v = 0; v < 4; ++v) {
    Row row;
    row.push_back(VertexRef{v});
    rows.push_back(std::move(row));
  }
  auto batches = RowsToBatches(rows);
  ASSERT_EQ(batches.size(), 1u);
  batches[0].SetSelection({1, 3});
  const auto back = BatchesToRows(batches);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], rows[1]);
  EXPECT_EQ(back[1], rows[3]);
}

TEST(LexerTest, NumbersAndDotsDisambiguate) {
  auto tokens = lang::Tokenize("a.b 1.5 7.name").value();
  // a . b | 1.5 | 7 . name — the float swallows the dot, the property
  // accesses do not.
  EXPECT_EQ(tokens[0].kind, lang::TokKind::kIdent);
  EXPECT_EQ(tokens[1].text, ".");
  EXPECT_EQ(tokens[3].kind, lang::TokKind::kFloat);
  EXPECT_EQ(tokens[4].kind, lang::TokKind::kInt);
  EXPECT_EQ(tokens[5].text, ".");
}

}  // namespace
}  // namespace flex::ir
