// Golden plan shapes for the fusion pass: every SNB interactive and BI
// query compiles (fusion on, the service default) to a pinned operator
// sequence, so a regression in FusePipelines — fusing where illegal,
// failing to fuse where legal, or reordering — fails loudly. Also covers
// the SplitPushdown conjunct analysis, the fused-projection fold, the
// EXPLAIN surface, and the flag/capability-aware plan-cache key.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "ir/expr.h"
#include "query/plan_cache.h"
#include "query/service.h"
#include "snb/snb.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::query {
namespace {

/// Space-joined operator kind sequence, e.g. "FUSED_SCAN EXPAND GROUP".
std::string ShapeOf(const ir::Plan& plan) {
  std::string shape;
  for (const ir::Op& op : plan.ops) {
    if (!shape.empty()) shape += " ";
    shape += ir::OpKindName(op.kind);
  }
  return shape;
}

class PlanShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    snb::SnbConfig config;
    config.num_persons = 200;
    config.seed = 17;
    stats_ = new snb::SnbStats();
    auto data = snb::GenerateSnb(config, stats_);
    store_ = storage::VineyardStore::Build(data).value().release();
    graph_ = store_->GetGrinHandle().release();
    service_ = new QueryService(graph_, 1);
  }
  static void TearDownTestSuite() {
    delete service_;
    delete graph_;
    delete store_;
    delete stats_;
  }

  /// Asserts the fused compile of `spec` matches its golden shape and the
  /// structural legality invariants, and that a fusion-off compile has no
  /// fused operator at all.
  static void CheckShape(const snb::QuerySpec& spec,
                         const std::string& golden) {
    SCOPED_TRACE(spec.name);
    auto fused = service_->Compile(Language::kCypher, spec.cypher);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    const ir::Plan& plan = fused.value();
    EXPECT_EQ(ShapeOf(plan), golden);
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      const ir::Op& op = plan.ops[i];
      if (op.kind == ir::OpKind::kFusedScan) {
        // A fused scan is always the leading op: FusePipelines never
        // fuses a cartesian re-scan.
        EXPECT_EQ(i, 0u);
      }
      if (op.kind != ir::OpKind::kFusedScan &&
          op.kind != ir::OpKind::kFusedExpand) {
        // Only fused ops may carry a folded projection.
        if (op.kind != ir::OpKind::kProject &&
            op.kind != ir::OpKind::kOrder && op.kind != ir::OpKind::kGroup &&
            op.kind != ir::OpKind::kSelect) {
          EXPECT_TRUE(op.exprs.empty());
        }
        continue;
      }
      // Fused ops require what the storage entry points require. A fused
      // scan always has a known label and >= 1 pushable conjunct; a fused
      // expand is fused either for pushdown (known label + predicate) or
      // for a folded projection (possibly both) — the filtered visit
      // degrades to unfiltered when there is nothing to push.
      EXPECT_EQ(op.id_lookup, nullptr);
      if (op.kind == ir::OpKind::kFusedScan) {
        EXPECT_NE(op.label, kInvalidLabel);
        ASSERT_NE(op.predicate, nullptr);
        const ir::PushdownSplit split = ir::SplitPushdown(
            *op.predicate, 0, op.label, graph_->schema(), nullptr);
        EXPECT_FALSE(split.pushed.empty());
      } else {
        EXPECT_TRUE((op.predicate != nullptr && op.label != kInvalidLabel) ||
                    !op.exprs.empty());
      }
    }
    // Fusion off: the very same text compiles to a plan with no fused op.
    auto parsed =
        ParseQuery(Language::kCypher, spec.cypher, graph_->schema());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    optimizer::OptimizerOptions no_fusion;
    no_fusion.fusion = false;
    const ir::Plan unfused =
        optimizer::Optimize(parsed.value(), &service_->catalog(), no_fusion,
                            &graph_->schema());
    EXPECT_EQ(unfused.ToString().find("FUSED_"), std::string::npos);
  }

  static void CheckAll(const std::vector<snb::QuerySpec>& specs,
                       const std::map<std::string, std::string>& golden) {
    for (const auto& spec : specs) {
      auto it = golden.find(spec.name);
      if (it == golden.end()) {
        auto compiled = service_->Compile(Language::kCypher, spec.cypher);
        ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
        ADD_FAILURE() << "missing golden shape:  {\"" << spec.name
                      << "\", \"" << ShapeOf(compiled.value()) << "\"},";
        continue;
      }
      CheckShape(spec, it->second);
    }
  }

  static snb::SnbStats* stats_;
  static storage::VineyardStore* store_;
  static grin::GrinGraph* graph_;
  static QueryService* service_;
};

snb::SnbStats* PlanShapeTest::stats_ = nullptr;
storage::VineyardStore* PlanShapeTest::store_ = nullptr;
grin::GrinGraph* PlanShapeTest::graph_ = nullptr;
QueryService* PlanShapeTest::service_ = nullptr;

// The golden shapes pin where fusion applies and — just as important —
// where it must not: id-pinned scans stay INDEX-style SCANs (id_lookup is
// the faster path), predicate-less scans stay unfused, a PROJECT folds
// into the expansion feeding it (but never across EXPAND_EDGE /
// GET_VERTEX / SELECT), and no op ever fuses across an ORDER / GROUP /
// DEDUP barrier (blocking ops appear unchanged downstream of fused ones).
TEST_F(PlanShapeTest, InteractiveComplexShapes) {
  CheckAll(snb::InteractiveComplexQueries(),
           {
               {"C1", "SCAN FUSED_EXPAND ORDER"},
               {"C2", "SCAN EXPAND FUSED_EXPAND ORDER"},
               {"C3", "SCAN EXPAND EXPAND GROUP ORDER"},
               {"C4", "SCAN EXPAND FUSED_EXPAND EXPAND GROUP ORDER"},
               {"C5", "SCAN EXPAND EXPAND_EDGE GET_VERTEX GROUP ORDER"},
               {"C6", "SCAN EXPAND EXPAND EXPAND EXPAND GROUP ORDER"},
               {"C7", "SCAN EXPAND EXPAND_EDGE GET_VERTEX PROJECT ORDER"},
               {"C8", "SCAN EXPAND EXPAND FUSED_EXPAND ORDER"},
               {"C9", "SCAN EXPAND EXPAND EXPAND SELECT PROJECT ORDER"},
               {"C10", "SCAN EXPAND EXPAND EXPAND EXPAND GROUP ORDER"},
               {"C11", "SCAN EXPAND FUSED_EXPAND ORDER"},
               {"C12", "SCAN EXPAND EXPAND EXPAND EXPAND GROUP ORDER"},
               {"C13", "SCAN EXPAND_VAR GROUP"},
               {"C14", "SCAN EXPAND EXPAND_EDGE GET_VERTEX GROUP ORDER"},
           });
}

TEST_F(PlanShapeTest, InteractiveShortShapes) {
  CheckAll(snb::InteractiveShortQueries(),
           {
               {"S1", "SCAN PROJECT"},
               {"S2", "SCAN FUSED_EXPAND ORDER"},
               {"S3", "SCAN EXPAND_EDGE GET_VERTEX PROJECT ORDER"},
               {"S4", "SCAN PROJECT"},
               {"S5", "SCAN FUSED_EXPAND"},
               {"S6", "SCAN FUSED_EXPAND"},
               {"S7", "SCAN EXPAND FUSED_EXPAND ORDER"},
           });
}

TEST_F(PlanShapeTest, BiShapes) {
  CheckAll(snb::BiQueries(),
           {
               {"BI1", "SCAN GROUP ORDER"},
               {"BI2", "SCAN EXPAND GROUP ORDER"},
               {"BI3", "SCAN EXPAND GROUP ORDER"},
               {"BI4", "SCAN EXPAND GROUP ORDER"},
               {"BI5", "SCAN EXPAND GROUP ORDER"},
               {"BI6", "SCAN EXPAND EXPAND GROUP ORDER"},
               {"BI7", "SCAN EXPAND GROUP ORDER"},
               {"BI8", "FUSED_SCAN GROUP ORDER"},
               {"BI9", "SCAN EXPAND GROUP ORDER"},
               {"BI10", "SCAN EXPAND GROUP ORDER"},
               {"BI11", "SCAN EXPAND GROUP ORDER"},
               {"BI12", "SCAN EXPAND GROUP ORDER"},
               {"BI13", "SCAN EXPAND GROUP ORDER"},
               {"BI14", "SCAN EXPAND EXPAND GROUP ORDER"},
               {"BI15", "SCAN EXPAND GROUP ORDER"},
               {"BI16", "SCAN EXPAND EXPAND GROUP ORDER"},
               {"BI17", "SCAN EXPAND EXPAND SELECT GROUP ORDER"},
               {"BI18", "SCAN GROUP ORDER"},
               {"BI19", "FUSED_SCAN GROUP ORDER"},
               {"BI20", "SCAN EXPAND EXPAND GROUP ORDER"},
           });
}

// A PROJECT reading only the scanned column folds into the fused scan and
// the folded plan agrees with the unfused one row-for-row, on the columnar
// path and on the tuple-at-a-time reference.
TEST_F(PlanShapeTest, FusedScanFoldsProjection) {
  const std::string text =
      "MATCH (m:Post) WHERE m.length > 300 "
      "RETURN m.browserUsed, m.length";
  auto fused = service_->Compile(Language::kCypher, text);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(ShapeOf(fused.value()), "FUSED_SCAN");
  ASSERT_EQ(fused.value().ops[0].exprs.size(), 2u);

  auto parsed = ParseQuery(Language::kCypher, text, graph_->schema());
  ASSERT_TRUE(parsed.ok());
  optimizer::OptimizerOptions no_fusion;
  no_fusion.fusion = false;
  const ir::Plan unfused =
      optimizer::Optimize(parsed.value(), &service_->catalog(), no_fusion,
                          &graph_->schema());
  ASSERT_EQ(ShapeOf(unfused), "SCAN PROJECT");

  Interpreter interpreter(graph_);
  const ir::Plan& fused_plan = fused.value();
  std::vector<std::string> reference;
  for (const ir::Plan* plan : {&fused_plan, &unfused}) {
    for (bool tuple_at_a_time : {true, false}) {
      auto rows = tuple_at_a_time ? interpreter.RunTupleAtATime(*plan)
                                  : interpreter.Run(*plan);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      auto rendered = RowsToStrings(rows.value());
      EXPECT_FALSE(rendered.empty());
      if (reference.empty()) {
        reference = std::move(rendered);
      } else {
        EXPECT_EQ(rendered, reference);
      }
    }
  }
}

// A PROJECT immediately downstream of an expansion folds into it — both
// when the expand also pushes a predicate and when there is no predicate
// at all (fused solely for the fold; the storage visit runs unfiltered) —
// and each folded plan agrees with its unfused form row-for-row, on the
// columnar path and on the tuple-at-a-time reference.
TEST_F(PlanShapeTest, FusedExpandFoldsProjection) {
  const std::vector<std::string> texts = {
      "MATCH (f:Forum)-[:CONTAINER_OF]->(m:Post) WHERE m.length > 300 "
      "RETURN f.title, m.length",
      "MATCH (m:Post)<-[:CONTAINER_OF]-(f:Forum) RETURN f.title, m.length",
  };
  for (const std::string& text : texts) {
    SCOPED_TRACE(text);
    auto fused = service_->Compile(Language::kCypher, text);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    ASSERT_EQ(ShapeOf(fused.value()), "SCAN FUSED_EXPAND");
    ASSERT_EQ(fused.value().ops[1].exprs.size(), 2u);

    auto parsed = ParseQuery(Language::kCypher, text, graph_->schema());
    ASSERT_TRUE(parsed.ok());
    optimizer::OptimizerOptions no_fusion;
    no_fusion.fusion = false;
    const ir::Plan unfused = optimizer::Optimize(
        parsed.value(), &service_->catalog(), no_fusion, &graph_->schema());
    ASSERT_EQ(ShapeOf(unfused), "SCAN EXPAND PROJECT");

    Interpreter interpreter(graph_);
    const ir::Plan& fused_plan = fused.value();
    std::vector<std::string> reference;
    for (const ir::Plan* plan : {&fused_plan, &unfused}) {
      for (bool tuple_at_a_time : {true, false}) {
        auto rows = tuple_at_a_time ? interpreter.RunTupleAtATime(*plan)
                                    : interpreter.Run(*plan);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        auto rendered = RowsToStrings(rows.value());
        EXPECT_FALSE(rendered.empty());
        if (reference.empty()) {
          reference = std::move(rendered);
        } else {
          EXPECT_EQ(rendered, reference);
        }
      }
    }
  }
}

TEST_F(PlanShapeTest, SplitPushdownConjuncts) {
  const GraphSchema& schema = graph_->schema();
  const label_t post = schema.FindVertexLabel("Post").value();
  const std::vector<PropertyValue> params = {PropertyValue("Chrome")};

  // length > 300 AND browserUsed == $0: both conjuncts push; the param
  // binds into the filter value.
  auto pred = ir::Expr::Binary(
      ir::BinOp::kAnd,
      ir::Expr::Binary(ir::BinOp::kGt, ir::Expr::Property(0, "length"),
                       ir::Expr::Const(PropertyValue(int64_t{300}))),
      ir::Expr::Binary(ir::BinOp::kEq, ir::Expr::Property(0, "browserUsed"),
                       ir::Expr::Param(0)));
  auto split = ir::SplitPushdown(*pred, 0, post, schema, &params);
  EXPECT_EQ(split.pushed.size(), 2u);
  EXPECT_TRUE(split.residual.empty());
  ASSERT_EQ(split.filter.conditions.size(), 2u);
  EXPECT_EQ(split.filter.conditions[0].cmp, grin::VertexCondition::Cmp::kGt);
  EXPECT_EQ(split.filter.conditions[1].value, PropertyValue("Chrome"));

  // Flipped operand order: 300 < length pushes as length > 300.
  auto flipped = ir::Expr::Binary(
      ir::BinOp::kLt, ir::Expr::Const(PropertyValue(int64_t{300})),
      ir::Expr::Property(0, "length"));
  split = ir::SplitPushdown(*flipped, 0, post, schema, &params);
  ASSERT_EQ(split.filter.conditions.size(), 1u);
  EXPECT_EQ(split.filter.conditions[0].cmp, grin::VertexCondition::Cmp::kGt);

  // Arithmetic, id(), and OR trees stay residual.
  auto residual_only = ir::Expr::Binary(
      ir::BinOp::kAnd,
      ir::Expr::Binary(
          ir::BinOp::kGt,
          ir::Expr::Binary(ir::BinOp::kAdd, ir::Expr::Property(0, "length"),
                           ir::Expr::Const(PropertyValue(int64_t{1}))),
          ir::Expr::Const(PropertyValue(int64_t{300}))),
      ir::Expr::Binary(
          ir::BinOp::kOr,
          ir::Expr::Binary(ir::BinOp::kEq, ir::Expr::Property(0, "length"),
                           ir::Expr::Const(PropertyValue(int64_t{1}))),
          ir::Expr::Binary(ir::BinOp::kEq, ir::Expr::Property(0, "length"),
                           ir::Expr::Const(PropertyValue(int64_t{2})))));
  split = ir::SplitPushdown(*residual_only, 0, post, schema, &params);
  EXPECT_TRUE(split.pushed.empty());
  EXPECT_EQ(split.residual.size(), 2u);

  // Out-of-range $i stays residual (execution must fail exactly as the
  // unfused expression would).
  auto bad_param =
      ir::Expr::Binary(ir::BinOp::kEq, ir::Expr::Property(0, "browserUsed"),
                       ir::Expr::Param(7));
  split = ir::SplitPushdown(*bad_param, 0, post, schema, &params);
  EXPECT_TRUE(split.pushed.empty());
  EXPECT_EQ(split.residual.size(), 1u);

  // Unresolvable property pushes as kNoColumn — the missing-property
  // empty value, mirroring Expr semantics.
  auto missing =
      ir::Expr::Binary(ir::BinOp::kEq, ir::Expr::Property(0, "nope"),
                       ir::Expr::Const(PropertyValue(int64_t{1})));
  split = ir::SplitPushdown(*missing, 0, post, schema, &params);
  ASSERT_EQ(split.filter.conditions.size(), 1u);
  EXPECT_EQ(split.filter.conditions[0].column,
            grin::VertexCondition::kNoColumn);

  // A predicate over some other column never pushes.
  auto other_col =
      ir::Expr::Binary(ir::BinOp::kGt, ir::Expr::Property(2, "length"),
                       ir::Expr::Const(PropertyValue(int64_t{300})));
  split = ir::SplitPushdown(*other_col, 0, post, schema, &params);
  EXPECT_TRUE(split.pushed.empty());

  // An unknown label disables pushdown entirely.
  split = ir::SplitPushdown(*pred, 0, kInvalidLabel, schema, &params);
  EXPECT_TRUE(split.pushed.empty());
  EXPECT_EQ(split.residual.size(), 2u);
}

TEST_F(PlanShapeTest, ExplainRendersFusionAndPushdown) {
  auto explain = service_->Explain(
      Language::kCypher,
      "MATCH (m:Post) WHERE m.length > 300 "
      "RETURN m.browserUsed, count(m) AS n ORDER BY n DESC");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain.value().find("FUSED_SCAN label=Post"),
            std::string::npos)
      << explain.value();
  EXPECT_NE(explain.value().find("pushed=[(_0.length > 300)]"),
            std::string::npos)
      << explain.value();

  // Unfusable query: EXPLAIN shows the plain plan, no fused markers.
  auto plain = service_->Explain(Language::kCypher,
                                 "MATCH (p:Person) RETURN p.firstName");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain.value().find("FUSED_"), std::string::npos)
      << plain.value();
}

TEST_F(PlanShapeTest, ExplainRendersEstimatesPastUint64) {
  // A label-less cartesian product estimates past 2^64 rows; EXPLAIN must
  // render that magnitude instead of an undefined integer cast.
  auto explain =
      service_->Explain(Language::kCypher, "MATCH (a), (b) RETURN a");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  const std::string& text = explain.value();
  const std::string key = "est_peak_rows=";
  const size_t at = text.rfind(key);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_GE(std::strtod(text.c_str() + at + key.size(), nullptr), 0x1p64)
      << text;
}

TEST_F(PlanShapeTest, PlanCacheKeySegments) {
  optimizer::OptimizerOptions defaults;
  optimizer::OptimizerOptions no_fusion;
  no_fusion.fusion = false;
  const std::string text = "MATCH (p:Person) RETURN p";
  const std::string base =
      PlanCacheKey('c', text, defaults.FlagBits(), graph_->capabilities());
  // Same inputs, same key (the cache dedupes repeated templates).
  EXPECT_EQ(base, PlanCacheKey('c', text, defaults.FlagBits(),
                               graph_->capabilities()));
  EXPECT_NE(base.find(text), std::string::npos);
  // Any of language, optimizer flag set, or backend capability mask
  // changing must miss: all three determine the compiled plan.
  EXPECT_NE(base, PlanCacheKey('g', text, defaults.FlagBits(),
                               graph_->capabilities()));
  EXPECT_NE(base, PlanCacheKey('c', text, no_fusion.FlagBits(),
                               graph_->capabilities()));
  EXPECT_NE(base, PlanCacheKey('c', text, defaults.FlagBits(),
                               graph_->capabilities() ^
                                   grin::kPredicatePushdown));
}

}  // namespace
}  // namespace flex::query
