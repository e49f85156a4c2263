#include <gtest/gtest.h>

#include <set>

#include "graph/csr.h"
#include "graph/partitioner.h"
#include "graph/property.h"
#include "graph/schema.h"

namespace flex {
namespace {

// ------------------------------------------------------------- Property

TEST(PropertyValueTest, TypesAndAccessors) {
  EXPECT_EQ(PropertyValue().type(), PropertyType::kEmpty);
  EXPECT_TRUE(PropertyValue().is_empty());
  EXPECT_EQ(PropertyValue(true).AsBool(), true);
  EXPECT_EQ(PropertyValue(int64_t{42}).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(PropertyValue(2.5).AsDouble(), 2.5);
  EXPECT_EQ(PropertyValue("hi").AsString(), "hi");
}

TEST(PropertyValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(PropertyValue(int64_t{3}), PropertyValue(3.0));
  EXPECT_NE(PropertyValue(int64_t{3}), PropertyValue(3.5));
  EXPECT_NE(PropertyValue("3"), PropertyValue(int64_t{3}));
}

TEST(PropertyValueTest, CompareOrdersNumbersAndStrings) {
  EXPECT_LT(PropertyValue(int64_t{1}), PropertyValue(2.0));
  EXPECT_LT(PropertyValue("abc"), PropertyValue("abd"));
  EXPECT_EQ(PropertyValue("x").Compare(PropertyValue("x")), 0);
}

TEST(PropertyValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(PropertyValue(int64_t{5}).Hash(), PropertyValue(5.0).Hash());
  EXPECT_EQ(PropertyValue("k").Hash(), PropertyValue("k").Hash());
  EXPECT_NE(PropertyValue("k").Hash(), PropertyValue("l").Hash());
}

TEST(PropertyValueTest, ToString) {
  EXPECT_EQ(PropertyValue().ToString(), "null");
  EXPECT_EQ(PropertyValue(int64_t{7}).ToString(), "7");
  EXPECT_EQ(PropertyValue(true).ToString(), "true");
  EXPECT_EQ(PropertyValue("s").ToString(), "s");
}

// --------------------------------------------------------------- Schema

TEST(SchemaTest, AddAndLookupLabels) {
  GraphSchema schema;
  auto buyer = schema.AddVertexLabel(
      "Buyer", {{"username", PropertyType::kString},
                {"credits", PropertyType::kInt64}});
  ASSERT_TRUE(buyer.ok());
  auto item = schema.AddVertexLabel("Item", {{"price", PropertyType::kDouble}});
  ASSERT_TRUE(item.ok());
  auto buy = schema.AddEdgeLabel("BUY", buyer.value(), item.value(),
                                 {{"date", PropertyType::kInt64}});
  ASSERT_TRUE(buy.ok());

  EXPECT_EQ(schema.vertex_label_num(), 2u);
  EXPECT_EQ(schema.edge_label_num(), 1u);
  EXPECT_EQ(schema.FindVertexLabel("Item").value(), item.value());
  EXPECT_EQ(schema.FindEdgeLabel("BUY").value(), buy.value());
  EXPECT_EQ(schema.FindVertexProperty(buyer.value(), "credits").value(), 1u);
  EXPECT_EQ(schema.FindEdgeProperty(buy.value(), "date").value(), 0u);
  EXPECT_EQ(schema.edge_label(buy.value()).src_label, buyer.value());
  EXPECT_EQ(schema.edge_label(buy.value()).dst_label, item.value());
}

TEST(SchemaTest, RejectsDuplicatesAndBadRefs) {
  GraphSchema schema;
  ASSERT_TRUE(schema.AddVertexLabel("A", {}).ok());
  EXPECT_EQ(schema.AddVertexLabel("A", {}).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(schema.AddEdgeLabel("E", 0, 9, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.FindVertexLabel("missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(schema.FindVertexProperty(0, "missing").status().code(),
            StatusCode::kNotFound);
}

// ------------------------------------------------------------------ CSR

EdgeList DiamondGraph() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {{0, 1, 0.1}, {0, 2, 0.2}, {1, 3, 0.3}, {2, 3, 0.4}};
  return list;
}

TEST(CsrTest, BuildsForwardAdjacency) {
  Csr csr = Csr::FromEdges(DiamondGraph());
  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_edges(), 4u);
  ASSERT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.Neighbors(0)[0], 1u);
  EXPECT_EQ(csr.Neighbors(0)[1], 2u);
  EXPECT_DOUBLE_EQ(csr.Weights(0)[1], 0.2);
  EXPECT_EQ(csr.degree(3), 0u);
}

TEST(CsrTest, BuildsReversedAdjacency) {
  Csr csc = Csr::FromEdges(DiamondGraph(), /*reversed=*/true);
  ASSERT_EQ(csc.degree(3), 2u);
  EXPECT_EQ(csc.Neighbors(3)[0], 1u);
  EXPECT_EQ(csc.Neighbors(3)[1], 2u);
  EXPECT_EQ(csc.degree(0), 0u);
}

TEST(CsrTest, EmptyGraph) {
  EdgeList list;
  list.num_vertices = 0;
  Csr csr = Csr::FromEdges(list);
  EXPECT_EQ(csr.num_vertices(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(CsrTest, IsolatedVerticesHaveZeroDegree) {
  EdgeList list;
  list.num_vertices = 5;
  list.edges = {{4, 0, 1.0}};
  Csr csr = Csr::FromEdges(list);
  for (vid_t v = 0; v < 4; ++v) EXPECT_EQ(csr.degree(v), 0u);
  EXPECT_EQ(csr.degree(4), 1u);
}

TEST(CsrTest, StatsMatchStructure) {
  GraphStats stats = ComputeStats(Csr::FromEdges(DiamondGraph()));
  EXPECT_EQ(stats.num_vertices, 4u);
  EXPECT_EQ(stats.num_edges, 4u);
  EXPECT_EQ(stats.max_degree, 2u);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 1.0);
}

TEST(CsrTest, EdgeOffsetsAreGlobalRanks) {
  Csr csr = Csr::FromEdges(DiamondGraph());
  EXPECT_EQ(csr.EdgeOffset(0), 0u);
  EXPECT_EQ(csr.EdgeOffset(1), 2u);
  EXPECT_EQ(csr.EdgeOffset(2), 3u);
  EXPECT_EQ(csr.EdgeOffset(3), 4u);
}

// ---------------------------------------------------------- Partitioner

TEST(PartitionerTest, PartitionIdsInRange) {
  EdgeCutPartitioner part(777, 3);
  for (vid_t v = 0; v < 777; ++v) EXPECT_LT(part.GetPartition(v), 3u);
}

TEST(PartitionerTest, HashBalancesLoad) {
  const vid_t n = 10000;
  EdgeCutPartitioner part(n, 8);
  std::vector<size_t> counts(8, 0);
  for (vid_t v = 0; v < n; ++v) ++counts[part.GetPartition(v)];
  for (size_t c : counts) {
    EXPECT_GT(c, n / 8 / 2);
    EXPECT_LT(c, n / 8 * 2);
  }
}

}  // namespace
}  // namespace flex
