#include <gtest/gtest.h>

#include "baselines/analytics_baselines.h"
#include "baselines/livegraph.h"
#include "baselines/relational.h"
#include "datagen/generators.h"
#include "grape/apps/pagerank.h"
#include "grape/apps/traversal.h"

namespace flex::baselines {
namespace {

EdgeList TestGraph() {
  EdgeList g = datagen::GenerateRmat({.scale = 9, .edge_factor = 8.0,
                                      .a = 0.57, .b = 0.19, .c = 0.19,
                                      .seed = 11});
  return g;
}

/// All three comparator engines must agree with GRAPE on results — the
/// benchmarks compare *performance*, not answers.
TEST(BaselineEnginesTest, PageRankAgreesWithGrape) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, 2);
  auto frags = grape::Partition(g, part);
  auto want = grape::RunPageRank(frags, 8, 0.85);

  GasEngine gas(g, 2);
  PushPullEngine pp(g, 2);
  FineGrainedEngine fg(g, 2);
  auto gas_pr = gas.PageRank(8);
  auto pp_pr = pp.PageRank(8);
  auto fg_pr = fg.PageRank(8);
  for (vid_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_NEAR(gas_pr[v], want[v], 1e-9) << v;
    EXPECT_NEAR(pp_pr[v], want[v], 1e-9) << v;
    EXPECT_NEAR(fg_pr[v], want[v], 1e-9) << v;
  }
}

TEST(BaselineEnginesTest, BfsAgreesWithGrape) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, 2);
  auto frags = grape::Partition(g, part);
  auto want = grape::RunBfs(frags, 1);

  GasEngine gas(g, 2);
  PushPullEngine pp(g, 2);
  FineGrainedEngine fg(g, 2);
  EXPECT_EQ(gas.Bfs(1), want);
  EXPECT_EQ(pp.Bfs(1), want);
  EXPECT_EQ(fg.Bfs(1), want);
}

TEST(RelTableTest, SelectScansRows) {
  RelTable t(2);
  t.AppendRow({1, 10});
  t.AppendRow({2, 20});
  t.AppendRow({1, 30});
  RelTable sel = t.Select(0, 1);
  ASSERT_EQ(sel.num_rows(), 2u);
  EXPECT_EQ(sel.At(0, 1), 10);
  EXPECT_EQ(sel.At(1, 1), 30);
}

TEST(RelTableTest, HashJoin) {
  RelTable edges(2);
  edges.AppendRow({0, 1});
  edges.AppendRow({1, 2});
  edges.AppendRow({1, 3});
  // Two-hop: edges JOIN edges ON a.dst == b.src.
  RelTable two_hop = edges.Join(1, edges, 0);
  ASSERT_EQ(two_hop.num_rows(), 2u);  // 0->1->2 and 0->1->3.
  EXPECT_EQ(two_hop.At(0, 0), 0);
  EXPECT_EQ(two_hop.num_columns(), 4u);
}

TEST(RelTableTest, GroupBySum) {
  RelTable t(2);
  t.AppendRow({5, 1.5});
  t.AppendRow({5, 2.5});
  t.AppendRow({7, 1.0});
  RelTable grouped = t.GroupBySum(0, 1);
  ASSERT_EQ(grouped.num_rows(), 2u);
  double sum5 = 0, sum7 = 0;
  for (size_t r = 0; r < grouped.num_rows(); ++r) {
    if (grouped.At(r, 0) == 5) sum5 = grouped.At(r, 1);
    if (grouped.At(r, 0) == 7) sum7 = grouped.At(r, 1);
  }
  EXPECT_DOUBLE_EQ(sum5, 4.0);
  EXPECT_DOUBLE_EQ(sum7, 1.0);
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

}  // namespace
}  // namespace flex::baselines
