#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <queue>
#include <string>
#include <tuple>

#include "common/barrier.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/generators.h"
#include "grape/apps/cdlp.h"
#include "grape/apps/equity.h"
#include "grape/apps/kcore.h"
#include "grape/apps/pagerank.h"
#include "grape/apps/traversal.h"
#include "grape/compat.h"
#include "grape/flash.h"
#include "grape/ingress.h"
#include "grape/message_manager.h"
#include "grape/pregel.h"

namespace flex::grape {
namespace {

// --------------------------------------------------- reference kernels

std::vector<double> ReferencePageRank(const EdgeList& g, int iters,
                                      double damping) {
  const vid_t n = g.num_vertices;
  std::vector<uint32_t> outdeg(n, 0);
  for (const RawEdge& e : g.edges) ++outdeg[e.src];
  std::vector<double> rank(n, 1.0 / n), next(n);
  for (int it = 0; it < iters; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (vid_t v = 0; v < n; ++v) {
      if (outdeg[v] == 0) dangling += rank[v];
    }
    for (const RawEdge& e : g.edges) next[e.dst] += rank[e.src] / outdeg[e.src];
    for (vid_t v = 0; v < n; ++v) {
      rank[v] = (1.0 - damping) / n + damping * (next[v] + dangling / n);
    }
  }
  return rank;
}

std::vector<uint32_t> ReferenceBfs(const EdgeList& g, vid_t source) {
  std::vector<std::vector<vid_t>> adj(g.num_vertices);
  for (const RawEdge& e : g.edges) adj[e.src].push_back(e.dst);
  std::vector<uint32_t> depth(g.num_vertices, kUnreachedDepth);
  std::queue<vid_t> queue;
  depth[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const vid_t v = queue.front();
    queue.pop();
    for (vid_t u : adj[v]) {
      if (depth[u] == kUnreachedDepth) {
        depth[u] = depth[v] + 1;
        queue.push(u);
      }
    }
  }
  return depth;
}

std::vector<double> ReferenceSssp(const EdgeList& g, vid_t source) {
  std::vector<std::vector<std::pair<vid_t, double>>> adj(g.num_vertices);
  for (const RawEdge& e : g.edges) adj[e.src].push_back({e.dst, e.weight});
  std::vector<double> dist(g.num_vertices, kUnreachedDist);
  using Item = std::pair<double, vid_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    for (auto [u, w] : adj[v]) {
      if (d + w < dist[u]) {
        dist[u] = d + w;
        heap.push({dist[u], u});
      }
    }
  }
  return dist;
}

/// Union-find reference for WCC over the undirected closure.
std::vector<uint32_t> ReferenceWcc(const EdgeList& g) {
  std::vector<uint32_t> parent(g.num_vertices);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<uint32_t(uint32_t)> find = [&](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const RawEdge& e : g.edges) {
    const uint32_t a = find(e.src), b = find(e.dst);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  // Fully compress, then canonicalize to the min vertex in the component.
  std::vector<uint32_t> label(g.num_vertices);
  for (vid_t v = 0; v < g.num_vertices; ++v) label[v] = find(v);
  return label;
}

EdgeList TestGraph() {
  EdgeList g = datagen::GenerateRmat({.scale = 10, .edge_factor = 8.0,
                                      .a = 0.57, .b = 0.19, .c = 0.19,
                                      .seed = 42});
  datagen::AssignWeights(&g, 7);
  return g;
}

class FragmentCounts : public ::testing::TestWithParam<partition_t> {};

// ------------------------------------------------------------ Fragment

TEST_P(FragmentCounts, PartitionCoversAllEdges) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, GetParam());
  auto frags = Partition(g, part);
  size_t inner_total = 0, edge_total = 0, in_edge_total = 0;
  for (const auto& frag : frags) {
    inner_total += frag->inner_vertices().size();
    edge_total += frag->num_inner_edges();
    // Every edge a fragment holds hangs off one of its inner vertices.
    size_t inner_out_degree = 0;
    for (vid_t v = 0; v < frag->ivnum(); ++v) {
      in_edge_total += frag->InDegree(v);
      inner_out_degree += frag->OutDegree(v);
      EXPECT_TRUE(frag->IsInner(v));
    }
    EXPECT_EQ(inner_out_degree, frag->num_inner_edges())
        << "fragment " << frag->fid();
  }
  EXPECT_EQ(inner_total, g.num_vertices);
  EXPECT_EQ(edge_total, g.num_edges());
  EXPECT_EQ(in_edge_total, g.num_edges());
}

TEST_P(FragmentCounts, LocalIdsFollowTheLayout) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, GetParam());
  auto frags = Partition(g, part);
  for (const auto& frag : frags) {
    SCOPED_TRACE("fragment " + std::to_string(frag->fid()));
    const auto inner = frag->inner_vertices();
    ASSERT_EQ(inner.size(), frag->ivnum());
    for (vid_t l = 0; l < frag->num_local(); ++l) {
      EXPECT_EQ(frag->Lid(frag->Gid(l)), l) << "lid " << l;
      EXPECT_EQ(frag->OwnerOf(l), part.GetPartition(frag->Gid(l)))
          << "lid " << l;
      EXPECT_EQ(frag->RemoteLid(l),
                frags[frag->OwnerOf(l)]->Lid(frag->Gid(l)))
          << "lid " << l;
    }
    // Inner ids follow inner_vertices(), which ascend and are owned here.
    for (vid_t l = 0; l < frag->ivnum(); ++l) {
      EXPECT_EQ(frag->Gid(l), inner[l]);
      EXPECT_TRUE(frag->IsInner(l));
      EXPECT_EQ(frag->OwnerOf(l), frag->fid());
      if (l > 0) EXPECT_LT(inner[l - 1], inner[l]);
    }
    // Outer ids are owned elsewhere, grouped by owner, ascending within one.
    for (vid_t l = frag->ivnum(); l < frag->num_local(); ++l) {
      EXPECT_FALSE(frag->IsInner(l));
      EXPECT_NE(frag->OwnerOf(l), frag->fid()) << "lid " << l;
      if (l == frag->ivnum()) continue;
      EXPECT_LE(frag->OwnerOf(l - 1), frag->OwnerOf(l)) << "lid " << l;
      if (frag->OwnerOf(l - 1) == frag->OwnerOf(l)) {
        EXPECT_LT(frag->Gid(l - 1), frag->Gid(l)) << "lid " << l;
      }
    }
    // Every global id maps to its local id or to kInvalidVid, and so does
    // one past the graph.
    vid_t mapped = 0;
    for (vid_t v = 0; v < g.num_vertices; ++v) {
      if (frag->Lid(v) != kInvalidVid) ++mapped;
    }
    EXPECT_EQ(mapped, frag->num_local());
    EXPECT_EQ(frag->Lid(g.num_vertices), kInvalidVid);
    EXPECT_EQ(frag->Lid(kInvalidVid), kInvalidVid);
  }
}

TEST_P(FragmentCounts, EdgesMapBackToTheEdgeList) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, GetParam());
  auto frags = Partition(g, part);
  std::vector<RawEdge> out_edges;
  std::vector<std::pair<vid_t, vid_t>> in_edges;
  for (const auto& frag : frags) {
    for (vid_t l = 0; l < frag->ivnum(); ++l) {
      const auto nbrs = frag->OutNeighbors(l);
      const auto weights = frag->OutWeights(l);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        out_edges.push_back({frag->Gid(l), frag->Gid(nbrs[i]), weights[i]});
      }
      for (vid_t u : frag->InNeighbors(l)) {
        in_edges.push_back({frag->Gid(u), frag->Gid(l)});
      }
    }
  }
  auto by_endpoints = [](const RawEdge& a, const RawEdge& b) {
    return std::tie(a.src, a.dst, a.weight) < std::tie(b.src, b.dst, b.weight);
  };
  std::vector<RawEdge> want = g.edges;
  std::sort(want.begin(), want.end(), by_endpoints);
  std::sort(out_edges.begin(), out_edges.end(), by_endpoints);
  EXPECT_EQ(out_edges, want);
  std::vector<std::pair<vid_t, vid_t>> want_in;
  for (const RawEdge& e : g.edges) want_in.push_back({e.src, e.dst});
  std::sort(want_in.begin(), want_in.end());
  std::sort(in_edges.begin(), in_edges.end());
  EXPECT_EQ(in_edges, want_in);
}

TEST(FragmentTest, EveryVertexHasExactlyOneOwner) {
  const vid_t n = 1000;
  EdgeList g;
  g.num_vertices = n;
  EdgeCutPartitioner part(n, 4);
  std::vector<int> seen(n, 0);
  for (const auto& frag : Partition(g, part)) {
    for (vid_t v : frag->inner_vertices()) ++seen[v];
  }
  for (vid_t v = 0; v < n; ++v) EXPECT_EQ(seen[v], 1) << "vertex " << v;
}

TEST(FragmentTest, SinglePartitionOwnsAll) {
  EdgeList g;
  g.num_vertices = 50;
  EdgeCutPartitioner part(50, 1);
  EXPECT_EQ(Partition(g, part)[0]->inner_vertices().size(), 50u);
}

TEST(FragmentTest, HashBalancesRmatEdges) {
  // RMAT puts its hubs on ids that share their low bits, so a hash that
  // keeps v mod P for power-of-two P piles their edges onto one fragment.
  EdgeList g = datagen::GenerateRmat({.scale = 16, .edge_factor = 16.0,
                                      .a = 0.57, .b = 0.19, .c = 0.19,
                                      .seed = 1});
  for (partition_t parts : {2u, 3u, 4u, 8u}) {
    EdgeCutPartitioner part(g.num_vertices, parts);
    auto frags = Partition(g, part);
    size_t largest = 0;
    for (const auto& frag : frags) {
      largest = std::max(largest, frag->num_inner_edges());
    }
    const double mean = static_cast<double>(g.num_edges()) / parts;
    EXPECT_LE(static_cast<double>(largest), 1.1 * mean)
        << parts << " fragments: largest " << largest << ", mean " << mean;
  }
}

TEST(FragmentTest, OwnerMapSurvivesMoreThan256Partitions) {
  // The owner map used to be a byte map: partition ids beyond 255 were
  // stored mod 256, so OwnerOf misrouted every message on a >256-fragment
  // deployment while all small-fragment tests stayed green. Build with 300
  // partitions and check every fragment's per-local-id owner against the
  // partitioner.
  EdgeList g = datagen::GenerateRmat({.scale = 11, .edge_factor = 4.0,
                                      .a = 0.57, .b = 0.19, .c = 0.19,
                                      .seed = 5});
  const partition_t kParts = 300;
  EdgeCutPartitioner part(g.num_vertices, kParts);
  partition_t max_partition = 0;
  for (vid_t v = 0; v < g.num_vertices; ++v) {
    max_partition = std::max(max_partition, part.GetPartition(v));
  }
  // The scenario only bites if some vertex actually lands beyond 255.
  ASSERT_GT(max_partition, 255u);
  auto frags = Partition(g, part);
  ASSERT_EQ(frags.size(), static_cast<size_t>(kParts));
  bool outer_above_255 = false;
  for (const auto& frag : frags) {
    for (vid_t l = 0; l < frag->num_local(); ++l) {
      const vid_t v = frag->Gid(l);
      const partition_t owner = part.GetPartition(v);
      EXPECT_EQ(frag->OwnerOf(l), owner) << "vertex " << v;
      EXPECT_EQ(frag->IsInner(l), owner == frag->fid()) << "vertex " << v;
      EXPECT_EQ(frags[owner]->Gid(frag->RemoteLid(l)), v) << "vertex " << v;
      outer_above_255 = outer_above_255 || (!frag->IsInner(l) && owner > 255);
    }
  }
  EXPECT_TRUE(outer_above_255);
}

// ------------------------------------------------------------ PageRank

TEST_P(FragmentCounts, PageRankMatchesReference) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, GetParam());
  auto frags = Partition(g, part);
  auto got = RunPageRank(frags, 10, 0.85);
  auto want = ReferencePageRank(g, 10, 0.85);
  ASSERT_EQ(got.size(), want.size());
  double total = 0.0;
  for (vid_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_NEAR(got[v], want[v], 1e-10) << "vertex " << v;
    total += got[v];
  }
  EXPECT_NEAR(total, 1.0, 1e-6);  // Rank mass conserved (dangling handled).
}

TEST(PageRankTest, PerMessageModeSameResult) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, 3);
  auto frags = Partition(g, part);
  auto agg = RunPageRank(frags, 5, 0.85, MessageMode::kAggregated);
  auto per = RunPageRank(frags, 5, 0.85, MessageMode::kPerMessage);
  for (vid_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_NEAR(agg[v], per[v], 1e-9);
  }
}

// ----------------------------------------------------------- Traversal

TEST_P(FragmentCounts, BfsMatchesReference) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, GetParam());
  auto frags = Partition(g, part);
  auto got = RunBfs(frags, 0);
  auto want = ReferenceBfs(g, 0);
  EXPECT_EQ(got, want);
}

TEST_P(FragmentCounts, SsspMatchesReference) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, GetParam());
  auto frags = Partition(g, part);
  auto got = RunSssp(frags, 0);
  auto want = ReferenceSssp(g, 0);
  for (vid_t v = 0; v < g.num_vertices; ++v) {
    if (want[v] == kUnreachedDist) {
      EXPECT_EQ(got[v], kUnreachedDist);
    } else {
      EXPECT_NEAR(got[v], want[v], 1e-9) << "vertex " << v;
    }
  }
}

TEST_P(FragmentCounts, WccMatchesReference) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, GetParam());
  auto frags = Partition(g, part);
  auto got = RunWcc(frags);
  auto want = ReferenceWcc(g);
  EXPECT_EQ(got, want);
}

// CDLP and PIE k-core have no serial reference here; they are held to
// their own 1-fragment answers.
TEST_P(FragmentCounts, CdlpMatchesOneFragment) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner one(g.num_vertices, 1);
  auto want = RunCdlp(Partition(g, one), 5);
  EdgeCutPartitioner part(g.num_vertices, GetParam());
  EXPECT_EQ(RunCdlp(Partition(g, part), 5), want);
}

TEST_P(FragmentCounts, KCoreMatchesOneFragment) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner one(g.num_vertices, 1);
  auto frags_one = Partition(g, one);
  EdgeCutPartitioner part(g.num_vertices, GetParam());
  auto frags = Partition(g, part);
  for (uint32_t k : {2u, 8u, 16u}) {
    auto want = RunKCore(frags_one, k);
    // Each k peels some vertices and keeps others.
    const auto core = std::count(want.begin(), want.end(), 1);
    EXPECT_GT(core, 0) << "k=" << k;
    EXPECT_LT(core, static_cast<std::ptrdiff_t>(want.size())) << "k=" << k;
    EXPECT_EQ(RunKCore(frags, k), want) << "k=" << k;
  }
}

// A source no fragment owns used to index past every per-vertex array.
// Sources just past the graph and far past it now reach nothing.
constexpr vid_t kSourcesOutsideTheGraph[] = {1031, 4000000000u};

TEST(BfsTest, SourceOutsideTheGraphReachesNothing) {
  EdgeList g = TestGraph();
  ASSERT_EQ(g.num_vertices, 1024u);
  EdgeCutPartitioner part(g.num_vertices, 3);
  auto frags = Partition(g, part);
  for (vid_t source : kSourcesOutsideTheGraph) {
    const auto depth = RunBfs(frags, source);
    ASSERT_EQ(depth.size(), g.num_vertices);
    for (vid_t v = 0; v < g.num_vertices; ++v) {
      EXPECT_EQ(depth[v], kUnreachedDepth) << "source " << source;
    }
  }
}

TEST(SsspTest, SourceOutsideTheGraphReachesNothing) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, 3);
  auto frags = Partition(g, part);
  for (vid_t source : kSourcesOutsideTheGraph) {
    const auto dist = RunSssp(frags, source);
    ASSERT_EQ(dist.size(), g.num_vertices);
    for (vid_t v = 0; v < g.num_vertices; ++v) {
      EXPECT_EQ(dist[v], kUnreachedDist) << "source " << source;
    }
  }
}

TEST(NetworkXTest, SourceOutsideTheGraphReachesNothing) {
  EdgeList g = TestGraph();
  for (vid_t source : kSourcesOutsideTheGraph) {
    EXPECT_TRUE(
        networkx::single_source_shortest_path_length(g, source, 3).empty())
        << "source " << source;
  }
}

TEST(BfsTest, DisconnectedSourceOnlyReachesItself) {
  EdgeList g;
  g.num_vertices = 5;
  g.edges = {{1, 2, 1.0}, {2, 3, 1.0}};
  EdgeCutPartitioner part(5, 2);
  auto frags = Partition(g, part);
  auto depth = RunBfs(frags, 0);
  EXPECT_EQ(depth[0], 0u);
  for (vid_t v = 1; v < 5; ++v) EXPECT_EQ(depth[v], kUnreachedDepth);
}

// ---------------------------------------------------------------- CDLP

TEST(CdlpTest, TwoCliquesConverge) {
  // Two 4-cliques joined by a single bridge edge: labels converge within
  // each clique.
  EdgeList g;
  g.num_vertices = 8;
  for (vid_t a = 0; a < 4; ++a) {
    for (vid_t b = 0; b < 4; ++b) {
      if (a != b) {
        g.edges.push_back({a, b, 1.0});
        g.edges.push_back({a + 4, b + 4, 1.0});
      }
    }
  }
  g.edges.push_back({3, 4, 1.0});
  EdgeCutPartitioner part(8, 2);
  auto frags = Partition(g, part);
  auto labels = RunCdlp(frags, 10);
  for (vid_t v = 0; v < 4; ++v) EXPECT_EQ(labels[v], labels[0]);
  for (vid_t v = 4; v < 8; ++v) EXPECT_EQ(labels[v], labels[4]);
}

TEST(CdlpTest, FixedRoundsTerminate) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, 2);
  auto frags = Partition(g, part);
  auto labels = RunCdlp(frags, 5);
  EXPECT_EQ(labels.size(), g.num_vertices);
  for (uint32_t l : labels) EXPECT_LT(l, g.num_vertices);
}

// --------------------------------------------------------------- kcore

TEST(KCoreTest, CliquePlusTail) {
  // A 5-clique with a pendant path: 4-core = the clique only.
  EdgeList g;
  g.num_vertices = 8;
  for (vid_t a = 0; a < 5; ++a) {
    for (vid_t b = a + 1; b < 5; ++b) g.edges.push_back({a, b, 1.0});
  }
  g.edges.push_back({4, 5, 1.0});
  g.edges.push_back({5, 6, 1.0});
  g.edges.push_back({6, 7, 1.0});
  EdgeCutPartitioner part(8, 2);
  auto frags = Partition(g, part);
  auto alive = RunKCore(frags, 4);
  for (vid_t v = 0; v < 5; ++v) EXPECT_EQ(alive[v], 1) << v;
  for (vid_t v = 5; v < 8; ++v) EXPECT_EQ(alive[v], 0) << v;
}

TEST(KCoreTest, AgreesWithFlashPeeling) {
  // The PIE app counts multigraph degree (out + in); to compare against
  // FLASH's simple-graph peeling, canonicalize to a simple undirected
  // graph first (one record per {u, v}, no self-loops).
  EdgeList raw = TestGraph();
  std::set<std::pair<vid_t, vid_t>> seen;
  EdgeList g;
  g.num_vertices = raw.num_vertices;
  for (const RawEdge& e : raw.edges) {
    if (e.src == e.dst) continue;
    auto key = std::minmax(e.src, e.dst);
    if (seen.insert({key.first, key.second}).second) {
      g.edges.push_back({key.first, key.second, 1.0});
    }
  }
  EdgeCutPartitioner part(g.num_vertices, 3);
  auto frags = Partition(g, part);
  flash::FlashEngine flash_engine(g, 3);
  for (uint32_t k : {2u, 5u, 10u}) {
    auto pie = RunKCore(frags, k);
    auto fl = flash_engine.KCore(k);
    ASSERT_TRUE(fl.ok());
    EXPECT_EQ(pie, fl.value()) << "k=" << k;
  }
}

// -------------------------------------------------------------- Pregel

class PregelSssp : public PregelProgram<double, double> {
 public:
  explicit PregelSssp(vid_t source) : source_(source) {}

  double Init(vid_t v, const Fragment&) override {
    return v == source_ ? 0.0 : kUnreachedDist;
  }

  void Compute(PregelVertex<double, double>& vertex,
               std::span<const double> messages) override {
    double best = vertex.value();
    for (double m : messages) best = std::min(best, m);
    if (best < vertex.value() || vertex.superstep() == 0) {
      vertex.value() = best;
      if (best != kUnreachedDist) {
        const auto nbrs = vertex.out_neighbors();
        const auto weights = vertex.out_weights();
        for (size_t i = 0; i < nbrs.size(); ++i) {
          vertex.SendTo(nbrs[i], best + weights[i]);
        }
      }
    }
    vertex.VoteToHalt();
  }

 private:
  vid_t source_;
};

TEST_P(FragmentCounts, PregelSsspMatchesReference) {
  EdgeList g = TestGraph();
  EdgeCutPartitioner part(g.num_vertices, GetParam());
  auto frags = Partition(g, part);
  auto got = RunPregel<double, double>(
      frags, [] { return std::make_unique<PregelSssp>(0); }, 1000);
  auto want = ReferenceSssp(g, 0);
  for (vid_t v = 0; v < g.num_vertices; ++v) {
    if (want[v] == kUnreachedDist) {
      EXPECT_EQ(got[v], kUnreachedDist);
    } else {
      EXPECT_NEAR(got[v], want[v], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fragments, FragmentCounts,
                         ::testing::Values(1, 2, 3, 4, 8));

/// Max-value propagation: classic Pregel example; exercises keep-alive
/// (vertices stay active until quiescent).
class PregelMax : public PregelProgram<uint32_t, uint32_t> {
 public:
  uint32_t Init(vid_t v, const Fragment&) override { return v * 7 % 101; }

  void Compute(PregelVertex<uint32_t, uint32_t>& vertex,
               std::span<const uint32_t> messages) override {
    uint32_t best = vertex.value();
    for (uint32_t m : messages) best = std::max(best, m);
    if (best > vertex.value() || vertex.superstep() == 0) {
      vertex.value() = best;
      vertex.SendToNeighbors(best);
    }
    vertex.VoteToHalt();
  }
};

TEST(PregelTest, MaxPropagationOnCycle) {
  EdgeList g;
  g.num_vertices = 10;
  for (vid_t v = 0; v < 10; ++v) g.edges.push_back({v, (v + 1) % 10, 1.0});
  EdgeCutPartitioner part(10, 2);
  auto frags = Partition(g, part);
  auto values = RunPregel<uint32_t, uint32_t>(
      frags, [] { return std::make_unique<PregelMax>(); }, 100);
  uint32_t expected = 0;
  for (vid_t v = 0; v < 10; ++v) expected = std::max(expected, v * 7 % 101);
  for (vid_t v = 0; v < 10; ++v) EXPECT_EQ(values[v], expected);
}

// --------------------------------------------------------------- FLASH

TEST(FlashTest, TriangleCountsOnKnownGraph) {
  // Triangle 0-1-2 plus an edge 2-3.
  EdgeList g;
  g.num_vertices = 4;
  g.edges = {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {2, 3, 1}};
  flash::FlashEngine engine(g, 2);
  auto counts = engine.TriangleCounts();
  EXPECT_EQ(counts, (std::vector<uint64_t>{1, 1, 1, 0}));
}

TEST(FlashTest, TriangleTotalMatchesBruteForce) {
  EdgeList g = datagen::GenerateUniform(200, 2000, 5);
  flash::FlashEngine engine(g, 3);
  auto counts = engine.TriangleCounts();
  // Brute force over undirected simple closure.
  std::vector<std::vector<uint8_t>> adj(200, std::vector<uint8_t>(200, 0));
  for (const RawEdge& e : g.edges) {
    if (e.src != e.dst) {
      adj[e.src][e.dst] = 1;
      adj[e.dst][e.src] = 1;
    }
  }
  uint64_t brute = 0;
  for (vid_t a = 0; a < 200; ++a) {
    for (vid_t b = a + 1; b < 200; ++b) {
      if (!adj[a][b]) continue;
      for (vid_t c = b + 1; c < 200; ++c) {
        if (adj[a][c] && adj[b][c]) ++brute;
      }
    }
  }
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(total, brute * 3);  // Each triangle counted at 3 corners.
}

TEST(FlashTest, CheckedVariantsStopOnDeadlineAndCancel) {
  EdgeList g = TestGraph();
  flash::FlashEngine engine(g, 2);

  flash::FlashOptions expired;
  expired.deadline = Deadline::Expired();
  auto kcore = engine.KCore(4, expired);
  ASSERT_FALSE(kcore.ok());
  EXPECT_EQ(kcore.status().code(), StatusCode::kDeadlineExceeded);

  CancellationToken token;
  token.Cancel();
  flash::FlashOptions cancelled;
  cancelled.cancel = &token;
  auto louvain = engine.LouvainCommunities(10, cancelled);
  ASSERT_FALSE(louvain.ok());
  EXPECT_EQ(louvain.status().code(), StatusCode::kCancelled);
}

TEST(FlashTest, LccBounds) {
  EdgeList g = TestGraph();
  flash::FlashEngine engine(g, 3);
  auto lcc = engine.Lcc();
  for (double x : lcc) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0 + 1e-12);
  }
}

TEST(FlashTest, LccOfTriangleIsOne) {
  EdgeList g;
  g.num_vertices = 3;
  g.edges = {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}};
  flash::FlashEngine engine(g, 1);
  auto lcc = engine.Lcc();
  for (double x : lcc) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(FlashTest, VertexAndEdgeMapPrimitives) {
  EdgeList g;
  g.num_vertices = 6;
  g.edges = {{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 4, 1}, {4, 5, 1}};
  flash::FlashEngine engine(g, 2);
  auto all = flash::VertexSubset::All(6);
  auto evens = engine.VertexMap(all, [](vid_t v) { return v % 2 == 0; });
  EXPECT_EQ(evens.size(), 3u);
  EXPECT_TRUE(evens.Contains(0));
  EXPECT_FALSE(evens.Contains(1));

  flash::VertexSubset start(6);
  start.Add(0);
  auto next = engine.EdgeMapSparse(start, [](vid_t, vid_t) { return true; });
  EXPECT_EQ(next.size(), 2u);
  EXPECT_TRUE(next.Contains(1));
  EXPECT_TRUE(next.Contains(2));
}

// --------------------------------------------------------------- Equity

TEST(EquityTest, PaperWorkedExample) {
  // Figure 6(b): Person C controls Company 1 with 0.8*0.6 + 0.8*0.3*0.7.
  // Vertices: 0 = Person A, 1 = Person C, 2 = Company1, 3 = Company2,
  // 4 = Company3.
  EdgeList g;
  g.num_vertices = 5;
  g.edges = {
      {0, 2, 0.10},  // A -> Company1 (minority stake).
      {1, 3, 0.80},  // C -> Company2.
      {3, 2, 0.60},  // Company2 -> Company1.
      {3, 4, 0.30},  // Company2 -> Company3.
      {4, 2, 0.70},  // Company3 -> Company1.
  };
  std::vector<uint8_t> is_person = {1, 1, 0, 0, 0};
  auto results = ComputeControllers(g, is_person);
  ASSERT_EQ(results.size(), 3u);  // Three companies.
  const ControlResult* company1 = nullptr;
  for (const auto& r : results) {
    if (r.company == 2) company1 = &r;
  }
  ASSERT_NE(company1, nullptr);
  EXPECT_EQ(company1->controller, 1u);  // Person C.
  EXPECT_NEAR(company1->share, 0.648, 1e-9);
}

TEST(EquityTest, NoControllerBelowThreshold) {
  EdgeList g;
  g.num_vertices = 3;
  g.edges = {{0, 2, 0.3}, {1, 2, 0.3}};
  std::vector<uint8_t> is_person = {1, 1, 0};
  auto results = ComputeControllers(g, is_person);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].controller, kInvalidVid);
}

TEST(EquityTest, DeepChainPropagates) {
  // Person 0 owns 100% through a 5-company chain: still the controller.
  EdgeList g;
  g.num_vertices = 6;
  for (vid_t v = 0; v < 5; ++v) g.edges.push_back({v, v + 1, 1.0});
  std::vector<uint8_t> is_person = {1, 0, 0, 0, 0, 0};
  auto results = ComputeControllers(g, is_person, 10);
  for (const auto& r : results) {
    EXPECT_EQ(r.controller, 0u) << "company " << r.company;
    EXPECT_NEAR(r.share, 1.0, 1e-9);
  }
}

TEST(FlashTest, LouvainSeparatesCliques) {
  // Two 5-cliques joined by one bridge: two communities, modularity far
  // above the singleton partition.
  EdgeList g;
  g.num_vertices = 10;
  for (vid_t a = 0; a < 5; ++a) {
    for (vid_t b = a + 1; b < 5; ++b) {
      g.edges.push_back({a, b, 1.0});
      g.edges.push_back({a + 5, b + 5, 1.0});
    }
  }
  g.edges.push_back({4, 5, 1.0});
  flash::FlashEngine engine(g, 2);
  auto communities = engine.LouvainCommunities().value();
  for (vid_t v = 1; v < 5; ++v) EXPECT_EQ(communities[v], communities[0]);
  for (vid_t v = 6; v < 10; ++v) EXPECT_EQ(communities[v], communities[5]);
  EXPECT_NE(communities[0], communities[5]);

  std::vector<uint32_t> singletons(10);
  for (vid_t v = 0; v < 10; ++v) singletons[v] = v;
  EXPECT_GT(engine.Modularity(communities),
            engine.Modularity(singletons) + 0.3);
}

TEST(FlashTest, LouvainImprovesModularityOnRandomGraph) {
  EdgeList g = datagen::GenerateUniform(300, 1200, 9);
  flash::FlashEngine engine(g, 2);
  auto communities = engine.LouvainCommunities().value();
  std::vector<uint32_t> singletons(300);
  for (vid_t v = 0; v < 300; ++v) singletons[v] = v;
  EXPECT_GE(engine.Modularity(communities), engine.Modularity(singletons));
}

// -------------------------------------------------------------- Ingress

TEST(IngressTest, IncrementalSsspMatchesFullRecompute) {
  EdgeList g = TestGraph();
  // Hold back 5% of edges as the update stream.
  const size_t keep = g.num_edges() * 95 / 100;
  std::vector<RawEdge> updates(g.edges.begin() + keep, g.edges.end());
  EdgeList initial = g;
  initial.edges.resize(keep);

  IngressSssp incremental(initial, 0);
  const size_t full_work = incremental.last_relaxations();
  for (size_t begin = 0; begin < updates.size(); begin += 100) {
    const size_t end = std::min(updates.size(), begin + 100);
    incremental.AddEdges(
        std::vector<RawEdge>(updates.begin() + begin, updates.begin() + end));
    // Memoization pays: each batch touches far less than the full run.
    EXPECT_LT(incremental.last_relaxations(), full_work);
  }
  auto want = ReferenceSssp(g, 0);
  const auto& got = incremental.distances();
  for (vid_t v = 0; v < g.num_vertices; ++v) {
    if (want[v] == kUnreachedDist) {
      EXPECT_EQ(got[v], std::numeric_limits<double>::max());
    } else {
      EXPECT_NEAR(got[v], want[v], 1e-9) << v;
    }
  }
}

TEST(IngressTest, IncrementalWccMergesComponents) {
  // Two chains; an inserted bridge merges their components incrementally.
  EdgeList g;
  g.num_vertices = 10;
  for (vid_t v = 0; v < 4; ++v) g.edges.push_back({v, v + 1, 1.0});
  for (vid_t v = 5; v < 9; ++v) g.edges.push_back({v, v + 1, 1.0});
  IngressWcc wcc(g);
  EXPECT_EQ(wcc.labels()[0], 0u);
  EXPECT_EQ(wcc.labels()[9], 5u);

  const size_t changed = wcc.AddEdges({{4, 5, 1.0}});
  EXPECT_EQ(changed, 5u);  // The whole second chain relabels.
  for (vid_t v = 0; v < 10; ++v) EXPECT_EQ(wcc.labels()[v], 0u) << v;
}

TEST(IngressTest, IncrementalWccMatchesUnionFind) {
  EdgeList g = TestGraph();
  const size_t keep = g.num_edges() / 2;
  std::vector<RawEdge> updates(g.edges.begin() + keep, g.edges.end());
  EdgeList initial = g;
  initial.edges.resize(keep);
  IngressWcc wcc(initial);
  wcc.AddEdges(updates);
  EXPECT_EQ(wcc.labels(), ReferenceWcc(g));
}

TEST(IngressTest, NoopBatchTouchesNothing) {
  EdgeList g;
  g.num_vertices = 3;
  g.edges = {{0, 1, 1.0}};
  IngressSssp sssp(g, 0);
  // Re-inserting a parallel edge with a worse weight changes nothing.
  EXPECT_EQ(sssp.AddEdges({{0, 1, 5.0}}), 0u);
  EXPECT_EQ(sssp.last_relaxations(), 0u);
}

// ------------------------------------------- Flush determinism (zero-copy)

/// Sends a deterministic pseudo-random workload (every (src, dst) channel,
/// mixed message sizes) into `mm` from the calling thread.
void SendDeterministicTraffic(MessageManager<uint64_t>* mm, partition_t nfrag,
                              uint64_t seed) {
  Rng rng(seed);
  for (partition_t src = 0; src < nfrag; ++src) {
    for (partition_t dst = 0; dst < nfrag; ++dst) {
      // Leave some channels empty so empty-payload elision is exercised.
      if ((src + dst) % 5 == 0) continue;
      const size_t n = 1 + rng.Uniform(64);
      for (size_t i = 0; i < n; ++i) {
        mm->Send(src, dst, static_cast<vid_t>(rng.Uniform(1 << 20)),
                 rng.Next());
      }
    }
  }
}

TEST(FlushDeterminismTest, ParallelShardsBitIdenticalToSerialReference) {
  // The parallel boundary must be a pure work split: for identical sends,
  // the frame set produced by per-worker FlushShard calls must be
  // bit-identical — per destination, src-ascending, same CRCs, same
  // payload bytes — to the serial single-caller Flush() reference.
  constexpr partition_t kFrags = 8;
  MessageManager<uint64_t> serial(kFrags, MessageMode::kAggregated);
  MessageManager<uint64_t> parallel(kFrags, MessageMode::kAggregated);
  SendDeterministicTraffic(&serial, kFrags, 1234);
  SendDeterministicTraffic(&parallel, kFrags, 1234);

  const size_t serial_traffic = serial.Flush();

  Barrier barrier(kFrags);
  std::atomic<size_t> parallel_traffic{0};
  ThreadPool pool(kFrags);
  for (partition_t fid = 0; fid < kFrags; ++fid) {
    pool.Submit([&, fid] {
      if (barrier.Await()) parallel.BeginFlush();
      barrier.Await();
      parallel.FlushShard(fid);
      if (barrier.Await()) {
        parallel_traffic.store(parallel.EndFlush(), std::memory_order_relaxed);
      }
      barrier.Await();
    });
  }
  pool.Wait();

  EXPECT_EQ(parallel_traffic.load(), serial_traffic);
  EXPECT_EQ(parallel.IncomingBytes(), serial.IncomingBytes());
  for (partition_t dst = 0; dst < kFrags; ++dst) {
    const auto want = serial.IncomingFrames(dst);
    const auto got = parallel.IncomingFrames(dst);
    ASSERT_EQ(got.size(), want.size()) << "dst " << dst;
    partition_t prev_src = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].src, want[i].src);
      EXPECT_EQ(got[i].crc, want[i].crc);
      ASSERT_EQ(got[i].len, want[i].len);
      EXPECT_EQ(std::memcmp(got[i].data, want[i].data, got[i].len), 0)
          << "dst " << dst << " frame " << i;
      // Descriptors are published src-ascending, the order Receive() and
      // the retransmit rebuild both rely on.
      if (i > 0) {
        EXPECT_GT(got[i].src, prev_src);
      }
      prev_src = got[i].src;
      // And each CRC is genuinely the payload's checksum, not a stale copy.
      EXPECT_EQ(Crc32(got[i].data, got[i].len), got[i].crc);
    }
  }

  // Both deliver the identical message sequence.
  for (partition_t fid = 0; fid < kFrags; ++fid) {
    std::vector<std::pair<vid_t, uint64_t>> from_serial, from_parallel;
    ASSERT_TRUE(serial
                    .Receive(fid, [&](vid_t t, const uint64_t& m) {
                      from_serial.push_back({t, m});
                    })
                    .ok());
    ASSERT_TRUE(parallel
                    .Receive(fid, [&](vid_t t, const uint64_t& m) {
                      from_parallel.push_back({t, m});
                    })
                    .ok());
    EXPECT_EQ(from_parallel, from_serial) << "fragment " << fid;
  }
  EXPECT_EQ(serial.retransmits(), 0u);
  EXPECT_EQ(parallel.retransmits(), 0u);
}

// ------------------------------------------------------ MsgCodec bounds

// Every codec must reject a short read instead of reading past the buffer:
// a truncated wire buffer is how a lost/partial channel write manifests,
// and Receive() surfaces these decode failures as kDataLoss.

TEST(MsgCodecTest, DoubleShortReadFails) {
  std::vector<uint8_t> buf;
  MsgCodec<double>::Encode(&buf, 3.25);
  ASSERT_EQ(buf.size(), 8u);
  double out = 0.0;
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    EXPECT_FALSE(MsgCodec<double>::Decode(buf.data(), cut, &pos, &out))
        << "cut=" << cut;
    EXPECT_EQ(pos, 0u) << "cut=" << cut;
  }
  size_t pos = 0;
  ASSERT_TRUE(MsgCodec<double>::Decode(buf.data(), buf.size(), &pos, &out));
  EXPECT_EQ(out, 3.25);
}

TEST(MsgCodecTest, Uint32TruncatedVarintFails) {
  std::vector<uint8_t> buf;
  MsgCodec<uint32_t>::Encode(&buf, 1u << 30);  // Multi-byte varint.
  ASSERT_GT(buf.size(), 1u);
  uint32_t out = 0;
  size_t pos = 0;
  EXPECT_FALSE(
      MsgCodec<uint32_t>::Decode(buf.data(), buf.size() - 1, &pos, &out));
}

TEST(MsgCodecTest, Uint32OverflowingVarintFails) {
  // A varint is self-delimiting, so a CRC-valid payload can still carry a
  // value wider than uint32. Truncating it would deliver a silently wrong
  // vertex id; the codec must reject instead.
  for (const uint64_t wide :
       {uint64_t{1} << 32, (uint64_t{1} << 32) + 5, UINT64_MAX}) {
    std::vector<uint8_t> buf;
    PutVarint64(&buf, wide);
    uint32_t out = 0;
    size_t pos = 0;
    EXPECT_FALSE(MsgCodec<uint32_t>::Decode(buf.data(), buf.size(), &pos, &out))
        << wide;
  }
  // The boundary value still decodes.
  std::vector<uint8_t> buf;
  PutVarint64(&buf, (uint64_t{1} << 32) - 1);
  uint32_t out = 0;
  size_t pos = 0;
  ASSERT_TRUE(MsgCodec<uint32_t>::Decode(buf.data(), buf.size(), &pos, &out));
  EXPECT_EQ(out, std::numeric_limits<uint32_t>::max());
}

template <typename MSG>
void ExpectBulkEncodeMatches(const MSG& value) {
  static_assert(BulkEncodableMsg<MSG>);
  uint8_t scratch[MsgCodec<MSG>::kMaxWireSize];
  const size_t n = MsgCodec<MSG>::EncodeTo(scratch, value);
  ASSERT_LE(n, MsgCodec<MSG>::kMaxWireSize);
  std::vector<uint8_t> buf;
  MsgCodec<MSG>::Encode(&buf, value);
  ASSERT_EQ(buf.size(), n);
  EXPECT_EQ(std::memcmp(scratch, buf.data(), n), 0);
  MSG out{};
  size_t pos = 0;
  ASSERT_TRUE(MsgCodec<MSG>::Decode(scratch, n, &pos, &out));
  EXPECT_EQ(out, value);
  EXPECT_EQ(pos, n);
}

TEST(MsgCodecTest, BulkEncodeToMatchesVectorEncode) {
  // Send() assembles messages with EncodeTo into a stack scratch buffer;
  // the wire bytes must be identical to the vector-append Encode path or
  // mixed senders would produce undecodable streams.
  ExpectBulkEncodeMatches(3.25);
  ExpectBulkEncodeMatches(-0.0);
  ExpectBulkEncodeMatches(uint32_t{0});
  ExpectBulkEncodeMatches(uint32_t{1} << 30);
  ExpectBulkEncodeMatches(uint64_t{127});
  ExpectBulkEncodeMatches(UINT64_MAX);
  ExpectBulkEncodeMatches(std::pair<double, double>{1.5, -2.5});
}

TEST(MsgCodecTest, AdjacencyCountExceedsPayloadFails) {
  // Header claims 5 deltas but only 2 follow: decode must fail cleanly
  // after consuming what exists, not fabricate vertices.
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 5);
  PutVarintSigned(&buf, 10);
  PutVarintSigned(&buf, 3);
  std::vector<vid_t> out;
  size_t pos = 0;
  EXPECT_FALSE(
      MsgCodec<std::vector<vid_t>>::Decode(buf.data(), buf.size(), &pos, &out));
}

TEST(MsgCodecTest, AdjacencyTruncatedCountFails) {
  std::vector<uint8_t> empty;
  std::vector<vid_t> out;
  size_t pos = 0;
  EXPECT_FALSE(
      MsgCodec<std::vector<vid_t>>::Decode(empty.data(), 0, &pos, &out));
}

TEST(MsgCodecTest, AdjacencyHugeCountRejectedBeforeAllocating) {
  // A wire-controlled count must not drive reserve(): a frame claiming
  // 2^60 neighbors with a two-byte payload is an OOM, not a loop that
  // fails on element 3. The decode must reject it up front.
  std::vector<uint8_t> buf;
  PutVarint64(&buf, uint64_t{1} << 60);
  PutVarintSigned(&buf, 1);
  PutVarintSigned(&buf, 1);
  std::vector<vid_t> out;
  size_t pos = 0;
  EXPECT_FALSE(
      MsgCodec<std::vector<vid_t>>::Decode(buf.data(), buf.size(), &pos, &out));
  EXPECT_EQ(out.capacity(), 0u);
}

TEST(MsgCodecTest, AdjacencyRoundTripsWithDeltas) {
  const std::vector<vid_t> adj = {3, 7, 8, 100, 1000};
  std::vector<uint8_t> buf;
  MsgCodec<std::vector<vid_t>>::Encode(&buf, adj);
  std::vector<vid_t> out;
  size_t pos = 0;
  ASSERT_TRUE(
      MsgCodec<std::vector<vid_t>>::Decode(buf.data(), buf.size(), &pos, &out));
  EXPECT_EQ(out, adj);
  EXPECT_EQ(pos, buf.size());
}

TEST(MsgCodecTest, PairShortReadFailsOnSecondHalf) {
  using DPair = std::pair<double, double>;
  std::vector<uint8_t> buf;
  MsgCodec<DPair>::Encode(&buf, {1.5, -2.5});
  ASSERT_EQ(buf.size(), 16u);
  DPair out;
  size_t pos = 0;
  // 12 bytes: first double decodes, second must fail the whole decode.
  EXPECT_FALSE(MsgCodec<DPair>::Decode(buf.data(), 12, &pos, &out));
  pos = 0;
  ASSERT_TRUE(MsgCodec<DPair>::Decode(buf.data(), buf.size(), &pos, &out));
  EXPECT_EQ(out.first, 1.5);
  EXPECT_EQ(out.second, -2.5);
}

}  // namespace
}  // namespace flex::grape
