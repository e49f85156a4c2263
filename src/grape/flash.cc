#include "grape/flash.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

namespace flex::grape::flash {

VertexSubset VertexSubset::All(vid_t universe) {
  VertexSubset subset(universe);
  subset.members_.reserve(universe);
  for (vid_t v = 0; v < universe; ++v) {
    subset.bitmap_[v] = 1;
    subset.members_.push_back(v);
  }
  return subset;
}

FlashEngine::FlashEngine(const EdgeList& graph, size_t num_workers)
    : out_(Csr::FromEdges(graph)),
      in_(Csr::FromEdges(graph, /*reversed=*/true)),
      pool_(num_workers) {
  const vid_t n = graph.num_vertices;
  undirected_offsets_.assign(n + 1, 0);
  std::vector<std::vector<vid_t>> merged(n);
  for (vid_t v = 0; v < n; ++v) {
    auto& nbrs = merged[v];
    const auto out = out_.Neighbors(v);
    const auto in = in_.Neighbors(v);
    nbrs.reserve(out.size() + in.size());
    nbrs.insert(nbrs.end(), out.begin(), out.end());
    nbrs.insert(nbrs.end(), in.begin(), in.end());
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    // Drop self-loops: they never participate in triangles/cores.
    auto self = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    if (self != nbrs.end() && *self == v) nbrs.erase(self);
    undirected_offsets_[v + 1] = undirected_offsets_[v] + nbrs.size();
  }
  undirected_.resize(undirected_offsets_[n]);
  for (vid_t v = 0; v < n; ++v) {
    std::copy(merged[v].begin(), merged[v].end(),
              undirected_.begin() + undirected_offsets_[v]);
  }
}

VertexSubset FlashEngine::VertexMap(const VertexSubset& subset,
                                    const std::function<bool(vid_t)>& fn) {
  const auto& members = subset.members();
  std::vector<uint8_t> keep(members.size(), 0);
  pool_.ParallelFor(members.size(),
                    [&](size_t i) { keep[i] = fn(members[i]) ? 1 : 0; });
  VertexSubset result(num_vertices());
  for (size_t i = 0; i < members.size(); ++i) {
    if (keep[i] != 0) result.Add(members[i]);
  }
  return result;
}

VertexSubset FlashEngine::EdgeMapSparse(
    const VertexSubset& frontier,
    const std::function<bool(vid_t, vid_t)>& fn) {
  const auto& members = frontier.members();
  std::vector<std::vector<vid_t>> activated(pool_.num_threads());
  pool_.ParallelForRange(
      members.size(), [&](size_t worker, size_t begin, size_t end) {
        auto& local = activated[worker];
        for (size_t i = begin; i < end; ++i) {
          const vid_t u = members[i];
          for (vid_t w : out_.Neighbors(u)) {
            if (fn(u, w)) local.push_back(w);
          }
        }
      });
  VertexSubset result(num_vertices());
  for (const auto& local : activated) {
    for (vid_t w : local) result.Add(w);
  }
  return result;
}

void FlashEngine::ParallelAll(const std::function<void(vid_t)>& fn) {
  pool_.ParallelFor(num_vertices(), [&](size_t v) {
    fn(static_cast<vid_t>(v));
  });
}

std::vector<uint64_t> FlashEngine::TriangleCounts() {
  const vid_t n = num_vertices();
  std::vector<std::atomic<uint64_t>> counts(n);
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);

  // For each vertex u, intersect the higher-id halves of u's and w's
  // adjacency for each neighbor w > u; credit all three corners.
  pool_.ParallelFor(n, [&](size_t ui) {
    const vid_t u = static_cast<vid_t>(ui);
    const auto u_nbrs = UndirectedNeighbors(u);
    auto u_hi = std::lower_bound(u_nbrs.begin(), u_nbrs.end(), u + 1);
    for (auto wit = u_hi; wit != u_nbrs.end(); ++wit) {
      const vid_t w = *wit;
      const auto w_nbrs = UndirectedNeighbors(w);
      auto w_hi = std::lower_bound(w_nbrs.begin(), w_nbrs.end(), w + 1);
      // Intersect {x in u_nbrs : x > w} with {x in w_nbrs : x > w}.
      auto a = std::lower_bound(u_nbrs.begin(), u_nbrs.end(), w + 1);
      auto b = w_hi;
      while (a != u_nbrs.end() && b != w_nbrs.end()) {
        if (*a < *b) {
          ++a;
        } else if (*b < *a) {
          ++b;
        } else {
          counts[u].fetch_add(1, std::memory_order_relaxed);
          counts[w].fetch_add(1, std::memory_order_relaxed);
          counts[*a].fetch_add(1, std::memory_order_relaxed);
          ++a;
          ++b;
        }
      }
    }
  });
  std::vector<uint64_t> result(n);
  for (vid_t v = 0; v < n; ++v) {
    result[v] = counts[v].load(std::memory_order_relaxed);
  }
  return result;
}

std::vector<double> FlashEngine::Lcc() {
  std::vector<uint64_t> triangles = TriangleCounts();
  const vid_t n = num_vertices();
  std::vector<double> lcc(n, 0.0);
  pool_.ParallelFor(n, [&](size_t v) {
    const double d = static_cast<double>(UndirectedDegree(static_cast<vid_t>(v)));
    if (d >= 2.0) {
      lcc[v] = static_cast<double>(triangles[v]) / (d * (d - 1.0) / 2.0);
    }
  });
  return lcc;
}

Result<std::vector<uint8_t>> FlashEngine::KCore(uint32_t k,
                                                const FlashOptions& options) {
  // Admission: an already-dead query must not start peeling.
  Status admit = CheckRunnable(options.deadline, options.cancel, "flash.kcore");
  if (!admit.ok()) return admit;
  const vid_t n = num_vertices();
  std::vector<std::atomic<uint32_t>> degree(n);
  std::vector<uint8_t> alive(n, 1);
  for (vid_t v = 0; v < n; ++v) {
    degree[v].store(static_cast<uint32_t>(UndirectedDegree(v)),
                    std::memory_order_relaxed);
  }
  // Initial frontier: vertices already under the threshold.
  VertexSubset frontier(n);
  for (vid_t v = 0; v < n; ++v) {
    if (degree[v].load(std::memory_order_relaxed) < k) {
      alive[v] = 0;
      frontier.Add(v);
    }
  }
  // Peel: removing a vertex decrements undirected neighbors; any neighbor
  // dropping below k joins the next frontier. Non-neighbor state (global
  // alive/degree arrays) is exactly what FLASH permits.
  while (!frontier.empty()) {
    // Round count is data-dependent (worst case one vertex per round), so
    // each peel round is the loop's quantum boundary.
    Status st = CheckRunnable(options.deadline, options.cancel, "flash.kcore");
    if (!st.ok()) return st;
    VertexSubset next(n);
    Mutex next_mu;
    const auto& members = frontier.members();
    pool_.ParallelForRange(
        members.size(), [&](size_t, size_t begin, size_t end) {
          std::vector<vid_t> local;
          for (size_t i = begin; i < end; ++i) {
            for (vid_t w : UndirectedNeighbors(members[i])) {
              const uint32_t before =
                  degree[w].fetch_sub(1, std::memory_order_relaxed);
              if (before == k) local.push_back(w);
            }
          }
          MutexLock lock(&next_mu);
          for (vid_t w : local) {
            if (alive[w] != 0) {
              alive[w] = 0;
              next.Add(w);
            }
          }
        });
    frontier = std::move(next);
  }
  return alive;
}

Result<std::vector<uint32_t>> FlashEngine::LouvainCommunities(
    int max_passes, const FlashOptions& options) {
  Status admit =
      CheckRunnable(options.deadline, options.cancel, "flash.louvain");
  if (!admit.ok()) return admit;
  const vid_t n = num_vertices();
  std::vector<uint32_t> community(n);
  std::vector<double> degree(n);
  double two_m = 0.0;
  for (vid_t v = 0; v < n; ++v) {
    community[v] = v;
    degree[v] = static_cast<double>(UndirectedDegree(v));
    two_m += degree[v];
  }
  if (two_m == 0.0) return community;
  // Total degree mass per community (updated as vertices move).
  std::vector<double> community_degree(degree);

  std::unordered_map<uint32_t, double> links;  // Scratch: edges into cand.
  for (int pass = 0; pass < max_passes; ++pass) {
    Status st =
        CheckRunnable(options.deadline, options.cancel, "flash.louvain");
    if (!st.ok()) return st;
    size_t moved = 0;
    for (vid_t v = 0; v < n; ++v) {
      links.clear();
      for (vid_t u : UndirectedNeighbors(v)) {
        links[community[u]] += 1.0;
      }
      const uint32_t current = community[v];
      community_degree[current] -= degree[v];
      // Gain of joining community c: links(v,c)/m - deg(v)*deg(c)/(2m^2);
      // compare via the equivalent 2m-scaled form.
      uint32_t best = current;
      double best_gain = links.count(current) != 0
                             ? links[current] -
                                   degree[v] * community_degree[current] /
                                       two_m
                             : -degree[v] * community_degree[current] / two_m;
      for (const auto& [candidate, weight] : links) {
        if (candidate == current) continue;
        const double gain =
            weight - degree[v] * community_degree[candidate] / two_m;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best = candidate;
        }
      }
      community_degree[best] += degree[v];
      if (best != current) {
        community[v] = best;
        ++moved;
      }
    }
    if (moved == 0) break;
  }
  return community;
}

double FlashEngine::Modularity(const std::vector<uint32_t>& communities) const {
  const vid_t n = num_vertices();
  double two_m = 0.0;
  for (vid_t v = 0; v < n; ++v) {
    two_m += static_cast<double>(UndirectedDegree(v));
  }
  if (two_m == 0.0) return 0.0;
  double intra = 0.0;
  std::unordered_map<uint32_t, double> community_degree;
  for (vid_t v = 0; v < n; ++v) {
    community_degree[communities[v]] +=
        static_cast<double>(UndirectedDegree(v));
    for (vid_t u : UndirectedNeighbors(v)) {
      if (communities[u] == communities[v]) intra += 1.0;
    }
  }
  double expected = 0.0;
  for (const auto& [c, d] : community_degree) expected += d * d;
  return intra / two_m - expected / (two_m * two_m);
}

}  // namespace flex::grape::flash
