#include "graph/csr.h"

#include <algorithm>

#include "common/logging.h"

namespace flex {

Csr Csr::FromEdges(const EdgeList& list, bool reversed) {
  Csr csr;
  const vid_t n = list.num_vertices;
  csr.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (const RawEdge& e : list.edges) {
    const vid_t key = reversed ? e.dst : e.src;
    FLEX_DCHECK(key < n);
    ++csr.offsets_[key + 1];
  }
  for (size_t i = 1; i <= n; ++i) csr.offsets_[i] += csr.offsets_[i - 1];

  csr.neighbors_.resize(csr.offsets_[n]);
  csr.weights_.resize(csr.offsets_[n]);
  std::vector<eid_t> cursor(csr.offsets_.begin(), csr.offsets_.end() - 1);
  for (const RawEdge& e : list.edges) {
    const vid_t key = reversed ? e.dst : e.src;
    const vid_t val = reversed ? e.src : e.dst;
    const eid_t slot = cursor[key]++;
    csr.neighbors_[slot] = val;
    csr.weights_[slot] = e.weight;
  }
  return csr;
}

GraphStats ComputeStats(const Csr& csr) {
  GraphStats stats;
  stats.num_vertices = csr.num_vertices();
  stats.num_edges = csr.num_edges();
  for (vid_t v = 0; v < stats.num_vertices; ++v) {
    stats.max_degree = std::max(stats.max_degree, csr.degree(v));
  }
  stats.avg_degree = stats.num_vertices == 0
                         ? 0.0
                         : static_cast<double>(stats.num_edges) /
                               static_cast<double>(stats.num_vertices);
  return stats;
}

}  // namespace flex
