#include "graph/csr.h"

#include <algorithm>

namespace flex {

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
