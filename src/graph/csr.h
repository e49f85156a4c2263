#ifndef FLEX_GRAPH_CSR_H_
#define FLEX_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"

namespace flex {

/// Compressed sparse row adjacency: the cache-friendly immutable layout the
/// paper treats as the read-throughput gold standard ("the performance of
/// CSR is the upper bound of a dynamic graph storage", Exp-1).
///
/// Stores one direction; pair two of them (out + in) for CSC-like reverse
/// access as Vineyard does.
class Csr {
 public:
  Csr() = default;

  /// Builds from an edge list using counting sort; O(V + E), stable within
  /// a source vertex (insertion order preserved).
  static Csr FromEdges(const EdgeList& list, bool reversed = false);

  vid_t num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<vid_t>(offsets_.size() - 1);
  }
  size_t num_edges() const { return neighbors_.size(); }

  size_t degree(vid_t v) const { return offsets_[v + 1] - offsets_[v]; }

  std::span<const vid_t> Neighbors(vid_t v) const {
    return {neighbors_.data() + offsets_[v], degree(v)};
  }
  std::span<const double> Weights(vid_t v) const {
    return {weights_.data() + offsets_[v], degree(v)};
  }

  /// Offset of v's first edge in the flat arrays (its global edge rank).
  eid_t EdgeOffset(vid_t v) const { return offsets_[v]; }

  const std::vector<eid_t>& offsets() const { return offsets_; }
  const std::vector<vid_t>& neighbors() const { return neighbors_; }
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<eid_t> offsets_;    // size V+1
  std::vector<vid_t> neighbors_;  // size E
  std::vector<double> weights_;   // size E
};

/// Basic structural statistics used by dataset registries and benchmarks.
struct GraphStats {
  vid_t num_vertices = 0;
  size_t num_edges = 0;
  size_t max_degree = 0;
  double avg_degree = 0.0;
};

GraphStats ComputeStats(const Csr& csr);

}  // namespace flex

#endif  // FLEX_GRAPH_CSR_H_
