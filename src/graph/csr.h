#ifndef FLEX_GRAPH_CSR_H_
#define FLEX_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
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
  static Csr FromEdges(const EdgeList& list, bool reversed = false) {
    return FromEdgesIf(list, reversed, [](const RawEdge&) { return true; });
  }

  /// FromEdges over only the edges `keep(edge)` accepts, read in place:
  /// the kept edges stay in list order and are never copied out first.
  /// `keep` runs twice per edge (count, then place) and must agree.
  template <typename Keep>
  static Csr FromEdgesIf(const EdgeList& list, bool reversed, Keep&& keep);

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

template <typename Keep>
Csr Csr::FromEdgesIf(const EdgeList& list, bool reversed, Keep&& keep) {
  Csr csr;
  const vid_t n = list.num_vertices;
  csr.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (const RawEdge& e : list.edges) {
    if (!keep(e)) continue;
    const vid_t key = reversed ? e.dst : e.src;
    FLEX_DCHECK(key < n);
    ++csr.offsets_[key + 1];
  }
  for (size_t i = 1; i <= n; ++i) csr.offsets_[i] += csr.offsets_[i - 1];

  csr.neighbors_.resize(csr.offsets_[n]);
  csr.weights_.resize(csr.offsets_[n]);
  std::vector<eid_t> cursor(csr.offsets_.begin(), csr.offsets_.end() - 1);
  for (const RawEdge& e : list.edges) {
    if (!keep(e)) continue;
    const vid_t key = reversed ? e.dst : e.src;
    const vid_t val = reversed ? e.src : e.dst;
    const eid_t slot = cursor[key]++;
    csr.neighbors_[slot] = val;
    csr.weights_[slot] = e.weight;
  }
  return csr;
}

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
