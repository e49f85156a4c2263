#ifndef FLEX_GRAPE_FRAGMENT_H_
#define FLEX_GRAPE_FRAGMENT_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/edge_list.h"
#include "graph/partitioner.h"
#include "graph/types.h"

namespace flex::grape {

/// One edge-cut partition of a simple/weighted graph, as consumed by the
/// GRAPE engine (§6). A fragment owns its *inner* vertices; edges incident
/// to inner vertices may reference *outer* vertices owned by peer
/// fragments, to which messages are routed by the MessageManager.
///
/// Vertex ids stay global (the partitioner is hash-based, so a dense
/// global id space doubles as the per-fragment working-array index; the
/// memory trade-off matches GRAPE's vertex-map design at this scale).
class Fragment {
 public:
  /// Builds fragment `fid` of `graph`: both CSRs are filtered straight out
  /// of the shared edge list, so no per-fragment edge list is copied.
  Fragment(partition_t fid, const EdgeCutPartitioner* partitioner,
           const EdgeList& graph);

  partition_t fid() const { return fid_; }
  partition_t num_fragments() const { return partitioner_->num_partitions(); }
  vid_t total_vertices() const { return partitioner_->num_vertices(); }

  /// Owner lookups sit on the hottest per-edge paths, so the partition
  /// assignment is materialized as a flat map at fragment build time. The
  /// element type is the full partition_t: a narrower byte map would
  /// silently truncate partition ids beyond 255 and misroute every message
  /// addressed through OwnerOf (regression-tested in grape_test.cc with
  /// >256 fragments).
  bool IsInner(vid_t v) const { return owner_[v] == fid_; }
  partition_t OwnerOf(vid_t v) const { return owner_[v]; }

  /// Inner vertices of this fragment, ascending.
  const std::vector<vid_t>& inner_vertices() const { return inner_vertices_; }

  /// Out-edges of inner vertex `v` (destinations may be outer).
  std::span<const vid_t> OutNeighbors(vid_t v) const {
    return out_.Neighbors(v);
  }
  std::span<const double> OutWeights(vid_t v) const { return out_.Weights(v); }
  size_t OutDegree(vid_t v) const { return out_.degree(v); }

  /// In-edges of inner vertex `v` (sources may be outer). Built from the
  /// full graph so pull-style algorithms see every incoming edge.
  std::span<const vid_t> InNeighbors(vid_t v) const { return in_.Neighbors(v); }
  size_t InDegree(vid_t v) const { return in_.degree(v); }

  size_t num_inner_edges() const { return out_.num_edges(); }

 private:
  partition_t fid_;
  const EdgeCutPartitioner* partitioner_;
  std::vector<vid_t> inner_vertices_;
  Csr out_;  // Edges whose source is inner.
  Csr in_;   // Edges whose destination is inner.
  std::vector<partition_t> owner_;  // Partition id per vertex.
};

/// Partitions `graph` into one fragment per partition; `partitioner` must
/// outlive the fragments.
std::vector<std::unique_ptr<Fragment>> Partition(
    const EdgeList& graph, const EdgeCutPartitioner& partitioner);

}  // namespace flex::grape

#endif  // FLEX_GRAPE_FRAGMENT_H_
