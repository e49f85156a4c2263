#ifndef FLEX_GRAPE_FRAGMENT_H_
#define FLEX_GRAPE_FRAGMENT_H_

#include <memory>
#include <span>
#include <vector>

#include "common/logging.h"
#include "graph/edge_list.h"
#include "graph/partitioner.h"
#include "graph/types.h"

namespace flex::grape {

/// One edge-cut partition of a simple/weighted graph, as consumed by the
/// GRAPE engine (§6). A fragment owns its *inner* vertices; edges incident
/// to inner vertices may reference *outer* vertices owned by peer
/// fragments, to which messages are routed by the MessageManager.
///
/// Vertices are numbered locally, as in libgrape-lite: inner vertices take
/// local ids [0, ivnum()) in ascending global order, and outer vertices
/// take [ivnum(), num_local()), grouped by owner and ascending within one.
/// So an app sizes its working arrays by ivnum() or num_local(), and
/// `IsInner` is a compare. Per local id the fragment keeps the global id,
/// the owner and the vertex's local id at that owner (what a message to it
/// is addressed by); one array indexed by global id maps back (`Lid`).
/// `Gid`, `Lid` and `inner_vertices()` speak global ids; every other
/// method takes and returns local ids.
class Fragment {
 public:
  /// Builds fragment `fid` of `graph` in two passes over the edge list:
  /// the first counts each inner row and finds the outer vertices, the
  /// second places the edges.
  Fragment(partition_t fid, const EdgeCutPartitioner* partitioner,
           const EdgeList& graph);

  partition_t fid() const { return fid_; }
  partition_t num_fragments() const { return partitioner_->num_partitions(); }
  vid_t total_vertices() const { return partitioner_->num_vertices(); }

  /// Inner vertex count: local ids below it are inner.
  vid_t ivnum() const { return ivnum_; }
  /// Inner plus outer vertex count.
  vid_t num_local() const { return static_cast<vid_t>(gid_.size()); }

  bool IsInner(vid_t lid) const { return lid < ivnum_; }
  /// Fragment owning local vertex `lid` (this fragment for inner ones).
  partition_t OwnerOf(vid_t lid) const { return owner_of_[lid]; }
  /// Local id of `lid` at its owner: the receiver's id for a message.
  vid_t RemoteLid(vid_t lid) const { return remote_lid_[lid]; }

  /// Global id of local vertex `lid`.
  vid_t Gid(vid_t lid) const { return gid_[lid]; }
  /// Local id of global vertex `gid`; kInvalidVid when `gid` is neither
  /// inner nor outer here, or not below total_vertices().
  vid_t Lid(vid_t gid) const {
    return gid < lid_.size() ? lid_[gid] : kInvalidVid;
  }

  /// Global ids of the inner vertices, ascending (local ids 0, 1, ...).
  std::span<const vid_t> inner_vertices() const {
    return {gid_.data(), ivnum_};
  }

  /// Out-edges of inner vertex `lid`; targets are local ids, inner or
  /// outer.
  std::span<const vid_t> OutNeighbors(vid_t lid) const {
    return {out_nbrs_.data() + out_offsets_[lid], OutDegree(lid)};
  }
  std::span<const double> OutWeights(vid_t lid) const {
    return {out_weights_.data() + out_offsets_[lid], OutDegree(lid)};
  }
  size_t OutDegree(vid_t lid) const {
    return out_offsets_[lid + 1] - out_offsets_[lid];
  }

  /// In-edges of inner vertex `lid` (sources are local ids, inner or
  /// outer), so pull-style algorithms see every incoming edge. They carry
  /// no weights.
  std::span<const vid_t> InNeighbors(vid_t lid) const {
    return {in_nbrs_.data() + in_offsets_[lid], InDegree(lid)};
  }
  size_t InDegree(vid_t lid) const {
    return in_offsets_[lid + 1] - in_offsets_[lid];
  }

  size_t num_inner_edges() const { return out_nbrs_.size(); }

 private:
  partition_t fid_;
  const EdgeCutPartitioner* partitioner_;
  vid_t ivnum_ = 0;
  // Per local id.
  std::vector<vid_t> gid_;
  std::vector<partition_t> owner_of_;
  std::vector<vid_t> remote_lid_;
  // Per global id: the local id, or kInvalidVid.
  std::vector<vid_t> lid_;
  // Per inner vertex: CSR rows over local ids.
  std::vector<eid_t> out_offsets_;
  std::vector<vid_t> out_nbrs_;
  std::vector<double> out_weights_;
  std::vector<eid_t> in_offsets_;
  std::vector<vid_t> in_nbrs_;
};

/// Partitions `graph` into one fragment per partition; `partitioner` must
/// outlive the fragments.
std::vector<std::unique_ptr<Fragment>> Partition(
    const EdgeList& graph, const EdgeCutPartitioner& partitioner);

/// An app's per-local-vertex results read by global id, for gathering
/// results across fragments: `view[gid]` is the value of `gid`'s local
/// vertex, which must exist on this fragment (an inner vertex, for apps
/// that keep inner values only).
template <typename T>
class GlobalView {
 public:
  GlobalView(const Fragment* frag, const std::vector<T>* values)
      : frag_(frag), values_(values) {}

  const T& operator[](vid_t gid) const {
    const vid_t lid = frag_->Lid(gid);
    FLEX_DCHECK(lid < values_->size());
    return (*values_)[lid];
  }

 private:
  const Fragment* frag_;
  const std::vector<T>* values_;
};

}  // namespace flex::grape

#endif  // FLEX_GRAPE_FRAGMENT_H_
