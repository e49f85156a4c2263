#include "grape/fragment.h"

#include "common/logging.h"

namespace flex::grape {

Fragment::Fragment(partition_t fid, const EdgeCutPartitioner* partitioner,
                   const EdgeList& graph)
    : fid_(fid), partitioner_(partitioner) {
  const vid_t n = partitioner_->num_vertices();
  const partition_t nfrag = partitioner_->num_partitions();
  FLEX_CHECK_EQ(graph.num_vertices, n);
  auto inner = [&](vid_t v) { return partitioner_->GetPartition(v) == fid_; };

  // Every vertex's rank among its owner's vertices is its local id there.
  // lid_ holds that rank until the outer vertices are numbered.
  lid_.resize(n);
  std::vector<vid_t> owner_rank(nfrag, 0);
  for (vid_t v = 0; v < n; ++v) {
    const partition_t p = partitioner_->GetPartition(v);
    lid_[v] = owner_rank[p]++;
    if (p == fid_) gid_.push_back(v);
  }
  ivnum_ = static_cast<vid_t>(gid_.size());

  // Pass 1: count each inner row, and flag (and count per owner) the
  // outer vertices the rows reach.
  out_offsets_.assign(static_cast<size_t>(ivnum_) + 1, 0);
  in_offsets_.assign(static_cast<size_t>(ivnum_) + 1, 0);
  std::vector<uint8_t> outer(n, 0);
  std::vector<vid_t> outer_per_owner(nfrag, 0);
  auto flag_outer = [&](vid_t v) {
    if (outer[v] == 0) {
      outer[v] = 1;
      ++outer_per_owner[partitioner_->GetPartition(v)];
    }
  };
  for (const RawEdge& e : graph.edges) {
    FLEX_DCHECK(e.src < n && e.dst < n);
    const bool src_inner = inner(e.src);
    const bool dst_inner = inner(e.dst);
    if (src_inner) {
      ++out_offsets_[lid_[e.src] + 1];
      if (!dst_inner) flag_outer(e.dst);
    }
    if (dst_inner) {
      ++in_offsets_[lid_[e.dst] + 1];
      if (!src_inner) flag_outer(e.src);
    }
  }
  for (vid_t l = 0; l < ivnum_; ++l) {
    out_offsets_[l + 1] += out_offsets_[l];
    in_offsets_[l + 1] += in_offsets_[l];
  }

  // Number the outer vertices after the inner ones, grouped by owner and
  // ascending within one; a vertex that is neither gets kInvalidVid.
  std::vector<vid_t> next_lid(nfrag, 0);
  vid_t num_local = ivnum_;
  for (partition_t p = 0; p < nfrag; ++p) {
    next_lid[p] = num_local;
    num_local += outer_per_owner[p];
  }
  gid_.resize(num_local);
  owner_of_.assign(num_local, fid_);
  remote_lid_.resize(num_local);
  for (vid_t l = 0; l < ivnum_; ++l) remote_lid_[l] = l;
  for (vid_t v = 0; v < n; ++v) {
    if (inner(v)) continue;
    if (outer[v] == 0) {
      lid_[v] = kInvalidVid;
      continue;
    }
    const partition_t p = partitioner_->GetPartition(v);
    const vid_t l = next_lid[p]++;
    gid_[l] = v;
    owner_of_[l] = p;
    remote_lid_[l] = lid_[v];
    lid_[v] = l;
  }

  // Pass 2: place the edges, in list order within each row.
  out_nbrs_.resize(out_offsets_[ivnum_]);
  out_weights_.resize(out_offsets_[ivnum_]);
  in_nbrs_.resize(in_offsets_[ivnum_]);
  std::vector<eid_t> out_cursor(out_offsets_.begin(), out_offsets_.end() - 1);
  std::vector<eid_t> in_cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (const RawEdge& e : graph.edges) {
    const vid_t src = lid_[e.src];
    const vid_t dst = lid_[e.dst];
    if (src < ivnum_) {
      const eid_t slot = out_cursor[src]++;
      out_nbrs_[slot] = dst;
      out_weights_[slot] = e.weight;
    }
    if (dst < ivnum_) in_nbrs_[in_cursor[dst]++] = src;
  }
}

std::vector<std::unique_ptr<Fragment>> Partition(
    const EdgeList& graph, const EdgeCutPartitioner& partitioner) {
  std::vector<std::unique_ptr<Fragment>> fragments;
  fragments.reserve(partitioner.num_partitions());
  for (partition_t p = 0; p < partitioner.num_partitions(); ++p) {
    fragments.push_back(std::make_unique<Fragment>(p, &partitioner, graph));
  }
  return fragments;
}

}  // namespace flex::grape
