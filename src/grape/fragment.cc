#include "grape/fragment.h"

namespace flex::grape {

Fragment::Fragment(partition_t fid, const EdgeCutPartitioner* partitioner,
                   const EdgeList& graph)
    : fid_(fid), partitioner_(partitioner) {
  inner_vertices_ = partitioner_->VerticesOf(fid);
  owner_.resize(graph.num_vertices);
  for (vid_t v = 0; v < graph.num_vertices; ++v) {
    owner_[v] = partitioner_->GetPartition(v);
  }
  out_ = Csr::FromEdgesIf(graph, /*reversed=*/false,
                          [this](const RawEdge& e) { return IsInner(e.src); });
  in_ = Csr::FromEdgesIf(graph, /*reversed=*/true,
                         [this](const RawEdge& e) { return IsInner(e.dst); });
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
