#include "graph/partitioner.h"

#include "common/logging.h"

namespace flex {

EdgeCutPartitioner::EdgeCutPartitioner(vid_t num_vertices,
                                       partition_t num_partitions)
    : num_vertices_(num_vertices), num_partitions_(num_partitions) {
  FLEX_CHECK(num_partitions > 0);
}

std::vector<vid_t> EdgeCutPartitioner::VerticesOf(partition_t p) const {
  std::vector<vid_t> out;
  for (vid_t v = 0; v < num_vertices_; ++v) {
    if (GetPartition(v) == p) out.push_back(v);
  }
  return out;
}

}  // namespace flex
