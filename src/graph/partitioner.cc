#include "graph/partitioner.h"

#include "common/logging.h"

namespace flex {

EdgeCutPartitioner::EdgeCutPartitioner(vid_t num_vertices,
                                       partition_t num_partitions)
    : num_vertices_(num_vertices), num_partitions_(num_partitions) {
  FLEX_CHECK(num_partitions > 0);
}

}  // namespace flex
