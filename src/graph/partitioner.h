#ifndef FLEX_GRAPH_PARTITIONER_H_
#define FLEX_GRAPH_PARTITIONER_H_

#include <cstdint>

#include "graph/types.h"

namespace flex {

/// Edge-cut partition assignment: every vertex is owned by exactly one
/// partition; an edge lives on its source's partition and may reference a
/// remote ("outer") destination vertex. This is the partitioning Vineyard
/// uses in the paper (§4.2) and the layout GRAPE fragments consume.
class EdgeCutPartitioner {
 public:
  EdgeCutPartitioner(vid_t num_vertices, partition_t num_partitions);

  /// Fibonacci hash reduced from the product's high bits: the low bits of
  /// v * 0x9E3779B1 only permute v mod 2^k, so reducing them mod a
  /// power-of-two P would leave RMAT's hubs, whose ids share their low
  /// bits, on one partition.
  partition_t GetPartition(vid_t v) const {
    const uint64_t mixed = static_cast<uint32_t>(v) * 0x9E3779B1u;
    return static_cast<partition_t>((mixed * num_partitions_) >> 32);
  }

  partition_t num_partitions() const { return num_partitions_; }
  vid_t num_vertices() const { return num_vertices_; }

 private:
  vid_t num_vertices_;
  partition_t num_partitions_;
};

}  // namespace flex

#endif  // FLEX_GRAPH_PARTITIONER_H_
