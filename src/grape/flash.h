#ifndef FLEX_GRAPE_FLASH_H_
#define FLEX_GRAPE_FLASH_H_

#include <functional>
#include <span>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/csr.h"
#include "graph/edge_list.h"

namespace flex::grape::flash {

/// A set of active vertices (dense bitmap plus materialized list).
class VertexSubset {
 public:
  VertexSubset() = default;
  explicit VertexSubset(vid_t universe) : bitmap_(universe, 0) {}

  static VertexSubset All(vid_t universe);

  void Add(vid_t v) {
    if (bitmap_[v] == 0) {
      bitmap_[v] = 1;
      members_.push_back(v);
    }
  }
  bool Contains(vid_t v) const { return bitmap_[v] != 0; }
  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  const std::vector<vid_t>& members() const { return members_; }

 private:
  std::vector<uint8_t> bitmap_;
  std::vector<vid_t> members_;
};

/// Knobs for KCore and LouvainCommunities (the FLASH analog of
/// PieOptions): each polls the deadline/cancel pair once per frontier
/// round or local-move pass and stops with kDeadlineExceeded / kCancelled
/// instead of running on. The defaults never stop a run.
struct FlashOptions {
  Deadline deadline;
  /// Optional; checked alongside the deadline. Cancellation wins.
  const CancellationToken* cancel = nullptr;
};

/// The FLASH programming model [58] (§6): driver-style control flow with
/// parallel vertex/edge primitives over vertex subsets, plus globally
/// addressable vertex attributes — the "non-neighbor communication" that
/// vertex-centric models cannot express. Control flow is arbitrary C++ in
/// the caller; the engine parallelizes each primitive.
class FlashEngine {
 public:
  /// Builds the global view: forward/reverse CSRs plus deduplicated sorted
  /// undirected adjacency (used by set-intersection algorithms).
  FlashEngine(const EdgeList& graph, size_t num_workers);

  vid_t num_vertices() const { return out_.num_vertices(); }

  std::span<const vid_t> OutNeighbors(vid_t v) const {
    return out_.Neighbors(v);
  }
  std::span<const vid_t> InNeighbors(vid_t v) const {
    return in_.Neighbors(v);
  }
  /// Sorted, deduplicated union of in- and out-neighbors (self-loops
  /// removed).
  std::span<const vid_t> UndirectedNeighbors(vid_t v) const {
    return {undirected_.data() + undirected_offsets_[v],
            undirected_offsets_[v + 1] - undirected_offsets_[v]};
  }
  size_t UndirectedDegree(vid_t v) const {
    return undirected_offsets_[v + 1] - undirected_offsets_[v];
  }

  /// VertexMap: runs `fn(v)` over `subset`; vertices for which fn returns
  /// true form the result subset.
  VertexSubset VertexMap(const VertexSubset& subset,
                         const std::function<bool(vid_t)>& fn);

  /// EdgeMap (push): for each active u and out-edge (u, w), runs
  /// `fn(u, w)`; destinations for which fn returns true form the result.
  /// `fn` may be called concurrently for the same w — synchronize inside.
  VertexSubset EdgeMapSparse(const VertexSubset& frontier,
                             const std::function<bool(vid_t, vid_t)>& fn);

  /// Parallel loop over all vertices (attribute initialization etc.).
  void ParallelAll(const std::function<void(vid_t)>& fn);

  // ------------------------- built-in FLASH algorithms (§6: algorithms
  // with great expressive capability beyond fixed-point)

  /// Exact per-vertex triangle counts via sorted-adjacency intersection.
  std::vector<uint64_t> TriangleCounts();

  /// Local clustering coefficient: triangles(v) / (d(v) * (d(v)-1) / 2)
  /// over the undirected simple graph.
  std::vector<double> Lcc();

  /// k-core membership via frontier-based peeling, with a runnable check
  /// per peel round (the driver loop's natural quantum — how many rounds
  /// run is data-dependent, so an engine-hosted run must be stoppable).
  Result<std::vector<uint8_t>> KCore(uint32_t k,
                                     const FlashOptions& options = {});

  /// Louvain-style community detection: repeated local-move passes that
  /// greedily maximize modularity gain until no vertex moves (single
  /// level, no coarsening). Returns a community id per vertex. Polls the
  /// runnable check once per pass.
  Result<std::vector<uint32_t>> LouvainCommunities(
      int max_passes = 10, const FlashOptions& options = {});

  /// Modularity of `communities` over the undirected simple graph.
  double Modularity(const std::vector<uint32_t>& communities) const;

 private:
  Csr out_;
  Csr in_;
  std::vector<size_t> undirected_offsets_;
  std::vector<vid_t> undirected_;
  ThreadPool pool_;
};

}  // namespace flex::grape::flash

#endif  // FLEX_GRAPE_FLASH_H_
