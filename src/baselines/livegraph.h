#ifndef FLEX_BASELINES_LIVEGRAPH_H_
#define FLEX_BASELINES_LIVEGRAPH_H_

#include <memory>
#include <vector>

#include "graph/edge_list.h"
#include "graph/schema.h"
#include "graph/types.h"
#include "grin/grin.h"

namespace flex::baselines {

/// Read-path baseline modelled on LiveGraph [92], the comparator of Exp-1 /
/// Fig 7(c): each vertex keeps a vector of edge records, and every record
/// carries a creation/removal version pair that readers check on every
/// edge. GART's CSR base skips those checks on the common path, LiveGraph
/// pays them on every record — the architectural delta behind the paper's
/// 3.88x read-throughput gap.
///
/// Built once from an edge list and never written after, so every record
/// is created at version 1 and never removed, and reads take no lock.
/// Simple-graph model: one vertex label "V", one edge label "E" carrying a
/// weight, oids equal to vids, out-adjacency only.
class LiveGraphStore {
 public:
  static std::unique_ptr<LiveGraphStore> Build(const EdgeList& list);

  vid_t num_vertices() const { return static_cast<vid_t>(adjacency_.size()); }

  /// GRIN view at the built version (iterator adjacency trait).
  std::unique_ptr<grin::GrinGraph> GetSnapshot() const;

 private:
  friend class LiveGraphSnapshot;

  struct VersionEntry {
    vid_t nbr;
    double weight;
    version_t create;
    version_t remove;
  };
  static constexpr version_t kBuilt = 1;
  static constexpr version_t kNever = ~version_t{0};

  explicit LiveGraphStore(vid_t num_vertices);

  std::vector<std::vector<VersionEntry>> adjacency_;
  GraphSchema schema_;  // Single "V"/"E" schema for the GRIN view.
};

}  // namespace flex::baselines

#endif  // FLEX_BASELINES_LIVEGRAPH_H_
