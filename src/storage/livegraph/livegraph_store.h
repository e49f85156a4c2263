#ifndef FLEX_STORAGE_LIVEGRAPH_LIVEGRAPH_STORE_H_
#define FLEX_STORAGE_LIVEGRAPH_LIVEGRAPH_STORE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/edge_list.h"
#include "graph/types.h"
#include "grin/grin.h"
#include "storage/mutable_store.h"

namespace flex::storage {

/// Baseline dynamic graph store modelled on LiveGraph [92]: per-vertex
/// sequential adjacency logs where every record carries a creation/removal
/// version pair that readers must check on every edge, and deletions leave
/// in-place tombstones until (never-run) compaction.
///
/// This is the comparator for Exp-1 / Fig 7(c): GART's CSR base skips
/// the per-edge version checks on the common path, LiveGraph pays them on
/// every record — which is the architectural delta the paper's 3.88x
/// read-throughput gap comes from.
///
/// Simple-graph model (no labels/properties beyond weight): the scan
/// benchmark exercises raw topology throughput. Vertex ids double as oids
/// (identity mapping), so MutableGraphStore appends require dense oids.
class LiveGraphStore : public MutableGraphStore {
 public:
  explicit LiveGraphStore(vid_t num_vertices);

  /// Bulk-loads an edge list and commits one version.
  static std::unique_ptr<LiveGraphStore> Build(const EdgeList& list);

  vid_t num_vertices() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return static_cast<vid_t>(adjacency_.size());
  }

  Status AddEdge(vid_t src, vid_t dst, double weight = 1.0);
  /// Marks all live (src)->(dst) records removed at the next version.
  Status DeleteEdge(vid_t src, vid_t dst);
  version_t CommitVersion();
  version_t read_version() const override {
    return committed_.load(std::memory_order_acquire);
  }

  // MutableGraphStore. The simple-graph model constrains the shape: one
  // vertex label (0), one edge label (0), dense oids (oid == vid), no
  // vertex properties.
  Result<vid_t> AppendVertex(label_t label, oid_t oid,
                             std::vector<PropertyValue> props) override;
  Status AppendEdge(label_t edge_label, oid_t src, oid_t dst, double weight,
                    int64_t ts) override;
  Status UpdateProperty(label_t label, oid_t oid, uint32_t col,
                        const PropertyValue& value) override;
  Status RemoveEdge(label_t edge_label, oid_t src, oid_t dst) override;
  version_t CommitBatch() override { return CommitVersion(); }
  std::unique_ptr<grin::GrinGraph> PinSnapshot(
      version_t version) const override;

  /// Visits live out-edges of `v` at `version`, checking versions per
  /// record (the LiveGraph read path).
  template <typename Fn>
  void ForEachOut(vid_t v, version_t version, Fn&& fn) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const VersionEntry& e : adjacency_[v]) {
      if (e.create <= version && version < e.remove) {
        fn(e.nbr, e.weight);
      }
    }
  }

  size_t CountEdges(version_t version) const;

  /// GRIN view at the current read version (iterator adjacency trait).
  std::unique_ptr<grin::GrinGraph> GetSnapshot() const;
  std::unique_ptr<grin::GrinGraph> GetSnapshot(version_t version) const;

 private:
  friend class LiveGraphGrin;

  struct VersionEntry {
    vid_t nbr;
    double weight;
    version_t create;
    version_t remove;  ///< kNever until tombstoned.
  };
  static constexpr version_t kNever = ~version_t{0};

  mutable std::shared_mutex mu_;
  std::atomic<version_t> committed_{0};
  std::vector<std::vector<VersionEntry>> adjacency_;
  /// Version at which vertex v became visible (0 for load-time vertices);
  /// nondecreasing in vid, so a snapshot's visible set is a prefix.
  std::vector<version_t> vertex_create_;
  GraphSchema schema_;  // Single "V"/"E" schema for the GRIN view.
};

}  // namespace flex::storage

#endif  // FLEX_STORAGE_LIVEGRAPH_LIVEGRAPH_STORE_H_
