#ifndef FLEX_STORAGE_GART_GART_STORE_H_
#define FLEX_STORAGE_GART_GART_STORE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/stable_vector.h"
#include "common/status.h"
#include "graph/property_table.h"
#include "graph/schema.h"
#include "graph/types.h"
#include "grin/grin.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::storage {

/// Mutable in-memory graph store with multi-version concurrency control,
/// modelled on GART (§4.2): an immutable base plus append-only logs.
/// Readers always observe a consistent snapshot identified by a version;
/// writers stamp their records `read_version + 1` and publish them with
/// CommitVersion().
///
/// The base is the load-time graph as a VineyardStore (the shared
/// CsrTopology plus Vineyard's property tables), read in place. What is
/// written after it goes to logs beside it:
///   - vertices take the vids after the base, with their rows in per-label
///     tables;
///   - each edge label keeps one log of edge and tombstone records. A
///     vertex reaches its own records, newest first, through a chain head
///     indexed by its position within its vertex label, so no vertex holds
///     a slot for an edge label its label cannot carry. A vertex without a
///     head reads its CSR slice exactly as Vineyard does;
///   - each vertex property update appends to the (vid, col) override
///     chain, so a read walks only its own chain before falling back to the
///     base or added row.
/// A tombstone deletes the edges to its neighbor appended before it, base
/// edges included, so a delete-then-re-add within one batch leaves the
/// re-add live. Base edge ids are forward-CSR positions, as on every CSR
/// backend; a logged edge's id follows them by its record's log position.
///
/// Concurrency: writers serialize on one mutex (DurableStore has a single
/// writer anyway). The topology read path (adjacency scans, degree counts,
/// label-indexed vertex enumeration) is lock-free: logs and chain heads are
/// append-only StableVectors, a record is immutable once published and a
/// head moves with a release store. Point lookups into growable hash and
/// table structures (the added vertices' oid index and rows, the override
/// chains) take a short shared lock, which writers take exclusively only
/// while they change those structures.
///
/// Edge properties: GART stores up to one double property (the weight) and
/// one int64 property (e.g. a timestamp) per logged edge, which covers the
/// dynamic-graph workloads of the paper (fraud detection's BUY.date).
/// Richer edge schemas belong in the immutable Vineyard store.
///
/// Capacity: vids, log record ids and override indexes are 32-bit. A write
/// that would wrap one returns kResourceExhausted and changes nothing.
///
/// DurableStore is the crash-consistent front: it logs each batch to its
/// WAL, then applies it through the writes below.
class GartStore {
 public:
  /// An empty store at version 0. Rejects schemas whose edge labels carry
  /// unsupported property types.
  static Result<std::unique_ptr<GartStore>> Create(const GraphSchema& schema);

  /// Builds `data` as the base and commits it as version 1. The base
  /// carries no versions, so a snapshot pinned at version 0 reads it too.
  static Result<std::unique_ptr<GartStore>> Build(
      const PropertyGraphData& data);

  const GraphSchema& schema() const { return base_->schema(); }

  // -------------------------------------------------------------- writes

  /// Inserts a vertex; visible after the next CommitVersion(). Fails
  /// kAlreadyExists on a duplicate (label, oid).
  Result<vid_t> AddVertex(label_t label, oid_t oid,
                          std::vector<PropertyValue> props);

  /// Inserts an edge between existing vertices (weight/ts map to the edge
  /// label's double/int64 properties). Visible after CommitVersion().
  Status AddEdge(label_t edge_label, oid_t src, oid_t dst, double weight = 1.0,
                 int64_t ts = 0);

  /// Tombstones all live (src)-[edge_label]->(dst) edges.
  Status DeleteEdge(label_t edge_label, oid_t src, oid_t dst);

  /// Replaces vertex property `col` by appending to its (vid, col)
  /// override chain; snapshots resolve the newest override with
  /// create <= snapshot version, else the load-time row (in-place table
  /// writes would leak new values into old snapshots).
  Status UpdateProperty(label_t label, oid_t oid, uint32_t col,
                        const PropertyValue& value);

  /// Publishes all writes made since the previous commit; returns the new
  /// readable version.
  version_t CommitVersion();

  // --------------------------------------------------------------- reads

  /// The newest committed version.
  version_t read_version() const {
    return committed_.load(std::memory_order_acquire);
  }

  /// GRIN view pinned at `version` (default: current read version); it
  /// stays consistent while writers advance the head, and must not outlive
  /// the store. Counts into flex_storage_snapshots_pinned_total.
  std::unique_ptr<grin::GrinGraph> GetSnapshot() const;
  std::unique_ptr<grin::GrinGraph> GetSnapshot(version_t version) const;

  size_t num_vertices() const;

  /// Live edge count at the current read version (O(E) scan; for tests).
  size_t CountEdges(label_t edge_label) const;

 private:
  friend class GartSnapshot;

  /// One edge or tombstone of an edge label's log. Chain links are record
  /// ids: 1 + the record's log position, with 0 ending a chain.
  struct Record {
    vid_t src;
    vid_t dst;
    uint32_t next_out;  ///< src's previous record in this log.
    uint32_t next_in;   ///< dst's previous record in this log.
    double weight;
    int64_t ts;
    version_t create;
    bool tombstone;  ///< Deletes src->dst edges appended before it.
  };

  struct EdgeLog {
    StableVector<Record, 4096> records;
    /// Newest record id per vertex, by position within the edge label's
    /// source (out) or destination (in) label; grown only as far as the
    /// last vertex with a record.
    StableVector<std::atomic<uint32_t>> out_heads;
    StableVector<std::atomic<uint32_t>> in_heads;
    std::atomic<bool> has_tombstones{false};  ///< Sticky.
    eid_t base_edges = 0;  ///< Logged edge ids start here.
  };

  struct AddedVertex {
    oid_t oid;
    version_t create;
    uint32_t row;  ///< Row in its label's added table.
    label_t label;
  };

  /// One vertex property override; `next` is 1 + the index of the (vid,
  /// col) chain's previous override, or 0.
  struct Override {
    PropertyValue value;
    version_t create;
    uint32_t next;
  };

  explicit GartStore(std::unique_ptr<VineyardStore> base);

  static Result<std::unique_ptr<GartStore>> FromData(
      const PropertyGraphData& data);

  const CsrTopology& topology() const { return base_->topology(); }
  label_t LabelOf(vid_t v) const {
    return v < base_vertices_ ? topology().VertexLabelOf(v)
                              : added_[v - base_vertices_].label;
  }
  /// v's position within `label` (base vertices first, then added ones in
  /// order), or kInvalidVid if v carries another label.
  vid_t PositionIn(label_t label, vid_t v) const;
  /// Id of v's newest record in `edge_label`'s log for `dir`; 0 if none.
  uint32_t Head(label_t edge_label, Direction dir, vid_t v) const;

  /// Writer side (write_mu_ held): the vid of (label, oid), committed or
  /// not, or kInvalidVid.
  vid_t FindForWrite(label_t label, oid_t oid) const;
  /// Writer side: appends `record` and moves both endpoints' heads to it;
  /// kResourceExhausted once the log's record ids are used up.
  Status Append(label_t edge_label, Record record);

  /// Visits v's edges visible at `version`; returns false on early stop.
  bool ScanAdj(vid_t v, Direction dir, label_t edge_label, version_t version,
               grin::AdjVisitor visitor, void* ctx) const;
  size_t CountAdj(vid_t v, Direction dir, label_t edge_label,
                  version_t version) const;
  /// Caller holds mu_ (shared).
  PropertyValue VertexProperty(vid_t v, size_t col, version_t version) const;
  PropertyValue EdgeProperty(label_t edge_label, eid_t e, size_t col) const;

  const std::unique_ptr<VineyardStore> base_;
  const vid_t base_vertices_;
  /// Maps (edge label, property col) -> 0 (weight) or 1 (ts).
  std::vector<std::vector<int>> edge_prop_kind_;
  std::unique_ptr<EdgeLog[]> logs_;  // per edge label
  std::atomic<version_t> committed_{0};

  /// Serializes writers.
  Mutex write_mu_;
  /// Guards oid_index_, added_tables_, overrides_ and override_heads_:
  /// readers share it, writers hold it exclusively while they change them.
  mutable std::shared_mutex mu_;

  // Added vertices: append-only, lock-free reads.
  StableVector<AddedVertex> added_;                // vid - base_vertices_
  std::vector<StableVector<vid_t>> label_added_;  // per label, in order
  std::vector<std::unordered_map<oid_t, vid_t>> oid_index_;  // per label
  std::vector<PropertyTable> added_tables_;                  // per label

  std::vector<Override> overrides_;
  /// (vid << 32 | col) -> 1 + index of the chain's newest override.
  std::unordered_map<uint64_t, uint32_t> override_heads_;
};

}  // namespace flex::storage

#endif  // FLEX_STORAGE_GART_GART_STORE_H_
