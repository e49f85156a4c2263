#ifndef FLEX_STORAGE_CSR_TOPOLOGY_H_
#define FLEX_STORAGE_CSR_TOPOLOGY_H_

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/edge_list.h"
#include "graph/types.h"
#include "grin/grin.h"

namespace flex::storage {

/// The labeled CSR every immutable backend (Vineyard, the GraphAr direct
/// view, simple) serves its topology from. Vertices of each label occupy
/// one contiguous vid range in input order, with a per-label oid index.
/// Each edge label keeps a forward CSR, stable in input order, and a
/// reverse CSR whose entries carry the forward edge id: an edge's id is
/// its forward-CSR position, the same from either end and unique within
/// its label.
///
/// Built once — every vertex label, then every edge label, in label
/// order — and read-only afterwards.
class CsrTopology {
 public:
  /// Gives the next vertex label `oids.size()` vids in input order.
  /// kAlreadyExists if an oid repeats within the label.
  Status AddVertexLabel(std::span<const oid_t> oids);

  /// Builds the next edge label's CSR pair from per-edge endpoint oids.
  /// kNotFound if an endpoint is missing from its label. If `order` is
  /// given it receives, for every forward edge id, the edge's input
  /// position, so a backend can lay its per-edge rows out in forward
  /// order.
  Status AddEdgeLabel(label_t src_label, label_t dst_label,
                      std::span<const oid_t> src_oids,
                      std::span<const oid_t> dst_oids,
                      std::vector<size_t>* order = nullptr);
  /// The same, reading an edge list in place with each endpoint vid taken
  /// as its oid (its weights are not read).
  Status AddEdgeLabel(label_t src_label, label_t dst_label,
                      std::span<const RawEdge> edges);

  /// Out-weights of an added edge label, in forward edge id order. A
  /// label without them reports empty weight spans, meaning weight 1.0.
  void SetOutWeights(label_t edge_label, std::span<const double> weights);

  vid_t num_vertices() const { return static_cast<vid_t>(oids_.size()); }
  size_t num_edges() const;

  std::pair<vid_t, vid_t> VertexRange(label_t label) const {
    return {label_start_[label], label_start_[label + 1]};
  }
  label_t VertexLabelOf(vid_t v) const;
  oid_t GetOid(vid_t v) const { return oids_[v]; }
  Result<vid_t> FindVertex(label_t label, oid_t oid) const;
  /// FindVertex without the Status: kInvalidVid if absent. `label` must
  /// be one of the schema's vertex labels.
  vid_t Lookup(label_t label, oid_t oid) const;

  std::span<const vid_t> OutNeighbors(vid_t v, label_t edge_label) const {
    const EdgeCsr& c = edges_[edge_label];
    return Slice(c.out_nbrs, c.out_offsets, v);
  }
  std::span<const vid_t> InNeighbors(vid_t v, label_t edge_label) const {
    const EdgeCsr& c = edges_[edge_label];
    return Slice(c.in_nbrs, c.in_offsets, v);
  }
  /// Forward edge ids of v's in-edges.
  std::span<const eid_t> InEdgeIds(vid_t v, label_t edge_label) const {
    const EdgeCsr& c = edges_[edge_label];
    return Slice(c.in_eids, c.in_offsets, v);
  }

  /// v's adjacency in `dir` (kOut or kIn) as one GRIN chunk: out-edges
  /// carry their weights and ids base + i, in-edges their forward ids.
  grin::AdjChunk Adjacency(vid_t v, Direction dir, label_t edge_label) const {
    const EdgeCsr& c = edges_[edge_label];
    if (dir != Direction::kOut) {
      return {Slice(c.in_nbrs, c.in_offsets, v), {},
              Slice(c.in_eids, c.in_offsets, v)};
    }
    return {Slice(c.out_nbrs, c.out_offsets, v),
            c.out_weights.empty() ? std::span<const double>()
                                  : Slice(c.out_weights, c.out_offsets, v),
            {}, c.out_offsets[v]};
  }

  /// Whole-label CSR arrays (dir kOut or kIn; kBoth yields empty spans).
  std::span<const eid_t> Offsets(label_t edge_label, Direction dir) const {
    const EdgeCsr& c = edges_[edge_label];
    if (dir == Direction::kBoth) return {};
    return dir == Direction::kOut ? c.out_offsets : c.in_offsets;
  }
  std::span<const vid_t> Neighbors(label_t edge_label, Direction dir) const {
    const EdgeCsr& c = edges_[edge_label];
    if (dir == Direction::kBoth) return {};
    return dir == Direction::kOut ? c.out_nbrs : c.in_nbrs;
  }

 private:
  struct EdgeCsr {
    std::vector<eid_t> out_offsets;   // size V+1
    std::vector<vid_t> out_nbrs;
    std::vector<double> out_weights;  // empty when unweighted
    std::vector<eid_t> in_offsets;    // size V+1
    std::vector<vid_t> in_nbrs;
    std::vector<eid_t> in_eids;       // forward edge id of each in-edge
  };

  template <typename T>
  static std::span<const T> Slice(const std::vector<T>& values,
                                  const std::vector<eid_t>& offsets, vid_t v) {
    return {values.data() + offsets[v], offsets[v + 1] - offsets[v]};
  }
  template <typename Endpoints>
  Status BuildEdgeLabel(label_t src_label, label_t dst_label, size_t m,
                        const Endpoints& endpoints,
                        std::vector<size_t>* order);

  std::vector<vid_t> label_start_ = {0};  // size L+1
  std::vector<oid_t> oids_;               // vid -> oid
  std::vector<std::unordered_map<oid_t, vid_t>> oid_index_;  // per label
  std::vector<EdgeCsr> edges_;                               // per edge label
};

/// The GRIN topology and index methods of every CsrTopology backend,
/// implemented once with the storage counter increments all backends
/// report. Backends derive from it and add only what differs: schema,
/// properties and capabilities.
class CsrGrinGraph : public grin::GrinGraph {
 public:
  vid_t NumVertices() const final { return topology_->num_vertices(); }
  vid_t NumVerticesOfLabel(label_t label) const final {
    const auto [begin, end] = topology_->VertexRange(label);
    return end - begin;
  }
  label_t VertexLabelOf(vid_t v) const final {
    return topology_->VertexLabelOf(v);
  }
  std::pair<vid_t, vid_t> VertexRange(label_t label) const final {
    return topology_->VertexRange(label);
  }
  void VisitVertices(label_t label, size_t begin, size_t end,
                     bool (*visitor)(void*, vid_t),
                     void* visitor_ctx) const final;

  bool VisitAdj(vid_t v, Direction dir, label_t edge_label,
                grin::AdjVisitor visitor, void* ctx) const final;
  std::span<const eid_t> AdjacencyOffsets(label_t edge_label,
                                          Direction dir) const final {
    return topology_->Offsets(edge_label, dir);
  }
  std::span<const vid_t> AdjacencyNeighbors(label_t edge_label,
                                            Direction dir) const final {
    return topology_->Neighbors(edge_label, dir);
  }
  size_t Degree(vid_t v, Direction dir, label_t edge_label) const final {
    const CsrTopology& t = *topology_;
    return (dir == Direction::kIn ? 0 : t.OutNeighbors(v, edge_label).size()) +
           (dir == Direction::kOut ? 0 : t.InNeighbors(v, edge_label).size());
  }
  using grin::GrinGraph::GetNeighborsBatch;
  bool GetNeighborsBatch(std::span<const vid_t> vids, Direction dir,
                         label_t edge_label, grin::BatchAdjVisitor visitor,
                         void* ctx) const final;

  Result<vid_t> FindVertex(label_t label, oid_t oid) const final;
  oid_t GetOid(vid_t v) const final { return topology_->GetOid(v); }

 protected:
  explicit CsrGrinGraph(const CsrTopology* topology) : topology_(topology) {}
  const CsrTopology& topology() const { return *topology_; }

 private:
  const CsrTopology* topology_;
};

}  // namespace flex::storage

#endif  // FLEX_STORAGE_CSR_TOPOLOGY_H_
