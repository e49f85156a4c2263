#include "storage/simple.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::storage {

PropertyGraphData MakeSimpleGraphData(const EdgeList& list,
                                      bool with_weights) {
  PropertyGraphData data;
  auto vlabel = data.schema.AddVertexLabel("V", {});
  FLEX_CHECK(vlabel.ok());
  std::vector<PropertyDef> edge_props;
  if (with_weights) edge_props.push_back({"weight", PropertyType::kDouble});
  auto elabel = data.schema.AddEdgeLabel("E", vlabel.value(), vlabel.value(),
                                         edge_props);
  FLEX_CHECK(elabel.ok());

  for (vid_t v = 0; v < list.num_vertices; ++v) {
    data.AddVertex(vlabel.value(), static_cast<oid_t>(v), {});
  }
  for (const RawEdge& e : list.edges) {
    std::vector<PropertyValue> row;
    if (with_weights) row.emplace_back(e.weight);
    data.AddEdge(elabel.value(), static_cast<oid_t>(e.src),
                 static_cast<oid_t>(e.dst), std::move(row));
  }
  return data;
}

namespace {

/// GRIN view over a SimpleCsrStore: single label, vid == oid, array
/// adjacency straight off the CSR spans.
class SimpleGrinGraph final : public grin::GrinGraph {
 public:
  explicit SimpleGrinGraph(const SimpleCsrStore* store) : store_(store) {}

  std::string backend_name() const override { return "simple"; }

  uint32_t capabilities() const override {
    return grin::kVertexListArray | grin::kAdjacentListArray |
           grin::kAdjacentListIterator | grin::kOidIndex | grin::kLabelIndex;
  }

  const GraphSchema& schema() const override { return store_->schema(); }

  vid_t NumVertices() const override { return store_->out().num_vertices(); }
  vid_t NumVerticesOfLabel(label_t) const override { return NumVertices(); }
  label_t VertexLabelOf(vid_t) const override { return 0; }

  std::pair<vid_t, vid_t> VertexRange(label_t) const override {
    return {0, NumVertices()};
  }

  void VisitVertices(label_t, size_t begin, size_t end,
                     bool (*visitor)(void*, vid_t),
                     void* visitor_ctx) const override {
    FLEX_COUNTER_INC(metrics::kStorageScansTotal);
    end = std::min<size_t>(end, NumVertices());
    for (size_t v = begin; v < end; ++v) {
      if (!visitor(visitor_ctx, static_cast<vid_t>(v))) return;
    }
  }

  bool VisitAdj(vid_t v, Direction dir, label_t edge_label,
                grin::AdjVisitor visitor, void* ctx) const override {
    if (dir == Direction::kBoth) {
      return VisitAdj(v, Direction::kOut, edge_label, visitor, ctx) &&
             VisitAdj(v, Direction::kIn, edge_label, visitor, ctx);
    }
    FLEX_COUNTER_INC(metrics::kStorageAdjVisitsTotal);
    const Csr& csr = dir == Direction::kOut ? store_->out() : store_->in();
    grin::AdjChunk chunk;
    chunk.neighbors = csr.Neighbors(v);
    chunk.weights = csr.Weights(v);
    chunk.edge_id_base = csr.EdgeOffset(v);
    if (chunk.neighbors.empty()) return true;
    return visitor(ctx, chunk);
  }

  bool GetNeighborsBatch(std::span<const vid_t> vids, Direction dir, label_t,
                         grin::BatchAdjVisitor visitor,
                         void* ctx) const override {
    // CSR slices served directly, one virtual call per batch instead of
    // one per (vertex, direction). Counter increments match the scalar
    // path: one adj visit per source per concrete direction.
    const Csr& out = store_->out();
    const Csr& in = store_->in();
    auto emit = [&](size_t i, Direction d) -> bool {
      FLEX_COUNTER_INC(metrics::kStorageAdjVisitsTotal);
      const Csr& csr = d == Direction::kOut ? out : in;
      const vid_t v = vids[i];
      grin::AdjChunk chunk;
      chunk.neighbors = csr.Neighbors(v);
      chunk.weights = csr.Weights(v);
      chunk.edge_id_base = csr.EdgeOffset(v);
      if (chunk.neighbors.empty()) return true;
      return visitor(ctx, i, d, chunk);
    };
    for (size_t i = 0; i < vids.size(); ++i) {
      if (dir != Direction::kIn && !emit(i, Direction::kOut)) return false;
      if (dir != Direction::kOut && !emit(i, Direction::kIn)) return false;
    }
    return true;
  }

  std::span<const eid_t> AdjacencyOffsets(label_t,
                                          Direction dir) const override {
    if (dir == Direction::kOut) return store_->out().offsets();
    if (dir == Direction::kIn) return store_->in().offsets();
    return {};
  }

  std::span<const vid_t> AdjacencyNeighbors(label_t,
                                            Direction dir) const override {
    if (dir == Direction::kOut) return store_->out().neighbors();
    if (dir == Direction::kIn) return store_->in().neighbors();
    return {};
  }

  size_t Degree(vid_t v, Direction dir, label_t) const override {
    size_t deg = 0;
    if (dir != Direction::kIn) deg += store_->out().degree(v);
    if (dir != Direction::kOut) deg += store_->in().degree(v);
    return deg;
  }

  PropertyValue GetVertexProperty(vid_t, size_t) const override {
    return PropertyValue();
  }
  PropertyValue GetEdgeProperty(label_t, eid_t, size_t) const override {
    return PropertyValue();
  }

  Result<vid_t> FindVertex(label_t, oid_t oid) const override {
    FLEX_COUNTER_INC(metrics::kStorageIndexLookupsTotal);
    if (oid < 0 || oid >= static_cast<oid_t>(NumVertices())) {
      return Status::NotFound("vertex oid " + std::to_string(oid));
    }
    return static_cast<vid_t>(oid);
  }

  oid_t GetOid(vid_t v) const override { return static_cast<oid_t>(v); }

 private:
  const SimpleCsrStore* store_;
};

}  // namespace

SimpleCsrStore::SimpleCsrStore(const EdgeList& list)
    : out_(Csr::FromEdges(list, /*reversed=*/false)),
      in_(Csr::FromEdges(list, /*reversed=*/true)) {
  auto vlabel = schema_.AddVertexLabel("V", {});
  FLEX_CHECK(vlabel.ok());
  auto elabel = schema_.AddEdgeLabel("E", vlabel.value(), vlabel.value(), {});
  FLEX_CHECK(elabel.ok());
}

std::unique_ptr<grin::GrinGraph> SimpleCsrStore::GetGrinHandle() const {
  return std::make_unique<SimpleGrinGraph>(this);
}

}  // namespace flex::storage
