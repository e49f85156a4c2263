#include "storage/vineyard/vineyard_store.h"

namespace flex::storage {

Result<std::unique_ptr<VineyardStore>> VineyardStore::Build(
    const PropertyGraphData& data) {
  auto store = std::unique_ptr<VineyardStore>(new VineyardStore());
  store->schema_ = data.schema;
  const GraphSchema& schema = data.schema;

  static const PropertyGraphData::VertexBatch kNoVertices;
  store->vertex_tables_.reserve(schema.vertex_label_num());
  for (size_t l = 0; l < schema.vertex_label_num(); ++l) {
    const auto& batch =
        l < data.vertices.size() ? data.vertices[l] : kNoVertices;
    FLEX_RETURN_NOT_OK(store->topology_.AddVertexLabel(batch.oids));
    PropertyTable& table = store->vertex_tables_.emplace_back(
        schema.vertex_label(static_cast<label_t>(l)).properties);
    for (const auto& row : batch.rows) FLEX_RETURN_NOT_OK(table.AppendRow(row));
  }

  static const PropertyGraphData::EdgeBatch kNoEdges;
  store->edge_tables_.reserve(schema.edge_label_num());
  std::vector<size_t> order;
  for (size_t el = 0; el < schema.edge_label_num(); ++el) {
    const auto label = static_cast<label_t>(el);
    const EdgeLabelDef& def = schema.edge_label(label);
    const auto& batch = el < data.edges.size() ? data.edges[el] : kNoEdges;
    FLEX_RETURN_NOT_OK(store->topology_.AddEdgeLabel(
        def.src_label, def.dst_label, batch.src_oids, batch.dst_oids, &order));
    PropertyTable& table = store->edge_tables_.emplace_back(def.properties);
    for (size_t i : order) FLEX_RETURN_NOT_OK(table.AppendRow(batch.rows[i]));
    // The first double property doubles as the analytics edge weight.
    for (size_t col = 0; col < def.properties.size(); ++col) {
      if (def.properties[col].type == PropertyType::kDouble) {
        store->topology_.SetOutWeights(label, table.column(col).DoubleSpan());
        break;
      }
    }
  }
  return store;
}

// ----------------------------------------------------------- GRIN adapter

/// GRIN view over VineyardStore. Advertises the full trait set: Vineyard
/// "effectively implement[s] most of the GRIN traits" (§4.2).
class VineyardGrin final : public CsrGrinGraph {
 public:
  explicit VineyardGrin(const VineyardStore* store)
      : CsrGrinGraph(&store->topology()), store_(store) {}

  std::string backend_name() const override { return "vineyard"; }

  uint32_t capabilities() const override {
    // No kPartitionedGraph: a store is one unpartitioned graph.
    return grin::kVertexListArray | grin::kAdjacentListArray |
           grin::kAdjacentListIterator | grin::kVertexProperty |
           grin::kEdgeProperty | grin::kPropertyColumnArray |
           grin::kOidIndex | grin::kLabelIndex;
  }

  const GraphSchema& schema() const override { return store_->schema(); }

  PropertyValue GetVertexProperty(vid_t v, size_t col) const override {
    const label_t label = topology().VertexLabelOf(v);
    return store_->vertex_table(label).Get(
        v - topology().VertexRange(label).first, col);
  }

  PropertyValue GetEdgeProperty(label_t edge_label, eid_t e,
                                size_t col) const override {
    return store_->edge_table(edge_label).Get(e, col);
  }

  std::span<const int64_t> VertexInt64Column(label_t label,
                                             size_t col) const override {
    const auto& column = store_->vertex_table(label).column(col);
    if (column.type() != PropertyType::kInt64) return {};
    return column.Int64Span();
  }

  std::span<const double> VertexDoubleColumn(label_t label,
                                             size_t col) const override {
    const auto& column = store_->vertex_table(label).column(col);
    if (column.type() != PropertyType::kDouble) return {};
    return column.DoubleSpan();
  }

 private:
  const VineyardStore* store_;
};

std::unique_ptr<grin::GrinGraph> VineyardStore::GetGrinHandle() const {
  return std::make_unique<VineyardGrin>(this);
}

}  // namespace flex::storage
