#include "storage/simple.h"

#include <numeric>

#include "common/logging.h"

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

/// GRIN view over a SimpleCsrStore: topology and index from the shared
/// base, no properties.
class SimpleGrinGraph final : public CsrGrinGraph {
 public:
  explicit SimpleGrinGraph(const SimpleCsrStore* store)
      : CsrGrinGraph(&store->topology()), store_(store) {}

  std::string backend_name() const override { return "simple"; }

  uint32_t capabilities() const override {
    return grin::kVertexListArray | grin::kAdjacentListArray |
           grin::kAdjacentListIterator | grin::kOidIndex | grin::kLabelIndex;
  }

  const GraphSchema& schema() const override { return store_->schema(); }

  PropertyValue GetVertexProperty(vid_t, size_t) const override {
    return PropertyValue();
  }
  PropertyValue GetEdgeProperty(label_t, eid_t, size_t) const override {
    return PropertyValue();
  }

 private:
  const SimpleCsrStore* store_;
};

}  // namespace

SimpleCsrStore::SimpleCsrStore(const EdgeList& list) {
  auto vlabel = schema_.AddVertexLabel("V", {});
  FLEX_CHECK(vlabel.ok());
  auto elabel = schema_.AddEdgeLabel("E", vlabel.value(), vlabel.value(), {});
  FLEX_CHECK(elabel.ok());
  std::vector<oid_t> oids(list.num_vertices);
  std::iota(oids.begin(), oids.end(), oid_t{0});
  FLEX_CHECK(topology_.AddVertexLabel(oids).ok());
  FLEX_CHECK(
      topology_.AddEdgeLabel(vlabel.value(), vlabel.value(), list.edges).ok());
}

std::unique_ptr<grin::GrinGraph> SimpleCsrStore::GetGrinHandle() const {
  return std::make_unique<SimpleGrinGraph>(this);
}

}  // namespace flex::storage
