#include "optimizer/catalog.h"

#include "common/random.h"

namespace flex::optimizer {

Catalog Catalog::Build(const grin::GrinGraph& graph, size_t sample_per_label) {
  Catalog catalog;
  const GraphSchema& schema = graph.schema();
  catalog.vertex_counts_.resize(schema.vertex_label_num(), 0);
  for (size_t l = 0; l < schema.vertex_label_num(); ++l) {
    catalog.vertex_counts_[l] =
        graph.NumVerticesOfLabel(static_cast<label_t>(l));
  }

  catalog.edge_counts_.resize(schema.edge_label_num(), 0);
  catalog.endpoints_.resize(schema.edge_label_num());
  for (size_t el = 0; el < schema.edge_label_num(); ++el) {
    const EdgeLabelDef& def = schema.edge_label(static_cast<label_t>(el));
    catalog.endpoints_[el] = {def.src_label, def.dst_label};

    // Sample source vertices, extrapolate total edge count from the mean
    // observed out-degree.
    struct Ctx {
      const grin::GrinGraph* graph;
      label_t elabel;
      size_t limit;
      size_t sampled = 0;
      size_t degree_sum = 0;
    } ctx{&graph, static_cast<label_t>(el), sample_per_label};
    graph.VisitVertices(
        def.src_label, 0, graph.NumVerticesOfLabel(def.src_label),
        [](void* raw, vid_t v) -> bool {
          auto* c = static_cast<Ctx*>(raw);
          c->degree_sum += c->graph->Degree(v, Direction::kOut, c->elabel);
          return ++c->sampled < c->limit;
        },
        &ctx);
    const size_t src_count = catalog.vertex_counts_[def.src_label];
    if (ctx.sampled > 0) {
      catalog.edge_counts_[el] = static_cast<size_t>(
          static_cast<double>(ctx.degree_sum) / ctx.sampled * src_count);
    }
  }
  return catalog;
}

double Catalog::AvgFanout(label_t elabel, Direction dir) const {
  const auto [src, dst] = endpoints_[elabel];
  const double edges = static_cast<double>(edge_counts_[elabel]);
  const double out_fan =
      vertex_counts_[src] == 0 ? 0.0 : edges / vertex_counts_[src];
  const double in_fan =
      vertex_counts_[dst] == 0 ? 0.0 : edges / vertex_counts_[dst];
  switch (dir) {
    case Direction::kOut:
      return out_fan;
    case Direction::kIn:
      return in_fan;
    case Direction::kBoth:
      return out_fan + in_fan;
  }
  return 0.0;
}

}  // namespace flex::optimizer
