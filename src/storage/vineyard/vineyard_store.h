#ifndef FLEX_STORAGE_VINEYARD_VINEYARD_STORE_H_
#define FLEX_STORAGE_VINEYARD_VINEYARD_STORE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "graph/property_table.h"
#include "graph/schema.h"
#include "graph/types.h"
#include "grin/grin.h"
#include "storage/csr_topology.h"

namespace flex::storage {

/// Immutable in-memory labeled-property-graph store, modelled on Vineyard
/// (§4.2): property graph data model, CSR + CSC built-in indices and dense
/// internal vertex ids, served by the shared CsrTopology. What Vineyard
/// adds is columnar property tables: vertex rows per label, and edge rows
/// per edge label in forward edge id order, so edge properties resolve
/// identically from either end.
class VineyardStore {
 public:
  /// Builds an immutable store from raw graph data.
  static Result<std::unique_ptr<VineyardStore>> Build(
      const PropertyGraphData& data);

  const GraphSchema& schema() const { return schema_; }

  /// The shared topology, read directly: the devirtualized native path the
  /// GRIN-overhead experiment (Fig 7(b)) compares the GRIN handle against.
  const CsrTopology& topology() const { return topology_; }

  const PropertyTable& vertex_table(label_t label) const {
    return vertex_tables_[label];
  }
  const PropertyTable& edge_table(label_t label) const {
    return edge_tables_[label];
  }

  /// Creates a GRIN view of this store (non-owning).
  std::unique_ptr<grin::GrinGraph> GetGrinHandle() const;

 private:
  VineyardStore() = default;

  GraphSchema schema_;
  CsrTopology topology_;
  std::vector<PropertyTable> vertex_tables_;  // per label
  std::vector<PropertyTable> edge_tables_;    // per edge label, forward order
};

}  // namespace flex::storage

#endif  // FLEX_STORAGE_VINEYARD_VINEYARD_STORE_H_
