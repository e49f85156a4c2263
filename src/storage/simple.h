#ifndef FLEX_STORAGE_SIMPLE_H_
#define FLEX_STORAGE_SIMPLE_H_

#include <memory>

#include "graph/edge_list.h"
#include "graph/property_table.h"
#include "graph/schema.h"
#include "grin/grin.h"
#include "storage/csr_topology.h"

namespace flex::storage {

/// Wraps a plain edge list as a single-label property graph ("V" vertices,
/// "E" edges with a double `weight` property, oid == vid), so simple /
/// weighted analytics graphs flow through the same LPG store builders.
PropertyGraphData MakeSimpleGraphData(const EdgeList& list,
                                      bool with_weights = true);

/// The minimal storage backend ("simple"): the shared CsrTopology over a
/// single-label graph with vid == oid, built straight from an edge list,
/// with no properties (its one edge label has none, so no weights either).
/// It is the plain-CSR reference point the paper treats as the
/// read-throughput upper bound, and one of the backends the cross-backend
/// parity test (tests/backend_parity_test.cc) holds to the edge list.
class SimpleCsrStore {
 public:
  explicit SimpleCsrStore(const EdgeList& list);

  /// GRIN view; valid while this store lives.
  std::unique_ptr<grin::GrinGraph> GetGrinHandle() const;

  const GraphSchema& schema() const { return schema_; }
  const CsrTopology& topology() const { return topology_; }

 private:
  GraphSchema schema_;
  CsrTopology topology_;
};

}  // namespace flex::storage

#endif  // FLEX_STORAGE_SIMPLE_H_
