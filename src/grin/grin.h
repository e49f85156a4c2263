#ifndef FLEX_GRIN_GRIN_H_
#define FLEX_GRIN_GRIN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/property.h"
#include "graph/schema.h"
#include "graph/types.h"

namespace flex::grin {

/// GRIN capability traits, grouped into the paper's six categories
/// (Figure 4): topology, property, partition, index, predicate, common.
///
/// A storage backend advertises exactly the traits it can honour; an
/// execution engine requires some traits and optionally exploits others.
/// `RequireTraits` is the negotiation point: engines call it up front and
/// receive kCapabilityMissing instead of silently degrading.
enum Trait : uint32_t {
  // --- topology ---
  /// Vertices of a label form one contiguous [begin, end) vid range.
  kVertexListArray = 1u << 0,
  /// Adjacency is exposed as a single contiguous chunk (array-like trait).
  kAdjacentListArray = 1u << 1,
  /// Adjacency is exposed by chunked iteration (iterator trait). Always
  /// available: array-capable backends just emit one chunk.
  kAdjacentListIterator = 1u << 2,

  // --- property ---
  /// Row-wise vertex property access.
  kVertexProperty = 1u << 3,
  /// Row-wise edge property access.
  kEdgeProperty = 1u << 4,
  /// Whole property columns as contiguous spans (fast analytics path).
  kPropertyColumnArray = 1u << 5,

  // --- partition ---
  /// The backend knows an edge-cut partition assignment for its vertices.
  kPartitionedGraph = 1u << 6,

  // --- index ---
  /// External id -> internal vertex lookup.
  kOidIndex = 1u << 7,
  /// Vertices enumerable by label without scanning others.
  kLabelIndex = 1u << 8,

  // --- predicate ---
  /// The backend amortizes GetVerticesProperties across a span, so a
  /// filter pushed into a scan or expansion reads its columns cheaper
  /// than row by row. The filtered visits work on every backend.
  kPredicatePushdown = 1u << 9,

  // --- common ---
  /// The graph is a consistent MVCC snapshot of a mutable store.
  kVersionedSnapshot = 1u << 10,
};

/// One chunk of adjacency handed to a visitor. Array-trait backends emit a
/// single chunk per vertex; iterator-trait backends emit several.
///
/// Edge ids: one id per edge, the same from its source's out-adjacency and
/// its destination's in-adjacency, unique within its edge label, and the
/// key of kEdgeProperty lookups. If `edge_ids` is empty they are
/// sequential from `edge_id_base`.
struct AdjChunk {
  std::span<const vid_t> neighbors;
  std::span<const double> weights;  ///< Empty when the label is unweighted.
  std::span<const eid_t> edge_ids;  ///< Empty => base + i.
  eid_t edge_id_base = 0;

  eid_t edge_id(size_t i) const {
    return edge_ids.empty() ? edge_id_base + i : edge_ids[i];
  }
  double weight(size_t i) const {
    return weights.empty() ? 1.0 : weights[i];
  }
};

/// C-style visitor (GRIN is a C API in the paper; a function pointer plus
/// context keeps the hot path free of std::function overhead).
/// Return false to stop iteration early.
using AdjVisitor = bool (*)(void* ctx, const AdjChunk& chunk);

/// Visitor for batched adjacency (GetNeighborsBatch): `src_index` is the
/// position of the source vertex inside the requested span and `dir` is the
/// concrete direction of this chunk — always kOut or kIn, never kBoth, so
/// callers expanding in both directions can orient each edge without
/// re-deriving which list it came from. Return false to stop.
using BatchAdjVisitor = bool (*)(void* ctx, size_t src_index, Direction dir,
                                 const AdjChunk& chunk);

/// One pushed-down comparison against a vertex property column, with the
/// interpreter's exact expression semantics: kEq/kNe via
/// PropertyValue::operator==, the ordered comparisons via
/// PropertyValue::Compare, and a kNoColumn column standing for a property
/// the schema could not resolve (compared as the empty value, never an
/// error — mirroring Expr's missing-property behaviour).
struct VertexCondition {
  enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
  static constexpr size_t kNoColumn = static_cast<size_t>(-1);
  size_t column = kNoColumn;
  Cmp cmp = Cmp::kEq;
  PropertyValue value;
};

/// One condition against an already-fetched property value (the
/// comparison kernel of the filtered visits).
bool MatchesCondition(const VertexCondition& condition,
                      const PropertyValue& value);

/// A conjunction of pushed-down conditions. Conditions are pure, so they
/// may be evaluated in any order, each over the candidates the earlier
/// ones kept, without changing the survivor set.
struct VertexFilter {
  std::vector<VertexCondition> conditions;

  bool empty() const { return conditions.empty(); }
};

/// Visitor for filtered+projected vertex scans: called once per vertex
/// of the visited window that passed the pushed filter, with
/// `props[i]` = the vertex's value for the i-th requested projection
/// column. Return false to stop the scan early.
using FilteredVertexVisitor = bool (*)(void* ctx, vid_t v,
                                       std::span<const PropertyValue> props);

/// Visitor for filtered batched expansion: called once per surviving
/// neighbor (`src_index` positions the source inside the requested span),
/// with `props` as above. Return false to stop.
using FilteredNeighborVisitor =
    bool (*)(void* ctx, size_t src_index, vid_t nbr,
             std::span<const PropertyValue> props);

/// The unified graph retrieval handle every execution engine programs
/// against. Implementations are views: cheap to create, do not own the
/// underlying store, and remain valid while the store lives (for MVCC
/// stores, while the snapshot's version is retained).
class GrinGraph {
 public:
  virtual ~GrinGraph();

  virtual std::string backend_name() const = 0;
  virtual uint32_t capabilities() const = 0;
  virtual const GraphSchema& schema() const = 0;

  /// Verifies that every trait in `required` is advertised.
  Status RequireTraits(uint32_t required) const;

  // ------------------------------------------------------------ topology
  /// Total internal vid space (vids are < NumVertices for all labels).
  virtual vid_t NumVertices() const = 0;
  /// Vertices carrying `label`.
  virtual vid_t NumVerticesOfLabel(label_t label) const = 0;
  virtual label_t VertexLabelOf(vid_t v) const = 0;

  /// [begin, end) when kVertexListArray is advertised.
  virtual std::pair<vid_t, vid_t> VertexRange(label_t label) const;

  /// Enumerates the vids of `label` at scan positions [begin, end): the
  /// label's vertices in a fixed backend order, numbered from 0, with
  /// `end` clamped to NumVerticesOfLabel(label). Engines shard a scan by
  /// handing each worker its own windows; a full scan passes
  /// 0, NumVerticesOfLabel(label). Works without kVertexListArray.
  virtual void VisitVertices(label_t label, size_t begin, size_t end,
                             bool (*visitor)(void*, vid_t),
                             void* visitor_ctx) const = 0;

  /// Filtered + projected scan (the scan entry point of pushdown):
  /// enumerates the same window as VisitVertices, in the same order, and
  /// invokes `visitor` for each vertex that passes `filter`, with the
  /// values of `project_cols` gathered. One implementation serves every
  /// backend: candidates are evaluated a chunk at a time, each condition
  /// reading its column for the candidates still alive with one
  /// GetVerticesProperties call and each projection column read for the
  /// survivors the same way, so a backend tunes pushdown only through
  /// that batched read. flex_fused_rows_pruned_total grows by the
  /// candidates rejected ahead of the last one delivered. Returns false
  /// if the visitor stopped early.
  bool VisitVerticesFiltered(label_t label, size_t begin, size_t end,
                             const VertexFilter& filter,
                             std::span<const size_t> project_cols,
                             FilteredVertexVisitor visitor,
                             void* visitor_ctx) const;

  /// Streams the adjacency of `v` under `edge_label` in `dir`.
  /// Returns false if the visitor stopped early.
  virtual bool VisitAdj(vid_t v, Direction dir, label_t edge_label,
                        AdjVisitor visitor, void* ctx) const = 0;

  /// Array-like adjacency trait (kAdjacentListArray): direct handles on
  /// the backend's contiguous CSR arrays, indexed by vid. Engines that
  /// negotiate this trait scan with zero per-vertex indirection. Returns
  /// empty spans when the trait is not advertised (dir must be kOut/kIn).
  virtual std::span<const eid_t> AdjacencyOffsets(label_t edge_label,
                                                  Direction dir) const {
    return {};
  }
  virtual std::span<const vid_t> AdjacencyNeighbors(label_t edge_label,
                                                    Direction dir) const {
    return {};
  }

  virtual size_t Degree(vid_t v, Direction dir, label_t edge_label) const = 0;

  /// Batched adjacency for columnar engines: streams, for each source
  /// `vids[i]` in span order, its chunks under `edge_label` — for kBoth
  /// first the kOut chunks then the kIn chunks of each source, matching
  /// the scalar VisitAdj call sequence. Returns false if the visitor
  /// stopped early. The default loops VisitAdj per source; array-trait
  /// backends override it to serve CSR slices with no per-vertex virtual
  /// dispatch.
  virtual bool GetNeighborsBatch(std::span<const vid_t> vids, Direction dir,
                                 label_t edge_label, BatchAdjVisitor visitor,
                                 void* ctx) const;

  /// Filtered + projected batched expansion (the adjacency entry point
  /// of pushdown): like GetNeighborsBatch — same per-source
  /// kOut-then-kIn order — but each neighbor is checked against
  /// `dst_label` (kInvalidLabel = any) and then `filter`, and survivors
  /// are delivered one at a time with `project_cols` gathered. The filter
  /// and projection run exactly as in VisitVerticesFiltered, over the
  /// neighbors of the right label.
  bool GetNeighborsBatch(std::span<const vid_t> vids, Direction dir,
                         label_t edge_label, label_t dst_label,
                         const VertexFilter& filter,
                         std::span<const size_t> project_cols,
                         FilteredNeighborVisitor visitor, void* ctx) const;

  // ------------------------------------------------------------ property
  /// Boxed property access (row-wise traits).
  virtual PropertyValue GetVertexProperty(vid_t v, size_t col) const = 0;
  virtual PropertyValue GetEdgeProperty(label_t edge_label, eid_t e,
                                        size_t col) const = 0;

  /// Batched boxed access: out[i] = GetVertexProperty(vids[i], col). The
  /// default loops the scalar accessor so every backend keeps working;
  /// chunked and locked stores override it to amortize chunk decode or
  /// lock acquisition across the span. It is the one property hook of
  /// the filtered visits. Callers get the most out of overrides by
  /// passing contiguous same-label runs.
  virtual void GetVerticesProperties(std::span<const vid_t> vids, size_t col,
                                     PropertyValue* out) const;

  /// Column spans when kPropertyColumnArray is advertised; indexed by
  /// (vid - VertexRange(label).first). Empty span otherwise.
  virtual std::span<const int64_t> VertexInt64Column(label_t label,
                                                     size_t col) const;
  virtual std::span<const double> VertexDoubleColumn(label_t label,
                                                     size_t col) const;

  // --------------------------------------------------------------- index
  virtual Result<vid_t> FindVertex(label_t label, oid_t oid) const = 0;
  virtual oid_t GetOid(vid_t v) const = 0;

  // -------------------------------------------------------------- common
  /// MVCC snapshot version; 0 for immutable stores.
  virtual version_t SnapshotVersion() const { return 0; }
};

/// Convenience wrapper: visit each (neighbor, weight, edge id) of `v` with
/// a lambda `fn(vid_t nbr, double w, eid_t e) -> bool/void`. Chunks are
/// flattened; iteration stops early if `fn` returns false.
template <typename Fn>
bool ForEachAdj(const GrinGraph& graph, vid_t v, Direction dir,
                label_t edge_label, Fn&& fn) {
  struct Ctx {
    Fn* fn;
  } ctx{&fn};
  return graph.VisitAdj(
      v, dir, edge_label,
      [](void* raw, const AdjChunk& chunk) -> bool {
        auto* c = static_cast<Ctx*>(raw);
        for (size_t i = 0; i < chunk.neighbors.size(); ++i) {
          if constexpr (std::is_void_v<decltype((*c->fn)(
                            vid_t{}, double{}, eid_t{}))>) {
            (*c->fn)(chunk.neighbors[i], chunk.weight(i), chunk.edge_id(i));
          } else {
            if (!(*c->fn)(chunk.neighbors[i], chunk.weight(i),
                          chunk.edge_id(i))) {
              return false;
            }
          }
        }
        return true;
      },
      &ctx);
}

}  // namespace flex::grin

#endif  // FLEX_GRIN_GRIN_H_
