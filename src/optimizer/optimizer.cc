#include "optimizer/optimizer.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"

namespace flex::optimizer {

namespace {

using ir::Expr;
using ir::ExprPtr;
using ir::Op;
using ir::OpKind;
using ir::Plan;

bool AppendsColumn(const Op& op) {
  switch (op.kind) {
    case OpKind::kScan:
    case OpKind::kExpandEdge:
    case OpKind::kGetVertex:
    case OpKind::kExpand:
    case OpKind::kExpandVar:
      return true;
    default:
      return false;
  }
}

bool ReshapesRow(const Op& op) {
  return op.kind == OpKind::kProject || op.kind == OpKind::kGroup;
}

/// Collects every column index `op` references (not the one it appends).
void CollectOpRefs(const Op& op, std::vector<size_t>* out) {
  switch (op.kind) {
    case OpKind::kExpandEdge:
    case OpKind::kExpand:
    case OpKind::kExpandVar:
      out->push_back(op.from_column);
      break;
    case OpKind::kGetVertex:
      out->push_back(op.from_column);
      out->push_back(op.origin_column);
      break;
    case OpKind::kExpandInto:
      out->push_back(op.from_column);
      out->push_back(op.into_column);
      break;
    default:
      break;
  }
  if (op.predicate != nullptr) op.predicate->CollectColumns(out);
  for (const auto& e : op.exprs) e->CollectColumns(out);
  for (const auto& agg : op.aggregates) {
    if (agg.arg != nullptr) agg.arg->CollectColumns(out);
  }
  for (size_t c : op.key_columns) out->push_back(c);
}

/// Rewrites all column references of `op` through `mapping` (identity for
/// indices beyond the mapping).
void RemapOp(Op* op, const std::vector<size_t>& mapping) {
  auto remap = [&](size_t c) { return c < mapping.size() ? mapping[c] : c; };
  op->from_column = remap(op->from_column);
  op->origin_column = remap(op->origin_column);
  op->into_column = remap(op->into_column);
  if (op->predicate != nullptr) op->predicate->RemapColumns(mapping);
  for (auto& e : op->exprs) e->RemapColumns(mapping);
  for (auto& agg : op->aggregates) {
    if (agg.arg != nullptr) agg.arg->RemapColumns(mapping);
  }
  for (size_t& c : op->key_columns) c = remap(c);
}

ExprPtr AndPredicates(ExprPtr a, ExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  return Expr::Binary(ir::BinOp::kAnd, std::move(a), std::move(b));
}

// ------------------------------------------------------- FilterPushIntoMatch

void FilterPushIntoMatch(Plan* plan) {
  // producer_of[c] = op index that appended column c in the current
  // "epoch" (reset at row reshapes, across which pushes are unsound).
  std::vector<std::optional<size_t>> producer_of;
  for (size_t i = 0; i < plan->ops.size(); ++i) {
    Op& op = plan->ops[i];
    if (ReshapesRow(op)) {
      producer_of.assign(op.kind == OpKind::kProject
                             ? op.exprs.size()
                             : op.exprs.size() + op.aggregates.size(),
                         std::nullopt);
      continue;
    }
    if (AppendsColumn(op)) {
      producer_of.push_back(i);
      continue;
    }
    if (op.kind != OpKind::kSelect) continue;
    std::vector<size_t> refs;
    op.exprs[0]->CollectColumns(&refs);
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    if (refs.size() != 1 || refs[0] >= producer_of.size() ||
        !producer_of[refs[0]].has_value()) {
      continue;
    }
    Op& producer = plan->ops[*producer_of[refs[0]]];
    producer.predicate =
        AndPredicates(std::move(producer.predicate), std::move(op.exprs[0]));
    plan->ops.erase(plan->ops.begin() + i);
    --i;
    // producer_of entries index ops before i only; erasing op i (which
    // appended nothing) leaves them valid.
  }
}

// ----------------------------------------------------------------- IndexScan

/// Scans with a predicate pinning the vertex id become oid-index lookups
/// (the point-query fast path every graph database relies on; naive
/// executors that lack it pay a full label scan per lookup).
void IndexScan(Plan* plan) {
  size_t width = 0;
  for (Op& op : plan->ops) {
    const size_t col = width;
    if (ReshapesRow(op)) {
      width = op.kind == OpKind::kProject
                  ? op.exprs.size()
                  : op.exprs.size() + op.aggregates.size();
      continue;
    }
    if (AppendsColumn(op)) ++width;
    if (op.kind != OpKind::kScan || op.predicate == nullptr ||
        op.id_lookup != nullptr) {
      continue;
    }
    ExprPtr value;
    if (op.predicate->FindIdEquality(col, &value)) {
      op.id_lookup = std::move(value);
      // The lookup guarantees the consumed conjunct; keep only the rest
      // (usually nothing — point lookups then skip predicate evaluation
      // entirely, the dominant per-row cost of `(v:L {id: $0})` scans).
      op.predicate = op.predicate->WithoutIdEquality(col);
    }
  }
}

// ----------------------------------------------------------- EdgeVertexFusion

void EdgeVertexFusion(Plan* plan) {
  for (size_t i = 0; i + 1 < plan->ops.size(); ++i) {
    // Recompute widths each round (the vector mutates).
    std::vector<size_t> width_before(plan->ops.size() + 1, 0);
    size_t width = 0;
    for (size_t k = 0; k < plan->ops.size(); ++k) {
      width_before[k] = width;
      if (ReshapesRow(plan->ops[k])) {
        width = plan->ops[k].kind == OpKind::kProject
                    ? plan->ops[k].exprs.size()
                    : plan->ops[k].exprs.size() +
                          plan->ops[k].aggregates.size();
      } else if (AppendsColumn(plan->ops[k])) {
        ++width;
      }
    }
    width_before[plan->ops.size()] = width;

    Op& edge_op = plan->ops[i];
    Op& vertex_op = plan->ops[i + 1];
    if (edge_op.kind != OpKind::kExpandEdge ||
        vertex_op.kind != OpKind::kGetVertex) {
      continue;
    }
    const size_t edge_col = width_before[i];
    const size_t vertex_col = edge_col + 1;
    if (!edge_op.alias.empty() || edge_op.predicate != nullptr) continue;
    if (vertex_op.from_column != edge_col ||
        vertex_op.origin_column != edge_op.from_column ||
        vertex_op.dir != Direction::kBoth) {
      continue;
    }
    // The edge column must be dead beyond the GET_VERTEX (within this
    // reshape epoch; later epochs cannot see it).
    bool referenced = false;
    for (size_t k = i + 2; k < plan->ops.size() && !ReshapesRow(plan->ops[k]);
         ++k) {
      std::vector<size_t> refs;
      CollectOpRefs(plan->ops[k], &refs);
      if (std::find(refs.begin(), refs.end(), edge_col) != refs.end()) {
        referenced = true;
        break;
      }
    }
    // A reshape op itself may reference the edge column.
    for (size_t k = i + 2; k < plan->ops.size(); ++k) {
      if (!ReshapesRow(plan->ops[k])) continue;
      std::vector<size_t> refs;
      CollectOpRefs(plan->ops[k], &refs);
      if (std::find(refs.begin(), refs.end(), edge_col) != refs.end()) {
        referenced = true;
      }
      break;
    }
    if (referenced) continue;

    // Fuse.
    Op fused;
    fused.kind = OpKind::kExpand;
    fused.from_column = edge_op.from_column;
    fused.elabel = edge_op.elabel;
    fused.dir = edge_op.dir;
    fused.label = vertex_op.label;
    fused.alias = vertex_op.alias;
    fused.predicate = std::move(vertex_op.predicate);

    // Columns shift: edge_col disappears, vertex_col becomes edge_col,
    // and every column created later in this epoch slides down by one.
    size_t epoch_end = plan->ops.size();
    for (size_t k = i + 2; k < plan->ops.size(); ++k) {
      if (ReshapesRow(plan->ops[k])) {
        epoch_end = k;
        break;
      }
    }
    const size_t old_width = width_before[epoch_end];
    std::vector<size_t> mapping(old_width);
    for (size_t c = 0; c < old_width; ++c) {
      mapping[c] = c < edge_col ? c : (c == vertex_col ? edge_col : c - 1);
    }
    if (fused.predicate != nullptr) fused.predicate->RemapColumns(mapping);

    // Does any reshape follow? If not, the final schema loses a column.
    bool reshape_later = false;
    for (size_t k = i + 2; k < plan->ops.size(); ++k) {
      reshape_later |= ReshapesRow(plan->ops[k]);
    }
    plan->ops[i] = std::move(fused);
    plan->ops.erase(plan->ops.begin() + i + 1);
    for (size_t k = i + 1; k < plan->ops.size(); ++k) {
      if (ReshapesRow(plan->ops[k])) {
        RemapOp(&plan->ops[k], mapping);
        break;
      }
      RemapOp(&plan->ops[k], mapping);
    }
    if (!reshape_later && edge_col < plan->columns.size()) {
      plan->columns.erase(plan->columns.begin() + edge_col);
    }
    --i;  // Re-examine from the fused position.
  }
}

// -------------------------------------------------------------- LimitPushdown

void LimitPushdown(Plan* plan) {
  for (size_t i = 0; i + 1 < plan->ops.size(); ++i) {
    if (plan->ops[i].kind == OpKind::kOrder &&
        plan->ops[i + 1].kind == OpKind::kLimit) {
      Op& order = plan->ops[i];
      order.limit = std::min(order.limit, plan->ops[i + 1].limit);
      plan->ops.erase(plan->ops.begin() + i + 1);
    }
  }
}

// ------------------------------------------------------------------------ CBO

/// A MATCH block lifted into a small pattern graph for re-planning.
struct PatternVertex {
  size_t old_column;
  label_t label = kInvalidLabel;
  ExprPtr predicate;  // References old_column.
  std::string alias;
};

struct PatternEdge {
  size_t a;  // Pattern-vertex indices.
  size_t b;
  label_t elabel;
  Direction dir;          // Orientation a -> b as written.
  size_t old_edge_column;  // kNoCol when the edge was an EXPAND_INTO.
  static constexpr size_t kNoCol = static_cast<size_t>(-1);
};

struct PatternBlock {
  size_t begin_op;  // Index of the SCAN.
  size_t end_op;    // One past the last block op.
  size_t base_width;
  std::vector<PatternVertex> vertices;
  std::vector<PatternEdge> edges;
  std::vector<ExprPtr> residual_selects;  // Multi-column filters.
};

double Selectivity(const Expr* pred, label_t label, const Catalog& catalog) {
  if (pred == nullptr) return 1.0;
  // Pushed pattern predicates are dominated by equality lookups in the
  // reproduced workloads, so price any predicate as an id-grade filter:
  // 1/|V(label)| of the rows survive (GLogue would refine this with
  // per-pattern frequencies).
  const size_t count = label == kInvalidLabel
                           ? 1000000
                           : std::max<size_t>(catalog.VertexCount(label), 1);
  return 1.0 / static_cast<double>(count);
}

/// Extracts a reorderable pattern block starting at `scan_index`, or
/// nullopt when the block uses features reordering cannot preserve
/// (named edges, edge predicates, mid-block scans).
std::optional<PatternBlock> ExtractBlock(const Plan& plan, size_t scan_index,
                                         size_t base_width) {
  PatternBlock block;
  block.begin_op = scan_index;
  block.base_width = base_width;
  const Op& scan = plan.ops[scan_index];
  FLEX_CHECK(scan.kind == OpKind::kScan);

  std::vector<size_t> col_to_vertex;  // old column -> pattern vertex idx.
  col_to_vertex.resize(base_width, static_cast<size_t>(-1));
  auto add_vertex = [&](size_t column, label_t label, const ExprPtr& pred,
                        const std::string& alias) {
    col_to_vertex.resize(std::max(col_to_vertex.size(), column + 1),
                         static_cast<size_t>(-1));
    col_to_vertex[column] = block.vertices.size();
    block.vertices.push_back(
        {column, label, pred ? pred->Clone() : nullptr, alias});
  };
  add_vertex(base_width, scan.label, scan.predicate, scan.alias);

  size_t width = base_width + 1;
  size_t i = scan_index + 1;
  for (; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    if (op.kind == OpKind::kExpandEdge) {
      // Must be anonymous, predicate-free and immediately resolved by a
      // GET_VERTEX of the fresh edge.
      if (!op.alias.empty() || op.predicate != nullptr) return std::nullopt;
      if (i + 1 >= plan.ops.size() ||
          plan.ops[i + 1].kind != OpKind::kGetVertex) {
        return std::nullopt;
      }
      const Op& get = plan.ops[i + 1];
      if (get.from_column != width || get.origin_column != op.from_column ||
          get.dir != Direction::kBoth) {
        return std::nullopt;
      }
      if (op.from_column >= col_to_vertex.size() ||
          col_to_vertex[op.from_column] == static_cast<size_t>(-1)) {
        return std::nullopt;  // Expanding from a pre-block column.
      }
      const size_t edge_col = width;
      const size_t vertex_col = width + 1;
      const size_t a = col_to_vertex[op.from_column];
      add_vertex(vertex_col, get.label, get.predicate, get.alias);
      block.edges.push_back({a, block.vertices.size() - 1, op.elabel, op.dir,
                             edge_col});
      width += 2;
      ++i;  // Consume the GET_VERTEX too.
      continue;
    }
    if (op.kind == OpKind::kExpand) {
      if (op.from_column >= col_to_vertex.size() ||
          col_to_vertex[op.from_column] == static_cast<size_t>(-1)) {
        return std::nullopt;
      }
      const size_t a = col_to_vertex[op.from_column];
      add_vertex(width, op.label, op.predicate, op.alias);
      block.edges.push_back({a, block.vertices.size() - 1, op.elabel, op.dir,
                             PatternEdge::kNoCol});
      ++width;
      continue;
    }
    if (op.kind == OpKind::kExpandInto) {
      if (op.from_column >= col_to_vertex.size() ||
          op.into_column >= col_to_vertex.size()) {
        return std::nullopt;
      }
      const size_t a = col_to_vertex[op.from_column];
      const size_t b = col_to_vertex[op.into_column];
      if (a == static_cast<size_t>(-1) || b == static_cast<size_t>(-1)) {
        return std::nullopt;
      }
      block.edges.push_back({a, b, op.elabel, op.dir, PatternEdge::kNoCol});
      continue;
    }
    if (op.kind == OpKind::kSelect) {
      std::vector<size_t> refs;
      op.exprs[0]->CollectColumns(&refs);
      std::sort(refs.begin(), refs.end());
      refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
      if (refs.size() == 1 && refs[0] < col_to_vertex.size() &&
          col_to_vertex[refs[0]] != static_cast<size_t>(-1)) {
        auto& vertex = block.vertices[col_to_vertex[refs[0]]];
        vertex.predicate = AndPredicates(std::move(vertex.predicate),
                                         op.exprs[0]->Clone());
      } else {
        block.residual_selects.push_back(op.exprs[0]->Clone());
      }
      continue;
    }
    break;  // End of pattern block.
  }
  block.end_op = i;
  if (block.vertices.size() < 3 || block.base_width != 0) {
    // Re-planning pays off for 3+ vertex patterns; blocks that extend an
    // existing row would need join-order reasoning across the boundary.
    return std::nullopt;
  }
  return block;
}

/// Emits the block in greedy lowest-cardinality order. Returns the ops and
/// the old-column -> new-column mapping.
void ReplanBlock(const PatternBlock& block, const Catalog& catalog,
                 std::vector<Op>* out_ops, std::vector<size_t>* mapping,
                 size_t* new_width) {
  const size_t nv = block.vertices.size();
  // Pick the start: smallest estimated scan output.
  size_t start = 0;
  double best = -1.0;
  for (size_t v = 0; v < nv; ++v) {
    const auto& pv = block.vertices[v];
    double rows = pv.label == kInvalidLabel
                      ? 1e9
                      : static_cast<double>(catalog.VertexCount(pv.label));
    if (pv.predicate != nullptr) {
      rows *= Selectivity(pv.predicate.get(), pv.label, catalog);
    }
    if (best < 0.0 || rows < best) {
      best = rows;
      start = v;
    }
  }

  std::vector<bool> placed(nv, false);
  std::vector<bool> edge_done(block.edges.size(), false);
  std::vector<size_t> vertex_new_col(nv, 0);

  ir::PlanBuilder builder;
  // Old columns that were edges map to fresh anonymous edge columns; we
  // accumulate the mapping as we emit.
  const size_t old_width_end =
      block.base_width + nv +
      static_cast<size_t>(std::count_if(
          block.edges.begin(), block.edges.end(), [](const PatternEdge& e) {
            return e.old_edge_column != PatternEdge::kNoCol;
          }));
  mapping->assign(old_width_end, 0);

  auto emit_vertex_pred = [&](const PatternVertex& pv, size_t new_col) {
    if (pv.predicate == nullptr) return ExprPtr(nullptr);
    ExprPtr pred = pv.predicate->Clone();
    std::vector<size_t> remap(pv.old_column + 1);
    for (size_t c = 0; c <= pv.old_column; ++c) remap[c] = c;
    remap[pv.old_column] = new_col;
    pred->RemapColumns(remap);
    return pred;
  };

  const auto& start_v = block.vertices[start];
  const size_t start_col = builder.Scan(start_v.alias, start_v.label,
                                        emit_vertex_pred(start_v, 0));
  vertex_new_col[start] = start_col;
  (*mapping)[start_v.old_column] = start_col;
  placed[start] = true;
  double est = std::max(best, 1.0);

  for (;;) {
    // First close any cycle edges whose endpoints are both placed.
    bool closed = true;
    while (closed) {
      closed = false;
      for (size_t e = 0; e < block.edges.size(); ++e) {
        if (edge_done[e]) continue;
        const PatternEdge& pe = block.edges[e];
        if (placed[pe.a] && placed[pe.b]) {
          builder.ExpandInto(vertex_new_col[pe.a], vertex_new_col[pe.b],
                             pe.elabel, pe.dir);
          if (pe.old_edge_column != PatternEdge::kNoCol) {
            // The old edge column vanishes; park it on the new from-col
            // (it is verified unreferenced before CBO runs).
            (*mapping)[pe.old_edge_column] = vertex_new_col[pe.a];
          }
          edge_done[e] = true;
          closed = true;
        }
      }
    }
    // Then pick the cheapest frontier expansion.
    size_t best_edge = block.edges.size();
    bool from_a = true;
    double best_cost = -1.0;
    for (size_t e = 0; e < block.edges.size(); ++e) {
      if (edge_done[e]) continue;
      const PatternEdge& pe = block.edges[e];
      if (placed[pe.a] == placed[pe.b]) continue;  // Frontier edges only.
      const bool a_placed = placed[pe.a];
      const size_t target = a_placed ? pe.b : pe.a;
      Direction dir = pe.dir;
      if (!a_placed) {
        dir = dir == Direction::kOut
                  ? Direction::kIn
                  : (dir == Direction::kIn ? Direction::kOut
                                           : Direction::kBoth);
      }
      double cost = est * std::max(catalog.AvgFanout(pe.elabel, dir), 1e-3);
      const auto& tv = block.vertices[target];
      if (tv.predicate != nullptr) {
        cost *= Selectivity(tv.predicate.get(), tv.label, catalog);
      }
      if (best_cost < 0.0 || cost < best_cost) {
        best_cost = cost;
        best_edge = e;
        from_a = a_placed;
      }
    }
    if (best_edge == block.edges.size()) break;  // Done (or disconnected).
    const PatternEdge& pe = block.edges[best_edge];
    const size_t src = from_a ? pe.a : pe.b;
    const size_t dst = from_a ? pe.b : pe.a;
    Direction dir = pe.dir;
    if (!from_a) {
      dir = dir == Direction::kOut
                ? Direction::kIn
                : (dir == Direction::kIn ? Direction::kOut : Direction::kBoth);
    }
    const auto& tv = block.vertices[dst];
    const size_t edge_col = builder.ExpandEdge(vertex_new_col[src], pe.elabel,
                                               dir, "");
    const size_t new_col =
        builder.GetVertex(edge_col, vertex_new_col[src], tv.alias, tv.label,
                          emit_vertex_pred(tv, edge_col + 1));
    vertex_new_col[dst] = new_col;
    (*mapping)[tv.old_column] = new_col;
    if (pe.old_edge_column != PatternEdge::kNoCol) {
      (*mapping)[pe.old_edge_column] = edge_col;
    }
    placed[dst] = true;
    edge_done[best_edge] = true;
    est = std::max(best_cost, 1.0);
  }

  for (const ExprPtr& residual : block.residual_selects) {
    ExprPtr pred = residual->Clone();
    pred->RemapColumns(*mapping);
    builder.Select(std::move(pred));
  }
  Plan replanned = builder.Build();
  *out_ops = std::move(replanned.ops);
  *new_width = replanned.columns.size();
}

void RunCbo(Plan* plan, const Catalog& catalog) {
  if (plan->ops.empty() || plan->ops[0].kind != OpKind::kScan) return;
  auto block = ExtractBlock(*plan, 0, 0);
  if (!block.has_value()) return;

  // Bail if anything after the block references an (anonymous) edge column.
  std::vector<bool> is_edge_col;
  {
    size_t width = 1;  // Scan column.
    is_edge_col.assign(1, false);
    for (size_t i = block->begin_op + 1; i < block->end_op; ++i) {
      const Op& op = plan->ops[i];
      if (op.kind == OpKind::kExpandEdge) {
        is_edge_col.push_back(true);
        is_edge_col.push_back(false);
        width += 2;
        ++i;  // The paired GET_VERTEX.
      } else if (op.kind == OpKind::kExpand) {
        is_edge_col.push_back(false);
        ++width;
      }
    }
    (void)width;
  }
  for (size_t k = block->end_op; k < plan->ops.size(); ++k) {
    std::vector<size_t> refs;
    CollectOpRefs(plan->ops[k], &refs);
    for (size_t c : refs) {
      if (c < is_edge_col.size() && is_edge_col[c]) return;
    }
    if (ReshapesRow(plan->ops[k])) break;
  }

  std::vector<Op> new_block_ops;
  std::vector<size_t> mapping;
  size_t new_width = 0;
  ReplanBlock(*block, catalog, &new_block_ops, &mapping, &new_width);

  // Splice: new block ops + remapped tail.
  std::vector<Op> ops;
  ops.reserve(new_block_ops.size() + plan->ops.size() - block->end_op);
  for (Op& op : new_block_ops) ops.push_back(std::move(op));
  bool reshaped = false;
  for (size_t k = block->end_op; k < plan->ops.size(); ++k) {
    Op op = std::move(plan->ops[k]);
    if (!reshaped) {
      RemapOp(&op, mapping);
      if (ReshapesRow(op)) reshaped = true;
    }
    ops.push_back(std::move(op));
  }
  if (!reshaped) {
    // Final schema permutes with the columns.
    std::vector<std::string> columns(new_width);
    for (size_t old_c = 0; old_c < mapping.size(); ++old_c) {
      if (old_c < plan->columns.size() && mapping[old_c] < columns.size() &&
          !plan->columns[old_c].empty()) {
        columns[mapping[old_c]] = plan->columns[old_c];
      }
    }
    plan->columns = std::move(columns);
  }
  plan->ops = std::move(ops);
}

// -------------------------------------------------------------- FusePipelines

/// Rewrites predicated SCAN / EXPAND ops into fused batch passes. Runs
/// after every other pass (FilterPushIntoMatch has already merged adjacent
/// SELECTs into producer predicates, respecting reshape barriers), so
/// fusion never crosses ORDER / GROUP / DEDUP by construction and no
/// earlier pass ever sees the fused kinds.
void FusePipelines(Plan* plan, const GraphSchema& schema) {
  // Leading scan: fuse when at least one conjunct is storage-pushable.
  // Index-pinned scans stay kScan (one oid lookup beats any scan loop).
  if (!plan->ops.empty()) {
    Op& scan = plan->ops[0];
    if (scan.kind == OpKind::kScan && scan.label != kInvalidLabel &&
        scan.id_lookup == nullptr && scan.predicate != nullptr) {
      const auto split =
          ir::SplitPushdown(*scan.predicate, 0, scan.label, schema, nullptr);
      if (!split.pushed.empty()) scan.kind = OpKind::kFusedScan;
    }
  }

  // Fold an immediately-following PROJECT whose expressions read only the
  // scan column into the fused scan: output columns are then built
  // directly from natively gathered properties, never materializing the
  // vertex column.
  if (plan->ops.size() >= 2 && plan->ops[0].kind == OpKind::kFusedScan &&
      plan->ops[1].kind == OpKind::kProject) {
    bool only_scan_column = true;
    for (const auto& e : plan->ops[1].exprs) {
      std::vector<size_t> refs;
      e->CollectColumns(&refs);
      for (size_t c : refs) only_scan_column &= c == 0;
    }
    if (only_scan_column) {
      plan->ops[0].exprs = std::move(plan->ops[1].exprs);
      plan->ops[0].names = std::move(plan->ops[1].names);
      plan->ops.erase(plan->ops.begin() + 1);
    }
  }

  // Predicated expands: fuse when the neighbor predicate has a pushable
  // conjunct against the expected destination label.
  size_t width = 0;
  for (Op& op : plan->ops) {
    const size_t col = width;
    if (op.kind == OpKind::kFusedScan) {
      width = op.exprs.empty() ? width + 1 : op.exprs.size();
    } else if (ReshapesRow(op)) {
      width = op.kind == OpKind::kProject
                  ? op.exprs.size()
                  : op.exprs.size() + op.aggregates.size();
    } else if (AppendsColumn(op)) {
      ++width;
    }
    if (op.kind == OpKind::kExpand && op.predicate != nullptr &&
        op.label != kInvalidLabel) {
      const auto split =
          ir::SplitPushdown(*op.predicate, col, op.label, schema, nullptr);
      if (!split.pushed.empty()) op.kind = OpKind::kFusedExpand;
    }
  }

  // Fold an immediately-following PROJECT into the expansion. PROJECT sees
  // exactly the extended-row layout the expansion flushes, so evaluating
  // its expressions at flush time is unconditionally equivalent — and the
  // intermediate (source columns + neighbor) batch never rematerializes
  // through a separate pass. Applies to plain EXPANDs too: the fused
  // batched path degrades gracefully to an unfiltered visit when there is
  // no pushable conjunct.
  for (size_t i = 0; i + 1 < plan->ops.size(); ++i) {
    Op& expand = plan->ops[i];
    Op& project = plan->ops[i + 1];
    if ((expand.kind != OpKind::kExpand &&
         expand.kind != OpKind::kFusedExpand) ||
        !expand.exprs.empty() || project.kind != OpKind::kProject ||
        project.exprs.empty()) {
      continue;
    }
    expand.kind = OpKind::kFusedExpand;
    expand.exprs = std::move(project.exprs);
    expand.names = std::move(project.names);
    plan->ops.erase(plan->ops.begin() + i + 1);
  }
}

// --------------------------------------------------------- EstimatePeakRows

/// Annotates the plan with the catalog's estimate of the largest
/// intermediate row count any operator produces: scans contribute label
/// cardinalities (1 for oid lookups), expansions multiply by average
/// fan-out, predicates by the default selectivity, and a LIMIT or top-k
/// ORDER caps the rows downstream of it. EXPLAIN renders the estimate.
void EstimatePeakRows(Plan* plan, const Catalog& catalog) {
  // Anything we cannot price (unknown labels) counts as "large".
  constexpr double kUnknown = 1e12;
  double rows = 1.0;
  double peak = 0.0;
  for (const Op& op : plan->ops) {
    switch (op.kind) {
      case OpKind::kScan:
      case OpKind::kFusedScan: {
        double base;
        if (op.id_lookup != nullptr) {
          base = Catalog::kIdSelectivityFloor;
        } else if (op.label == kInvalidLabel) {
          base = kUnknown;
        } else {
          base = static_cast<double>(catalog.VertexCount(op.label));
          if (op.predicate != nullptr) base *= Catalog::kDefaultSelectivity;
        }
        // A mid-plan scan restarts a MATCH: cartesian with the prefix.
        rows *= std::max(base, 1.0);
        break;
      }
      case OpKind::kExpandEdge:
      case OpKind::kExpand:
      case OpKind::kFusedExpand: {
        rows *= op.elabel == kInvalidLabel ? kUnknown
                                           : catalog.AvgFanout(op.elabel,
                                                               op.dir);
        if (op.predicate != nullptr) rows *= Catalog::kDefaultSelectivity;
        break;
      }
      case OpKind::kExpandVar: {
        const double fan = op.elabel == kInvalidLabel
                               ? kUnknown
                               : catalog.AvgFanout(op.elabel, op.dir);
        double total = op.min_hops == 0 ? 1.0 : 0.0;
        double level = 1.0;
        for (size_t h = 1; h <= op.max_hops && level < kUnknown; ++h) {
          level *= fan;
          if (h >= op.min_hops) total += level;
        }
        rows *= total;
        break;
      }
      case OpKind::kGetVertex:
        if (op.predicate != nullptr) rows *= Catalog::kDefaultSelectivity;
        break;
      case OpKind::kExpandInto:
      case OpKind::kSelect:
        rows *= Catalog::kDefaultSelectivity;
        break;
      case OpKind::kOrder:
      case OpKind::kLimit:
        // kNoLimit converts to ~1.8e19, so an unlimited ORDER keeps `rows`.
        rows = std::min(rows, static_cast<double>(op.limit));
        break;
      default:
        // PROJECT / GROUP / DEDUP never grow their input; `rows`
        // stays an upper bound and `peak` already covers the input side.
        break;
    }
    peak = std::max(peak, rows);
  }
  plan->estimated_peak_rows = peak;
}

}  // namespace

Plan Optimize(const Plan& logical, const Catalog* catalog,
              const OptimizerOptions& options, const GraphSchema* schema) {
  Plan plan = logical.Clone();
  if (options.filter_push_into_match) FilterPushIntoMatch(&plan);
  if (options.cbo && catalog != nullptr) RunCbo(&plan, *catalog);
  if (options.edge_vertex_fusion) EdgeVertexFusion(&plan);
  if (options.index_scan) IndexScan(&plan);
  if (options.limit_pushdown) LimitPushdown(&plan);
  if (options.fusion && schema != nullptr) FusePipelines(&plan, *schema);
  if (catalog != nullptr) EstimatePeakRows(&plan, *catalog);
  return plan;
}

}  // namespace flex::optimizer
