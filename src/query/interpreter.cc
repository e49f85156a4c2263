#include "query/interpreter.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::query {

namespace {

using ir::Batch;
using ir::Column;
using ir::Entry;
using ir::Row;

bool RowKeyEquals(const std::vector<Entry>& a, const std::vector<Entry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

uint64_t RowKeyHash(const std::vector<Entry>& key) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const Entry& e : key) {
    h ^= ir::EntryHash(e) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

/// Aggregate accumulator for one group. SUM/AVG keep integer and floating
/// contributions separate: int64 inputs accumulate exactly in `int_sum`
/// (folding them through a double loses exactness above 2^53), doubles go
/// to `double_sum`, and the two merge only at Finalize. An int64 input
/// that would overflow `int_sum` widens into `double_sum` instead.
struct Accumulator {
  size_t count = 0;
  int64_t int_sum = 0;
  double double_sum = 0.0;
  bool saw_double = false;
  bool any = false;
  PropertyValue min;
  PropertyValue max;
  std::vector<PropertyValue> collected;
  /// DISTINCT bookkeeping: hash buckets of values already seen.
  std::unordered_map<uint64_t, std::vector<PropertyValue>> seen;
};

void Accumulate(const ir::AggSpec& spec, const PropertyValue& value,
                Accumulator* acc) {
  if (spec.distinct) {
    auto& bucket = acc->seen[value.Hash()];
    for (const PropertyValue& existing : bucket) {
      if (existing == value) return;  // Duplicate: no contribution.
    }
    bucket.push_back(value);
  }
  switch (spec.fn) {
    case ir::AggSpec::Fn::kCount:
      ++acc->count;
      break;
    case ir::AggSpec::Fn::kSum:
    case ir::AggSpec::Fn::kAvg:
      // Null, string and bool inputs add nothing but still count.
      if (value.type() == PropertyType::kInt64) {
        int64_t sum = 0;
        if (__builtin_add_overflow(acc->int_sum, value.AsInt64(), &sum)) {
          acc->double_sum += static_cast<double>(value.AsInt64());
          acc->saw_double = true;
        } else {
          acc->int_sum = sum;
        }
      } else if (value.type() == PropertyType::kDouble) {
        acc->double_sum += value.AsDouble();
        acc->saw_double = true;
      }
      ++acc->count;
      break;
    case ir::AggSpec::Fn::kMin:
      if (!acc->any || value.Compare(acc->min) < 0) acc->min = value;
      acc->any = true;
      break;
    case ir::AggSpec::Fn::kMax:
      if (!acc->any || value.Compare(acc->max) > 0) acc->max = value;
      acc->any = true;
      break;
    case ir::AggSpec::Fn::kCollect:
      acc->collected.push_back(value);
      break;
  }
}

PropertyValue Finalize(const ir::AggSpec& spec, const Accumulator& acc) {
  switch (spec.fn) {
    case ir::AggSpec::Fn::kCount:
      return PropertyValue(static_cast<int64_t>(acc.count));
    case ir::AggSpec::Fn::kSum: {
      // All-integer sums stay exact end to end.
      if (!acc.saw_double) return PropertyValue(acc.int_sum);
      const double s = acc.double_sum + static_cast<double>(acc.int_sum);
      // Mixed sums render as int64 when integral and in range.
      if (FitsInt64(s) && s == std::trunc(s)) {
        return PropertyValue(static_cast<int64_t>(s));
      }
      return PropertyValue(s);
    }
    case ir::AggSpec::Fn::kMin:
      return acc.any ? acc.min : PropertyValue();
    case ir::AggSpec::Fn::kMax:
      return acc.any ? acc.max : PropertyValue();
    case ir::AggSpec::Fn::kAvg:
      return acc.count == 0
                 ? PropertyValue()
                 : PropertyValue(
                       (acc.double_sum + static_cast<double>(acc.int_sum)) /
                       acc.count);
    case ir::AggSpec::Fn::kCollect:
      // Collections render as their size (full list support would need a
      // composite PropertyValue; none of the reproduced workloads needs
      // the elements themselves).
      return PropertyValue(static_cast<int64_t>(acc.collected.size()));
  }
  return PropertyValue();
}

/// Accounts one batch leaving an operator.
void NoteBatch(const Batch& b) {
  FLEX_COUNTER_INC(metrics::kQueryBatchesTotal);
  FLEX_HISTOGRAM_OBSERVE_US(metrics::kQueryRowsPerBatch,
                            static_cast<uint64_t>(b.NumSelected()));
}

/// Filter core of the columnar path: evaluates `predicate` over the
/// current selection and keeps only the passing rows — selection bits
/// flip, no tuple is copied.
void RefineSelection(const ir::Expr& predicate, const grin::GrinGraph& g,
                     const std::vector<PropertyValue>& params, Batch* batch) {
  if (batch->NumSelected() == 0) return;
  std::vector<char> keep;
  predicate.EvalBoolBatch(*batch, batch->selection(), g, params, &keep);
  std::vector<uint32_t> sel;
  sel.reserve(batch->NumSelected());
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i]) sel.push_back(batch->selection()[i]);
  }
  batch->SetSelection(std::move(sel));
}

/// Projection over the selected rows of `in`: one output column per
/// expression, column references gathered (and compacted) column-wise,
/// everything else evaluated batch-wise.
Batch ProjectBatch(const Batch& in, const std::vector<ir::ExprPtr>& exprs,
                   const grin::GrinGraph& g,
                   const std::vector<PropertyValue>& params) {
  Batch out;
  out.order_key = in.order_key;
  std::vector<PropertyValue> vals;
  for (const auto& expr : exprs) {
    Column col;
    if (expr->kind() == ir::ExprKind::kColumn) {
      col.GatherFrom(in.column(expr->column()), in.selection());
    } else {
      expr->EvalBatch(in, in.selection(), g, params, &vals);
      col.Reserve(vals.size());
      for (PropertyValue& v : vals) col.AppendValue(std::move(v));
    }
    out.AddColumn(std::move(col));
  }
  out.SelectAll();
  return out;
}

/// Output builder for the appending operators (EXPAND, EXPAND_EDGE, GETV):
/// collects (source row, appended entry) pairs and flushes them as compact
/// batches — source columns gathered column-wise, the new column appended,
/// the operator predicate refining each flushed batch's selection. Output
/// batches inherit the source batch's order_key; emission order breaks
/// ties, so exchange ordering stays exact.
class AppendBuilder {
 public:
  AppendBuilder(const Batch* src, const ir::Op* op, const grin::GrinGraph* g,
                const std::vector<PropertyValue>* params,
                std::vector<Batch>* out)
      : src_(src), op_(op), g_(g), params_(params), out_(out) {}

  /// Fused expansion: the pushed conjuncts already ran inside the storage
  /// visit, so flushes refine with this residual list instead of the full
  /// operator predicate.
  void SetResidual(const std::vector<const ir::Expr*>* residual) {
    residual_ = residual;
  }

  void KeepVertex(uint32_t src_row, vid_t v) {
    gather_.push_back(src_row);
    appended_.AppendVertex(v);
    if (gather_.size() >= ir::kBatchSize) Flush();
  }

  void KeepEdge(uint32_t src_row, const ir::EdgeRef& e) {
    gather_.push_back(src_row);
    appended_.AppendEdge(e);
    if (gather_.size() >= ir::kBatchSize) Flush();
  }

  void Flush() {
    if (gather_.empty()) return;
    Batch b;
    b.order_key = src_->order_key;
    for (size_t c = 0; c < src_->num_columns(); ++c) {
      Column col;
      col.GatherFrom(src_->column(c), gather_);
      b.AddColumn(std::move(col));
    }
    b.AddColumn(std::move(appended_));
    b.SelectAll();
    appended_ = Column();
    gather_.clear();
    if (residual_ != nullptr) {
      for (const ir::Expr* conjunct : *residual_) {
        RefineSelection(*conjunct, *g_, *params_, &b);
      }
    } else if (op_->predicate != nullptr) {
      RefineSelection(*op_->predicate, *g_, *params_, &b);
    }
    if (b.NumSelected() == 0) return;
    if (!op_->exprs.empty()) {
      // Folded projection (FUSED_EXPAND): rebuild the output columns from
      // the extended batch — the exact layout PROJECT would have seen —
      // and drop everything the expressions do not reference.
      b = ProjectBatch(b, op_->exprs, *g_, *params_);
    }
    NoteBatch(b);
    out_->push_back(std::move(b));
  }

 private:
  const Batch* src_;
  const ir::Op* op_;
  const grin::GrinGraph* g_;
  const std::vector<PropertyValue>* params_;
  std::vector<Batch>* out_;
  const std::vector<const ir::Expr*>* residual_ = nullptr;
  std::vector<uint32_t> gather_;
  Column appended_;
};

/// Scan visitors. A window's columns are the kept vids (column 0), then
/// one column per natively projected property.
bool KeepScanned(void* raw, vid_t v) {
  (*static_cast<std::vector<Column>*>(raw))[0].AppendVertex(v);
  return true;
}

bool KeepFiltered(void* raw, vid_t v, std::span<const PropertyValue> props) {
  auto& cols = *static_cast<std::vector<Column>*>(raw);
  cols[0].AppendVertex(v);
  for (size_t k = 0; k < props.size(); ++k) cols[k + 1].AppendValue(props[k]);
  return true;
}

}  // namespace

bool Interpreter::IsBlocking(const ir::Op& op) {
  switch (op.kind) {
    case ir::OpKind::kOrder:
    case ir::OpKind::kGroup:
    case ir::OpKind::kLimit:
    case ir::OpKind::kDedup:
      return true;
    default:
      return false;
  }
}

Result<std::vector<Row>> Interpreter::Run(const ir::Plan& plan,
                                          const ExecOptions& opts) const {
  auto batches = RunRangeBatched(plan, 0, plan.ops.size(), {}, opts);
  FLEX_RETURN_NOT_OK(batches.status());
  return ir::BatchesToRows(batches.value());
}

Result<std::vector<Row>> Interpreter::RunTupleAtATime(
    const ir::Plan& plan, const ExecOptions& opts) const {
  std::vector<Row> rows;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    // Operator boundary: the interpreter's cancellation/deadline quantum.
    FLEX_RETURN_NOT_OK(
        CheckRunnable(opts.deadline, opts.cancel, "interpreter"));
    trace::ScopedSpan op_span(opts.trace, ir::OpKindName(plan.ops[i].kind),
                              "operator", opts.trace_parent);
    FLEX_RETURN_NOT_OK(Apply(plan.ops[i], i == 0, &rows, opts, op_span.id()));
  }
  return rows;
}

Result<std::vector<Batch>> Interpreter::RunRangeBatched(
    const ir::Plan& plan, size_t begin, size_t end, std::vector<Batch> input,
    const ExecOptions& opts) const {
  std::vector<Batch> batches = std::move(input);
  for (size_t i = begin; i < end; ++i) {
    FLEX_RETURN_NOT_OK(
        CheckRunnable(opts.deadline, opts.cancel, "interpreter"));
    trace::ScopedSpan op_span(opts.trace, ir::OpKindName(plan.ops[i].kind),
                              "operator", opts.trace_parent);
    FLEX_RETURN_NOT_OK(
        ApplyBatched(plan.ops[i], i == 0, &batches, opts, op_span.id()));
  }
  return batches;
}

Status Interpreter::ColumnarScan(const ir::Op& op, std::vector<Batch>* out,
                                 const ExecOptions& opts,
                                 uint64_t op_span) const {
  const grin::GrinGraph& g = *graph_;
  // Same storage boundary as the reference: one read span and one fault
  // site per scan-operator execution.
  trace::ScopedSpan read_span(opts.trace, "storage.read", "storage", op_span);
  if (FLEX_FAULT_POINT("storage.read")) {
    return Status::DataLoss("storage.read fault injected at scan");
  }
  const bool fused = op.kind == ir::OpKind::kFusedScan;
  // A fused scan pushes the conjuncts the backend can evaluate into its
  // scan loop, with $params bound so the filter holds concrete values.
  // The residual (a plain scan's whole predicate) refines each window's
  // batch.
  ir::PushdownSplit split;
  if (fused && op.predicate != nullptr) {
    split = ir::SplitPushdown(*op.predicate, 0, op.label, g.schema(),
                              &opts.params);
  } else if (op.predicate != nullptr) {
    split.residual.push_back(op.predicate.get());
  }
  // Folded projection (fused scans only): a property the backend can
  // serve from its columns is gathered during the visit into window
  // column 1 + k, and the projection reads it there as a column; anything
  // else (id(), arithmetic, unresolvable names) evaluates at flush time.
  std::vector<size_t> project_cols;
  std::vector<ir::ExprPtr> outputs;
  for (const auto& expr : op.exprs) {
    if (expr->kind() == ir::ExprKind::kProperty && expr->column() == 0) {
      auto col = g.schema().FindVertexProperty(op.label, expr->property());
      if (col.ok()) {
        project_cols.push_back(col.value());
        outputs.push_back(ir::Expr::Column(project_cols.size()));
        continue;
      }
    }
    outputs.push_back(expr->Clone());
  }
  // Scan positions run label-major over the scanned labels.
  std::vector<std::pair<label_t, size_t>> segments;
  size_t total = 0;
  for (size_t l = 0; l < g.schema().vertex_label_num(); ++l) {
    const auto label = static_cast<label_t>(l);
    if (op.label != kInvalidLabel && label != op.label) continue;
    segments.emplace_back(label, g.NumVerticesOfLabel(label));
    total += segments.back().second;
  }

  // Every window comes from a morsel source: the workers' shared one when
  // sharded, a private one otherwise. Each window becomes at most one
  // batch keyed by its first position, so sorting by order_key at the
  // exchange restores global scan order.
  ScanMorselSource own;
  ScanMorselSource* morsels = opts.morsels != nullptr ? opts.morsels : &own;
  for (;;) {
    // Window boundary: the columnar scan's deadline/cancellation quantum.
    FLEX_RETURN_NOT_OK(CheckRunnable(opts.deadline, opts.cancel, "scan"));
    const size_t begin = morsels->Claim();
    if (begin >= total) return Status::OK();
    const size_t end = std::min(begin + ir::kBatchSize, total);
    std::vector<Column> cols(1 + project_cols.size());
    size_t base = 0;
    for (const auto& [label, count] : segments) {
      if (begin < base + count && end > base) {
        const size_t lo = begin > base ? begin - base : 0;
        if (fused) {
          g.VisitVerticesFiltered(label, lo, end - base, split.filter,
                                  project_cols, &KeepFiltered, &cols);
        } else {
          g.VisitVertices(label, lo, end - base, &KeepScanned, &cols);
        }
      }
      base += count;
    }
    Batch b;
    b.order_key = begin;
    for (Column& col : cols) b.AddColumn(std::move(col));
    b.SelectAll();
    for (const ir::Expr* conjunct : split.residual) {
      RefineSelection(*conjunct, g, opts.params, &b);
    }
    if (b.NumSelected() == 0) continue;
    if (!outputs.empty()) b = ProjectBatch(b, outputs, g, opts.params);
    NoteBatch(b);
    out->push_back(std::move(b));
  }
}

Status Interpreter::ApplyBatched(const ir::Op& op, bool leading,
                                 std::vector<Batch>* batches,
                                 const ExecOptions& opts,
                                 uint64_t op_span) const {
  const grin::GrinGraph& g = *graph_;
  // Row bridge: blocking operators, variable-length expansion and index
  // scans reuse the row implementation verbatim — bit-identical results,
  // identical trace children and fault sites.
  auto bridge = [&](std::vector<Batch>* io) -> Status {
    std::vector<Row> rows = ir::BatchesToRows(*io);
    FLEX_RETURN_NOT_OK(Apply(op, leading, &rows, opts, op_span));
    *io = ir::RowsToBatches(rows);
    for (const Batch& b : *io) NoteBatch(b);
    return Status::OK();
  };

  switch (op.kind) {
    case ir::OpKind::kScan:
    case ir::OpKind::kFusedScan: {
      if (!leading) {
        // Cartesian re-scans are rare and never position-sharded; the row
        // implementation handles them (and opens the fused marker span
        // itself).
        return bridge(batches);
      }
      batches->clear();
      if (op.id_lookup != nullptr) {
        // Leading IndexScan, natively columnar: the common interactive
        // shape `(v:Label {id: $0})` resolves to at most one row, so the
        // row bridge's two conversions cost more than the scan itself.
        // Same storage boundary as the reference: one span and one fault
        // site per scan execution.
        trace::ScopedSpan read_span(opts.trace, "storage.read", "storage",
                                    op_span);
        if (FLEX_FAULT_POINT("storage.read")) {
          return Status::DataLoss("storage.read fault injected at scan");
        }
        const Row empty;
        const PropertyValue oid_value =
            op.id_lookup->Eval(empty, g, opts.params);
        if (oid_value.type() != PropertyType::kInt64) return Status::OK();
        Column col;
        auto lookup = [&](label_t label) {
          auto found = g.FindVertex(label, oid_value.AsInt64());
          if (found.ok()) col.AppendVertex(found.value());
        };
        if (op.label == kInvalidLabel) {
          for (size_t l = 0; l < g.schema().vertex_label_num(); ++l) {
            lookup(static_cast<label_t>(l));
          }
        } else {
          lookup(op.label);
        }
        if (col.empty()) return Status::OK();
        Batch b;
        b.AddColumn(std::move(col));
        b.SelectAll();
        if (op.predicate != nullptr) {
          RefineSelection(*op.predicate, g, opts.params, &b);
        }
        if (b.NumSelected() == 0) return Status::OK();
        NoteBatch(b);
        batches->push_back(std::move(b));
        return Status::OK();
      }
      if (op.kind == ir::OpKind::kScan) {
        return ColumnarScan(op, batches, opts, op_span);
      }
      trace::ScopedSpan fused_span(opts.trace, "op.fused_scan", "operator",
                                   op_span);
      FLEX_COUNTER_INC(metrics::kFusedScansTotal);
      return ColumnarScan(op, batches, opts, fused_span.id());
    }

    case ir::OpKind::kFusedExpand: {
      trace::ScopedSpan fused_span(opts.trace, "op.fused_expand", "operator",
                                   op_span);
      FLEX_COUNTER_INC(metrics::kFusedExpandsTotal);
      // One split per operator execution: every input batch has the same
      // width, so the appended column index is fixed.
      ir::PushdownSplit split;
      std::vector<Batch> out;
      bool have_split = false;
      for (Batch& batch : *batches) {
        FLEX_RETURN_NOT_OK(
            CheckRunnable(opts.deadline, opts.cancel, "interpreter"));
        if (!have_split && op.predicate != nullptr) {
          split = ir::SplitPushdown(*op.predicate, batch.num_columns(),
                                    op.label, g.schema(), &opts.params);
          have_split = true;
        }
        AppendBuilder builder(&batch, &op, &g, &opts.params, &out);
        builder.SetResidual(&split.residual);
        const Column& from = batch.column(op.from_column);
        std::vector<uint32_t> vrows;
        std::vector<vid_t> vids;
        vrows.reserve(batch.NumSelected());
        vids.reserve(batch.NumSelected());
        for (uint32_t r : batch.selection()) {
          if (from.IsVertexAt(r)) {
            vrows.push_back(r);
            vids.push_back(from.VertexAt(r));
          }
        }
        struct Ctx {
          AppendBuilder* builder;
          const std::vector<uint32_t>* vrows;
        } ctx{&builder, &vrows};
        // Destination label and pushed conjuncts are checked inside the
        // storage visit; only survivors reach the builder.
        g.GetNeighborsBatch(
            vids, op.dir, op.elabel, op.label, split.filter, {},
            [](void* raw, size_t si, vid_t nbr,
               std::span<const PropertyValue>) -> bool {
              auto* c = static_cast<Ctx*>(raw);
              c->builder->KeepVertex((*c->vrows)[si], nbr);
              return true;
            },
            &ctx);
        builder.Flush();
      }
      *batches = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kExpandEdge:
    case ir::OpKind::kExpand: {
      std::vector<Batch> out;
      for (Batch& batch : *batches) {
        FLEX_RETURN_NOT_OK(
            CheckRunnable(opts.deadline, opts.cancel, "interpreter"));
        AppendBuilder builder(&batch, &op, &g, &opts.params, &out);
        const Column& from = batch.column(op.from_column);
        // Dense source list: one batched adjacency call per input batch
        // instead of one virtual call per (row, direction).
        std::vector<uint32_t> vrows;
        std::vector<vid_t> vids;
        vrows.reserve(batch.NumSelected());
        vids.reserve(batch.NumSelected());
        for (uint32_t r : batch.selection()) {
          if (from.IsVertexAt(r)) {
            vrows.push_back(r);
            vids.push_back(from.VertexAt(r));
          }
        }
        struct Ctx {
          const ir::Op* op;
          const grin::GrinGraph* g;
          AppendBuilder* builder;
          const std::vector<uint32_t>* vrows;
          const std::vector<vid_t>* vids;
        } ctx{&op, &g, &builder, &vrows, &vids};
        if (op.kind == ir::OpKind::kExpandEdge) {
          g.GetNeighborsBatch(
              vids, op.dir, op.elabel,
              [](void* raw, size_t si, Direction dir,
                 const grin::AdjChunk& chunk) -> bool {
                auto* c = static_cast<Ctx*>(raw);
                const uint32_t src_row = (*c->vrows)[si];
                const vid_t origin = (*c->vids)[si];
                for (size_t k = 0; k < chunk.neighbors.size(); ++k) {
                  const vid_t nbr = chunk.neighbors[k];
                  ir::EdgeRef edge;
                  edge.elabel = c->op->elabel;
                  edge.eid = chunk.edge_id(k);
                  edge.src = dir == Direction::kOut ? origin : nbr;
                  edge.dst = dir == Direction::kOut ? nbr : origin;
                  c->builder->KeepEdge(src_row, edge);
                }
                return true;
              },
              &ctx);
        } else {
          g.GetNeighborsBatch(
              vids, op.dir, op.elabel,
              [](void* raw, size_t si, Direction,
                 const grin::AdjChunk& chunk) -> bool {
                auto* c = static_cast<Ctx*>(raw);
                const uint32_t src_row = (*c->vrows)[si];
                for (size_t k = 0; k < chunk.neighbors.size(); ++k) {
                  const vid_t nbr = chunk.neighbors[k];
                  if (c->op->label != kInvalidLabel &&
                      c->g->VertexLabelOf(nbr) != c->op->label) {
                    continue;
                  }
                  c->builder->KeepVertex(src_row, nbr);
                }
                return true;
              },
              &ctx);
        }
        builder.Flush();
      }
      *batches = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kGetVertex: {
      std::vector<Batch> out;
      for (Batch& batch : *batches) {
        FLEX_RETURN_NOT_OK(
            CheckRunnable(opts.deadline, opts.cancel, "interpreter"));
        AppendBuilder builder(&batch, &op, &g, &opts.params, &out);
        const Column& from = batch.column(op.from_column);
        for (uint32_t r : batch.selection()) {
          const ir::EdgeRef* edge = from.EdgeAt(r);
          if (edge == nullptr) continue;
          // dir selects the endpoint exactly as in the row path: kOut ->
          // dst, kIn -> src, kBoth -> the end other than the origin.
          vid_t other;
          if (op.dir == Direction::kOut) {
            other = edge->dst;
          } else if (op.dir == Direction::kIn) {
            other = edge->src;
          } else {
            const Column& origin_col = batch.column(op.origin_column);
            if (!origin_col.IsVertexAt(r)) continue;
            const vid_t origin = origin_col.VertexAt(r);
            other = edge->src == origin ? edge->dst : edge->src;
          }
          if (op.label != kInvalidLabel &&
              g.VertexLabelOf(other) != op.label) {
            continue;
          }
          builder.KeepVertex(r, other);
        }
        builder.Flush();
      }
      *batches = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kExpandVar: {
      // Path enumeration stays row-wise (DFS per start vertex) but runs
      // batch-at-a-time; outputs inherit the input batch's order_key.
      std::vector<Batch> out;
      for (Batch& batch : *batches) {
        FLEX_RETURN_NOT_OK(
            CheckRunnable(opts.deadline, opts.cancel, "interpreter"));
        std::vector<Batch> one;
        one.push_back(std::move(batch));
        std::vector<Row> rows = ir::BatchesToRows(one);
        FLEX_RETURN_NOT_OK(Apply(op, false, &rows, opts, op_span));
        std::vector<Batch> rebuilt = ir::RowsToBatches(rows);
        for (Batch& b : rebuilt) {
          b.order_key = one[0].order_key;
          NoteBatch(b);
          out.push_back(std::move(b));
        }
      }
      *batches = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kExpandInto: {
      for (Batch& batch : *batches) {
        FLEX_RETURN_NOT_OK(
            CheckRunnable(opts.deadline, opts.cancel, "interpreter"));
        const Column& from = batch.column(op.from_column);
        const Column& into = batch.column(op.into_column);
        std::vector<uint32_t> sel;
        sel.reserve(batch.NumSelected());
        for (uint32_t r : batch.selection()) {
          if (!from.IsVertexAt(r) || !into.IsVertexAt(r)) continue;
          bool found = false;
          const vid_t target = into.VertexAt(r);
          grin::ForEachAdj(g, from.VertexAt(r), op.dir, op.elabel,
                           [&](vid_t nbr, double, eid_t) {
                             if (nbr == target) {
                               found = true;
                               return false;  // Early stop.
                             }
                             return true;
                           });
          if (found) sel.push_back(r);
        }
        batch.SetSelection(std::move(sel));
      }
      return Status::OK();
    }

    case ir::OpKind::kSelect: {
      for (Batch& batch : *batches) {
        FLEX_RETURN_NOT_OK(
            CheckRunnable(opts.deadline, opts.cancel, "interpreter"));
        RefineSelection(*op.exprs[0], g, opts.params, &batch);
      }
      return Status::OK();
    }

    case ir::OpKind::kProject: {
      if (op.exprs.empty()) return bridge(batches);
      std::vector<Batch> out;
      out.reserve(batches->size());
      for (Batch& batch : *batches) {
        FLEX_RETURN_NOT_OK(
            CheckRunnable(opts.deadline, opts.cancel, "interpreter"));
        if (batch.NumSelected() == 0) continue;
        Batch projected = ProjectBatch(batch, op.exprs, g, opts.params);
        NoteBatch(projected);
        out.push_back(std::move(projected));
      }
      *batches = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kGroup: {
      // Native columnar GROUP: keys and aggregate arguments evaluate
      // batch-wise (amortizing property access per batch instead of boxed
      // per-row reads) and input rows never materialize. Groups are kept
      // in insertion order, which is exactly the row path's first-seen
      // emission order — including hash-collision groups, which the row
      // path also emits in first-seen order.
      struct Group {
        std::vector<Entry> key;
        std::vector<Accumulator> accs;
      };
      std::vector<Group> groups;
      std::unordered_map<uint64_t, std::vector<size_t>> index;
      size_t input_rows = 0;
      std::vector<std::vector<PropertyValue>> key_vals(op.exprs.size());
      std::vector<std::vector<PropertyValue>> agg_vals(op.aggregates.size());
      for (Batch& batch : *batches) {
        FLEX_RETURN_NOT_OK(
            CheckRunnable(opts.deadline, opts.cancel, "interpreter"));
        if (batch.NumSelected() == 0) continue;
        input_rows += batch.NumSelected();
        const auto& sel = batch.selection();
        for (size_t j = 0; j < op.exprs.size(); ++j) {
          if (op.exprs[j]->kind() != ir::ExprKind::kColumn) {
            op.exprs[j]->EvalBatch(batch, sel, g, opts.params, &key_vals[j]);
          }
        }
        for (size_t a = 0; a < op.aggregates.size(); ++a) {
          if (op.aggregates[a].arg != nullptr) {
            op.aggregates[a].arg->EvalBatch(batch, sel, g, opts.params,
                                            &agg_vals[a]);
          }
        }
        for (size_t i = 0; i < sel.size(); ++i) {
          const uint32_t r = sel[i];
          std::vector<Entry> key;
          key.reserve(op.exprs.size());
          for (size_t j = 0; j < op.exprs.size(); ++j) {
            if (op.exprs[j]->kind() == ir::ExprKind::kColumn) {
              key.push_back(batch.column(op.exprs[j]->column()).EntryAt(r));
            } else {
              key.push_back(std::move(key_vals[j][i]));
            }
          }
          const uint64_t h = RowKeyHash(key);
          auto& bucket = index[h];
          size_t gi = groups.size();
          for (size_t candidate : bucket) {
            if (RowKeyEquals(groups[candidate].key, key)) {
              gi = candidate;
              break;
            }
          }
          if (gi == groups.size()) {
            bucket.push_back(gi);
            groups.push_back({std::move(key), std::vector<Accumulator>(
                                                  op.aggregates.size())});
          }
          for (size_t a = 0; a < op.aggregates.size(); ++a) {
            Accumulate(op.aggregates[a],
                       op.aggregates[a].arg != nullptr ? agg_vals[a][i]
                                                       : PropertyValue(),
                       &groups[gi].accs[a]);
          }
        }
      }
      std::vector<Row> out_rows;
      if (input_rows == 0 && op.exprs.empty()) {
        // Global aggregation over zero rows still yields one row
        // (count() = 0), per Cypher/SQL semantics.
        Row row;
        for (const auto& spec : op.aggregates) {
          row.push_back(Finalize(spec, Accumulator{}));
        }
        out_rows.push_back(std::move(row));
      } else {
        out_rows.reserve(groups.size());
        for (Group& group : groups) {
          Row row = std::move(group.key);
          for (size_t a = 0; a < op.aggregates.size(); ++a) {
            row.push_back(Finalize(op.aggregates[a], group.accs[a]));
          }
          out_rows.push_back(std::move(row));
        }
      }
      *batches = ir::RowsToBatches(out_rows);
      for (const Batch& b : *batches) NoteBatch(b);
      return Status::OK();
    }

    case ir::OpKind::kOrder:
    case ir::OpKind::kLimit:
    case ir::OpKind::kDedup:
      return bridge(batches);
  }
  return Status::Internal("unknown operator");
}

Status Interpreter::Apply(const ir::Op& op, bool leading,
                          std::vector<Row>* rows, const ExecOptions& opts,
                          uint64_t op_span) const {
  const grin::GrinGraph& g = *graph_;
  switch (op.kind) {
    case ir::OpKind::kFusedScan:
    case ir::OpKind::kScan: {
      // A fused scan runs the plain row scan unchanged (the reference
      // evaluates no pushdown): full predicate via Expr, folded projection
      // applied after the enumeration. Only the marker span and counter
      // record the fused shape.
      std::optional<trace::ScopedSpan> fused_span;
      uint64_t scan_span = op_span;
      if (op.kind == ir::OpKind::kFusedScan) {
        FLEX_COUNTER_INC(metrics::kFusedScansTotal);
        fused_span.emplace(opts.trace, "op.fused_scan", "operator", op_span);
        scan_span = fused_span->id();
      }
      // The storage read boundary — where a lost page or failed remote
      // read would surface in a real deployment; also the span under
      // which all GRIN scan work for this operator is accounted.
      trace::ScopedSpan read_span(opts.trace, "storage.read", "storage",
                                  scan_span);
      if (FLEX_FAULT_POINT("storage.read")) {
        return Status::DataLoss("storage.read fault injected at scan");
      }
      std::vector<Row> out;
      std::vector<Row> base = std::move(*rows);
      if (leading) base.push_back({});
      if (op.id_lookup != nullptr) {
        // IndexScan: resolve the id once per input row via the GRIN oid
        // index (kOidIndex trait) instead of enumerating the label.
        for (const Row& row : base) {
          const PropertyValue oid_value =
              op.id_lookup->Eval(row, g, opts.params);
          if (oid_value.type() != PropertyType::kInt64) continue;
          auto lookup = [&](label_t label) {
            auto found = g.FindVertex(label, oid_value.AsInt64());
            if (!found.ok()) return;
            Row extended = row;
            extended.push_back(ir::VertexRef{found.value()});
            if (op.predicate != nullptr &&
                !op.predicate->EvalBool(extended, g, opts.params)) {
              return;
            }
            out.push_back(std::move(extended));
          };
          if (op.label == kInvalidLabel) {
            for (size_t l = 0; l < g.schema().vertex_label_num(); ++l) {
              lookup(static_cast<label_t>(l));
            }
          } else {
            lookup(op.label);
          }
        }
        *rows = std::move(out);
        return Status::OK();
      }
      auto emit_label = [&](label_t label) {
        struct Ctx {
          const ir::Op* op;
          const grin::GrinGraph* g;
          const ExecOptions* opts;
          std::vector<Row>* out;
          const std::vector<Row>* base;
        } ctx{&op, &g, &opts, &out, &base};
        g.VisitVertices(
            label, 0, g.NumVerticesOfLabel(label),
            [](void* raw, vid_t v) -> bool {
              auto* c = static_cast<Ctx*>(raw);
              for (const Row& row : *c->base) {
                Row extended = row;
                extended.push_back(ir::VertexRef{v});
                if (c->op->predicate != nullptr &&
                    !c->op->predicate->EvalBool(extended, *c->g,
                                                c->opts->params)) {
                  continue;
                }
                c->out->push_back(std::move(extended));
              }
              return true;
            },
            &ctx);
      };
      if (op.label == kInvalidLabel) {
        for (size_t l = 0; l < g.schema().vertex_label_num(); ++l) {
          emit_label(static_cast<label_t>(l));
        }
      } else {
        emit_label(op.label);
      }
      if (!op.exprs.empty()) {
        // Folded projection (FUSED_SCAN only — a plain SCAN never carries
        // exprs): every expr references the scanned column.
        for (Row& row : out) {
          Row projected;
          projected.reserve(op.exprs.size());
          for (const auto& expr : op.exprs) {
            if (expr->kind() == ir::ExprKind::kColumn) {
              projected.push_back(row[expr->column()]);
            } else {
              projected.push_back(expr->Eval(row, g, opts.params));
            }
          }
          row = std::move(projected);
        }
      }
      *rows = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kExpandEdge: {
      std::vector<Row> out;
      for (Row& row : *rows) {
        const auto* vertex = std::get_if<ir::VertexRef>(&row[op.from_column]);
        if (vertex == nullptr) continue;
        auto emit = [&](Direction dir) {
          grin::ForEachAdj(
              g, vertex->vid, dir, op.elabel,
              [&](vid_t nbr, double, eid_t eid) {
                ir::EdgeRef edge;
                edge.elabel = op.elabel;
                edge.eid = eid;
                edge.src = dir == Direction::kOut ? vertex->vid : nbr;
                edge.dst = dir == Direction::kOut ? nbr : vertex->vid;
                Row extended = row;
                extended.push_back(edge);
                if (op.predicate != nullptr &&
                    !op.predicate->EvalBool(extended, g, opts.params)) {
                  return true;
                }
                out.push_back(std::move(extended));
                return true;
              });
        };
        if (op.dir == Direction::kBoth) {
          emit(Direction::kOut);
          emit(Direction::kIn);
        } else {
          emit(op.dir);
        }
      }
      *rows = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kGetVertex: {
      std::vector<Row> out;
      for (Row& row : *rows) {
        const auto* edge = std::get_if<ir::EdgeRef>(&row[op.from_column]);
        if (edge == nullptr) continue;
        // dir selects the endpoint: kOut -> dst (Gremlin inV), kIn -> src
        // (outV), kBoth -> the end other than the origin vertex (otherV /
        // Cypher's pattern step).
        vid_t other;
        if (op.dir == Direction::kOut) {
          other = edge->dst;
        } else if (op.dir == Direction::kIn) {
          other = edge->src;
        } else {
          const auto* origin =
              std::get_if<ir::VertexRef>(&row[op.origin_column]);
          if (origin == nullptr) continue;
          other = edge->src == origin->vid ? edge->dst : edge->src;
        }
        if (op.label != kInvalidLabel && g.VertexLabelOf(other) != op.label) {
          continue;
        }
        Row extended = std::move(row);
        extended.push_back(ir::VertexRef{other});
        if (op.predicate != nullptr &&
            !op.predicate->EvalBool(extended, g, opts.params)) {
          continue;
        }
        out.push_back(std::move(extended));
      }
      *rows = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kFusedExpand:
    case ir::OpKind::kExpand: {
      // The reference runs the fused expand as the plain expand (full
      // predicate per extended row) under its marker span.
      std::optional<trace::ScopedSpan> fused_span;
      if (op.kind == ir::OpKind::kFusedExpand) {
        FLEX_COUNTER_INC(metrics::kFusedExpandsTotal);
        fused_span.emplace(opts.trace, "op.fused_expand", "operator", op_span);
      }
      std::vector<Row> out;
      for (Row& row : *rows) {
        const auto* vertex = std::get_if<ir::VertexRef>(&row[op.from_column]);
        if (vertex == nullptr) continue;
        grin::ForEachAdj(
            g, vertex->vid, op.dir, op.elabel,
            [&](vid_t nbr, double, eid_t) {
              if (op.label != kInvalidLabel &&
                  g.VertexLabelOf(nbr) != op.label) {
                return true;
              }
              Row extended = row;
              extended.push_back(ir::VertexRef{nbr});
              if (op.predicate != nullptr &&
                  !op.predicate->EvalBool(extended, g, opts.params)) {
                return true;
              }
              out.push_back(std::move(extended));
              return true;
            });
      }
      if (!op.exprs.empty()) {
        // Folded projection (FUSED_EXPAND only — a plain EXPAND never
        // carries exprs): expressions read the extended row.
        for (Row& row : out) {
          Row projected;
          projected.reserve(op.exprs.size());
          for (const auto& expr : op.exprs) {
            if (expr->kind() == ir::ExprKind::kColumn) {
              projected.push_back(row[expr->column()]);
            } else {
              projected.push_back(expr->Eval(row, g, opts.params));
            }
          }
          row = std::move(projected);
        }
      }
      *rows = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kExpandVar: {
      // Depth-first path enumeration with Cypher's relationship
      // uniqueness: an edge id may appear once per path; endpoints repeat
      // once per distinct path reaching them.
      std::vector<Row> out;
      struct Frame {
        vid_t vertex;
        size_t depth;
      };
      for (Row& row : *rows) {
        const auto* start = std::get_if<ir::VertexRef>(&row[op.from_column]);
        if (start == nullptr) continue;
        std::vector<eid_t> path_edges;
        // Explicit DFS with an emit at every depth in [min, max].
        std::function<void(vid_t, size_t)> dfs = [&](vid_t v, size_t depth) {
          if (depth >= op.min_hops && depth <= op.max_hops) {
            if (op.label == kInvalidLabel ||
                g.VertexLabelOf(v) == op.label) {
              Row extended = row;
              extended.push_back(ir::VertexRef{v});
              if (op.predicate == nullptr ||
                  op.predicate->EvalBool(extended, g, opts.params)) {
                out.push_back(std::move(extended));
              }
            }
          }
          if (depth == op.max_hops) return;
          grin::ForEachAdj(
              g, v, op.dir, op.elabel, [&](vid_t nbr, double, eid_t e) {
                if (std::find(path_edges.begin(), path_edges.end(), e) !=
                    path_edges.end()) {
                  return true;  // Relationship already on this path.
                }
                path_edges.push_back(e);
                dfs(nbr, depth + 1);
                path_edges.pop_back();
                return true;
              });
        };
        dfs(start->vid, 0);
      }
      *rows = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kExpandInto: {
      std::vector<Row> out;
      for (Row& row : *rows) {
        const auto* from = std::get_if<ir::VertexRef>(&row[op.from_column]);
        const auto* into = std::get_if<ir::VertexRef>(&row[op.into_column]);
        if (from == nullptr || into == nullptr) continue;
        bool found = false;
        const vid_t target = into->vid;
        grin::ForEachAdj(g, from->vid, op.dir, op.elabel,
                         [&](vid_t nbr, double, eid_t) {
                           if (nbr == target) {
                             found = true;
                             return false;  // Early stop.
                           }
                           return true;
                         });
        if (found) out.push_back(std::move(row));
      }
      *rows = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kSelect: {
      std::vector<Row> out;
      for (Row& row : *rows) {
        if (op.exprs[0]->EvalBool(row, g, opts.params)) {
          out.push_back(std::move(row));
        }
      }
      *rows = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kProject: {
      std::vector<Row> out;
      out.reserve(rows->size());
      for (const Row& row : *rows) {
        Row projected;
        projected.reserve(op.exprs.size());
        for (const auto& expr : op.exprs) {
          if (expr->kind() == ir::ExprKind::kColumn) {
            projected.push_back(row[expr->column()]);
          } else {
            projected.push_back(expr->Eval(row, g, opts.params));
          }
        }
        out.push_back(std::move(projected));
      }
      *rows = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kOrder: {
      // Precompute sort keys.
      std::vector<std::pair<std::vector<PropertyValue>, size_t>> keyed;
      keyed.reserve(rows->size());
      for (size_t i = 0; i < rows->size(); ++i) {
        std::vector<PropertyValue> key;
        key.reserve(op.exprs.size());
        for (const auto& expr : op.exprs) {
          key.push_back(expr->Eval((*rows)[i], g, opts.params));
        }
        keyed.emplace_back(std::move(key), i);
      }
      std::stable_sort(keyed.begin(), keyed.end(),
                       [&](const auto& a, const auto& b) {
                         for (size_t k = 0; k < op.exprs.size(); ++k) {
                           const int c = a.first[k].Compare(b.first[k]);
                           if (c != 0) return op.ascending[k] ? c < 0 : c > 0;
                         }
                         return false;
                       });
      std::vector<Row> out;
      const size_t take = std::min(op.limit, keyed.size());
      out.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        out.push_back(std::move((*rows)[keyed[i].second]));
      }
      *rows = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kGroup: {
      struct Group {
        std::vector<Entry> key;
        std::vector<Accumulator> accs;
      };
      std::unordered_map<uint64_t, std::vector<Group>> groups;
      std::vector<uint64_t> order;  // Deterministic output order.
      for (const Row& row : *rows) {
        std::vector<Entry> key;
        key.reserve(op.exprs.size());
        for (const auto& expr : op.exprs) {
          if (expr->kind() == ir::ExprKind::kColumn) {
            key.push_back(row[expr->column()]);
          } else {
            key.push_back(expr->Eval(row, g, opts.params));
          }
        }
        const uint64_t h = RowKeyHash(key);
        auto& bucket = groups[h];
        Group* group = nullptr;
        for (Group& candidate : bucket) {
          if (RowKeyEquals(candidate.key, key)) {
            group = &candidate;
            break;
          }
        }
        if (group == nullptr) {
          bucket.push_back({std::move(key), std::vector<Accumulator>(
                                                op.aggregates.size())});
          group = &bucket.back();
          order.push_back(h);
        }
        for (size_t a = 0; a < op.aggregates.size(); ++a) {
          const auto& spec = op.aggregates[a];
          PropertyValue value;
          if (spec.arg != nullptr) value = spec.arg->Eval(row, g, opts.params);
          Accumulate(spec, value, &group->accs[a]);
        }
      }
      std::vector<Row> out;
      if (rows->empty() && op.exprs.empty()) {
        // Global aggregation over zero rows still yields one row
        // (count() = 0), per Cypher/SQL semantics.
        Row row;
        for (const auto& spec : op.aggregates) {
          row.push_back(Finalize(spec, Accumulator{}));
        }
        *rows = {std::move(row)};
        return Status::OK();
      }
      std::unordered_map<uint64_t, size_t> emitted;
      for (uint64_t h : order) {
        auto& bucket = groups[h];
        const size_t idx = emitted[h]++;
        if (idx >= bucket.size()) continue;
        Group& group = bucket[idx];
        Row row = std::move(group.key);
        for (size_t a = 0; a < op.aggregates.size(); ++a) {
          row.push_back(Finalize(op.aggregates[a], group.accs[a]));
        }
        out.push_back(std::move(row));
      }
      *rows = std::move(out);
      return Status::OK();
    }

    case ir::OpKind::kLimit: {
      if (rows->size() > op.limit) rows->resize(op.limit);
      return Status::OK();
    }

    case ir::OpKind::kDedup: {
      std::unordered_map<uint64_t, std::vector<std::vector<Entry>>> seen;
      std::vector<Row> out;
      for (Row& row : *rows) {
        std::vector<Entry> key;
        if (op.key_columns.empty()) {
          key = row;
        } else {
          for (size_t c : op.key_columns) key.push_back(row[c]);
        }
        auto& bucket = seen[RowKeyHash(key)];
        bool duplicate = false;
        for (const auto& existing : bucket) {
          if (RowKeyEquals(existing, key)) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          bucket.push_back(std::move(key));
          out.push_back(std::move(row));
        }
      }
      *rows = std::move(out);
      return Status::OK();
    }
  }
  return Status::Internal("unknown operator");
}

std::vector<std::string> RowsToStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += " | ";
      line += ir::EntryToString(row[i]);
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace flex::query
