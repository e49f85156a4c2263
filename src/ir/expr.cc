#include "ir/expr.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace flex::ir {

ExprPtr Expr::Const(PropertyValue value) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kConst;
  e->value_ = std::move(value);
  return e;
}

ExprPtr Expr::Param(size_t index) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kParam;
  e->param_index_ = index;
  return e;
}

ExprPtr Expr::Column(size_t column) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kColumn;
  e->column_ = column;
  return e;
}

ExprPtr Expr::Property(size_t column, std::string property) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kProperty;
  e->column_ = column;
  e->property_ = std::move(property);
  return e;
}

ExprPtr Expr::VertexId(size_t column) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kVertexId;
  e->column_ = column;
  return e;
}

ExprPtr Expr::LabelName(size_t column) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kLabelName;
  e->column_ = column;
  return e;
}

ExprPtr Expr::Binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kBinary;
  e->height_ = 1 + std::max(lhs->height_, rhs->height_);
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Not(ExprPtr inner) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kNot;
  e->height_ = 1 + inner->height_;
  e->lhs_ = std::move(inner);
  return e;
}

ExprPtr Expr::In(ExprPtr lhs, std::vector<PropertyValue> values) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kIn;
  e->height_ = 1 + lhs->height_;
  e->lhs_ = std::move(lhs);
  e->in_values_ = std::move(values);
  return e;
}

namespace {

bool Truthy(const PropertyValue& v) {
  switch (v.type()) {
    case PropertyType::kEmpty:
      return false;
    case PropertyType::kBool:
      return v.AsBool();
    case PropertyType::kInt64:
      return v.AsInt64() != 0;
    case PropertyType::kDouble:
      return v.AsDouble() != 0.0;
    case PropertyType::kString:
      return !v.AsString().empty();
  }
  return false;
}

PropertyValue Arith(BinOp op, const PropertyValue& a, const PropertyValue& b) {
  // Integer arithmetic stays integral; an int64 overflow and anything
  // mixed widen to double.
  if (a.type() == PropertyType::kInt64 && b.type() == PropertyType::kInt64) {
    const int64_t x = a.AsInt64(), y = b.AsInt64();
    int64_t r = 0;
    switch (op) {
      case BinOp::kAdd:
        if (!__builtin_add_overflow(x, y, &r)) return PropertyValue(r);
        break;
      case BinOp::kSub:
        if (!__builtin_sub_overflow(x, y, &r)) return PropertyValue(r);
        break;
      case BinOp::kMul:
        if (!__builtin_mul_overflow(x, y, &r)) return PropertyValue(r);
        break;
      case BinOp::kDiv:
        // INT64_MIN / -1 is the one quotient int64 cannot hold.
        if (y == 0 || (x == std::numeric_limits<int64_t>::min() && y == -1)) {
          return PropertyValue();
        }
        return PropertyValue(x / y);
      default:
        break;
    }
  }
  // Null, string and bool operands make the result null.
  if (!a.is_numeric() || !b.is_numeric()) return PropertyValue();
  const double x = a.AsNumeric(), y = b.AsNumeric();
  switch (op) {
    case BinOp::kAdd:
      return PropertyValue(x + y);
    case BinOp::kSub:
      return PropertyValue(x - y);
    case BinOp::kMul:
      return PropertyValue(x * y);
    case BinOp::kDiv:
      return y == 0.0 ? PropertyValue() : PropertyValue(x / y);
    default:
      break;
  }
  return PropertyValue();
}

}  // namespace

PropertyValue Expr::EvalProperty(const Row& row,
                                 const grin::GrinGraph& graph) const {
  const Entry& entry = row[column_];
  if (const auto* vertex = std::get_if<VertexRef>(&entry)) {
    const label_t label = graph.VertexLabelOf(vertex->vid);
    auto col = graph.schema().FindVertexProperty(label, property_);
    if (!col.ok()) return PropertyValue();
    return graph.GetVertexProperty(vertex->vid, col.value());
  }
  if (const auto* edge = std::get_if<EdgeRef>(&entry)) {
    auto col = graph.schema().FindEdgeProperty(edge->elabel, property_);
    if (!col.ok()) return PropertyValue();
    return graph.GetEdgeProperty(edge->elabel, edge->eid, col.value());
  }
  return PropertyValue();
}

PropertyValue Expr::Eval(const Row& row, const grin::GrinGraph& graph,
                         const std::vector<PropertyValue>& params) const {
  switch (kind_) {
    case ExprKind::kConst:
      return value_;
    case ExprKind::kParam:
      FLEX_CHECK_LT(param_index_, params.size());
      return params[param_index_];
    case ExprKind::kColumn: {
      const Entry& entry = row[column_];
      if (const auto* value = std::get_if<PropertyValue>(&entry)) {
        return *value;
      }
      // Vertices/edges compared as entries elsewhere; as a value, a
      // vertex renders as its external id.
      if (const auto* vertex = std::get_if<VertexRef>(&entry)) {
        return PropertyValue(graph.GetOid(vertex->vid));
      }
      return PropertyValue();
    }
    case ExprKind::kProperty:
      return EvalProperty(row, graph);
    case ExprKind::kVertexId: {
      const Entry& entry = row[column_];
      if (const auto* vertex = std::get_if<VertexRef>(&entry)) {
        return PropertyValue(graph.GetOid(vertex->vid));
      }
      return PropertyValue();
    }
    case ExprKind::kLabelName: {
      const Entry& entry = row[column_];
      if (const auto* vertex = std::get_if<VertexRef>(&entry)) {
        const label_t label = graph.VertexLabelOf(vertex->vid);
        return PropertyValue(graph.schema().vertex_label(label).name);
      }
      if (const auto* edge = std::get_if<EdgeRef>(&entry)) {
        return PropertyValue(graph.schema().edge_label(edge->elabel).name);
      }
      return PropertyValue();
    }
    case ExprKind::kBinary: {
      switch (op_) {
        case BinOp::kAnd:
          return PropertyValue(lhs_->EvalBool(row, graph, params) &&
                               rhs_->EvalBool(row, graph, params));
        case BinOp::kOr:
          return PropertyValue(lhs_->EvalBool(row, graph, params) ||
                               rhs_->EvalBool(row, graph, params));
        default:
          break;
      }
      const PropertyValue a = lhs_->Eval(row, graph, params);
      const PropertyValue b = rhs_->Eval(row, graph, params);
      switch (op_) {
        case BinOp::kEq:
          return PropertyValue(a == b);
        case BinOp::kNe:
          return PropertyValue(a != b);
        case BinOp::kLt:
          return PropertyValue(a.Compare(b) < 0);
        case BinOp::kLe:
          return PropertyValue(a.Compare(b) <= 0);
        case BinOp::kGt:
          return PropertyValue(a.Compare(b) > 0);
        case BinOp::kGe:
          return PropertyValue(a.Compare(b) >= 0);
        default:
          return Arith(op_, a, b);
      }
    }
    case ExprKind::kNot:
      return PropertyValue(!lhs_->EvalBool(row, graph, params));
    case ExprKind::kIn: {
      const PropertyValue needle = lhs_->Eval(row, graph, params);
      for (const PropertyValue& candidate : in_values_) {
        if (needle == candidate) return PropertyValue(true);
      }
      return PropertyValue(false);
    }
  }
  return PropertyValue();
}

bool Expr::EvalBool(const Row& row, const grin::GrinGraph& graph,
                    const std::vector<PropertyValue>& params) const {
  return Truthy(Eval(row, graph, params));
}

void Expr::EvalPropertyBatch(const Batch& batch,
                             std::span<const uint32_t> rows,
                             const grin::GrinGraph& graph,
                             std::vector<PropertyValue>* out) const {
  const class Column& col = batch.column(column_);
  if (col.kind() == flex::ir::Column::Kind::kVertex) {
    // The batched fast path: one schema lookup and one batched GRIN
    // call per contiguous same-label run of source vertices.
    const std::span<const vid_t> vids = col.vids();
    std::vector<vid_t> run;
    size_t i = 0;
    while (i < rows.size()) {
      const label_t label = graph.VertexLabelOf(vids[rows[i]]);
      size_t j = i + 1;
      while (j < rows.size() &&
             graph.VertexLabelOf(vids[rows[j]]) == label) {
        ++j;
      }
      auto prop = graph.schema().FindVertexProperty(label, property_);
      if (!prop.ok()) {
        for (size_t k = i; k < j; ++k) (*out)[k] = PropertyValue();
      } else {
        run.clear();
        run.reserve(j - i);
        for (size_t k = i; k < j; ++k) run.push_back(vids[rows[k]]);
        graph.GetVerticesProperties(run, prop.value(), out->data() + i);
      }
      i = j;
    }
    return;
  }
  // Edge / value / mixed columns: scalar semantics per row.
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint32_t r = rows[i];
    if (col.IsVertexAt(r)) {
      const vid_t v = col.VertexAt(r);
      const label_t label = graph.VertexLabelOf(v);
      auto prop = graph.schema().FindVertexProperty(label, property_);
      (*out)[i] = prop.ok() ? graph.GetVertexProperty(v, prop.value())
                            : PropertyValue();
    } else if (const EdgeRef* edge = col.EdgeAt(r)) {
      auto prop = graph.schema().FindEdgeProperty(edge->elabel, property_);
      (*out)[i] = prop.ok()
                      ? graph.GetEdgeProperty(edge->elabel, edge->eid,
                                              prop.value())
                      : PropertyValue();
    } else {
      (*out)[i] = PropertyValue();
    }
  }
}

void Expr::EvalBatch(const Batch& batch, std::span<const uint32_t> rows,
                     const grin::GrinGraph& graph,
                     const std::vector<PropertyValue>& params,
                     std::vector<PropertyValue>* out) const {
  out->clear();
  out->resize(rows.size());
  switch (kind_) {
    case ExprKind::kConst:
      for (size_t i = 0; i < rows.size(); ++i) (*out)[i] = value_;
      return;
    case ExprKind::kParam:
      FLEX_CHECK_LT(param_index_, params.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        (*out)[i] = params[param_index_];
      }
      return;
    case ExprKind::kColumn: {
      const class Column& col = batch.column(column_);
      for (size_t i = 0; i < rows.size(); ++i) {
        const uint32_t r = rows[i];
        if (col.IsValueAt(r)) {
          (*out)[i] = col.ValueAt(r);
        } else if (col.IsVertexAt(r)) {
          (*out)[i] = PropertyValue(graph.GetOid(col.VertexAt(r)));
        }
      }
      return;
    }
    case ExprKind::kProperty:
      EvalPropertyBatch(batch, rows, graph, out);
      return;
    case ExprKind::kVertexId: {
      const class Column& col = batch.column(column_);
      for (size_t i = 0; i < rows.size(); ++i) {
        const uint32_t r = rows[i];
        if (col.IsVertexAt(r)) {
          (*out)[i] = PropertyValue(graph.GetOid(col.VertexAt(r)));
        }
      }
      return;
    }
    case ExprKind::kLabelName: {
      const class Column& col = batch.column(column_);
      for (size_t i = 0; i < rows.size(); ++i) {
        const uint32_t r = rows[i];
        if (col.IsVertexAt(r)) {
          const label_t label = graph.VertexLabelOf(col.VertexAt(r));
          (*out)[i] = PropertyValue(graph.schema().vertex_label(label).name);
        } else if (const EdgeRef* edge = col.EdgeAt(r)) {
          (*out)[i] =
              PropertyValue(graph.schema().edge_label(edge->elabel).name);
        }
      }
      return;
    }
    case ExprKind::kBinary: {
      if (op_ == BinOp::kAnd || op_ == BinOp::kOr) {
        std::vector<char> bools;
        EvalBoolBatch(batch, rows, graph, params, &bools);
        for (size_t i = 0; i < rows.size(); ++i) {
          (*out)[i] = PropertyValue(bools[i] != 0);
        }
        return;
      }
      std::vector<PropertyValue> a, b;
      lhs_->EvalBatch(batch, rows, graph, params, &a);
      rhs_->EvalBatch(batch, rows, graph, params, &b);
      for (size_t i = 0; i < rows.size(); ++i) {
        switch (op_) {
          case BinOp::kEq:
            (*out)[i] = PropertyValue(a[i] == b[i]);
            break;
          case BinOp::kNe:
            (*out)[i] = PropertyValue(a[i] != b[i]);
            break;
          case BinOp::kLt:
            (*out)[i] = PropertyValue(a[i].Compare(b[i]) < 0);
            break;
          case BinOp::kLe:
            (*out)[i] = PropertyValue(a[i].Compare(b[i]) <= 0);
            break;
          case BinOp::kGt:
            (*out)[i] = PropertyValue(a[i].Compare(b[i]) > 0);
            break;
          case BinOp::kGe:
            (*out)[i] = PropertyValue(a[i].Compare(b[i]) >= 0);
            break;
          default:
            (*out)[i] = Arith(op_, a[i], b[i]);
            break;
        }
      }
      return;
    }
    case ExprKind::kNot: {
      std::vector<char> bools;
      lhs_->EvalBoolBatch(batch, rows, graph, params, &bools);
      for (size_t i = 0; i < rows.size(); ++i) {
        (*out)[i] = PropertyValue(bools[i] == 0);
      }
      return;
    }
    case ExprKind::kIn: {
      std::vector<PropertyValue> needles;
      lhs_->EvalBatch(batch, rows, graph, params, &needles);
      for (size_t i = 0; i < rows.size(); ++i) {
        bool found = false;
        for (const PropertyValue& candidate : in_values_) {
          if (needles[i] == candidate) {
            found = true;
            break;
          }
        }
        (*out)[i] = PropertyValue(found);
      }
      return;
    }
  }
}

void Expr::EvalBoolBatch(const Batch& batch, std::span<const uint32_t> rows,
                         const grin::GrinGraph& graph,
                         const std::vector<PropertyValue>& params,
                         std::vector<char>* out) const {
  out->clear();
  out->resize(rows.size(), 0);
  if (kind_ == ExprKind::kBinary &&
      (op_ == BinOp::kAnd || op_ == BinOp::kOr)) {
    const bool is_and = op_ == BinOp::kAnd;
    std::vector<char> left;
    lhs_->EvalBoolBatch(batch, rows, graph, params, &left);
    // The left side decides rows where it is false (AND) / true (OR); the
    // right side only sees the remainder.
    std::vector<uint32_t> pending_rows;
    std::vector<size_t> pending_pos;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (left[i] != 0) {
        if (is_and) {
          pending_rows.push_back(rows[i]);
          pending_pos.push_back(i);
        } else {
          (*out)[i] = 1;
        }
      } else if (!is_and) {
        pending_rows.push_back(rows[i]);
        pending_pos.push_back(i);
      }
    }
    if (!pending_rows.empty()) {
      std::vector<char> right;
      rhs_->EvalBoolBatch(batch, pending_rows, graph, params, &right);
      for (size_t k = 0; k < pending_pos.size(); ++k) {
        (*out)[pending_pos[k]] = right[k];
      }
    }
    return;
  }
  if (kind_ == ExprKind::kNot) {
    std::vector<char> inner;
    lhs_->EvalBoolBatch(batch, rows, graph, params, &inner);
    for (size_t i = 0; i < rows.size(); ++i) {
      (*out)[i] = inner[i] == 0 ? 1 : 0;
    }
    return;
  }
  std::vector<PropertyValue> values;
  EvalBatch(batch, rows, graph, params, &values);
  for (size_t i = 0; i < rows.size(); ++i) {
    (*out)[i] = Truthy(values[i]) ? 1 : 0;
  }
}

void Expr::CollectColumns(std::vector<size_t>* out) const {
  switch (kind_) {
    case ExprKind::kColumn:
    case ExprKind::kProperty:
    case ExprKind::kVertexId:
    case ExprKind::kLabelName:
      out->push_back(column_);
      break;
    case ExprKind::kBinary:
      lhs_->CollectColumns(out);
      rhs_->CollectColumns(out);
      break;
    case ExprKind::kNot:
    case ExprKind::kIn:
      lhs_->CollectColumns(out);
      break;
    default:
      break;
  }
}

bool Expr::FindIdEquality(size_t column, ExprPtr* value) const {
  if (kind_ != ExprKind::kBinary) return false;
  if (op_ == BinOp::kAnd) {
    return lhs_->FindIdEquality(column, value) ||
           rhs_->FindIdEquality(column, value);
  }
  if (op_ != BinOp::kEq) return false;
  auto is_id_ref = [&](const Expr* e) {
    return e->kind_ == ExprKind::kVertexId && e->column_ == column;
  };
  auto is_value = [](const Expr* e) {
    return e->kind_ == ExprKind::kConst || e->kind_ == ExprKind::kParam;
  };
  if (is_id_ref(lhs_.get()) && is_value(rhs_.get())) {
    *value = rhs_->Clone();
    return true;
  }
  if (is_id_ref(rhs_.get()) && is_value(lhs_.get())) {
    *value = lhs_->Clone();
    return true;
  }
  return false;
}

ExprPtr Expr::WithoutIdEquality(size_t column) const {
  // Mirrors FindIdEquality's search order: drop the first id(column) ==
  // Const/Param conjunct on the AND spine — the one the IndexScan rule
  // consumed into id_lookup — and keep everything else verbatim.
  auto is_the_equality = [&](const Expr& e) {
    if (e.kind_ != ExprKind::kBinary || e.op_ != BinOp::kEq) return false;
    auto is_id_ref = [&](const Expr* x) {
      return x->kind_ == ExprKind::kVertexId && x->column_ == column;
    };
    auto is_value = [](const Expr* x) {
      return x->kind_ == ExprKind::kConst || x->kind_ == ExprKind::kParam;
    };
    return (is_id_ref(e.lhs_.get()) && is_value(e.rhs_.get())) ||
           (is_id_ref(e.rhs_.get()) && is_value(e.lhs_.get()));
  };
  std::vector<const Expr*> conjuncts;
  std::vector<const Expr*> stack = {this};
  while (!stack.empty()) {
    const Expr* e = stack.back();
    stack.pop_back();
    if (e->kind_ == ExprKind::kBinary && e->op_ == BinOp::kAnd) {
      // rhs pushed first so lhs pops first: left-to-right spine order,
      // matching FindIdEquality's lhs-before-rhs search.
      stack.push_back(e->rhs_.get());
      stack.push_back(e->lhs_.get());
      continue;
    }
    conjuncts.push_back(e);
  }
  ExprPtr rest;
  bool dropped = false;
  for (const Expr* c : conjuncts) {
    if (!dropped && is_the_equality(*c)) {
      dropped = true;
      continue;
    }
    rest = rest == nullptr ? c->Clone()
                           : Binary(BinOp::kAnd, std::move(rest), c->Clone());
  }
  return rest;  // nullptr when the equality was the whole predicate.
}

ExprPtr Expr::Clone() const {
  auto e = ExprPtr(new Expr());
  e->kind_ = kind_;
  e->height_ = height_;
  e->value_ = value_;
  e->param_index_ = param_index_;
  e->column_ = column_;
  e->property_ = property_;
  e->op_ = op_;
  e->in_values_ = in_values_;
  if (lhs_ != nullptr) e->lhs_ = lhs_->Clone();
  if (rhs_ != nullptr) e->rhs_ = rhs_->Clone();
  return e;
}

namespace {

const char* BinOpSymbol(BinOp op) {
  switch (op) {
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "<>";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
  }
  return "?";
}

}  // namespace

std::string Expr::ToString() const {
  std::string out;
  switch (kind_) {
    case ExprKind::kConst:
      if (value_.type() == PropertyType::kString) {
        out += "'";
        out += value_.AsString();
        out += "'";
      } else {
        out += value_.ToString();
      }
      return out;
    case ExprKind::kParam:
      out += "$";
      out += std::to_string(param_index_);
      return out;
    case ExprKind::kColumn:
      out += "_";
      out += std::to_string(column_);
      return out;
    case ExprKind::kProperty:
      out += "_";
      out += std::to_string(column_);
      out += ".";
      out += property_;
      return out;
    case ExprKind::kVertexId:
      out += "id(_";
      out += std::to_string(column_);
      out += ")";
      return out;
    case ExprKind::kLabelName:
      out += "label(_";
      out += std::to_string(column_);
      out += ")";
      return out;
    case ExprKind::kBinary:
      out += "(";
      out += lhs_->ToString();
      out += " ";
      out += BinOpSymbol(op_);
      out += " ";
      out += rhs_->ToString();
      out += ")";
      return out;
    case ExprKind::kNot:
      out += "NOT ";
      out += lhs_->ToString();
      return out;
    case ExprKind::kIn:
      out += lhs_->ToString();
      out += " IN [";
      for (size_t i = 0; i < in_values_.size(); ++i) {
        if (i > 0) out += ", ";
        out += in_values_[i].ToString();
      }
      out += "]";
      return out;
  }
  return "?";
}

void Expr::RemapColumns(const std::vector<size_t>& mapping) {
  switch (kind_) {
    case ExprKind::kColumn:
    case ExprKind::kProperty:
    case ExprKind::kVertexId:
    case ExprKind::kLabelName:
      if (column_ < mapping.size()) column_ = mapping[column_];
      break;
    case ExprKind::kBinary:
      lhs_->RemapColumns(mapping);
      rhs_->RemapColumns(mapping);
      break;
    case ExprKind::kNot:
    case ExprKind::kIn:
      lhs_->RemapColumns(mapping);
      break;
    default:
      break;
  }
}

namespace {

/// Flattens the AND-spine of `pred` into conjunct leaves.
void CollectConjuncts(const Expr& pred, std::vector<const Expr*>* out) {
  if (pred.kind() == ExprKind::kBinary && pred.bin_op() == BinOp::kAnd) {
    CollectConjuncts(*pred.lhs(), out);
    CollectConjuncts(*pred.rhs(), out);
    return;
  }
  out->push_back(&pred);
}

bool CmpFor(BinOp op, bool flipped, grin::VertexCondition::Cmp* cmp) {
  switch (op) {
    case BinOp::kEq:
      *cmp = grin::VertexCondition::Cmp::kEq;
      return true;
    case BinOp::kNe:
      *cmp = grin::VertexCondition::Cmp::kNe;
      return true;
    case BinOp::kLt:
      *cmp = flipped ? grin::VertexCondition::Cmp::kGt
                     : grin::VertexCondition::Cmp::kLt;
      return true;
    case BinOp::kLe:
      *cmp = flipped ? grin::VertexCondition::Cmp::kGe
                     : grin::VertexCondition::Cmp::kLe;
      return true;
    case BinOp::kGt:
      *cmp = flipped ? grin::VertexCondition::Cmp::kLt
                     : grin::VertexCondition::Cmp::kGt;
      return true;
    case BinOp::kGe:
      *cmp = flipped ? grin::VertexCondition::Cmp::kLe
                     : grin::VertexCondition::Cmp::kGe;
      return true;
    default:
      return false;
  }
}

/// Tries to turn one conjunct into a VertexCondition over `column`'s
/// vertex of label `label`. With null `params` the condition is
/// structural: kParam values are left empty.
bool TryPushConjunct(const Expr& conjunct, size_t column, label_t label,
                     const GraphSchema& schema,
                     const std::vector<PropertyValue>* params,
                     grin::VertexCondition* out) {
  if (conjunct.kind() != ExprKind::kBinary) return false;
  const Expr* prop = conjunct.lhs();
  const Expr* value = conjunct.rhs();
  bool flipped = false;
  auto is_prop = [&](const Expr* e) {
    return e->kind() == ExprKind::kProperty && e->column() == column;
  };
  auto is_value = [](const Expr* e) {
    return e->kind() == ExprKind::kConst || e->kind() == ExprKind::kParam;
  };
  if (!is_prop(prop) || !is_value(value)) {
    prop = conjunct.rhs();
    value = conjunct.lhs();
    flipped = true;
    if (!is_prop(prop) || !is_value(value)) return false;
  }
  if (!CmpFor(conjunct.bin_op(), flipped, &out->cmp)) return false;
  if (value->kind() == ExprKind::kParam) {
    if (params != nullptr) {
      // Out-of-range $i is a plan/params mismatch; leave it residual so
      // execution fails the same way the unfused expression would.
      if (value->param_index() >= params->size()) return false;
      out->value = (*params)[value->param_index()];
    } else {
      out->value = PropertyValue();
    }
  } else {
    out->value = value->const_value();
  }
  auto col = schema.FindVertexProperty(label, prop->property());
  // Unresolvable property = Expr's missing-property empty value.
  out->column = col.ok() ? col.value() : grin::VertexCondition::kNoColumn;
  return true;
}

}  // namespace

PushdownSplit SplitPushdown(const Expr& pred, size_t column, label_t label,
                            const GraphSchema& schema,
                            const std::vector<PropertyValue>* params) {
  PushdownSplit split;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(pred, &conjuncts);
  for (const Expr* conjunct : conjuncts) {
    grin::VertexCondition condition;
    if (label != kInvalidLabel &&
        TryPushConjunct(*conjunct, column, label, schema, params,
                        &condition)) {
      split.filter.conditions.push_back(std::move(condition));
      split.pushed.push_back(conjunct);
    } else {
      split.residual.push_back(conjunct);
    }
  }
  return split;
}

}  // namespace flex::ir
