#include "ir/plan.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace flex::ir {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kScan:
      return "SCAN";
    case OpKind::kExpandEdge:
      return "EXPAND_EDGE";
    case OpKind::kGetVertex:
      return "GET_VERTEX";
    case OpKind::kExpand:
      return "EXPAND";
    case OpKind::kExpandVar:
      return "EXPAND_VAR";
    case OpKind::kExpandInto:
      return "EXPAND_INTO";
    case OpKind::kSelect:
      return "SELECT";
    case OpKind::kProject:
      return "PROJECT";
    case OpKind::kOrder:
      return "ORDER";
    case OpKind::kGroup:
      return "GROUP";
    case OpKind::kLimit:
      return "LIMIT";
    case OpKind::kDedup:
      return "DEDUP";
    case OpKind::kFusedScan:
      return "FUSED_SCAN";
    case OpKind::kFusedExpand:
      return "FUSED_EXPAND";
  }
  return "?";
}

Op Op::Clone() const {
  Op copy;
  copy.kind = kind;
  copy.label = label;
  copy.from_column = from_column;
  copy.origin_column = origin_column;
  copy.elabel = elabel;
  copy.dir = dir;
  copy.into_column = into_column;
  copy.min_hops = min_hops;
  copy.max_hops = max_hops;
  copy.predicate = predicate ? predicate->Clone() : nullptr;
  copy.id_lookup = id_lookup ? id_lookup->Clone() : nullptr;
  copy.alias = alias;
  for (const auto& e : exprs) copy.exprs.push_back(e->Clone());
  copy.names = names;
  copy.ascending = ascending;
  for (const auto& a : aggregates) copy.aggregates.push_back(a.Clone());
  copy.key_columns = key_columns;
  copy.limit = limit;
  return copy;
}

Plan Plan::Clone() const {
  Plan copy;
  for (const Op& op : ops) copy.ops.push_back(op.Clone());
  copy.columns = columns;
  copy.estimated_peak_rows = estimated_peak_rows;
  return copy;
}

namespace {

size_t ParamCountOf(const Expr* e) {
  if (e == nullptr) return 0;
  if (e->kind() == ExprKind::kParam) return e->param_index() + 1;
  return std::max(ParamCountOf(e->lhs()), ParamCountOf(e->rhs()));
}

}  // namespace

size_t Plan::ParamCount() const {
  size_t count = 0;
  auto note = [&count](const ExprPtr& e) {
    count = std::max(count, ParamCountOf(e.get()));
  };
  for (const Op& op : ops) {
    note(op.predicate);
    note(op.id_lookup);
    for (const auto& e : op.exprs) note(e);
    for (const auto& a : op.aggregates) note(a.arg);
  }
  return count;
}

Status CheckParams(const Plan& plan, size_t num_params) {
  const size_t needed = plan.ParamCount();
  if (num_params >= needed) return Status::OK();
  return Status::InvalidArgument(
      "query references $" + std::to_string(needed - 1) + " but " +
      std::to_string(num_params) + " parameter(s) were supplied");
}

std::string Plan::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) out << " -> ";
    out << OpKindName(ops[i].kind);
    if (!ops[i].alias.empty()) out << "(" << ops[i].alias << ")";
    if (ops[i].predicate != nullptr) out << "*";  // Pushed predicate.
  }
  return out.str();
}

namespace {

const char* AggFnName(AggSpec::Fn fn) {
  switch (fn) {
    case AggSpec::Fn::kCount:
      return "count";
    case AggSpec::Fn::kSum:
      return "sum";
    case AggSpec::Fn::kMin:
      return "min";
    case AggSpec::Fn::kMax:
      return "max";
    case AggSpec::Fn::kAvg:
      return "avg";
    case AggSpec::Fn::kCollect:
      return "collect";
  }
  return "?";
}

const char* DirName(Direction dir) {
  switch (dir) {
    case Direction::kOut:
      return "OUT";
    case Direction::kIn:
      return "IN";
    case Direction::kBoth:
      return "BOTH";
  }
  return "?";
}

std::string JoinExprs(const std::vector<const Expr*>& exprs) {
  std::string out;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i > 0) out += " AND ";
    out += exprs[i]->ToString();
  }
  return out;
}

}  // namespace

std::string Plan::DebugString(const GraphSchema* schema) const {
  std::ostringstream out;
  auto vlabel = [&](label_t l) -> std::string {
    if (l == kInvalidLabel) return "*";
    if (schema != nullptr && l < schema->vertex_label_num()) {
      return schema->vertex_label(l).name;
    }
    std::string out = "#";
    out += std::to_string(l);
    return out;
  };
  auto elabel = [&](label_t l) -> std::string {
    if (l == kInvalidLabel) return "*";
    if (schema != nullptr && l < schema->edge_label_num()) {
      return schema->edge_label(l).name;
    }
    std::string out = "#";
    out += std::to_string(l);
    return out;
  };
  // Track the appended-column index so fused operators can render their
  // pushdown split exactly as the interpreter will compute it.
  size_t width = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    out << i << ": " << OpKindName(op.kind);
    const bool fused = op.kind == OpKind::kFusedScan ||
                       op.kind == OpKind::kFusedExpand;
    switch (op.kind) {
      case OpKind::kScan:
      case OpKind::kFusedScan:
        out << " label=" << vlabel(op.label);
        break;
      case OpKind::kExpandEdge:
        out << " from=_" << op.from_column << " dir=" << DirName(op.dir)
            << " edge=" << elabel(op.elabel);
        break;
      case OpKind::kGetVertex:
        out << " edge=_" << op.from_column << " origin=_" << op.origin_column
            << " endpoint=" << DirName(op.dir) << " label="
            << vlabel(op.label);
        break;
      case OpKind::kExpand:
      case OpKind::kFusedExpand:
        out << " from=_" << op.from_column << " dir=" << DirName(op.dir)
            << " edge=" << elabel(op.elabel) << " label=" << vlabel(op.label);
        break;
      case OpKind::kExpandVar:
        out << " from=_" << op.from_column << " dir=" << DirName(op.dir)
            << " edge=" << elabel(op.elabel) << " hops=[" << op.min_hops
            << "," << op.max_hops << "] label=" << vlabel(op.label);
        break;
      case OpKind::kExpandInto:
        out << " from=_" << op.from_column << " into=_" << op.into_column
            << " dir=" << DirName(op.dir) << " edge=" << elabel(op.elabel);
        break;
      case OpKind::kSelect:
        out << " " << op.exprs[0]->ToString();
        break;
      case OpKind::kProject:
        for (size_t j = 0; j < op.exprs.size(); ++j) {
          out << (j == 0 ? " " : ", ") << op.exprs[j]->ToString() << " AS "
              << op.names[j];
        }
        break;
      case OpKind::kOrder:
        for (size_t j = 0; j < op.exprs.size(); ++j) {
          out << (j == 0 ? " by " : ", ") << op.exprs[j]->ToString()
              << (op.ascending[j] ? " asc" : " desc");
        }
        if (op.limit != kNoLimit) out << " limit=" << op.limit;
        break;
      case OpKind::kGroup:
        for (size_t j = 0; j < op.exprs.size(); ++j) {
          out << (j == 0 ? " keys=[" : ", ") << op.exprs[j]->ToString()
              << " AS " << op.names[j];
        }
        if (!op.exprs.empty()) out << "]";
        for (size_t j = 0; j < op.aggregates.size(); ++j) {
          const AggSpec& agg = op.aggregates[j];
          out << (j == 0 ? " aggs=[" : ", ") << AggFnName(agg.fn) << "("
              << (agg.distinct ? "DISTINCT " : "")
              << (agg.arg != nullptr ? agg.arg->ToString() : "*") << ") AS "
              << agg.name;
        }
        if (!op.aggregates.empty()) out << "]";
        break;
      case OpKind::kLimit:
        out << " " << op.limit;
        break;
      case OpKind::kDedup:
        for (size_t j = 0; j < op.key_columns.size(); ++j) {
          out << (j == 0 ? " keys=[_" : ", _") << op.key_columns[j];
        }
        out << "]";
        break;
    }
    if (!op.alias.empty()) out << " AS " << op.alias;
    if (op.id_lookup != nullptr) {
      out << " id_lookup=" << op.id_lookup->ToString();
    }
    if (op.predicate != nullptr) {
      if (fused && schema != nullptr) {
        // Render the exact pushed/residual split the interpreter computes
        // (structural: $params resolve at execution, values elided here).
        const PushdownSplit split =
            SplitPushdown(*op.predicate, width, op.label, *schema, nullptr);
        if (!split.pushed.empty()) {
          out << " pushed=[" << JoinExprs(split.pushed) << "]";
        }
        if (!split.residual.empty()) {
          out << " residual=[" << JoinExprs(split.residual) << "]";
        }
      } else {
        out << " filter=" << op.predicate->ToString();
      }
    }
    if (fused && !op.exprs.empty()) {
      for (size_t j = 0; j < op.exprs.size(); ++j) {
        out << (j == 0 ? " project=[" : ", ") << op.exprs[j]->ToString()
            << " AS " << op.names[j];
      }
      out << "]";
    }
    out << "\n";
    // Width tracking mirrors the interpreter: append ops add one column;
    // PROJECT / GROUP / fused projection reshape.
    switch (op.kind) {
      case OpKind::kScan:
      case OpKind::kExpandEdge:
      case OpKind::kGetVertex:
      case OpKind::kExpand:
      case OpKind::kExpandVar:
        ++width;
        break;
      case OpKind::kFusedScan:
      case OpKind::kFusedExpand:
        // A folded projection reshapes to its expression list; otherwise
        // the fused op appends one column like its unfused form.
        width = !op.exprs.empty() ? op.exprs.size() : width + 1;
        break;
      case OpKind::kProject:
        width = op.exprs.size();
        break;
      case OpKind::kGroup:
        width = op.exprs.size() + op.aggregates.size();
        break;
      default:
        break;
    }
  }
  out << "columns: [";
  for (size_t i = 0; i < columns.size(); ++i) {
    out << (i == 0 ? "" : ", ") << columns[i];
  }
  out << "]";
  if (estimated_peak_rows >= 0.0) {
    // Label-less plans can estimate past 2^64, where the integer cast is
    // undefined; those render in floating-point notation.
    out << "\nest_peak_rows=";
    if (estimated_peak_rows < 0x1p64) {
      out << static_cast<uint64_t>(estimated_peak_rows);
    } else {
      out << estimated_peak_rows;
    }
  }
  return out.str();
}

size_t PlanBuilder::FindAlias(const std::string& alias) const {
  if (alias.empty()) return kNoColumn;
  for (size_t i = 0; i < aliases_.size(); ++i) {
    if (aliases_[i] == alias) return i;
  }
  return kNoColumn;
}

size_t PlanBuilder::Scan(std::string alias, label_t label, ExprPtr predicate) {
  Op op;
  op.kind = OpKind::kScan;
  op.label = label;
  op.predicate = std::move(predicate);
  op.alias = alias;
  ops_.push_back(std::move(op));
  aliases_.push_back(std::move(alias));
  return aliases_.size() - 1;
}

size_t PlanBuilder::ExpandEdge(size_t from, label_t elabel, Direction dir,
                               std::string edge_alias, ExprPtr predicate) {
  Op op;
  op.kind = OpKind::kExpandEdge;
  op.from_column = from;
  op.elabel = elabel;
  op.dir = dir;
  op.predicate = std::move(predicate);
  op.alias = edge_alias;
  ops_.push_back(std::move(op));
  aliases_.push_back(std::move(edge_alias));
  return aliases_.size() - 1;
}

size_t PlanBuilder::GetVertex(size_t edge_column, size_t origin_column,
                              std::string alias, label_t expected_label,
                              ExprPtr predicate, Direction endpoint) {
  Op op;
  op.kind = OpKind::kGetVertex;
  op.from_column = edge_column;
  op.origin_column = origin_column;
  op.dir = endpoint;
  op.label = expected_label;
  op.predicate = std::move(predicate);
  op.alias = alias;
  ops_.push_back(std::move(op));
  aliases_.push_back(std::move(alias));
  return aliases_.size() - 1;
}

size_t PlanBuilder::Expand(size_t from, label_t elabel, Direction dir,
                           std::string alias, label_t expected_label,
                           ExprPtr predicate) {
  Op op;
  op.kind = OpKind::kExpand;
  op.from_column = from;
  op.elabel = elabel;
  op.dir = dir;
  op.label = expected_label;
  op.predicate = std::move(predicate);
  op.alias = alias;
  ops_.push_back(std::move(op));
  aliases_.push_back(std::move(alias));
  return aliases_.size() - 1;
}

size_t PlanBuilder::ExpandVar(size_t from, label_t elabel, Direction dir,
                              size_t min_hops, size_t max_hops,
                              std::string alias, label_t expected_label) {
  FLEX_CHECK_LE(min_hops, max_hops);
  Op op;
  op.kind = OpKind::kExpandVar;
  op.from_column = from;
  op.elabel = elabel;
  op.dir = dir;
  op.min_hops = min_hops;
  op.max_hops = max_hops;
  op.label = expected_label;
  op.alias = alias;
  ops_.push_back(std::move(op));
  aliases_.push_back(std::move(alias));
  return aliases_.size() - 1;
}

void PlanBuilder::ExpandInto(size_t from, size_t into, label_t elabel,
                             Direction dir) {
  Op op;
  op.kind = OpKind::kExpandInto;
  op.from_column = from;
  op.into_column = into;
  op.elabel = elabel;
  op.dir = dir;
  ops_.push_back(std::move(op));
}

void PlanBuilder::Select(ExprPtr predicate) {
  Op op;
  op.kind = OpKind::kSelect;
  op.exprs.push_back(std::move(predicate));
  ops_.push_back(std::move(op));
}

void PlanBuilder::Project(std::vector<ExprPtr> exprs,
                          std::vector<std::string> names) {
  FLEX_CHECK_EQ(exprs.size(), names.size());
  Op op;
  op.kind = OpKind::kProject;
  op.exprs = std::move(exprs);
  op.names = names;
  ops_.push_back(std::move(op));
  aliases_ = std::move(names);
}

void PlanBuilder::Order(std::vector<ExprPtr> keys, std::vector<bool> ascending,
                        size_t limit) {
  Op op;
  op.kind = OpKind::kOrder;
  op.exprs = std::move(keys);
  op.ascending = std::move(ascending);
  op.limit = limit;
  ops_.push_back(std::move(op));
}

void PlanBuilder::Group(std::vector<ExprPtr> keys,
                        std::vector<std::string> key_names,
                        std::vector<AggSpec> aggregates) {
  Op op;
  op.kind = OpKind::kGroup;
  op.exprs = std::move(keys);
  op.names = key_names;
  op.aggregates = std::move(aggregates);
  aliases_ = std::move(key_names);
  for (const AggSpec& agg : op.aggregates) aliases_.push_back(agg.name);
  ops_.push_back(std::move(op));
}

void PlanBuilder::Limit(size_t n) {
  Op op;
  op.kind = OpKind::kLimit;
  op.limit = n;
  ops_.push_back(std::move(op));
}

void PlanBuilder::Dedup(std::vector<size_t> key_columns) {
  Op op;
  op.kind = OpKind::kDedup;
  op.key_columns = std::move(key_columns);
  ops_.push_back(std::move(op));
}

void PlanBuilder::SetAlias(size_t col, std::string alias) {
  FLEX_CHECK_LT(col, aliases_.size());
  aliases_[col] = std::move(alias);
}

Plan PlanBuilder::Build() {
  Plan plan;
  plan.ops = std::move(ops_);
  plan.columns = std::move(aliases_);
  return plan;
}

}  // namespace flex::ir
