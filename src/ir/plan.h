#ifndef FLEX_IR_PLAN_H_
#define FLEX_IR_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "ir/expr.h"

namespace flex::ir {

/// GraphIR operator set Ω (§5.1): graph operators (SCAN, EXPAND_EDGE,
/// GET_VERTEX, fused EXPAND, EXPAND_INTO for closing pattern cycles) and
/// relational operators (SELECT, PROJECT, ORDER, GROUP, LIMIT, DEDUP).
enum class OpKind {
  kScan,        ///< Emit vertices of a label; appends a vertex column.
  kExpandEdge,  ///< Append the adjacent-edge column of a vertex column.
  kGetVertex,   ///< Append the other endpoint of an edge column.
  kExpand,      ///< Fused EXPAND_EDGE + GET_VERTEX (EdgeVertexFusion).
  kExpandVar,   ///< Variable-length path expansion (Cypher's -[:E*a..b]->).
  kExpandInto,  ///< Keep rows where an edge closes (from, into) columns.
  kSelect,      ///< Filter rows by predicate.
  kProject,     ///< Reshape the row to a list of expressions.
  kOrder,       ///< Sort (with optional top-k limit).
  kGroup,       ///< Group by keys, compute aggregates.
  kLimit,       ///< Keep the first n rows.
  kDedup,       ///< Distinct rows over given key columns.
  /// Fused SCAN + pushed-down SELECT (+ optional PROJECT): the predicate's
  /// pushable conjuncts are evaluated inside the storage scan loop, so
  /// filtered-out vertices are never materialized into a column. Produced
  /// only by the optimizer's FusePipelines pass (never by the front ends);
  /// reuses kScan's fields plus `exprs`/`names` for a fused projection.
  kFusedScan,
  /// Fused EXPAND + pushed-down SELECT: the neighbor predicate's pushable
  /// conjuncts are evaluated inside the batched adjacency visit before the
  /// neighbor enters the output batch. Reuses kExpand's fields.
  kFusedExpand,
};

const char* OpKindName(OpKind kind);

/// One aggregate inside a GROUP operator.
struct AggSpec {
  enum class Fn { kCount, kSum, kMin, kMax, kAvg, kCollect };
  Fn fn = Fn::kCount;
  ExprPtr arg;       ///< nullptr for COUNT(*).
  bool distinct = false;  ///< COUNT(DISTINCT x) etc.
  std::string name;  ///< Output column name.

  AggSpec Clone() const {
    AggSpec copy;
    copy.fn = fn;
    copy.arg = arg ? arg->Clone() : nullptr;
    copy.distinct = distinct;
    copy.name = name;
    return copy;
  }
};

/// `Op::limit` value meaning "no limit". LIMIT 0 is a real limit: it
/// keeps no rows.
inline constexpr size_t kNoLimit = static_cast<size_t>(-1);

/// One node of the (linearized) computational DAG.
struct Op {
  OpKind kind;

  // --- graph operators
  label_t label = kInvalidLabel;  ///< Scan vertex label.
  size_t from_column = 0;         ///< Expand source / GetVertex edge column.
  size_t origin_column = 0;       ///< GetVertex: the vertex we came from.
  label_t elabel = kInvalidLabel;
  Direction dir = Direction::kOut;
  size_t into_column = 0;  ///< ExpandInto: bound target column.
  size_t min_hops = 1;     ///< ExpandVar path-length bounds.
  size_t max_hops = 1;
  ExprPtr predicate;       ///< Pushed-down filter on the appended entry.
  /// Scan only: when set (by the optimizer's IndexScan rule), the scan
  /// resolves this expression and looks the vertex up through the GRIN
  /// oid index instead of enumerating the label.
  ExprPtr id_lookup;
  std::string alias;       ///< Name of the appended column ("" = anonymous).

  // --- relational operators
  std::vector<ExprPtr> exprs;        ///< Select pred [0] / project / keys.
  std::vector<std::string> names;    ///< Project / group-key output names.
  std::vector<bool> ascending;       ///< Order directions.
  std::vector<AggSpec> aggregates;   ///< Group aggregates.
  std::vector<size_t> key_columns;   ///< Dedup keys.
  size_t limit = kNoLimit;           ///< Order top-k / Limit n.

  Op Clone() const;
};

/// A compiled query: a chain of operators plus the resulting column names.
/// `columns` lists the output schema after the final operator.
struct Plan {
  std::vector<Op> ops;
  std::vector<std::string> columns;
  /// Optimizer cost annotation: the largest intermediate row count any
  /// operator is estimated to produce (catalog fan-outs × selectivities),
  /// or -1 when no catalog was available. EXPLAIN renders it.
  double estimated_peak_rows = -1.0;

  Plan Clone() const;
  /// One more than the highest $i any expression references; 0 when the
  /// plan takes no parameters.
  size_t ParamCount() const;
  std::string ToString() const;
  /// Multi-line EXPLAIN rendering: one numbered line per operator with
  /// labels resolved through `schema` (indices when null), predicates,
  /// pushed-down filter / residual split for fused operators, fused
  /// projections, and the final output columns.
  std::string DebugString(const GraphSchema* schema = nullptr) const;
};

/// kInvalidArgument when `plan` references more parameters than the
/// `num_params` supplied. Engines check it at admission, so a missing $i
/// never reaches expression evaluation.
Status CheckParams(const Plan& plan, size_t num_params);

/// Incremental plan construction with alias bookkeeping; used by both
/// language front ends so Gremlin and Cypher lower to identical IR.
class PlanBuilder {
 public:
  /// Current number of columns in the row.
  size_t width() const { return aliases_.size(); }

  /// Index of `alias`, or npos.
  static constexpr size_t kNoColumn = static_cast<size_t>(-1);
  size_t FindAlias(const std::string& alias) const;

  /// Appends ops; returns the new column index for appending ops.
  size_t Scan(std::string alias, label_t label, ExprPtr predicate = nullptr);
  size_t ExpandEdge(size_t from, label_t elabel, Direction dir,
                    std::string edge_alias, ExprPtr predicate = nullptr);
  /// `endpoint` selects which end of the edge: kBoth = the end other
  /// than origin_column's vertex (Cypher hop / Gremlin otherV), kOut =
  /// absolute destination (inV), kIn = absolute source (outV).
  size_t GetVertex(size_t edge_column, size_t origin_column,
                   std::string alias, label_t expected_label = kInvalidLabel,
                   ExprPtr predicate = nullptr,
                   Direction endpoint = Direction::kBoth);
  size_t Expand(size_t from, label_t elabel, Direction dir, std::string alias,
                label_t expected_label = kInvalidLabel,
                ExprPtr predicate = nullptr);
  /// Appends the endpoint of each path of length [min_hops, max_hops]
  /// along `elabel` edges (edges are not reused within one path, per
  /// Cypher's relationship-uniqueness rule).
  size_t ExpandVar(size_t from, label_t elabel, Direction dir,
                   size_t min_hops, size_t max_hops, std::string alias,
                   label_t expected_label = kInvalidLabel);
  void ExpandInto(size_t from, size_t into, label_t elabel, Direction dir);
  void Select(ExprPtr predicate);
  void Project(std::vector<ExprPtr> exprs, std::vector<std::string> names);
  void Order(std::vector<ExprPtr> keys, std::vector<bool> ascending,
             size_t limit = kNoLimit);
  void Group(std::vector<ExprPtr> keys, std::vector<std::string> key_names,
             std::vector<AggSpec> aggregates);
  void Limit(size_t n);
  void Dedup(std::vector<size_t> key_columns);

  /// Renames column `col` (Gremlin's .as("x") step).
  void SetAlias(size_t col, std::string alias);

  /// Finalizes the plan (moves it out).
  Plan Build();

 private:
  std::vector<Op> ops_;
  std::vector<std::string> aliases_;
};

}  // namespace flex::ir

#endif  // FLEX_IR_PLAN_H_
