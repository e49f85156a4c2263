#ifndef FLEX_IR_EXPR_H_
#define FLEX_IR_EXPR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "grin/grin.h"
#include "ir/batch.h"
#include "ir/row.h"

namespace flex::ir {

/// The deepest query the front ends accept: how high an expression tree
/// may grow while it is parsed (each open parenthesis and NOT, and each
/// chained binary operator, adds a level) and how many operators a plan may
/// hold. Evaluating, cloning and destroying an Expr recurse once per level,
/// and the streaming reference recurses once per operator, so this bound
/// keeps query text from overflowing the stack.
inline constexpr size_t kMaxQueryDepth = 256;

/// Expression tree evaluated against one row (plus the graph for property
/// dereferences and query parameters for stored procedures).
class Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kConst,      ///< Literal value.
  kParam,      ///< $i placeholder bound at execution (stored procedures).
  kColumn,     ///< The column entry itself (vertex/edge/value).
  kProperty,   ///< column.property — dereferences via GRIN.
  kVertexId,   ///< id(column): external oid of a vertex column.
  kLabelName,  ///< label(column).
  kBinary,
  kNot,
  kIn,         ///< lhs IN (v1, v2, ...).
};

enum class BinOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv,
  kAnd, kOr,
};

class Expr {
 public:
  // ---- factories
  static ExprPtr Const(PropertyValue value);
  static ExprPtr Param(size_t index);
  static ExprPtr Column(size_t column);
  static ExprPtr Property(size_t column, std::string property);
  static ExprPtr VertexId(size_t column);
  static ExprPtr LabelName(size_t column);
  static ExprPtr Binary(BinOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr inner);
  static ExprPtr In(ExprPtr lhs, std::vector<PropertyValue> values);

  /// Evaluates against `row`; property access goes through `graph`.
  /// `params` supplies $i placeholders (may be empty when unused).
  PropertyValue Eval(const Row& row, const grin::GrinGraph& graph,
                     const std::vector<PropertyValue>& params) const;

  /// Truthiness of Eval (empty/false/0 are false).
  bool EvalBool(const Row& row, const grin::GrinGraph& graph,
                const std::vector<PropertyValue>& params) const;

  /// Batch evaluation: resizes `out` to rows.size() and fills
  /// out[i] = Eval(row at physical index rows[i] of `batch`). Semantics are
  /// identical to the scalar Eval (expressions are side-effect-free);
  /// property dereferences over vertex columns go through the batched GRIN
  /// accessor, one call per contiguous same-label run.
  void EvalBatch(const Batch& batch, std::span<const uint32_t> rows,
                 const grin::GrinGraph& graph,
                 const std::vector<PropertyValue>& params,
                 std::vector<PropertyValue>* out) const;

  /// Truthiness per row (out[i] != 0 iff the row passes). AND/OR evaluate
  /// their right side only on the rows the left side did not decide,
  /// mirroring the scalar short-circuit.
  void EvalBoolBatch(const Batch& batch, std::span<const uint32_t> rows,
                     const grin::GrinGraph& graph,
                     const std::vector<PropertyValue>& params,
                     std::vector<char>* out) const;

  ExprKind kind() const { return kind_; }
  /// Levels in this tree: 1 for a leaf, else one more than its higher
  /// operand.
  size_t height() const { return height_; }
  size_t column() const { return column_; }
  const std::string& property() const { return property_; }
  BinOp bin_op() const { return op_; }
  const Expr* lhs() const { return lhs_.get(); }
  const Expr* rhs() const { return rhs_.get(); }
  /// Valid for kConst only.
  const PropertyValue& const_value() const { return value_; }
  /// Valid for kParam only.
  size_t param_index() const { return param_index_; }

  /// Cypher-ish rendering for EXPLAIN output ("_N" names column N;
  /// constants render via PropertyValue::ToString).
  std::string ToString() const;

  /// All column indices this expression references (for optimizer rules).
  void CollectColumns(std::vector<size_t>* out) const;

  /// Searches the AND-tree for a conjunct of the form
  /// `id(column) == <value>` (either operand order) where `<value>` is a
  /// constant or parameter; on success clones the value into `*value`.
  bool FindIdEquality(size_t column, ExprPtr* value) const;

  /// The residual predicate after the IndexScan rule consumes the first
  /// `id(column) == <value>` conjunct (FindIdEquality's search order):
  /// the remaining conjuncts re-ANDed in order, or nullptr when the id
  /// equality was the whole predicate. The oid lookup already guarantees
  /// the dropped conjunct, so scans must not re-evaluate it per row.
  ExprPtr WithoutIdEquality(size_t column) const;

  /// Deep copy.
  ExprPtr Clone() const;

  /// Rewrites column references through `mapping` (old index -> new
  /// index); used when PROJECT reshapes the row. Unmapped columns keep
  /// their index.
  void RemapColumns(const std::vector<size_t>& mapping);

 private:
  Expr() = default;

  PropertyValue EvalProperty(const Row& row,
                             const grin::GrinGraph& graph) const;
  void EvalPropertyBatch(const Batch& batch, std::span<const uint32_t> rows,
                         const grin::GrinGraph& graph,
                         std::vector<PropertyValue>* out) const;

  ExprKind kind_ = ExprKind::kConst;
  uint32_t height_ = 1;
  PropertyValue value_;
  size_t param_index_ = 0;
  size_t column_ = 0;
  std::string property_;
  BinOp op_ = BinOp::kEq;
  ExprPtr lhs_;
  ExprPtr rhs_;
  std::vector<PropertyValue> in_values_;
};

/// The pushdown split of one AND-tree predicate over the column an
/// operator appends: `filter` holds the conjuncts a GRIN backend can
/// evaluate inside its scan loop (`Property(column, name) cmp
/// const-or-param`, either operand order, against a known vertex label);
/// `residual` holds everything else, to be evaluated by the interpreter on
/// materialized rows. Evaluating `filter` then requiring every residual
/// conjunct Truthy is exactly equivalent to evaluating the original
/// predicate (conjuncts are pure, so order does not matter).
struct PushdownSplit {
  grin::VertexFilter filter;
  /// The conjunct exprs behind filter.conditions, index-aligned (EXPLAIN
  /// rendering; pointers into the analyzed predicate tree).
  std::vector<const Expr*> pushed;
  std::vector<const Expr*> residual;
};

/// Splits `pred` (the predicate an op with appended column `column` and
/// vertex label `label` carries) into pushable and residual conjuncts.
/// Property names resolve through `schema` exactly as Expr::EvalProperty
/// would for a `label` vertex (unresolvable names become
/// VertexCondition::kNoColumn — the missing-property empty value, not an
/// error). When `params` is null the split is structural only: kParam
/// comparison values are left empty in the filter (legality analysis and
/// EXPLAIN; do not execute such a filter).
PushdownSplit SplitPushdown(const Expr& pred, size_t column, label_t label,
                            const GraphSchema& schema,
                            const std::vector<PropertyValue>* params);

}  // namespace flex::ir

#endif  // FLEX_IR_EXPR_H_
