#include "lang/cypher.h"

#include <optional>

#include "common/string_util.h"
#include "lang/lexer.h"

namespace flex::lang {

namespace {

using ir::BinOp;
using ir::Expr;
using ir::ExprPtr;

/// One projection item of a WITH / RETURN clause.
struct Item {
  bool is_aggregate = false;
  ir::AggSpec agg;
  ExprPtr expr;  // Non-aggregate payload.
  std::string name;
};

class CypherParser {
 public:
  CypherParser(TokenStream tokens, const GraphSchema& schema)
      : ts_(std::move(tokens)), schema_(schema) {}

  Result<ir::Plan> Parse() {
    bool saw_return = false;
    while (!ts_.AtEnd()) {
      if (ts_.TryKeyword("MATCH")) {
        FLEX_RETURN_NOT_OK(ParseMatch());
      } else if (ts_.TryKeyword("WHERE")) {
        FLEX_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
        builder_.Select(std::move(pred));
      } else if (ts_.TryKeyword("WITH")) {
        FLEX_RETURN_NOT_OK(ParseProjection(/*is_return=*/false));
      } else if (ts_.TryKeyword("RETURN")) {
        FLEX_RETURN_NOT_OK(ParseProjection(/*is_return=*/true));
        saw_return = true;
        break;
      } else {
        return Status::ParseError("unexpected token '" + ts_.Peek().text +
                                  "'");
      }
    }
    if (!saw_return) return Status::ParseError("query missing RETURN");
    if (!ts_.AtEnd() && !ts_.TryPunct(";")) {
      return Status::ParseError("trailing tokens after RETURN clause");
    }
    return builder_.Build();
  }

 private:
  // ------------------------------------------------------------ patterns

  struct NodePattern {
    std::string alias;
    label_t label = kInvalidLabel;
    ExprPtr props;  // Predicate over the node column (column set later).
  };

  Status ParseMatch() {
    FLEX_RETURN_NOT_OK(ParsePattern());
    while (ts_.TryPunct(",")) {
      FLEX_RETURN_NOT_OK(ParsePattern());
    }
    return Status::OK();
  }

  Status ParsePattern() {
    FLEX_ASSIGN_OR_RETURN(NodePattern node, ParseNode());
    size_t cur = ResolveOrScan(node);
    for (;;) {
      Direction dir;
      if (ts_.TryPunct("<-")) {
        dir = Direction::kIn;
      } else if (ts_.TryPunct("-")) {
        dir = Direction::kBoth;  // Provisional; fixed by the arrowhead.
      } else {
        break;
      }
      FLEX_RETURN_NOT_OK(ts_.ExpectPunct("["));
      std::string edge_alias;
      if (ts_.Peek().kind == TokKind::kIdent && ts_.Peek(1).text == ":") {
        edge_alias = ts_.Next().text;
      }
      FLEX_RETURN_NOT_OK(ts_.ExpectPunct(":"));
      FLEX_ASSIGN_OR_RETURN(std::string type, ts_.ExpectIdent());
      FLEX_ASSIGN_OR_RETURN(label_t elabel, schema_.FindEdgeLabel(type));
      // Variable-length pattern: [:TYPE*min..max] (default *1..1).
      size_t min_hops = 1, max_hops = 1;
      bool variable = false;
      if (ts_.TryPunct("*")) {
        variable = true;
        min_hops = 1;
        max_hops = 1;
        if (ts_.Peek().kind == TokKind::kInt) {
          min_hops = static_cast<size_t>(ts_.Next().int_value);
          max_hops = min_hops;
        }
        if (ts_.TryPunct(".")) {
          FLEX_RETURN_NOT_OK(ts_.ExpectPunct("."));
          if (ts_.Peek().kind != TokKind::kInt) {
            return Status::ParseError("expected upper bound after ..");
          }
          max_hops = static_cast<size_t>(ts_.Next().int_value);
        }
        if (min_hops > max_hops || max_hops == 0 || max_hops > 10) {
          return Status::ParseError("unsupported path bounds");
        }
      }
      FLEX_RETURN_NOT_OK(ts_.ExpectPunct("]"));
      if (dir == Direction::kIn) {
        FLEX_RETURN_NOT_OK(ts_.ExpectPunct("-"));
      } else if (ts_.TryPunct("->")) {
        dir = Direction::kOut;
      } else {
        FLEX_RETURN_NOT_OK(ts_.ExpectPunct("-"));
      }
      FLEX_ASSIGN_OR_RETURN(NodePattern target, ParseNode());

      if (variable) {
        if (!edge_alias.empty()) {
          return Status::Unimplemented(
              "named variable-length relationships");
        }
        if (builder_.FindAlias(target.alias) != ir::PlanBuilder::kNoColumn) {
          return Status::Unimplemented(
              "variable-length relationship into a bound vertex");
        }
        cur = builder_.ExpandVar(cur, elabel, dir, min_hops, max_hops,
                                 target.alias, target.label);
        if (target.props != nullptr) {
          target.props->RemapColumns(MappingTo(cur));
          builder_.Select(std::move(target.props));
        }
        continue;
      }

      const size_t bound = builder_.FindAlias(target.alias);
      if (bound != ir::PlanBuilder::kNoColumn) {
        if (!edge_alias.empty()) {
          return Status::Unimplemented(
              "named relationship into an already-bound vertex");
        }
        builder_.ExpandInto(cur, bound, elabel, dir);
        if (target.props != nullptr) {
          target.props->RemapColumns(MappingTo(bound));
          builder_.Select(std::move(target.props));
        }
        cur = bound;
      } else {
        const size_t edge_col =
            builder_.ExpandEdge(cur, elabel, dir, edge_alias);
        cur = builder_.GetVertex(edge_col, cur, target.alias, target.label);
        if (target.props != nullptr) {
          // Node-prop filters stay explicit SELECTs in the logical plan
          // (Figure 5); FilterPushIntoMatch merges them back in.
          target.props->RemapColumns(MappingTo(cur));
          builder_.Select(std::move(target.props));
        }
      }
    }
    return Status::OK();
  }

  /// Resolves the pattern head: reuse a bound alias or emit a SCAN. Prop
  /// filters lower to explicit SELECTs (optimizer pushes them back down).
  size_t ResolveOrScan(NodePattern& node) {
    size_t col = builder_.FindAlias(node.alias);
    if (col == ir::PlanBuilder::kNoColumn) {
      col = builder_.Scan(node.alias, node.label);
    }
    if (node.props != nullptr) {
      node.props->RemapColumns(MappingTo(col));
      builder_.Select(std::move(node.props));
    }
    return col;
  }

  /// Node-prop predicates are built with a placeholder column 0; remap to
  /// the actual column once known.
  static std::vector<size_t> MappingTo(size_t column) { return {column}; }

  Result<NodePattern> ParseNode() {
    NodePattern node;
    FLEX_RETURN_NOT_OK(ts_.ExpectPunct("("));
    if (ts_.Peek().kind == TokKind::kIdent) {
      node.alias = ts_.Next().text;
    }
    if (ts_.TryPunct(":")) {
      FLEX_ASSIGN_OR_RETURN(std::string label, ts_.ExpectIdent());
      FLEX_ASSIGN_OR_RETURN(node.label, schema_.FindVertexLabel(label));
    }
    if (ts_.TryPunct("{")) {
      // {p1: lit, p2: lit} — conjunction over the (future) node column.
      ExprPtr pred;
      for (;;) {
        FLEX_ASSIGN_OR_RETURN(std::string prop, ts_.ExpectIdent());
        FLEX_RETURN_NOT_OK(ts_.ExpectPunct(":"));
        FLEX_ASSIGN_OR_RETURN(ExprPtr value, ParsePrimary());
        ExprPtr lhs = EqualsIgnoreCase(prop, "id")
                          ? Expr::VertexId(0)
                          : Expr::Property(0, prop);
        FLEX_ASSIGN_OR_RETURN(
            ExprPtr eq,
            Checked(Expr::Binary(BinOp::kEq, std::move(lhs), std::move(value))));
        if (pred == nullptr) {
          pred = std::move(eq);
        } else {
          FLEX_ASSIGN_OR_RETURN(pred, Checked(Expr::Binary(BinOp::kAnd,
                                                           std::move(pred),
                                                           std::move(eq))));
        }
        if (!ts_.TryPunct(",")) break;
      }
      FLEX_RETURN_NOT_OK(ts_.ExpectPunct("}"));
      node.props = std::move(pred);
    }
    FLEX_RETURN_NOT_OK(ts_.ExpectPunct(")"));
    return node;
  }

  // --------------------------------------------------------- projections

  Status ParseProjection(bool is_return) {
    std::vector<Item> items;
    for (;;) {
      FLEX_ASSIGN_OR_RETURN(Item item, ParseItem());
      items.push_back(std::move(item));
      if (!ts_.TryPunct(",")) break;
    }
    bool any_agg = false;
    for (const Item& item : items) any_agg |= item.is_aggregate;

    if (any_agg) {
      std::vector<ExprPtr> keys;
      std::vector<std::string> key_names;
      std::vector<ir::AggSpec> aggs;
      for (Item& item : items) {
        if (item.is_aggregate) {
          item.agg.name = item.name;
          aggs.push_back(std::move(item.agg));
        } else {
          keys.push_back(std::move(item.expr));
          key_names.push_back(item.name);
        }
      }
      // Cypher output order (keys before aggregates) is preserved only
      // when keys precede aggregates in the item list, which all the
      // reproduced workloads satisfy.
      builder_.Group(std::move(keys), std::move(key_names), std::move(aggs));
    } else {
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (Item& item : items) {
        exprs.push_back(std::move(item.expr));
        names.push_back(item.name);
      }
      builder_.Project(std::move(exprs), std::move(names));
    }

    if (is_return) {
      if (ts_.TryKeyword("ORDER")) {
        if (!ts_.TryKeyword("BY")) {
          return Status::ParseError("expected BY after ORDER");
        }
        std::vector<ExprPtr> keys;
        std::vector<bool> ascending;
        for (;;) {
          FLEX_ASSIGN_OR_RETURN(ExprPtr key, ParseExpr());
          keys.push_back(std::move(key));
          bool asc = true;
          if (ts_.TryKeyword("DESC")) {
            asc = false;
          } else {
            ts_.TryKeyword("ASC");
          }
          ascending.push_back(asc);
          if (!ts_.TryPunct(",")) break;
        }
        size_t limit = ir::kNoLimit;
        if (ts_.TryKeyword("LIMIT")) {
          if (ts_.Peek().kind != TokKind::kInt) {
            return Status::ParseError("expected integer LIMIT");
          }
          limit = static_cast<size_t>(ts_.Next().int_value);
        }
        builder_.Order(std::move(keys), std::move(ascending), limit);
      } else if (ts_.TryKeyword("LIMIT")) {
        if (ts_.Peek().kind != TokKind::kInt) {
          return Status::ParseError("expected integer LIMIT");
        }
        builder_.Limit(static_cast<size_t>(ts_.Next().int_value));
      }
    } else if (ts_.TryKeyword("WHERE")) {
      // WITH ... WHERE: post-aggregation filter (the fraud query's
      // weighted-threshold check).
      FLEX_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
      builder_.Select(std::move(pred));
    }
    return Status::OK();
  }

  Result<Item> ParseItem() {
    Item item;
    // Aggregate call?
    static const std::pair<const char*, ir::AggSpec::Fn> kAggs[] = {
        {"count", ir::AggSpec::Fn::kCount}, {"sum", ir::AggSpec::Fn::kSum},
        {"min", ir::AggSpec::Fn::kMin},     {"max", ir::AggSpec::Fn::kMax},
        {"avg", ir::AggSpec::Fn::kAvg},
        {"collect", ir::AggSpec::Fn::kCollect}};
    if (ts_.Peek().kind == TokKind::kIdent && ts_.Peek(1).text == "(") {
      for (const auto& [name, fn] : kAggs) {
        if (EqualsIgnoreCase(ts_.Peek().text, name)) {
          item.is_aggregate = true;
          item.agg.fn = fn;
          item.name = ToLower(ts_.Peek().text);
          ts_.Next();
          ts_.Next();  // '('.
          if (ts_.TryKeyword("DISTINCT")) item.agg.distinct = true;
          if (!ts_.TryPunct("*")) {
            FLEX_ASSIGN_OR_RETURN(item.agg.arg, ParseExpr());
          } else if (item.agg.distinct) {
            return Status::ParseError("COUNT(DISTINCT *) is not a thing");
          }
          FLEX_RETURN_NOT_OK(ts_.ExpectPunct(")"));
          break;
        }
      }
    }
    if (!item.is_aggregate) {
      // Derive a default name before consuming tokens.
      const Token& head = ts_.Peek();
      std::string default_name = head.text;
      if (ts_.Peek(1).text == "." && ts_.Peek(2).kind == TokKind::kIdent) {
        default_name += "." + ts_.Peek(2).text;
      }
      FLEX_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      item.name = default_name;
    }
    if (ts_.TryKeyword("AS")) {
      FLEX_ASSIGN_OR_RETURN(item.name, ts_.ExpectIdent());
    }
    return item;
  }

  // --------------------------------------------------------- expressions

  // Expression height is bounded by ir::kMaxQueryDepth: the nesting levels
  // open in the parser (each parenthesized subexpression and each NOT)
  // plus the height of the tree being built. The first bounds the parser's
  // recursion; the second stops a flat operator chain as it grows, before
  // its tree is deep enough to overflow the stack that evaluates or
  // destroys it.

  static Status TooDeep() {
    return Status::ParseError("expression deeper than " +
                              std::to_string(ir::kMaxQueryDepth) + " levels");
  }

  /// Opens one nesting level, or fails past the bound. A caller closes its
  /// level once its subexpression parsed; an error ends the whole parse,
  /// so a failed level is never closed.
  Status Nest() {
    return ++depth_ <= ir::kMaxQueryDepth ? Status::OK() : TooDeep();
  }

  /// `expr`, or an error once it and the open levels pass the bound.
  Result<ExprPtr> Checked(ExprPtr expr) const {
    if (depth_ + expr->height() > ir::kMaxQueryDepth) return TooDeep();
    return expr;
  }

  Result<ExprPtr> ParseExpr() {
    FLEX_RETURN_NOT_OK(Nest());
    FLEX_ASSIGN_OR_RETURN(ExprPtr expr, ParseOr());
    --depth_;
    return expr;
  }

  Result<ExprPtr> ParseOr() {
    FLEX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (ts_.TryKeyword("OR")) {
      FLEX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      FLEX_ASSIGN_OR_RETURN(
          lhs, Checked(Expr::Binary(BinOp::kOr, std::move(lhs),
                                    std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    FLEX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (ts_.TryKeyword("AND")) {
      FLEX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      FLEX_ASSIGN_OR_RETURN(
          lhs, Checked(Expr::Binary(BinOp::kAnd, std::move(lhs),
                                    std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (ts_.TryKeyword("NOT")) {
      FLEX_RETURN_NOT_OK(Nest());
      FLEX_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      --depth_;
      return Checked(Expr::Not(std::move(inner)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    FLEX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    static const std::pair<const char*, BinOp> kOps[] = {
        {"=", BinOp::kEq},  {"<>", BinOp::kNe}, {"!=", BinOp::kNe},
        {"<=", BinOp::kLe}, {">=", BinOp::kGe}, {"<", BinOp::kLt},
        {">", BinOp::kGt}};
    for (const auto& [text, op] : kOps) {
      if (ts_.TryPunct(text)) {
        FLEX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return Checked(Expr::Binary(op, std::move(lhs), std::move(rhs)));
      }
    }
    if (ts_.TryKeyword("IN")) {
      FLEX_RETURN_NOT_OK(ts_.ExpectPunct("["));
      std::vector<PropertyValue> values;
      if (!ts_.TryPunct("]")) {
        for (;;) {
          FLEX_ASSIGN_OR_RETURN(PropertyValue v, ParseLiteral());
          values.push_back(std::move(v));
          if (!ts_.TryPunct(",")) break;
        }
        FLEX_RETURN_NOT_OK(ts_.ExpectPunct("]"));
      }
      return Checked(Expr::In(std::move(lhs), std::move(values)));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    FLEX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    for (;;) {
      BinOp op;
      if (ts_.TryPunct("+")) {
        op = BinOp::kAdd;
      } else if (ts_.TryPunct("-")) {
        op = BinOp::kSub;
      } else {
        return lhs;
      }
      FLEX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      FLEX_ASSIGN_OR_RETURN(
          lhs, Checked(Expr::Binary(op, std::move(lhs), std::move(rhs))));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    FLEX_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePrimary());
    for (;;) {
      BinOp op;
      if (ts_.TryPunct("*")) {
        op = BinOp::kMul;
      } else if (ts_.TryPunct("/")) {
        op = BinOp::kDiv;
      } else {
        return lhs;
      }
      FLEX_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePrimary());
      FLEX_ASSIGN_OR_RETURN(
          lhs, Checked(Expr::Binary(op, std::move(lhs), std::move(rhs))));
    }
  }

  Result<PropertyValue> ParseLiteral() {
    const Token& tok = ts_.Next();
    switch (tok.kind) {
      case TokKind::kInt:
        return PropertyValue(tok.int_value);
      case TokKind::kFloat:
        return PropertyValue(tok.float_value);
      case TokKind::kString:
        return PropertyValue(tok.text);
      case TokKind::kIdent:
        if (EqualsIgnoreCase(tok.text, "true")) return PropertyValue(true);
        if (EqualsIgnoreCase(tok.text, "false")) return PropertyValue(false);
        if (EqualsIgnoreCase(tok.text, "null")) return PropertyValue();
        return Status::ParseError("expected literal, got '" + tok.text + "'");
      default:
        return Status::ParseError("expected literal, got '" + tok.text + "'");
    }
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = ts_.Peek();
    switch (tok.kind) {
      case TokKind::kInt:
        ts_.Next();
        return Expr::Const(PropertyValue(tok.int_value));
      case TokKind::kFloat:
        ts_.Next();
        return Expr::Const(PropertyValue(tok.float_value));
      case TokKind::kString:
        ts_.Next();
        return Expr::Const(PropertyValue(tok.text));
      case TokKind::kParam:
        ts_.Next();
        return Expr::Param(static_cast<size_t>(tok.int_value));
      case TokKind::kPunct:
        if (ts_.TryPunct("(")) {
          FLEX_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          FLEX_RETURN_NOT_OK(ts_.ExpectPunct(")"));
          return inner;
        }
        return Status::ParseError("unexpected '" + tok.text + "'");
      case TokKind::kIdent: {
        if (EqualsIgnoreCase(tok.text, "true") ||
            EqualsIgnoreCase(tok.text, "false") ||
            EqualsIgnoreCase(tok.text, "null")) {
          return Expr::Const(ParseLiteral().value());
        }
        // Function forms: id(x), label(x).
        if (ts_.Peek(1).text == "(" &&
            (EqualsIgnoreCase(tok.text, "id") ||
             EqualsIgnoreCase(tok.text, "label"))) {
          const bool is_id = EqualsIgnoreCase(tok.text, "id");
          ts_.Next();
          ts_.Next();
          FLEX_ASSIGN_OR_RETURN(std::string alias, ts_.ExpectIdent());
          FLEX_RETURN_NOT_OK(ts_.ExpectPunct(")"));
          FLEX_ASSIGN_OR_RETURN(size_t col, ResolveAlias(alias));
          return is_id ? Expr::VertexId(col) : Expr::LabelName(col);
        }
        ts_.Next();
        const size_t col = builder_.FindAlias(tok.text);
        if (col == ir::PlanBuilder::kNoColumn) {
          // After a projection, "a.b" may name an output column rather
          // than a property access (ORDER BY b.username after RETURN
          // b.username).
          if (ts_.Peek().text == "." &&
              ts_.Peek(1).kind == TokKind::kIdent) {
            const std::string dotted = tok.text + "." + ts_.Peek(1).text;
            const size_t dotted_col = builder_.FindAlias(dotted);
            if (dotted_col != ir::PlanBuilder::kNoColumn) {
              ts_.Next();
              ts_.Next();
              return Expr::Column(dotted_col);
            }
          }
          return Status::ParseError("unknown variable '" + tok.text + "'");
        }
        if (ts_.TryPunct(".")) {
          FLEX_ASSIGN_OR_RETURN(std::string prop, ts_.ExpectIdent());
          if (EqualsIgnoreCase(prop, "id")) return Expr::VertexId(col);
          return Expr::Property(col, prop);
        }
        return Expr::Column(col);
      }
      default:
        return Status::ParseError("unexpected end of expression");
    }
  }

  Result<size_t> ResolveAlias(const std::string& alias) {
    const size_t col = builder_.FindAlias(alias);
    if (col == ir::PlanBuilder::kNoColumn) {
      return Status::ParseError("unknown variable '" + alias + "'");
    }
    return col;
  }

  TokenStream ts_;
  const GraphSchema& schema_;
  ir::PlanBuilder builder_;
  size_t depth_ = 0;  ///< Expression nesting levels currently open.
};

}  // namespace

Result<ir::Plan> ParseCypher(const std::string& query,
                             const GraphSchema& schema) {
  FLEX_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  CypherParser parser(TokenStream(std::move(tokens)), schema);
  return parser.Parse();
}

}  // namespace flex::lang
