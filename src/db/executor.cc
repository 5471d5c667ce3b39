// Query execution for Database::Execute: a scan-or-index-scan planner,
// residual filtering, grouping/aggregation, ordering and projection.
// Its row finder (Database::FindRows) also serves DeleteWhere and
// UpdateWhere.

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "db/database.h"
#include "db/query.h"

namespace edadb {

namespace {

/// Flattens an AND tree into its conjuncts.
void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*expr);
    if (bin.op() == BinaryOp::kAnd) {
      CollectConjuncts(bin.left(), out);
      CollectConjuncts(bin.right(), out);
      return;
    }
  }
  out->push_back(expr);
}

/// A single-column range usable with a B+tree index.
struct IndexBound {
  std::string column;
  std::optional<Value> lo;
  bool lo_inclusive = true;
  std::optional<Value> hi;
  bool hi_inclusive = true;
};

/// Recognizes `col <cmp> literal`, `literal <cmp> col`, and
/// `col BETWEEN lit AND lit`.
std::optional<IndexBound> ExtractBound(const Expr& expr) {
  if (expr.kind() == ExprKind::kBetween) {
    const auto& between = static_cast<const BetweenExpr&>(expr);
    if (between.negated()) return std::nullopt;
    if (between.operand()->kind() != ExprKind::kColumn ||
        between.low()->kind() != ExprKind::kLiteral ||
        between.high()->kind() != ExprKind::kLiteral) {
      return std::nullopt;
    }
    IndexBound bound;
    bound.column =
        static_cast<const ColumnExpr&>(*between.operand()).name();
    bound.lo = static_cast<const LiteralExpr&>(*between.low()).value();
    bound.hi = static_cast<const LiteralExpr&>(*between.high()).value();
    return bound;
  }
  if (expr.kind() != ExprKind::kBinary) return std::nullopt;
  const auto& bin = static_cast<const BinaryExpr&>(expr);
  BinaryOp op = bin.op();
  const Expr* col = bin.left().get();
  const Expr* lit = bin.right().get();
  if (col->kind() == ExprKind::kLiteral && lit->kind() == ExprKind::kColumn) {
    std::swap(col, lit);
    // Mirror the comparison: 5 < x  ==  x > 5.
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;
    }
  }
  if (col->kind() != ExprKind::kColumn || lit->kind() != ExprKind::kLiteral) {
    return std::nullopt;
  }
  const Value& v = static_cast<const LiteralExpr&>(*lit).value();
  if (v.is_null()) return std::nullopt;
  IndexBound bound;
  bound.column = static_cast<const ColumnExpr&>(*col).name();
  switch (op) {
    case BinaryOp::kEq:
      bound.lo = v;
      bound.hi = v;
      return bound;
    case BinaryOp::kLt:
      bound.hi = v;
      bound.hi_inclusive = false;
      return bound;
    case BinaryOp::kLe:
      bound.hi = v;
      return bound;
    case BinaryOp::kGt:
      bound.lo = v;
      bound.lo_inclusive = false;
      return bound;
    case BinaryOp::kGe:
      bound.lo = v;
      return bound;
    default:
      return std::nullopt;
  }
}

/// Per-aggregate accumulator.
struct Accumulator {
  int64_t count = 0;
  int64_t int_sum = 0;
  double double_sum = 0;
  bool all_int = true;
  Value min_value;
  Value max_value;
  bool has_extreme = false;

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.type() == ValueType::kInt64) {
      int_sum += v.int64_value();
      double_sum += static_cast<double>(v.int64_value());
    } else {
      auto d = v.AsDouble();
      if (d.ok()) double_sum += *d;
      all_int = false;
    }
    if (!has_extreme) {
      min_value = v;
      max_value = v;
      has_extreme = true;
    } else {
      if (Value::CompareTotalOrder(v, min_value) < 0) min_value = v;
      if (Value::CompareTotalOrder(v, max_value) > 0) max_value = v;
    }
  }
};

Value FinishAggregate(const Aggregate& agg, const Accumulator& acc,
                      int64_t group_rows) {
  switch (agg.func) {
    case Aggregate::Func::kCount:
      return Value::Int64(agg.column.empty() ? group_rows : acc.count);
    case Aggregate::Func::kSum:
      if (acc.count == 0) return Value::Null();
      return acc.all_int ? Value::Int64(acc.int_sum)
                         : Value::Double(acc.double_sum);
    case Aggregate::Func::kAvg:
      if (acc.count == 0) return Value::Null();
      return Value::Double(acc.double_sum /
                           static_cast<double>(acc.count));
    case Aggregate::Func::kMin:
      return acc.has_extreme ? acc.min_value : Value::Null();
    case Aggregate::Func::kMax:
      return acc.has_extreme ? acc.max_value : Value::Null();
  }
  return Value::Null();
}

ValueType AggregateResultType(const Aggregate& agg, const Schema& schema) {
  switch (agg.func) {
    case Aggregate::Func::kCount:
      return ValueType::kInt64;
    case Aggregate::Func::kAvg:
      return ValueType::kDouble;
    case Aggregate::Func::kSum: {
      auto t = schema.FieldType(agg.column);
      return t.ok() && *t == ValueType::kInt64 ? ValueType::kInt64
                                               : ValueType::kDouble;
    }
    case Aggregate::Func::kMin:
    case Aggregate::Func::kMax: {
      auto t = schema.FieldType(agg.column);
      return t.ok() ? *t : ValueType::kNull;
    }
  }
  return ValueType::kNull;
}

Status SortRecords(std::vector<Record>* rows,
                   const std::vector<OrderBy>& order_by) {
  for (const OrderBy& term : order_by) {
    if (!rows->empty() &&
        (*rows)[0].schema()->FieldIndex(term.column) < 0) {
      return Status::NotFound("ORDER BY column '" + term.column + "'");
    }
  }
  std::stable_sort(rows->begin(), rows->end(),
                   [&](const Record& a, const Record& b) {
                     for (const OrderBy& term : order_by) {
                       const int idx = a.schema()->FieldIndex(term.column);
                       const int c = Value::CompareTotalOrder(
                           a.value(static_cast<size_t>(idx)),
                           b.value(static_cast<size_t>(idx)));
                       if (c != 0) return term.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return Status::OK();
}

/// How a WHERE reaches its rows: a range scan of the index on the first
/// conjunct that bounds an indexed column, else (`index` null) a full
/// scan. The row finder and Explain both take it from ChooseAccessPath.
struct AccessPath {
  const BTreeIndex* index = nullptr;
  IndexBound bound;
  size_t conjuncts = 0;
};

AccessPath ChooseAccessPath(const Table& table, const ExprPtr& where) {
  AccessPath path;
  if (where == nullptr) return path;
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(where, &conjuncts);
  path.conjuncts = conjuncts.size();
  for (const ExprPtr& conjunct : conjuncts) {
    auto bound = ExtractBound(*conjunct);
    if (!bound.has_value()) continue;
    const BTreeIndex* index = table.GetIndex(bound->column);
    if (index == nullptr) continue;
    path.index = index;
    path.bound = *std::move(bound);
    break;
  }
  return path;
}

Result<QueryResult> Aggregate_(const Schema& schema, const Query& query,
                               std::vector<Record> input) {
  // Output schema: group-by columns then aggregate aliases.
  std::vector<Field> fields;
  for (const std::string& col : query.group_by) {
    EDADB_ASSIGN_OR_RETURN(ValueType type, schema.FieldType(col));
    fields.emplace_back(col, type);
  }
  for (const Aggregate& agg : query.aggregates) {
    if (agg.func != Aggregate::Func::kCount) {
      if (schema.FieldIndex(agg.column) < 0) {
        return Status::NotFound("aggregate column '" + agg.column + "'");
      }
    }
    fields.emplace_back(
        agg.alias.empty()
            ? std::string(Aggregate::FuncName(agg.func))
            : agg.alias,
        AggregateResultType(agg, schema));
  }
  SchemaPtr out_schema = Schema::Make(std::move(fields));

  struct Group {
    std::vector<Value> keys;
    std::vector<Accumulator> accs;
    int64_t rows = 0;
  };
  std::unordered_map<std::string, size_t> group_index;
  std::vector<Group> groups;

  for (const Record& record : input) {
    std::string key;
    std::vector<Value> key_values;
    for (const std::string& col : query.group_by) {
      EDADB_ASSIGN_OR_RETURN(Value v, record.Get(col));
      v.EncodeTo(&key);
      key_values.push_back(std::move(v));
    }
    auto [it, inserted] = group_index.emplace(key, groups.size());
    if (inserted) {
      Group g;
      g.keys = std::move(key_values);
      g.accs.resize(query.aggregates.size());
      groups.push_back(std::move(g));
    }
    Group& group = groups[it->second];
    ++group.rows;
    for (size_t i = 0; i < query.aggregates.size(); ++i) {
      const Aggregate& agg = query.aggregates[i];
      if (agg.func == Aggregate::Func::kCount && agg.column.empty()) {
        continue;  // Row count handled by group.rows.
      }
      EDADB_ASSIGN_OR_RETURN(Value v, record.Get(agg.column));
      group.accs[i].Add(v);
    }
  }

  // SQL: aggregates with no GROUP BY produce one row even on no input.
  if (groups.empty() && query.group_by.empty()) {
    Group g;
    g.accs.resize(query.aggregates.size());
    groups.push_back(std::move(g));
  }

  QueryResult result;
  result.schema = out_schema;
  result.rows.reserve(groups.size());
  for (const Group& group : groups) {
    std::vector<Value> values = group.keys;
    for (size_t i = 0; i < query.aggregates.size(); ++i) {
      values.push_back(
          FinishAggregate(query.aggregates[i], group.accs[i], group.rows));
    }
    result.rows.emplace_back(out_schema, std::move(values));
  }
  return result;
}

Result<QueryResult> Project(const SchemaPtr& schema, const Query& query,
                            std::vector<Record> input) {
  if (query.select.empty()) {
    QueryResult result;
    result.schema = schema;
    result.rows = std::move(input);
    return result;
  }
  std::vector<Field> fields;
  std::vector<int> source_idx;
  for (const std::string& col : query.select) {
    const int idx = schema->FieldIndex(col);
    if (idx < 0) return Status::NotFound("SELECT column '" + col + "'");
    fields.push_back(schema->field(static_cast<size_t>(idx)));
    source_idx.push_back(idx);
  }
  SchemaPtr out_schema = Schema::Make(std::move(fields));
  QueryResult result;
  result.schema = out_schema;
  result.rows.reserve(input.size());
  for (const Record& record : input) {
    std::vector<Value> values;
    values.reserve(source_idx.size());
    for (const int idx : source_idx) {
      values.push_back(record.value(static_cast<size_t>(idx)));
    }
    result.rows.emplace_back(out_schema, std::move(values));
  }
  return result;
}

}  // namespace

Result<std::string> Database::Explain(const Query& query) const {
  // Examined in place: the query carries the parse error as data, and
  // the copy returned is what the caller now owes a look.
  if (!query.build_error.ok()) return query.build_error;
  std::shared_lock lock(mu_);
  auto it = tables_.find(query.table);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + query.table + "'");
  }
  const AccessPath path = ChooseAccessPath(*it->second, query.where);
  if (path.index != nullptr) {
    const IndexBound& bound = path.bound;
    std::string out =
        "index scan on " + query.table + "." + bound.column + " ";
    out += bound.lo.has_value()
               ? (bound.lo_inclusive ? "[" : "(") + bound.lo->ToString()
               : "(-inf";
    out += ", ";
    out += bound.hi.has_value()
               ? bound.hi->ToString() + (bound.hi_inclusive ? "]" : ")")
               : "+inf)";
    if (path.conjuncts > 1) out += " + residual filter";
    return out;
  }
  std::string out = "full scan of " + query.table + " (" +
                    std::to_string(it->second->num_rows()) + " rows)";
  if (query.where != nullptr) out += " + filter";
  return out;
}

Result<SchemaPtr> Database::FindRows(const std::string& table,
                                     const ExprPtr& where,
                                     const RowVisitor& visit) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table '" + table + "'");
  const Table& t = *it->second;

  // Bind-time validation: every referenced column must exist, so a typo
  // fails deterministically instead of only when a row is scanned.
  if (where != nullptr) {
    std::set<std::string> columns;
    where->CollectColumns(&columns);
    for (const std::string& column : columns) {
      if (!t.schema()->HasField(column)) {
        return Status::NotFound("WHERE column '" + column + "'");
      }
    }
  }

  EvalContext ctx;
  ctx.clock = clock_;
  ctx.missing_attribute_is_null = false;
  Status eval_error;
  auto consider = [&](RowId row_id, const Record& record) {
    if (where != nullptr) {
      ctx.row = &record;
      auto matched = where->Matches(ctx);
      if (!matched.ok()) {
        eval_error = matched.status();
        return false;
      }
      if (!*matched) return true;
    }
    visit(row_id, record);
    return true;
  };

  const AccessPath path = ChooseAccessPath(t, where);
  if (path.index != nullptr) {
    const IndexBound& bound = path.bound;
    path.index->Scan(bound.lo, bound.lo_inclusive, bound.hi,
                     bound.hi_inclusive, [&](const Value&, RowId row_id) {
                       auto record = t.GetRow(row_id);
                       if (!record.ok()) return true;
                       return consider(row_id, *record);
                     });
  } else {
    t.ScanRows(consider);
  }
  if (!eval_error.ok()) return eval_error;
  return t.schema();
}

Result<QueryResult> Database::Execute(const Query& query) const {
  if (!query.build_error.ok()) return query.build_error;  // See Explain.
  std::vector<Record> rows;
  EDADB_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      FindRows(query.table, query.where,
               [&](RowId, const Record& row) { rows.push_back(row); }));

  QueryResult result;
  if (!query.aggregates.empty() || !query.group_by.empty()) {
    if (query.aggregates.empty()) {
      return Status::InvalidArgument("GROUP BY requires aggregates");
    }
    EDADB_ASSIGN_OR_RETURN(result,
                           Aggregate_(*schema, query, std::move(rows)));
    if (!query.order_by.empty()) {
      EDADB_RETURN_IF_ERROR(SortRecords(&result.rows, query.order_by));
    }
  } else {
    if (!query.order_by.empty()) {
      EDADB_RETURN_IF_ERROR(SortRecords(&rows, query.order_by));
    }
    EDADB_ASSIGN_OR_RETURN(result, Project(schema, query, std::move(rows)));
  }
  if (result.rows.size() > query.limit) {
    result.rows.resize(query.limit);
  }
  return result;
}

}  // namespace edadb
