#include "db/sql.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/string_util.h"
#include "expr/lexer.h"
#include "expr/parser.h"

namespace edadb {

namespace {

/// Cursor over the statement's token stream. SQL keywords arrive from
/// the expression lexer as ordinary identifiers and are matched
/// case-insensitively by text.
class StatementParser {
 public:
  StatementParser(Database* db, std::vector<Token> tokens)
      : db_(db), tokens_(std::move(tokens)) {}

  Result<SqlResult> Parse() {
    if (MatchKeyword("SELECT")) return Select();
    if (MatchKeyword("INSERT")) return Insert();
    if (MatchKeyword("UPDATE")) return Update();
    if (MatchKeyword("DELETE")) return Delete();
    if (MatchKeyword("CREATE")) {
      if (MatchKeyword("TABLE")) return CreateTable();
      const bool unique = MatchKeyword("UNIQUE");
      if (MatchKeyword("INDEX")) return CreateIndex(unique);
      return Error("expected TABLE or [UNIQUE] INDEX after CREATE");
    }
    if (MatchKeyword("DROP")) {
      if (!MatchKeyword("TABLE")) return Error("expected TABLE after DROP");
      EDADB_ASSIGN_OR_RETURN(std::string table, Identifier("table name"));
      EDADB_RETURN_IF_ERROR(ExpectEnd());
      EDADB_RETURN_IF_ERROR(db_->DropTable(table));
      SqlResult result;
      result.kind = SqlResult::Kind::kDdl;
      return result;
    }
    return Error("expected SELECT, INSERT, UPDATE, DELETE, CREATE or DROP");
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }

  bool PeekKeyword(std::string_view word) const {
    return Peek().kind == TokenKind::kIdentifier &&
           EqualsIgnoreCase(Peek().text, word);
  }

  bool MatchKeyword(std::string_view word) {
    if (PeekKeyword(word)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Match(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        message + " at position " + std::to_string(Peek().position));
  }

  Status Expect(TokenKind kind, const char* what) {
    if (Match(kind)) return Status::OK();
    return Error(std::string("expected ") + what);
  }

  Status ExpectKeyword(std::string_view word) {
    if (MatchKeyword(word)) return Status::OK();
    return Error("expected " + std::string(word));
  }

  Status ExpectEnd() {
    if (Peek().kind == TokenKind::kEnd) return Status::OK();
    return Error("unexpected trailing tokens");
  }

  Result<std::string> Identifier(const char* what) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error(std::string("expected ") + what);
    }
    return tokens_[pos_++].text;
  }

  Result<ExprPtr> Expression() {
    return ParseExpressionPrefix(tokens_, &pos_);
  }

  /// Evaluates a constant expression (INSERT values).
  Result<Value> ConstantValue() {
    EDADB_ASSIGN_OR_RETURN(ExprPtr expr, Expression());
    EvalContext ctx;
    ctx.clock = db_->clock();
    // No row bound: column references fail, which is the right error
    // for INSERT values.
    return expr->Evaluate(ctx);
  }

  // -------------------------------------------------------------------
  // CREATE TABLE / INDEX

  Result<SqlResult> CreateTable() {
    EDADB_ASSIGN_OR_RETURN(std::string table, Identifier("table name"));
    EDADB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    std::vector<Field> fields;
    for (;;) {
      EDADB_ASSIGN_OR_RETURN(std::string column, Identifier("column name"));
      EDADB_ASSIGN_OR_RETURN(ValueType type, ColumnType());
      bool nullable = true;
      if (Match(TokenKind::kNot)) {
        if (!Match(TokenKind::kNull)) {
          return Error("expected NULL after NOT");
        }
        nullable = false;
      }
      fields.emplace_back(std::move(column), type, nullable);
      if (!Match(TokenKind::kComma)) break;
    }
    EDADB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    EDADB_RETURN_IF_ERROR(ExpectEnd());
    EDADB_RETURN_IF_ERROR(
        db_->CreateTable(table, Schema::Make(std::move(fields))).status());
    SqlResult result;
    result.kind = SqlResult::Kind::kDdl;
    return result;
  }

  Result<ValueType> ColumnType() {
    EDADB_ASSIGN_OR_RETURN(std::string name, Identifier("column type"));
    const std::string upper = ToUpper(name);
    if (upper == "BOOL" || upper == "BOOLEAN") return ValueType::kBool;
    if (upper == "INT64" || upper == "INTEGER" || upper == "INT") {
      return ValueType::kInt64;
    }
    if (upper == "DOUBLE" || upper == "REAL" || upper == "FLOAT") {
      return ValueType::kDouble;
    }
    if (upper == "STRING" || upper == "TEXT" || upper == "VARCHAR") {
      return ValueType::kString;
    }
    if (upper == "TIMESTAMP") return ValueType::kTimestamp;
    return Status::InvalidArgument("unknown column type '" + name + "'");
  }

  Result<SqlResult> CreateIndex(bool unique) {
    EDADB_RETURN_IF_ERROR(ExpectKeyword("ON"));
    EDADB_ASSIGN_OR_RETURN(std::string table, Identifier("table name"));
    EDADB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    EDADB_ASSIGN_OR_RETURN(std::string column, Identifier("column name"));
    EDADB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    EDADB_RETURN_IF_ERROR(ExpectEnd());
    EDADB_RETURN_IF_ERROR(db_->CreateIndex(table, column, unique));
    SqlResult result;
    result.kind = SqlResult::Kind::kDdl;
    return result;
  }

  // -------------------------------------------------------------------
  // INSERT

  Result<SqlResult> Insert() {
    EDADB_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    EDADB_ASSIGN_OR_RETURN(std::string table, Identifier("table name"));
    EDADB_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
    const SchemaPtr& schema = t->schema();

    std::vector<int> target_columns;  // Schema indexes, in VALUES order.
    if (Match(TokenKind::kLParen)) {
      for (;;) {
        EDADB_ASSIGN_OR_RETURN(std::string column,
                               Identifier("column name"));
        const int idx = schema->FieldIndex(column);
        if (idx < 0) {
          return Status::NotFound("no column '" + column + "' in table " +
                                  table);
        }
        target_columns.push_back(idx);
        if (!Match(TokenKind::kComma)) break;
      }
      EDADB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    } else {
      for (size_t i = 0; i < schema->num_fields(); ++i) {
        target_columns.push_back(static_cast<int>(i));
      }
    }

    EDADB_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    SqlResult result;
    result.kind = SqlResult::Kind::kInsert;
    std::unique_ptr<Transaction> txn = db_->BeginTransaction();
    for (;;) {
      EDADB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
      std::vector<Value> row_values(schema->num_fields());
      for (size_t i = 0; i < target_columns.size(); ++i) {
        if (i > 0) EDADB_RETURN_IF_ERROR(Expect(TokenKind::kComma, ","));
        EDADB_ASSIGN_OR_RETURN(Value v, ConstantValue());
        const size_t field = static_cast<size_t>(target_columns[i]);
        EDADB_ASSIGN_OR_RETURN(
            row_values[field],
            CoerceValue(std::move(v), schema->field(field).type));
      }
      EDADB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
      EDADB_RETURN_IF_ERROR(
          txn->Insert(table, Record(schema, std::move(row_values)))
              .status());
      ++result.rows_affected;
      if (!Match(TokenKind::kComma)) break;
    }
    EDADB_RETURN_IF_ERROR(ExpectEnd());
    EDADB_RETURN_IF_ERROR(txn->Commit());
    return result;
  }

  /// Lenient literal coercion so `VALUES (1)` fits a DOUBLE or
  /// TIMESTAMP column, as every SQL implementation allows.
  static Result<Value> CoerceValue(Value v, ValueType target) {
    if (v.is_null() || v.type() == target) return v;
    if (target == ValueType::kDouble && v.type() == ValueType::kInt64) {
      return Value::Double(static_cast<double>(v.int64_value()));
    }
    if (target == ValueType::kTimestamp && v.type() == ValueType::kInt64) {
      return Value::Timestamp(v.int64_value());
    }
    if (target == ValueType::kInt64 && v.type() == ValueType::kDouble) {
      EDADB_ASSIGN_OR_RETURN(int64_t i, v.AsInt64());
      return Value::Int64(i);
    }
    return v;  // Let Record::Validate report real mismatches.
  }

  // -------------------------------------------------------------------
  // SELECT

  Result<SqlResult> Select() {
    Query query;
    std::vector<std::string> plain_items;
    bool star = false;
    if (Match(TokenKind::kStar)) {
      star = true;
    } else {
      for (;;) {
        EDADB_RETURN_IF_ERROR(SelectItem(&query, &plain_items));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    EDADB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    EDADB_ASSIGN_OR_RETURN(query.table, Identifier("table name"));

    if (MatchKeyword("WHERE")) {
      EDADB_ASSIGN_OR_RETURN(query.where, Expression());
    }
    if (MatchKeyword("GROUP")) {
      EDADB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        EDADB_ASSIGN_OR_RETURN(std::string column,
                               Identifier("GROUP BY column"));
        query.group_by.push_back(std::move(column));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    if (MatchKeyword("ORDER")) {
      EDADB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        OrderBy term;
        EDADB_ASSIGN_OR_RETURN(term.column, Identifier("ORDER BY column"));
        if (MatchKeyword("DESC")) {
          term.ascending = false;
        } else {
          MatchKeyword("ASC");  // optional keyword, default order
        }
        query.order_by.push_back(std::move(term));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    if (MatchKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kIntLiteral || Peek().int_value < 0) {
        return Error("expected a non-negative integer after LIMIT");
      }
      query.limit = static_cast<uint64_t>(tokens_[pos_++].int_value);
    }
    EDADB_RETURN_IF_ERROR(ExpectEnd());

    if (!query.aggregates.empty()) {
      // Plain items must be grouping columns (standard SQL restriction);
      // the executor emits group keys first, so they are present.
      for (const std::string& item : plain_items) {
        if (std::find(query.group_by.begin(), query.group_by.end(), item) ==
            query.group_by.end()) {
          return Status::InvalidArgument(
              "column '" + item +
              "' must appear in GROUP BY when aggregates are used");
        }
      }
    } else {
      if (!star) query.select = std::move(plain_items);
    }

    SqlResult result;
    result.kind = SqlResult::Kind::kSelect;
    EDADB_ASSIGN_OR_RETURN(result.result, db_->Execute(query));
    return result;
  }

  Result<Aggregate::Func> AggregateFunc(const std::string& upper) {
    if (upper == "COUNT") return Aggregate::Func::kCount;
    if (upper == "SUM") return Aggregate::Func::kSum;
    if (upper == "AVG") return Aggregate::Func::kAvg;
    if (upper == "MIN") return Aggregate::Func::kMin;
    if (upper == "MAX") return Aggregate::Func::kMax;
    return Status::NotFound("not an aggregate");
  }

  Status SelectItem(Query* query, std::vector<std::string>* plain_items) {
    EDADB_ASSIGN_OR_RETURN(std::string name, Identifier("select item"));
    const std::string upper = ToUpper(name);
    auto func = AggregateFunc(upper);
    if (func.ok() && Peek().kind == TokenKind::kLParen) {
      ++pos_;  // '('
      Aggregate aggregate;
      aggregate.func = *func;
      if (Match(TokenKind::kStar)) {
        if (*func != Aggregate::Func::kCount) {
          return Error("only COUNT accepts *");
        }
      } else {
        EDADB_ASSIGN_OR_RETURN(aggregate.column,
                               Identifier("aggregate column"));
      }
      EDADB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
      if (MatchKeyword("AS")) {
        EDADB_ASSIGN_OR_RETURN(aggregate.alias, Identifier("alias"));
      } else {
        aggregate.alias =
            aggregate.column.empty()
                ? ToLower(upper)
                : ToLower(upper) + "_" + aggregate.column;
      }
      query->aggregates.push_back(std::move(aggregate));
      return Status::OK();
    }
    if (MatchKeyword("AS")) {
      return Error("AS aliases are only supported on aggregates");
    }
    plain_items->push_back(std::move(name));
    return Status::OK();
  }

  // -------------------------------------------------------------------
  // UPDATE / DELETE

  Result<SqlResult> Update() {
    EDADB_ASSIGN_OR_RETURN(std::string table, Identifier("table name"));
    EDADB_RETURN_IF_ERROR(ExpectKeyword("SET"));
    std::vector<std::pair<std::string, ExprPtr>> assignments;
    for (;;) {
      EDADB_ASSIGN_OR_RETURN(std::string column, Identifier("column name"));
      EDADB_RETURN_IF_ERROR(Expect(TokenKind::kEq, "="));
      EDADB_ASSIGN_OR_RETURN(ExprPtr value, Expression());
      assignments.emplace_back(std::move(column), std::move(value));
      if (!Match(TokenKind::kComma)) break;
    }
    Predicate where;
    if (MatchKeyword("WHERE")) {
      EDADB_ASSIGN_OR_RETURN(ExprPtr expr, Expression());
      where = Predicate::FromExpr(std::move(expr));
    } else {
      EDADB_ASSIGN_OR_RETURN(where, Predicate::Compile("TRUE"));
    }
    EDADB_RETURN_IF_ERROR(ExpectEnd());

    EDADB_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
    const SchemaPtr schema = t->schema();
    for (const auto& [column, expr] : assignments) {
      if (schema->FieldIndex(column) < 0) {
        return Status::NotFound("no column '" + column + "' in table " +
                                table);
      }
    }
    Clock* clock = db_->clock();
    EDADB_ASSIGN_OR_RETURN(
        size_t updated,
        db_->UpdateWhere(
            table, where, [&](Record* row) -> Status {
              // Evaluate every assignment against the pre-update row.
              std::vector<Value> new_values;
              new_values.reserve(assignments.size());
              for (const auto& [column, expr] : assignments) {
                EvalContext ctx(row);
                ctx.clock = clock;
                ctx.missing_attribute_is_null = false;
                EDADB_ASSIGN_OR_RETURN(Value v, expr->Evaluate(ctx));
                const int idx = schema->FieldIndex(column);
                EDADB_ASSIGN_OR_RETURN(
                    v, CoerceValue(std::move(v),
                                   schema->field(static_cast<size_t>(idx))
                                       .type));
                new_values.push_back(std::move(v));
              }
              for (size_t i = 0; i < assignments.size(); ++i) {
                EDADB_RETURN_IF_ERROR(row->Set(assignments[i].first,
                                               std::move(new_values[i])));
              }
              return Status::OK();
            }));
    SqlResult result;
    result.kind = SqlResult::Kind::kUpdate;
    result.rows_affected = updated;
    return result;
  }

  Result<SqlResult> Delete() {
    EDADB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    EDADB_ASSIGN_OR_RETURN(std::string table, Identifier("table name"));
    Predicate where;
    if (MatchKeyword("WHERE")) {
      EDADB_ASSIGN_OR_RETURN(ExprPtr expr, Expression());
      where = Predicate::FromExpr(std::move(expr));
    } else {
      EDADB_ASSIGN_OR_RETURN(where, Predicate::Compile("TRUE"));
    }
    EDADB_RETURN_IF_ERROR(ExpectEnd());
    EDADB_ASSIGN_OR_RETURN(size_t deleted, db_->DeleteWhere(table, where));
    SqlResult result;
    result.kind = SqlResult::Kind::kDelete;
    result.rows_affected = deleted;
    return result;
  }

  Database* db_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SqlResult> ExecuteSql(Database* db, std::string_view sql) {
  EDADB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  StatementParser parser(db, std::move(tokens));
  return parser.Parse();
}

}  // namespace edadb
