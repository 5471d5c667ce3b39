#include "expr/predicate.h"

#include <cassert>
#include <memory>

namespace edadb {

Result<Predicate> Predicate::Compile(std::string_view source) {
  EDADB_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(source));
  Predicate p;
  p.expr_ = std::move(expr);
  p.source_ = std::string(source);
  return p;
}

Predicate Predicate::FromExpr(ExprPtr expr) {
  Predicate p;
  p.source_ = expr->ToString();
  p.expr_ = std::move(expr);
  return p;
}

Predicate Predicate::ColumnsEqual(
    const std::vector<std::pair<std::string, Value>>& columns) {
  assert(!columns.empty());
  ExprPtr expr;
  for (const auto& [column, value] : columns) {
    ExprPtr equals = std::make_shared<BinaryExpr>(
        BinaryOp::kEq, std::make_shared<ColumnExpr>(column),
        std::make_shared<LiteralExpr>(value));
    expr = expr == nullptr
               ? equals
               : std::make_shared<BinaryExpr>(BinaryOp::kAnd, expr, equals);
  }
  return FromExpr(std::move(expr));
}

Result<bool> Predicate::Matches(const RowAccessor& row) const {
  if (expr_ == nullptr) {
    return Status::FailedPrecondition("predicate not compiled");
  }
  EvalContext ctx(&row);
  return expr_->Matches(ctx);
}

bool Predicate::MatchesOrFalse(const RowAccessor& row) const {
  auto result = Matches(row);
  return result.ok() && *result;
}

std::set<std::string> Predicate::ReferencedColumns() const {
  std::set<std::string> out;
  if (expr_ != nullptr) expr_->CollectColumns(&out);
  return out;
}

}  // namespace edadb
