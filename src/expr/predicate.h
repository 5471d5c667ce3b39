#ifndef EDADB_EXPR_PREDICATE_H_
#define EDADB_EXPR_PREDICATE_H_

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "expr/ast.h"
#include "expr/parser.h"

namespace edadb {

/// A compiled boolean predicate: the "expression as data" unit that
/// rules, subscriptions, queue selectors and trigger WHEN clauses store
/// and evaluate. Keeps the original source for round-tripping to tables.
class Predicate {
 public:
  Predicate() = default;

  /// Compiles `source`; fails on syntax errors or unknown functions.
  EDADB_NODISCARD static Result<Predicate> Compile(std::string_view source);

  /// Wraps an already-built AST.
  static Predicate FromExpr(ExprPtr expr);

  /// `column = value` for every pair, ANDed together, built as an AST:
  /// a value is never read as predicate text, so a quote in a name
  /// stays part of the name. For catalog lookups by key. `columns` must
  /// not be empty.
  static Predicate ColumnsEqual(
      const std::vector<std::pair<std::string, Value>>& columns);

  bool valid() const { return expr_ != nullptr; }
  const ExprPtr& expr() const { return expr_; }
  const std::string& source() const { return source_; }

  /// True iff the predicate evaluates to TRUE on `row` (NULL and FALSE
  /// both mean no match). Evaluation errors propagate.
  EDADB_NODISCARD Result<bool> Matches(const RowAccessor& row) const;

  /// Like Matches but treats evaluation errors as "no match" — the right
  /// behaviour when scanning heterogeneous event populations where some
  /// events have incompatible attribute types.
  bool MatchesOrFalse(const RowAccessor& row) const;

  /// Attribute names the predicate references.
  std::set<std::string> ReferencedColumns() const;

 private:
  ExprPtr expr_;
  std::string source_;
};

}  // namespace edadb

#endif  // EDADB_EXPR_PREDICATE_H_
