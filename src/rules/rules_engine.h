#ifndef EDADB_RULES_RULES_ENGINE_H_
#define EDADB_RULES_RULES_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "db/database.h"
#include "rules/indexed_matcher.h"

namespace edadb {

/// The rules service (§2.2.c): rules are stored as data in the `__rules`
/// database table (so they survive restart, are auditable, and can be
/// changed online), compiled into a matcher, and dispatched to named
/// action handlers when events arrive.
///
/// "Rules technologies can be used to evaluate external data; e.g., data
/// can be presented to a rules service and the rules service will
/// identify interested consumers" — Evaluate() is exactly that call.
///
/// Thread-safe.
class RulesEngine {
 public:
  /// Loads persisted rules from `db` (creating the `__rules` table on
  /// first use). `db` must outlive the engine.
  EDADB_NODISCARD static Result<std::unique_ptr<RulesEngine>> Attach(
      Database* db);

  /// Adds a rule (persisted + compiled). `condition_source` is an
  /// expression over event attributes; `action` is the handler tag.
  ///
  /// Rule changes write the `__rules` row first and change the matcher
  /// only once that commit applied (CommitApplied), so a change that
  /// failed leaves memory and disk as they were.
  EDADB_NODISCARD Status AddRule(const std::string& id, std::string_view condition_source,
                 std::string action, int64_t priority = 0);

  EDADB_NODISCARD Status RemoveRule(const std::string& id);
  EDADB_NODISCARD Status SetRuleEnabled(const std::string& id, bool enabled);
  size_t num_rules() const;
  std::vector<std::string> ListRules() const;

  /// Copy of a compiled rule, or nullopt when unknown.
  std::optional<Rule> FindRule(const std::string& id) const;

  /// Called for each matched rule, highest priority first. A handler
  /// that throws is contained: the failure is logged and counted as
  /// rules.handler_errors, and dispatch goes on with the next match.
  using ActionHandler =
      std::function<void(const Rule& rule, const RowAccessor& event)>;

  /// Registers the handler for rules whose action equals `action`.
  void RegisterActionHandler(const std::string& action,
                             ActionHandler handler);

  /// Handler for matched rules whose action has no registered handler.
  void RegisterDefaultHandler(ActionHandler handler);

  /// Matches `event` against every rule and dispatches handlers.
  /// Returns the ids of matched rules in dispatch order. Thin wrapper
  /// over a one-event EvaluateBatch (single code path).
  EDADB_NODISCARD Result<std::vector<std::string>> Evaluate(const RowAccessor& event);

  /// Batch form: matches every event under ONE engine lock (one matcher
  /// traversal state amortized across the batch), then dispatches
  /// handlers outside the lock in event order. `result[i]` holds copies
  /// of the rules `*events[i]` matched, in dispatch order, as they stood
  /// when the batch was matched: a handler that removes or replaces a
  /// rule mid-batch changes later batches, not this result.
  EDADB_NODISCARD Result<std::vector<std::vector<Rule>>> EvaluateBatch(
      const std::vector<const RowAccessor*>& events);

 private:
  explicit RulesEngine(Database* db) : db_(db) {}

  EDADB_NODISCARD Status LoadPersistedRules();
  EDADB_NODISCARD Result<Rule> CompileRule(const std::string& id,
                           std::string_view condition_source,
                           std::string action, int64_t priority,
                           bool enabled) const;

  Database* const db_;
  /// Serializes rule changes. Held across each change's `__rules` commit
  /// and matcher update, so concurrent changes reach the table and the
  /// matcher in one order. Evaluate never takes it.
  Mutex change_mu_{"RulesEngine::change_mu_"};
  mutable Mutex mu_{"RulesEngine::mu_"};
  IndexedMatcher matcher_ EDADB_GUARDED_BY(mu_);
  std::map<std::string, ActionHandler> handlers_ EDADB_GUARDED_BY(mu_);
  ActionHandler default_handler_ EDADB_GUARDED_BY(mu_);

  /// Emits rules.matcher.* gauges on registry snapshots. LAST member:
  /// destroyed first, so an in-flight collector taking mu_ finishes
  /// before the matcher is torn down.
  metrics::CallbackHandle metrics_collector_;
};

}  // namespace edadb

#endif  // EDADB_RULES_RULES_ENGINE_H_
