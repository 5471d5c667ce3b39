#include "rules/rules_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace edadb {

namespace {

metrics::Counter* EvaluatedCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("rules.evaluated");
  return c;
}

metrics::Counter* MatchedCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("rules.matched");
  return c;
}

metrics::Counter* HandlerErrorsCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("rules.handler_errors");
  return c;
}

metrics::Histogram* MatchLatency() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("rules.match.latency_us");
  return h;
}

void EmitGauge(std::vector<metrics::MetricSnapshot>* out, std::string name,
               int64_t value) {
  metrics::MetricSnapshot ms;
  ms.name = std::move(name);
  ms.kind = metrics::MetricKind::kGauge;
  ms.value = value;
  out->push_back(std::move(ms));
}

constexpr char kRulesTable[] = "__rules";

SchemaPtr RulesSchema() {
  return Schema::Make({
      {"rule_id", ValueType::kString, /*nullable=*/false},
      {"condition", ValueType::kString, false},
      {"action", ValueType::kString, true},
      {"priority", ValueType::kInt64, false},
      {"enabled", ValueType::kBool, false},
  });
}

}  // namespace

Result<std::unique_ptr<RulesEngine>> RulesEngine::Attach(Database* db) {
  auto engine = std::unique_ptr<RulesEngine>(new RulesEngine(db));
  if (!db->GetTable(kRulesTable).ok()) {
    EDADB_RETURN_IF_ERROR(db->CreateTable(kRulesTable, RulesSchema()).status());
    EDADB_RETURN_IF_ERROR(db->CreateIndex(kRulesTable, "rule_id", true));
  }
  EDADB_RETURN_IF_ERROR(engine->LoadPersistedRules());
  // Matcher shape gauges (index vs scan population). The lambda runs
  // with the registry lock released, so taking mu_ here is safe.
  RulesEngine* raw = engine.get();
  engine->metrics_collector_ = metrics::Registry::Default()->RegisterCollector(
      [raw](std::vector<metrics::MetricSnapshot>* out) {
        MutexLock lock(&raw->mu_);
        const IndexedMatcher::Stats stats = raw->matcher_.GetStats();
        EmitGauge(out, "rules.matcher.eq_entries",
                  static_cast<int64_t>(stats.eq_entries));
        EmitGauge(out, "rules.matcher.range_entries",
                  static_cast<int64_t>(stats.range_entries));
        EmitGauge(out, "rules.matcher.scan_rules",
                  static_cast<int64_t>(stats.scan_rules));
        EmitGauge(out, "rules.matcher.total_rules",
                  static_cast<int64_t>(stats.total_rules));
      });
  return engine;
}

Result<Rule> RulesEngine::CompileRule(const std::string& id,
                                      std::string_view condition_source,
                                      std::string action, int64_t priority,
                                      bool enabled) const {
  // The matcher rejects an empty id; rejecting it here, before a rule
  // change writes its row, keeps such a row off disk.
  if (id.empty()) return Status::InvalidArgument("rule needs an id");
  EDADB_ASSIGN_OR_RETURN(Predicate condition,
                         Predicate::Compile(condition_source));
  Rule rule;
  rule.id = id;
  rule.condition = std::move(condition);
  rule.action = std::move(action);
  rule.priority = priority;
  rule.enabled = enabled;
  return rule;
}

Status RulesEngine::LoadPersistedRules() {
  EDADB_ASSIGN_OR_RETURN(Table * table, db_->GetTable(kRulesTable));
  // Compile outside the lock; only the matcher insertions below need it
  // (and the analysis cannot see an enclosing lock inside a lambda).
  std::vector<Rule> compiled;
  Status status;
  table->ScanRows([&](RowId, const Record& row) {
    auto get_string = [&](std::string_view field) {
      auto v = row.Get(field);
      return v.ok() && v->type() == ValueType::kString ? v->string_value()
                                                       : std::string();
    };
    const std::string id = get_string("rule_id");
    auto priority = row.Get("priority");
    auto enabled = row.Get("enabled");
    auto rule = CompileRule(
        id, get_string("condition"), get_string("action"),
        priority.ok() && !priority->is_null() ? priority->int64_value() : 0,
        enabled.ok() && !enabled->is_null() ? enabled->bool_value() : true);
    if (!rule.ok()) {
      status = rule.status();
      return false;
    }
    compiled.push_back(*std::move(rule));
    return true;
  });
  EDADB_RETURN_IF_ERROR(status);
  MutexLock lock(&mu_);
  for (Rule& rule : compiled) {
    EDADB_RETURN_IF_ERROR(matcher_.AddRule(std::move(rule)));
  }
  return Status::OK();
}

Status RulesEngine::AddRule(const std::string& id,
                            std::string_view condition_source,
                            std::string action, int64_t priority) {
  EDADB_ASSIGN_OR_RETURN(
      Rule rule, CompileRule(id, condition_source, action, priority, true));
  EDADB_ASSIGN_OR_RETURN(Table * table, db_->GetTable(kRulesTable));
  Record row = *RecordBuilder(table->schema())
                    .SetString("rule_id", id)
                    .SetString("condition", std::string(condition_source))
                    .SetString("action", rule.action)
                    .SetInt64("priority", priority)
                    .SetBool("enabled", true)
                    .Build();
  MutexLock change(&change_mu_);
  // A duplicate id fails here, on the unique index over rule_id.
  const Status inserted = db_->Insert(kRulesTable, std::move(row)).status();
  if (!CommitApplied(inserted)) return inserted;
  MutexLock lock(&mu_);
  EDADB_RETURN_IF_ERROR(matcher_.AddRule(std::move(rule)));
  return inserted;
}

Status RulesEngine::RemoveRule(const std::string& id) {
  MutexLock change(&change_mu_);
  if (!FindRule(id).has_value()) return Status::NotFound("rule '" + id + "'");
  const Predicate match =
      Predicate::ColumnsEqual({{"rule_id", Value::String(id)}});
  const Status deleted = db_->DeleteWhere(kRulesTable, match).status();
  if (!CommitApplied(deleted)) return deleted;
  MutexLock lock(&mu_);
  EDADB_RETURN_IF_ERROR(matcher_.RemoveRule(id));
  return deleted;
}

Status RulesEngine::SetRuleEnabled(const std::string& id, bool enabled) {
  MutexLock change(&change_mu_);
  std::optional<Rule> rule = FindRule(id);
  if (!rule.has_value()) return Status::NotFound("rule '" + id + "'");
  if (rule->enabled == enabled) return Status::OK();
  rule->enabled = enabled;
  const Predicate match =
      Predicate::ColumnsEqual({{"rule_id", Value::String(id)}});
  const Status updated =
      db_->UpdateWhere(kRulesTable, match,
                       [enabled](Record* row) {
                         return row->Set("enabled", Value::Bool(enabled));
                       })
          .status();
  if (!CommitApplied(updated)) return updated;
  MutexLock lock(&mu_);
  EDADB_RETURN_IF_ERROR(matcher_.RemoveRule(id));
  EDADB_RETURN_IF_ERROR(matcher_.AddRule(*std::move(rule)));
  return updated;
}

size_t RulesEngine::num_rules() const {
  MutexLock lock(&mu_);
  return matcher_.size();
}

std::vector<std::string> RulesEngine::ListRules() const {
  std::vector<std::string> ids;
  auto rows =
      db_->Execute(QueryBuilder(kRulesTable).Select({"rule_id"}).Build());
  if (!rows.ok()) return ids;
  for (const Record& row : rows->rows) {
    const Value& id = row.value(0);
    if (id.type() == ValueType::kString) ids.push_back(id.string_value());
  }
  return ids;
}

std::optional<Rule> RulesEngine::FindRule(const std::string& id) const {
  MutexLock lock(&mu_);
  const Rule* rule = matcher_.GetRule(id);
  if (rule == nullptr) return std::nullopt;
  return *rule;
}

void RulesEngine::RegisterActionHandler(const std::string& action,
                                        ActionHandler handler) {
  MutexLock lock(&mu_);
  handlers_[action] = std::move(handler);
}

void RulesEngine::RegisterDefaultHandler(ActionHandler handler) {
  MutexLock lock(&mu_);
  default_handler_ = std::move(handler);
}

Result<std::vector<std::string>> RulesEngine::Evaluate(
    const RowAccessor& event) {
  const std::vector<const RowAccessor*> one = {&event};
  EDADB_ASSIGN_OR_RETURN(std::vector<std::vector<Rule>> matched,
                         EvaluateBatch(one));
  std::vector<std::string> ids;
  ids.reserve(matched.front().size());
  for (Rule& rule : matched.front()) ids.push_back(std::move(rule.id));
  return ids;
}

Result<std::vector<std::vector<Rule>>> RulesEngine::EvaluateBatch(
    const std::vector<const RowAccessor*>& events) {
  // Per event: the matched rules (copied) and their bound handlers, so
  // dispatch runs outside mu_ — handlers may re-enter the engine
  // (AddRule from a handler) or block without stalling other callers.
  std::vector<std::vector<Rule>> rules(events.size());
  std::vector<std::vector<ActionHandler>> handlers(events.size());
  EvaluatedCounter()->Add(events.size());
  // Scope covers matching only, not handler dispatch — handlers run
  // arbitrary user code and would swamp the match signal.
  {
    metrics::LatencyScope latency(MatchLatency());
    MutexLock lock(&mu_);
    std::vector<std::vector<const Rule*>> matched;
    matcher_.MatchBatch(events, &matched);
    for (size_t i = 0; i < matched.size(); ++i) {
      std::vector<const Rule*>& event_matches = matched[i];
      std::sort(event_matches.begin(), event_matches.end(),
                [](const Rule* a, const Rule* b) {
                  if (a->priority != b->priority) {
                    return a->priority > b->priority;
                  }
                  return a->id < b->id;
                });
      rules[i].reserve(event_matches.size());
      handlers[i].reserve(event_matches.size());
      for (const Rule* rule : event_matches) {
        auto it = handlers_.find(rule->action);
        rules[i].push_back(*rule);
        handlers[i].push_back(it != handlers_.end() ? it->second
                                                    : default_handler_);
      }
    }
  }
  size_t total_matched = 0;
  for (const auto& event_rules : rules) total_matched += event_rules.size();
  MatchedCounter()->Add(total_matched);
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = 0; j < rules[i].size(); ++j) {
      const ActionHandler& handler = handlers[i][j];
      if (handler == nullptr) continue;
      const Rule& rule = rules[i][j];
      const Status s = InvokeCatching("handler for rule", rule.id,
                                      [&] { handler(rule, *events[i]); });
      if (!s.ok()) {
        HandlerErrorsCounter()->Add(1);
        EDADB_LOG(Warn) << s;
      }
    }
  }
  return rules;
}

}  // namespace edadb
