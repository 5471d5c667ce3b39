#include "pubsub/broker.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace edadb {

namespace {

metrics::Counter* PublishesCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("pubsub.publishes");
  return c;
}

metrics::Counter* DeliveriesCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("pubsub.deliveries");
  return c;
}

metrics::Histogram* PublishLatency() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("pubsub.publish.latency_us");
  return h;
}

/// (publication, durable subscriber) deliveries that could not be
/// staged.
metrics::Counter* DeliveryFailuresCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("pubsub.delivery_failures");
  return c;
}

metrics::Counter* HandlerErrorsCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("pubsub.handler_errors");
  return c;
}

metrics::Counter* RingPublishedCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("pubsub.ring.published");
  return c;
}

metrics::Counter* RingDeliveredCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("pubsub.ring.delivered");
  return c;
}

metrics::Counter* RingMissedCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("pubsub.ring.missed");
  return c;
}

metrics::Counter* RingFilteredCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("pubsub.ring.filtered");
  return c;
}

constexpr char kSubsTable[] = "__subscriptions";
constexpr char kRetainedTable[] = "__retained";
constexpr char kTopicAttr[] = "__topic";

SchemaPtr SubsSchema() {
  return Schema::Make({
      {"sub_id", ValueType::kString, /*nullable=*/false},
      {"subscriber", ValueType::kString, true},
      {"topic_pattern", ValueType::kString, true},
      {"filter", ValueType::kString, true},
      {"durable", ValueType::kBool, false},
  });
}

SchemaPtr RetainedSchema() {
  return Schema::Make({
      {"topic", ValueType::kString, false},
      {"attrs", ValueType::kString, true},
      {"payload", ValueType::kString, true},
  });
}

std::string GetStringField(const Record& row, std::string_view field) {
  auto v = row.Get(field);
  return v.ok() && v->type() == ValueType::kString ? v->string_value()
                                                   : std::string();
}

}  // namespace

std::string Publication::ToString() const {
  std::string out = "Publication{topic=" + topic;
  for (const auto& [name, value] : attributes) {
    out += " " + name + "=" + value.ToString();
  }
  out += " payload='" + payload + "'}";
  return out;
}

void PublicationToEnqueueRequest(const Publication& pub,
                                 EnqueueRequest* request) {
  request->payload = pub.payload;
  request->attributes = pub.attributes;
  request->attributes.emplace_back(kTopicAttr, Value::String(pub.topic));
}

Publication MessageToPublication(const Message& message) {
  Publication pub;
  pub.payload = message.payload;
  for (const auto& [name, value] : message.attributes) {
    if (name == kTopicAttr) {
      if (value.type() == ValueType::kString) pub.topic = value.string_value();
    } else {
      pub.attributes.emplace_back(name, value);
    }
  }
  return pub;
}

Broker::Broker(Database* db, QueueService* queues,
               EventRingOptions ring_options)
    : db_(db),
      queues_(queues),
      ring_(std::make_unique<EventRing>(ring_options)) {}

Result<std::unique_ptr<Broker>> Broker::Attach(Database* db,
                                               QueueService* queues,
                                               EventRingOptions ring_options) {
  auto broker =
      std::unique_ptr<Broker>(new Broker(db, queues, ring_options));
  // Registered up front, so __metrics shows the count before any loss.
  DeliveryFailuresCounter();
  broker->live_collector_ = metrics::Registry::Default()->RegisterCollector(
      [b = broker.get()](std::vector<metrics::MetricSnapshot>* out) {
        b->CollectLiveMetrics(out);
      });
  if (!db->GetTable(kSubsTable).ok()) {
    EDADB_RETURN_IF_ERROR(db->CreateTable(kSubsTable, SubsSchema()).status());
    EDADB_RETURN_IF_ERROR(db->CreateIndex(kSubsTable, "sub_id", true));
  }
  if (!db->GetTable(kRetainedTable).ok()) {
    EDADB_RETURN_IF_ERROR(
        db->CreateTable(kRetainedTable, RetainedSchema()).status());
    EDADB_RETURN_IF_ERROR(db->CreateIndex(kRetainedTable, "topic", true));
  }
  EDADB_RETURN_IF_ERROR(broker->LoadPersisted());
  return broker;
}

std::string Broker::SubQueueName(const std::string& id) {
  return "__sub_" + id;
}

Result<Predicate> Broker::BuildCondition(std::string_view topic_pattern,
                                         std::string_view content_filter) {
  // Built as an AST and ANDed with the filter compiled on its own, so
  // neither a quote in the topic nor a parenthesis in the filter can
  // reach past its own clause.
  ExprPtr condition;
  if (!topic_pattern.empty()) {
    std::string pattern(topic_pattern);
    if (pattern.find_first_of("*?") == std::string::npos) {
      // Exact topics index as hash-equality conjuncts in the matcher.
      condition = Predicate::ColumnsEqual(
                      {{"topic", Value::String(std::move(pattern))}})
                      .expr();
    } else {
      std::replace(pattern.begin(), pattern.end(), '*', '%');
      std::replace(pattern.begin(), pattern.end(), '?', '_');
      condition = std::make_shared<LikeExpr>(
          std::make_shared<ColumnExpr>("topic"),
          std::make_shared<LiteralExpr>(Value::String(std::move(pattern))),
          /*negated=*/false);
    }
  }
  if (!content_filter.empty()) {
    EDADB_ASSIGN_OR_RETURN(Predicate filter,
                           Predicate::Compile(content_filter));
    condition = condition == nullptr
                    ? filter.expr()
                    : std::make_shared<BinaryExpr>(BinaryOp::kAnd,
                                                   std::move(condition),
                                                   filter.expr());
  }
  if (condition == nullptr) {
    condition = std::make_shared<LiteralExpr>(Value::Bool(true));
  }
  return Predicate::FromExpr(std::move(condition));
}

Status Broker::AddToMatcher(const std::string& id, Predicate condition) {
  Rule rule;
  rule.id = id;
  rule.condition = std::move(condition);
  return matcher_.AddRule(std::move(rule));
}

Status Broker::LoadPersisted() {
  EDADB_ASSIGN_OR_RETURN(Table * table, db_->GetTable(kSubsTable));
  // Scan and compile into locals first: guarded members are only
  // touched under the lock below, in this function body, where the
  // analysis can see it.
  struct Loaded {
    std::string id;
    std::shared_ptr<SubscriptionState> state;
    std::optional<Predicate> condition;  // Unset: matches nothing.
  };
  std::vector<Loaded> loaded;
  table->ScanRows([&](RowId, const Record& row) {
    Loaded sub;
    sub.id = GetStringField(row, "sub_id");
    sub.state = std::make_shared<SubscriptionState>();
    SubscriptionSpec& spec = sub.state->spec;
    spec.subscriber = GetStringField(row, "subscriber");
    spec.topic_pattern = GetStringField(row, "topic_pattern");
    spec.content_filter = GetStringField(row, "filter");
    auto durable = row.Get("durable");
    spec.durable = durable.ok() && !durable->is_null() &&
                   durable->bool_value();
    sub.state->queue = SubQueueName(sub.id);
    auto condition = BuildCondition(spec.topic_pattern, spec.content_filter);
    if (condition.ok()) {
      sub.condition = *std::move(condition);
    } else {
      // A filter stored before filters were compiled on their own (one
      // that closed the topic clause's parenthesis) fails here. It
      // stays listed, so its queue can be fetched and it can be
      // unsubscribed, but it receives nothing new.
      EDADB_LOG(Warn) << "subscription '" << sub.id
                      << "' left out of matching: " << condition.status();
    }
    loaded.push_back(std::move(sub));
    return true;
  });
  MutexLock lock(&mu_);
  for (Loaded& sub : loaded) {
    if (sub.condition.has_value()) {
      EDADB_RETURN_IF_ERROR(AddToMatcher(sub.id, *std::move(sub.condition)));
    }
    // Track the numeric suffix so new ids keep increasing.
    if (StartsWith(sub.id, "sub-")) {
      const uint64_t seq = std::strtoull(sub.id.c_str() + 4, nullptr, 10);
      if (seq >= next_sub_seq_) next_sub_seq_ = seq + 1;
    }
    subscriptions_.emplace(std::move(sub.id), std::move(sub.state));
  }
  return Status::OK();
}

Result<std::string> Broker::Subscribe(SubscriptionSpec spec) {
  if (!spec.durable && spec.handler == nullptr) {
    return Status::InvalidArgument(
        "non-durable subscription needs a handler");
  }
  EDADB_ASSIGN_OR_RETURN(
      Predicate condition,
      BuildCondition(spec.topic_pattern, spec.content_filter));
  std::string id;
  {
    MutexLock lock(&mu_);
    id = "sub-" + std::to_string(next_sub_seq_++);
    EDADB_RETURN_IF_ERROR(AddToMatcher(id, condition));
  }
  if (spec.durable) {
    // Durable: persist the subscription and its buffer queue.
    const Status queue_status = queues_->CreateQueue(SubQueueName(id));
    if (!queue_status.ok() && !queue_status.IsAlreadyExists()) {
      MutexLock lock(&mu_);
      EDADB_IGNORE_STATUS(matcher_.RemoveRule(id),
                          "best-effort rollback of the rule added above");
      return queue_status;
    }
    EDADB_ASSIGN_OR_RETURN(Table * table, db_->GetTable(kSubsTable));
    Record row = *RecordBuilder(table->schema())
                      .SetString("sub_id", id)
                      .SetString("subscriber", spec.subscriber)
                      .SetString("topic_pattern", spec.topic_pattern)
                      .SetString("filter", spec.content_filter)
                      .SetBool("durable", true)
                      .Build();
    const auto inserted = db_->Insert(kSubsTable, std::move(row));
    if (!inserted.ok()) {
      MutexLock lock(&mu_);
      EDADB_IGNORE_STATUS(matcher_.RemoveRule(id),
                          "best-effort rollback of the rule added above");
      return inserted.status();
    }
  }

  auto state = std::make_shared<SubscriptionState>();
  state->spec = std::move(spec);
  state->queue = SubQueueName(id);

  // Subscribe-to-publish: serve matching retained publications to the
  // newcomer immediately.
  std::vector<Publication> retained_matches;
  {
    EDADB_ASSIGN_OR_RETURN(
        QueryResult retained,
        db_->Execute(QueryBuilder(kRetainedTable).Build()));
    for (const Record& row : retained.rows) {
      Publication pub;
      pub.topic = GetStringField(row, "topic");
      pub.payload = GetStringField(row, "payload");
      const std::string attrs = GetStringField(row, "attrs");
      if (!attrs.empty()) {
        auto decoded = DecodeAttributes(attrs);
        if (decoded.ok()) pub.attributes = *std::move(decoded);
      }
      PublicationView view(pub);
      if (condition.MatchesOrFalse(view)) {
        retained_matches.push_back(std::move(pub));
      }
    }
  }
  for (const Publication& pub : retained_matches) {
    EDADB_RETURN_IF_ERROR(DeliverTo(*state, pub));
  }

  MutexLock lock(&mu_);
  subscriptions_.emplace(id, std::move(state));
  return id;
}

Status Broker::Unsubscribe(const std::string& subscription_id) {
  // The row goes first (a non-durable subscription has none), and the
  // subscription leaves memory only once that commit applied: a failed
  // delete leaves it live, as a reopen would find it.
  const Predicate match = Predicate::ColumnsEqual(
      {{"sub_id", Value::String(subscription_id)}});
  const Status deleted = db_->DeleteWhere(kSubsTable, match).status();
  if (!CommitApplied(deleted)) return deleted;
  bool durable = false;
  {
    MutexLock lock(&mu_);
    auto it = subscriptions_.find(subscription_id);
    if (it == subscriptions_.end()) {
      return Status::NotFound("subscription '" + subscription_id + "'");
    }
    durable = it->second->spec.durable;
    EDADB_IGNORE_STATUS(matcher_.RemoveRule(subscription_id),
                        "unsubscribe is idempotent; the rule is absent when "
                        "a failed Subscribe already rolled it back");
    // An in-flight fan-out may still hold a snapshot of this state; the
    // cleared flag stops any handler invocation that has not started
    // yet, without Unsubscribe waiting on one that has.
    it->second->alive.store(false, std::memory_order_release);
    subscriptions_.erase(it);
  }
  if (durable) {
    const Status drop = queues_->DropQueue(SubQueueName(subscription_id));
    if (!drop.ok() && !drop.IsNotFound()) return drop;
  }
  return deleted;
}

Status Broker::DeliverTo(const SubscriptionState& sub,
                         const Publication& pub) {
  if (sub.spec.durable) {
    EnqueueRequest request;
    PublicationToEnqueueRequest(pub, &request);
    return queues_->Enqueue(sub.queue, request).status();
  }
  return InvokeHandler(sub, pub);
}

Status Broker::InvokeHandler(const SubscriptionState& sub,
                             const Publication& pub) {
  if (sub.spec.handler == nullptr) return Status::OK();
  Status s = InvokeCatching("handler for subscriber", sub.spec.subscriber,
                            [&] { sub.spec.handler(pub); });
  if (!s.ok()) HandlerErrorsCounter()->Add(1);
  return s;
}

Result<size_t> Broker::Publish(const Publication& pub) {
  return PublishSpan(&pub, 1);
}

Result<size_t> Broker::PublishBatch(const std::vector<Publication>& pubs) {
  return PublishSpan(pubs.data(), pubs.size());
}

Result<size_t> Broker::PublishSpan(const Publication* pubs, size_t count) {
  if (count == 0) return static_cast<size_t>(0);
  metrics::LatencyScope latency(PublishLatency());
  PublishesCounter()->Add(count);

  // Live fast path first: ONE ring write for the whole batch, before
  // any durable bookkeeping, so live readers see events at minimal
  // latency. Publishers pay O(batch) here no matter how many live
  // subscribers are polling.
  ring_->PublishBatch(pubs, count);
  RingPublishedCounter()->Add(count);

  // Retained-value bookkeeping per publication (cold path). One commit
  // replaces a topic's value: the update of its row, or the insert of
  // its first. An insert that loses to a concurrent first insert (the
  // unique index on topic refuses it) updates the winner's row instead.
  for (size_t i = 0; i < count; ++i) {
    const Publication& pub = pubs[i];
    if (!pub.retain) continue;
    const Predicate match =
        Predicate::ColumnsEqual({{"topic", Value::String(pub.topic)}});
    std::string attrs;
    EncodeAttributes(pub.attributes, &attrs);
    const auto replace = [&]() -> Result<size_t> {
      return db_->UpdateWhere(kRetainedTable, match, [&](Record* row) {
        EDADB_RETURN_IF_ERROR(row->Set("attrs", Value::String(attrs)));
        return row->Set("payload", Value::String(pub.payload));
      });
    };
    EDADB_ASSIGN_OR_RETURN(const size_t replaced, replace());
    if (replaced > 0) continue;
    EDADB_ASSIGN_OR_RETURN(Table * retained, db_->GetTable(kRetainedTable));
    Record row = *RecordBuilder(retained->schema())
                      .SetString("topic", pub.topic)
                      .SetString("attrs", attrs)
                      .SetString("payload", pub.payload)
                      .Build();
    const Status inserted =
        db_->Insert(kRetainedTable, std::move(row)).status();
    EDADB_RETURN_IF_ERROR(inserted.IsAlreadyExists() ? replace().status()
                                                     : inserted);
  }

  // Match the whole batch under ONE lock; deliveries happen outside it.
  // Each durable subscription is one fan-out target holding its matches
  // in publication order; non-durable handler targets are copied out and
  // invoked in publication order.
  std::vector<FanoutTarget> durable_targets;
  std::vector<std::pair<std::shared_ptr<SubscriptionState>, size_t>>
      inline_targets;
  {
    std::unordered_map<const SubscriptionState*, size_t> target_of;
    MutexLock lock(&mu_);
    std::vector<PublicationView> views;
    views.reserve(count);
    for (size_t i = 0; i < count; ++i) views.emplace_back(pubs[i]);
    std::vector<const RowAccessor*> accessors;
    accessors.reserve(count);
    for (const PublicationView& view : views) accessors.push_back(&view);
    std::vector<std::vector<const Rule*>> matched;
    matcher_.MatchBatch(accessors, &matched);
    for (size_t i = 0; i < matched.size(); ++i) {
      for (const Rule* rule : matched[i]) {
        auto it = subscriptions_.find(rule->id);
        if (it == subscriptions_.end()) continue;
        const std::shared_ptr<SubscriptionState>& sub = it->second;
        if (sub->spec.durable) {
          const auto [target, added] =
              target_of.emplace(sub.get(), durable_targets.size());
          if (added) durable_targets.push_back(FanoutTarget{sub->queue, {}});
          durable_targets[target->second].requests.push_back(i);
        } else {
          inline_targets.emplace_back(sub, i);
        }
      }
    }
  }

  size_t delivered = 0;
  if (!durable_targets.empty()) {
    // One request per publication, staged into every matching
    // subscription queue by one fan-out: one transaction per shard.
    std::vector<EnqueueRequest> requests(count);
    for (size_t i = 0; i < count; ++i) {
      PublicationToEnqueueRequest(pubs[i], &requests[i]);
    }
    const std::vector<Status> outcomes =
        queues_->EnqueueFanout(requests, durable_targets);
    size_t failed = 0;
    for (size_t t = 0; t < durable_targets.size(); ++t) {
      const size_t n = durable_targets[t].requests.size();
      if (outcomes[t].ok()) {
        delivered += n;
        continue;
      }
      failed += n;
      EDADB_LOG(Warn) << "delivery of " << n
                      << " publication(s) to subscription queue '"
                      << durable_targets[t].queue << "' failed: " << outcomes[t];
    }
    DeliveryFailuresCounter()->Add(failed);
  }
  for (const auto& [sub, index] : inline_targets) {
    // Re-check per delivery: a concurrent Unsubscribe clears the flag,
    // and no handler invocation STARTS after it returns (one already in
    // flight for an earlier publication may still finish).
    if (!sub->alive.load(std::memory_order_acquire)) continue;
    const Status s = InvokeHandler(*sub, pubs[index]);
    if (s.ok()) {
      ++delivered;
    } else {
      EDADB_LOG(Warn) << "delivery to subscriber '" << sub->spec.subscriber
                      << "' failed: " << s;
    }
  }
  DeliveriesCounter()->Add(delivered);
  return delivered;
}

Result<std::optional<Publication>> Broker::Fetch(
    const std::string& subscription_id) {
  DequeueRequest request;
  request.remove = true;
  std::string queue;
  {
    MutexLock lock(&mu_);
    auto it = subscriptions_.find(subscription_id);
    if (it == subscriptions_.end()) {
      return Status::NotFound("subscription '" + subscription_id + "'");
    }
    if (!it->second->spec.durable) {
      return Status::FailedPrecondition(
          "subscription '" + subscription_id +
          "' is not durable; messages are delivered to its handler");
    }
    queue = it->second->queue;
  }
  EDADB_ASSIGN_OR_RETURN(std::optional<Message> message,
                         queues_->Dequeue(queue, request));
  if (!message.has_value()) return std::optional<Publication>();
  return std::optional<Publication>(MessageToPublication(*message));
}

Result<size_t> Broker::PendingCount(
    const std::string& subscription_id) const {
  {
    MutexLock lock(&mu_);
    if (subscriptions_.count(subscription_id) == 0) {
      return Status::NotFound("subscription '" + subscription_id + "'");
    }
  }
  return queues_->Depth(SubQueueName(subscription_id), "");
}

std::vector<std::string> Broker::ListSubscriptions() const {
  MutexLock lock(&mu_);
  std::vector<std::string> ids;
  ids.reserve(subscriptions_.size());
  for (const auto& [id, state] : subscriptions_) ids.push_back(id);
  return ids;
}

size_t Broker::num_subscriptions() const {
  MutexLock lock(&mu_);
  return subscriptions_.size();
}

Result<std::shared_ptr<LiveSubscription>> Broker::SubscribeLive(
    const LiveSubscriptionSpec& spec) {
  std::optional<Predicate> filter;
  if (!spec.topic_pattern.empty() || !spec.content_filter.empty()) {
    EDADB_ASSIGN_OR_RETURN(
        Predicate condition,
        BuildCondition(spec.topic_pattern, spec.content_filter));
    filter.emplace(std::move(condition));
  }
  MutexLock lock(&live_mu_);
  std::string id = "live-" + std::to_string(next_live_seq_++);
  auto sub = std::shared_ptr<LiveSubscription>(new LiveSubscription(
      id, spec.subscriber, ring_.get(), std::move(filter)));
  live_subs_.emplace(std::move(id), sub);
  return sub;
}

Status Broker::UnsubscribeLive(const std::string& id) {
  MutexLock lock(&live_mu_);
  if (live_subs_.erase(id) == 0) {
    return Status::NotFound("live subscription '" + id + "'");
  }
  return Status::OK();
}

size_t Broker::num_live_subscriptions() const {
  MutexLock lock(&live_mu_);
  return live_subs_.size();
}

void Broker::CollectLiveMetrics(
    std::vector<metrics::MetricSnapshot>* out) const {
  MutexLock lock(&live_mu_);
  metrics::MetricSnapshot subscribers;
  subscribers.name = "pubsub.ring.subscribers";
  subscribers.kind = metrics::MetricKind::kGauge;
  subscribers.value = static_cast<int64_t>(live_subs_.size());
  out->push_back(std::move(subscribers));
  for (const auto& [id, sub] : live_subs_) {
    const std::string prefix = "pubsub.ring.sub." + sub->subscriber() + ".";
    const auto gauge = [out, &prefix](const char* name, uint64_t v) {
      metrics::MetricSnapshot s;
      s.name = prefix + name;
      s.kind = metrics::MetricKind::kGauge;
      s.value = static_cast<int64_t>(v);
      out->push_back(std::move(s));
    };
    gauge("delivered", sub->delivered());
    gauge("missed", sub->missed());
    gauge("lag", sub->lag());
  }
}

size_t LiveSubscription::Poll(
    size_t max_events, std::vector<std::pair<uint64_t, Publication>>* out) {
  const uint64_t missed_before = cursor_.missed();
  size_t appended = 0;
  uint64_t filtered = 0;
  std::vector<std::pair<uint64_t, Publication>> raw;
  // With a filter, one cursor poll may come back all-filtered; keep
  // refilling until max_events MATCHING events or the stream drains.
  while (appended < max_events) {
    raw.clear();
    if (cursor_.Poll(max_events - appended, &raw) == 0) break;
    for (auto& [seq, pub] : raw) {
      if (filter_.has_value()) {
        PublicationView view(pub);
        if (!filter_->MatchesOrFalse(view)) {
          ++filtered;
          continue;
        }
      }
      out->emplace_back(seq, std::move(pub));
      ++appended;
    }
    if (!filter_.has_value()) break;  // Raw poll already hit the cap.
  }
  delivered_.fetch_add(appended, std::memory_order_relaxed);
  filtered_.fetch_add(filtered, std::memory_order_relaxed);
  RingDeliveredCounter()->Add(appended);
  RingFilteredCounter()->Add(filtered);
  RingMissedCounter()->Add(cursor_.missed() - missed_before);
  return appended;
}

}  // namespace edadb
