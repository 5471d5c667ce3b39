#ifndef EDADB_PUBSUB_BROKER_H_
#define EDADB_PUBSUB_BROKER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "db/database.h"
#include "expr/predicate.h"
#include "mq/queue_service.h"
#include "pubsub/event_ring.h"
#include "rules/indexed_matcher.h"
#include "value/record.h"
#include "value/row_codec.h"

namespace edadb {

/// What publishers send.
struct Publication {
  std::string topic;
  AttributeList attributes;
  std::string payload;
  bool retain = false;  // Keep as the topic's last value (see Subscribe).

  std::string ToString() const;
};

/// Exposes a publication to content filters: `topic` by reserved name,
/// every attribute by its own name.
class PublicationView : public RowAccessor {
 public:
  explicit PublicationView(const Publication& pub) : pub_(pub) {}

  std::optional<Value> GetAttribute(std::string_view name) const override {
    if (name == "topic") return Value::String(pub_.topic);
    for (const auto& [attr_name, value] : pub_.attributes) {
      if (attr_name == name) return value;
    }
    return std::nullopt;
  }

 private:
  const Publication& pub_;
};

/// How a subscriber wants to receive matches.
struct SubscriptionSpec {
  std::string subscriber;  // Identity, e.g. "dispatch-east".
  /// Glob over topics ('*' any run, '?' one char); empty matches all.
  std::string topic_pattern;
  /// Content filter source ("severity >= 3 AND region = 'east'");
  /// empty = no filter. This is the expression-as-data the tutorial
  /// highlights: it is stored in the __subscriptions table.
  std::string content_filter;
  /// Durable subscriptions buffer matches in a per-subscription queue
  /// that survives restart; fetch with Fetch(). Non-durable
  /// subscriptions invoke `handler` inline and lose messages published
  /// while the process is down.
  bool durable = false;
  std::function<void(const Publication&)> handler;  // Non-durable only.
};

/// How a LIVE subscriber attaches to the broadcast ring (the paper's
/// 10k+-subscriber live-feed regime). No durability, no backpressure:
/// the reader polls its cursor at its own pace and misses events it is
/// too slow for — misses are counted, never silent (DESIGN.md §13).
struct LiveSubscriptionSpec {
  std::string subscriber;  // Identity, e.g. "dashboard-7".
  /// Same glob semantics as SubscriptionSpec::topic_pattern; empty
  /// matches all. Filtering happens READER-side at poll time, so
  /// publishers pay O(1) per event regardless of the population.
  std::string topic_pattern;
  /// Content filter source; empty = no filter.
  std::string content_filter;
};

/// A poll-based cursor into the broker's event ring, returned by
/// Broker::SubscribeLive(). Poll() is wait-free and must be called by
/// one thread at a time (each subscriber owns its cursor); the
/// accounting getters are safe from any thread (the metrics collector
/// reads them).
///
/// Accounting: delivered() + filtered() + missed() equals the number of
/// events published since the subscription was created and already
/// observed (cursor position - start); with no filter,
/// delivered() + missed() == published-since-subscribe once drained.
class LiveSubscription {
 public:
  LiveSubscription(const LiveSubscription&) = delete;
  LiveSubscription& operator=(const LiveSubscription&) = delete;

  /// Appends up to `max_events` MATCHING events (as (sequence,
  /// publication) pairs, strictly increasing sequence) to *out and
  /// returns how many were appended. Non-matching events are counted
  /// as filtered; overwritten events as missed.
  EDADB_NODISCARD size_t Poll(
      size_t max_events, std::vector<std::pair<uint64_t, Publication>>* out);

  const std::string& id() const { return id_; }
  const std::string& subscriber() const { return subscriber_; }

  uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  uint64_t filtered() const {
    return filtered_.load(std::memory_order_relaxed);
  }
  uint64_t missed() const { return cursor_.missed(); }
  /// Events published but not yet observed by this subscriber.
  uint64_t lag() const { return cursor_.lag(); }
  uint64_t start_seq() const { return cursor_.start_seq(); }
  uint64_t next_seq() const { return cursor_.next_seq(); }

 private:
  friend class Broker;
  LiveSubscription(std::string id, std::string subscriber,
                   const EventRing* ring, std::optional<Predicate> filter)
      : id_(std::move(id)),
        subscriber_(std::move(subscriber)),
        cursor_(ring),
        filter_(std::move(filter)) {}

  const std::string id_;
  const std::string subscriber_;
  RingCursor cursor_;
  const std::optional<Predicate> filter_;
  std::atomic<uint64_t> delivered_{0};  // Post-filter, returned to caller.
  std::atomic<uint64_t> filtered_{0};   // Observed but not matching.
};

/// Publish/subscribe over database technology (§2.2.c.i):
///   - subscriptions are rows in `__subscriptions` (expressions as
///     data), compiled into an IndexedMatcher so content-based fanout
///     scales like the rules engine rather than O(subscriptions);
///   - durable subscriptions are staging-area queues, inheriting
///     recoverability and transactional delivery;
///   - "subscribe-to-publish": topics can retain their last publication
///     (`Publication::retain`), and a new subscription is immediately
///     served every retained publication it matches — subscribing
///     triggers publication toward the new consumer.
///
/// Thread-safe.
class Broker {
 public:
  /// `db` and `queues` must outlive the broker. Durable subscriptions
  /// persisted by earlier runs are re-attached (their queues already
  /// exist); non-durable ones are gone by design. `ring_options` sizes
  /// the live broadcast ring (volatile by design; live cursors never
  /// survive restart).
  EDADB_NODISCARD static Result<std::unique_ptr<Broker>> Attach(
      Database* db, QueueService* queues, EventRingOptions ring_options = {});

  /// Returns the subscription id.
  EDADB_NODISCARD Result<std::string> Subscribe(SubscriptionSpec spec);

  /// A durable subscription's row is deleted first; the subscription
  /// stops matching and its queue is dropped only once that commit
  /// applied, so a failed Unsubscribe leaves it as a reopen finds it.
  EDADB_NODISCARD Status Unsubscribe(const std::string& subscription_id);

  /// Attaches a live poll-based cursor to the broadcast ring, starting
  /// at the current head. The returned subscription stays registered
  /// (and visible to the pubsub.ring.* metrics) until UnsubscribeLive;
  /// the shared_ptr keeps it safe to poll even across an unsubscribe
  /// racing on another thread.
  EDADB_NODISCARD Result<std::shared_ptr<LiveSubscription>> SubscribeLive(
      const LiveSubscriptionSpec& spec);

  EDADB_NODISCARD Status UnsubscribeLive(const std::string& id);

  /// The live broadcast ring (every publication flows through it).
  EventRing* ring() const { return ring_.get(); }

  size_t num_live_subscriptions() const;

  /// Delivers `pub` to every matching subscription; returns how many
  /// subscriptions received it. Thin wrapper over a one-publication
  /// PublishBatch (single code path).
  EDADB_NODISCARD Result<size_t> Publish(const Publication& pub);

  /// Batched fan-out: matches every publication under ONE matcher lock,
  /// builds one queue request per publication, and stages every durable
  /// delivery with one QueueService::EnqueueFanout — one transaction per
  /// shard for the whole batch, whatever the number of matching
  /// subscriptions. Each subscription queue receives its matches in
  /// publication order. When a shard's transaction fails without
  /// applying, its subscriptions are staged one by one, so a failing
  /// queue (say, one dropped under the broker) fails alone. Non-durable
  /// handlers are invoked per publication, in publication order.
  /// Returns the (publication, subscription) deliveries made; a durable
  /// one that could not be staged is left out, logged and counted in
  /// `pubsub.delivery_failures`.
  EDADB_NODISCARD Result<size_t> PublishBatch(
      const std::vector<Publication>& pubs);

  /// Pops the next buffered publication of a durable subscription
  /// (nullopt when drained) with one REMOVE-mode dequeue: the
  /// publication is consumed in the dequeue's own transaction, and no
  /// ack follows. A crash before that commit leaves the publication for
  /// the next Fetch; after it, the publication is never fetched again
  /// (a crash before the caller has used it loses it).
  EDADB_NODISCARD Result<std::optional<Publication>> Fetch(
      const std::string& subscription_id);

  /// Buffered publications awaiting Fetch (durable subscriptions).
  EDADB_NODISCARD Result<size_t> PendingCount(const std::string& subscription_id) const;

  std::vector<std::string> ListSubscriptions() const;
  size_t num_subscriptions() const;

 private:
  Broker(Database* db, QueueService* queues, EventRingOptions ring_options);

  struct SubscriptionState {
    SubscriptionSpec spec;
    std::string queue;  // Durable only.
    /// Cleared by Unsubscribe BEFORE the map entry goes away: an
    /// in-flight fan-out that snapshotted this subscription re-checks
    /// the flag per delivery, so no NEW handler invocation starts after
    /// Unsubscribe returns — without Unsubscribe ever waiting on a slow
    /// handler.
    std::atomic<bool> alive{true};
  };

  EDADB_NODISCARD Status LoadPersisted();
  EDADB_NODISCARD Status AddToMatcher(const std::string& id,
                                      Predicate condition)
      EDADB_REQUIRES(mu_);
  static std::string SubQueueName(const std::string& id);

  /// Builds the matcher condition: topic pattern AND content filter.
  /// The filter is compiled on its own, so one that does not compile
  /// alone (say, an unbalanced parenthesis) is InvalidArgument.
  EDADB_NODISCARD static Result<Predicate> BuildCondition(
      std::string_view topic_pattern, std::string_view content_filter);

  EDADB_NODISCARD Status DeliverTo(const SubscriptionState& sub, const Publication& pub);

  /// Invokes a non-durable handler, converting anything it throws into
  /// an error Status so one bad subscriber cannot abort a fan-out.
  EDADB_NODISCARD static Status InvokeHandler(const SubscriptionState& sub,
                                              const Publication& pub);

  /// Shared implementation behind Publish/PublishBatch (pointer + count
  /// so the single-publication wrapper needs no copy).
  EDADB_NODISCARD Result<size_t> PublishSpan(const Publication* pubs, size_t count);

  /// Metrics collector body: per-live-subscriber delivered/missed/lag
  /// gauges plus the subscriber-count gauge (DESIGN.md §13).
  void CollectLiveMetrics(std::vector<metrics::MetricSnapshot>* out) const;

  Database* const db_;
  QueueService* const queues_;

  /// Never held across DeliverTo (handler callbacks / queue enqueues).
  mutable Mutex mu_{"Broker::mu_"};
  IndexedMatcher matcher_ EDADB_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<SubscriptionState>> subscriptions_
      EDADB_GUARDED_BY(mu_);
  uint64_t next_sub_seq_ EDADB_GUARDED_BY(mu_) = 1;

  /// Live fast path. ring_ is created once in the constructor and
  /// internally synchronized; live_mu_ guards only the registry of
  /// cursors (publishes never take it).
  const std::unique_ptr<EventRing> ring_;
  mutable Mutex live_mu_{"Broker::live_mu_"};
  std::map<std::string, std::shared_ptr<LiveSubscription>> live_subs_
      EDADB_GUARDED_BY(live_mu_);
  uint64_t next_live_seq_ EDADB_GUARDED_BY(live_mu_) = 1;
  /// Declared last: unregisters (and waits out any in-flight collector
  /// call) before the fields the collector reads are destroyed.
  metrics::CallbackHandle live_collector_;
};

/// Serializes a publication into a queue message and back.
void PublicationToEnqueueRequest(const Publication& pub,
                                 EnqueueRequest* request);
Publication MessageToPublication(const Message& message);

}  // namespace edadb

#endif  // EDADB_PUBSUB_BROKER_H_
