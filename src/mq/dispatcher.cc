#include "mq/dispatcher.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "db/database.h"

namespace edadb {

namespace {

metrics::Counter* HandledCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("mq.dispatch.handled");
  return c;
}

metrics::Counter* RetriesCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("mq.dispatch.retries");
  return c;
}

metrics::Histogram* DispatchLatency() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("mq.dispatch.latency_us");
  return h;
}

}  // namespace

QueueDispatcher::~QueueDispatcher() { Stop(); }

Status QueueDispatcher::Bind(Binding binding) {
  if (binding.handler == nullptr) {
    return Status::InvalidArgument("binding needs a handler");
  }
  if (!queues_->HasQueue(binding.queue)) {
    return Status::NotFound("queue '" + binding.queue + "'");
  }
  MutexLock lock(&mu_);
  const std::string key = Key(binding.queue, binding.group);
  auto [it, inserted] = bindings_.emplace(key, BoundState{});
  if (!inserted) {
    return Status::AlreadyExists("binding for queue '" + binding.queue +
                                 "' group '" + binding.group +
                                 "' already exists");
  }
  it->second.binding = std::move(binding);
  return Status::OK();
}

Status QueueDispatcher::Unbind(const std::string& queue,
                               const std::string& group) {
  MutexLock lock(&mu_);
  if (bindings_.erase(Key(queue, group)) == 0) {
    return Status::NotFound("no binding for queue '" + queue + "' group '" +
                            group + "'");
  }
  return Status::OK();
}

Result<size_t> QueueDispatcher::PumpOnce() {
  // Snapshot bindings so handlers can (un)bind reentrantly.
  std::vector<Binding> bindings;
  {
    MutexLock lock(&mu_);
    bindings.reserve(bindings_.size());
    for (const auto& [key, state] : bindings_) {
      bindings.push_back(state.binding);
    }
  }
  size_t handled_total = 0;
  for (const Binding& binding : bindings) {
    DequeueRequest request;
    request.group = binding.group;
    request.selector = binding.selector;
    for (;;) {
      EDADB_ASSIGN_OR_RETURN(std::optional<Message> message,
                             queues_->Dequeue(binding.queue, request));
      if (!message.has_value()) break;
      // End-to-end delivery latency: enqueue (wall, persisted) to the
      // moment the handler gets the message — a wall-wall difference,
      // so a domain-free duration. Clamped: a wall step between the two
      // reads can make it negative.
      DispatchLatency()->Record(static_cast<uint64_t>(
          std::max<TimestampMicros>(
              0, queues_->db()->clock()->WallNow() -
                     WallMicros::FromMicros(message->enqueue_time))));
      const Status status = binding.handler(*message);
      const std::span<const MessageId> id(&message->id, 1);
      MutexLock lock(&mu_);
      auto it = bindings_.find(Key(binding.queue, binding.group));
      if (status.ok()) {
        EDADB_RETURN_IF_ERROR(
            queues_->Settle(binding.queue, binding.group, {.acked = id}));
        if (it != bindings_.end()) ++it->second.stats.handled;
        HandledCounter()->Add(1);
        ++handled_total;
      } else {
        EDADB_LOG(Warn) << "handler for queue '" << binding.queue
                        << "' failed: " << status;
        EDADB_RETURN_IF_ERROR(
            queues_->Settle(binding.queue, binding.group, {.nacked = id}));
        if (it != bindings_.end()) ++it->second.stats.failed;
        RetriesCounter()->Add(1);
        // Leave the message for redelivery policy; stop this binding's
        // drain to avoid hot-looping on a poisoned head.
        break;
      }
    }
  }
  return handled_total;
}

Status QueueDispatcher::Start(TimestampMicros idle_wait_micros,
                              size_t num_workers) {
  if (num_workers == 0) {
    return Status::InvalidArgument("dispatcher needs at least one worker");
  }
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("dispatcher already running");
  }
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, idle_wait_micros] {
      while (running_.load(std::memory_order_acquire)) {
        // Read the activity sequence BEFORE pumping: anything enqueued
        // while the pump runs changes the seq, so the wait below returns
        // immediately instead of missing it.
        const uint64_t seq = queues_->activity_seq();
        auto pumped = PumpOnce();
        if (!pumped.ok()) {
          EDADB_LOG(Warn) << "dispatcher pump failed: " << pumped.status();
        }
        if (!pumped.ok() || *pumped == 0) {
          // Idle: block until new queue activity (or the fallback bound,
          // which re-polls bindings added after the pump snapshot).
          if (queues_->WaitForActivity(seq, idle_wait_micros)) {
            wakeups_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  return Status::OK();
}

void QueueDispatcher::Stop() {
  running_.store(false, std::memory_order_release);
  // Workers may be parked in WaitForActivity; bump the sequence so they
  // wake, re-check running_, and exit.
  queues_->WakeWaiters();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

Result<QueueDispatcher::BindingStats> QueueDispatcher::GetStats(
    const std::string& queue, const std::string& group) const {
  MutexLock lock(&mu_);
  auto it = bindings_.find(Key(queue, group));
  if (it == bindings_.end()) {
    return Status::NotFound("no binding for queue '" + queue + "'");
  }
  return it->second.stats;
}

}  // namespace edadb
