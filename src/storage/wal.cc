#include "storage/wal.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/string_util.h"

namespace edadb {

namespace {

metrics::Counter* AppendRecordsCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("wal.append.records");
  return c;
}

metrics::Counter* AppendBytesCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("wal.append.bytes");
  return c;
}

metrics::Histogram* AppendLatency() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("wal.append.latency_us");
  return h;
}

metrics::Histogram* SyncLatency() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("wal.sync.latency_us");
  return h;
}

metrics::Histogram* GroupCommitBytes() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("wal.group_commit.bytes");
  return h;
}

/// Appends the on-disk framing for one record to `dst`: the body goes
/// in place and the header is filled in behind it, so a batch is
/// framed with no per-record buffers.
void AppendFrame(uint8_t type, std::string_view payload, std::string* dst) {
  const size_t start = dst->size();
  dst->resize(start + kWalHeaderSize - 1);  // crc | len, filled below.
  dst->push_back(static_cast<char>(type));
  dst->append(payload);
  const uint32_t crc = MaskCrc(
      Crc32c(std::string_view(*dst).substr(start + kWalHeaderSize - 1)));
  const auto len = static_cast<uint32_t>(payload.size());
  std::memcpy(dst->data() + start, &crc, 4);  // Little-endian, as PutFixed32.
  std::memcpy(dst->data() + start + 4, &len, 4);
}

enum class ParseResult { kOk, kIncomplete, kCorrupt };

/// Parses one framed record from `data` at `offset`.
ParseResult ParseRecord(std::string_view data, size_t offset, uint8_t* type,
                        std::string* payload, size_t* record_size) {
  if (offset + kWalHeaderSize > data.size()) return ParseResult::kIncomplete;
  std::string_view header = data.substr(offset, kWalHeaderSize);
  uint32_t stored_crc, len;
  GetFixed32(&header, &stored_crc);
  GetFixed32(&header, &len);
  if (offset + kWalHeaderSize + len > data.size()) {
    return ParseResult::kIncomplete;
  }
  const std::string_view body = data.substr(offset + 8, 1 + len);
  if (MaskCrc(Crc32c(body)) != stored_crc) return ParseResult::kCorrupt;
  *type = static_cast<uint8_t>(body[0]);
  payload->assign(body.substr(1));
  *record_size = kWalHeaderSize + len;
  return ParseResult::kOk;
}

}  // namespace

Lsn ParseWalSegmentName(std::string_view name) {
  if (!StartsWith(name, "wal-") || !EndsWith(name, ".log")) {
    return kInvalidLsn;
  }
  const std::string digits(name.substr(4, name.size() - 8));
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return kInvalidLsn;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

std::string WalSegmentName(Lsn start_lsn) {
  return StringPrintf("wal-%020" PRIu64 ".log", start_lsn);
}

// ---------------------------------------------------------------------------
// WalWriter

Result<std::unique_ptr<WalWriter>> WalWriter::Open(WalOptions options) {
  EDADB_RETURN_IF_ERROR(CreateDirIfMissing(options.dir));
  auto writer = std::unique_ptr<WalWriter>(new WalWriter(std::move(options)));

  // Registered before either return path below; both accessors are
  // plain atomics / own their locks, so the collector is safe whenever
  // a snapshot fires. Process-wide metric: multiple writers sum.
  WalWriter* raw = writer.get();
  writer->metrics_collector_ = metrics::Registry::Default()->RegisterCollector(
      [raw](std::vector<metrics::MetricSnapshot>* out) {
        metrics::MetricSnapshot lag;
        lag.name = "wal.durable_lag_bytes";
        lag.kind = metrics::MetricKind::kGauge;
        lag.value = static_cast<int64_t>(raw->next_lsn() - raw->durable_lsn());
        out->push_back(std::move(lag));
      });

  EDADB_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         ListDir(writer->options_.dir));
  Lsn last_start = kInvalidLsn;
  for (const std::string& name : names) {
    const Lsn start = ParseWalSegmentName(name);
    if (start == kInvalidLsn) continue;
    if (last_start == kInvalidLsn || start > last_start) last_start = start;
  }

  // Open is single-threaded (no concurrent appender can exist yet); the
  // locks are taken only to satisfy the guarded-member annotations.
  if (last_start == kInvalidLsn) {
    MutexLock lock(&writer->wal_mu_);
    EDADB_RETURN_IF_ERROR(writer->OpenNewSegment(0));
    return writer;
  }

  // Validate the newest segment and truncate any torn tail.
  const std::string path =
      writer->options_.dir + "/" + WalSegmentName(last_start);
  EDADB_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  size_t valid = 0;
  while (valid < data.size()) {
    uint8_t type;
    std::string payload;
    size_t record_size;
    const ParseResult pr =
        ParseRecord(data, valid, &type, &payload, &record_size);
    if (pr != ParseResult::kOk) break;
    valid += record_size;
  }
  {
    MutexLock lock(&writer->wal_mu_);
    EDADB_ASSIGN_OR_RETURN(writer->current_, WritableFile::Open(path));
    if (valid < data.size()) {
      EDADB_RETURN_IF_ERROR(writer->current_->Truncate(valid));
    }
    writer->current_segment_start_ = last_start;
    writer->next_lsn_.store(last_start + valid, std::memory_order_release);
  }
  {
    // Everything that survived recovery is on stable media.
    MutexLock lock(&writer->sync_mu_);
    writer->durable_lsn_ = last_start + valid;
  }
  return writer;
}

Status WalWriter::OpenNewSegment(Lsn start_lsn) {
  FAILPOINT("wal.roll");
  if (current_ != nullptr) {
    EDADB_RETURN_IF_ERROR(current_->Sync());
    EDADB_RETURN_IF_ERROR(current_->Close());
  }
  const std::string path = options_.dir + "/" + WalSegmentName(start_lsn);
  EDADB_ASSIGN_OR_RETURN(current_, WritableFile::Open(path));
  current_segment_start_ = start_lsn;
  next_lsn_.store(start_lsn, std::memory_order_release);
  return Status::OK();
}

Result<Lsn> WalWriter::Append(uint8_t type, std::string_view payload) {
  const std::vector<WalRecordRef> one = {{type, payload}};
  EDADB_ASSIGN_OR_RETURN(const WalBatchResult batch, AppendBatch(one));
  return batch.first_lsn;
}

Result<WalBatchResult> WalWriter::AppendBatch(
    const std::vector<WalRecordRef>& records) {
  metrics::LatencyScope latency(AppendLatency());
  WalBatchResult result;
  {
    MutexLock lock(&wal_mu_);
    if (current_ == nullptr) {
      return Status::FailedPrecondition("WAL writer is closed");
    }
    FAILPOINT("wal.append.before");
    result.first_lsn = next_lsn_.load(std::memory_order_acquire);
    result.end_lsn = result.first_lsn;
    if (records.empty()) return result;

    // Frame the whole batch into one buffer so the file sees one
    // write(2) per segment touched; `tail` tracks the LSN the buffered
    // bytes extend to, and next_lsn_ only advances when they land.
    std::string buffer;
    size_t framed_size = 0;
    for (const WalRecordRef& record : records) {
      framed_size += kWalHeaderSize + record.payload.size();
    }
    buffer.reserve(
        std::min<uint64_t>(framed_size, options_.segment_size_bytes));
    Lsn tail = result.first_lsn;
    for (const WalRecordRef& record : records) {
      if (tail - current_segment_start_ >= options_.segment_size_bytes) {
        if (!buffer.empty()) {
          EDADB_RETURN_IF_ERROR(current_->Append(buffer));
          next_lsn_.store(tail, std::memory_order_release);
          dirty_ = true;
          buffer.clear();
        }
        EDADB_RETURN_IF_ERROR(OpenNewSegment(tail));
      }
      const size_t frame_start = buffer.size();
      AppendFrame(record.type, record.payload, &buffer);
#if EDADB_FAILPOINTS_ENABLED
      // Torn write: persist only the first `arg` bytes of this frame —
      // the on-disk shape a power cut mid-write leaves behind — then
      // fail or "die". Custom site because the prefix (and every frame
      // before it in the batch) must land before Crash().
      if (failpoint::internal::AnyArmed()) {
        const failpoint::FireResult fp = failpoint::Fire("wal.append.torn");
        if (fp.fired) {
          const std::string_view framed(buffer);
          if (frame_start > 0) {
            EDADB_RETURN_IF_ERROR(
                current_->Append(framed.substr(0, frame_start)));
            next_lsn_.store(tail, std::memory_order_release);
            dirty_ = true;
          }
          const size_t torn = std::min(static_cast<size_t>(fp.arg),
                                       buffer.size() - frame_start);
          EDADB_RETURN_IF_ERROR(
              current_->Append(framed.substr(frame_start, torn)));
          if (fp.kind == failpoint::ActionKind::kCrash) {
            failpoint::Crash("wal.append.torn");
          }
          return fp.status.ok() ? Status::IOError("injected torn WAL append")
                                : fp.status;
        }
      }
#endif
      tail += buffer.size() - frame_start;
    }
    if (!buffer.empty()) {
      EDADB_RETURN_IF_ERROR(current_->Append(buffer));
      next_lsn_.store(tail, std::memory_order_release);
      dirty_ = true;
    }
    result.end_lsn = tail;
    AppendRecordsCounter()->Add(records.size());
    AppendBytesCounter()->Add(tail - result.first_lsn);
    FAILPOINT("wal.append.after");
  }
  // Outside wal_mu_: SyncTo's leader re-acquires it for the fdatasync.
  if (options_.sync_policy == WalSyncPolicy::kEveryAppend) {
    EDADB_RETURN_IF_ERROR(SyncTo(result.end_lsn));
  }
  return result;
}

Status WalWriter::Sync() {
  return SyncTo(next_lsn_.load(std::memory_order_acquire));
}

Status WalWriter::SyncTo(Lsn target) {
  // Fires regardless of sync policy, in the calling thread (not just
  // the elected leader): an injected failure models the device dying,
  // which no policy can mask.
  FAILPOINT("wal.sync");
  if (options_.sync_policy == WalSyncPolicy::kNever) {
    // No durability promised; the barrier degenerates to the failpoint
    // below so torture schedules reach the leader site under kNever.
    FAILPOINT("wal.group_commit.leader");
    return Status::OK();
  }
  for (;;) {
    {
      MutexLock lock(&sync_mu_);
      if (durable_lsn_ >= target) return Status::OK();
      if (sync_in_flight_) {
        // Follower: an elected leader is syncing. Its fdatasync may
        // already cover `target` (it snapshots next_lsn_ after taking
        // wal_mu_); re-check durable_lsn_ when it finishes.
        sync_cv_.Wait(&sync_mu_);
        continue;
      }
      sync_in_flight_ = true;  // This thread is the leader.
    }

#if EDADB_FAILPOINTS_ENABLED
    // Leader boundary. Custom site (not FAILPOINT) because a crash or
    // injected error must first hand leadership back and wake the
    // followers — otherwise they would wait forever on a dead leader.
    if (failpoint::internal::AnyArmed()) {
      const failpoint::FireResult fp =
          failpoint::Fire("wal.group_commit.leader");
      if (fp.fired &&
          (fp.kind == failpoint::ActionKind::kCrash || !fp.status.ok())) {
        {
          MutexLock lock(&sync_mu_);
          sync_in_flight_ = false;
        }
        sync_cv_.SignalAll();
        if (fp.kind == failpoint::ActionKind::kCrash) {
          failpoint::Crash("wal.group_commit.leader");
        }
        return fp.status;
      }
      // Fired with an OK status (or a delay): fall through to the real
      // sync below.
    }
#endif

    // Leader: sync everything appended so far — including records from
    // committers that arrived after this one (their sync then returns
    // without touching the file).
    Status sync_status;
    Lsn synced_end = 0;
    {
      MutexLock lock(&wal_mu_);
      synced_end = next_lsn_.load(std::memory_order_acquire);
      if (current_ == nullptr) {
        sync_status = Status::FailedPrecondition("WAL writer is closed");
      } else if (dirty_) {
        metrics::LatencyScope sync_latency(SyncLatency());
        sync_status = current_->Sync();
        if (sync_status.ok()) dirty_ = false;
      }
    }
    {
      MutexLock lock(&sync_mu_);
      sync_in_flight_ = false;
      // On failure the watermark stays put: every waiter re-elects
      // itself leader and retries (or propagates the error).
      if (sync_status.ok() && synced_end > durable_lsn_) {
        // How many bytes this one fdatasync made durable — the group
        // commit batching factor.
        GroupCommitBytes()->Record(synced_end - durable_lsn_);
        durable_lsn_ = synced_end;
      }
    }
    sync_cv_.SignalAll();
    EDADB_RETURN_IF_ERROR(sync_status);
    if (synced_end >= target) return Status::OK();
  }
}

Lsn WalWriter::durable_lsn() const {
  if (options_.sync_policy == WalSyncPolicy::kNever) {
    return next_lsn_.load(std::memory_order_acquire);
  }
  MutexLock lock(&sync_mu_);
  return durable_lsn_;
}

Status WalWriter::TruncateBefore(Lsn lsn) {
  FAILPOINT("wal.truncate_before");
  Lsn live_segment_start;
  {
    MutexLock lock(&wal_mu_);
    live_segment_start = current_segment_start_;
  }
  EDADB_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(options_.dir));
  std::vector<Lsn> starts;
  for (const std::string& name : names) {
    const Lsn start = ParseWalSegmentName(name);
    if (start != kInvalidLsn) starts.push_back(start);
  }
  std::sort(starts.begin(), starts.end());
  // A segment [start_i, start_{i+1}) may be deleted when its end <= lsn.
  for (size_t i = 0; i + 1 < starts.size(); ++i) {
    if (starts[i + 1] <= lsn && starts[i] != live_segment_start) {
      EDADB_RETURN_IF_ERROR(
          RemoveFile(options_.dir + "/" + WalSegmentName(starts[i])));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// WalCursor

WalCursor::WalCursor(std::string dir, Lsn start_lsn)
    : dir_(std::move(dir)), lsn_(start_lsn) {}

Status WalCursor::RefreshSegments() {
  EDADB_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  segments_.clear();
  for (const std::string& name : names) {
    const Lsn start = ParseWalSegmentName(name);
    if (start != kInvalidLsn) segments_.emplace(start, dir_ + "/" + name);
  }
  return Status::OK();
}

Result<bool> WalCursor::PositionFile() {
  if (file_ != nullptr && file_start_ != kInvalidLsn) {
    // Still inside the current segment?
    auto next = segments_.upper_bound(file_start_);
    const bool in_current =
        lsn_ >= file_start_ &&
        (next == segments_.end() || lsn_ < next->first);
    if (in_current) return true;
  }
  EDADB_RETURN_IF_ERROR(RefreshSegments());
  // Find the segment with the greatest start <= lsn_.
  auto it = segments_.upper_bound(lsn_);
  if (it == segments_.begin()) return false;
  --it;
  // Verify lsn_ falls before the next segment start (if any).
  auto next = std::next(it);
  if (next != segments_.end() && lsn_ >= next->first) {
    return Status::Corruption(
        StringPrintf("WAL cursor lsn %" PRIu64 " falls in a segment gap",
                     lsn_));
  }
  if (file_ == nullptr || file_start_ != it->first) {
    EDADB_ASSIGN_OR_RETURN(file_, RandomAccessFile::Open(it->second));
    file_start_ = it->first;
  }
  return true;
}

Result<bool> WalCursor::Next(WalEntry* out) {
  for (;;) {
    EDADB_ASSIGN_OR_RETURN(bool positioned, PositionFile());
    if (!positioned) return false;

    const uint64_t offset = lsn_ - file_start_;
    std::string header;
    EDADB_RETURN_IF_ERROR(file_->Read(offset, kWalHeaderSize, &header));
    if (header.size() < kWalHeaderSize) {
      // At (or past) the end of this segment. If a following segment
      // starts exactly at the segment's end and we've consumed this one
      // fully, roll forward; otherwise we are caught up.
      EDADB_RETURN_IF_ERROR(RefreshSegments());
      auto next = segments_.upper_bound(file_start_);
      if (next != segments_.end() && header.empty() && lsn_ == next->first) {
        file_.reset();
        file_start_ = kInvalidLsn;
        continue;
      }
      return false;
    }
    std::string_view hv = header;
    uint32_t stored_crc, len;
    GetFixed32(&hv, &stored_crc);
    GetFixed32(&hv, &len);
    std::string body;
    EDADB_RETURN_IF_ERROR(file_->Read(offset + 8, 1 + len, &body));
    if (body.size() < 1 + len) {
      // Record still being appended by the writer.
      return false;
    }
    if (MaskCrc(Crc32c(body)) != stored_crc) {
      // Torn tail of the live segment is retried later; anything else is
      // real corruption.
      EDADB_RETURN_IF_ERROR(RefreshSegments());
      const bool is_last_segment =
          !segments_.empty() && file_start_ == segments_.rbegin()->first;
      if (is_last_segment) return false;
      return Status::Corruption(
          StringPrintf("bad WAL record crc at lsn %" PRIu64, lsn_));
    }
    out->lsn = lsn_;
    out->type = static_cast<uint8_t>(body[0]);
    out->payload = body.substr(1);
    lsn_ += kWalHeaderSize + len;
    return true;
  }
}

}  // namespace edadb
