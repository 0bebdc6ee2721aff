#include "mlog/log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/crc32c.h"
#include "common/strings.h"
#include "common/varint.h"
#include "mlog/codec.h"

namespace tcmf::mlog {

namespace fs = std::filesystem;

namespace {

/// Segment file header: magic "MLG1", version (u32 LE), base offset
/// (u64 LE). The base offset is also encoded in the filename; the header
/// copy guards against renamed/foreign files.
constexpr char kMagic[4] = {'M', 'L', 'G', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint64_t kSegmentHeaderSize = 16;
constexpr char kSegmentExt[] = ".mseg";

/// Largest possible entry header: 10-byte length varint + 4-byte CRC.
constexpr uint64_t kMaxEntryHeader = 14;

/// Cursor read-ahead chunk.
constexpr uint64_t kReadChunk = 64 * 1024;

std::string SegmentFileName(uint64_t base_offset) {
  return StrFormat("%020llu%s",
                   static_cast<unsigned long long>(base_offset), kSegmentExt);
}

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Full pwrite (handles short writes / EINTR).
Status PwriteAll(int fd, const char* data, size_t n, uint64_t pos) {
  size_t done = 0;
  while (done < n) {
    const ssize_t w = ::pwrite(fd, data + done, n - done, pos + done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("mlog: pwrite");
    }
    done += static_cast<size_t>(w);
  }
  return Status::Ok();
}

/// Full pread; returns false on IO error or premature EOF.
bool PreadAll(int fd, char* data, size_t n, uint64_t pos) {
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd, data + done, n - done, pos + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    done += static_cast<size_t>(r);
  }
  return true;
}

std::string EncodeSegmentHeader(uint64_t base_offset) {
  std::string h(kMagic, 4);
  AppendFixed32(&h, kFormatVersion);
  AppendFixed64(&h, base_offset);
  return h;
}

bool ValidSegmentHeader(const char* h, uint64_t expected_base) {
  return std::memcmp(h, kMagic, 4) == 0 &&
         DecodeFixed32(h + 4) == kFormatVersion &&
         DecodeFixed64(h + 8) == expected_base;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kPerBatch:
      return "per_batch";
    case FsyncPolicy::kPerAppend:
      return "per_append";
  }
  return "unknown";
}

std::string LogMetrics::ToJson() const {
  return StrFormat(
      "{\"appended_records\":%llu,\"appended_bytes\":%llu,\"fsyncs\":%llu,"
      "\"read_records\":%llu,\"read_bytes\":%llu,"
      "\"segments_created\":%llu,\"segments_deleted\":%llu,"
      "\"recovered_records\":%llu,\"truncated_bytes\":%llu,"
      "\"sync_stalls\":%llu}",
      static_cast<unsigned long long>(appended_records),
      static_cast<unsigned long long>(appended_bytes),
      static_cast<unsigned long long>(fsyncs),
      static_cast<unsigned long long>(read_records),
      static_cast<unsigned long long>(read_bytes),
      static_cast<unsigned long long>(segments_created),
      static_cast<unsigned long long>(segments_deleted),
      static_cast<unsigned long long>(recovered_records),
      static_cast<unsigned long long>(truncated_bytes),
      static_cast<unsigned long long>(sync_stalls));
}

/// One segment file. `committed_*` only ever grow and are published with
/// release stores after the corresponding bytes hit the file, so a cursor
/// that acquires them never observes a partially-written entry.
struct Log::Segment {
  uint64_t base_offset = 0;
  std::string path;
  int fd = -1;
  std::atomic<uint64_t> committed_bytes{0};    ///< file bytes incl. header
  std::atomic<uint64_t> committed_records{0};
  std::atomic<bool> sealed{false};

  /// Sparse index: (relative record index, byte position of its entry),
  /// strictly increasing in both components. Built during append (and
  /// tail recovery); sealed segments reopened from disk have none and
  /// are scanned from their start on seek.
  std::mutex index_mutex;
  std::vector<std::pair<uint64_t, uint64_t>> index;
  uint64_t last_index_pos = kSegmentHeaderSize;  ///< writer-only

  ~Segment() {
    if (fd >= 0) ::close(fd);
  }
};

Log::Log(LogOptions options) : options_(std::move(options)) {}

Log::~Log() = default;

Result<std::unique_ptr<Log>> Log::Open(const LogOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("mlog: LogOptions.dir is required");
  }
  std::unique_ptr<Log> log(new Log(options));
  TCMF_RETURN_IF_ERROR(log->OpenDir());
  return log;
}

Status Log::OpenDir() {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IoError("mlog: create_directories " + options_.dir + ": " +
                           ec.message());
  }

  // Collect segment files, sorted by their filename-encoded base offset.
  std::vector<std::pair<uint64_t, std::string>> files;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() != kSegmentExt) continue;
    Result<long long> base = ParseInt(p.stem().string());
    if (!base.ok() || base.value() < 0) {
      return Status::IoError("mlog: unparsable segment name " + p.string());
    }
    files.emplace_back(static_cast<uint64_t>(base.value()), p.string());
  }
  if (ec) return Status::IoError("mlog: listing " + options_.dir);
  std::sort(files.begin(), files.end());

  std::lock_guard<std::mutex> lock(mutex_);
  if (files.empty()) return CreateSegmentLocked(0);

  for (size_t i = 0; i < files.size(); ++i) {
    const auto& [base, path] = files[i];
    const bool is_tail = (i + 1 == files.size());
    const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) return ErrnoStatus("mlog: open " + path);
    auto seg = std::make_shared<Segment>();
    seg->base_offset = base;
    seg->path = path;
    seg->fd = fd;

    struct stat st;
    if (::fstat(fd, &st) != 0) return ErrnoStatus("mlog: fstat " + path);
    const uint64_t size = static_cast<uint64_t>(st.st_size);

    char header[kSegmentHeaderSize];
    const bool header_ok = size >= kSegmentHeaderSize &&
                           PreadAll(fd, header, kSegmentHeaderSize, 0) &&
                           ValidSegmentHeader(header, base);

    if (!is_tail) {
      // Sealed segment: header must be intact; the record count is
      // implied by the next segment's base offset.
      if (!header_ok) {
        return Status::IoError("mlog: bad header in sealed segment " + path);
      }
      if (files[i + 1].first < base) {
        return Status::IoError("mlog: segment base offsets not monotonic");
      }
      seg->committed_bytes.store(size, std::memory_order_release);
      seg->committed_records.store(files[i + 1].first - base,
                                   std::memory_order_release);
      seg->sealed.store(true, std::memory_order_release);
      segments_.push_back(std::move(seg));
      continue;
    }

    // Tail segment: recovery scan. Everything up to the first torn or
    // CRC-failing entry survives; the rest is truncated so the next
    // append continues at the next offset with no gap and no duplicate.
    if (!header_ok) {
      // Torn before the header finished (or foreign bytes): reset the
      // segment to empty, keeping its base offset.
      if (::ftruncate(fd, 0) != 0) return ErrnoStatus("mlog: ftruncate");
      const std::string h = EncodeSegmentHeader(base);
      TCMF_RETURN_IF_ERROR(PwriteAll(fd, h.data(), h.size(), 0));
      truncated_bytes_ += size;
      seg->committed_bytes.store(kSegmentHeaderSize,
                                 std::memory_order_release);
      segments_.push_back(std::move(seg));
      continue;
    }

    std::string data(size - kSegmentHeaderSize, '\0');
    if (!data.empty() &&
        !PreadAll(fd, data.data(), data.size(), kSegmentHeaderSize)) {
      return ErrnoStatus("mlog: pread " + path);
    }
    const char* p = data.data();
    const char* limit = p + data.size();
    uint64_t records = 0;
    uint64_t pos = kSegmentHeaderSize;
    stream::Record scratch;
    while (p < limit) {
      EntryView entry;
      if (!ParseEntry(p, limit, &entry)) break;
      // The CRC already vouches for integrity; decoding as well
      // guarantees cursors can never fail on recovered entries.
      if (!DecodeRecordPayload(entry.payload, &scratch)) break;
      pos += static_cast<uint64_t>(entry.next - p);
      p = entry.next;
      ++records;
      if (pos - seg->last_index_pos >= options_.index_interval_bytes) {
        seg->index.emplace_back(records, pos);
        seg->last_index_pos = pos;
      }
    }
    if (pos < size) {
      if (::ftruncate(fd, static_cast<off_t>(pos)) != 0) {
        return ErrnoStatus("mlog: ftruncate " + path);
      }
      truncated_bytes_ += size - pos;
    }
    recovered_records_ = records;
    seg->committed_bytes.store(pos, std::memory_order_release);
    seg->committed_records.store(records, std::memory_order_release);
    segments_.push_back(std::move(seg));
  }
  return Status::Ok();
}

Status Log::CreateSegmentLocked(uint64_t base_offset) {
  const std::string path =
      (fs::path(options_.dir) / SegmentFileName(base_offset)).string();
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("mlog: create " + path);
  const std::string h = EncodeSegmentHeader(base_offset);
  Status s = PwriteAll(fd, h.data(), h.size(), 0);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  if (options_.fsync_policy != FsyncPolicy::kNever) {
    ::fdatasync(fd);
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  auto seg = std::make_shared<Segment>();
  seg->base_offset = base_offset;
  seg->path = path;
  seg->fd = fd;
  seg->committed_bytes.store(kSegmentHeaderSize, std::memory_order_release);
  segments_.push_back(std::move(seg));
  segments_created_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Log::RollLocked() {
  Segment* seg = segments_.back().get();
  if (options_.fsync_policy != FsyncPolicy::kNever) {
    ::fdatasync(seg->fd);
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  seg->sealed.store(true, std::memory_order_release);
  TCMF_RETURN_IF_ERROR(CreateSegmentLocked(
      seg->base_offset +
      seg->committed_records.load(std::memory_order_relaxed)));
  ApplyRetentionLocked();
  return Status::Ok();
}

void Log::ApplyRetentionLocked() {
  while (segments_.size() > 1) {
    const bool over_count = options_.retention_segments > 0 &&
                            segments_.size() > options_.retention_segments;
    uint64_t total = 0;
    for (const auto& seg : segments_) {
      total += seg->committed_bytes.load(std::memory_order_relaxed);
    }
    const bool over_bytes =
        options_.retention_bytes > 0 && total > options_.retention_bytes;
    if (!over_count && !over_bytes) break;
    // Cursors holding the segment keep reading it through their
    // shared_ptr (POSIX keeps unlinked-but-open files readable); new
    // seeks clamp to the advanced start_offset.
    ::unlink(segments_.front()->path.c_str());
    segments_.erase(segments_.begin());
    segments_deleted_.fetch_add(1, std::memory_order_relaxed);
  }
}

Result<uint64_t> Log::Append(const stream::Record& record) {
  std::string buf;
  std::vector<size_t> entry_ends;
  AppendEntry(&buf, record);
  entry_ends.push_back(buf.size());
  return AppendEncoded(buf, 1, entry_ends);
}

Result<uint64_t> Log::AppendBatch(const std::vector<stream::Record>& records) {
  if (records.empty()) return next_offset();
  std::string buf;
  std::vector<size_t> entry_ends;
  entry_ends.reserve(records.size());
  for (const stream::Record& r : records) {
    AppendEntry(&buf, r);
    entry_ends.push_back(buf.size());
  }
  return AppendEncoded(buf, records.size(), entry_ends);
}

Result<uint64_t> Log::AppendEncoded(const std::string& buf, uint64_t count,
                                    const std::vector<size_t>& entry_ends) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!append_fault_.ok()) return append_fault_;
  Segment* seg = segments_.back().get();
  if (seg->committed_records.load(std::memory_order_relaxed) > 0 &&
      seg->committed_bytes.load(std::memory_order_relaxed) + buf.size() >
          options_.segment_bytes) {
    TCMF_RETURN_IF_ERROR(RollLocked());
    seg = segments_.back().get();
  }
  const uint64_t records_before =
      seg->committed_records.load(std::memory_order_relaxed);
  const uint64_t pos = seg->committed_bytes.load(std::memory_order_relaxed);
  const uint64_t first_offset = seg->base_offset + records_before;

  if (options_.fsync_policy == FsyncPolicy::kPerAppend) {
    // Durability-max mode: write + sync + publish one record at a time,
    // so every returned offset is already on stable storage.
    size_t from = 0;
    uint64_t recs = records_before;
    for (const size_t end : entry_ends) {
      TCMF_RETURN_IF_ERROR(
          PwriteAll(seg->fd, buf.data() + from, end - from, pos + from));
      ::fdatasync(seg->fd);
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
      ++recs;
      seg->committed_bytes.store(pos + end, std::memory_order_release);
      seg->committed_records.store(recs, std::memory_order_release);
      from = end;
    }
  } else {
    TCMF_RETURN_IF_ERROR(PwriteAll(seg->fd, buf.data(), buf.size(), pos));
    if (options_.fsync_policy == FsyncPolicy::kPerBatch) {
      ::fdatasync(seg->fd);
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
    seg->committed_bytes.store(pos + buf.size(), std::memory_order_release);
    seg->committed_records.store(records_before + count,
                                 std::memory_order_release);
  }

  // Extend the sparse index at record boundaries.
  {
    std::lock_guard<std::mutex> index_lock(seg->index_mutex);
    for (size_t i = 0; i < entry_ends.size(); ++i) {
      const uint64_t boundary = pos + entry_ends[i];
      if (boundary - seg->last_index_pos >= options_.index_interval_bytes) {
        seg->index.emplace_back(records_before + i + 1, boundary);
        seg->last_index_pos = boundary;
      }
    }
  }

  appended_records_.fetch_add(count, std::memory_order_relaxed);
  appended_bytes_.fetch_add(buf.size(), std::memory_order_relaxed);
  StallForSyncDelay();
  return first_offset;
}

void Log::SetAppendFault(Status fault) {
  std::lock_guard<std::mutex> lock(mutex_);
  append_fault_ = std::move(fault);
}

void Log::SetSyncDelay(TimeMs delay_ms) {
  sync_delay_ms_.store(delay_ms < 0 ? 0 : delay_ms, std::memory_order_relaxed);
}

void Log::StallForSyncDelay() {
  const int64_t delay = sync_delay_ms_.load(std::memory_order_relaxed);
  if (delay <= 0) return;
  sync_stalls_.fetch_add(1, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

Status Log::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (::fdatasync(segments_.back()->fd) != 0) {
    return ErrnoStatus("mlog: fdatasync");
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  StallForSyncDelay();
  return Status::Ok();
}

uint64_t Log::start_offset() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_.front()->base_offset;
}

uint64_t Log::next_offset() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Segment* seg = segments_.back().get();
  return seg->base_offset +
         seg->committed_records.load(std::memory_order_acquire);
}

size_t Log::segment_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_.size();
}

uint64_t Log::size_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& seg : segments_) {
    total += seg->committed_bytes.load(std::memory_order_acquire);
  }
  return total;
}

LogMetrics Log::metrics() const {
  LogMetrics m;
  m.appended_records = appended_records_.load(std::memory_order_relaxed);
  m.appended_bytes = appended_bytes_.load(std::memory_order_relaxed);
  m.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  m.read_records = read_records_.load(std::memory_order_relaxed);
  m.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  m.segments_created = segments_created_.load(std::memory_order_relaxed);
  m.segments_deleted = segments_deleted_.load(std::memory_order_relaxed);
  m.recovered_records = recovered_records_;
  m.truncated_bytes = truncated_bytes_;
  m.sync_stalls = sync_stalls_.load(std::memory_order_relaxed);
  return m;
}

stream::StageMetrics Log::StageMetricsSnapshot() const {
  const LogMetrics lm = metrics();
  stream::StageMetrics m;
  m.records_in = lm.appended_records;
  m.records_out = lm.read_records;
  m.bytes = lm.appended_bytes;
  m.io_syncs = lm.fsyncs;
  m.recovered = lm.recovered_records;
  m.truncated_bytes = lm.truncated_bytes;
  return m;
}

std::unique_ptr<Cursor> Log::NewCursor() {
  std::unique_ptr<Cursor> cursor(new Cursor(this));
  cursor->Seek(start_offset());
  return cursor;
}

std::shared_ptr<Log::Segment> Log::SegmentForOffsetLocked(
    uint64_t offset) const {
  for (const auto& seg : segments_) {
    if (offset < seg->base_offset) return seg;  // retention gap: first after
    const uint64_t end =
        seg->base_offset +
        seg->committed_records.load(std::memory_order_acquire);
    if (offset < end) return seg;
  }
  return segments_.back();  // offset == next_offset: park at the tail
}

std::shared_ptr<Log::Segment> Log::SegmentAfter(uint64_t base) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& seg : segments_) {
    if (seg->base_offset > base) return seg;
  }
  return nullptr;
}

Cursor::Cursor(Log* log) : log_(log) {}

Cursor::~Cursor() = default;

Status Cursor::Seek(uint64_t offset) {
  status_ = Status::Ok();
  const uint64_t lo = log_->start_offset();
  const uint64_t hi = log_->next_offset();
  offset = std::min(std::max(offset, lo), hi);
  status_ = PositionAt(offset);
  return status_;
}

Status Cursor::PositionAt(uint64_t offset) {
  std::shared_ptr<Log::Segment> seg;
  {
    std::lock_guard<std::mutex> lock(log_->mutex_);
    seg = log_->SegmentForOffsetLocked(offset);
  }
  if (seg->base_offset > offset) offset = seg->base_offset;
  const uint64_t rel = offset - seg->base_offset;

  uint64_t rec = 0;
  uint64_t pos = kSegmentHeaderSize;
  {
    std::lock_guard<std::mutex> index_lock(seg->index_mutex);
    auto it = std::upper_bound(
        seg->index.begin(), seg->index.end(), rel,
        [](uint64_t r, const std::pair<uint64_t, uint64_t>& e) {
          return r < e.first;
        });
    if (it != seg->index.begin()) {
      --it;
      rec = it->first;
      pos = it->second;
    }
  }

  seg_ = std::move(seg);
  buf_.clear();
  buf_pos_ = 0;
  const uint64_t committed =
      seg_->committed_bytes.load(std::memory_order_acquire);
  // Walk entry headers from the index point to the target record.
  while (rec < rel) {
    const uint64_t avail =
        std::min<uint64_t>(committed - pos, kMaxEntryHeader);
    const char* p = View(pos, avail);
    uint64_t len = 0;
    const char* q = p ? ParseVarint64(p, p + avail, &len) : nullptr;
    if (q == nullptr || pos + (q - p) + 4 + len > committed) {
      const std::string path = seg_->path;
      seg_.reset();
      return Status::IoError("mlog: corrupt entry during seek in " + path);
    }
    pos += static_cast<uint64_t>(q - p) + 4 + len;
    ++rec;
  }
  byte_pos_ = pos;
  next_offset_ = seg_->base_offset + rel;
  return Status::Ok();
}

Status Cursor::SeekToTime(TimeMs t) {
  TCMF_RETURN_IF_ERROR(Seek(log_->start_offset()));
  while (true) {
    std::string_view payload;
    uint64_t frame_size = 0;
    const int st = ReadFrame(&payload, &frame_size);
    if (st < 0) return status_;
    if (st == 0) return Status::Ok();  // exhausted: parked at the end
    TimeMs event_time = 0;
    if (!DecodePayloadEventTime(payload, &event_time)) {
      status_ = Status::IoError("mlog: corrupt payload during time seek");
      return status_;
    }
    if (event_time >= t) return Status::Ok();  // positioned, not consumed
    byte_pos_ += frame_size;
    ++next_offset_;
  }
}

std::optional<ReadRecord> Cursor::Next() {
  if (!status_.ok() || seg_ == nullptr) return std::nullopt;
  std::string_view payload;
  uint64_t frame_size = 0;
  const int st = ReadFrame(&payload, &frame_size);
  if (st <= 0) return std::nullopt;
  ReadRecord out;
  out.offset = next_offset_;
  if (!DecodeRecordPayload(payload, &out.record)) {
    status_ = Status::IoError("mlog: undecodable entry at offset " +
                              std::to_string(next_offset_));
    return std::nullopt;
  }
  byte_pos_ += frame_size;
  ++next_offset_;
  log_->read_records_.fetch_add(1, std::memory_order_relaxed);
  log_->read_bytes_.fetch_add(frame_size, std::memory_order_relaxed);
  return out;
}

size_t Cursor::NextBatch(std::vector<ReadRecord>* out, size_t max_n) {
  if (!status_.ok() || seg_ == nullptr || max_n == 0) return 0;
  size_t n = 0;
  uint64_t bytes = 0;
  // One committed-watermark sample is reused for every frame decoded from
  // the same segment in this batch (see ReadFrame's cache contract).
  uint64_t committed_cache = 0;
  while (n < max_n) {
    std::string_view payload;
    uint64_t frame_size = 0;
    const int st = ReadFrame(&payload, &frame_size, &committed_cache);
    if (st <= 0) break;
    ReadRecord rec;
    rec.offset = next_offset_;
    if (!DecodeRecordPayload(payload, &rec.record)) {
      status_ = Status::IoError("mlog: undecodable entry at offset " +
                                std::to_string(next_offset_));
      break;
    }
    out->push_back(std::move(rec));
    byte_pos_ += frame_size;
    ++next_offset_;
    bytes += frame_size;
    ++n;
  }
  if (n > 0) {
    // Amortized metrics: one fetch_add pair per batch, not per record.
    log_->read_records_.fetch_add(n, std::memory_order_relaxed);
    log_->read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  return n;
}

int Cursor::ReadFrame(std::string_view* payload, uint64_t* frame_size,
                      uint64_t* committed_cache) {
  if (!status_.ok() || seg_ == nullptr) return -1;
  while (true) {
    // The cached watermark is only trusted while it proves bytes ahead of
    // the cursor; otherwise take (and re-publish) a fresh acquire load.
    uint64_t committed;
    if (committed_cache != nullptr && *committed_cache > byte_pos_) {
      committed = *committed_cache;
    } else {
      committed = seg_->committed_bytes.load(std::memory_order_acquire);
      if (committed_cache != nullptr) *committed_cache = committed;
    }
    if (byte_pos_ >= committed) {
      // Caught up with this segment. If it is sealed a successor must
      // exist (roll publishes both under the log mutex); otherwise we
      // are tailing the active segment.
      if (!seg_->sealed.load(std::memory_order_acquire)) return 0;
      if (next_offset_ != seg_->base_offset + seg_->committed_records.load(
                                                  std::memory_order_acquire)) {
        // A sealed segment's record count is implied by its successor's
        // base offset; ending short (or long) is mid-log damage that
        // would otherwise show up as a silent offset gap.
        status_ = Status::IoError("mlog: sealed segment " + seg_->path +
                                  " ends at offset " +
                                  std::to_string(next_offset_));
        return -1;
      }
      std::shared_ptr<Log::Segment> next =
          log_->SegmentAfter(seg_->base_offset);
      if (next == nullptr) return 0;
      seg_ = std::move(next);
      byte_pos_ = kSegmentHeaderSize;
      // Retention may have removed intermediate segments: jump forward.
      if (next_offset_ < seg_->base_offset) next_offset_ = seg_->base_offset;
      buf_.clear();
      buf_pos_ = 0;
      // New segment, new watermark: invalidate the caller's cache.
      if (committed_cache != nullptr) *committed_cache = 0;
      continue;
    }
    const uint64_t avail =
        std::min<uint64_t>(committed - byte_pos_, kMaxEntryHeader);
    const char* p = View(byte_pos_, avail);
    if (p == nullptr) {
      status_ = Status::IoError("mlog: read failed in " + seg_->path);
      return -1;
    }
    uint64_t len = 0;
    const char* q = ParseVarint64(p, p + avail, &len);
    // Bounds-check without summing: a damaged length near 2^64 would
    // wrap `header + 4 + len` to a small frame.
    const uint64_t room = committed - byte_pos_;
    if (q == nullptr || len > room ||
        room - len < static_cast<uint64_t>(q - p) + 4) {
      // Committed data never ends mid-entry; this is mid-log damage
      // (bit rot in a sealed segment), surfaced as a sticky error.
      status_ = Status::IoError("mlog: corrupt entry at offset " +
                                std::to_string(next_offset_) + " in " +
                                seg_->path);
      return -1;
    }
    const uint64_t header_len = static_cast<uint64_t>(q - p);
    const uint64_t frame = header_len + 4 + len;
    const char* f = View(byte_pos_, frame);
    if (f == nullptr) {
      status_ = Status::IoError("mlog: read failed in " + seg_->path);
      return -1;
    }
    const uint32_t stored = DecodeFixed32(f + header_len);
    const char* payload_ptr = f + header_len + 4;
    if (Crc32cMask(Crc32c(payload_ptr, len)) != stored) {
      status_ = Status::IoError("mlog: CRC mismatch at offset " +
                                std::to_string(next_offset_) + " in " +
                                seg_->path);
      return -1;
    }
    *payload = std::string_view(payload_ptr, len);
    *frame_size = frame;
    return 1;
  }
}

const char* Cursor::View(uint64_t pos, uint64_t n) {
  if (n == 0) return buf_.data();
  if (pos >= buf_pos_ && pos + n <= buf_pos_ + buf_.size()) {
    return buf_.data() + (pos - buf_pos_);
  }
  const uint64_t committed =
      seg_->committed_bytes.load(std::memory_order_acquire);
  if (pos + n > committed) return nullptr;
  const uint64_t want =
      std::min<uint64_t>(std::max<uint64_t>(n, kReadChunk), committed - pos);
  buf_.resize(want);
  if (!PreadAll(seg_->fd, buf_.data(), want, pos)) {
    buf_.clear();
    buf_pos_ = 0;
    return nullptr;
  }
  buf_pos_ = pos;
  return buf_.data();
}

}  // namespace tcmf::mlog
