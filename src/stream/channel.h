#ifndef TCMF_STREAM_CHANNEL_H_
#define TCMF_STREAM_CHANNEL_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "stream/metrics.h"

namespace tcmf::stream {

/// Default channel capacity (queue-depth bound) used by every operator
/// when no explicit capacity is given. One constant instead of a
/// per-operator literal so the transport default is a single knob.
inline constexpr size_t kDefaultCapacity = 1024;

/// Result of a timed poll (PopBatchFor): distinguishes "nothing right now"
/// from "this stream is finished" (closed AND drained).
enum class PollStatus {
  kItem,    ///< an element was dequeued
  kEmpty,   ///< queue empty but the channel may still produce elements
  kClosed,  ///< closed and drained: no element will ever arrive again
};

/// Bounded multi-producer/multi-consumer blocking queue with close and
/// cancel semantics: the stream-transport substrate standing in for Kafka
/// topics. PushBatch blocks while the queue is full (backpressure);
/// PopBatch blocks until an element is available or the channel is
/// closed and drained; PopBatchFor is the one timed poll.
///
/// Every Flow operator moves elements with PushBatch/PopBatch: many
/// elements under one lock acquisition (one per capacity chunk on the
/// push side), which is the dominant throughput lever for the single-pass
/// operator pipelines every datAcron component compiles down to — the
/// full cost model (what the lock amortization buys, what batch staging
/// costs, how to pick the batch size) is docs/STREAM_TUNING.md. The
/// single-element Push/Pop remain for direct channel users (the channel
/// microbench and tests).
/// Batch transfers use notify_all wakeups: releasing k resources with a
/// single notify_one would strand up to k-1 waiters (see
/// ChannelTest.BatchWakeups* regressions).
///
/// Shutdown protocol (see DESIGN.md "runtime semantics"):
///  - Producer side: Close() marks end-of-stream; consumers drain the
///    remaining queue, then PopBatch returns 0.
///  - Consumer side: CloseAndDrain() *cancels* the edge — the queue is
///    discarded, blocked producers unblock with a short PushBatch count,
///    and any other consumer sees end-of-stream immediately. Every
///    operator that stops consuming early MUST cancel its input so
///    upstream stages can exit instead of deadlocking in a push.
///
/// The channel also records StageMetrics: elements in/out, queue-depth
/// high-watermark, cumulative producer/consumer blocked time, rejected
/// pushes and cancel-dropped elements (see metrics.h).
template <typename T>
class Channel {
 public:
  /// `capacity` bounds the queue depth (0 is promoted to 1). Capacity is
  /// the backpressure knob: a full queue blocks producers, and the time
  /// they spend blocked is surfaced as producer_blocked_ns in
  /// StageMetrics. It also bounds the largest contiguous PushBatch chunk.
  explicit Channel(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocks until there is room. Returns false when the channel is closed
  /// or cancelled (the element is dropped).
  bool Push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && queue_.size() >= capacity_) {
      const auto t0 = std::chrono::steady_clock::now();
      not_full_.wait(lock,
                     [this] { return closed_ || queue_.size() < capacity_; });
      producer_blocked_ns_ += BlockedNsSince(t0);
    }
    if (closed_) {
      ++push_rejected_;
      return false;
    }
    queue_.push_back(std::move(value));
    ++pushed_;
    ++push_batches_;
    UpdateHighWatermarkLocked();
    lock.unlock();
    NotifyConsumers(1);
    return true;
  }

  /// Batched push: moves the whole vector into the channel, taking the
  /// lock once per capacity chunk instead of once per element. Blocks for
  /// room (backpressure) between chunks. When the channel is closed or
  /// cancelled mid-transfer the remaining elements are dropped and the
  /// number accepted so far is returned (*partial accept*); full
  /// acceptance returns batch.size(). The vector is left empty either
  /// way. Counts as one batch in StageMetrics regardless of chunking.
  size_t PushBatch(std::vector<T>&& batch) {
    const size_t n = batch.size();
    size_t accepted = 0;
    while (accepted < n) {
      size_t chunk = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!closed_ && queue_.size() >= capacity_) {
          const auto t0 = std::chrono::steady_clock::now();
          not_full_.wait(
              lock, [this] { return closed_ || queue_.size() < capacity_; });
          producer_blocked_ns_ += BlockedNsSince(t0);
        }
        if (closed_) {
          push_rejected_ += n - accepted;
          break;
        }
        chunk = std::min(capacity_ - queue_.size(), n - accepted);
        for (size_t i = 0; i < chunk; ++i) {
          queue_.push_back(std::move(batch[accepted + i]));
        }
        if (accepted == 0 && chunk > 0) ++push_batches_;
        accepted += chunk;
        pushed_ += chunk;
        UpdateHighWatermarkLocked();
      }
      NotifyConsumers(chunk);
    }
    batch.clear();
    return accepted;
  }

  /// Batched pop: blocks until at least one element is available (or the
  /// channel is closed and drained), then appends up to `max_n` elements
  /// to `*out` under a single lock acquisition. Returns the number
  /// appended; 0 means end-of-stream (closed or cancelled, nothing left).
  size_t PopBatch(std::vector<T>* out, size_t max_n) {
    if (max_n == 0) return 0;
    size_t got = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!closed_ && queue_.empty()) {
        const auto t0 = std::chrono::steady_clock::now();
        not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        consumer_blocked_ns_ += BlockedNsSince(t0);
      }
      got = DrainLocked(out, max_n);
    }
    NotifyProducers(got);
    return got;
  }

  /// Timed batched pop for linger-bounded consumers: like PopBatch but
  /// additionally returns after `timeout` with nothing appended while the
  /// channel is still open. kItem ⇒ ≥1 element appended (`*n_out`, if
  /// non-null, receives the count); kEmpty ⇒ timed out, try again later;
  /// kClosed ⇒ end-of-stream.
  PollStatus PopBatchFor(std::vector<T>* out, size_t max_n,
                         std::chrono::milliseconds timeout,
                         size_t* n_out = nullptr) {
    size_t got = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!closed_ && queue_.empty()) {
        const auto t0 = std::chrono::steady_clock::now();
        not_empty_.wait_for(lock, timeout,
                            [this] { return closed_ || !queue_.empty(); });
        consumer_blocked_ns_ += BlockedNsSince(t0);
      }
      if (queue_.empty()) {
        if (n_out) *n_out = 0;
        return closed_ ? PollStatus::kClosed : PollStatus::kEmpty;
      }
      got = DrainLocked(out, max_n);
    }
    NotifyProducers(got);
    if (n_out) *n_out = got;
    return PollStatus::kItem;
  }

  /// Blocks until an element arrives; nullopt when closed and drained
  /// (or cancelled).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && queue_.empty()) {
      const auto t0 = std::chrono::steady_clock::now();
      not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      consumer_blocked_ns_ += BlockedNsSince(t0);
    }
    if (queue_.empty()) return std::nullopt;
    T out = std::move(queue_.front());
    queue_.pop_front();
    ++popped_;
    ++pop_batches_;
    lock.unlock();
    NotifyProducers(1);
    return out;
  }

  /// Marks the channel closed; consumers drain remaining elements then see
  /// nullopt. Idempotent. (Producer-side end-of-stream.)
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Consumer-side cancellation: closes the channel AND discards anything
  /// still queued, so blocked producers return false immediately and other
  /// consumers see end-of-stream without draining. Idempotent. This is the
  /// signal every early-exiting stage sends upstream.
  void CloseAndDrain() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      cancelled_ = true;
      dropped_on_cancel_ += queue_.size();
      queue_.clear();
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// True once Close() or CloseAndDrain() has been called. Elements may
  /// still be queued.
  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// True once a consumer cancelled the edge via CloseAndDrain().
  /// Distinguishes upstream cancellation from normal end-of-stream in
  /// shutdown paths and in the StageMetrics report.
  bool cancelled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cancelled_;
  }

  /// Current queue depth (instantaneous; racy by nature — use the
  /// queue_high_watermark metric for tuning decisions).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// The queue-depth bound fixed at construction.
  size_t capacity() const { return capacity_; }

  /// Adds to the late/dropped counter (wired by windowed operators from
  /// TumblingWindower::late_dropped()).
  void RecordLateDropped(uint64_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    late_dropped_ += n;
  }

  /// Consistent snapshot of this edge's counters. The stage name is filled
  /// in by the owning Pipeline.
  StageMetrics MetricsSnapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    StageMetrics m;
    m.capacity = capacity_;
    m.records_in = pushed_;
    m.records_out = popped_;
    m.batches_in = push_batches_;
    m.batches_out = pop_batches_;
    m.queue_high_watermark = high_watermark_;
    m.producer_blocked_ns = producer_blocked_ns_;
    m.consumer_blocked_ns = consumer_blocked_ns_;
    m.push_rejected = push_rejected_;
    m.dropped_on_cancel = dropped_on_cancel_;
    m.late_dropped = late_dropped_;
    m.cancelled = cancelled_;
    return m;
  }

 private:
  static uint64_t BlockedNsSince(std::chrono::steady_clock::time_point t0) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  /// Bumps the depth high-watermark. Caller holds mutex_.
  void UpdateHighWatermarkLocked() {
    const uint64_t depth = queue_.size();
    if (depth > high_watermark_) high_watermark_ = depth;
  }

  /// Moves up to max_n queued elements into *out. Caller holds mutex_.
  size_t DrainLocked(std::vector<T>* out, size_t max_n) {
    const size_t got = std::min(queue_.size(), max_n);
    for (size_t i = 0; i < got; ++i) {
      out->push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    popped_ += got;
    if (got > 0) ++pop_batches_;
    return got;
  }

  /// Wakeups sized to the number of resources released: a batch transfer
  /// that enqueues (or frees) k > 1 slots must wake every waiter —
  /// notify_one would hand the whole release to a single thread and
  /// strand the rest (each waiter consumes ≥ 1 resource, so notify_all
  /// over-waking is benign; under-waking deadlocks).
  void NotifyConsumers(size_t added) {
    if (added > 1) {
      not_empty_.notify_all();
    } else if (added == 1) {
      not_empty_.notify_one();
    }
  }

  void NotifyProducers(size_t freed) {
    if (freed > 1) {
      not_full_.notify_all();
    } else if (freed == 1) {
      not_full_.notify_one();
    }
  }

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> queue_;
  bool closed_ = false;
  bool cancelled_ = false;
  // Metrics (guarded by mutex_).
  uint64_t pushed_ = 0;
  uint64_t popped_ = 0;
  uint64_t push_batches_ = 0;
  uint64_t pop_batches_ = 0;
  uint64_t high_watermark_ = 0;
  uint64_t producer_blocked_ns_ = 0;
  uint64_t consumer_blocked_ns_ = 0;
  uint64_t push_rejected_ = 0;
  uint64_t dropped_on_cancel_ = 0;
  uint64_t late_dropped_ = 0;
};

}  // namespace tcmf::stream

#endif  // TCMF_STREAM_CHANNEL_H_
