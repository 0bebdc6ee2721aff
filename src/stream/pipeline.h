#ifndef TCMF_STREAM_PIPELINE_H_
#define TCMF_STREAM_PIPELINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "stream/channel.h"
#include "stream/metrics.h"
#include "stream/tuning.h"
#include "stream/window.h"

namespace tcmf::stream {

/// Unified per-stage configuration for every Flow operator and stage
/// helper — the one options struct that replaced the positional
/// `(capacity, name)` tails (removed after their one-release deprecation
/// window; tools/check_deprecated_api.py keeps them from coming back).
/// Designated initializers make call sites self-describing:
///
///   flow.Map<Out>(fn, {.name = "clean", .capacity = 256});
///   flow.Filter(pred, {.batch = BatchPolicy::Batched(256, 1)});
///
/// Fields:
///  - `name`: stage name in StageMetrics reports ("" = auto "<op>#<i>").
///  - `capacity`: the output channel's queue-depth bound.
///  - `batch`: per-stage BatchPolicy override; nullopt inherits the
///    upstream Flow's policy (sources fall back to their own default —
///    Single for FromGenerator/FromVector, Batched for
///    FromBatchGenerator).
struct StageOptions {
  std::string name;
  size_t capacity = kDefaultCapacity;
  std::optional<BatchPolicy> batch;
};

/// Buffers operator outputs and flushes them downstream according to a
/// BatchPolicy. In record-at-a-time mode it degenerates to Channel::Push.
/// Emit/Flush return false when the downstream edge rejected the transfer
/// (consumer cancelled) — the signal to propagate cancellation upstream.
template <typename Out>
class BatchEmitter {
 public:
  BatchEmitter(std::shared_ptr<Channel<Out>> out, BatchPolicy policy)
      : out_(std::move(out)), policy_(policy) {
    if (policy_.batched()) buf_.reserve(policy_.max_batch);
  }

  bool Emit(Out value) {
    if (!policy_.batched()) return out_->Push(std::move(value));
    if (buf_.empty()) first_buffered_ = std::chrono::steady_clock::now();
    buf_.push_back(std::move(value));
    if (buf_.size() >= policy_.max_batch) return Flush();
    return true;
  }

  bool Flush() {
    if (buf_.empty()) return true;
    const size_t n = buf_.size();
    const bool ok = out_->PushBatch(std::move(buf_)) == n;
    buf_.clear();
    buf_.reserve(policy_.max_batch);
    return ok;
  }

  bool has_pending() const { return !buf_.empty(); }

  /// Time until the oldest buffered element exceeds the linger bound.
  /// Callers only ask when the policy's LingerEnabled().
  std::chrono::milliseconds LingerRemaining() const {
    const auto linger = std::chrono::milliseconds(policy_.max_linger_ms);
    if (buf_.empty()) return linger;
    const auto deadline = first_buffered_ + linger;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::chrono::milliseconds(0);
    return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                 now);
  }

 private:
  std::shared_ptr<Channel<Out>> out_;
  BatchPolicy policy_;
  std::vector<Out> buf_;
  std::chrono::steady_clock::time_point first_buffered_;
};

namespace internal {

/// The shared consume/transform/emit loop behind every 1-input operator.
/// Drains `in` (record-at-a-time or in batches per `policy`), feeds each
/// element to `per_element(item, emitter) -> bool` (false = downstream
/// rejected, i.e. the consumer cancelled), and on end-of-stream runs
/// `at_exit(open, emitter)` — stateful operators flush per-key state
/// there when `open` is true. Handles the shutdown contract: a rejected
/// emit cancels `in` via CloseAndDrain so upstream producers unblock.
/// Closing the *output* channel is the caller's responsibility (shared
/// outputs — KeyedProcessParallel — are closed by the last worker).
///
/// In batched mode the loop uses the timed PopBatchFor while outputs are
/// staged so a partially-filled batch is flushed after `max_linger_ms`
/// even when the input goes quiet (linger < 0 disables the timer).
template <typename In, typename Out, typename PerElement, typename AtExit>
void RunStage(const std::shared_ptr<Channel<In>>& in,
              BatchEmitter<Out>& emitter, BatchPolicy policy,
              PerElement&& per_element, AtExit&& at_exit) {
  bool open = true;
  if (!policy.batched()) {
    while (auto item = in->Pop()) {
      if (!per_element(*item, emitter)) {
        open = false;
        break;
      }
    }
  } else {
    std::vector<In> batch;
    batch.reserve(policy.max_batch);
    while (open) {
      batch.clear();
      size_t n = 0;
      if (emitter.has_pending() && policy.LingerEnabled()) {
        const PollStatus status = in->PopBatchFor(
            &batch, policy.max_batch, emitter.LingerRemaining(), &n);
        if (status == PollStatus::kEmpty) {
          // Linger expired with staged outputs: flush the partial batch.
          if (!emitter.Flush()) open = false;
          continue;
        }
        if (status == PollStatus::kClosed) break;
      } else {
        n = in->PopBatch(&batch, policy.max_batch);
        if (n == 0) break;
      }
      for (size_t i = 0; i < n; ++i) {
        if (!per_element(batch[i], emitter)) {
          open = false;
          break;
        }
      }
    }
  }
  if (!open) in->CloseAndDrain();  // propagate cancellation upstream
  at_exit(open, emitter);
  if (open) emitter.Flush();
}

}  // namespace internal

/// Owns the threads of a dataflow job. Build a graph with Flow<T>, then
/// Run() blocks until every source is exhausted and every stage has
/// drained — the in-process equivalent of submitting a Flink job.
///
/// Runtime semantics: end-of-stream flows downstream via Channel::Close();
/// cancellation flows *upstream* via Channel::CloseAndDrain() — every
/// operator that stops consuming early cancels its input channel, so no
/// producer is ever left blocked in Push. Run() therefore returns even
/// when a sink abandons the stream mid-flight.
///
/// Every operator registers its output channel as a named stage; after
/// (or during) a run, Report() snapshots per-stage StageMetrics and
/// ReportString()/ReportJson() render them.
class Pipeline {
 public:
  Pipeline() = default;
  ~Pipeline() { Run(); }

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Registers a stage thread. Internal — called by Flow operators.
  void AddThread(std::function<void()> body) {
    threads_.emplace_back(std::move(body));
  }

  /// Joins all stage threads; idempotent. The first Run() that joins an
  /// actual stage thread freezes uptime_ms() at the pipeline's total
  /// running time, so post-run reports describe the run, not the
  /// reporting delay.
  void Run() {
    const bool had_threads = !threads_.empty();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    if (had_threads) {
      int64_t expected = -1;
      finished_uptime_ms_.compare_exchange_strong(expected, LiveUptimeMs());
    }
  }

  /// Monotonic construction instant, in ms on the steady clock's epoch.
  /// Same timebase for every Pipeline in the process, so reports from
  /// different shards can be ordered and open-loop rates computed from
  /// the report alone (records / uptime).
  int64_t started_at_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               started_at_.time_since_epoch())
        .count();
  }

  /// Milliseconds since construction, frozen at Run() completion (live
  /// while stages are still running).
  int64_t uptime_ms() const {
    const int64_t frozen = finished_uptime_ms_.load(std::memory_order_relaxed);
    return frozen >= 0 ? frozen : LiveUptimeMs();
  }

  /// Registers a named metrics source. Internal — called by Flow
  /// operators; also usable for custom stages.
  void RegisterStage(std::string name, std::function<StageMetrics()> snap) {
    std::lock_guard<std::mutex> lock(stages_mutex_);
    stages_.emplace_back(std::move(name), std::move(snap));
  }

  /// Resolves a stage's final report name: empty names get the auto-name
  /// "<op>#<index>" from the pipeline-wide counter. RegisterChannelStage
  /// applies this itself; composite stages (KeyedProcessParallel) resolve
  /// first so their nested worker_edges rows can share the prefix.
  std::string ResolveStageName(const char* op, std::string name) {
    if (name.empty()) {
      name = std::string(op) + "#" + std::to_string(next_stage_index_++);
    }
    return name;
  }

  /// Registers a channel as the named stage's output edge. If `name` is
  /// empty, an auto-name "<op>#<index>" is generated. Returns the final
  /// stage name.
  template <typename U>
  std::string RegisterChannelStage(const char* op, std::string name,
                                   std::shared_ptr<Channel<U>> channel) {
    name = ResolveStageName(op, std::move(name));
    RegisterStage(name, [channel] { return channel->MetricsSnapshot(); });
    return name;
  }

  /// Snapshots every registered stage, in registration (graph) order.
  std::vector<StageMetrics> Report() const {
    std::lock_guard<std::mutex> lock(stages_mutex_);
    std::vector<StageMetrics> out;
    out.reserve(stages_.size());
    for (const auto& [name, snap] : stages_) {
      StageMetrics m = snap();
      m.stage = name;
      out.push_back(std::move(m));
    }
    return out;
  }

  /// Printable fixed-width per-stage table.
  std::string ReportString() const { return StageMetricsTable(Report()); }

  /// JSON report: `{"started_at_ms":..,"uptime_ms":..,"stages":[...]}` —
  /// the run clock plus the per-stage array (StageMetricsJson), so a
  /// report consumer can compute rates without having timed the run
  /// itself.
  std::string ReportJson() const {
    return "{\"started_at_ms\":" + std::to_string(started_at_ms()) +
           ",\"uptime_ms\":" + std::to_string(uptime_ms()) +
           ",\"stages\":" + StageMetricsJson(Report()) + "}";
  }

 private:
  int64_t LiveUptimeMs() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - started_at_)
        .count();
  }

  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();
  std::atomic<int64_t> finished_uptime_ms_{-1};
  std::vector<std::thread> threads_;
  mutable std::mutex stages_mutex_;
  std::vector<std::pair<std::string, std::function<StageMetrics()>>> stages_;
  std::atomic<size_t> next_stage_index_{0};
};

/// Per-key processing function with explicit state: the Flink
/// KeyedProcessFunction analogue. Called once per element with the state
/// slot for the element's key; may emit any number of outputs via `emit`.
template <typename T, typename Out, typename State>
using KeyedProcessFn =
    std::function<void(const T& element, State& state,
                       const std::function<void(Out)>& emit)>;

/// Called for every live key when the stream ends, to flush pending state.
template <typename Out, typename State>
using KeyedFlushFn =
    std::function<void(uint64_t key, State& state,
                       const std::function<void(Out)>& emit)>;

template <typename T>
class Flow;

template <typename In, typename Cur>
class FusedChain;

namespace internal {

/// Shared construction behind Flow::KeyedProcessParallel and
/// FusedChain::KeyedProcessParallel (declared here, defined after Flow):
/// a partition router plus `parallelism` keyed workers over per-worker
/// partition edges, with the optional fused stateless `prefix` executed
/// inside the router thread (nullptr = identity, the plain un-fused
/// path).
template <typename In, typename T, typename Out, typename State>
Flow<Out> KeyedParallelStage(
    Pipeline* pipeline, std::shared_ptr<Channel<In>> in,
    const BatchPolicy& inherited,
    std::function<void(In&&, const std::function<void(T&&)>&)> prefix,
    std::function<uint64_t(const T&)> key_fn,
    KeyedProcessFn<T, Out, State> process, size_t parallelism,
    KeyedFlushFn<Out, State> flush, StageOptions opts, const char* op);

}  // namespace internal

/// A typed edge in the dataflow graph. Flow values are cheap handles:
/// they share the underlying channel. Each handle also carries a
/// BatchPolicy that governs how operators built from it move elements —
/// `WithBatching(BatchPolicy::Batched(64))` switches every downstream
/// stage to amortized batch transfers (the policy is inherited by the
/// Flows those operators return, so one call at the source configures
/// the whole graph).
///
/// Shutdown contract for every operator: when the downstream edge stops
/// accepting (Push returns false because the consumer cancelled), the
/// operator cancels its own input via CloseAndDrain() and exits — the
/// cancel signal propagates all the way to the source. Conversely each
/// operator Close()s its output on every exit path, so downstream stages
/// always observe end-of-stream. Cancellation mid-batch behaves exactly
/// like cancellation mid-stream: staged elements are dropped, the signal
/// is never lost (see BatchShutdownTest).
template <typename T>
class Flow {
 public:
  Flow(Pipeline* pipeline, std::shared_ptr<Channel<T>> channel,
       BatchPolicy policy = {})
      : pipeline_(pipeline), channel_(std::move(channel)), policy_(policy) {}

  /// Returns a handle to the same edge whose downstream operators use
  /// `policy` for channel transfers. Semantics are unchanged — only the
  /// transfer granularity (and therefore lock amortization) differs.
  Flow<T> WithBatching(BatchPolicy policy) const {
    return Flow<T>(pipeline_, channel_, policy);
  }

  const BatchPolicy& batch_policy() const { return policy_; }

  /// Source from a pull function; the function returns nullopt when the
  /// stream is exhausted. With a batched policy the generator stages up
  /// to `max_batch` elements (bounded by the linger) per transfer.
  /// Default policy when `opts.batch` is unset: record-at-a-time (Single).
  static Flow<T> FromGenerator(Pipeline* pipeline,
                               std::function<std::optional<T>()> next,
                               StageOptions opts = {}) {
    const BatchPolicy policy = opts.batch.value_or(BatchPolicy{});
    auto channel = std::make_shared<Channel<T>>(opts.capacity);
    pipeline->RegisterChannelStage("source", std::move(opts.name), channel);
    pipeline->AddThread([channel, policy, next = std::move(next)]() mutable {
      BatchEmitter<T> emitter(channel, policy);
      while (true) {
        std::optional<T> item = next();
        if (!item.has_value()) break;
        // Emit fails only when downstream cancelled: stop generating.
        if (!emitter.Emit(std::move(*item))) break;
        if (emitter.has_pending() && policy.LingerEnabled() &&
            emitter.LingerRemaining() <= std::chrono::milliseconds(0)) {
          if (!emitter.Flush()) break;
        }
      }
      emitter.Flush();
      channel->Close();
    });
    return Flow<T>(pipeline, std::move(channel), policy);
  }

  /// Source from a batch pull function: `next_batch(out, max_n)` appends
  /// up to `max_n` elements to `out` and returns how many it appended
  /// (0 = end of stream). The per-call `max_n` is the edge's `max_batch`,
  /// so batch-oriented producers (e.g. mlog's segment-aware
  /// replay, mlog::Cursor::NextBatch) decode exactly one channel
  /// transfer's worth of records per call — source-side amortization
  /// matched to transport amortization. Prefer this over FromGenerator
  /// whenever the underlying producer can hand out more than one element
  /// per call.
  static Flow<T> FromBatchGenerator(
      Pipeline* pipeline,
      std::function<size_t(std::vector<T>*, size_t)> next_batch,
      StageOptions opts = {}) {
    const BatchPolicy policy = opts.batch.value_or(BatchPolicy::Batched());
    auto channel = std::make_shared<Channel<T>>(opts.capacity);
    pipeline->RegisterChannelStage("source", std::move(opts.name), channel);
    pipeline->AddThread(
        [channel, want = std::max<size_t>(1, policy.max_batch),
         next_batch = std::move(next_batch)] {
          std::vector<T> buf;
          buf.reserve(want);
          while (true) {
            buf.clear();
            const size_t n = next_batch(&buf, want);
            if (n == 0) break;
            // PushBatch accepting fewer than offered means the consumer
            // cancelled: stop generating.
            if (channel->PushBatch(std::move(buf)) != n) break;
            buf.reserve(want);
          }
          channel->Close();
        });
    return Flow<T>(pipeline, std::move(channel), policy);
  }

  /// Source from a pre-materialized vector.
  static Flow<T> FromVector(Pipeline* pipeline, std::vector<T> items,
                            StageOptions opts = {}) {
    auto it = std::make_shared<size_t>(0);
    auto data = std::make_shared<std::vector<T>>(std::move(items));
    return FromGenerator(
        pipeline,
        [it, data]() -> std::optional<T> {
          if (*it >= data->size()) return std::nullopt;
          return (*data)[(*it)++];
        },
        std::move(opts));
  }

  /// 1:1 transform.
  template <typename Out>
  Flow<Out> Map(std::function<Out(const T&)> fn, StageOptions opts = {}) {
    const BatchPolicy policy = opts.batch.value_or(policy_);
    auto out = std::make_shared<Channel<Out>>(opts.capacity);
    pipeline_->RegisterChannelStage("map", std::move(opts.name), out);
    auto in = channel_;
    pipeline_->AddThread([in, out, policy, fn = std::move(fn)] {
      BatchEmitter<Out> emitter(out, policy);
      internal::RunStage(
          in, emitter, policy,
          [&fn](T& item, BatchEmitter<Out>& em) { return em.Emit(fn(item)); },
          [](bool, BatchEmitter<Out>&) {});
      out->Close();
    });
    return Flow<Out>(pipeline_, std::move(out), policy);
  }

  /// 1:N transform.
  template <typename Out>
  Flow<Out> FlatMap(std::function<std::vector<Out>(const T&)> fn,
                    StageOptions opts = {}) {
    const BatchPolicy policy = opts.batch.value_or(policy_);
    auto out = std::make_shared<Channel<Out>>(opts.capacity);
    pipeline_->RegisterChannelStage("flatmap", std::move(opts.name), out);
    auto in = channel_;
    pipeline_->AddThread([in, out, policy, fn = std::move(fn)] {
      BatchEmitter<Out> emitter(out, policy);
      internal::RunStage(
          in, emitter, policy,
          [&fn](T& item, BatchEmitter<Out>& em) {
            for (Out& o : fn(item)) {
              if (!em.Emit(std::move(o))) return false;
            }
            return true;
          },
          [](bool, BatchEmitter<Out>&) {});
      // Close on EVERY exit path — an early return here used to leave
      // downstream Pop blocked forever.
      out->Close();
    });
    return Flow<Out>(pipeline_, std::move(out), policy);
  }

  /// Keeps elements satisfying the predicate.
  Flow<T> Filter(std::function<bool(const T&)> pred, StageOptions opts = {}) {
    const BatchPolicy policy = opts.batch.value_or(policy_);
    auto out = std::make_shared<Channel<T>>(opts.capacity);
    pipeline_->RegisterChannelStage("filter", std::move(opts.name), out);
    auto in = channel_;
    pipeline_->AddThread([in, out, policy, pred = std::move(pred)] {
      BatchEmitter<T> emitter(out, policy);
      internal::RunStage(
          in, emitter, policy,
          [&pred](T& item, BatchEmitter<T>& em) {
            if (!pred(item)) return true;
            return em.Emit(std::move(item));
          },
          [](bool, BatchEmitter<T>&) {});
      out->Close();
    });
    return Flow<T>(pipeline_, std::move(out), policy);
  }

  /// Starts a fused chain: adjacent stateless stages (Map/Filter/FlatMap)
  /// composed onto it run in ONE thread with ZERO channel crossings —
  /// `flow.Fuse().Map(f).Filter(p).Map(g).Emit()` materializes a single
  /// "fused" stage instead of three channel-separated ones, and
  /// `flow.Fuse().Map(f).Filter(p).KeyedProcessParallel(...)` terminates
  /// the chain in a keyed stage whose router runs the prefix inline.
  /// Equivalent to the unfused chain by construction (and by the
  /// differential harness).
  FusedChain<T, T> Fuse() const;

  /// Keyed stateful processing with per-key state of type State.
  /// State instances are default-constructed on first sight of a key.
  /// `flush` (optional) runs for every key at end-of-stream.
  template <typename Out, typename State>
  Flow<Out> KeyedProcess(std::function<uint64_t(const T&)> key_fn,
                         KeyedProcessFn<T, Out, State> process,
                         KeyedFlushFn<Out, State> flush = nullptr,
                         StageOptions opts = {}) {
    const BatchPolicy policy = opts.batch.value_or(policy_);
    auto out = std::make_shared<Channel<Out>>(opts.capacity);
    pipeline_->RegisterChannelStage("keyed", std::move(opts.name), out);
    auto in = channel_;
    pipeline_->AddThread([in, out, policy,
                          key_fn = std::move(key_fn),
                          process = std::move(process),
                          flush = std::move(flush)] {
      BatchEmitter<Out> emitter(out, policy);
      std::unordered_map<uint64_t, State> states;
      internal::RunStage(
          in, emitter, policy,
          [&](T& item, BatchEmitter<Out>& em) {
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            process(item, states[key_fn(item)], emit);
            return ok;
          },
          [&](bool open, BatchEmitter<Out>& em) {
            if (!open || !flush) return;
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            for (auto& [key, state] : states) flush(key, state, emit);
          });
      out->Close();
    });
    return Flow<Out>(pipeline_, std::move(out), policy);
  }

  /// Keyed stateful processing with `parallelism` worker threads: elements
  /// are hash-partitioned by key, each worker owns the state of its key
  /// range (the Flink keyed-stream execution model). Output order across
  /// workers is nondeterministic; per-key order is preserved.
  ///
  /// Each router→worker partition edge is its own channel; its counters
  /// surface as `worker_edges` (plus `skew_ratio`) on this stage's row in
  /// Report()/ReportJson().
  template <typename Out, typename State>
  Flow<Out> KeyedProcessParallel(std::function<uint64_t(const T&)> key_fn,
                                 KeyedProcessFn<T, Out, State> process,
                                 size_t parallelism,
                                 KeyedFlushFn<Out, State> flush = nullptr,
                                 StageOptions opts = {}) {
    if (parallelism <= 1) {
      return KeyedProcess<Out, State>(std::move(key_fn), std::move(process),
                                      std::move(flush), std::move(opts));
    }
    return internal::KeyedParallelStage<T, T, Out, State>(
        pipeline_, channel_, policy_, /*prefix=*/nullptr,
        std::move(key_fn), std::move(process), parallelism, std::move(flush),
        std::move(opts), "keyed_par");
  }

  /// Keyed event-time tumbling windows with bounded lateness: elements are
  /// folded per (key, window) via `add`; a window is emitted once the
  /// key's watermark (max event time - lateness) passes its end, and every
  /// open window flushes at end-of-stream. Late elements beyond the
  /// watermark are dropped and surface as `late_dropped` in this stage's
  /// StageMetrics.
  template <typename Acc>
  Flow<std::pair<uint64_t, typename TumblingWindower<T, Acc>::WindowResult>>
  KeyedTumblingWindow(std::function<uint64_t(const T&)> key_fn,
                      std::function<TimeMs(const T&)> time_fn,
                      TimeMs window_ms, TimeMs allowed_lateness_ms,
                      std::function<void(Acc&, const T&, TimeMs)> add,
                      StageOptions opts = {}) {
    using Result =
        std::pair<uint64_t, typename TumblingWindower<T, Acc>::WindowResult>;
    const BatchPolicy policy = opts.batch.value_or(policy_);
    auto out = std::make_shared<Channel<Result>>(opts.capacity);
    pipeline_->RegisterChannelStage("window", std::move(opts.name), out);
    auto in = channel_;
    pipeline_->AddThread([in, out, policy,
                          key_fn = std::move(key_fn),
                          time_fn = std::move(time_fn), window_ms,
                          allowed_lateness_ms, add = std::move(add)] {
      BatchEmitter<Result> emitter(out, policy);
      std::unordered_map<uint64_t, TumblingWindower<T, Acc>> windowers;
      internal::RunStage(
          in, emitter, policy,
          [&](T& item, BatchEmitter<Result>& em) {
            const uint64_t key = key_fn(item);
            auto [it, inserted] = windowers.try_emplace(
                key, window_ms, allowed_lateness_ms, add);
            for (auto& wr : it->second.Add(item, time_fn(item))) {
              if (!em.Emit({key, std::move(wr)})) return false;
            }
            return true;
          },
          [&](bool open, BatchEmitter<Result>& em) {
            uint64_t late = 0;
            bool ok = open;
            for (auto& [key, w] : windowers) {
              if (ok) {
                for (auto& wr : w.Close()) {
                  if (!em.Emit({key, std::move(wr)})) {
                    ok = false;
                    break;
                  }
                }
              }
              late += w.late_dropped();
            }
            out->RecordLateDropped(late);
          });
      out->Close();
    });
    return Flow<Result>(pipeline_, std::move(out), policy);
  }

  /// Terminal: applies `fn` to every element. Runs until end-of-stream;
  /// under batching it pops amortized transfers and applies `fn`
  /// element-at-a-time. A sink owns
  /// no output channel, so only `opts.batch` (pop-policy override) is
  /// meaningful here; the other StageOptions fields are ignored.
  void Sink(std::function<void(const T&)> fn, StageOptions opts = {}) {
    const BatchPolicy policy = opts.batch.value_or(policy_);
    auto in = channel_;
    pipeline_->AddThread([in, policy, fn = std::move(fn)] {
      if (!policy.batched()) {
        while (auto item = in->Pop()) fn(*item);
        return;
      }
      std::vector<T> batch;
      batch.reserve(policy.max_batch);
      while (true) {
        batch.clear();
        const size_t n = in->PopBatch(&batch, policy.max_batch);
        if (n == 0) break;
        for (size_t i = 0; i < n; ++i) fn(batch[i]);
      }
    });
  }

  /// Terminal: applies `fn` until it returns false, then cancels the
  /// stream — upstream stages unblock and exit (no deadlock even with
  /// producers mid-Push). The early-stopping sink. Under batching,
  /// elements already popped in the cancelling batch are dropped — the
  /// same fate queued elements meet under CloseAndDrain.
  void SinkWhile(std::function<bool(const T&)> fn, StageOptions opts = {}) {
    const BatchPolicy policy = opts.batch.value_or(policy_);
    auto in = channel_;
    pipeline_->AddThread([in, policy, fn = std::move(fn)] {
      if (!policy.batched()) {
        while (auto item = in->Pop()) {
          if (!fn(*item)) {
            in->CloseAndDrain();
            break;
          }
        }
        return;
      }
      std::vector<T> batch;
      batch.reserve(policy.max_batch);
      bool open = true;
      while (open) {
        batch.clear();
        const size_t n = in->PopBatch(&batch, policy.max_batch);
        if (n == 0) break;
        for (size_t i = 0; i < n; ++i) {
          if (!fn(batch[i])) {
            open = false;
            break;
          }
        }
      }
      if (!open) in->CloseAndDrain();
    });
  }

  /// Terminal: collects all elements into `out` (caller keeps it alive
  /// until Pipeline::Run returns).
  void CollectInto(std::vector<T>* out) {
    Sink([out](const T& item) { out->push_back(item); });
  }

  std::shared_ptr<Channel<T>> channel() const { return channel_; }

  /// The owning pipeline — lets external stage helpers (e.g. mlog's
  /// LogSink) attach threads and metrics without threading an extra
  /// Pipeline* through every call site.
  Pipeline* pipeline() const { return pipeline_; }

 private:
  Pipeline* pipeline_;
  std::shared_ptr<Channel<T>> channel_;
  BatchPolicy policy_;
};

namespace internal {

/// Shared keyed-parallel construction (see the declaration above Flow).
/// `prefix` is the fused stateless chain executed INSIDE the router
/// thread (nullptr = identity, the plain un-fused path): the router pops
/// `In` elements from the upstream edge, runs the prefix inline, and
/// hash-partitions the resulting `T` elements straight into the
/// per-worker partition edges — zero channels between the upstream edge
/// and the keyed boundary.
template <typename In, typename T, typename Out, typename State>
Flow<Out> KeyedParallelStage(
    Pipeline* pipeline, std::shared_ptr<Channel<In>> in,
    const BatchPolicy& inherited,
    std::function<void(In&&, const std::function<void(T&&)>&)> prefix,
    std::function<uint64_t(const T&)> key_fn,
    KeyedProcessFn<T, Out, State> process, size_t parallelism,
    KeyedFlushFn<Out, State> flush, StageOptions opts, const char* op) {
  const BatchPolicy policy = opts.batch.value_or(inherited);
  auto out = std::make_shared<Channel<Out>>(opts.capacity);
  const std::string stage = pipeline->ResolveStageName(op, std::move(opts.name));

  if (parallelism <= 1) {
    // One worker: the prefix and the keyed state machine share a single
    // stage thread — no router, no partition edges.
    pipeline->RegisterChannelStage(op, stage, out);
    pipeline->AddThread([in, out, policy, prefix = std::move(prefix),
                         key_fn = std::move(key_fn),
                         process = std::move(process),
                         flush = std::move(flush)] {
      BatchEmitter<Out> emitter(out, policy);
      std::unordered_map<uint64_t, State> states;
      RunStage(
          in, emitter, policy,
          [&](In& item, BatchEmitter<Out>& em) {
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            auto keyed = [&](T&& t) { process(t, states[key_fn(t)], emit); };
            if constexpr (std::is_same_v<In, T>) {
              if (!prefix) {
                keyed(std::move(item));
                return ok;
              }
            }
            prefix(std::move(item), keyed);
            return ok;
          },
          [&](bool open, BatchEmitter<Out>& em) {
            if (!open || !flush) return;
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            for (auto& [key, state] : states) flush(key, state, emit);
          });
      out->Close();
    });
    return Flow<Out>(pipeline, std::move(out), policy);
  }

  // Partition router: one input channel per worker.
  auto partitions =
      std::make_shared<std::vector<std::shared_ptr<Channel<T>>>>();
  for (size_t w = 0; w < parallelism; ++w) {
    partitions->push_back(std::make_shared<Channel<T>>(opts.capacity));
  }
  // One report row for the whole stage: the shared output edge plus the
  // per-partition edges nested as worker_edges.
  pipeline->RegisterStage(stage, [out, partitions, stage] {
    StageMetrics m = out->MetricsSnapshot();
    m.worker_edges.reserve(partitions->size());
    for (size_t w = 0; w < partitions->size(); ++w) {
      StageMetrics e = (*partitions)[w]->MetricsSnapshot();
      e.stage = stage + ".part" + std::to_string(w);
      m.worker_edges.push_back(std::move(e));
    }
    m.skew_ratio = WorkerEdgeSkewRatio(m.worker_edges);
    return m;
  });

  pipeline->AddThread([in, partitions, parallelism, policy, key_fn,
                       prefix = std::move(prefix)] {
    // Route through the Mix64 finalizer, not std::hash: libstdc++'s
    // identity hash would fold structured keys (vessel IDs stepping by
    // a multiple of `parallelism`) onto a single worker.
    if (!policy.batched()) {
      bool open = true;
      auto route = [&](T&& t) {
        if (!open) return;
        const size_t w = HashPartition(key_fn(t), parallelism);
        if (!(*partitions)[w]->Push(std::move(t))) {
          // A worker cancelled its partition (downstream gone): stop
          // routing and propagate the cancel to our own input.
          open = false;
        }
      };
      while (open) {
        std::optional<In> item = in->Pop();
        if (!item.has_value()) break;
        if constexpr (std::is_same_v<In, T>) {
          if (!prefix) {
            route(std::move(*item));
            continue;
          }
        }
        prefix(std::move(*item), route);
      }
      if (!open) in->CloseAndDrain();
    } else {
      // Scatter each input batch into per-worker batches so partition
      // edges also move amortized transfers; the fused prefix runs here,
      // between the pop and the scatter.
      std::vector<In> batch;
      std::vector<std::vector<T>> scatter(parallelism);
      batch.reserve(policy.max_batch);
      bool open = true;
      auto stage_elem = [&](T&& t) {
        scatter[HashPartition(key_fn(t), parallelism)].push_back(
            std::move(t));
      };
      while (open) {
        batch.clear();
        const size_t n = in->PopBatch(&batch, policy.max_batch);
        if (n == 0) break;
        for (size_t i = 0; i < n; ++i) {
          if constexpr (std::is_same_v<In, T>) {
            if (!prefix) {
              stage_elem(std::move(batch[i]));
              continue;
            }
          }
          prefix(std::move(batch[i]), stage_elem);
        }
        for (size_t w = 0; w < parallelism && open; ++w) {
          if (scatter[w].empty()) continue;
          const size_t offered = scatter[w].size();
          if ((*partitions)[w]->PushBatch(std::move(scatter[w])) !=
              offered) {
            open = false;
          }
          scatter[w].clear();
        }
      }
      if (!open) in->CloseAndDrain();
    }
    for (auto& p : *partitions) p->Close();
  });

  // Workers share the output channel; the last one to finish closes it.
  auto live_workers = std::make_shared<std::atomic<size_t>>(parallelism);
  for (size_t w = 0; w < parallelism; ++w) {
    auto my_in = (*partitions)[w];
    pipeline->AddThread([my_in, out, key_fn, process, flush, live_workers,
                         policy] {
      BatchEmitter<Out> emitter(out, policy);
      std::unordered_map<uint64_t, State> states;
      RunStage(
          my_in, emitter, policy,
          [&](T& item, BatchEmitter<Out>& em) {
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            process(item, states[key_fn(item)], emit);
            return ok;
          },
          [&](bool open, BatchEmitter<Out>& em) {
            if (!open || !flush) return;
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            for (auto& [key, state] : states) flush(key, state, emit);
          });
      if (live_workers->fetch_sub(1) == 1) out->Close();
    });
  }
  return Flow<Out>(pipeline, std::move(out), policy);
}

}  // namespace internal

/// A chain of stateless operators fused into one stage: the composed
/// transform runs element-at-a-time inside a single thread, so a
/// Map→Filter→Map pipeline segment costs one channel crossing instead of
/// three (operator fusion — the other half of the transport amortization
/// story). Build with Flow::Fuse(), compose with Map/Filter/FlatMap, then
/// materialize: Emit() produces the single stateless stage (registered as
/// "fused"), or terminate the chain in a keyed stage with
/// KeyedProcessParallel — the composed prefix then runs inside the
/// partition router itself (registered as "fused_keyed"), with zero
/// channels between the source edge and the keyed boundary.
///
/// `In` is the input type of the fused stage, `Cur` the current output
/// type of the composed chain.
template <typename In, typename Cur>
class FusedChain {
 public:
  /// sink(value): forwards one output of the composed transform.
  using Sink = std::function<void(Cur&&)>;
  /// apply(item, sink): runs the whole composed chain on one element.
  using Apply = std::function<void(In&&, const Sink&)>;

  FusedChain(Flow<In> source, Apply apply)
      : source_(std::move(source)), apply_(std::move(apply)) {}

  /// Fuses a 1:1 transform onto the chain.
  template <typename Out>
  FusedChain<In, Out> Map(std::function<Out(const Cur&)> fn) const {
    Apply prev = apply_;
    typename FusedChain<In, Out>::Apply next =
        [prev, fn = std::move(fn)](
            In&& item, const typename FusedChain<In, Out>::Sink& sink) {
          prev(std::move(item), [&](Cur&& c) { sink(fn(c)); });
        };
    return FusedChain<In, Out>(source_, std::move(next));
  }

  /// Fuses a predicate onto the chain.
  FusedChain<In, Cur> Filter(std::function<bool(const Cur&)> pred) const {
    Apply prev = apply_;
    Apply next = [prev, pred = std::move(pred)](In&& item, const Sink& sink) {
      prev(std::move(item), [&](Cur&& c) {
        if (pred(c)) sink(std::move(c));
      });
    };
    return FusedChain<In, Cur>(source_, std::move(next));
  }

  /// Fuses a 1:N transform onto the chain.
  template <typename Out>
  FusedChain<In, Out> FlatMap(
      std::function<std::vector<Out>(const Cur&)> fn) const {
    Apply prev = apply_;
    typename FusedChain<In, Out>::Apply next =
        [prev, fn = std::move(fn)](
            In&& item, const typename FusedChain<In, Out>::Sink& sink) {
          prev(std::move(item), [&](Cur&& c) {
            for (Out& o : fn(c)) sink(std::move(o));
          });
        };
    return FusedChain<In, Out>(source_, std::move(next));
  }

  /// Terminates the chain in a keyed-parallel stage: the composed
  /// stateless prefix executes INSIDE the partition router thread, so the
  /// chain costs zero channel crossings between the source edge and the
  /// keyed boundary (Flink-style operator chaining up to the keyed
  /// shuffle). Semantics are exactly `...Emit()` followed by
  /// Flow::KeyedProcessParallel minus the intermediate channel: same
  /// Mix64 partitioning, same per-key order, same flush-at-end and
  /// cancellation contracts — the two-hop construction remains the
  /// differential reference (tests/stream_batch_equiv_test.cc). With
  /// `parallelism <= 1` the prefix and the keyed state machine share one
  /// stage thread. Returns the stage's output Flow directly; keyed
  /// terminals have no separate Emit step.
  template <typename Out, typename State>
  Flow<Out> KeyedProcessParallel(std::function<uint64_t(const Cur&)> key_fn,
                                 KeyedProcessFn<Cur, Out, State> process,
                                 size_t parallelism,
                                 KeyedFlushFn<Out, State> flush = nullptr,
                                 StageOptions opts = {}) const {
    return internal::KeyedParallelStage<In, Cur, Out, State>(
        source_.pipeline(), source_.channel(), source_.batch_policy(), apply_,
        std::move(key_fn), std::move(process), parallelism, std::move(flush),
        std::move(opts), "fused_keyed");
  }

  /// Materializes the fused chain as one pipeline stage with one output
  /// channel, draining and emitting per the source Flow's BatchPolicy
  /// (overridable via `opts.batch` like any other operator).
  Flow<Cur> Emit(StageOptions opts = {}) const {
    Pipeline* pipeline = source_.pipeline();
    const BatchPolicy policy = opts.batch.value_or(source_.batch_policy());
    auto out = std::make_shared<Channel<Cur>>(opts.capacity);
    pipeline->RegisterChannelStage("fused", std::move(opts.name), out);
    auto in = source_.channel();
    pipeline->AddThread([in, out, policy, apply = apply_] {
      BatchEmitter<Cur> emitter(out, policy);
      internal::RunStage(
          in, emitter, policy,
          [&apply](In& item, BatchEmitter<Cur>& em) {
            bool ok = true;
            apply(std::move(item), [&](Cur&& c) {
              if (ok && !em.Emit(std::move(c))) ok = false;
            });
            return ok;
          },
          [](bool, BatchEmitter<Cur>&) {});
      out->Close();
    });
    return Flow<Cur>(pipeline, std::move(out), policy);
  }

 private:
  Flow<In> source_;
  Apply apply_;
};

template <typename T>
FusedChain<T, T> Flow<T>::Fuse() const {
  return FusedChain<T, T>(
      *this, [](T&& item, const typename FusedChain<T, T>::Sink& sink) {
        sink(std::move(item));
      });
}

}  // namespace tcmf::stream

#endif  // TCMF_STREAM_PIPELINE_H_
