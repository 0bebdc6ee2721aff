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

  /// The stage's policy: `batch`, else `inherited`. A `max_batch` of 0
  /// is promoted to 1 (a zero-element pop would read as end-of-stream).
  BatchPolicy BatchOr(const BatchPolicy& inherited) const {
    BatchPolicy policy = batch.value_or(inherited);
    policy.max_batch = std::max<size_t>(1, policy.max_batch);
    return policy;
  }
};

/// Buffers operator outputs and flushes them downstream according to a
/// BatchPolicy: a batch leaves when it holds `max_batch` elements, when
/// its oldest element has waited `max_linger_ms`, or at end of stream.
/// With `max_batch` 1 every Emit is a one-element PushBatch and the clock
/// is never read. Emit/Flush return false when the downstream edge
/// rejected the transfer (consumer cancelled) — the signal to propagate
/// cancellation upstream.
template <typename Out>
class BatchEmitter {
 public:
  BatchEmitter(std::shared_ptr<Channel<Out>> out, BatchPolicy policy)
      : out_(std::move(out)), policy_(policy) {
    buf_.reserve(policy_.max_batch);
  }

  bool Emit(Out value) {
    buf_.push_back(std::move(value));
    if (buf_.size() >= policy_.max_batch) return Flush();
    // A partial batch starts: start its linger clock.
    if (buf_.size() == 1) first_buffered_ = std::chrono::steady_clock::now();
    return true;
  }

  bool Flush() {
    if (buf_.empty()) return true;
    const size_t n = buf_.size();
    return out_->PushBatch(std::move(buf_)) == n;  // leaves buf_ empty
  }

  bool has_pending() const { return !buf_.empty(); }

  size_t max_batch() const { return policy_.max_batch; }

  Channel<Out>& channel() const { return *out_; }

  /// Time until the oldest buffered element exceeds the linger bound.
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
/// Drains `in` in batches of up to the emitter's `max_batch`, feeds each
/// element to `per_element(item, emitter) -> bool` (false = downstream
/// rejected, i.e. the consumer cancelled), and on end-of-stream runs
/// `at_exit(open, emitter)` — stateful operators flush per-key state
/// there when `open` is true. Handles the shutdown contract: a rejected
/// emit cancels `in` via CloseAndDrain so upstream producers unblock.
/// Closing the *output* channel is the caller's responsibility (shared
/// outputs — KeyedProcessParallel — are closed by the last worker).
///
/// While outputs are staged the loop waits with the timed PopBatchFor,
/// so a partially-filled batch is flushed after `max_linger_ms` even
/// when the input goes quiet.
template <typename In, typename Out, typename PerElement, typename AtExit>
void RunStage(const std::shared_ptr<Channel<In>>& in,
              BatchEmitter<Out>& emitter, PerElement&& per_element,
              AtExit&& at_exit) {
  const size_t max_batch = emitter.max_batch();
  std::vector<In> batch;
  batch.reserve(max_batch);
  bool open = true;
  while (open) {
    batch.clear();
    if (emitter.has_pending()) {
      const PollStatus status =
          in->PopBatchFor(&batch, max_batch, emitter.LingerRemaining());
      if (status == PollStatus::kClosed) break;
      if (status == PollStatus::kEmpty) {
        // Linger expired with staged outputs: flush the partial batch.
        open = emitter.Flush();
        continue;
      }
    } else if (in->PopBatch(&batch, max_batch) == 0) {
      break;
    }
    for (size_t i = 0; i < batch.size() && open; ++i) {
      open = per_element(batch[i], emitter);
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

/// The fused stateless chain in front of a keyed stage: turns one
/// upstream `In` into zero or more `T`s handed to its sink. nullptr is
/// the identity (In == T, the plain un-fused keyed stage).
template <typename In, typename T>
using Prefix = std::function<void(In&&, const std::function<void(T&&)>&)>;

template <typename In, typename T>
void ApplyPrefix(const Prefix<In, T>& prefix, In& item,
                 const std::function<void(T&&)>& sink) {
  if constexpr (std::is_same_v<In, T>) {
    if (!prefix) return sink(std::move(item));
  }
  prefix(std::move(item), sink);
}

/// The keyed state machine behind every keyed stage: each upstream
/// element runs through `prefix`, each resulting `T` through `process`
/// with its key's State (default-constructed on first sight), and at end
/// of stream `flush` (optional) runs for every key. One instance per
/// stage thread; it owns that thread's key range.
template <typename In, typename T, typename Out, typename State>
class KeyedMachine {
 public:
  KeyedMachine(Prefix<In, T> prefix, std::function<uint64_t(const T&)> key_fn,
               KeyedProcessFn<T, Out, State> process,
               KeyedFlushFn<Out, State> flush)
      : prefix_(std::move(prefix)),
        key_fn_(std::move(key_fn)),
        process_(std::move(process)),
        flush_(std::move(flush)) {}

  KeyedMachine(const KeyedMachine&) = delete;
  KeyedMachine& operator=(const KeyedMachine&) = delete;

  /// RunStage's per-element step: false once downstream rejected an emit.
  bool Process(In& item, BatchEmitter<Out>& em) {
    em_ = &em;
    ok_ = true;
    ApplyPrefix(prefix_, item, keyed_);
    return ok_;
  }

  /// RunStage's at-exit step: flushes every key unless cancelled.
  void Finish(bool open, BatchEmitter<Out>& em) {
    if (!open || !flush_) return;
    em_ = &em;
    ok_ = true;
    for (auto& [key, state] : states_) flush_(key, state, emit_);
  }

 private:
  Prefix<In, T> prefix_;
  std::function<uint64_t(const T&)> key_fn_;
  KeyedProcessFn<T, Out, State> process_;
  KeyedFlushFn<Out, State> flush_;
  std::unordered_map<uint64_t, State> states_;
  BatchEmitter<Out>* em_ = nullptr;
  bool ok_ = true;
  // Built once per stage, not per element. After the first rejected
  // emit, later emits and later prefix outputs are dropped.
  const std::function<void(Out)> emit_ = [this](Out o) {
    if (ok_ && !em_->Emit(std::move(o))) ok_ = false;
  };
  const std::function<void(T&&)> keyed_ = [this](T&& t) {
    if (ok_) process_(t, states_[key_fn_(t)], emit_);
  };
};

struct NoAtExit {
  template <typename Emitter>
  void operator()(bool, Emitter&) const {}
};

/// The one body behind every 1-input, 1-output stage: creates the output
/// channel, registers it as stage `opts.name` (auto-named after `op`),
/// and starts a thread that runs RunStage with `per_element` and
/// `at_exit`, then closes the output on every exit path. The stage's
/// policy is `opts.batch`, else `inherited`.
template <typename In, typename Out, typename PerElement,
          typename AtExit = NoAtExit>
Flow<Out> SpawnStage(Pipeline* pipeline, std::shared_ptr<Channel<In>> in,
                     const BatchPolicy& inherited, StageOptions opts,
                     const char* op, PerElement per_element,
                     AtExit at_exit = {}) {
  const BatchPolicy policy = opts.BatchOr(inherited);
  auto out = std::make_shared<Channel<Out>>(opts.capacity);
  pipeline->RegisterChannelStage(op, std::move(opts.name), out);
  pipeline->AddThread([in = std::move(in), out, policy,
                       per_element = std::move(per_element),
                       at_exit = std::move(at_exit)] {
    BatchEmitter<Out> emitter(out, policy);
    RunStage(in, emitter, per_element, at_exit);
    out->Close();
  });
  return Flow<Out>(pipeline, std::move(out), policy);
}

/// Shared construction behind Flow::KeyedProcess, Flow::KeyedProcessParallel
/// and FusedChain::KeyedProcessParallel. With `parallelism <= 1` the
/// prefix and the keyed state machine share one stage thread. Otherwise a
/// partition router runs the prefix inline and hash-partitions the
/// resulting `T` elements straight into per-worker partition edges —
/// zero channels between the upstream edge and the keyed boundary — and
/// `parallelism` workers each run a KeyedMachine over their edge.
template <typename In, typename T, typename Out, typename State>
Flow<Out> KeyedParallelStage(
    Pipeline* pipeline, std::shared_ptr<Channel<In>> in,
    const BatchPolicy& inherited, Prefix<In, T> prefix,
    std::function<uint64_t(const T&)> key_fn,
    KeyedProcessFn<T, Out, State> process, size_t parallelism,
    KeyedFlushFn<Out, State> flush, StageOptions opts, const char* op) {
  if (parallelism <= 1) {
    auto machine = std::make_shared<KeyedMachine<In, T, Out, State>>(
        std::move(prefix), std::move(key_fn), std::move(process),
        std::move(flush));
    return SpawnStage<In, Out>(
        pipeline, std::move(in), inherited, std::move(opts), op,
        [machine](In& item, BatchEmitter<Out>& em) {
          return machine->Process(item, em);
        },
        [machine](bool open, BatchEmitter<Out>& em) {
          machine->Finish(open, em);
        });
  }

  const BatchPolicy policy = opts.BatchOr(inherited);
  auto out = std::make_shared<Channel<Out>>(opts.capacity);
  const std::string stage = pipeline->ResolveStageName(op, std::move(opts.name));
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

  // Router: scatters each input batch into per-worker batches so the
  // partition edges also move amortized transfers. Routes through the
  // Mix64 finalizer, not std::hash: libstdc++'s identity hash would fold
  // structured keys (vessel IDs stepping by a multiple of `parallelism`)
  // onto a single worker.
  pipeline->AddThread([in, partitions, parallelism,
                       max_batch = policy.max_batch, key_fn,
                       prefix = std::move(prefix)] {
    std::vector<In> batch;
    batch.reserve(max_batch);
    std::vector<std::vector<T>> scatter(parallelism);
    const std::function<void(T&&)> route = [&](T&& t) {
      scatter[HashPartition(key_fn(t), parallelism)].push_back(std::move(t));
    };
    bool open = true;
    while (open && in->PopBatch(&batch, max_batch) > 0) {
      for (In& item : batch) ApplyPrefix(prefix, item, route);
      batch.clear();
      for (size_t w = 0; w < parallelism && open; ++w) {
        if (scatter[w].empty()) continue;
        // A short accept means the worker cancelled its partition
        // (downstream gone): stop routing and cancel our own input.
        const size_t offered = scatter[w].size();
        open = (*partitions)[w]->PushBatch(std::move(scatter[w])) == offered;
      }
    }
    if (!open) in->CloseAndDrain();
    for (auto& p : *partitions) p->Close();
  });

  // Workers share the output channel; the last one to finish closes it.
  auto live_workers = std::make_shared<std::atomic<size_t>>(parallelism);
  for (size_t w = 0; w < parallelism; ++w) {
    pipeline->AddThread([my_in = (*partitions)[w], out, policy, key_fn,
                         process, flush, live_workers] {
      KeyedMachine<T, T, Out, State> machine(nullptr, key_fn, process, flush);
      BatchEmitter<Out> emitter(out, policy);
      RunStage(
          my_in, emitter,
          [&machine](T& item, BatchEmitter<Out>& em) {
            return machine.Process(item, em);
          },
          [&machine](bool open, BatchEmitter<Out>& em) {
            machine.Finish(open, em);
          });
      if (live_workers->fetch_sub(1) == 1) out->Close();
    });
  }
  return Flow<Out>(pipeline, std::move(out), policy);
}

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
/// accepting (a push is rejected because the consumer cancelled), the
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
  /// stream is exhausted. The generator stages up to `max_batch` elements
  /// (bounded by the linger) per transfer. Default policy when
  /// `opts.batch` is unset: one element per transfer (Single).
  static Flow<T> FromGenerator(Pipeline* pipeline,
                               std::function<std::optional<T>()> next,
                               StageOptions opts = {}) {
    const BatchPolicy policy = opts.BatchOr(BatchPolicy{});
    auto channel = std::make_shared<Channel<T>>(opts.capacity);
    pipeline->RegisterChannelStage("source", std::move(opts.name), channel);
    pipeline->AddThread([channel, policy, next = std::move(next)] {
      BatchEmitter<T> emitter(channel, policy);
      while (std::optional<T> item = next()) {
        // Emit fails only when downstream cancelled: stop generating.
        if (!emitter.Emit(std::move(*item))) break;
        if (emitter.has_pending() &&
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
    const BatchPolicy policy = opts.BatchOr(BatchPolicy::Batched());
    auto channel = std::make_shared<Channel<T>>(opts.capacity);
    pipeline->RegisterChannelStage("source", std::move(opts.name), channel);
    pipeline->AddThread(
        [channel, want = policy.max_batch,
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
    return internal::SpawnStage<T, Out>(
        pipeline_, channel_, policy_, std::move(opts), "map",
        [fn = std::move(fn)](T& item, BatchEmitter<Out>& em) {
          return em.Emit(fn(item));
        });
  }

  /// 1:N transform.
  template <typename Out>
  Flow<Out> FlatMap(std::function<std::vector<Out>(const T&)> fn,
                    StageOptions opts = {}) {
    return internal::SpawnStage<T, Out>(
        pipeline_, channel_, policy_, std::move(opts), "flatmap",
        [fn = std::move(fn)](T& item, BatchEmitter<Out>& em) {
          for (Out& o : fn(item)) {
            if (!em.Emit(std::move(o))) return false;
          }
          return true;
        });
  }

  /// Keeps elements satisfying the predicate.
  Flow<T> Filter(std::function<bool(const T&)> pred, StageOptions opts = {}) {
    return internal::SpawnStage<T, T>(
        pipeline_, channel_, policy_, std::move(opts), "filter",
        [pred = std::move(pred)](T& item, BatchEmitter<T>& em) {
          return !pred(item) || em.Emit(std::move(item));
        });
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
    return KeyedProcessParallel<Out, State>(std::move(key_fn),
                                            std::move(process), 1,
                                            std::move(flush), std::move(opts));
  }

  /// Keyed stateful processing with `parallelism` worker threads: elements
  /// are hash-partitioned by key, each worker owns the state of its key
  /// range (the Flink keyed-stream execution model). Output order across
  /// workers is nondeterministic; per-key order is preserved.
  ///
  /// Each router→worker partition edge is its own channel; its counters
  /// surface as `worker_edges` (plus `skew_ratio`) on this stage's row in
  /// Report()/ReportJson(). With `parallelism <= 1` this is KeyedProcess.
  template <typename Out, typename State>
  Flow<Out> KeyedProcessParallel(std::function<uint64_t(const T&)> key_fn,
                                 KeyedProcessFn<T, Out, State> process,
                                 size_t parallelism,
                                 KeyedFlushFn<Out, State> flush = nullptr,
                                 StageOptions opts = {}) {
    return internal::KeyedParallelStage<T, T, Out, State>(
        pipeline_, channel_, policy_, /*prefix=*/nullptr, std::move(key_fn),
        std::move(process), parallelism, std::move(flush), std::move(opts),
        parallelism <= 1 ? "keyed" : "keyed_par");
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
    auto windowers = std::make_shared<
        std::unordered_map<uint64_t, TumblingWindower<T, Acc>>>();
    return internal::SpawnStage<T, Result>(
        pipeline_, channel_, policy_, std::move(opts), "window",
        [windowers, key_fn = std::move(key_fn), time_fn = std::move(time_fn),
         window_ms, allowed_lateness_ms,
         add = std::move(add)](T& item, BatchEmitter<Result>& em) {
          const uint64_t key = key_fn(item);
          auto it = windowers->try_emplace(key, window_ms, allowed_lateness_ms,
                                           add).first;
          for (auto& wr : it->second.Add(item, time_fn(item))) {
            if (!em.Emit({key, std::move(wr)})) return false;
          }
          return true;
        },
        [windowers](bool open, BatchEmitter<Result>& em) {
          uint64_t late = 0;
          for (auto& [key, w] : *windowers) {
            if (open) {
              for (auto& wr : w.Close()) {
                if (!em.Emit({key, std::move(wr)})) {
                  open = false;
                  break;
                }
              }
            }
            late += w.late_dropped();
          }
          em.channel().RecordLateDropped(late);
        });
  }

  /// Terminal: applies `fn` to every element until end-of-stream, popping
  /// up to `max_batch` elements per transfer. A sink owns no output
  /// channel, so only `opts.batch` (pop-policy override) is meaningful
  /// here; the other StageOptions fields are ignored.
  void Sink(std::function<void(const T&)> fn, StageOptions opts = {}) {
    SinkWhile(
        [fn = std::move(fn)](const T& item) {
          fn(item);
          return true;
        },
        std::move(opts));
  }

  /// Terminal: applies `fn` until it returns false, then cancels the
  /// stream — upstream stages unblock and exit (no deadlock even with
  /// producers mid-push). The early-stopping sink. Elements already
  /// popped in the cancelling batch are dropped — the same fate queued
  /// elements meet under CloseAndDrain.
  void SinkWhile(std::function<bool(const T&)> fn, StageOptions opts = {}) {
    const size_t max_batch = opts.BatchOr(policy_).max_batch;
    pipeline_->AddThread([in = channel_, max_batch, fn = std::move(fn)] {
      std::vector<T> batch;
      batch.reserve(max_batch);
      while (in->PopBatch(&batch, max_batch) > 0) {
        for (const T& item : batch) {
          if (!fn(item)) {
            in->CloseAndDrain();
            return;
          }
        }
        batch.clear();
      }
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
    return internal::SpawnStage<In, Cur>(
        source_.pipeline(), source_.channel(), source_.batch_policy(),
        std::move(opts), "fused",
        [apply = apply_](In& item, BatchEmitter<Cur>& em) {
          bool ok = true;
          apply(std::move(item), [&](Cur&& c) {
            if (ok && !em.Emit(std::move(c))) ok = false;
          });
          return ok;
        });
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
