// Span tracing for the benchmark's traced mode, plus the sample
// statistics every workload reports. Spans are recorded by the
// benchmark's own adapters around each call into a layer's public
// functions; the library itself is not instrumented.

#ifndef TCMF_PERFBENCH_TRACE_H_
#define TCMF_PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline int64_t NowUs() { return NowNs() / 1000; }

/// Exact order statistics over a sample (linear interpolation between
/// ranks, as numpy's default percentile).
double Quantile(std::vector<double> values, double q);

/// Share of the VM's CPU time the hypervisor gave to other VMs while this
/// one's vCPUs wanted to run (steal), since construction, from the cpu
/// line of /proc/stat; 0 where that cannot be read.
class StealMeter {
 public:
  StealMeter() : start_(Read()) {}
  double Frac() const;

 private:
  struct Ticks {
    double steal = 0, total = 0;
  };
  static Ticks Read();
  Ticks start_;
};

/// Thread-safe append-only sample buffer.
class SampleSink {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(v);
  }
  std::vector<double> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(values_);
  }

 private:
  std::mutex mu_;
  std::vector<double> values_;
};

/// Span names. kScreen and kFresh are the per-record roots (from the
/// record's due time to the end of its screen / its last stored triple);
/// every layer span of a record has one of them as parent.
enum class Layer : uint8_t {
  kNone = 0,
  kScreen,
  kFresh,
  kMlogAppend,
  kMlogPoll,
  kInsitu,
  kCpa,
  kSynopses,
  kLinkDiscovery,
  kRdf,
  kStoreAdd,
  kCep,
  kQueryAdjacency,
  kQueryPushdown,
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Layer layer = Layer::kNone;
  Layer parent = Layer::kNone;
};

/// Trace ids: a record's spans carry `seq << 4 | 0xF`; the spans of its
/// i-th critical point carry `seq << 4 | i`.
inline uint64_t RecordTraceId(uint64_t seq) { return seq << 4 | 0xF; }
inline uint64_t CpTraceId(uint64_t seq, uint32_t index) {
  return seq << 4 | (index < 0xF ? index : 0xE);
}

/// Collects spans in per-thread buffers. Every span adds to its layer's
/// total self time and call count; span records themselves are kept only
/// for records whose seq is a multiple of `sample_every` (batch-level
/// spans, trace id 0, are always counted and never kept).
class Tracer {
 public:
  explicit Tracer(uint64_t sample_every);

  bool Keeps(uint64_t seq) const { return seq % sample_every_ == 0; }

  void Record(Layer layer, Layer parent, uint64_t trace_id, bool keep,
              int64_t start_ns, int64_t end_ns);

  struct Totals {
    std::array<int64_t, static_cast<size_t>(Layer::kCount)> self_ns{};
    std::array<uint64_t, static_cast<size_t>(Layer::kCount)> calls{};
    double self_ms(Layer l) const {
      return self_ns[static_cast<size_t>(l)] / 1e6;
    }
    uint64_t count(Layer l) const { return calls[static_cast<size_t>(l)]; }
  };
  /// Call after every recording thread has been joined.
  Totals Sum() const;
  std::vector<Span> Spans() const;

  /// Writes `trace_id,name,parent,start_ns,end_ns` lines.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    Totals totals;
  };
  Buffer* Local();

  const uint64_t sample_every_;
  const uint64_t id_;  ///< process-unique; keys the per-thread buffers
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times one layer call when tracing is on; a null tracer costs a branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, Layer parent, uint64_t trace_id,
             uint64_t seq)
      : tracer_(tracer),
        layer_(layer),
        parent_(parent),
        trace_id_(trace_id),
        seq_(seq),
        start_ns_(tracer ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (tracer_) {
      tracer_->Record(layer_, parent_, trace_id_, tracer_->Keeps(seq_),
                      start_ns_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Layer layer_;
  Layer parent_;
  uint64_t trace_id_;
  uint64_t seq_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // TCMF_PERFBENCH_TRACE_H_
