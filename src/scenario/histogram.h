#ifndef TCMF_SCENARIO_HISTOGRAM_H_
#define TCMF_SCENARIO_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace tcmf::scenario {

/// Lock-cheap HDR-style latency histogram (hdrhistogram's log-linear
/// bucketing): values are microseconds, bucketed into octaves of
/// kSubBuckets linear sub-buckets each, so relative quantile error is
/// bounded by 1/kSubBuckets (~1.6%) at every magnitude from 1us to ~2^58
/// us. Record() is one relaxed fetch_add on an atomic counter — cheap
/// enough to sit on the sink hot path of every shard — and histograms
/// merge by adding counters, so per-shard instances combine into the
/// fleet-wide distribution without any locking during the run.
///
/// Thread safety: Record() is safe from any number of threads.
/// Quantile/Merge/ToJson take a best-effort snapshot (exact once writers
/// have stopped, which is when reports are built).
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 6;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 64
  static constexpr int kOctaves = 64 - kSubBucketBits;
  static constexpr size_t kBucketCount =
      static_cast<size_t>(kOctaves) * kSubBuckets;

  LatencyHistogram();

  /// Records one latency observation (microseconds, clamped at >= 0).
  void RecordUs(int64_t latency_us);

  /// Adds `other`'s counters into this histogram.
  void Merge(const LatencyHistogram& other);

  /// Value at quantile q in [0, 1] (0.5 = median), microseconds. The
  /// bucket midpoint is returned, capped at max_us(), so the result
  /// carries the bucketing error bound above. 0 when empty.
  uint64_t ValueAtQuantileUs(double q) const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t max_us() const { return max_us_.load(std::memory_order_relaxed); }
  double MeanUs() const;

  /// {"count":N,"mean_ms":..,"p50_ms":..,"p99_ms":..,"p999_ms":..,
  ///  "max_ms":..} — milliseconds with 3 decimals, the report shape.
  std::string ToJson() const;

 private:
  static size_t IndexOf(uint64_t value_us);
  static uint64_t BucketMidpointUs(size_t index);

  std::array<std::atomic<uint64_t>, kBucketCount> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
};

}  // namespace tcmf::scenario

#endif  // TCMF_SCENARIO_HISTOGRAM_H_
