#include "scenario/histogram.h"

#include <algorithm>
#include <bit>

#include "common/strings.h"

namespace tcmf::scenario {

LatencyHistogram::LatencyHistogram() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

size_t LatencyHistogram::IndexOf(uint64_t value_us) {
  if (value_us < kSubBuckets) return static_cast<size_t>(value_us);
  // Octave o holds values in [2^(o+kSubBucketBits-1), 2^(o+kSubBucketBits)):
  // v >> o lands in [kSubBuckets/2, kSubBuckets), a linear sub-bucket of
  // width 2^o — relative resolution 2/kSubBuckets at every magnitude.
  const int octave = std::bit_width(value_us) - kSubBucketBits;
  const size_t sub = static_cast<size_t>(value_us >> octave);
  return static_cast<size_t>(octave) * kSubBuckets + sub;
}

uint64_t LatencyHistogram::BucketMidpointUs(size_t index) {
  const size_t octave = index / kSubBuckets;
  const uint64_t sub = index % kSubBuckets;
  if (octave == 0) return sub;  // exact: sub-bucket width 1
  return (sub << octave) + (uint64_t{1} << (octave - 1));
}

void LatencyHistogram::RecordUs(int64_t latency_us) {
  const uint64_t v = latency_us < 0 ? 0 : static_cast<uint64_t>(latency_us);
  buckets_[IndexOf(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(v, std::memory_order_relaxed);
  uint64_t prev = max_us_.load(std::memory_order_relaxed);
  while (prev < v && !max_us_.compare_exchange_weak(
                         prev, v, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBucketCount; ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_us_.fetch_add(other.sum_us_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  const uint64_t other_max = other.max_us();
  uint64_t prev = max_us_.load(std::memory_order_relaxed);
  while (prev < other_max &&
         !max_us_.compare_exchange_weak(prev, other_max,
                                        std::memory_order_relaxed)) {
  }
}

uint64_t LatencyHistogram::ValueAtQuantileUs(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * total + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    // A bucket's midpoint can lie above every value recorded in it; no
    // quantile may exceed the largest observation.
    if (seen >= target) return std::min(BucketMidpointUs(i), max_us());
  }
  return max_us();
}

double LatencyHistogram::MeanUs() const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  return static_cast<double>(sum_us_.load(std::memory_order_relaxed)) / total;
}

std::string LatencyHistogram::ToJson() const {
  return StrFormat(
      "{\"count\":%llu,\"mean_ms\":%.3f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"p999_ms\":%.3f,\"max_ms\":%.3f}",
      static_cast<unsigned long long>(count()), MeanUs() / 1000.0,
      ValueAtQuantileUs(0.50) / 1000.0, ValueAtQuantileUs(0.99) / 1000.0,
      ValueAtQuantileUs(0.999) / 1000.0, max_us() / 1000.0);
}

}  // namespace tcmf::scenario
