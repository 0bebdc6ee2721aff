#ifndef TCMF_STREAM_TUNING_H_
#define TCMF_STREAM_TUNING_H_

#include <cstddef>
#include <cstdint>

namespace tcmf::stream {

/// Batch transport policy for dataflow operators — the per-edge knob set
/// of the stream substrate, the analogue of Kafka's static
/// `batch.size`/`linger.ms` producer settings. Every edge runs the same
/// batched loop; the policy only sets its two bounds. The full written
/// performance model (what each knob does, how to read the metrics, how
/// to choose a policy) lives in docs/STREAM_TUNING.md.
///
/// `max_batch` is the largest number of elements moved per channel
/// transfer (0 is promoted to 1); 1 moves each record on its own. `max_linger_ms` (>= 0)
/// bounds how long a partially-filled output batch may be held back
/// waiting to fill up — the classic throughput/latency linger knob.
///
/// Batch boundaries are invisible to operators and to observers of the
/// output: the differential harness (tests/stream_batch_equiv_test.cc)
/// proves every {batch, linger, capacity, parallelism, fusion}
/// combination produces the same output multiset as `max_batch` 1.
struct BatchPolicy {
  size_t max_batch = 1;      ///< per-transfer element cap
  int64_t max_linger_ms = 5; ///< partial-batch flush bound

  /// One element per transfer (the default).
  static BatchPolicy Single() { return BatchPolicy{1, 0}; }

  /// Amortized transport: up to `max_batch` elements per lock
  /// acquisition, partial batches flushed after `linger_ms`.
  static BatchPolicy Batched(size_t max_batch = 64, int64_t linger_ms = 5) {
    return BatchPolicy{max_batch == 0 ? 1 : max_batch, linger_ms};
  }
};

}  // namespace tcmf::stream

#endif  // TCMF_STREAM_TUNING_H_
