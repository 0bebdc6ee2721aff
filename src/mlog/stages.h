#ifndef TCMF_MLOG_STAGES_H_
#define TCMF_MLOG_STAGES_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mlog/log.h"
#include "mlog/partitioned.h"
#include "stream/pipeline.h"
#include "stream/record.h"

namespace tcmf::mlog {

/// Dataflow stage helpers gluing a durable Log into stream::Pipeline
/// graphs: LogSink persists any Flow<Record>, LogSource replays one —
/// together they give every pipeline the capture-then-replay semantics
/// the paper gets from Kafka topics. Replayed records compare == to the
/// appended originals (fields, order, event time). Both helpers follow
/// the unified `(flow/pipeline, config, StageOptions)` signature shared
/// with the insitu/synopses stage helpers.

/// Terminal stage: drains `flow` into `*log` using batched appends (one
/// fsync per batch under FsyncPolicy::kPerBatch). The append batch size
/// is `stage.batch`'s `max_batch` (Batched(256) when unset). The drain
/// uses the channel's batched pop, so filling an append batch costs one
/// lock acquisition per available chunk instead of one per record —
/// the fsync amortization and the transport amortization line up.
/// Registers a `stage.name` stage (default "mlog.sink") with the
/// pipeline exposing the log's counters (bytes written, fsyncs, recovery
/// stats). On an append error — mid-stream or on the final tail flush —
/// the failure is recorded as a sticky stage error (StageMetrics.error,
/// visible in Report()/ReportJson()); the mid-stream path additionally
/// cancels upstream (CloseAndDrain) so the pipeline shuts down instead
/// of losing data silently. The log must outlive the pipeline run.
inline void LogSink(stream::Flow<stream::Record> flow, Log* log,
                    stream::StageOptions stage = {}) {
  stream::Pipeline* pipeline = flow.pipeline();
  if (stage.name.empty()) stage.name = "mlog.sink";
  auto error = std::make_shared<stream::StickyStageError>();
  pipeline->RegisterStage(std::move(stage.name), [log, error] {
    stream::StageMetrics m = log->StageMetricsSnapshot();
    m.error = error->Get();
    return m;
  });
  auto in = flow.channel();
  const size_t batch_size = std::max<size_t>(
      1, stage.batch.value_or(stream::BatchPolicy::Batched(256)).max_batch);
  pipeline->AddThread([in, log, batch_size, error] {
    std::vector<stream::Record> batch;
    batch.reserve(batch_size);
    while (true) {
      // Top the batch up from whatever is queued (blocks when empty);
      // append + fsync once it is full.
      if (in->PopBatch(&batch, batch_size - batch.size()) == 0) break;
      if (batch.size() < batch_size) continue;
      if (Status s = log->AppendBatch(batch).status(); !s.ok()) {
        error->Set(s.ToString());
        in->CloseAndDrain();  // propagate failure upstream
        return;
      }
      batch.clear();
    }
    // Final tail flush at EOS. There is no upstream left to cancel, so
    // the sticky error is the only way a failure here can surface —
    // dropping this Status would be silent loss of the stream's last
    // records.
    if (!batch.empty()) {
      if (Status s = log->AppendBatch(batch).status(); !s.ok()) {
        error->Set(s.ToString());
      }
    }
  });
}

/// Replay configuration for LogSource.
struct LogSourceOptions {
  /// First offset to replay (clamped to the retention horizon). Ignored
  /// when `start_time` is set.
  uint64_t start_offset = 0;
  /// Replay from the first record with event_time >= start_time.
  std::optional<TimeMs> start_time;
  /// One past the last offset to replay. Defaults to the log's
  /// next_offset() at construction — i.e. "replay everything captured so
  /// far, then end the stream".
  std::optional<uint64_t> end_offset;
  /// Stage configuration for the replay edge (the same StageOptions every
  /// Flow operator takes). `stage.name` defaults to "mlog.source";
  /// `stage.batch` defaults to FromBatchGenerator's BatchPolicy::Batched()
  /// — the replay edge is the throughput-bound path. Its `max_batch` is
  /// both the records decoded per cursor call and the records per channel
  /// transfer; BatchPolicy::Single() replays one record per transfer
  /// (docs/STREAM_TUNING.md).
  stream::StageOptions stage{};
};

/// Source stage: replays `[start, end)` of `*log` as a Flow<Record>.
/// Each LogSource owns an independent cursor, so any number of consumers
/// can replay the same log concurrently (multi-consumer fan-out). The
/// log must outlive the pipeline run.
///
/// Replay is segment-aware batched end to end: the stage pulls via
/// Cursor::NextBatch sized to the edge's `max_batch`, so one call
/// decodes one channel transfer's worth of records, the committed
/// watermark is sampled once per batch, and the log's read counters are
/// bumped once per batch — source-side decode amortization matched to
/// the transport amortization (one lock acquisition per batch).
inline stream::Flow<stream::Record> LogSource(stream::Pipeline* pipeline,
                                              Log* log,
                                              LogSourceOptions options = {}) {
  std::shared_ptr<Cursor> cursor(log->NewCursor().release());
  const Status seek = options.start_time.has_value()
                          ? cursor->SeekToTime(*options.start_time)
                          : cursor->Seek(options.start_offset);
  const uint64_t end = options.end_offset.value_or(log->next_offset());
  stream::StageOptions stage = std::move(options.stage);
  if (stage.name.empty()) stage.name = "mlog.source";
  auto error = std::make_shared<stream::StickyStageError>();
  pipeline->RegisterStage(stage.name + ".log", [log, error] {
    stream::StageMetrics m = log->StageMetricsSnapshot();
    m.error = error->Get();
    return m;
  });
  if (!seek.ok()) {
    // A failed seek means the requested position is unreachable (corrupt
    // mid-log entry on the scan path). Replaying from wherever the
    // cursor happened to land would silently yield the wrong records —
    // surface the error and end the stream empty instead.
    error->Set(seek.ToString());
    return stream::Flow<stream::Record>::FromVector(pipeline, {},
                                                    std::move(stage));
  }
  auto scratch = std::make_shared<std::vector<ReadRecord>>();
  return stream::Flow<stream::Record>::FromBatchGenerator(
      pipeline,
      [cursor, end, scratch](std::vector<stream::Record>* out,
                             size_t max_n) -> size_t {
        if (cursor->offset() >= end) return 0;
        max_n = std::min<uint64_t>(max_n, end - cursor->offset());
        scratch->clear();
        const size_t n = cursor->NextBatch(scratch.get(), max_n);
        for (size_t i = 0; i < n; ++i) {
          out->push_back(std::move((*scratch)[i].record));
        }
        return n;  // 0 = caught up with the writer or error: end of stream
      },
      std::move(stage));
}

/// Extracts the routing key of a record for the partitioned producers
/// (same role as KeyedProcessParallel's key_fn).
using RecordKeyFn = std::function<uint64_t(const stream::Record&)>;

/// Terminal stage: drains `flow` into `*topic`, routing every record to
/// its key's partition (Mix64(key_fn(r)) % N — the topic's producer
/// hash). Each popped channel batch is scattered by partition and
/// appended with one AppendBatch per touched partition, so the fsync
/// amortization of LogSink is preserved per partition. Registers
/// `stage.name` (default "mlog.psink") exposing the topic's aggregated
/// counters; append failures — mid-stream or on the final tail flush —
/// become a sticky stage error exactly as in LogSink. The topic must
/// outlive the pipeline run.
inline void PartitionedLogSink(stream::Flow<stream::Record> flow,
                               PartitionedLog* topic, RecordKeyFn key_fn,
                               stream::StageOptions stage = {}) {
  stream::Pipeline* pipeline = flow.pipeline();
  if (stage.name.empty()) stage.name = "mlog.psink";
  auto error = std::make_shared<stream::StickyStageError>();
  pipeline->RegisterStage(std::move(stage.name), [topic, error] {
    stream::StageMetrics m = topic->StageMetricsSnapshot();
    m.error = error->Get();
    return m;
  });
  auto in = flow.channel();
  const size_t batch_size = std::max<size_t>(
      1, stage.batch.value_or(stream::BatchPolicy::Batched(256)).max_batch);
  pipeline->AddThread([in, topic, key_fn = std::move(key_fn), batch_size,
                       error] {
    std::vector<stream::Record> batch;
    batch.reserve(batch_size);
    std::vector<std::vector<stream::Record>> scatter(topic->partition_count());
    // Scatters the staged batch by partition and appends each partition's
    // share; the first failing partition's status wins (the rest are
    // still attempted so healthy partitions keep their data).
    auto append_scattered = [&]() -> Status {
      for (stream::Record& r : batch) {
        scatter[topic->PartitionFor(key_fn(r))].push_back(std::move(r));
      }
      batch.clear();
      Status first;
      for (size_t p = 0; p < scatter.size(); ++p) {
        if (scatter[p].empty()) continue;
        Status s = topic->partition(p)->AppendBatch(scatter[p]).status();
        scatter[p].clear();
        if (first.ok() && !s.ok()) first = std::move(s);
      }
      return first;
    };
    while (true) {
      if (in->PopBatch(&batch, batch_size - batch.size()) == 0) break;
      if (batch.size() < batch_size) continue;
      if (Status s = append_scattered(); !s.ok()) {
        error->Set(s.ToString());
        in->CloseAndDrain();  // propagate failure upstream
        return;
      }
    }
    if (!batch.empty()) {
      if (Status s = append_scattered(); !s.ok()) error->Set(s.ToString());
    }
  });
}

/// Source stage: replays partition `p` of `*topic` as a Flow<Record> —
/// the per-shard ingest edge of a ShardedPipeline (one instance per
/// partition, shard index = partition index). Thin wrapper over
/// LogSource on topic->partition(p); give every shard the same
/// `options.stage.name` (default "mlog.source") so ShardedPipeline's
/// merged report aggregates the replay edges into one logical stage.
inline stream::Flow<stream::Record> PartitionedLogSource(
    stream::Pipeline* pipeline, PartitionedLog* topic, size_t p,
    LogSourceOptions options = {}) {
  return LogSource(pipeline, topic->partition(p), std::move(options));
}

}  // namespace tcmf::mlog

#endif  // TCMF_MLOG_STAGES_H_
