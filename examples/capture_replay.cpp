// Capture-then-replay: the durable-broker pattern at the heart of the
// datAcron architecture (the paper wires every pair of components through
// Kafka topics). Here a synthetic AIS feed is captured into an mlog — the
// single-node Kafka substitute — then replayed twice from disk: once in
// full by a late-joining consumer, once from an event-time lower bound.
// Replayed records are byte-faithful: they compare == to the originals.

#include <cstdio>
#include <filesystem>

#include "datagen/areas.h"
#include "datagen/vessel.h"
#include "mlog/log.h"
#include "mlog/stages.h"
#include "stream/pipeline.h"
#include "stream/record.h"

using namespace tcmf;

int main() {
  const std::string kLogDir = "capture_replay_log";
  std::filesystem::remove_all(kLogDir);

  // 1. A synthetic AIS feed: 10 vessels for one hour.
  datagen::VesselSimConfig config;
  config.vessel_count = 10;
  config.duration_ms = kMillisPerHour;
  config.report_interval_ms = 10000;
  Rng rng(7);
  auto ports = datagen::MakePorts(rng, config.extent, 6);
  datagen::VesselSimulator sim(config, ports, {}, nullptr);
  datagen::VesselSimOutput data = sim.Run();
  std::printf("simulated %zu AIS reports\n", data.stream.size());

  // One static transport setting for every edge: 128 records per channel
  // transfer. It is set at each source and inherited downstream.
  const stream::BatchPolicy batch = stream::BatchPolicy::Batched(128);

  // 2. Capture: stream the feed through a pipeline into a durable log.
  mlog::LogOptions options;
  options.dir = kLogDir;
  options.segment_bytes = 256 << 10;  // roll every 256 KiB
  options.fsync_policy = mlog::FsyncPolicy::kPerBatch;
  {
    auto log = mlog::Log::Open(options).value();
    stream::Pipeline pipeline;
    auto records =
        stream::Flow<Position>::FromVector(
            &pipeline, data.stream,
            {.name = "ais.source", .capacity = 512, .batch = batch})
            .Map<stream::Record>(
                [](const Position& p) { return stream::PositionToRecord(p); },
                {.name = "to_record", .capacity = 512});
    // The append batch (one fsync per flush) maps to the sink stage's
    // batch policy.
    mlog::LogSink(std::move(records), log.get(), {.batch = batch});
    pipeline.Run();
    std::printf("captured %llu records into %zu segment(s), %llu fsyncs\n",
                static_cast<unsigned long long>(log->next_offset()),
                log->segment_count(),
                static_cast<unsigned long long>(log->metrics().fsyncs));
  }  // log closed — records survive on disk

  // 3. Replay #1: a late-joining consumer reads the whole capture.
  auto log = mlog::Log::Open(options).value();
  std::printf("reopened: offsets [%llu, %llu), recovered %llu records\n",
              static_cast<unsigned long long>(log->start_offset()),
              static_cast<unsigned long long>(log->next_offset()),
              static_cast<unsigned long long>(
                  log->metrics().recovered_records));
  {
    stream::Pipeline pipeline;
    size_t replayed = 0, matched = 0;
    mlog::LogSource(&pipeline, log.get(), {.stage = {.batch = batch}})
        .Sink([&](const stream::Record& r) {
          if (replayed < data.stream.size() &&
              r == stream::PositionToRecord(data.stream[replayed])) {
            ++matched;
          }
          ++replayed;
        });
    pipeline.Run();
    std::printf("full replay: %zu records, %zu byte-faithful matches\n",
                replayed, matched);
  }

  // 4. Replay #2: only the second half-hour, by event-time lower bound —
  //    what a prediction component does when it rebuilds state after a
  //    restart without reprocessing history it no longer needs.
  {
    stream::Pipeline pipeline;
    mlog::LogSourceOptions source_options;
    source_options.start_time = data.stream.front().t + 30 * kMillisPerMinute;
    source_options.stage = {.name = "replay.tail", .batch = batch};
    size_t tail = 0;
    mlog::LogSource(&pipeline, log.get(), source_options)
        .Sink([&tail](const stream::Record&) { ++tail; });
    pipeline.Run();
    std::printf("time-bounded replay (last 30 min): %zu records\n", tail);
  }

  std::filesystem::remove_all(kLogDir);
  return 0;
}
