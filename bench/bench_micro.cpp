// Micro-benchmarks (google-benchmark) for the hot inner loops every
// experiment leans on: geodesic math, grid/cell indexing, synopses
// observation, dictionary interning, channel transport, and CEP stepping.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cep/automaton.h"
#include "cep/pattern.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/varint.h"
#include "geom/geo.h"
#include "geom/grid.h"
#include "geom/stcell.h"
#include "mlog/codec.h"
#include "rdf/dictionary.h"
#include "stream/channel.h"
#include "stream/pipeline.h"
#include "stream/record.h"
#include "synopses/critical_points.h"

namespace tcmf {
namespace {

void BM_Haversine(benchmark::State& state) {
  Rng rng(1);
  double lon1 = rng.Uniform(-6, 10), lat1 = rng.Uniform(35, 44);
  double lon2 = rng.Uniform(-6, 10), lat2 = rng.Uniform(35, 44);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::HaversineM(lon1, lat1, lon2, lat2));
  }
}
BENCHMARK(BM_Haversine);

void BM_PolygonContains(benchmark::State& state) {
  geom::Polygon poly = geom::Polygon::Circle({2.0, 40.0}, 20000.0,
                                             static_cast<int>(state.range(0)));
  Rng rng(2);
  std::vector<geom::LonLat> probes;
  for (int i = 0; i < 256; ++i) {
    probes.push_back({rng.Uniform(1.5, 2.5), rng.Uniform(39.5, 40.5)});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly.Contains(probes[i++ % probes.size()]));
  }
}
BENCHMARK(BM_PolygonContains)->Arg(12)->Arg(64)->Arg(256);

void BM_GridCellOf(benchmark::State& state) {
  geom::EquiGrid grid({-6, 35, 10, 44}, 64, 64);
  Rng rng(3);
  std::vector<geom::LonLat> probes;
  for (int i = 0; i < 256; ++i) {
    probes.push_back({rng.Uniform(-6, 10), rng.Uniform(35, 44)});
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& p = probes[i++ % probes.size()];
    benchmark::DoNotOptimize(grid.CellOf(p.lon, p.lat));
  }
}
BENCHMARK(BM_GridCellOf);

void BM_StCellEncode(benchmark::State& state) {
  geom::StCellEncoder encoder({-6, 35, 10, 44}, 10, 0, kMillisPerHour);
  Rng rng(4);
  double lon = rng.Uniform(-6, 10), lat = rng.Uniform(35, 44);
  TimeMs t = 12345678;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(lon, lat, t));
  }
}
BENCHMARK(BM_StCellEncode);

void BM_SynopsesObserve(benchmark::State& state) {
  // Pre-generate a realistic position stream, then measure Observe.
  Rng rng(5);
  std::vector<Position> stream;
  geom::LonLat pos{2.0, 40.0};
  double heading = 90.0;
  for (int i = 0; i < 8192; ++i) {
    Position p;
    p.entity_id = i % 16;
    p.t = (i / 16) * 10000;
    heading = geom::NormalizeDeg(heading + rng.Uniform(-3, 3));
    pos = geom::Destination(pos, heading, 60.0);
    p.lon = pos.lon;
    p.lat = pos.lat;
    p.speed_mps = 6.0;
    p.heading_deg = heading;
    stream.push_back(p);
  }
  synopses::SynopsesGenerator gen(synopses::SynopsesConfig::ForMaritime());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Observe(stream[i++ % stream.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SynopsesObserve);

void BM_DictionaryEncode(benchmark::State& state) {
  rdf::Dictionary dict;
  Rng rng(6);
  std::vector<rdf::Term> terms;
  for (int i = 0; i < 4096; ++i) {
    terms.push_back(rdf::Iri("http://tcmf/node/" +
                             std::to_string(rng.UniformInt(0, 2048))));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.Encode(terms[i++ % terms.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DictionaryEncode);

void BM_ChannelPushPop(benchmark::State& state) {
  stream::Channel<int> channel(1024);
  for (auto _ : state) {
    channel.Push(1);
    benchmark::DoNotOptimize(channel.Pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelPushPop);

// Single-thread PushBatch/PopBatch round trip: isolates the lock
// amortization from the cross-thread handoff cost (the two-thread
// version lives in the batched-transport comparison below).
void BM_ChannelPushPopBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  stream::Channel<int> channel(2048);
  std::vector<int> in(batch, 1);
  std::vector<int> out;
  out.reserve(batch);
  for (auto _ : state) {
    std::vector<int> staged = in;
    channel.PushBatch(std::move(staged));
    out.clear();
    benchmark::DoNotOptimize(channel.PopBatch(&out, batch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_ChannelPushPopBatch)->Arg(8)->Arg(64)->Arg(1024);

// A record shaped like a cleaned AIS position report — what the mlog
// durable log frames on every broker hop.
stream::Record MakeAisRecord() {
  stream::Record r;
  r.set_event_time(1700000000000);
  r.Set("mmsi", static_cast<int64_t>(227006760));
  r.Set("lon", 2.3488);
  r.Set("lat", 48.8534);
  r.Set("speed_kn", 12.7);
  r.Set("heading", 231.0);
  r.Set("status", std::string("under_way"));
  return r;
}

void BM_MlogEncodeRecord(benchmark::State& state) {
  const stream::Record record = MakeAisRecord();
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    benchmark::DoNotOptimize(mlog::AppendEntry(&buf, record));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_MlogEncodeRecord);

void BM_MlogDecodeRecord(benchmark::State& state) {
  std::string buf;
  mlog::AppendEntry(&buf, MakeAisRecord());
  for (auto _ : state) {
    mlog::EntryView view;
    bool ok = mlog::ParseEntry(buf.data(), buf.data() + buf.size(), &view);
    stream::Record record;
    ok = ok && mlog::DecodeRecordPayload(view.payload, &record);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(record);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_MlogDecodeRecord);

void BM_Crc32c(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(9);
  std::string data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    data.push_back(static_cast<char>(rng.UniformInt(0, 255)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_Varint64RoundTrip(benchmark::State& state) {
  const uint64_t kValues[] = {3, 300, 70000, 1ull << 40};
  std::string buf;
  size_t i = 0;
  for (auto _ : state) {
    buf.clear();
    AppendVarint64(&buf, kValues[i++ & 3]);
    uint64_t back = 0;
    benchmark::DoNotOptimize(
        ParseVarint64(buf.data(), buf.data() + buf.size(), &back));
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Varint64RoundTrip);

void BM_DfaStep(benchmark::State& state) {
  using namespace cep;
  Pattern r = Pattern::Seq({Pattern::Symbol(0),
                            Pattern::Star(Pattern::Or({Pattern::Symbol(0),
                                                       Pattern::Symbol(1)})),
                            Pattern::Symbol(2)});
  Dfa dfa = CompileStreamingDfa(r, 5);
  Rng rng(7);
  std::vector<int> symbols;
  for (int i = 0; i < 4096; ++i) {
    symbols.push_back(static_cast<int>(rng.UniformInt(0, 4)));
  }
  int s = 0;
  size_t i = 0;
  for (auto _ : state) {
    s = dfa.Next(s, symbols[i++ % symbols.size()]);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DfaStep);

// After the timed benchmarks, run a channel-throughput dataflow job and
// print its per-stage StageMetrics report: records in/out, queue-depth
// high-watermark and producer/consumer blocked time make backpressure
// stalls visible as numbers (a slow stage shows up as producer-blocked
// time on the edge feeding it).
void PrintPipelineStageReport() {
  constexpr int kCount = 500000;
  constexpr size_t kCapacity = 256;
  stream::Pipeline pipeline;
  int next = 0;
  long long checksum = 0;
  stream::Flow<int>::FromGenerator(
      &pipeline,
      [&next]() -> std::optional<int> {
        if (next >= kCount) return std::nullopt;
        return next++;
      },
      {.name = "source", .capacity = kCapacity})
      .Map<int>([](const int& x) { return x * 3; },
                {.name = "map_x3", .capacity = kCapacity})
      .Filter([](const int& x) { return (x & 1) == 0; },
              {.name = "filter_even", .capacity = kCapacity})
      .Sink([&checksum](const int& x) { checksum += x; });
  pipeline.Run();
  std::printf(
      "\n=== stream substrate: per-stage metrics "
      "(%d records through source->map->filter->sink, capacity %zu) ===\n%s",
      kCount, kCapacity, pipeline.ReportString().c_str());
  std::printf("checksum: %lld\njson: %s\n", checksum,
              pipeline.ReportJson().c_str());
}

// ===== Batched transport comparison =====
//
// Measures the cross-thread channel-transfer rate as a function of batch
// size (batch 1 == the single-element Push/Pop calls) and the end-to-end
// source->map->filter->sink pipeline across transport policies:
// Single() (one record per transfer), a static max_batch sweep
// {16, 64, 256} and
// fused+Batched(64). Emits a table on stdout and machine-readable rows
// to BENCH_micro.json in the working directory;
// tools/bench_check.py gates the RATIOS between rows against the
// committed baseline in bench/baselines/ (see docs/STREAM_TUNING.md for
// how to read the numbers).

struct BenchRow {
  std::string name;
  size_t records = 0;
  double records_per_s = 0.0;
  double p99_ms = -1.0;      ///< p99 staging latency (latency rows only)
  int64_t linger_ms = -1;    ///< the row's linger bound (latency rows only)
  int hw_threads = 0;        ///< hardware threads (hw-gated rows only)
  double skew_ratio = -1.0;  ///< keyed stage's partition skew (skew rows)
};

// One producer thread feeding one consumer (the caller's thread) through
// a capacity-1024 channel. batch<=1 uses Push/Pop; otherwise
// PushBatch/PopBatch. This is the transport every pipeline edge pays.
double MeasureChannelTransfer(size_t batch, size_t total) {
  stream::Channel<int> channel(1024);
  const auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&channel, batch, total] {
    if (batch <= 1) {
      for (size_t i = 0; i < total; ++i) {
        if (!channel.Push(static_cast<int>(i))) break;
      }
    } else {
      std::vector<int> buf;
      buf.reserve(batch);
      for (size_t i = 0; i < total;) {
        buf.clear();
        for (size_t j = 0; j < batch && i < total; ++j, ++i) {
          buf.push_back(static_cast<int>(i));
        }
        if (channel.PushBatch(std::move(buf)) == 0) break;
      }
    }
    channel.Close();
  });
  long long checksum = 0;
  size_t received = 0;
  if (batch <= 1) {
    while (std::optional<int> v = channel.Pop()) {
      checksum += *v;
      ++received;
    }
  } else {
    std::vector<int> buf;
    buf.reserve(batch);
    while (true) {
      buf.clear();
      if (channel.PopBatch(&buf, batch) == 0) break;
      for (int v : buf) checksum += v;
      received += buf.size();
    }
  }
  producer.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(checksum);
  if (received != total) {
    std::fprintf(stderr, "channel transfer lost records: %zu != %zu\n",
                 received, total);
    std::exit(1);
  }
  return static_cast<double>(total) / seconds;
}

// source -> map(x3) -> filter(even) -> sink, count records, capacity 256,
// under a BatchPolicy (optionally with the map+filter fused into one
// stage). Returns records/s.
double MeasurePipelinePolicy(const stream::BatchPolicy& policy, bool fuse,
                             int count) {
  constexpr size_t kCapacity = 256;
  stream::Pipeline pipeline;
  int next = 0;
  long long checksum = 0;
  auto source = stream::Flow<int>::FromGenerator(
      &pipeline,
      [&next, count]() -> std::optional<int> {
        if (next >= count) return std::nullopt;
        return next++;
      },
      {.name = "source", .capacity = kCapacity, .batch = policy});
  auto map_fn = [](const int& x) { return x * 3; };
  auto filter_fn = [](const int& x) { return (x & 1) == 0; };
  auto sink_fn = [&checksum](const int& x) { checksum += x; };
  if (fuse) {
    source.Fuse()
        .Map<int>(map_fn)
        .Filter(filter_fn)
        .Emit({.name = "fused_map_filter", .capacity = kCapacity})
        .Sink(sink_fn);
  } else {
    source.Map<int>(map_fn, {.name = "map_x3", .capacity = kCapacity})
        .Filter(filter_fn, {.name = "filter_even", .capacity = kCapacity})
        .Sink(sink_fn);
  }
  const auto t0 = std::chrono::steady_clock::now();
  pipeline.Run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(checksum);
  return static_cast<double>(count) / seconds;
}

// ==== Channel capacity sweep ====
//
// source -> map -> bursty sink: the sink stalls for `stall_us` every
// `stall_every` records, so the edge sees alternating saturation (during
// a stall the queue fills and the producer blocks) and drain phases. A
// deep queue rides the bursts out; a shallow one serializes the pipeline
// on every stall. Static capacities {64, 1024, 8192} show what the
// bound buys. Returns records/s.
double MeasureCapacityPipeline(size_t capacity, int count, int stall_every,
                               int stall_us) {
  stream::Pipeline pipeline;
  int next = 0;
  long long checksum = 0;
  int sunk = 0;
  stream::Flow<int>::FromGenerator(
      &pipeline,
      [&next, count]() -> std::optional<int> {
        if (next >= count) return std::nullopt;
        return next++;
      },
      {.name = "source",
       .capacity = capacity,
       .batch = stream::BatchPolicy::Batched(64, 1)})
      .Map<int>([](const int& x) { return x * 3; },
                {.name = "map_x3", .capacity = capacity})
      .Sink([&checksum, &sunk, stall_every, stall_us](const int& x) {
        checksum += x;
        if (++sunk % stall_every == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
        }
      });
  const auto t0 = std::chrono::steady_clock::now();
  pipeline.Run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(checksum);
  return static_cast<double>(count) / seconds;
}

// ==== Linger staging latency ====
//
// A trickling source (one record every `gap_us`) into a large-batch edge:
// batches never fill naturally, so staging latency is whatever the linger
// allows. Each element carries its creation time; the sink records the
// staging+transit delay, whose p99 tracks max_linger_ms (gated by
// tools/bench_check.py).
double MeasureStagingLatencyP99(const stream::BatchPolicy& policy, int count,
                                int gap_us) {
  using Clock = std::chrono::steady_clock;
  stream::Pipeline pipeline;
  int next = 0;
  std::vector<double> delays_ms;
  delays_ms.reserve(static_cast<size_t>(count));
  stream::Flow<Clock::time_point>::FromGenerator(
      &pipeline,
      [&next, count, gap_us]() -> std::optional<Clock::time_point> {
        if (next >= count) return std::nullopt;
        ++next;
        std::this_thread::sleep_for(std::chrono::microseconds(gap_us));
        return Clock::now();
      },
      {.name = "trickle_source", .capacity = 1024, .batch = policy})
      .Sink([&delays_ms](const Clock::time_point& born) {
        delays_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - born)
                .count());
      });
  pipeline.Run();
  if (delays_ms.empty()) return 0.0;
  std::sort(delays_ms.begin(), delays_ms.end());
  return delays_ms[(delays_ms.size() - 1) * 99 / 100];
}

// ==== Keyed-terminal fusion comparison (PR 10 acceptance rows) ====
//
// source -> expand(1:4, 48-byte records) -> keyed(64 keys, 4 workers).
// Two constructions of the same graph: `two_hop` Emit()s the fused
// prefix into its own channel and lets the keyed router pop the
// expanded stream back out (one extra cross-thread hop carrying 4x the
// records at 6x the width), `fused_keyed` terminates the chain in the
// keyed stage so the prefix runs inside the partition router and that
// hop never exists. The equivalence suite pins the outputs identical;
// the throughput ratio is the price of the eliminated hop. The keyed
// fold is accumulate-only (flush emits one record per key) so neither
// the workers nor the output edge mask the transport cost under test.

struct KeyedRec {
  uint64_t key = 0;
  double payload[5] = {0, 0, 0, 0, 0};
};

struct KeyedFusionResult {
  double records_per_s = 0.0;
  double skew_ratio = 0.0;  ///< the keyed stage's partition-edge skew
};

KeyedFusionResult MeasureKeyedFusion(bool fused, int count) {
  constexpr size_t kCapacity = 256;
  constexpr size_t kWorkers = 4;
  stream::Pipeline pipeline;
  int next = 0;
  auto source = stream::Flow<int>::FromGenerator(
      &pipeline,
      [&next, count]() -> std::optional<int> {
        if (next >= count) return std::nullopt;
        return next++;
      },
      {.name = "source",
       .capacity = kCapacity,
       .batch = stream::BatchPolicy::Batched(64, 1)});
  auto expand = [](const int& x) {
    std::vector<KeyedRec> out;
    out.reserve(4);
    for (int i = 0; i < 4; ++i) {
      KeyedRec r;
      r.key = static_cast<uint64_t>((x * 4 + i) & 63);
      r.payload[0] = static_cast<double>(x);
      out.push_back(r);
    }
    return out;
  };
  auto key_fn = [](const KeyedRec& r) { return r.key; };
  auto proc = [](const KeyedRec& r, double& sum,
                 const std::function<void(double)>&) { sum += r.payload[0]; };
  auto flush = [](uint64_t, double& sum,
                  const std::function<void(double)>& emit) { emit(sum); };
  double checksum = 0.0;
  auto sink = [&checksum](const double& v) { checksum += v; };
  stream::StageOptions keyed_opts;
  keyed_opts.name = "keyed";
  keyed_opts.capacity = kCapacity;
  if (fused) {
    source.Fuse()
        .FlatMap<KeyedRec>(expand)
        .KeyedProcessParallel<double, double>(key_fn, proc, kWorkers, flush,
                                              std::move(keyed_opts))
        .Sink(sink);
  } else {
    source.Fuse()
        .FlatMap<KeyedRec>(expand)
        .Emit({.name = "expand", .capacity = kCapacity})
        .KeyedProcessParallel<double, double>(key_fn, proc, kWorkers, flush,
                                              std::move(keyed_opts))
        .Sink(sink);
  }
  const auto t0 = std::chrono::steady_clock::now();
  pipeline.Run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(checksum);
  KeyedFusionResult result;
  result.records_per_s = static_cast<double>(count) / seconds;
  for (const stream::StageMetrics& m : pipeline.Report()) {
    if (m.stage == "keyed") result.skew_ratio = m.skew_ratio;
  }
  return result;
}

// Partition skew under a hot key: 80% of the stream lands on one key
// (one partition edge); the uniform arm spreads 1024 keys. The stage
// row's skew_ratio (hottest partition edge's records_in over the mean)
// must tell the two apart.
KeyedFusionResult MeasureKeyedSkew(bool skewed, int count) {
  constexpr size_t kWorkers = 4;
  stream::Pipeline pipeline;
  int next = 0;
  auto source = stream::Flow<int>::FromGenerator(
      &pipeline,
      [&next, count]() -> std::optional<int> {
        if (next >= count) return std::nullopt;
        return next++;
      },
      {.name = "source",
       .capacity = 256,
       .batch = stream::BatchPolicy::Batched(64, 1)});
  auto to_rec = [skewed](const int& x) {
    KeyedRec r;
    // Hot key 0 takes 80% of the skewed stream. The uniform arm spreads
    // 1024 keys, enough that the hash partitioner evens them out (16
    // keys over 4 partitions already leave one partition 1.5x the mean).
    r.key = skewed ? (x % 5 != 0 ? 0 : 1 + static_cast<uint64_t>(x) % 15)
                   : static_cast<uint64_t>(x) % 1024;
    r.payload[0] = static_cast<double>(x);
    return r;
  };
  auto key_fn = [](const KeyedRec& r) { return r.key; };
  auto proc = [](const KeyedRec& r, double& sum,
                 const std::function<void(double)>&) { sum += r.payload[0]; };
  auto flush = [](uint64_t, double& sum,
                  const std::function<void(double)>& emit) { emit(sum); };
  double checksum = 0.0;
  stream::StageOptions keyed_opts;
  keyed_opts.name = "keyed";
  keyed_opts.capacity = 256;
  source.Fuse()
      .Map<KeyedRec>(to_rec)
      .KeyedProcessParallel<double, double>(key_fn, proc, kWorkers, flush,
                                            std::move(keyed_opts))
      .Sink([&checksum](const double& v) { checksum += v; });
  const auto t0 = std::chrono::steady_clock::now();
  pipeline.Run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(checksum);
  KeyedFusionResult result;
  result.records_per_s = static_cast<double>(count) / seconds;
  for (const stream::StageMetrics& m : pipeline.Report()) {
    if (m.stage == "keyed") result.skew_ratio = m.skew_ratio;
  }
  return result;
}

void RunBatchedTransportComparison(bool smoke) {
  const size_t kTransferTotal = smoke ? 200000 : 2000000;
  const int kPipelineCount = smoke ? 100000 : 500000;
  const int kReps = smoke ? 1 : 3;  // keep the best rep: least scheduler noise

  std::vector<BenchRow> rows;
  std::printf(
      "\n=== batched channel transport: 1 producer -> 1 consumer, "
      "capacity 1024, %zu records ===\n",
      kTransferTotal);
  std::printf("%-28s %14s %10s\n", "row", "records/s", "vs batch1");
  double batch1 = 0.0;
  for (size_t batch : {size_t{1}, size_t{8}, size_t{64}, size_t{1024}}) {
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      best = std::max(best, MeasureChannelTransfer(batch, kTransferTotal));
    }
    if (batch == 1) batch1 = best;
    rows.push_back({"channel_transfer/batch" + std::to_string(batch),
                    kTransferTotal, best});
    std::printf("%-28s %14.0f %9.1fx\n", rows.back().name.c_str(), best,
                batch1 > 0 ? best / batch1 : 0.0);
  }

  std::printf(
      "\n=== pipeline source->map->filter->sink: %d records, capacity 256 "
      "===\n",
      kPipelineCount);
  std::printf("%-28s %14s\n", "row", "records/s");

  // A pipeline mode: name, batch policy, fuse flag.
  struct Mode {
    const char* name;
    stream::BatchPolicy policy;
    bool fuse = false;
  };
  const Mode kModes[] = {
      {"pipeline/record_at_a_time", stream::BatchPolicy::Single()},
      {"pipeline/batched16", stream::BatchPolicy::Batched(16)},
      {"pipeline/batched64", stream::BatchPolicy::Batched(64)},
      {"pipeline/batched256", stream::BatchPolicy::Batched(256)},
      {"pipeline/fused_batched64", stream::BatchPolicy::Batched(64), true},
  };
  for (const Mode& mode : kModes) {
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      best = std::max(best, MeasurePipelinePolicy(mode.policy, mode.fuse,
                                                  kPipelineCount));
    }
    BenchRow row;
    row.name = mode.name;
    row.records = static_cast<size_t>(kPipelineCount);
    row.records_per_s = best;
    rows.push_back(row);
    std::printf("%-28s %14.0f\n", mode.name, best);
  }

  // ---- channel capacity sweep: static {64, 1024, 8192} ----
  {
    const int count = smoke ? 100000 : 400000;
    const int stall_every = 4096;
    const int stall_us = 1500;  // ~1.5ms burst stall at the sink
    std::printf(
        "\n=== channel capacity: source->map->bursty sink, %d records, "
        "sink stalls %dus every %d ===\n",
        count, stall_us, stall_every);
    std::printf("%-28s %14s\n", "row", "records/s");
    for (const size_t capacity : {size_t{64}, size_t{1024}, size_t{8192}}) {
      double best = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        best = std::max(best, MeasureCapacityPipeline(capacity, count,
                                                      stall_every, stall_us));
      }
      BenchRow row;
      row.name = "pipeline_capacity/static" + std::to_string(capacity);
      row.records = static_cast<size_t>(count);
      row.records_per_s = best;
      rows.push_back(row);
      std::printf("%-28s %14.0f\n", row.name.c_str(), best);
    }
  }

  // ---- linger: staging-latency p99 under a trickle ----
  {
    // >= 2500 x 200us = 0.5 s: the run spans two full 200 ms lingers, so
    // linger200's p99 is a linger flush, not the end-of-stream flush.
    const int count = 2500;
    const int gap_us = 200;  // ~5k records/s: batches never fill
    std::printf(
        "\n=== linger: trickling source (1 rec/%dus), %d records, "
        "batch 4096 ===\n",
        gap_us, count);
    std::printf("%-28s %10s %10s\n", "row", "p99 ms", "linger");
    // The p99 tracks the linger bound: the 50ms row must stay near 50ms
    // and well under the 200ms row.
    for (const int64_t linger_ms : {int64_t{200}, int64_t{50}}) {
      double best = -1.0;
      for (int rep = 0; rep < kReps; ++rep) {
        const double p99 = MeasureStagingLatencyP99(
            stream::BatchPolicy::Batched(4096, linger_ms), count, gap_us);
        if (best < 0.0 || p99 < best) best = p99;
      }
      BenchRow row;
      row.name = "pipeline_latency/linger" + std::to_string(linger_ms);
      row.records = static_cast<size_t>(count);
      row.records_per_s = 0.0;  // latency row: rate is not the point
      row.p99_ms = best;
      row.linger_ms = linger_ms;
      rows.push_back(row);
      std::printf("%-28s %10.2f %8lldms\n", row.name.c_str(), best,
                  static_cast<long long>(linger_ms));
    }
  }

  // ---- keyed-terminal fusion: two-hop vs fused, uniform vs skewed ----
  {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int count = smoke ? 100000 : 500000;
    std::printf(
        "\n=== keyed-terminal fusion: source->expand(1:4)->keyed(4 workers), "
        "%d source records ===\n",
        count);
    std::printf("%-28s %14s %12s\n", "row", "records/s", "vs two_hop");
    double two_hop_rate = 0.0;
    for (const bool fused : {false, true}) {
      KeyedFusionResult best;
      for (int rep = 0; rep < kReps; ++rep) {
        KeyedFusionResult r = MeasureKeyedFusion(fused, count);
        if (r.records_per_s > best.records_per_s) best = r;
      }
      if (!fused) two_hop_rate = best.records_per_s;
      BenchRow row;
      row.name = fused ? "keyed_fusion/fused_keyed" : "keyed_fusion/two_hop";
      row.records = static_cast<size_t>(count);
      row.records_per_s = best.records_per_s;
      row.hw_threads = hw;
      rows.push_back(row);
      std::printf("%-28s %14.0f %11.2fx\n", row.name.c_str(),
                  best.records_per_s,
                  two_hop_rate > 0 ? best.records_per_s / two_hop_rate : 0.0);
    }

    const int skew_count = smoke ? 8000 : 20000;
    std::printf(
        "\n=== partition skew: keyed(4 workers), %d records, hot key "
        "80%% of the stream ===\n",
        skew_count);
    std::printf("%-28s %14s %6s\n", "row", "records/s", "skew");
    for (const bool skewed : {false, true}) {
      // Best of 3 reps in smoke and full runs alike: one rep is a few ms,
      // too short for its rate to clear the absolute floor reliably.
      KeyedFusionResult r;
      for (int rep = 0; rep < 3; ++rep) {
        KeyedFusionResult cur = MeasureKeyedSkew(skewed, skew_count);
        if (cur.records_per_s > r.records_per_s) r = cur;
      }
      BenchRow row;
      row.name = skewed ? "keyed_fusion/skewed" : "keyed_fusion/uniform";
      row.records = static_cast<size_t>(skew_count);
      row.records_per_s = r.records_per_s;
      row.hw_threads = hw;
      row.skew_ratio = r.skew_ratio;
      rows.push_back(row);
      std::printf("%-28s %14.0f %6.2f\n", row.name.c_str(), r.records_per_s,
                  r.skew_ratio);
    }
  }

  if (std::FILE* f = std::fopen("BENCH_micro.json", "w")) {
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"records\": %zu, "
                   "\"records_per_s\": %.0f",
                   rows[i].name.c_str(), rows[i].records,
                   rows[i].records_per_s);
      if (rows[i].p99_ms >= 0.0) {
        std::fprintf(f, ", \"p99_ms\": %.3f, \"linger_ms\": %lld",
                     rows[i].p99_ms,
                     static_cast<long long>(rows[i].linger_ms));
      }
      if (rows[i].hw_threads > 0) {
        std::fprintf(f, ", \"hw_threads\": %d", rows[i].hw_threads);
      }
      if (rows[i].skew_ratio >= 0.0) {
        std::fprintf(f, ", \"skew_ratio\": %.3f", rows[i].skew_ratio);
      }
      std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_micro.json\n");
  }
}

}  // namespace
}  // namespace tcmf

int main(int argc, char** argv) {
  // --smoke: skip the google-benchmark suite and run the batched
  // transport comparison on reduced record counts (CI bench-smoke job).
  // Stripped before benchmark::Initialize, which rejects unknown flags.
  bool smoke = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tcmf::RunBatchedTransportComparison(smoke);
  if (!smoke) tcmf::PrintPipelineStageReport();
  return 0;
}
