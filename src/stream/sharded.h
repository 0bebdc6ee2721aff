#ifndef TCMF_STREAM_SHARDED_H_
#define TCMF_STREAM_SHARDED_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/metrics.h"
#include "stream/pipeline.h"

namespace tcmf::stream {

/// Scale-out runner: N structurally identical Pipeline instances — one
/// per topic partition / key shard — behind a single facade. This is the
/// process-per-partition execution model of the paper's Kafka+Flink
/// substrate collapsed into one address space: records are routed to a
/// shard by key hash (tcmf::Mix64, the same mixer the partitioned-topic
/// producers use), each shard runs the full stage graph over its key
/// range, and because a key never crosses shards, per-key semantics
/// (stateful folds, windows, per-key order) are exactly those of the
/// single-pipeline run.
///
/// Usage:
///
///   ShardedPipeline sp(4, {.batch = BatchPolicy::Batched(256, 1)});
///   sp.Build([&](Pipeline* p, size_t shard) {
///     auto flow = mlog::PartitionedLogSource(p, topic, shard,
///                                            {.stage = sp.options()});
///     ... same per-shard graph, using sp.options() as the stage
///     defaults ...
///   });
///   sp.Run();
///   std::string merged = sp.ReportJson();
///
/// Builders give the same logical stage the same `name` in every shard;
/// the merged report aggregates rows by name (AggregateStageMetrics) and
/// keeps the per-shard breakdown alongside. Threads start as each
/// shard's graph is built (Pipeline semantics); Run() joins them all, so
/// shards execute concurrently.
class ShardedPipeline {
 public:
  /// `defaults` is the facade's StageOptions template: one place to
  /// configure batching and capacity for every stage of every shard
  /// (builders fetch it via options() and override per stage).
  explicit ShardedPipeline(size_t shards, StageOptions defaults = {})
      : defaults_(std::move(defaults)) {
    if (shards == 0) shards = 1;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Pipeline>());
    }
  }

  size_t shard_count() const { return shards_.size(); }

  /// Shard `i`'s pipeline (for ad-hoc inspection; graphs are normally
  /// built through Build).
  Pipeline* shard(size_t i) { return shards_[i].get(); }

  /// The facade's per-stage defaults. Copy, then override per stage.
  const StageOptions& options() const { return defaults_; }

  /// Instantiates the graph on every shard: `build(pipeline, shard)` runs
  /// once per shard, in shard order. Stage threads are live as soon as
  /// each operator is built.
  void Build(const std::function<void(Pipeline*, size_t)>& build) {
    for (size_t i = 0; i < shards_.size(); ++i) build(shards_[i].get(), i);
  }

  /// Joins every shard's stage threads; idempotent.
  void Run() {
    for (auto& p : shards_) p->Run();
  }

  /// Per-shard snapshots, shard-major (result[i] = shard i's Report()).
  std::vector<std::vector<StageMetrics>> PerShardReport() const {
    std::vector<std::vector<StageMetrics>> out;
    out.reserve(shards_.size());
    for (const auto& p : shards_) out.push_back(p->Report());
    return out;
  }

  /// Merged per-stage rows: same-named stages across shards aggregated
  /// with AggregateStageMetrics, in first-registration order.
  std::vector<StageMetrics> AggregateReport() const {
    std::vector<std::string> order;
    std::unordered_map<std::string, std::vector<StageMetrics>> by_name;
    for (const auto& p : shards_) {
      for (StageMetrics& m : p->Report()) {
        auto [it, inserted] = by_name.try_emplace(m.stage);
        if (inserted) order.push_back(m.stage);
        it->second.push_back(std::move(m));
      }
    }
    std::vector<StageMetrics> out;
    out.reserve(order.size());
    for (const std::string& name : order) {
      out.push_back(AggregateStageMetrics(name, by_name[name]));
    }
    return out;
  }

  /// Printable aggregate table (one merged row per logical stage).
  std::string ReportString() const {
    return StageMetricsTable(AggregateReport());
  }

  /// Longest shard uptime (see Pipeline::uptime_ms) — the facade's wall
  /// running time, since shards execute concurrently.
  int64_t uptime_ms() const {
    int64_t max_ms = 0;
    for (const auto& shard : shards_) {
      max_ms = std::max(max_ms, shard->uptime_ms());
    }
    return max_ms;
  }

  /// Merged report:
  ///   {"shards":N,"uptime_ms":..,
  ///    "aggregate":[<merged stage rows>],
  ///    "per_shard":[{"shard":0,"stages":[...]}, ...]}
  std::string ReportJson() const {
    std::string out = "{\"shards\":" + std::to_string(shards_.size());
    out += ",\"uptime_ms\":" + std::to_string(uptime_ms());
    out += ",\"aggregate\":";
    out += StageMetricsJson(AggregateReport());
    out += ",\"per_shard\":[";
    const auto per_shard = PerShardReport();
    for (size_t i = 0; i < per_shard.size(); ++i) {
      if (i) out += ',';
      out += "{\"shard\":" + std::to_string(i) + ",\"stages\":";
      out += StageMetricsJson(per_shard[i]);
      out += '}';
    }
    out += "]}";
    return out;
  }

 private:
  StageOptions defaults_;
  std::vector<std::unique_ptr<Pipeline>> shards_;
};

}  // namespace tcmf::stream

#endif  // TCMF_STREAM_SHARDED_H_
