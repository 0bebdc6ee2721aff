#ifndef TCMF_STREAM_METRICS_H_
#define TCMF_STREAM_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace tcmf::stream {

/// Minimal JSON string escape (quotes, backslashes, control bytes) for
/// the error messages embedded in StageMetrics::ToJson().
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Per-stage runtime counters, collected by each Channel (one channel is
/// the output edge of one stage) and aggregated by Pipeline::Report().
/// The blocked-time counters are the backpressure signal: producer time
/// means the stage downstream of this edge is the bottleneck, consumer
/// time means the stage upstream is.
struct StageMetrics {
  std::string stage;                   ///< stage name (set by the pipeline)
  uint64_t records_in = 0;             ///< elements accepted by Push
  uint64_t records_out = 0;            ///< elements handed out by Pop
  uint64_t batches_in = 0;             ///< push transfers (Push counts as 1)
  uint64_t batches_out = 0;            ///< pop transfers (Pop counts as 1)
  uint64_t queue_high_watermark = 0;   ///< max queue depth ever observed
  uint64_t capacity = 0;               ///< queue-depth bound
  uint64_t producer_blocked_ns = 0;    ///< total ns Push spent waiting (full)
  uint64_t consumer_blocked_ns = 0;    ///< total ns Pop spent waiting (empty)
  uint64_t push_rejected = 0;          ///< pushes refused (closed/cancelled)
  uint64_t dropped_on_cancel = 0;      ///< queued elements discarded by cancel
  uint64_t late_dropped = 0;           ///< too-late elements (windowed stages)
  bool cancelled = false;              ///< consumer cancelled this edge
  /// First error the stage hit ("" = healthy). Durable stages (mlog
  /// LogSink/LogSource) record append/seek failures here so a failed
  /// final flush or a corrupt replay position is visible in
  /// Report()/ReportJson() instead of being silent data loss.
  std::string error;
  // Durable-stage counters (mlog LogSink/LogSource; 0 for in-memory
  // edges). Reported in ToJson(); the fixed-width table keeps its
  // original columns.
  uint64_t bytes = 0;            ///< bytes durably written by the stage
  uint64_t io_syncs = 0;         ///< fsync/fdatasync calls issued
  uint64_t recovered = 0;        ///< entries recovered by tail-scan on open
  uint64_t truncated_bytes = 0;  ///< torn-tail bytes truncated on open
  // Knowledge-store counters (store::KgStoreSink stages; `kg` stays
  // false for every other edge and the fields are omitted from ToJson).
  // This is how StarQueryMetrics-level work becomes visible through
  // Pipeline::ReportJson when the store is driven from a stage — the
  // same flag-gated splice the durable mlog fields use.
  bool kg = false;                     ///< stage fronts a KnowledgeStore
  uint64_t kg_triples_added = 0;       ///< cumulative KnowledgeStore::Add
  uint64_t kg_star_queries = 0;        ///< cumulative RunStar invocations
  uint64_t kg_star_rows = 0;           ///< total star-join result rows
  uint64_t kg_triples_scanned = 0;     ///< postings/rows visited by RunStar
  uint64_t kg_st_filter_evaluations = 0;  ///< exact st-filter checks
  // Partition-edge breakdown (keyed-parallel stages only; empty for every
  // other edge). One nested snapshot per router→worker partition edge,
  // rendered by ToJson() as a "worker_edges" array plus the "skew_ratio"
  // summary.
  std::vector<StageMetrics> worker_edges;
  /// Hottest partition edge's records_in over the mean across edges
  /// (WorkerEdgeSkewRatio): 1.0 ⇒ uniform fan-out, 0 ⇒ no edges/records.
  double skew_ratio = 0.0;

  /// Mean elements moved per push/pop transfer — the amortization factor
  /// the batched transport buys on this edge (1.0 ⇒ record-at-a-time).
  double MeanBatchIn() const {
    return batches_in ? static_cast<double>(records_in) / batches_in : 0.0;
  }
  double MeanBatchOut() const {
    return batches_out ? static_cast<double>(records_out) / batches_out : 0.0;
  }

  /// Header line matching ToString()'s columns.
  static std::string TableHeader() {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%-24s %12s %12s %8s %12s %12s %8s %8s %6s %5s", "stage",
                  "in", "out", "q-hwm", "prod-blk-ms", "cons-blk-ms", "rej",
                  "drop", "late", "canc");
    return buf;
  }

  /// One fixed-width line per stage (pairs with TableHeader()).
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-24s %12llu %12llu %8llu %12.3f %12.3f %8llu %8llu %6llu "
                  "%5s",
                  stage.c_str(),
                  static_cast<unsigned long long>(records_in),
                  static_cast<unsigned long long>(records_out),
                  static_cast<unsigned long long>(queue_high_watermark),
                  producer_blocked_ns / 1e6, consumer_blocked_ns / 1e6,
                  static_cast<unsigned long long>(push_rejected),
                  static_cast<unsigned long long>(dropped_on_cancel),
                  static_cast<unsigned long long>(late_dropped),
                  cancelled ? "yes" : "no");
    return buf;
  }

  /// Single JSON object (no trailing newline): the core counters, then
  /// the flag-gated `kg_*` block, the error and the keyed stages'
  /// `skew_ratio`/`worker_edges` (bench_micro JSON rows, perfbench's
  /// traced stage reports).
  std::string ToJson() const {
    char buf[2048];
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"stage\":\"%s\",\"records_in\":%llu,\"records_out\":%llu,"
        "\"batches_in\":%llu,\"batches_out\":%llu,"
        "\"mean_batch_in\":%.2f,\"mean_batch_out\":%.2f,"
        "\"queue_high_watermark\":%llu,\"capacity\":%llu,"
        "\"producer_blocked_ns\":%llu,"
        "\"consumer_blocked_ns\":%llu,\"push_rejected\":%llu,"
        "\"dropped_on_cancel\":%llu,\"late_dropped\":%llu,"
        "\"cancelled\":%s,\"bytes\":%llu,\"io_syncs\":%llu,"
        "\"recovered\":%llu,\"truncated_bytes\":%llu",
        stage.c_str(), static_cast<unsigned long long>(records_in),
        static_cast<unsigned long long>(records_out),
        static_cast<unsigned long long>(batches_in),
        static_cast<unsigned long long>(batches_out),
        MeanBatchIn(), MeanBatchOut(),
        static_cast<unsigned long long>(queue_high_watermark),
        static_cast<unsigned long long>(capacity),
        static_cast<unsigned long long>(producer_blocked_ns),
        static_cast<unsigned long long>(consumer_blocked_ns),
        static_cast<unsigned long long>(push_rejected),
        static_cast<unsigned long long>(dropped_on_cancel),
        static_cast<unsigned long long>(late_dropped),
        cancelled ? "true" : "false",
        static_cast<unsigned long long>(bytes),
        static_cast<unsigned long long>(io_syncs),
        static_cast<unsigned long long>(recovered),
        static_cast<unsigned long long>(truncated_bytes));
    if (kg && n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
      n += std::snprintf(
          buf + n, sizeof(buf) - n,
          ",\"kg\":true,\"kg_triples_added\":%llu,"
          "\"kg_star_queries\":%llu,\"kg_star_rows\":%llu,"
          "\"kg_triples_scanned\":%llu,\"kg_st_filter_evaluations\":%llu",
          static_cast<unsigned long long>(kg_triples_added),
          static_cast<unsigned long long>(kg_star_queries),
          static_cast<unsigned long long>(kg_star_rows),
          static_cast<unsigned long long>(kg_triples_scanned),
          static_cast<unsigned long long>(kg_st_filter_evaluations));
    }
    if (!error.empty() && n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
      n += std::snprintf(buf + n, sizeof(buf) - n, ",\"error\":\"%s\"",
                         JsonEscape(error).c_str());
    }
    std::string out(buf,
                    n > 0 ? std::min(static_cast<size_t>(n), sizeof(buf) - 1)
                          : 0);
    if (!worker_edges.empty()) {
      char tail[48];
      std::snprintf(tail, sizeof(tail), ",\"skew_ratio\":%.2f", skew_ratio);
      out += tail;
      out += ",\"worker_edges\":[";
      for (size_t i = 0; i < worker_edges.size(); ++i) {
        if (i) out += ',';
        out += worker_edges[i].ToJson();
      }
      out += ']';
    }
    out += '}';
    return out;
  }
};

/// Hottest-edge load factor over a keyed stage's partition edges:
/// max(records_in) / mean(records_in). 1.0 ⇒ perfectly uniform fan-out,
/// K ⇒ the hottest worker saw K× the average load; 0 when there are no
/// edges or no records yet.
inline double WorkerEdgeSkewRatio(const std::vector<StageMetrics>& edges) {
  if (edges.empty()) return 0.0;
  uint64_t total = 0;
  uint64_t hottest = 0;
  for (const StageMetrics& e : edges) {
    total += e.records_in;
    hottest = std::max(hottest, e.records_in);
  }
  if (total == 0) return 0.0;
  const double mean = static_cast<double>(total) / edges.size();
  return static_cast<double>(hottest) / mean;
}

/// Thread-safe first-error-wins holder shared between a stage thread and
/// the metrics snapshot lambda registered with Pipeline::RegisterStage.
/// Durable stages (mlog LogSink/LogSource) Set() on append/seek failure
/// and splice Get() into their StageMetrics snapshots, making the error
/// sticky and observable in Report()/ReportJson().
class StickyStageError {
 public:
  /// Records `msg` if no error is held yet (the first failure is the
  /// root cause; later ones are usually fallout).
  void Set(const std::string& msg) {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_.empty() && !msg.empty()) error_ = msg;
  }

  /// The held error, "" when healthy.
  std::string Get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

  bool ok() const { return Get().empty(); }

 private:
  mutable std::mutex mu_;
  std::string error_;
};

/// Merges per-shard snapshots of the *same logical stage* into one
/// aggregate row (ShardedPipeline's merged report): counters sum, queue
/// high-watermarks take the max (a per-queue bound, not additive),
/// capacities sum (total buffering across shards), `cancelled` ORs, and
/// the first non-empty error wins. Keyed stages' nested worker_edges
/// merge positionally — shard s's partition w and shard t's partition w
/// are the same logical edge (same Mix64 key range), so edge w of the
/// aggregate sums edge w of every shard and the skew ratio is recomputed
/// over the merged edges.
inline StageMetrics AggregateStageMetrics(
    const std::string& stage_name, const std::vector<StageMetrics>& shards) {
  StageMetrics agg;
  agg.stage = stage_name;
  for (const StageMetrics& m : shards) {
    agg.records_in += m.records_in;
    agg.records_out += m.records_out;
    agg.batches_in += m.batches_in;
    agg.batches_out += m.batches_out;
    agg.queue_high_watermark =
        std::max(agg.queue_high_watermark, m.queue_high_watermark);
    agg.capacity += m.capacity;
    agg.producer_blocked_ns += m.producer_blocked_ns;
    agg.consumer_blocked_ns += m.consumer_blocked_ns;
    agg.push_rejected += m.push_rejected;
    agg.dropped_on_cancel += m.dropped_on_cancel;
    agg.late_dropped += m.late_dropped;
    agg.cancelled = agg.cancelled || m.cancelled;
    if (agg.error.empty()) agg.error = m.error;
    agg.bytes += m.bytes;
    agg.io_syncs += m.io_syncs;
    agg.recovered += m.recovered;
    agg.truncated_bytes += m.truncated_bytes;
    agg.kg = agg.kg || m.kg;
    agg.kg_triples_added += m.kg_triples_added;
    agg.kg_star_queries += m.kg_star_queries;
    agg.kg_star_rows += m.kg_star_rows;
    agg.kg_triples_scanned += m.kg_triples_scanned;
    agg.kg_st_filter_evaluations += m.kg_st_filter_evaluations;
  }
  size_t max_edges = 0;
  for (const StageMetrics& m : shards) {
    max_edges = std::max(max_edges, m.worker_edges.size());
  }
  for (size_t w = 0; w < max_edges; ++w) {
    std::vector<StageMetrics> edge_shards;
    std::string edge_name;
    for (const StageMetrics& m : shards) {
      if (w >= m.worker_edges.size()) continue;
      if (edge_name.empty()) edge_name = m.worker_edges[w].stage;
      edge_shards.push_back(m.worker_edges[w]);
    }
    agg.worker_edges.push_back(AggregateStageMetrics(edge_name, edge_shards));
  }
  agg.skew_ratio = WorkerEdgeSkewRatio(agg.worker_edges);
  return agg;
}

/// Formats a set of stage snapshots as a printable table.
inline std::string StageMetricsTable(const std::vector<StageMetrics>& stages) {
  std::string out = StageMetrics::TableHeader();
  out += '\n';
  for (const StageMetrics& m : stages) {
    out += m.ToString();
    out += '\n';
  }
  return out;
}

/// Formats a set of stage snapshots as a JSON array.
inline std::string StageMetricsJson(const std::vector<StageMetrics>& stages) {
  std::string out = "[";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i) out += ',';
    out += stages[i].ToJson();
  }
  out += ']';
  return out;
}

}  // namespace tcmf::stream

#endif  // TCMF_STREAM_METRICS_H_
