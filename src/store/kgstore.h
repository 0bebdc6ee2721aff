#ifndef TCMF_STORE_KGSTORE_H_
#define TCMF_STORE_KGSTORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/position.h"
#include "common/status.h"
#include "geom/stcell.h"
#include "rdf/adjacency.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace tcmf::store {

/// Physical layout / plan selector for star queries (Section 4.2.5):
/// the paper's "one-triples-table", vertical partitioning and property
/// tables, each with or without the spatio-temporal dictionary-encoding
/// pushdown. Vertical partitioning and the adjacency-index plans read
/// one copy of the data — the per-predicate (subject, object)-sorted
/// postings of rdf::AdjacencyIndex — through two joins: binary-search
/// probes driven from the predicate with the fewest postings, or
/// galloping cursors driven from the one with the fewest distinct
/// subjects. With an st box, both pushdown variants run the same
/// st-cell pre-filter and per-slot probes; without one, each falls back
/// to its own join.
enum class StarPlan {
  kTriplesTableScan = 0,      ///< full scan + hash join + late st-filter
  kVerticalPartition,         ///< postings probed by binary search
  kVerticalPartitionPushdown, ///< integer st-cell pre-filter, then probes
  kPropertyTable,             ///< pre-joined wide rows + late st-filter
  kPropertyTablePushdown,     ///< property table + integer st pre-filter
  kAdjacencyIndex,            ///< stats-ordered galloping intersection
  kAdjacencyIndexPushdown,    ///< st-cell pre-filter + postings probes
};

const char* StarPlanName(StarPlan plan);

/// A star query: all listed predicates must be present on the subject,
/// optionally constrained to a spatio-temporal box.
struct StarQuery {
  std::vector<uint64_t> predicate_ids;
  bool has_st_constraint = false;
  geom::StCellEncoder::StBox st_box;
};

/// One result row of a star query: the subject plus the object bound per
/// queried predicate (first match = smallest object id for the indexed
/// plans; plans agree whenever subjects carry one object per predicate).
struct StarRow {
  uint64_t subject = 0;
  std::vector<uint64_t> objects;  ///< parallel to StarQuery::predicate_ids
};

/// Per-query evaluation counters, filled by RunStar.
struct StarQueryMetrics {
  size_t triples_scanned = 0;
  size_t candidate_subjects = 0;
  size_t st_filter_evaluations = 0;  ///< exact (string/geometry) st checks
  size_t rows = 0;
  double wall_ms = 0.0;
};

/// Cumulative, thread-safe store counters: every Add and every RunStar
/// accumulates here regardless of which caller held the metrics pointer.
/// This is what stage helpers (store::KgStoreSink) splice into
/// stream::StageMetrics so Pipeline::ReportJson surfaces the store's
/// work (the kg_* fields) — per-query StarQueryMetrics alone are
/// invisible once the store is driven from a pipeline stage.
struct StoreCounters {
  uint64_t triples_added = 0;
  uint64_t star_queries = 0;
  uint64_t star_rows = 0;
  uint64_t triples_scanned = 0;
  uint64_t st_filter_evaluations = 0;
};

/// Batch knowledge-graph store: dictionary-encoded triples, partitioned,
/// with per-layout star-join evaluation and spatio-temporal pruning via
/// the StCellEncoder integer ids. Partition-parallel scans use a thread
/// per partition group (the local stand-in for Spark executors).
///
/// Lifecycle contract: ingest (Add/AddPositionNode/LoadTriples), then
/// Compile(), then query (RunStar). Compile builds the adjacency index,
/// the one sorted copy of the triples every indexed plan reads; adding
/// afterwards requires re-Compile.
///
/// Thread-safety: ingestion and Compile are single-writer. After
/// Compile returns, any number of threads may call RunStar /
/// LookupPosition / CountersSnapshot concurrently (the layouts are
/// immutable between compiles; cumulative counters are atomics).
class KnowledgeStore {
 public:
  /// `encoder` defines the spatio-temporal discretization; `partitions`
  /// the number of storage partitions.
  KnowledgeStore(const geom::StCellEncoder& encoder, size_t partitions = 8);

  rdf::Dictionary& dictionary() { return dict_; }
  const rdf::Dictionary& dictionary() const { return dict_; }

  /// Adds a triple. Triples whose predicate is vocab::kHasStCell with an
  /// integer-literal object also feed the subject -> st-cell side index
  /// (the paper's dictionary-encoding of approximate positions), so
  /// streamed ingestion through a template that emits hasStCell keeps
  /// the pushdown plans usable.
  void Add(const rdf::Triple& triple);

  /// Registers the exact position of a subject for final st filtering
  /// (the store keeps it alongside the WKT literal, as decoding WKT at
  /// query time is exactly the "post-processing cost" being measured).
  /// Also assigns the subject's st-cell id.
  void AddPositionNode(const rdf::Term& subject, double lon, double lat,
                       TimeMs t);

  /// Freezes ingestion: builds the adjacency index (per-predicate
  /// (subject, object)-sorted postings + cardinality stats) that the
  /// vertical-partitioning, adjacency-index and property-table plans
  /// read, and drops any property tables. Must be called before RunStar.
  void Compile();

  /// Materializes a property table over `predicate_ids` (one wide row per
  /// subject holding the first object per predicate). Property-table
  /// plans serve any star query whose predicates are a subset of a built
  /// table's columns. Requires Compile() first.
  void BuildPropertyTable(const std::vector<uint64_t>& predicate_ids);

  /// Evaluates a star query under the chosen plan. Safe for concurrent
  /// callers after Compile(). All plans return the same row set for the
  /// same query (the differential invariant the test suite and the
  /// bench gates enforce).
  std::vector<StarRow> RunStar(const StarQuery& query, StarPlan plan,
                               StarQueryMetrics* metrics) const;

  /// Persists/loads the triples table as columnar partition files under
  /// `dir` (partition-%04zu.col). Dictionary is not persisted (ids only).
  Status SaveTriples(const std::string& dir) const;
  Result<size_t> LoadTriples(const std::string& dir);

  size_t size() const { return total_triples_; }
  size_t partitions() const { return partitions_.size(); }
  const geom::StCellEncoder& encoder() const { return encoder_; }

  /// Snapshot of the cumulative counters (thread-safe; see
  /// StoreCounters).
  StoreCounters CountersSnapshot() const;

  /// Exact spatio-temporal point of a subject (for verification); false
  /// when the subject has no registered position.
  bool LookupPosition(uint64_t subject, double* lon, double* lat,
                      TimeMs* t) const;

 private:
  bool ExactStMatch(uint64_t subject,
                    const geom::StCellEncoder::StBox& box) const;

  geom::StCellEncoder encoder_;
  rdf::Dictionary dict_;
  std::vector<std::vector<rdf::EncodedTriple>> partitions_;
  size_t total_triples_ = 0;
  size_t next_partition_ = 0;
  /// Interned at construction: the vocabulary ids the ingest fast path
  /// and ExactStMatch compare against (no per-call Lookup).
  uint64_t stcell_pid_ = 0;
  uint64_t wkt_pid_ = 0;
  uint64_t ts_pid_ = 0;

  /// Adjacency index over all partitions (built by Compile): the
  /// per-predicate postings the indexed star plans join over.
  rdf::AdjacencyIndex adjacency_;
  /// Property tables: columns (predicate ids) + rows sorted by subject.
  struct PropertyTable {
    std::vector<uint64_t> columns;
    std::vector<uint64_t> subjects;        ///< sorted
    std::vector<std::vector<uint64_t>> rows;  ///< parallel to subjects
  };
  std::vector<PropertyTable> property_tables_;
  const PropertyTable* FindPropertyTable(
      const std::vector<uint64_t>& predicate_ids) const;
  /// subject -> st cell id (integer approximation of position+time).
  std::unordered_map<uint64_t, uint64_t> subject_stcell_;
  struct ExactPos {
    double lon, lat;
    TimeMs t;
  };
  std::unordered_map<uint64_t, ExactPos> subject_pos_;
  bool compiled_ = false;

  // Cumulative counters (StoreCounters). Mutable + relaxed atomics: the
  // const query path accumulates them and concurrent RunStar callers
  // must not race.
  mutable std::atomic<uint64_t> cum_added_{0};
  mutable std::atomic<uint64_t> cum_queries_{0};
  mutable std::atomic<uint64_t> cum_rows_{0};
  mutable std::atomic<uint64_t> cum_scanned_{0};
  mutable std::atomic<uint64_t> cum_st_filters_{0};
};

}  // namespace tcmf::store

#endif  // TCMF_STORE_KGSTORE_H_
