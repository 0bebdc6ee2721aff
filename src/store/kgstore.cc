#include "store/kgstore.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <thread>

#include "common/strings.h"
#include "geom/geometry.h"
#include "rdf/vocab.h"
#include "store/columnar.h"

namespace tcmf::store {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

bool KeyLess(const rdf::Posting& p, uint64_t key) { return p.key < key; }

// The first (smallest) object of subject `s` in a (subject, object)-sorted
// postings span, or 0 when `s` has none (dictionary ids start at 1).
uint64_t FirstObject(rdf::AdjacencyIndex::Span span, uint64_t s) {
  const rdf::Posting* pos =
      std::lower_bound(span.first, span.second, s, KeyLess);
  return pos != span.second && pos->key == s ? pos->value : 0;
}

// Advances `cur` within [cur, end) to the first posting with key >= s by
// exponential (galloping) search: cheap when the next match is near —
// the common case when both lists are subject-sorted — and O(log gap)
// when it is far.
const rdf::Posting* Gallop(const rdf::Posting* cur, const rdf::Posting* end,
                           uint64_t s) {
  if (cur == end || cur->key >= s) return cur;
  size_t step = 1;
  const rdf::Posting* probe = cur;
  while (probe + step < end && (probe + step)->key < s) {
    probe += step;
    step *= 2;
  }
  const rdf::Posting* hi = (probe + step < end) ? probe + step : end;
  return std::lower_bound(probe, hi, s, KeyLess);
}

}  // namespace

const char* StarPlanName(StarPlan plan) {
  switch (plan) {
    case StarPlan::kTriplesTableScan:
      return "triples-table-scan";
    case StarPlan::kVerticalPartition:
      return "vertical-partitioning";
    case StarPlan::kVerticalPartitionPushdown:
      return "vertical-partitioning+st-pushdown";
    case StarPlan::kPropertyTable:
      return "property-table";
    case StarPlan::kPropertyTablePushdown:
      return "property-table+st-pushdown";
    case StarPlan::kAdjacencyIndex:
      return "adjacency-index";
    case StarPlan::kAdjacencyIndexPushdown:
      return "adjacency-index+st-pushdown";
  }
  return "unknown";
}

KnowledgeStore::KnowledgeStore(const geom::StCellEncoder& encoder,
                               size_t partitions)
    : encoder_(encoder), partitions_(partitions == 0 ? 1 : partitions) {
  // Intern the vocabulary the ingest fast path and the exact st-filter
  // compare against, so neither ever pays a per-call string lookup.
  stcell_pid_ = dict_.Encode(rdf::Iri(rdf::vocab::kHasStCell));
  wkt_pid_ = dict_.Encode(rdf::Iri(rdf::vocab::kAsWKT));
  ts_pid_ = dict_.Encode(rdf::Iri(rdf::vocab::kHasTimestamp));
}

void KnowledgeStore::Add(const rdf::Triple& triple) {
  rdf::EncodedTriple enc = dict_.Encode(triple);
  partitions_[next_partition_].push_back(enc);
  next_partition_ = (next_partition_ + 1) % partitions_.size();
  ++total_triples_;
  cum_added_.fetch_add(1, std::memory_order_relaxed);
  // hasStCell integer literals feed the subject -> st-cell side index so
  // streamed template ingestion keeps the pushdown plans usable.
  if (enc.p == stcell_pid_ && triple.o.kind == rdf::Term::Kind::kLiteral) {
    if (Result<long long> cell = ParseInt(triple.o.lexical); cell.ok()) {
      subject_stcell_[enc.s] = static_cast<uint64_t>(cell.value());
    }
  }
  compiled_ = false;
}

void KnowledgeStore::AddPositionNode(const rdf::Term& subject, double lon,
                                     double lat, TimeMs t) {
  uint64_t cell = encoder_.Encode(lon, lat, t);
  Add(rdf::Triple{subject, rdf::Iri(rdf::vocab::kHasStCell),
                  rdf::IntLiteral(static_cast<int64_t>(cell))});
  Add(rdf::Triple{subject, rdf::Iri(rdf::vocab::kAsWKT),
                  rdf::TypedLiteral(StrFormat("POINT (%.6f %.6f)", lon, lat),
                                    rdf::vocab::kWktLiteral)});
  Add(rdf::Triple{subject, rdf::Iri(rdf::vocab::kHasTimestamp),
                  rdf::IntLiteral(t)});
  uint64_t sid = dict_.Encode(subject);
  subject_stcell_[sid] = cell;
  subject_pos_[sid] = {lon, lat, t};
}

void KnowledgeStore::Compile() {
  std::vector<rdf::EncodedTriple> all;
  all.reserve(total_triples_);
  for (const auto& partition : partitions_) {
    all.insert(all.end(), partition.begin(), partition.end());
  }
  adjacency_.Build(all);
  compiled_ = true;
  property_tables_.clear();
}

void KnowledgeStore::BuildPropertyTable(
    const std::vector<uint64_t>& predicate_ids) {
  if (!compiled_) Compile();
  PropertyTable table;
  table.columns = predicate_ids;
  // Subjects = those appearing in every requested column (complete rows
  // only: the property table materializes the star join).
  std::unordered_map<uint64_t, std::vector<uint64_t>> rows;
  for (size_t col = 0; col < predicate_ids.size(); ++col) {
    auto [first, last] = adjacency_.Subjects(predicate_ids[col]);
    if (first == last) {
      property_tables_.push_back(std::move(table));
      return;  // empty table: one column has no triples
    }
    for (const rdf::Posting* so = first; so != last; ++so) {
      auto [rit, inserted] = rows.try_emplace(
          so->key, std::vector<uint64_t>(predicate_ids.size(), 0));
      if (rit->second[col] == 0) rit->second[col] = so->value;
    }
  }
  for (auto& [s, row] : rows) {
    bool complete = true;
    for (uint64_t o : row) complete = complete && o != 0;
    if (!complete) continue;
    table.subjects.push_back(s);
  }
  std::sort(table.subjects.begin(), table.subjects.end());
  table.rows.reserve(table.subjects.size());
  for (uint64_t s : table.subjects) table.rows.push_back(rows[s]);
  property_tables_.push_back(std::move(table));
}

const KnowledgeStore::PropertyTable* KnowledgeStore::FindPropertyTable(
    const std::vector<uint64_t>& predicate_ids) const {
  for (const PropertyTable& table : property_tables_) {
    bool all = true;
    for (uint64_t pid : predicate_ids) {
      if (std::find(table.columns.begin(), table.columns.end(), pid) ==
          table.columns.end()) {
        all = false;
        break;
      }
    }
    if (all) return &table;
  }
  return nullptr;
}

bool KnowledgeStore::ExactStMatch(
    uint64_t subject, const geom::StCellEncoder::StBox& box) const {
  // Deliberately pays the realistic post-processing cost: fetch the WKT
  // and timestamp literals of the subject and parse them, exactly what a
  // layout without pushdown has to do for every candidate.
  const uint64_t wkt = FirstObject(adjacency_.Subjects(wkt_pid_), subject);
  const uint64_t ts = FirstObject(adjacency_.Subjects(ts_pid_), subject);
  if (wkt == 0 || ts == 0) return false;

  std::optional<rdf::Term> wkt_term = dict_.Decode(wkt);
  std::optional<rdf::Term> ts_term = dict_.Decode(ts);
  if (!wkt_term || !ts_term) return false;
  Result<geom::LonLat> point = geom::ParseWktPoint(wkt_term->lexical);
  Result<long long> t = ParseInt(ts_term->lexical);
  if (!point.ok() || !t.ok()) return false;
  return box.bounds.Contains(point.value().lon, point.value().lat) &&
         t.value() >= box.t_begin && t.value() <= box.t_end;
}

StoreCounters KnowledgeStore::CountersSnapshot() const {
  StoreCounters c;
  c.triples_added = cum_added_.load(std::memory_order_relaxed);
  c.star_queries = cum_queries_.load(std::memory_order_relaxed);
  c.star_rows = cum_rows_.load(std::memory_order_relaxed);
  c.triples_scanned = cum_scanned_.load(std::memory_order_relaxed);
  c.st_filter_evaluations = cum_st_filters_.load(std::memory_order_relaxed);
  return c;
}

std::vector<StarRow> KnowledgeStore::RunStar(const StarQuery& query,
                                             StarPlan plan,
                                             StarQueryMetrics* metrics) const {
  StarQueryMetrics local;
  Clock::time_point start = Clock::now();
  std::vector<StarRow> rows;
  const size_t k = query.predicate_ids.size();

  auto finish = [&](std::vector<StarRow> result) {
    local.rows = result.size();
    local.wall_ms = ElapsedMs(start);
    cum_queries_.fetch_add(1, std::memory_order_relaxed);
    cum_rows_.fetch_add(local.rows, std::memory_order_relaxed);
    cum_scanned_.fetch_add(local.triples_scanned, std::memory_order_relaxed);
    cum_st_filters_.fetch_add(local.st_filter_evaluations,
                              std::memory_order_relaxed);
    if (metrics != nullptr) *metrics = local;
    return result;
  };
  // Keeps a complete row, after the late exact st-filter when the query
  // has a box (every plan, pushdown or not, ends here).
  auto emit = [&](StarRow row) {
    ++local.candidate_subjects;
    if (query.has_st_constraint) {
      ++local.st_filter_evaluations;
      if (!ExactStMatch(row.subject, query.st_box)) return;
    }
    rows.push_back(std::move(row));
  };

  if (k == 0) return finish({});

  if (plan == StarPlan::kTriplesTableScan) {
    // Full scan of every partition, hash-joining subject -> slot values.
    // Partition groups are scanned by parallel workers.
    size_t workers = std::min<size_t>(
        partitions_.size(),
        std::max<unsigned>(1, std::thread::hardware_concurrency()));
    std::vector<std::unordered_map<uint64_t, std::vector<uint64_t>>> maps(
        workers);
    std::vector<size_t> scanned(workers, 0);
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (size_t pi = w; pi < partitions_.size(); pi += workers) {
          for (const rdf::EncodedTriple& t : partitions_[pi]) {
            ++scanned[w];
            for (size_t slot = 0; slot < k; ++slot) {
              if (t.p == query.predicate_ids[slot]) {
                auto [it, inserted] = maps[w].try_emplace(
                    t.s, std::vector<uint64_t>(k, 0));
                if (it->second[slot] == 0) it->second[slot] = t.o;
              }
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    std::unordered_map<uint64_t, std::vector<uint64_t>> merged;
    for (size_t w = 0; w < workers; ++w) {
      local.triples_scanned += scanned[w];
      for (auto& [s, slots] : maps[w]) {
        auto [it, inserted] = merged.try_emplace(s, slots);
        if (!inserted) {
          for (size_t slot = 0; slot < k; ++slot) {
            if (it->second[slot] == 0) it->second[slot] = slots[slot];
          }
        }
      }
    }
    for (auto& [s, slots] : merged) {
      bool complete = std::all_of(slots.begin(), slots.end(),
                                  [](uint64_t o) { return o != 0; });
      if (complete) emit({s, std::move(slots)});
    }
    return finish(std::move(rows));
  }

  // The remaining layouts require Compile().
  if (!compiled_) return finish({});

  if (plan == StarPlan::kPropertyTable ||
      plan == StarPlan::kPropertyTablePushdown) {
    const PropertyTable* table = FindPropertyTable(query.predicate_ids);
    if (table == nullptr) return finish({});
    // Map query slots to table columns.
    std::vector<size_t> col_of(k);
    for (size_t i = 0; i < k; ++i) {
      col_of[i] = static_cast<size_t>(
          std::find(table->columns.begin(), table->columns.end(),
                    query.predicate_ids[i]) -
          table->columns.begin());
    }
    bool pushdown = plan == StarPlan::kPropertyTablePushdown &&
                    query.has_st_constraint;
    for (size_t i = 0; i < table->subjects.size(); ++i) {
      uint64_t s = table->subjects[i];
      ++local.triples_scanned;  // one wide-row visit
      if (pushdown) {
        auto it = subject_stcell_.find(s);
        if (it == subject_stcell_.end() ||
            !encoder_.MayIntersect(it->second, query.st_box)) {
          continue;
        }
      }
      StarRow row;
      row.subject = s;
      row.objects.reserve(k);
      for (size_t slot = 0; slot < k; ++slot) {
        row.objects.push_back(table->rows[i][col_of[slot]]);
      }
      emit(std::move(row));
    }
    return finish(std::move(rows));
  }

  // The vertical-partitioning and adjacency-index plans read the same
  // per-predicate (subject, object)-sorted postings; they differ only in
  // the join that walks them.
  std::vector<rdf::AdjacencyIndex::Span> spans(k);
  for (size_t i = 0; i < k; ++i) {
    spans[i] = adjacency_.Subjects(query.predicate_ids[i]);
    if (spans[i].first == spans[i].second) return finish({});
  }

  if ((plan == StarPlan::kVerticalPartitionPushdown ||
       plan == StarPlan::kAdjacencyIndexPushdown) &&
      query.has_st_constraint) {
    // Integer st-cell pre-filter, then one postings probe per slot.
    for (const auto& [s, cell] : subject_stcell_) {
      ++local.triples_scanned;  // side-index probe (integer compare)
      if (!encoder_.MayIntersect(cell, query.st_box)) continue;
      StarRow row{s, std::vector<uint64_t>(k, 0)};
      bool complete = true;
      for (size_t i = 0; i < k && complete; ++i) {
        ++local.triples_scanned;  // one indexed probe
        row.objects[i] = FirstObject(spans[i], s);
        complete = row.objects[i] != 0;
      }
      if (complete) emit(std::move(row));
    }
    return finish(std::move(rows));
  }

  if (plan == StarPlan::kAdjacencyIndex ||
      plan == StarPlan::kAdjacencyIndexPushdown) {
    // Stats-ordered postings intersection: drive from the predicate with
    // the fewest distinct subjects, then leapfrog the other lists with
    // galloping cursors (monotonic — each list is walked at most once).
    std::vector<uint64_t> distinct(k);
    for (size_t i = 0; i < k; ++i) {
      distinct[i] =
          adjacency_.Stats(query.predicate_ids[i])->distinct_subjects;
    }
    std::vector<size_t> ord(k);
    std::iota(ord.begin(), ord.end(), 0);
    std::sort(ord.begin(), ord.end(),
              [&](size_t a, size_t b) { return distinct[a] < distinct[b]; });
    std::vector<const rdf::Posting*> cur(k);
    for (size_t i = 0; i < k; ++i) cur[i] = spans[i].first;

    const size_t driver = ord[0];
    const rdf::Posting* d = spans[driver].first;
    const rdf::Posting* d_end = spans[driver].second;
    while (d != d_end) {
      const uint64_t s = d->key;
      StarRow row{s, std::vector<uint64_t>(k, 0)};
      row.objects[driver] = d->value;  // smallest object of the run
      // Skip the rest of the equal-subject run.
      do {
        ++local.triples_scanned;
        ++d;
      } while (d != d_end && d->key == s);

      bool complete = true;
      for (size_t j = 1; j < k && complete; ++j) {
        const size_t slot = ord[j];
        ++local.triples_scanned;  // one galloping probe
        cur[slot] = Gallop(cur[slot], spans[slot].second, s);
        complete = cur[slot] != spans[slot].second && cur[slot]->key == s;
        if (complete) row.objects[slot] = cur[slot]->value;
      }
      if (complete) emit(std::move(row));
    }
    return finish(std::move(rows));
  }

  // Vertical partitioning: drive from the predicate with the fewest
  // postings and probe the others by binary search.
  size_t driver = 0;
  for (size_t i = 1; i < k; ++i) {
    if (spans[i].second - spans[i].first <
        spans[driver].second - spans[driver].first) {
      driver = i;
    }
  }
  local.triples_scanned += spans[driver].second - spans[driver].first;
  uint64_t prev_s = 0;
  for (const rdf::Posting* so = spans[driver].first;
       so != spans[driver].second; ++so) {
    if (so->key == prev_s) continue;  // distinct subjects
    prev_s = so->key;
    StarRow row{so->key, std::vector<uint64_t>(k, 0)};
    row.objects[driver] = so->value;
    bool complete = true;
    for (size_t i = 0; i < k && complete; ++i) {
      if (i == driver) continue;
      ++local.triples_scanned;  // one indexed probe
      row.objects[i] = FirstObject(spans[i], so->key);
      complete = row.objects[i] != 0;
    }
    if (complete) emit(std::move(row));
  }
  return finish(std::move(rows));
}

Status KnowledgeStore::SaveTriples(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create directory: " + dir);
  for (size_t i = 0; i < partitions_.size(); ++i) {
    std::vector<rdf::EncodedTriple> sorted = partitions_[i];
    std::sort(sorted.begin(), sorted.end(),
              [](const rdf::EncodedTriple& a, const rdf::EncodedTriple& b) {
                return std::tuple(a.s, a.p, a.o) < std::tuple(b.s, b.p, b.o);
              });
    TCMF_RETURN_IF_ERROR(WriteTriplePartition(
        dir + StrFormat("/partition-%04zu.col", i), sorted));
  }
  return Status::Ok();
}

Result<size_t> KnowledgeStore::LoadTriples(const std::string& dir) {
  size_t loaded = 0;
  for (size_t i = 0; i < partitions_.size(); ++i) {
    std::string path = dir + StrFormat("/partition-%04zu.col", i);
    if (!std::filesystem::exists(path)) break;
    Result<std::vector<rdf::EncodedTriple>> part = ReadTriplePartition(path);
    if (!part.ok()) return part.status();
    partitions_[i] = std::move(part).value();
    loaded += partitions_[i].size();
  }
  total_triples_ = 0;
  for (const auto& p : partitions_) total_triples_ += p.size();
  compiled_ = false;
  return loaded;
}

bool KnowledgeStore::LookupPosition(uint64_t subject, double* lon,
                                    double* lat, TimeMs* t) const {
  auto it = subject_pos_.find(subject);
  if (it == subject_pos_.end()) return false;
  *lon = it->second.lon;
  *lat = it->second.lat;
  *t = it->second.t;
  return true;
}

}  // namespace tcmf::store
