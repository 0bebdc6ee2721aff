#include "kg_query.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/strings.h"
#include "insitu/lowlevel.h"
#include "rdf/vocab.h"

namespace perfbench {

namespace store = tcmf::store;
namespace vocab = tcmf::rdf::vocab;
using tcmf::TimeMs;

KgStore BuildKgStore(const InputSet& inputs, const LayerSetup& layers) {
  KgStore out;
  out.store = std::make_unique<store::KnowledgeStore>(layers.encoder);
  tcmf::insitu::StreamCleaner cleaner({});
  for (const BaseEvent& ev : inputs.events) {
    std::vector<tcmf::rdf::Triple> triples;
    if (ev.kind == Kind::kWeather) {
      triples = layers.weather_rdf.GenerateOne(ev.weather);
    } else if (cleaner.Observe(ev.pos) == tcmf::insitu::CleanVerdict::kOk) {
      triples = layers.position_rdf.GenerateOne(
          tcmf::stream::PositionToRecord(ev.pos));
    }
    const int64_t t0 = NowNs();
    for (const tcmf::rdf::Triple& t : triples) out.store->Add(t);
    out.add_ms += (NowNs() - t0) / 1e6;
  }
  const int64_t t0 = NowNs();
  out.store->Compile();
  out.compile_ms = (NowNs() - t0) / 1e6;
  return out;
}

std::vector<KgQuery> MakeQueries(const store::KnowledgeStore& kg,
                                 const InputSet& inputs, uint64_t seed,
                                 size_t n) {
  auto id = [&](const char* iri) {
    return kg.dictionary().Lookup(tcmf::rdf::Iri(iri));
  };
  // The first predicate of a star comes from its family's own
  // predicates, so no star mixes position nodes and weather cells.
  const std::vector<uint64_t> position_own = {
      id(vocab::kOfMovingObject), id(vocab::kHasSpeed), id(vocab::kHasHeading),
      id(vocab::kHasAltitude), id(vocab::kHasStCell)};
  const std::vector<uint64_t> weather_own = {
      id(vocab::kHasWindSpeed), id(vocab::kHasWaveHeight),
      id(vocab::kHasSeverity)};
  const std::vector<uint64_t> shared = {id(vocab::kType),
                                        id(vocab::kHasTimestamp),
                                        id(vocab::kAsWKT)};

  tcmf::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const tcmf::geom::BBox& ext = inputs.extent;
  std::vector<KgQuery> queries;
  // Stratified so the class mix is the same for every seed; the seed
  // places the boxes. Of every 16 queries: 4 position
  // and 4 weather stars unconstrained; 5 position stars in a selective
  // box, 1 in a broad box, and 2 weather stars in a broad box (weather
  // cells carry no st-cell, so only a non-selective box is answerable
  // for them under the plan rule).
  for (size_t i = 0; i < n; ++i) {
    const bool constrained = i % 2 == 1;
    const size_t j = (i / 2) % 8;  // box class of a constrained query
    const bool weather = constrained ? j >= 6 : i % 4 == 2;
    const std::vector<uint64_t>& own = weather ? weather_own : position_own;
    std::vector<uint64_t> pool = own;
    pool.insert(pool.end(), shared.begin(), shared.end());
    // Predicates are a fixed function of the query's index, so the same
    // stars run for every seed.
    const size_t k = 2 + (i / 4) % 3;
    KgQuery q;
    q.query.predicate_ids.push_back(own[(i / 2) % own.size()]);
    for (size_t next = 3 * i; q.query.predicate_ids.size() < k; ++next) {
      const uint64_t p = pool[next % pool.size()];
      if (std::find(q.query.predicate_ids.begin(),
                    q.query.predicate_ids.end(),
                    p) == q.query.predicate_ids.end()) {
        q.query.predicate_ids.push_back(p);
      }
    }
    if (constrained) {
      // Box side as a fraction of the extent (f) and window as a fraction
      // of the span (g): selective boxes 0.01..0.1 of the side over a
      // tenth of the span; broad boxes half of each.
      const bool broad = j >= 5;
      const double f = broad ? 0.5 : 0.01 * std::pow(10.0, j / 4.0);
      const double g = broad ? 0.5 : 0.1;
      const double w = ext.width() * f, h = ext.height() * f;
      const double lon = rng.Uniform(ext.min_lon, ext.max_lon - w);
      const double lat = rng.Uniform(ext.min_lat, ext.max_lat - h);
      const TimeMs window = static_cast<TimeMs>(inputs.span_ms * g);
      const TimeMs begin = static_cast<TimeMs>(
          rng.Uniform(0.0, static_cast<double>(inputs.span_ms - window)));
      q.query.has_st_constraint = true;
      q.query.st_box.bounds = {lon, lat, lon + w, lat + h};
      q.query.st_box.t_begin = begin;
      q.query.st_box.t_end = begin + window;
      // "Selective": the box keeps under 1% of the store's st volume.
      if (f * f * g < 0.01) {
        q.plan = store::StarPlan::kAdjacencyIndexPushdown;
      }
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

std::string CheckQueries(const store::KnowledgeStore& kg,
                         const std::vector<KgQuery>& queries) {
  auto sorted = [](std::vector<store::StarRow> rows) {
    std::sort(rows.begin(), rows.end(),
              [](const store::StarRow& a, const store::StarRow& b) {
                return a.subject < b.subject;
              });
    return rows;
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::vector<store::StarRow> got =
        sorted(kg.RunStar(queries[i].query, queries[i].plan, nullptr));
    const std::vector<store::StarRow> want = sorted(kg.RunStar(
        queries[i].query, store::StarPlan::kTriplesTableScan, nullptr));
    bool same = got.size() == want.size();
    for (size_t r = 0; same && r < got.size(); ++r) {
      same = got[r].subject == want[r].subject &&
             got[r].objects == want[r].objects;
    }
    if (!same) {
      return tcmf::StrFormat("query %zu (%s): %zu rows, scan has %zu", i,
                             store::StarPlanName(queries[i].plan), got.size(),
                             want.size());
    }
  }
  return "";
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

KgRunResult RunQueries(const store::KnowledgeStore& kg,
                       const std::vector<KgQuery>& queries, double seconds,
                       uint64_t seed, CpuRotation* cpus, Tracer* tracer) {
  KgRunResult out;
  tcmf::Rng rng(seed ^ 0xc1e47);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  // Whole rounds of every query once, each round in a fresh seeded order,
  // so every round runs the designed mix.
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  uint64_t seq = 0;
  do {
    cpus->Next();
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.UniformInt(0, static_cast<int64_t>(i))]);
    }
    const StealMeter steal;
    const int64_t round_start = NowNs();
    double log_sum = 0;
    for (size_t i : order) {
      const KgQuery& q = queries[i];
      const bool pushdown = q.plan == store::StarPlan::kAdjacencyIndexPushdown;
      store::StarQueryMetrics m;
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer,
                        pushdown ? Layer::kQueryPushdown
                                 : Layer::kQueryAdjacency,
                        Layer::kNone, seq + 1, seq);
        kg.RunStar(q.query, q.plan, &m);
      }
      const double ms = (NowNs() - t0) / 1e6;
      ++seq;
      out.latency_ms.push_back(ms);
      log_sum += std::log(std::max(ms, 1e-6));
      (pushdown ? out.pushdown_ms : out.adjacency_ms) += ms;
      out.rows += m.rows;
      out.scanned += m.triples_scanned;
      out.candidates += m.candidate_subjects;
      out.st_evals += m.st_filter_evaluations;
    }
    out.round_s.push_back((NowNs() - round_start) / 1e9);
    out.round_steal.push_back(steal.Frac());
    out.round_geomean_ms.push_back(std::exp(log_sum / order.size()));
  } while (NowNs() < end);
  out.run_s = (NowNs() - start) / 1e9;
  return out;
}

}  // namespace perfbench
