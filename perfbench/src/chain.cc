#include "chain.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <optional>
#include <thread>
#include <unordered_map>

#include "cep/automaton.h"
#include "common/strings.h"
#include "datagen/areas.h"
#include "insitu/lowlevel.h"
#include "rdf/vocab.h"
#include "scenario/arrival.h"
#include "store/kgstore.h"
#include "stream/pipeline.h"

namespace perfbench {

namespace cep = tcmf::cep;
namespace ld = tcmf::linkdiscovery;
namespace mlog = tcmf::mlog;
namespace prediction = tcmf::prediction;
namespace rdf = tcmf::rdf;
namespace stream = tcmf::stream;
namespace synopses = tcmf::synopses;
using tcmf::Position;
using tcmf::TimeMs;

namespace {

constexpr char kPrefix[] = "http://tcmf/bench/";

rdf::TripleGenerator PositionGenerator(const tcmf::geom::StCellEncoder& enc) {
  rdf::GraphTemplate tmpl;
  rdf::VariableVector vars;
  rdf::MakePositionTemplate(kPrefix, &tmpl, &vars);
  // The st-cell side index (store pushdown) is fed by hasStCell triples.
  vars.Define("stcell",
              [enc](const stream::Record& r) -> std::optional<rdf::Term> {
                auto lon = r.GetNumeric("lon");
                auto lat = r.GetNumeric("lat");
                auto t = r.GetInt("t");
                if (!lon || !lat || !t) return std::nullopt;
                return rdf::IntLiteral(
                    static_cast<int64_t>(enc.Encode(*lon, *lat, *t)));
              });
  tmpl.Add(rdf::TemplateSlot::Var("node"),
           rdf::TemplateSlot::Const(rdf::Iri(rdf::vocab::kHasStCell)),
           rdf::TemplateSlot::Var("stcell"));
  return rdf::TripleGenerator(std::move(tmpl), std::move(vars));
}

rdf::TripleGenerator WeatherGenerator() {
  rdf::GraphTemplate tmpl;
  rdf::VariableVector vars;
  rdf::MakeWeatherTemplate(kPrefix, &tmpl, &vars);
  return rdf::TripleGenerator(std::move(tmpl), std::move(vars));
}

cep::MarkovInputModel UniformInputModel() {
  cep::MarkovInputModel model(cep::kHeadingSymbolCount, 1);
  model.Fit({});  // Laplace smoothing alone: uniform transitions
  return model;
}

/// The unit flowing between stages: a report, a weather cell, or (after
/// synopses) one critical point of a report.
struct Item {
  uint64_t seq = 0;
  int64_t sched_us = 0;
  Kind kind = Kind::kAis;
  bool is_cp = false;
  uint32_t cp_index = 0;
  synopses::CriticalPointType cp_type = synopses::CriticalPointType::kStart;
  Position pos;
  stream::Record weather;
  std::vector<ld::Link> links;
  std::vector<rdf::Triple> triples;
};

Item ToItem(const stream::Record& record) {
  Decoded d = Decode(record);
  Item it;
  it.seq = d.seq;
  it.sched_us = d.sched_us;
  it.kind = d.kind;
  it.pos = d.pos;
  it.weather = std::move(d.weather);
  return it;
}

uint64_t ItemKey(const Item& it) {
  return it.kind == Kind::kWeather ? it.seq : it.pos.entity_id;
}

synopses::SynopsesConfig SynopsesFor(Kind kind) {
  return kind == Kind::kAdsb ? synopses::SynopsesConfig::ForAviation()
                             : synopses::SynopsesConfig::ForMaritime();
}

struct CleanState {
  std::optional<tcmf::insitu::StreamCleaner> cleaner;
};
struct SynopsesState {
  std::optional<synopses::SynopsesGenerator> generator;
};
struct NoState {};

}  // namespace

LayerSetup::LayerSetup(const InputSet& inputs, uint64_t seed)
    : encoder(inputs.extent, 10, 0, 15 * tcmf::kMillisPerMinute),
      dfa(cep::CompileStreamingDfa(cep::NorthToSouthReversalPattern(),
                                   cep::kHeadingSymbolCount)),
      input_model(UniformInputModel()),
      position_rdf(PositionGenerator(encoder)),
      weather_rdf(WeatherGenerator()) {
  cpa_sea.dcpa_m = 1000.0;
  cpa_sea.tcpa_s = 15 * 60.0;
  cpa_sea.max_range_m = 40000.0;
  cpa_air.dcpa_m = 9260.0;  // 5 NM en-route separation
  cpa_air.tcpa_s = 5 * 60.0;
  cpa_air.max_range_m = 50000.0;

  linker.extent = inputs.extent;
  linker.near_distance_m = 5000.0;
  linker.temporal_window_ms = 5 * tcmf::kMillisPerMinute;
  linker.link_moving_pairs = true;
  tcmf::Rng rng(seed ^ 0x5eed);
  // About one protected area per 3 square degrees of extent.
  const size_t count = std::max<size_t>(
      8, static_cast<size_t>(inputs.extent.width() *
                             inputs.extent.height() / 3.0));
  regions = tcmf::datagen::MakeRegions(rng, inputs.extent,
                                       std::min<size_t>(count, 4000),
                                       "protected", 3000.0, 20000.0);
}

std::vector<rdf::Triple> LayerSetup::CpTriples(
    const Position& pos, const std::vector<ld::Link>& links) const {
  std::vector<rdf::Triple> triples =
      position_rdf.GenerateOne(stream::PositionToRecord(pos));
  if (links.empty()) return triples;
  const rdf::Term node = rdf::Iri(tcmf::StrFormat(
      "%snode/%llu/%lld", kPrefix,
      static_cast<unsigned long long>(pos.entity_id),
      static_cast<long long>(pos.t)));
  for (const ld::Link& l : links) {
    const char* rel = l.relation == ld::Link::Relation::kWithin
                          ? rdf::vocab::kWithin
                          : rdf::vocab::kNearTo;
    const std::string object =
        l.object_is_entity
            ? tcmf::StrFormat("%sobj/%llu", rdf::vocab::kDatacron,
                              static_cast<unsigned long long>(l.object_id))
            : tcmf::StrFormat("%sregion/%llu", kPrefix,
                              static_cast<unsigned long long>(l.object_id));
    triples.push_back({node, rdf::Iri(rel), rdf::Iri(object)});
  }
  return triples;
}

struct Chain::State {
  State(const InputSet& in, const LayerSetup& ls, const ChainOptions& o,
        mlog::PartitionedLog* t, Tracer* tr)
      : inputs(in),
        layers(ls),
        opt(o),
        topic(t),
        tracer(tr),
        cpa_sea(ls.cpa_sea),
        cpa_air(ls.cpa_air),
        linker(ls.linker, ls.regions),
        store(ls.encoder),
        cep_proto(ls.dfa, ls.input_model, ls.cep) {}

  /// Parks the calling source thread until Run (true) or teardown of an
  /// unused chain (false).
  bool WaitGate() {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [this] { return gate != 0; });
    return gate == 1;
  }
  void OpenGate(int value) {
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      if (gate == 0) gate = value;
    }
    gate_cv.notify_all();
  }

  size_t Poll(std::vector<mlog::GroupRecord>* out, size_t max_n);
  size_t Replay(std::vector<stream::Record>* out, size_t max_n);
  void Produce();
  void Build();

  const InputSet& inputs;
  const LayerSetup& layers;
  const ChainOptions opt;
  mlog::PartitionedLog* const topic;
  Tracer* const tracer;

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  int gate = 0;  // 0 parked, 1 run, 2 cancelled
  int64_t start_us = 0;
  int64_t end_us = 0;  // open loop: injection window end

  // Layer instances. The single-instance ones are touched only by their
  // stage's thread; the per-entity ones live in keyed state.
  prediction::CpaScreen cpa_sea, cpa_air;
  ld::SpatioTemporalLinker linker;
  tcmf::store::KnowledgeStore store;
  const cep::WayebEngine cep_proto;
  std::unordered_map<uint64_t, cep::WayebEngine> engines;

  std::atomic<uint64_t> seen{0}, finished{0}, clean_accepted{0},
      synopses_calls{0};
  SampleSink screen, fresh;

  // Producer (open loop) / replay source state.
  std::atomic<uint64_t> injected{0};
  std::atomic<bool> producer_done{false};
  uint64_t append_errors = 0;
  std::vector<double> gen_late_ms, append_us;
  std::vector<std::pair<double, double>> backlog;
  std::unique_ptr<mlog::GroupCursor> cursor;
  uint64_t next_offset = 0;  // of the topic's one partition
  uint64_t gaps = 0, dups = 0, polls = 0, empty_polls = 0, polled = 0;
  std::string source_error;

  // Single-writer stage logs.
  std::vector<uint64_t> cpa_order;
  std::vector<WarningRec> warnings;
  std::vector<CpRec> cps;
  std::vector<LinkRec> links;
  uint64_t rdf_calls = 0, rdf_triples = 0;
  uint64_t cep_calls = 0, detections = 0, forecasts = 0;

  // Last: its destructor joins every stage thread before the state above
  // goes away.
  stream::Pipeline pipeline;
};

size_t Chain::State::Poll(std::vector<mlog::GroupRecord>* out,
                          size_t max_n) {
  if (!cursor && !WaitGate()) return 0;
  if (!cursor) {
    auto joined = topic->JoinGroup("perfbench", 0, 1);
    if (!joined.ok()) {
      source_error = joined.status().message();
      return 0;
    }
    cursor = std::move(joined).value();
  }
  for (;;) {
    size_t n = 0;
    {
      ScopedSpan span(tracer, Layer::kMlogPoll, Layer::kNone, 0, 0);
      n = cursor->NextBatch(out, max_n);
    }
    ++polls;
    if (n > 0) {
      for (size_t i = out->size() - n; i < out->size(); ++i) {
        const mlog::GroupRecord& gr = (*out)[i];
        if (gr.offset < next_offset) ++dups;
        if (gr.offset > next_offset) gaps += gr.offset - next_offset;
        next_offset = std::max(next_offset, gr.offset + 1);
      }
      polled += n;
      return n;
    }
    ++empty_polls;
    if (!cursor->status().ok()) {
      source_error = cursor->status().message();
      return 0;
    }
    if (producer_done.load(std::memory_order_acquire) &&
        cursor->committed(0) >= topic->partition(0)->next_offset()) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

size_t Chain::State::Replay(std::vector<stream::Record>* out, size_t max_n) {
  if (injected.load(std::memory_order_relaxed) == 0 && !WaitGate()) return 0;
  const int64_t now = NowUs();
  uint64_t seq = injected.load(std::memory_order_relaxed);
  const size_t n = std::min<uint64_t>(max_n, opt.records - seq);
  for (size_t k = 0; k < n; ++k, ++seq) {
    out->push_back(ToRecord(inputs.At(seq), seq, now));
  }
  injected.store(seq, std::memory_order_relaxed);
  return n;
}

void Chain::State::Produce() {
  tcmf::scenario::ArrivalSchedule schedule(
      tcmf::scenario::ArrivalCurve::Poisson(opt.rate_per_s), opt.seed);
  int64_t next_sample_us = start_us;
  for (uint64_t seq = 0;; ++seq) {
    const int64_t due = start_us + schedule.NextArrivalUs();
    if (due >= end_us) break;
    int64_t now = NowUs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now));
      now = NowUs();
    }
    gen_late_ms.push_back((now - due) / 1000.0);
    const BaseEvent ev = inputs.At(seq);
    const uint64_t key = ev.key;
    const stream::Record record = ToRecord(ev, seq, due);
    const int64_t t0 = NowNs();
    bool ok = false;
    {
      ScopedSpan span(tracer, Layer::kMlogAppend, Layer::kScreen,
                      RecordTraceId(seq), seq);
      ok = topic->AppendKeyed(key, record).ok();
    }
    append_us.push_back((NowNs() - t0) / 1000.0);
    if (!ok) ++append_errors;
    injected.store(seq + 1, std::memory_order_relaxed);
    if (now >= next_sample_us) {
      backlog.emplace_back(
          (now - start_us) / 1e6,
          static_cast<double>(seq + 1) -
              static_cast<double>(finished.load(std::memory_order_relaxed)));
      next_sample_us = now + 10000;
    }
  }
  producer_done.store(true, std::memory_order_release);
}

void Chain::State::Build() {
  State* s = this;
  // Flush partial batches as soon as a stage's input runs dry: batching
  // amortises transport under load without adding linger at low rates.
  const stream::BatchPolicy policy = stream::BatchPolicy::Batched(256, 0);

  stream::KeyedProcessFn<Item, Item, CleanState> clean =
      [s](const Item& it, CleanState& st,
          const std::function<void(Item)>& emit) {
        s->seen.fetch_add(1, std::memory_order_relaxed);
        if (it.kind == Kind::kWeather) {
          s->finished.fetch_add(1, std::memory_order_relaxed);
          emit(it);
          return;
        }
        if (!st.cleaner) st.cleaner.emplace(tcmf::insitu::StreamCleaner::Options{});
        tcmf::insitu::CleanVerdict verdict;
        {
          ScopedSpan span(s->tracer, Layer::kInsitu, Layer::kScreen,
                          RecordTraceId(it.seq), it.seq);
          verdict = st.cleaner->Observe(it.pos);
        }
        if (verdict != tcmf::insitu::CleanVerdict::kOk) {
          s->finished.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        s->clean_accepted.fetch_add(1, std::memory_order_relaxed);
        emit(it);
      };

  stream::Flow<Item> cleaned = [&] {
    stream::StageOptions opts{.name = "insitu"};
    if (opt.open_loop) {
      return stream::Flow<mlog::GroupRecord>::FromBatchGenerator(
                 &pipeline,
                 [s](std::vector<mlog::GroupRecord>* out, size_t max_n) {
                   return s->Poll(out, max_n);
                 },
                 {.name = "source", .batch = policy})
          .Fuse()
          .Map<Item>([](const mlog::GroupRecord& gr) {
            return ToItem(gr.record);
          })
          .KeyedProcessParallel<Item, CleanState>(ItemKey, clean, 1,
                                                  nullptr, opts);
    }
    return stream::Flow<stream::Record>::FromBatchGenerator(
               &pipeline,
               [s](std::vector<stream::Record>* out, size_t max_n) {
                 return s->Replay(out, max_n);
               },
               {.name = "source", .batch = policy})
        .Fuse()
        .Map<Item>(ToItem)
        .KeyedProcessParallel<Item, CleanState>(ItemKey, clean, 1, nullptr,
                                                opts);
  }();

  stream::Flow<Item> screened = cleaned.Map<Item>(
      [s](const Item& it) {
        if (it.kind == Kind::kWeather) return it;
        s->cpa_order.push_back(it.seq);
        std::vector<prediction::CollisionWarning> found;
        {
          ScopedSpan span(s->tracer, Layer::kCpa, Layer::kScreen,
                          RecordTraceId(it.seq), it.seq);
          found = (it.kind == Kind::kAdsb ? s->cpa_air : s->cpa_sea)
                      .Observe(it.pos);
        }
        for (const prediction::CollisionWarning& w : found) {
          s->warnings.push_back({w.entity_a, w.entity_b, w.at});
        }
        return it;
      },
      {.name = "prediction"});

  stream::KeyedProcessFn<Item, Item, SynopsesState> synopsize =
      [s](const Item& it, SynopsesState& st,
          const std::function<void(Item)>& emit) {
        if (it.kind == Kind::kWeather) {
          emit(it);
          return;
        }
        if (!st.generator) st.generator.emplace(SynopsesFor(it.kind));
        std::vector<synopses::CriticalPoint> found;
        {
          ScopedSpan span(s->tracer, Layer::kSynopses, Layer::kScreen,
                          RecordTraceId(it.seq), it.seq);
          found = st.generator->Observe(it.pos);
        }
        // The report's screen ends here: CPA has run, critical points are
        // out.
        const int64_t done_ns = NowNs();
        s->screen.Add((done_ns - it.sched_us * 1000) / 1e6);
        if (s->tracer) {
          s->tracer->Record(Layer::kScreen, Layer::kNone,
                            RecordTraceId(it.seq), s->tracer->Keeps(it.seq),
                            it.sched_us * 1000, done_ns);
        }
        s->synopses_calls.fetch_add(1, std::memory_order_relaxed);
        s->finished.fetch_add(1, std::memory_order_relaxed);
        for (uint32_t i = 0; i < found.size(); ++i) {
          Item cp;
          cp.seq = it.seq;
          cp.sched_us = it.sched_us;
          cp.kind = it.kind;
          cp.is_cp = true;
          cp.cp_index = i;
          cp.cp_type = found[i].type;
          cp.pos = found[i].pos;
          emit(std::move(cp));
        }
      };
  stream::Flow<Item> points = screened.KeyedProcessParallel<Item, SynopsesState>(
      ItemKey, synopsize, 1, nullptr, {.name = "synopses"});

  stream::Flow<Item> linked = points.Map<Item>(
      [s](const Item& it) {
        if (!it.is_cp) return it;
        Item out = it;
        const uint64_t id = CpTraceId(it.seq, it.cp_index);
        s->cps.push_back({id, it.pos.t, static_cast<uint8_t>(it.cp_type)});
        {
          ScopedSpan span(s->tracer, Layer::kLinkDiscovery, Layer::kFresh, id,
                          it.seq);
          out.links = s->linker.Observe(it.pos);
        }
        for (const ld::Link& l : out.links) {
          s->links.push_back({id, l.object_id, static_cast<uint8_t>(l.relation),
                              l.object_is_entity});
        }
        return out;
      },
      {.name = "linkdiscovery"});

  stream::KeyedProcessFn<Item, Item, NoState> store =
      [s](const Item& it, NoState&, const std::function<void(Item)>& emit) {
        const uint64_t id = it.is_cp ? CpTraceId(it.seq, it.cp_index)
                                     : RecordTraceId(it.seq);
        {
          ScopedSpan span(s->tracer, Layer::kStoreAdd, Layer::kFresh, id,
                          it.seq);
          for (const rdf::Triple& t : it.triples) s->store.Add(t);
        }
        if (!it.is_cp) return;
        const int64_t done_ns = NowNs();
        s->fresh.Add((done_ns - it.sched_us * 1000) / 1e6);
        if (s->tracer) {
          s->tracer->Record(Layer::kFresh, Layer::kNone, id,
                            s->tracer->Keeps(it.seq), it.sched_us * 1000,
                            done_ns);
        }
        Item cp;
        cp.seq = it.seq;
        cp.is_cp = true;
        cp.cp_index = it.cp_index;
        cp.cp_type = it.cp_type;
        cp.pos = it.pos;
        emit(std::move(cp));
      };
  // RDF generation is stateless, so it is fused into the (single-writer)
  // store stage's thread.
  stream::Flow<Item> stored =
      linked.Fuse()
          .Map<Item>([s](const Item& it) {
            Item out = it;
            const uint64_t id = it.is_cp ? CpTraceId(it.seq, it.cp_index)
                                         : RecordTraceId(it.seq);
            {
              ScopedSpan span(s->tracer, Layer::kRdf, Layer::kFresh, id,
                              it.seq);
              out.triples = it.is_cp
                                ? s->layers.CpTriples(it.pos, it.links)
                                : s->layers.weather_rdf.GenerateOne(it.weather);
            }
            ++s->rdf_calls;
            s->rdf_triples += out.triples.size();
            return out;
          })
          .KeyedProcessParallel<Item, NoState>(
              [](const Item&) { return uint64_t{0}; }, store, 1, nullptr,
              {.name = "rdf"});

  // CEP forecasts run behind the store: off the screen and freshness
  // paths.
  stored.Sink(
      [s](const Item& it) {
        auto [entry, inserted] =
            s->engines.try_emplace(it.pos.entity_id, s->cep_proto);
        const synopses::CriticalPoint cp{it.pos, it.cp_type};
        cep::WayebEngine::StepResult r;
        {
          ScopedSpan span(s->tracer, Layer::kCep, Layer::kNone,
                          CpTraceId(it.seq, it.cp_index), it.seq);
          r = entry->second.Observe(cep::CriticalPointSymbol(cp));
        }
        ++s->cep_calls;
        s->detections += r.detected;
        s->forecasts += r.forecast_emitted;
      },
      {.name = "cep"});
}

size_t ChainThreadCount(bool open_loop) {
  // source, clean, CPA, synopses, link discovery, rdf+store, CEP sink,
  // and the open loop's producer. A one-worker keyed stage is one thread.
  return 7 + (open_loop ? 1 : 0);
}

Chain::Chain(const InputSet& inputs, const LayerSetup& layers,
             const ChainOptions& options, mlog::PartitionedLog* topic,
             Tracer* tracer)
    : state_(std::make_unique<State>(inputs, layers, options, topic,
                                     tracer)) {
  state_->Build();
}

Chain::~Chain() {
  state_->OpenGate(2);
  state_->pipeline.Run();
}

ChainResult Chain::Run() {
  State& s = *state_;
  s.start_us = NowUs();
  s.end_us = s.start_us + static_cast<int64_t>(s.opt.seconds * 1e6);
  s.OpenGate(1);
  if (s.opt.open_loop) s.Produce();
  s.pipeline.Run();
  const int64_t drained_us = NowUs();

  ChainResult r;
  r.injected = s.injected.load();
  r.append_errors = s.append_errors;
  r.gaps = s.gaps;
  r.dups = s.dups;
  r.lost = r.injected - std::min<uint64_t>(r.injected, s.seen.load());
  if (!s.source_error.empty()) r.lost = std::max<uint64_t>(r.lost, 1);
  r.run_s = (drained_us - s.start_us) / 1e6;
  r.screen_ms = s.screen.Take();
  r.fresh_ms = s.fresh.Take();
  r.threads = ChainThreadCount(s.opt.open_loop);
  r.cpa_order = std::move(s.cpa_order);
  r.warnings = std::move(s.warnings);
  r.cps = std::move(s.cps);
  r.links = std::move(s.links);
  r.detections = s.detections;
  r.forecasts = s.forecasts;
  r.triples = s.store.size();
  r.clean_calls = s.seen.load();
  r.clean_accepted = s.clean_accepted.load();
  r.cpa_pairs = s.cpa_sea.pairs_evaluated() + s.cpa_air.pairs_evaluated();
  r.synopses_calls = s.synopses_calls.load();
  r.linker = s.linker.stats();
  r.rdf_calls = s.rdf_calls;
  r.rdf_triples = s.rdf_triples;
  r.cep_calls = s.cep_calls;
  r.stages = s.pipeline.Report();
  r.gen_late_ms = std::move(s.gen_late_ms);
  r.append_us = std::move(s.append_us);
  r.backlog = std::move(s.backlog);
  r.polls = s.polls;
  r.empty_polls = s.empty_polls;
  r.polled = s.polled;
  if (s.topic) r.bytes_appended = s.topic->size_bytes_total();
  return r;
}

DirectResult RunDirect(const InputSet& inputs, const LayerSetup& layers,
                       const ChainResult& result) {
  DirectResult out;
  const int64_t t0 = NowNs();

  std::unordered_map<uint64_t, tcmf::insitu::StreamCleaner> cleaners;
  std::unordered_map<uint64_t, synopses::SynopsesGenerator> generators;
  std::unordered_map<uint64_t, cep::WayebEngine> engines;
  const cep::WayebEngine proto(layers.dfa, layers.input_model, layers.cep);
  std::vector<bool> accepted(result.injected, false);  // by seq
  size_t accepted_count = 0;
  std::unordered_map<uint64_t, synopses::CriticalPoint> cps;  // by cp id
  tcmf::store::KnowledgeStore store(layers.encoder);
  uint64_t detections = 0, forecasts = 0;

  // Per-entity layers, in per-key (= input) order.
  for (uint64_t seq = 0; seq < result.injected; ++seq) {
    BaseEvent ev = inputs.At(seq);
    if (ev.kind == Kind::kWeather) {
      for (const rdf::Triple& t : layers.weather_rdf.GenerateOne(ev.weather)) {
        store.Add(t);
      }
      continue;
    }
    const uint64_t key = ev.pos.entity_id;
    auto& cleaner = cleaners
                        .try_emplace(key, tcmf::insitu::StreamCleaner::Options{})
                        .first->second;
    if (cleaner.Observe(ev.pos) != tcmf::insitu::CleanVerdict::kOk) continue;
    auto& gen =
        generators.try_emplace(key, SynopsesFor(ev.kind)).first->second;
    const std::vector<synopses::CriticalPoint> found = gen.Observe(ev.pos);
    auto& engine = engines.try_emplace(key, proto).first->second;
    for (uint32_t i = 0; i < found.size(); ++i) {
      cps.emplace(CpTraceId(seq, i), found[i]);
      const cep::WayebEngine::StepResult r =
          engine.Observe(cep::CriticalPointSymbol(found[i]));
      detections += r.detected;
      forecasts += r.forecast_emitted;
    }
    accepted[seq] = true;
    ++accepted_count;
  }

  // CPA in the order the chain's CPA stage consumed.
  prediction::CpaScreen sea(layers.cpa_sea), air(layers.cpa_air);
  std::vector<WarningRec> warnings;
  bool order_ok = result.cpa_order.size() == accepted_count;
  for (uint64_t seq : result.cpa_order) {
    if (seq >= accepted.size() || !accepted[seq]) {
      order_ok = false;
      break;
    }
    const BaseEvent ev = inputs.At(seq);
    for (const auto& w :
         (ev.kind == Kind::kAdsb ? air : sea).Observe(ev.pos)) {
      warnings.push_back({w.entity_a, w.entity_b, w.at});
    }
  }

  // Link discovery in the chain's order, then RDF + store.
  ld::SpatioTemporalLinker linker(layers.linker, layers.regions);
  std::vector<LinkRec> links;
  bool cps_ok = result.cps.size() == cps.size();
  for (const CpRec& rec : result.cps) {
    auto it = cps.find(rec.cp);
    if (it == cps.end() || it->second.pos.t != rec.t ||
        static_cast<uint8_t>(it->second.type) != rec.type) {
      cps_ok = false;
      break;
    }
    const std::vector<ld::Link> found = linker.Observe(it->second.pos);
    for (const ld::Link& l : found) {
      links.push_back({rec.cp, l.object_id, static_cast<uint8_t>(l.relation),
                       l.object_is_entity});
    }
    for (const rdf::Triple& t : layers.CpTriples(it->second.pos, found)) {
      store.Add(t);
    }
  }
  out.seconds = (NowNs() - t0) / 1e9;

  auto fail = [&](const std::string& what, uint64_t chain, uint64_t direct) {
    if (out.mismatch.empty()) {
      out.mismatch = tcmf::StrFormat(
          "%s: chain %llu, direct %llu", what.c_str(),
          static_cast<unsigned long long>(chain),
          static_cast<unsigned long long>(direct));
    }
  };
  if (!order_ok) fail("CPA inputs", result.cpa_order.size(), accepted_count);
  if (warnings != result.warnings) {
    fail("CPA warnings", result.warnings.size(), warnings.size());
  }
  if (!cps_ok) fail("critical points", result.cps.size(), cps.size());
  if (links != result.links) fail("links", result.links.size(), links.size());
  if (detections != result.detections) {
    fail("CEP detections", result.detections, detections);
  }
  if (forecasts != result.forecasts) {
    fail("CEP forecasts", result.forecasts, forecasts);
  }
  if (store.size() != result.triples) {
    fail("stored triples", result.triples, store.size());
  }
  return out;
}

}  // namespace perfbench
