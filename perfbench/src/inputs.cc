#include "inputs.h"

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "datagen/vessel.h"
#include "datagen/weather.h"
#include "scenario/fleet.h"

namespace perfbench {

using tcmf::Position;
using tcmf::TimeMs;
namespace stream = tcmf::stream;

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kAis: return "ais";
    case Kind::kAdsb: return "adsb";
    case Kind::kWeather: return "weather";
  }
  return "?";
}

namespace {

Kind KindFromSource(const std::string& source) {
  if (source == "adsb") return Kind::kAdsb;
  if (source == "weather") return Kind::kWeather;
  return Kind::kAis;
}

class Fnv64 {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Str(const std::string& s) {
    Pod(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

BaseEvent InputSet::At(uint64_t i) const {
  const uint64_t lap = i / events.size();
  BaseEvent ev = events[i % events.size()];
  if (lap == 0) return ev;
  const TimeMs shift = static_cast<TimeMs>(lap) * span_ms;
  if (ev.kind == Kind::kWeather) {
    ev.weather.set_event_time(ev.weather.event_time() + shift);
    ev.weather.Set("t", static_cast<int64_t>(ev.weather.event_time()));
  } else {
    ev.key += lap * kLapIdStride;
    ev.pos.entity_id += lap * kLapIdStride;
    ev.pos.t += shift;
  }
  return ev;
}

stream::Record ToRecord(BaseEvent ev, uint64_t seq, int64_t sched_us) {
  stream::Record r = ev.kind == Kind::kWeather
                         ? std::move(ev.weather)
                         : stream::PositionToRecord(ev.pos);
  r.Set("source", std::string(KindName(ev.kind)));
  r.Set("seq", static_cast<int64_t>(seq));
  r.Set("sched_us", sched_us);
  return r;
}

uint64_t InputSet::Digest() const {
  Fnv64 h;
  h.Pod(events.size());
  h.Pod(span_ms);
  for (const BaseEvent& ev : events) {
    h.Pod(static_cast<uint8_t>(ev.kind));
    h.Pod(ev.key);
    if (ev.kind != Kind::kWeather) {
      const Position& p = ev.pos;
      h.Pod(p.entity_id);
      h.Pod(p.t);
      for (double d : {p.lon, p.lat, p.alt_m, p.speed_mps, p.heading_deg,
                       p.vrate_mps}) {
        h.Pod(d);
      }
      continue;
    }
    h.Pod(ev.weather.event_time());
    for (const auto& [name, value] : ev.weather.fields()) {
      h.Str(name);
      h.Str(stream::ValueToString(value));
    }
  }
  return h.value();
}

Decoded Decode(const stream::Record& record) {
  Decoded d;
  d.seq = static_cast<uint64_t>(record.GetInt("seq").value_or(0));
  d.sched_us = record.GetInt("sched_us").value_or(0);
  d.kind = KindFromSource(record.GetString("source").value_or(""));
  if (d.kind == Kind::kWeather) {
    d.weather = record;
  } else {
    d.pos = stream::RecordToPosition(record);
  }
  return d;
}

InputSet MakeDenseFleet(const FleetSize& size, uint64_t seed) {
  tcmf::scenario::FleetMix mix;
  mix.vessel_count = size.vessels;
  mix.flight_count = size.flights;
  mix.duration_ms = size.duration_ms;
  mix.seed = seed;
  InputSet set;
  set.span_ms = size.duration_ms;
  // MakeFleet's vessel extent (datagen's default) — the region the link
  // discovery grid and the store's st-cells are laid over.
  set.extent = tcmf::datagen::VesselSimConfig{}.extent;
  for (tcmf::scenario::FleetEvent& fe : tcmf::scenario::MakeFleet(mix)) {
    BaseEvent ev;
    ev.kind = KindFromSource(fe.record.GetString("source").value_or(""));
    ev.key = fe.key;
    if (ev.kind == Kind::kWeather) {
      ev.weather = std::move(fe.record);
    } else {
      ev.pos = stream::RecordToPosition(fe.record);
      // MakeFleet routes by `key`; flights may carry entity id 0 there.
      ev.pos.entity_id = fe.key;
    }
    set.events.push_back(std::move(ev));
  }
  return set;
}

InputSet MakeSparseFleet(const FleetSize& size, uint64_t seed) {
  InputSet set;
  set.span_ms = size.duration_ms;
  set.extent = {-170.0, -55.0, 170.0, 65.0};
  tcmf::Rng rng(seed);
  tcmf::datagen::WeatherField weather(rng, set.extent);

  tcmf::datagen::VesselSimConfig cfg;
  cfg.extent = set.extent;
  cfg.vessel_count = size.vessels;
  cfg.duration_ms = size.duration_ms;
  cfg.seed = seed + 1;
  tcmf::datagen::VesselSimulator sim(cfg, {}, {}, &weather);
  for (const Position& p : sim.Run().stream) {
    BaseEvent ev;
    ev.kind = Kind::kAis;
    ev.key = p.entity_id;
    ev.pos = p;
    set.events.push_back(std::move(ev));
  }
  for (TimeMs t = 0; t <= size.duration_ms; t += 5 * tcmf::kMillisPerMinute) {
    std::vector<stream::Record> grid = weather.ForecastGrid(t, 16, 8);
    for (size_t i = 0; i < grid.size(); ++i) {
      BaseEvent ev;
      ev.kind = Kind::kWeather;
      ev.key = 0x57454154u + i;  // MakeFleet's weather-cell keys
      ev.weather = std::move(grid[i]);
      set.events.push_back(std::move(ev));
    }
  }
  std::stable_sort(set.events.begin(), set.events.end(),
                   [](const BaseEvent& a, const BaseEvent& b) {
                     const TimeMs ta = a.kind == Kind::kWeather
                                           ? a.weather.event_time()
                                           : a.pos.t;
                     const TimeMs tb = b.kind == Kind::kWeather
                                           ? b.weather.event_time()
                                           : b.pos.t;
                     return ta < tb;
                   });
  return set;
}

}  // namespace perfbench
