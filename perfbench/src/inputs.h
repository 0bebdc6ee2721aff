// Seeded input generation for the benchmark workloads. The program under
// test only ever sees the records materialised from an InputSet; the
// seed, the sizes and the replay rule all live here.

#ifndef TCMF_PERFBENCH_INPUTS_H_
#define TCMF_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/position.h"
#include "geom/geometry.h"
#include "stream/record.h"

namespace perfbench {

enum class Kind : uint8_t { kAis = 0, kAdsb = 1, kWeather = 2 };

const char* KindName(Kind kind);

/// One generated event: a surveillance report (`pos`) or a weather grid
/// cell (`weather`).
struct BaseEvent {
  Kind kind = Kind::kAis;
  uint64_t key = 0;
  tcmf::Position pos;
  tcmf::stream::Record weather;
};

/// A time-ordered base feed plus the rule that extends it past its end:
/// lap `l` shifts event time by `l * span_ms` and gives every moving
/// entity a fresh id (`+ l * kLapIdStride`), so a replayed lap is new
/// traffic rather than a teleport of the old (which the cleaner would
/// reject as a speed spike).
struct InputSet {
  // Above every base id (MMSIs start at 2e8, ICAO24s are < 2^24), and
  // small enough that 15 laps stay below 2^32.
  static constexpr uint64_t kLapIdStride = uint64_t{1} << 28;

  std::vector<BaseEvent> events;
  tcmf::TimeMs span_ms = 0;
  tcmf::geom::BBox extent;

  size_t size() const { return events.size(); }
  /// Event `i` of the endless feed (laps applied).
  BaseEvent At(uint64_t i) const;
  /// FNV-1a over every generated field, bit-exact: two runs with equal
  /// digests measured identical inputs.
  uint64_t Digest() const;
};

/// The wire form of event `seq`: the Record a producer hands over,
/// carrying the benchmark's `seq` (trace id) and `sched_us` (due time)
/// fields.
tcmf::stream::Record ToRecord(BaseEvent event, uint64_t seq,
                              int64_t sched_us);

/// The decoded form of a wire record (the stream layer's Record ->
/// Position conversion).
struct Decoded {
  uint64_t seq = 0;
  int64_t sched_us = 0;
  Kind kind = Kind::kAis;
  tcmf::Position pos;
  tcmf::stream::Record weather;
};
Decoded Decode(const tcmf::stream::Record& record);

/// Sizes of one workload's input; `tiny` shrinks everything for tests.
struct FleetSize {
  size_t vessels = 0;
  size_t flights = 0;
  tcmf::TimeMs duration_ms = 0;
};

/// Dense mixed fleet (AIS + ADS-B + weather) from scenario::MakeFleet.
InputSet MakeDenseFleet(const FleetSize& size, uint64_t seed);

/// Sparse AIS fleet over a near-global extent, straight from datagen,
/// plus a weather grid over the same extent.
InputSet MakeSparseFleet(const FleetSize& size, uint64_t seed);

}  // namespace perfbench

#endif  // TCMF_PERFBENCH_INPUTS_H_
