#ifndef TCMF_SCENARIO_ARRIVAL_H_
#define TCMF_SCENARIO_ARRIVAL_H_

#include <cstdint>

#include "common/position.h"
#include "common/rng.h"

namespace tcmf::scenario {

/// Shape of the offered-load curve an open-loop driver replays.
enum class ArrivalModel {
  kConstant,  ///< evenly spaced: one record every 1/rate seconds
  kPoisson,   ///< memoryless: i.i.d. exponential inter-arrivals
  kDiurnal,   ///< non-homogeneous Poisson with a sinusoidal rate swing
};

/// "constant" / "poisson" / "diurnal".
const char* ArrivalModelName(ArrivalModel model);

/// A rate curve: the target arrival intensity over scenario time.
///
/// kConstant and kPoisson hold `rate_per_s` flat. kDiurnal modulates it
/// sinusoidally between `rate_per_s` (trough, at t = 0) and
/// `rate_per_s * peak_factor` (peak, at t = period_ms / 2) with period
/// `period_ms` — a compressed day/night commute cycle (CityPulse-style
/// city feeds), useful for watching the transport under changing load.
struct ArrivalCurve {
  ArrivalModel model = ArrivalModel::kPoisson;
  double rate_per_s = 1000.0;
  TimeMs period_ms = 60 * kMillisPerSecond;  // diurnal only
  double peak_factor = 4.0;                  // diurnal only

  static ArrivalCurve Constant(double rate_per_s) {
    return {ArrivalModel::kConstant, rate_per_s, 0, 1.0};
  }
  static ArrivalCurve Poisson(double rate_per_s) {
    return {ArrivalModel::kPoisson, rate_per_s, 0, 1.0};
  }
  static ArrivalCurve Diurnal(double trough_rate_per_s, TimeMs period_ms,
                              double peak_factor) {
    return {ArrivalModel::kDiurnal, trough_rate_per_s, period_ms, peak_factor};
  }

  /// Instantaneous target rate at scenario time `t_ms` (records/s).
  double RateAtMs(TimeMs t_ms) const;

  /// Mean rate over a whole period (== rate_per_s except diurnal, where
  /// the sinusoid averages to the midpoint of trough and peak).
  double MeanRatePerS() const;
};

/// Seeded generator of the arrival timeline: successive NextArrivalUs()
/// calls return the nondecreasing offsets (microseconds since scenario
/// start) at which the driver should inject records. Deterministic for a
/// given (curve, seed); uses no wall clock, so schedules are equally
/// valid against a VirtualClock.
///
/// kDiurnal draws from the non-homogeneous Poisson process by thinning
/// (Lewis & Shedler): candidates at the peak rate, accepted with
/// probability rate(t) / peak_rate.
class ArrivalSchedule {
 public:
  ArrivalSchedule(const ArrivalCurve& curve, uint64_t seed);

  /// Offset of the next arrival, microseconds since scenario start.
  int64_t NextArrivalUs();

  const ArrivalCurve& curve() const { return curve_; }

 private:
  ArrivalCurve curve_;
  Rng rng_;
  double next_us_ = 0.0;
};

}  // namespace tcmf::scenario

#endif  // TCMF_SCENARIO_ARRIVAL_H_
