#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "mlog/partitioned.h"
#include "scenario/arrival.h"
#include "scenario/chaos.h"
#include "scenario/clock.h"
#include "scenario/fleet.h"
#include "scenario/histogram.h"
#include "scenario/scenario.h"

namespace tcmf::scenario {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = "scenario_test_logs/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------- arrivals

TEST(ArrivalScheduleTest, ConstantIsExactlyEvenlySpaced) {
  ArrivalSchedule schedule(ArrivalCurve::Constant(1000.0), /*seed=*/1);
  for (int64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(schedule.NextArrivalUs(), k * 1000);  // 1000/s = every 1ms
  }
}

TEST(ArrivalScheduleTest, PoissonIsSeededAndHitsTheMeanRate) {
  ArrivalSchedule a(ArrivalCurve::Poisson(1000.0), 42);
  ArrivalSchedule b(ArrivalCurve::Poisson(1000.0), 42);
  ArrivalSchedule c(ArrivalCurve::Poisson(1000.0), 43);

  int64_t prev = -1;
  int64_t last = 0;
  bool differs_from_c = false;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const int64_t at = a.NextArrivalUs();
    EXPECT_EQ(at, b.NextArrivalUs());  // same seed -> same timeline
    if (at != c.NextArrivalUs()) differs_from_c = true;
    EXPECT_GE(at, prev);  // offsets are nondecreasing
    prev = at;
    last = at;
  }
  EXPECT_TRUE(differs_from_c);
  // 20k arrivals at 1000/s should span ~20s of scenario time.
  const double mean_gap_us = static_cast<double>(last) / kDraws;
  EXPECT_NEAR(mean_gap_us, 1000.0, 100.0);
}

TEST(ArrivalScheduleTest, DiurnalCurveShape) {
  const ArrivalCurve curve = ArrivalCurve::Diurnal(
      /*trough_rate_per_s=*/500.0, /*period_ms=*/1000, /*peak_factor=*/4.0);
  EXPECT_DOUBLE_EQ(curve.RateAtMs(0), 500.0);        // trough at t = 0
  EXPECT_NEAR(curve.RateAtMs(500), 2000.0, 1e-6);    // peak at period/2
  EXPECT_DOUBLE_EQ(curve.MeanRatePerS(), 1250.0);    // (1 + 4)/2 x trough
  EXPECT_DOUBLE_EQ(ArrivalCurve::Constant(9.0).MeanRatePerS(), 9.0);
}

TEST(ArrivalScheduleTest, DiurnalArrivalsClusterAroundThePeak) {
  const ArrivalCurve curve = ArrivalCurve::Diurnal(500.0, 1000, 4.0);
  ArrivalSchedule schedule(curve, 7);
  // Split each period into the peak-centered half [250ms, 750ms) and the
  // trough-centered rest; the peak half must carry most of the load.
  int64_t peak_half = 0, trough_half = 0;
  int64_t prev = -1;
  for (;;) {
    const int64_t at = schedule.NextArrivalUs();
    EXPECT_GE(at, prev);
    prev = at;
    if (at >= 4'000'000) break;  // four periods
    const int64_t in_period_ms = (at / 1000) % 1000;
    (in_period_ms >= 250 && in_period_ms < 750 ? peak_half : trough_half)++;
  }
  EXPECT_GT(peak_half, 2 * trough_half);
  // Sanity: the totals track the mean rate (1250/s over 4s).
  EXPECT_NEAR(static_cast<double>(peak_half + trough_half), 5000.0, 500.0);
}

TEST(ArrivalScheduleTest, ModelNames) {
  EXPECT_STREQ(ArrivalModelName(ArrivalModel::kConstant), "constant");
  EXPECT_STREQ(ArrivalModelName(ArrivalModel::kPoisson), "poisson");
  EXPECT_STREQ(ArrivalModelName(ArrivalModel::kDiurnal), "diurnal");
}

// ------------------------------------------------------------------ clock

TEST(ScenarioClockTest, VirtualClockAdvancesAndNeverRewinds) {
  VirtualClock clock(/*start_us=*/100);
  EXPECT_EQ(clock.NowUs(), 100);
  clock.SleepUntilUs(5000);
  EXPECT_EQ(clock.NowUs(), 5000);
  clock.SleepUntilUs(400);  // past deadline: no-op, time is monotone
  EXPECT_EQ(clock.NowUs(), 5000);
  clock.AdvanceUs(250);
  EXPECT_EQ(clock.NowUs(), 5250);
  EXPECT_EQ(clock.NowMs(), 5);
  clock.SleepForUs(750);
  EXPECT_EQ(clock.NowUs(), 6000);
}

TEST(ScenarioClockTest, SystemClockIsMonotone) {
  Clock* clock = RealClock();
  const int64_t t0 = clock->NowUs();
  clock->SleepForUs(2000);
  const int64_t t1 = clock->NowUs();
  EXPECT_GE(t1 - t0, 2000);
}

// -------------------------------------------------------------- histogram

TEST(ScenarioHistogramTest, SmallValuesAreExact) {
  LatencyHistogram hist;
  for (int64_t v : {5, 5, 5, 9, 60}) hist.RecordUs(v);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.max_us(), 60u);
  EXPECT_DOUBLE_EQ(hist.MeanUs(), (5 + 5 + 5 + 9 + 60) / 5.0);
  // Values < 64us land in unit-width buckets: quantiles are exact.
  EXPECT_EQ(hist.ValueAtQuantileUs(0.50), 5u);
  EXPECT_EQ(hist.ValueAtQuantileUs(0.80), 9u);
  EXPECT_EQ(hist.ValueAtQuantileUs(1.00), 60u);
  hist.RecordUs(-17);  // clamped to 0, not dropped
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_EQ(hist.ValueAtQuantileUs(0.0), 0u);
}

TEST(ScenarioHistogramTest, QuantilesWithinLogBucketErrorBound) {
  LatencyHistogram hist;
  for (int64_t v = 1; v <= 100000; ++v) hist.RecordUs(v);
  // Log-linear bucketing with 64 sub-buckets: <= ~1.6% relative error
  // (plus midpoint rounding) at any magnitude.
  for (const double q : {0.50, 0.90, 0.99, 0.999}) {
    const double expect = q * 100000;
    const double got = static_cast<double>(hist.ValueAtQuantileUs(q));
    EXPECT_NEAR(got, expect, expect * 0.02) << "q=" << q;
  }
  EXPECT_EQ(hist.max_us(), 100000u);
}

TEST(ScenarioHistogramTest, QuantilesNeverExceedTheMax) {
  // 16601us sits in the lower half of the 512us-wide bucket [16384,
  // 16896), whose midpoint 16640us lies above it.
  LatencyHistogram hist;
  for (int i = 0; i < 10; ++i) hist.RecordUs(16000);
  hist.RecordUs(16601);
  EXPECT_EQ(hist.max_us(), 16601u);
  for (const double q : {0.5, 0.99, 0.999, 1.0}) {
    EXPECT_LE(hist.ValueAtQuantileUs(q), hist.max_us()) << "q=" << q;
  }
  EXPECT_EQ(hist.ValueAtQuantileUs(1.0), 16601u);
}

TEST(ScenarioHistogramTest, MergeMatchesRecordingIntoOne) {
  LatencyHistogram merged, a, b;
  for (int64_t v = 1; v <= 3000; ++v) {
    merged.RecordUs(v * 7);
    (v % 2 ? a : b).RecordUs(v * 7);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), merged.count());
  EXPECT_EQ(a.max_us(), merged.max_us());
  EXPECT_DOUBLE_EQ(a.MeanUs(), merged.MeanUs());
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.ValueAtQuantileUs(q), merged.ValueAtQuantileUs(q));
  }
  EXPECT_EQ(a.ToJson(), merged.ToJson());
}

TEST(ScenarioHistogramTest, EmptyHistogram) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.ValueAtQuantileUs(0.99), 0u);
  EXPECT_DOUBLE_EQ(hist.MeanUs(), 0.0);
  EXPECT_NE(hist.ToJson().find("\"count\":0"), std::string::npos);
}

// --------------------------------------------------------------- timeline

TEST(ScenarioHistogramTest, LatencyTimelineFindsLastBreach) {
  LatencyTimeline timeline(/*window_ms=*/100);
  timeline.Record(50, 10'000);    // window [0, 100): fine
  timeline.Record(250, 80'000);   // window [200, 300): breach
  timeline.Record(430, 90'000);   // window [400, 500): breach
  timeline.Record(880, 20'000);   // window [800, 900): fine
  const uint64_t threshold_us = 50'000;
  EXPECT_EQ(timeline.LastBreachEndMs(0, threshold_us), 500);
  EXPECT_EQ(timeline.LastBreachEndMs(300, threshold_us), 500);
  EXPECT_EQ(timeline.LastBreachEndMs(500, threshold_us), -1);

  LatencyTimeline other(100);
  other.Record(650, 70'000);  // later breach, merged in by max
  timeline.Merge(other);
  EXPECT_EQ(timeline.LastBreachEndMs(0, threshold_us), 700);
}

// ------------------------------------------------------------------ fleet

TEST(ScenarioFleetTest, MixedFleetIsOrderedDeterministicAndComplete) {
  FleetMix mix;
  mix.vessel_count = 10;
  mix.flight_count = 3;
  mix.weather_cols = 3;
  mix.weather_rows = 2;
  mix.weather_interval_ms = 5 * kMillisPerMinute;
  mix.duration_ms = 20 * kMillisPerMinute;

  const std::vector<FleetEvent> events = MakeFleet(mix);
  ASSERT_FALSE(events.empty());

  std::set<std::string> sources;
  TimeMs prev = std::numeric_limits<TimeMs>::min();
  for (const FleetEvent& ev : events) {
    EXPECT_GE(ev.record.event_time(), prev);  // time-ordered feed
    prev = ev.record.event_time();
    sources.insert(ev.record.GetString("source").value_or("?"));
  }
  EXPECT_EQ(sources, (std::set<std::string>{"ais", "adsb", "weather"}));

  // Same mix, same feed — the open-loop driver's replay is reproducible.
  const std::vector<FleetEvent> again = MakeFleet(mix);
  ASSERT_EQ(again.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(again[i].key, events[i].key);
    EXPECT_EQ(again[i].record, events[i].record);
  }

  // Disabling a component removes exactly its source.
  FleetMix no_weather = mix;
  no_weather.weather_cols = 0;
  for (const FleetEvent& ev : MakeFleet(no_weather)) {
    EXPECT_NE(ev.record.GetString("source").value_or("?"), "weather");
  }
}

// ------------------------------------------------------------------ chaos

TEST(ChaosInjectorTest, VirtualClockPlanReplaysOnExactTimestamps) {
  VirtualClock clock(/*start_us=*/1'000'000);
  std::atomic<int64_t> slow_sink_us{0};
  std::atomic<uint64_t> key_rotation{0};
  std::atomic<uint64_t> restart_epochs[2] = {};

  ChaosTargets targets;
  targets.slow_sink_us = &slow_sink_us;
  targets.key_rotation = &key_rotation;
  targets.restart_epochs = restart_epochs;
  targets.partition_count = 2;
  FaultInjector injector(targets, &clock);

  FaultPlan plan;
  // Deliberately out of order: Run() sorts by at_ms.
  plan.Add({.kind = FaultKind::kSourceRestart, .at_ms = 500, .partition = 1});
  plan.Add({.kind = FaultKind::kSlowConsumer,
            .at_ms = 100,
            .duration_ms = 200,
            .stall_ms = 3});
  plan.Add({.kind = FaultKind::kSkewShift, .at_ms = 900, .key_offset = 11});

  const std::vector<FaultOutcome> outcomes =
      injector.Run(plan, /*start_us=*/1'000'000);
  ASSERT_EQ(outcomes.size(), 3u);

  // The virtual clock lands every injection on its scripted instant.
  EXPECT_EQ(outcomes[0].spec.kind, FaultKind::kSlowConsumer);
  EXPECT_EQ(outcomes[0].applied_at_ms, 100);
  EXPECT_EQ(outcomes[0].cleared_at_ms, 300);  // at + duration, exactly
  EXPECT_EQ(outcomes[1].spec.kind, FaultKind::kSourceRestart);
  EXPECT_EQ(outcomes[1].applied_at_ms, 500);
  EXPECT_EQ(outcomes[1].cleared_at_ms, 500);  // instantaneous
  EXPECT_EQ(outcomes[2].applied_at_ms, 900);
  EXPECT_EQ(clock.NowUs(), 1'000'000 + 900'000);

  // Windowed faults were disarmed, instantaneous ones left their mark.
  EXPECT_EQ(slow_sink_us.load(), 0);
  EXPECT_EQ(key_rotation.load(), 11u);
  EXPECT_EQ(restart_epochs[0].load(), 0u);
  EXPECT_EQ(restart_epochs[1].load(), 1u);

  const std::string json = outcomes[0].Json();
  EXPECT_NE(json.find("\"kind\":\"slow_consumer\""), std::string::npos);
  EXPECT_NE(json.find("\"applied_at_ms\":100"), std::string::npos);
  EXPECT_STREQ(FaultKindName(FaultKind::kFsyncStall), "fsync_stall");
  EXPECT_STREQ(FaultKindName(FaultKind::kAppendFault), "append_fault");
}

TEST(ChaosInjectorTest, ApplyAndClearDriveTheRealTopicHooks) {
  mlog::PartitionedLogOptions po;
  po.dir = TestDir("chaos_topic");
  po.partitions = 2;
  auto topic_or = mlog::PartitionedLog::Open(po);
  ASSERT_TRUE(topic_or.ok()) << topic_or.status().ToString();
  std::unique_ptr<mlog::PartitionedLog> topic = std::move(topic_or).value();

  // Keys pinned to each partition so faults can be aimed precisely.
  uint64_t key_p0 = 0, key_p1 = 0;
  for (uint64_t k = 0; key_p0 == 0 || key_p1 == 0; ++k) {
    (topic->PartitionFor(k) == 0 ? key_p0 : key_p1) = k + 1;
  }
  key_p0 -= 1;
  key_p1 -= 1;
  ASSERT_EQ(topic->PartitionFor(key_p0), 0u);
  ASSERT_EQ(topic->PartitionFor(key_p1), 1u);

  ChaosTargets targets;
  targets.topic = topic.get();
  FaultInjector injector(targets, nullptr);
  stream::Record rec;
  rec.set_event_time(1);

  // kAppendFault on partition 0: its appends fail, partition 1's don't.
  const FaultSpec fault{.kind = FaultKind::kAppendFault, .partition = 0};
  injector.Apply(fault);
  EXPECT_FALSE(topic->AppendKeyed(key_p0, rec).ok());
  EXPECT_TRUE(topic->AppendKeyed(key_p1, rec).ok());
  injector.Clear(fault);
  EXPECT_TRUE(topic->AppendKeyed(key_p0, rec).ok());

  // kFsyncStall on partition 1: appends stall and are counted there,
  // partition 0 is untouched.
  const FaultSpec stall{
      .kind = FaultKind::kFsyncStall, .partition = 1, .stall_ms = 10};
  injector.Apply(stall);
  Clock* clock = RealClock();
  const int64_t t0 = clock->NowUs();
  EXPECT_TRUE(topic->AppendKeyed(key_p1, rec).ok());
  EXPECT_GE(clock->NowUs() - t0, 10'000);
  injector.Clear(stall);
  EXPECT_TRUE(topic->AppendKeyed(key_p1, rec).ok());
  EXPECT_GE(topic->partition(1)->metrics().sync_stalls, 1u);
  EXPECT_EQ(topic->partition(0)->metrics().sync_stalls, 0u);
}

// -------------------------------------------------------------- scenarios

ScenarioOptions SmallScenario(const std::string& dir) {
  ScenarioOptions opts;
  opts.dir = TestDir(dir);
  opts.partitions = 2;
  opts.arrival = ArrivalCurve::Constant(4000.0);
  opts.total_records = 1200;
  opts.fleet.vessel_count = 8;
  opts.fleet.flight_count = 2;
  opts.fleet.weather_cols = 2;
  opts.fleet.weather_rows = 2;
  opts.fleet.duration_ms = 5 * kMillisPerMinute;
  // Generous budget: these tests assert delivery invariants, not
  // machine-dependent latency.
  opts.latency_budget_ms = 10'000;
  return opts;
}

TEST(ScenarioRunTest, SteadyRunDeliversEverythingExactlyOnce) {
  const ScenarioOptions opts = SmallScenario("steady");
  const ScenarioReport report = RunScenario(opts);

  EXPECT_EQ(report.error, "") << report.error;
  EXPECT_EQ(report.produced, 1200u);
  EXPECT_EQ(report.append_errors, 0u);
  EXPECT_EQ(report.appended, 1200u);
  EXPECT_EQ(report.consumed, 1200u);
  EXPECT_EQ(report.gaps, 0u);
  EXPECT_EQ(report.dups, 0u);
  EXPECT_EQ(report.restarts, 0u);
  EXPECT_EQ(report.arrival_model, "constant");
  EXPECT_DOUBLE_EQ(report.offered_rate_per_s, 4000.0);
  EXPECT_GT(report.run_s, 0.0);
  EXPECT_GT(report.achieved_rate_per_s, 0.0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
  EXPECT_GE(report.max_ms, report.p999_ms);
  EXPECT_TRUE(report.p99_within_budget);
  EXPECT_EQ(report.disruption_ms, 0);
  EXPECT_EQ(report.recovery_ms, 0);

  const std::string json = report.Json();
  EXPECT_NE(json.find("\"arrival\":\"constant\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"consumed\":1200"), std::string::npos);
  EXPECT_NE(json.find("\"faults\":[]"), std::string::npos);
  // The pipeline's own merged report rides along, uptime included.
  EXPECT_NE(json.find("\"pipeline\":{"), std::string::npos);
  EXPECT_NE(json.find("\"uptime_ms\":"), std::string::npos);
  EXPECT_NE(json.find("scenario.tail"), std::string::npos);
}

TEST(ScenarioRunTest, ChaosRunSurvivesRestartAndStallWithoutLoss) {
  const ScenarioOptions opts = SmallScenario("chaos");
  // 1200 records at 4000/s = a ~300ms schedule.
  FaultPlan plan;
  plan.Add({.kind = FaultKind::kSourceRestart, .at_ms = 60, .partition = 0});
  plan.Add({.kind = FaultKind::kFsyncStall,
            .at_ms = 120,
            .duration_ms = 60,
            .partition = 1,
            .stall_ms = 5});
  plan.Add({.kind = FaultKind::kSkewShift, .at_ms = 200, .key_offset = 3});
  const ScenarioReport report = RunScenario(opts, plan);

  EXPECT_EQ(report.error, "") << report.error;
  // Chaos must never break delivery: everything arrives exactly once
  // even across the mid-tail consumer restart.
  EXPECT_EQ(report.consumed, 1200u);
  EXPECT_EQ(report.gaps, 0u);
  EXPECT_EQ(report.dups, 0u);
  EXPECT_GE(report.restarts, 1u);
  EXPECT_GE(report.sync_stalls, 1u);
  ASSERT_EQ(report.faults.size(), 3u);
  EXPECT_EQ(report.faults[0].spec.kind, FaultKind::kSourceRestart);
  EXPECT_GE(report.faults[0].applied_at_ms, 60);

  const std::string json = report.Json();
  EXPECT_NE(json.find("\"kind\":\"source_restart\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"fsync_stall\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"skew_shift\""), std::string::npos);
}

}  // namespace
}  // namespace tcmf::scenario
