// Section 4.2.2 reproduction: Synopses Generator compression ratio as a
// function of the input reporting rate (paper: ~80% at low/moderate rates
// up to 99% at very frequent reporting, with tolerable reconstruction
// error), plus real-time throughput (critical points emitted in pace with
// the incoming stream).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "common/strings.h"
#include "datagen/areas.h"
#include "datagen/flight.h"
#include "datagen/vessel.h"
#include "insitu/stages.h"
#include "stream/pipeline.h"
#include "synopses/batch_simplify.h"
#include "synopses/critical_points.h"
#include "synopses/stages.h"

using namespace tcmf;

namespace {

struct SweepResult {
  TimeMs interval_ms;
  size_t raw;
  size_t critical;
  double compression;
  double rmse_m;
  double max_m;
  double throughput_msgs_per_s;
};

SweepResult RunMaritime(TimeMs interval_ms) {
  datagen::VesselSimConfig config;
  config.vessel_count = 30;
  config.duration_ms = 3 * kMillisPerHour;
  config.report_interval_ms = interval_ms;
  config.position_noise_m = 10.0;
  config.gap_probability = 0.0;
  Rng rng(5);
  auto ports = datagen::MakePorts(rng, config.extent, 10);
  auto fishing = datagen::MakeRegionsNear(
      rng, datagen::AreaCentroids(ports), 6, "fishing", 10000, 25000, 8000,
      20000);
  datagen::VesselSimulator sim(config, ports, fishing, nullptr);
  auto data = sim.Run();

  synopses::SynopsesGenerator gen(synopses::SynopsesConfig::ForMaritime());
  std::unordered_map<uint64_t, std::vector<synopses::CriticalPoint>> synopses;
  auto start = std::chrono::steady_clock::now();
  for (const Position& p : data.stream) {
    for (auto& cp : gen.Observe(p)) {
      synopses[cp.pos.entity_id].push_back(cp);
    }
  }
  for (auto& cp : gen.Flush()) synopses[cp.pos.entity_id].push_back(cp);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  SweepResult out;
  out.interval_ms = interval_ms;
  out.raw = gen.raw_count();
  out.critical = gen.critical_count();
  out.compression = gen.CompressionRatio();
  out.throughput_msgs_per_s = gen.raw_count() / seconds;

  // Reconstruction error against the noise-free truth.
  double se = 0.0, max_m = 0.0;
  size_t n = 0;
  for (const auto& traj : data.truth) {
    synopses::ReconstructionError err = synopses::EvaluateReconstruction(
        traj, synopses[traj.entity_id]);
    se += err.rmse_m * err.rmse_m * traj.points.size();
    n += traj.points.size();
    max_m = std::max(max_m, err.max_m);
  }
  out.rmse_m = std::sqrt(se / n);
  out.max_m = max_m;
  return out;
}

}  // namespace

int main() {
  std::printf("=== Section 4.2.2: trajectory synopses ===\n\n");
  std::printf("maritime traffic, 30 vessels x 3 h, per reporting rate:\n\n");
  std::printf("%-14s %10s %10s %12s %12s %10s %16s\n", "interval",
              "raw msgs", "critical", "compression", "rmse (m)", "max (m)",
              "throughput");
  for (TimeMs interval : {60000, 30000, 10000, 5000, 2000, 1000}) {
    SweepResult r = RunMaritime(interval);
    std::printf("%9lld ms %10zu %10zu %11.1f%% %12.0f %10.0f %13.0f/s\n",
                static_cast<long long>(r.interval_ms), r.raw, r.critical,
                100.0 * r.compression, r.rmse_m, r.max_m,
                r.throughput_msgs_per_s);
  }

  // Aviation: the same generator with the aviation profile.
  std::printf("\naviation traffic (40 flights, ADS-B at 8 s / 2 s):\n\n");
  for (TimeMs interval : {8000, 2000}) {
    datagen::FlightSimConfig config;
    config.flight_count = 40;
    config.report_interval_ms = interval;
    datagen::FlightSimulator sim(config, datagen::DefaultOriginAirport(),
                                 datagen::DefaultDestinationAirport(),
                                 nullptr);
    auto flights = sim.Run();
    synopses::SynopsesGenerator gen(synopses::SynopsesConfig::ForAviation());
    size_t takeoffs = 0, landings = 0;
    for (const auto& f : flights) {
      for (const Position& p : f.actual.points) {
        for (auto& cp : gen.Observe(p)) {
          takeoffs += cp.type == synopses::CriticalPointType::kTakeoff;
          landings += cp.type == synopses::CriticalPointType::kLanding;
        }
      }
    }
    std::printf("  %4lld ms: %zu raw -> %zu critical (%.1f%% compression), "
                "%zu takeoffs, %zu landings\n",
                static_cast<long long>(interval), gen.raw_count(),
                gen.critical_count(), 100.0 * gen.CompressionRatio(),
                takeoffs, landings);
  }

  // --- Batch simplification baseline ([16][17]): quality comparable,
  // but the whole trajectory is needed before anything can be emitted. ---
  {
    datagen::VesselSimConfig config;
    config.vessel_count = 30;
    config.duration_ms = 3 * kMillisPerHour;
    config.report_interval_ms = 10000;
    config.position_noise_m = 10.0;
    config.gap_probability = 0.0;
    Rng rng(5);
    auto ports = datagen::MakePorts(rng, config.extent, 10);
    auto fishing = datagen::MakeRegionsNear(
        rng, datagen::AreaCentroids(ports), 6, "fishing", 10000, 25000,
        8000, 20000);
    datagen::VesselSimulator sim(config, ports, fishing, nullptr);
    auto data = sim.Run();

    std::printf("\nvs batch simplification (Douglas-Peucker / SED) on the "
                "10 s workload:\n\n");
    std::printf("%-26s %12s %12s %16s\n", "method", "compression",
                "rmse (m)", "emission latency");

    // Online synopses.
    {
      synopses::SynopsesGenerator gen(synopses::SynopsesConfig::ForMaritime());
      std::unordered_map<uint64_t, std::vector<synopses::CriticalPoint>> syn;
      for (const Position& p : data.stream) {
        for (auto& cp : gen.Observe(p)) syn[cp.pos.entity_id].push_back(cp);
      }
      for (auto& cp : gen.Flush()) syn[cp.pos.entity_id].push_back(cp);
      double se = 0; size_t n = 0;
      for (const auto& traj : data.truth) {
        auto err = synopses::EvaluateReconstruction(traj,
                                                    syn[traj.entity_id]);
        se += err.rmse_m * err.rmse_m * traj.points.size();
        n += traj.points.size();
      }
      std::printf("%-26s %11.1f%% %12.0f %16s\n",
                  "Synopses Generator", 100.0 * gen.CompressionRatio(),
                  std::sqrt(se / n), "single pass");
    }

    // Batch baselines per epsilon.
    for (double eps : {200.0, 500.0, 1200.0}) {
      size_t raw = 0, kept_dp = 0, kept_sed = 0;
      double se_dp = 0, se_sed = 0;
      size_t n = 0;
      for (const auto& traj : data.truth) {
        raw += traj.points.size();
        auto dp = synopses::DouglasPeucker(traj.points, eps);
        auto sed = synopses::DouglasPeuckerSed(traj.points, eps);
        kept_dp += dp.size();
        kept_sed += sed.size();
        auto wrap = [](const std::vector<Position>& pts) {
          std::vector<synopses::CriticalPoint> out;
          for (const Position& p : pts) {
            out.push_back({p, synopses::CriticalPointType::kStart});
          }
          return out;
        };
        auto err_dp = synopses::EvaluateReconstruction(traj, wrap(dp));
        auto err_sed = synopses::EvaluateReconstruction(traj, wrap(sed));
        se_dp += err_dp.rmse_m * err_dp.rmse_m * traj.points.size();
        se_sed += err_sed.rmse_m * err_sed.rmse_m * traj.points.size();
        n += traj.points.size();
      }
      std::printf("%-26s %11.1f%% %12.0f %16s\n",
                  StrFormat("Douglas-Peucker eps=%.0f", eps).c_str(),
                  100.0 * (1.0 - static_cast<double>(kept_dp) / raw),
                  std::sqrt(se_dp / n), "full trajectory");
      std::printf("%-26s %11.1f%% %12.0f %16s\n",
                  StrFormat("DP-SED eps=%.0f", eps).c_str(),
                  100.0 * (1.0 - static_cast<double>(kept_sed) / raw),
                  std::sqrt(se_sed / n), "full trajectory");
    }
    std::printf("\n(batch methods buy accuracy with full-trajectory "
                "latency; the single-pass generator keeps pace with the "
                "stream — the Section 4.2.2 design argument)\n");
  }

  // --- The same workload as a dataflow job on the stream substrate:
  // source -> in-situ cleaning -> keyed synopses (4 workers) -> sink,
  // run once record-at-a-time and once on the batched transport
  // (BatchPolicy::Batched(64)); the per-stage StageMetrics report makes
  // backpressure visible and the two rows quantify what batch transfer
  // amortization buys on a real keyed workload. ---
  {
    datagen::VesselSimConfig config;
    config.vessel_count = 30;
    config.duration_ms = 12 * kMillisPerHour;
    config.report_interval_ms = 5000;
    config.position_noise_m = 10.0;
    Rng rng(5);
    auto ports = datagen::MakePorts(rng, config.extent, 10);
    datagen::VesselSimulator sim(config, ports, {}, nullptr);
    auto data = sim.Run();

    insitu::StreamCleaner::Options clean_options;
    clean_options.extent = config.extent;

    struct Mode {
      const char* name;
      stream::BatchPolicy policy;
    };
    const Mode kModes[] = {
        {"record-at-a-time", stream::BatchPolicy::Single()},
        {"batched(64)", stream::BatchPolicy::Batched(64)},
    };
    constexpr int kReps = 3;  // keep the best rep: least scheduler noise
    size_t last_critical = 0;
    std::string last_report;
    std::printf(
        "\nas a dataflow job (source -> insitu.clean -> synopses x4 -> "
        "sink, best of %d):\n", kReps);
    for (const Mode& mode : kModes) {
      double best_seconds = 0.0;
      size_t critical = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        stream::Pipeline pipeline;
        critical = 0;
        auto start = std::chrono::steady_clock::now();
        // The source's policy is inherited by every downstream stage.
        auto source = stream::Flow<Position>::FromVector(
            &pipeline, data.stream,
            {.name = "source", .capacity = 512, .batch = mode.policy});
        synopses::SynopsesStage(
            insitu::CleaningStage(source, clean_options, {.capacity = 512}),
            synopses::SynopsesConfig::ForMaritime(), /*parallelism=*/4,
            {.capacity = 512})
            .Sink(
                [&critical](const synopses::CriticalPoint&) { ++critical; });
        pipeline.Run();
        double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (best_seconds == 0.0 || seconds < best_seconds) {
          best_seconds = seconds;
        }
        last_report = pipeline.ReportString();
      }
      std::printf("  %-18s %zu raw -> %zu critical in %.2f s (%.0f msgs/s)\n",
                  mode.name, data.stream.size(), critical, best_seconds,
                  data.stream.size() / best_seconds);
      if (last_critical != 0 && critical != last_critical) {
        std::printf("  WARNING: batched output diverges from "
                    "record-at-a-time (%zu != %zu)\n",
                    critical, last_critical);
      }
      last_critical = critical;
    }
    std::printf("\n%s", last_report.c_str());
  }

  std::printf(
      "\npaper: ~80%% reduction at low/moderate rates, up to 99%% at very\n"
      "frequent position reports, without harming synopsis quality.\n");
  return 0;
}
