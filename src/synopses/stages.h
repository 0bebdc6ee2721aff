#ifndef TCMF_SYNOPSES_STAGES_H_
#define TCMF_SYNOPSES_STAGES_H_

#include <memory>
#include <utility>

#include "stream/pipeline.h"
#include "synopses/critical_points.h"

namespace tcmf::synopses {

/// Runs the Synopses Generator as a keyed operator on the stream
/// substrate: positions are partitioned by entity id and each key owns a
/// private generator instance (parallelism-safe state, the Flink
/// keyed-stream execution model). Open synopses flush at end-of-stream.
///
/// Stage configuration follows the unified `(flow, config, StageOptions,
/// ...)` helper signature: `stage.name` defaults to "synopses" and
/// `stage.batch` to the upstream Flow's policy, which then governs the
/// input, partition and output edges alike. With parallelism > 1 every
/// router→worker partition edge is reported as the stage row's
/// `worker_edges` (with `skew_ratio`) in ReportJson (see
/// docs/STREAM_TUNING.md).
namespace internal {

struct SynopsesState {
  std::unique_ptr<SynopsesGenerator> gen;
};

inline stream::KeyedProcessFn<Position, CriticalPoint, SynopsesState>
SynopsesProcess(const SynopsesConfig& config) {
  return [config](const Position& p, SynopsesState& state,
                  const std::function<void(CriticalPoint)>& emit) {
    if (!state.gen) {
      state.gen = std::make_unique<SynopsesGenerator>(config);
    }
    for (auto& cp : state.gen->Observe(p)) emit(std::move(cp));
  };
}

inline stream::KeyedFlushFn<CriticalPoint, SynopsesState> SynopsesFlush() {
  return [](uint64_t, SynopsesState& state,
            const std::function<void(CriticalPoint)>& emit) {
    if (!state.gen) return;
    for (auto& cp : state.gen->Flush()) emit(std::move(cp));
  };
}

}  // namespace internal

inline stream::Flow<CriticalPoint> SynopsesStage(
    stream::Flow<Position> flow, const SynopsesConfig& config,
    size_t parallelism = 1, stream::StageOptions stage = {}) {
  if (stage.name.empty()) stage.name = "synopses";
  return flow.KeyedProcessParallel<CriticalPoint, internal::SynopsesState>(
      [](const Position& p) { return p.entity_id; },
      internal::SynopsesProcess(config), parallelism,
      internal::SynopsesFlush(), std::move(stage));
}

/// Fused-chain form: terminates a fused stateless prefix (e.g. in-situ
/// cleaning composed with `flow.Fuse()`) directly in the synopses keyed
/// stage — the prefix runs inside the partition router, so detection →
/// synopsis costs zero channel crossings up to the keyed boundary.
template <typename In>
stream::Flow<CriticalPoint> SynopsesStage(
    stream::FusedChain<In, Position> chain, const SynopsesConfig& config,
    size_t parallelism = 1, stream::StageOptions stage = {}) {
  if (stage.name.empty()) stage.name = "synopses";
  return chain.template KeyedProcessParallel<CriticalPoint,
                                             internal::SynopsesState>(
      [](const Position& p) { return p.entity_id; },
      internal::SynopsesProcess(config), parallelism,
      internal::SynopsesFlush(), std::move(stage));
}

}  // namespace tcmf::synopses

#endif  // TCMF_SYNOPSES_STAGES_H_
