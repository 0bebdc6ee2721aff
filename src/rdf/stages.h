#ifndef TCMF_RDF_STAGES_H_
#define TCMF_RDF_STAGES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rdf/rdfgen.h"
#include "rdf/semantic_trajectory.h"
#include "stream/pipeline.h"
#include "stream/record.h"
#include "synopses/critical_points.h"

namespace tcmf::rdf {

/// Dataflow stage helpers gluing the RDF generation framework (Section
/// 4.2.3's RDFizers) into stream::Pipeline graphs, so enrichment runs at
/// stream rate behind the same batched transport as every other stage —
/// the fused alternative to batch TripleGenerator::Run.
/// Both helpers follow the unified `(flow, config, StageOptions)` stage
/// signature shared with the insitu/synopses/mlog helpers.

/// 1:N stage: instantiates `tmpl` over `vars` for every record —
/// the streaming form of TripleGenerator (one record in, its template
/// triples out). `stage.name` defaults to "rdf.generate"; the batch
/// policy defaults to the upstream Flow's (see docs/STREAM_TUNING.md).
/// Pair with store::KgStoreSink to stream-populate a KnowledgeStore.
inline stream::Flow<Triple> TripleGeneratorStage(
    stream::Flow<stream::Record> flow, GraphTemplate tmpl,
    VariableVector vars, stream::StageOptions stage = {}) {
  auto generator = std::make_shared<TripleGenerator>(std::move(tmpl),
                                                     std::move(vars));
  if (stage.name.empty()) stage.name = "rdf.generate";
  return flow.FlatMap<Triple>(
      [generator = std::move(generator)](const stream::Record& r) {
        return generator->GenerateOne(r);
      },
      std::move(stage));
}

/// Keyed stage: accumulates each entity's critical points (per-key order
/// is the synopses' emission order, i.e. time order) and materializes the
/// datAcron structured-trajectory pattern at end-of-stream via
/// BuildSemanticTrajectory's sink form — Trajectory/TrajectoryPart/
/// SemanticNode triples flow straight into the output edge with no
/// intermediate graph. `prefix` mints IRIs; `stage.name` defaults to
/// "rdf.trajectory"; the upstream Flow's batch policy by default.
namespace internal {

/// Per-entity accumulation of critical points for the trajectory builder.
using TrajectoryState = std::vector<synopses::CriticalPoint>;

inline stream::KeyedProcessFn<synopses::CriticalPoint, Triple,
                              TrajectoryState>
TrajectoryProcess() {
  return [](const synopses::CriticalPoint& cp, TrajectoryState& state,
            const std::function<void(Triple)>&) { state.push_back(cp); };
}

inline stream::KeyedFlushFn<Triple, TrajectoryState> TrajectoryFlush(
    std::string prefix) {
  return [prefix = std::move(prefix)](
             uint64_t key, TrajectoryState& state,
             const std::function<void(Triple)>& emit) {
    BuildSemanticTrajectory(prefix, key, state,
                            [&emit](const Triple& t) { emit(t); });
  };
}

}  // namespace internal

inline stream::Flow<Triple> SemanticTrajectoryStage(
    stream::Flow<synopses::CriticalPoint> flow, std::string prefix,
    stream::StageOptions stage = {}) {
  if (stage.name.empty()) stage.name = "rdf.trajectory";
  return flow.KeyedProcess<Triple, internal::TrajectoryState>(
      [](const synopses::CriticalPoint& cp) { return cp.pos.entity_id; },
      internal::TrajectoryProcess(),
      internal::TrajectoryFlush(std::move(prefix)), std::move(stage));
}

/// Fused-chain form: terminates a fused stateless prefix (e.g. a synopsis
/// post-filter composed with `flow.Fuse()`) directly in the trajectory
/// keyed stage; with `parallelism > 1` entities are hash-partitioned
/// across workers and the prefix runs inside the partition router.
template <typename In>
stream::Flow<Triple> SemanticTrajectoryStage(
    stream::FusedChain<In, synopses::CriticalPoint> chain, std::string prefix,
    size_t parallelism = 1, stream::StageOptions stage = {}) {
  if (stage.name.empty()) stage.name = "rdf.trajectory";
  return chain.template KeyedProcessParallel<Triple,
                                             internal::TrajectoryState>(
      [](const synopses::CriticalPoint& cp) { return cp.pos.entity_id; },
      internal::TrajectoryProcess(),
      parallelism, internal::TrajectoryFlush(std::move(prefix)),
      std::move(stage));
}

}  // namespace tcmf::rdf

#endif  // TCMF_RDF_STAGES_H_
