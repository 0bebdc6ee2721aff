#ifndef TCMF_INSITU_STAGES_H_
#define TCMF_INSITU_STAGES_H_

#include <memory>
#include <utility>

#include "insitu/lowlevel.h"
#include "stream/pipeline.h"

namespace tcmf::insitu {

/// In-situ processing stage helpers — the first hop of the Figure-2
/// pipeline. Downstream, the same `(flow, config, StageOptions)` family
/// continues through synopses (critical points), rdf/stages.h (template
/// enrichment, semantic trajectories) and store/stages.h (KgStoreSink
/// into the knowledge store), so a full detect→enrich→store chain
/// composes from these helpers alone.

/// Wraps StreamCleaner as a dataflow stage on the stream substrate:
/// forwards only reports the online cleaner classifies kOk. The cleaner
/// instance runs inside the single stage thread (no locking needed); pass
/// `cleaner_out` to keep a handle for post-run accept/reject stats.
///
/// Stage configuration follows the unified `(flow, config, StageOptions,
/// ...)` helper signature: `stage.name` defaults to "insitu.clean" and
/// `stage.batch` to the upstream Flow's policy, like the Filter it wraps
/// (set the policy once at the source; see docs/STREAM_TUNING.md).
inline stream::Flow<Position> CleaningStage(
    stream::Flow<Position> flow, const StreamCleaner::Options& options,
    stream::StageOptions stage = {},
    std::shared_ptr<StreamCleaner>* cleaner_out = nullptr) {
  auto cleaner = std::make_shared<StreamCleaner>(options);
  if (cleaner_out) *cleaner_out = cleaner;
  if (stage.name.empty()) stage.name = "insitu.clean";
  return flow.Filter(
      [cleaner = std::move(cleaner)](const Position& p) {
        return cleaner->Observe(p) == CleanVerdict::kOk;
      },
      std::move(stage));
}

/// Wraps AreaTransitionDetector as a 1:N dataflow stage: each position
/// expands to the area entry/exit events it triggers. `stage.name`
/// defaults to "insitu.area_events"; the upstream Flow's batch policy
/// by default, like CleaningStage.
inline stream::Flow<AreaEvent> AreaEventStage(
    stream::Flow<Position> flow, std::vector<geom::Area> areas,
    const geom::BBox& extent, stream::StageOptions stage = {}) {
  auto detector = std::make_shared<AreaTransitionDetector>(std::move(areas),
                                                           extent);
  if (stage.name.empty()) stage.name = "insitu.area_events";
  return flow.FlatMap<AreaEvent>(
      [detector = std::move(detector)](const Position& p) {
        return detector->Observe(p);
      },
      std::move(stage));
}

}  // namespace tcmf::insitu

#endif  // TCMF_INSITU_STAGES_H_
