#ifndef TCMF_STORE_STAGES_H_
#define TCMF_STORE_STAGES_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "store/kgstore.h"
#include "stream/pipeline.h"

namespace tcmf::store {

/// Terminal stage: drains a Flow<rdf::Triple> into `*store` — the glue
/// that lets rdf::TripleGeneratorStage / rdf::SemanticTrajectoryStage
/// stream-populate the knowledge store (Figure 2's RDFizer → RDF store
/// edge) instead of materializing triples and bulk-loading. The drain
/// uses the channel's batched pop (batch size = `stage.batch`'s max_batch,
/// default Batched(256)), so ingesting a batch costs one lock
/// acquisition per available chunk, mirroring mlog::LogSink.
///
/// Registers a `stage.name` stage (default "store.kgsink") whose
/// snapshot splices the store's cumulative StoreCounters into the kg_*
/// StageMetrics fields — this is the fix that makes star-query and
/// ingest work visible through Pipeline::ReportJson when the store is
/// driven from a pipeline (per-query StarQueryMetrics never reach the
/// report). records_in mirrors kg_triples_added so the stage table shows
/// ingest volume in its usual column.
///
/// The store must outlive the pipeline run. Ingestion is single-writer
/// (this stage's thread); call store->Compile() after the pipeline
/// completes, then query. Concurrent CountersSnapshot is safe.
inline void KgStoreSink(stream::Flow<rdf::Triple> flow, KnowledgeStore* store,
                        stream::StageOptions stage = {}) {
  stream::Pipeline* pipeline = flow.pipeline();
  if (stage.name.empty()) stage.name = "store.kgsink";
  pipeline->RegisterStage(std::move(stage.name), [store] {
    stream::StageMetrics m;
    const StoreCounters c = store->CountersSnapshot();
    m.kg = true;
    m.kg_triples_added = c.triples_added;
    m.kg_star_queries = c.star_queries;
    m.kg_star_rows = c.star_rows;
    m.kg_triples_scanned = c.triples_scanned;
    m.kg_st_filter_evaluations = c.st_filter_evaluations;
    m.records_in = c.triples_added;
    return m;
  });
  auto in = flow.channel();
  const size_t batch_size = std::max<size_t>(
      1, stage.batch.value_or(stream::BatchPolicy::Batched(256)).max_batch);
  pipeline->AddThread([in, store, batch_size] {
    std::vector<rdf::Triple> batch;
    batch.reserve(batch_size);
    while (true) {
      if (in->PopBatch(&batch, batch_size - batch.size()) == 0) break;
      if (batch.size() < batch_size) continue;
      for (const rdf::Triple& t : batch) store->Add(t);
      batch.clear();
    }
    for (const rdf::Triple& t : batch) store->Add(t);
  });
}

}  // namespace tcmf::store

#endif  // TCMF_STORE_STAGES_H_
