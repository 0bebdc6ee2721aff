// The paper's Figure 2 real-time chain, built from the layers' public
// APIs: clean -> CPA -> synopses -> link discovery -> RDF -> store, with
// per-entity CEP behind the store. Fed either open-loop through an mlog
// topic (surveillance_steady) or from memory as fast as it accepts
// records (replay_saturate). RunDirect replays the same inputs through
// direct single-threaded calls: it is both the correctness oracle and
// the baseline `stream.direct_rps` is measured on.

#ifndef TCMF_PERFBENCH_CHAIN_H_
#define TCMF_PERFBENCH_CHAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cep/forecast.h"
#include "geom/geometry.h"
#include "geom/stcell.h"
#include "inputs.h"
#include "linkdiscovery/linker.h"
#include "mlog/partitioned.h"
#include "prediction/cpa.h"
#include "rdf/rdfgen.h"
#include "stream/metrics.h"
#include "synopses/critical_points.h"
#include "trace.h"

namespace perfbench {

/// Everything the layers are configured with, derived from the input's
/// extent and the seed. Shared by the chain and the direct replay.
struct LayerSetup {
  LayerSetup(const InputSet& inputs, uint64_t seed);

  tcmf::prediction::CpaScreenOptions cpa_sea;
  tcmf::prediction::CpaScreenOptions cpa_air;
  tcmf::linkdiscovery::LinkerConfig linker;
  std::vector<tcmf::geom::Area> regions;
  tcmf::geom::StCellEncoder encoder;
  tcmf::cep::Dfa dfa;
  tcmf::cep::MarkovInputModel input_model;
  tcmf::cep::WayebEngine::Options cep;
  tcmf::rdf::TripleGenerator position_rdf;
  tcmf::rdf::TripleGenerator weather_rdf;

  /// Triples of one critical point: the position template (plus its
  /// st-cell) and one triple per discovered link.
  std::vector<tcmf::rdf::Triple> CpTriples(
      const tcmf::Position& pos,
      const std::vector<tcmf::linkdiscovery::Link>& links) const;
};

struct ChainOptions {
  bool open_loop = true;  ///< Poisson producer -> mlog -> chain; else replay
  double rate_per_s = 0;  ///< open loop only
  double seconds = 0;     ///< open loop: injection window
  uint64_t records = 0;   ///< replay: records to inject
  uint64_t seed = 0;      ///< arrival schedule seed
};

/// Threads the chain runs on (the producer included, for the open loop).
size_t ChainThreadCount(bool open_loop);

struct WarningRec {
  uint64_t a = 0, b = 0;
  tcmf::TimeMs at = 0;
  bool operator==(const WarningRec&) const = default;
};
struct LinkRec {
  uint64_t cp = 0, object = 0;
  uint8_t relation = 0;
  bool object_is_entity = false;
  bool operator==(const LinkRec&) const = default;
};
struct CpRec {
  uint64_t cp = 0;
  tcmf::TimeMs t = 0;
  uint8_t type = 0;
  bool operator==(const CpRec&) const = default;
};

/// What one chain run measured and produced.
struct ChainResult {
  uint64_t injected = 0;  ///< records handed to the chain
  uint64_t append_errors = 0, gaps = 0, dups = 0, lost = 0;
  double run_s = 0;       ///< first record due -> chain drained
  std::vector<double> screen_ms, fresh_ms;
  size_t threads = 0;

  // Recorded consumption orders and outputs, for the oracle.
  std::vector<uint64_t> cpa_order;  ///< seqs, as the CPA stage took them
  std::vector<WarningRec> warnings;
  std::vector<CpRec> cps;           ///< as the link stage took them
  std::vector<LinkRec> links;
  uint64_t detections = 0, forecasts = 0;
  size_t triples = 0;

  // Layer counters.
  uint64_t clean_calls = 0, clean_accepted = 0;
  uint64_t cpa_pairs = 0;
  uint64_t synopses_calls = 0;
  tcmf::linkdiscovery::LinkerStats linker;
  uint64_t rdf_calls = 0, rdf_triples = 0;
  uint64_t cep_calls = 0;
  std::vector<tcmf::stream::StageMetrics> stages;

  // Open-loop generator and mlog.
  std::vector<double> gen_late_ms, append_us;
  std::vector<std::pair<double, double>> backlog;  ///< (s, records)
  uint64_t polls = 0, empty_polls = 0, polled = 0, bytes_appended = 0;
};

/// Builds the chain (threads start, parked at the source until Run) —
/// the part of set-up after input generation. `topic` is required for
/// the open loop, has one partition, and must outlive the chain. Every
/// keyed stage runs one worker.
class Chain {
 public:
  Chain(const InputSet& inputs, const LayerSetup& layers,
        const ChainOptions& options, tcmf::mlog::PartitionedLog* topic,
        Tracer* tracer);
  ~Chain();
  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  /// Injects for `options.seconds` (open loop) or `options.records`
  /// records (replay), drains, and returns the results.
  ChainResult Run();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

struct DirectResult {
  double seconds = 0;
  std::string mismatch;  ///< "" = every output equal
};

/// Single-threaded replay of the chain's first `result.injected` inputs
/// through direct layer calls: per-entity layers in per-key order, CPA
/// and link discovery in the exact order the chain's stages consumed.
DirectResult RunDirect(const InputSet& inputs, const LayerSetup& layers,
                       const ChainResult& result);

}  // namespace perfbench

#endif  // TCMF_PERFBENCH_CHAIN_H_
