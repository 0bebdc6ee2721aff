// The kg_query workload: a store built by enriching every cleaned report
// of a dense fleet, then a closed loop of seeded star queries.

#ifndef TCMF_PERFBENCH_KG_QUERY_H_
#define TCMF_PERFBENCH_KG_QUERY_H_

#include <sched.h>

#include <memory>
#include <string>
#include <vector>

#include "chain.h"
#include "store/kgstore.h"
#include "trace.h"

namespace perfbench {

struct KgStore {
  std::unique_ptr<tcmf::store::KnowledgeStore> store;
  double add_ms = 0;      ///< time inside KnowledgeStore::Add
  double compile_ms = 0;  ///< time inside KnowledgeStore::Compile
};

/// Cleans every report (one StreamCleaner) and adds the RDF of every
/// accepted report and weather cell, then compiles.
KgStore BuildKgStore(const InputSet& inputs, const LayerSetup& layers);

struct KgQuery {
  tcmf::store::StarQuery query;
  tcmf::store::StarPlan plan = tcmf::store::StarPlan::kAdjacencyIndex;
};

/// `n` distinct 2–4-predicate star queries: half unconstrained, half
/// within an st box from selective to broad. The plan follows docs/KG_STORE.md §6:
/// the pushdown plan when the box is selective (keeps under 1% of the
/// st volume), else the adjacency plan.
std::vector<KgQuery> MakeQueries(const tcmf::store::KnowledgeStore& store,
                                 const InputSet& inputs, uint64_t seed,
                                 size_t n);

/// Checks each query's rows against the kTriplesTableScan plan; "" when
/// every query agrees.
std::string CheckQueries(const tcmf::store::KnowledgeStore& store,
                         const std::vector<KgQuery>& queries);

struct KgRunResult {
  std::vector<double> latency_ms;        ///< every RunStar call
  std::vector<double> round_geomean_ms;  ///< per round of every query
  std::vector<double> round_s;           ///< wall time of each round
  std::vector<double> round_steal;       ///< steal share during each round
  double run_s = 0;
  double adjacency_ms = 0, pushdown_ms = 0;
  uint64_t rows = 0, scanned = 0, candidates = 0, st_evals = 0;
};

/// Moves the calling thread over the CPUs it may run on, one at a time.
/// A single-threaded measurement then samples every vCPU of a shared host
/// in every run, instead of whichever one the scheduler kept it on: on
/// the 4-vCPU VM this was tuned on, one vCPU at a time (whose SMT sibling
/// was busy on the host, presumably) ran the query loop up to 40% slower
/// than the others. Restores the thread's CPU set when destroyed; does
/// nothing where affinity cannot be read or set. Create no thread while
/// it is pinned: new threads inherit the pin.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU, round-robin.
  void Next();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// One client thread running rounds of every query in `queries` (each
/// round in a fresh seeded order, on the next CPU of `cpus`) until
/// `seconds` have passed; always at least one round, and never a partial
/// one.
KgRunResult RunQueries(const tcmf::store::KnowledgeStore& store,
                       const std::vector<KgQuery>& queries, double seconds,
                       uint64_t seed, CpuRotation* cpus, Tracer* tracer);

}  // namespace perfbench

#endif  // TCMF_PERFBENCH_KG_QUERY_H_
