// Differential equivalence harness for the batched channel transport and
// operator fusion (the correctness lock for PushBatch/PopBatch +
// BatchPolicy + Flow::Fuse): seeded random operator graphs over simulated
// vessel records are executed several ways — one record per transfer
// (Single), batched with a timed linger, and fused+batched with a linger
// longer than the run (batches leave only when full or at the end) —
// across batch sizes {1, 7, 64, 1024}, channel capacities {1, 2, 1024}
// and worker counts, and every execution must produce the exact same
// output multiset. Batch boundaries and linger-driven flush timing are
// implementation details; if they ever become observable, these tests
// fail.
//
// Also: shutdown/cancellation stress under batching (sink cancels
// mid-batch, source closes mid-linger, parallel keyed teardown) — the PR 1
// shutdown contract must survive the batched transport.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "stream/channel.h"
#include "stream/pipeline.h"
#include "stream/sharded.h"

namespace tcmf::stream {
namespace {

// A linger longer than any run here: batches leave only when full or at
// end of stream.
constexpr int64_t kLingerPastRunMs = 60000;

// A simulated vessel record: entity id, event time, measured value.
struct VRec {
  uint64_t id = 0;
  int64_t t = 0;
  double v = 0.0;
};

bool VRecLess(const VRec& a, const VRec& b) {
  return std::tie(a.id, a.t, a.v) < std::tie(b.id, b.t, b.v);
}

bool VRecEq(const VRec& a, const VRec& b) {
  // Exact comparison is intentional: the same per-key fold order must
  // yield bit-identical doubles in every execution mode.
  return a.id == b.id && a.t == b.t && a.v == b.v;
}

/// Canonical multiset form: sorted by (id, t, v).
std::vector<VRec> Canon(std::vector<VRec> v) {
  std::sort(v.begin(), v.end(), VRecLess);
  return v;
}

/// Vessel-ish input: per-key mostly-increasing event times with
/// occasional backward jitter (exercises window late-drops identically in
/// every mode, since lateness is per-key and per-key order is preserved).
std::vector<VRec> MakeVesselRecords(uint64_t seed, size_t n) {
  Rng rng(seed);
  const uint64_t keys = 1 + static_cast<uint64_t>(rng.UniformInt(0, 15));
  std::vector<int64_t> clock(keys, 0);
  std::vector<VRec> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    VRec r;
    r.id = static_cast<uint64_t>(rng.UniformInt(0, static_cast<int>(keys) - 1));
    int64_t step = rng.UniformInt(-1500, 4000);
    clock[r.id] = std::max<int64_t>(0, clock[r.id] + step);
    r.t = clock[r.id];
    r.v = rng.Uniform(0.0, 10.0);
    out.push_back(r);
  }
  return out;
}

// ------------------------------------------------- random operator graphs

enum class OpKind { kMap, kFilter, kFlatMap, kKeyed, kKeyedPar, kWindow };

struct OpSpec {
  OpKind kind;
  int a = 0;  // filter modulus / parallelism / window_ms
  int b = 0;  // window lateness_ms
};

bool Stateless(OpKind k) {
  return k == OpKind::kMap || k == OpKind::kFilter || k == OpKind::kFlatMap;
}

std::vector<OpSpec> RandomGraph(uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  const int len = rng.UniformInt(2, 6);
  std::vector<OpSpec> ops;
  for (int i = 0; i < len; ++i) {
    OpSpec op;
    switch (rng.UniformInt(0, 5)) {
      case 0: op.kind = OpKind::kMap; break;
      case 1:
        op.kind = OpKind::kFilter;
        op.a = rng.UniformInt(2, 4);
        break;
      case 2: op.kind = OpKind::kFlatMap; break;
      case 3: op.kind = OpKind::kKeyed; break;
      case 4:
        op.kind = OpKind::kKeyedPar;
        op.a = rng.UniformInt(2, 4);
        break;
      default:
        op.kind = OpKind::kWindow;
        op.a = rng.UniformInt(0, 1) ? 5000 : 20000;
        op.b = rng.UniformInt(0, 1) ? 0 : 2000;
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

// The per-op transforms — shared verbatim by the unfused and fused
// builders so the only difference under test is the execution strategy.
VRec MapFn(const VRec& r) { return VRec{r.id, r.t, r.v * 1.5 + r.id}; }

bool FilterFn(int m, const VRec& r) {
  return (static_cast<uint64_t>(r.t) + r.id) % static_cast<uint64_t>(m) != 0;
}

std::vector<VRec> FlatMapFn(const VRec& r) {
  std::vector<VRec> out;
  const int64_t copies = r.t % 3;
  for (int64_t i = 0; i < copies; ++i) {
    out.push_back(VRec{r.id, r.t + i, r.v + static_cast<double>(i)});
  }
  return out;
}

struct WinAcc {
  double sum = 0.0;
  uint64_t n = 0;
};

uint64_t KeyFn(const VRec& r) { return r.id; }

// The keyed running-sum fold — shared verbatim by the plain, two-hop and
// fused-keyed constructions so only the execution strategy differs.
void KeyedSumFn(const VRec& r, double& sum,
                const std::function<void(VRec)>& emit) {
  sum += r.v;
  emit(VRec{r.id, r.t, sum});
}

Flow<VRec> ApplyStateful(Flow<VRec> flow, const OpSpec& op,
                         const StageOptions& base) {
  switch (op.kind) {
    case OpKind::kKeyed:
      return flow.KeyedProcess<VRec, double>(KeyFn, KeyedSumFn, nullptr,
                                             StageOptions(base));
    case OpKind::kKeyedPar:
      return flow.KeyedProcessParallel<VRec, double>(
          KeyFn, KeyedSumFn, static_cast<size_t>(op.a), nullptr,
          StageOptions(base));
    case OpKind::kWindow: {
      using Result = std::pair<uint64_t,
                               TumblingWindower<VRec, WinAcc>::WindowResult>;
      return flow
          .KeyedTumblingWindow<WinAcc>(
              [](const VRec& r) { return r.id; },
              [](const VRec& r) { return static_cast<TimeMs>(r.t); },
              op.a, op.b,
              [](WinAcc& acc, const VRec& r, TimeMs) {
                acc.sum += r.v;
                ++acc.n;
              },
              StageOptions(base))
          .Map<VRec>(
              [](const Result& w) {
                return VRec{w.first, static_cast<int64_t>(w.second.window_start),
                            w.second.value.sum +
                                static_cast<double>(w.second.value.n)};
              },
              StageOptions(base));
    }
    default:
      ADD_FAILURE() << "stateless op routed to ApplyStateful";
      return flow;
  }
}

Flow<VRec> ApplyStatelessOp(Flow<VRec> flow, const OpSpec& op,
                            const StageOptions& base) {
  switch (op.kind) {
    case OpKind::kMap:
      return flow.Map<VRec>(MapFn, StageOptions(base));
    case OpKind::kFilter: {
      const int m = op.a;
      return flow.Filter([m](const VRec& r) { return FilterFn(m, r); },
                         StageOptions(base));
    }
    default:
      return flow.FlatMap<VRec>(FlatMapFn, StageOptions(base));
  }
}

/// Extends a fused chain with one stateless op (same transforms as
/// ApplyStatelessOp, fused spelling).
FusedChain<VRec, VRec> FuseOp(FusedChain<VRec, VRec> chain,
                              const OpSpec& op) {
  switch (op.kind) {
    case OpKind::kMap:
      return chain.Map<VRec>(MapFn);
    case OpKind::kFilter: {
      const int m = op.a;
      return chain.Filter([m](const VRec& r) { return FilterFn(m, r); });
    }
    default:
      return chain.FlatMap<VRec>(FlatMapFn);
  }
}

/// Fuses a maximal run of stateless ops into one stage.
Flow<VRec> ApplyFusedRun(Flow<VRec> flow, const std::vector<OpSpec>& ops,
                         size_t begin, size_t end, const StageOptions& base) {
  FusedChain<VRec, VRec> chain = flow.Fuse();
  for (size_t i = begin; i < end; ++i) chain = FuseOp(chain, ops[i]);
  return chain.Emit(StageOptions(base));
}

/// Threads `flow` through every op in `ops`. Shared by the single-pipeline
/// and sharded runners so the graph under test is identical in both.
Flow<VRec> BuildGraph(Flow<VRec> flow, const std::vector<OpSpec>& ops,
                      const StageOptions& base, bool fuse) {
  size_t i = 0;
  while (i < ops.size()) {
    if (Stateless(ops[i].kind)) {
      if (fuse) {
        size_t j = i;
        while (j < ops.size() && Stateless(ops[j].kind)) ++j;
        flow = ApplyFusedRun(flow, ops, i, j, base);
        i = j;
      } else {
        flow = ApplyStatelessOp(flow, ops[i], base);
        ++i;
      }
    } else {
      flow = ApplyStateful(flow, ops[i], base);
      ++i;
    }
  }
  return flow;
}

/// Executes the operator graph over `input` and returns the canonical
/// output multiset. `fuse` replaces maximal stateless runs with fused
/// single-thread stages. `base` carries the per-edge capacity under
/// test; its `batch` and `name` fields are ignored — the transport
/// policy comes from `policy` (set on the source edge and inherited
/// downstream) and names stay auto-assigned so the shutdown tests'
/// "source#0" lookups keep working.
std::vector<VRec> RunGraph(const std::vector<OpSpec>& ops,
                           const std::vector<VRec>& input, BatchPolicy policy,
                           StageOptions base, bool fuse) {
  Pipeline pipeline;
  std::vector<VRec> out;
  base.name.clear();
  StageOptions source = base;
  source.batch = policy;
  base.batch.reset();  // downstream edges inherit the source policy
  Flow<VRec> flow = BuildGraph(
      Flow<VRec>::FromVector(&pipeline, input, std::move(source)), ops, base,
      fuse);
  flow.CollectInto(&out);
  pipeline.Run();
  return Canon(std::move(out));
}

/// Scale-out execution: scatters the input by the same key hash
/// PartitionedLog producers use (Mix64 of the entity id), runs one
/// independent copy of the operator graph per shard under a
/// ShardedPipeline, and merges the per-shard outputs. Because every
/// operator in the graph keys by `id` (and ids survive every transform),
/// per-key state and fold order are untouched by the scatter — the merged
/// multiset must be bit-identical to the single-pipeline run.
std::vector<VRec> RunGraphSharded(const std::vector<OpSpec>& ops,
                                  const std::vector<VRec>& input,
                                  size_t shards, BatchPolicy policy,
                                  StageOptions base, bool fuse) {
  base.name.clear();
  std::vector<std::vector<VRec>> scattered(shards);
  for (const VRec& r : input) {
    scattered[HashPartition(r.id, shards)].push_back(r);
  }
  ShardedPipeline sp(shards, base);
  std::vector<std::vector<VRec>> outs(shards);
  sp.Build([&](Pipeline* pipeline, size_t shard) {
    StageOptions source = base;
    source.batch = policy;
    StageOptions edge = base;
    edge.batch.reset();  // downstream edges inherit the source policy
    Flow<VRec> flow = BuildGraph(
        Flow<VRec>::FromVector(pipeline, scattered[shard], std::move(source)),
        ops, edge, fuse);
    flow.CollectInto(&outs[shard]);
  });
  sp.Run();
  std::vector<VRec> merged;
  for (std::vector<VRec>& out : outs) {
    merged.insert(merged.end(), out.begin(), out.end());
  }
  return Canon(std::move(merged));
}

/// Positional convenience used by the static-capacity sweeps.
std::vector<VRec> RunGraph(const std::vector<OpSpec>& ops,
                           const std::vector<VRec>& input, BatchPolicy policy,
                           size_t capacity, bool fuse) {
  StageOptions base;
  base.capacity = capacity;
  return RunGraph(ops, input, policy, std::move(base), fuse);
}

void ExpectSameMultiset(const std::vector<VRec>& expected,
                        const std::vector<VRec>& actual, const char* label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(VRecEq(expected[i], actual[i]))
        << label << " diverges at canonical index " << i << ": expected ("
        << expected[i].id << "," << expected[i].t << "," << expected[i].v
        << ") got (" << actual[i].id << "," << actual[i].t << ","
        << actual[i].v << ")";
  }
}

// --------------------------------------------- the differential sweep

struct EquivParams {
  uint64_t seed;
  size_t batch;
  size_t capacity;
};

std::string ParamName(const testing::TestParamInfo<EquivParams>& info) {
  return "seed" + std::to_string(info.param.seed) + "_batch" +
         std::to_string(info.param.batch) + "_cap" +
         std::to_string(info.param.capacity);
}

class BatchEquivTest : public testing::TestWithParam<EquivParams> {};

TEST_P(BatchEquivTest, BatchedAndFusedMatchRecordAtATime) {
  const EquivParams p = GetParam();
  const std::vector<OpSpec> ops = RandomGraph(p.seed);
  const std::vector<VRec> input = MakeVesselRecords(p.seed, 1500);

  const std::vector<VRec> baseline =
      RunGraph(ops, input, BatchPolicy::Single(), p.capacity, false);
  // Batched with a short linger exercises the timed PopBatchFor path;
  // fused with a linger past the run flushes only when full or at the end.
  const std::vector<VRec> batched = RunGraph(
      ops, input, BatchPolicy::Batched(p.batch, 2), p.capacity, false);
  const std::vector<VRec> fused = RunGraph(
      ops, input, BatchPolicy::Batched(p.batch, kLingerPastRunMs), p.capacity, true);

  ExpectSameMultiset(baseline, batched, "batched");
  ExpectSameMultiset(baseline, fused, "fused+batched");
}

std::vector<EquivParams> SweepParams() {
  std::vector<EquivParams> params;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, size_t{1024}}) {
      for (size_t capacity : {size_t{1}, size_t{2}, size_t{1024}}) {
        params.push_back({seed, batch, capacity});
      }
    }
  }
  return params;  // 5 seeds x 4 batches x 3 capacities = 60 combinations
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchEquivTest,
                         testing::ValuesIn(SweepParams()), ParamName);

// ------------------------------------------ keyed-terminal fusion arms

enum class KeyedMode { kUnfused, kTwoHop, kFusedKeyed };

/// Threads `flow` through `ops` like BuildGraph, but whenever a maximal
/// stateless run is immediately followed by a kKeyedPar op the pair is
/// built per `mode`: every op its own stage (reference), Fuse()...Emit()
/// then KeyedProcessParallel (the two-hop differential reference — one
/// channel between fused stage and router), or the fused chain
/// terminating directly in KeyedProcessParallel (the prefix executes
/// inside the partition router; zero channels between source and
/// router). Runs not followed by a keyed stage fuse whenever
/// mode != kUnfused, same as BuildGraph.
Flow<VRec> BuildKeyedFuseGraph(Flow<VRec> flow, const std::vector<OpSpec>& ops,
                               const StageOptions& base, KeyedMode mode) {
  size_t i = 0;
  while (i < ops.size()) {
    if (!Stateless(ops[i].kind)) {
      flow = ApplyStateful(flow, ops[i], base);
      ++i;
      continue;
    }
    size_t j = i;
    while (j < ops.size() && Stateless(ops[j].kind)) ++j;
    const bool keyed_next = j < ops.size() && ops[j].kind == OpKind::kKeyedPar;
    if (mode == KeyedMode::kUnfused) {
      for (size_t k = i; k < j; ++k) {
        flow = ApplyStatelessOp(flow, ops[k], base);
      }
      i = j;
    } else if (keyed_next && mode == KeyedMode::kFusedKeyed) {
      FusedChain<VRec, VRec> chain = flow.Fuse();
      for (size_t k = i; k < j; ++k) chain = FuseOp(chain, ops[k]);
      flow = chain.KeyedProcessParallel<VRec, double>(
          KeyFn, KeyedSumFn, static_cast<size_t>(ops[j].a), nullptr,
          StageOptions(base));
      i = j + 1;  // the keyed op was absorbed into the fused terminal
    } else {
      flow = ApplyFusedRun(flow, ops, i, j, base);
      i = j;
    }
  }
  return flow;
}

/// RunGraph analogue for the keyed-terminal arms.
std::vector<VRec> RunKeyedGraph(const std::vector<OpSpec>& ops,
                                const std::vector<VRec>& input,
                                BatchPolicy policy, StageOptions base,
                                KeyedMode mode) {
  Pipeline pipeline;
  std::vector<VRec> out;
  base.name.clear();
  StageOptions source = base;
  source.batch = policy;
  base.batch.reset();  // downstream edges inherit the source policy
  Flow<VRec> flow = BuildKeyedFuseGraph(
      Flow<VRec>::FromVector(&pipeline, input, std::move(source)), ops, base,
      mode);
  flow.CollectInto(&out);
  pipeline.Run();
  return Canon(std::move(out));
}

/// Prefixes every random graph with a guaranteed stateless-run → keyed
/// boundary so all 60 sweep combinations exercise the fused-keyed
/// terminal; the random suffix then adds whatever shape the seed drew
/// (including further keyed boundaries when the dice land that way).
std::vector<OpSpec> KeyedFuseGraph(uint64_t seed) {
  std::vector<OpSpec> ops = {{OpKind::kMap},
                             {OpKind::kFilter, 3},
                             {OpKind::kFlatMap},
                             {OpKind::kKeyedPar, 3}};
  for (const OpSpec& op : RandomGraph(seed)) ops.push_back(op);
  return ops;
}

class KeyedFuseEquivTest : public testing::TestWithParam<EquivParams> {};

TEST_P(KeyedFuseEquivTest, FusedKeyedMatchesTwoHopAndUnfused) {
  const EquivParams p = GetParam();
  const std::vector<OpSpec> ops = KeyedFuseGraph(p.seed);
  const std::vector<VRec> input = MakeVesselRecords(p.seed, 1500);
  StageOptions cap;
  cap.capacity = p.capacity;

  const std::vector<VRec> baseline = RunKeyedGraph(
      ops, input, BatchPolicy::Single(), cap, KeyedMode::kUnfused);
  const std::vector<VRec> two_hop = RunKeyedGraph(
      ops, input, BatchPolicy::Batched(p.batch, 2), cap, KeyedMode::kTwoHop);
  const std::vector<VRec> fused_keyed =
      RunKeyedGraph(ops, input, BatchPolicy::Batched(p.batch, kLingerPastRunMs), cap,
                    KeyedMode::kFusedKeyed);

  ExpectSameMultiset(baseline, two_hop, "two-hop");
  ExpectSameMultiset(baseline, fused_keyed, "fused-keyed");
}

INSTANTIATE_TEST_SUITE_P(Sweep, KeyedFuseEquivTest,
                         testing::ValuesIn(SweepParams()), ParamName);

TEST(KeyedFuseOrderTest, FusedPrefixPreservesPerKeyOrder) {
  // Per-key sequence numbers strictly increase through a fused prefix
  // terminating in a 4-way keyed stage; any reordering between the
  // in-router prefix and a worker trips a violation. gtest assertions
  // are not thread-safe off the main thread, so workers count violations
  // in an atomic checked after Run().
  Pipeline pipeline;
  std::vector<VRec> input;
  input.reserve(30000);
  for (int64_t i = 0; i < 30000; ++i) {
    input.push_back(
        VRec{static_cast<uint64_t>(i % 17), i + 1, static_cast<double>(i)});
  }
  std::atomic<uint64_t> violations{0};
  size_t delivered = 0;
  Flow<VRec>::FromVector(
      &pipeline, input, {.capacity = 64, .batch = BatchPolicy::Batched(64, 1)})
      .Fuse()
      .Map<VRec>([](const VRec& r) { return VRec{r.id, r.t, r.v + 1.0}; })
      .Filter([](const VRec&) { return true; })
      .KeyedProcessParallel<VRec, int64_t>(
          KeyFn,
          [&violations](const VRec& r, int64_t& last,
                        const std::function<void(VRec)>& emit) {
            if (r.t <= last) violations.fetch_add(1);
            last = r.t;
            emit(r);
          },
          /*parallelism=*/4, nullptr, {.capacity = 64})
      .Sink([&delivered](const VRec&) { ++delivered; });
  pipeline.Run();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(delivered, 30000u);
}

// A fixed graph touching every operator kind, so coverage does not depend
// on what the seeded generator happens to draw.
TEST(BatchEquivTest, AllOperatorKindsGraph) {
  const std::vector<OpSpec> ops = {
      {OpKind::kMap},          {OpKind::kFilter, 3},
      {OpKind::kFlatMap},      {OpKind::kKeyed},
      {OpKind::kKeyedPar, 4},  {OpKind::kWindow, 5000, 2000},
      {OpKind::kMap},
  };
  const std::vector<VRec> input = MakeVesselRecords(42, 3000);
  const std::vector<VRec> baseline =
      RunGraph(ops, input, BatchPolicy::Single(), 8, false);
  for (size_t batch : {size_t{7}, size_t{64}, size_t{1024}}) {
    ExpectSameMultiset(
        baseline, RunGraph(ops, input, BatchPolicy::Batched(batch, 1), 8, false),
        "batched");
    ExpectSameMultiset(
        baseline, RunGraph(ops, input, BatchPolicy::Batched(batch, kLingerPastRunMs), 8, true),
        "fused");
  }
}

// Fusion alone (no batching) must also be invisible.
TEST(BatchEquivTest, FusedChainMatchesUnfusedUnbatched) {
  const std::vector<OpSpec> ops = {
      {OpKind::kMap}, {OpKind::kFilter, 2}, {OpKind::kFlatMap},
      {OpKind::kMap}};
  const std::vector<VRec> input = MakeVesselRecords(7, 2000);
  ExpectSameMultiset(RunGraph(ops, input, BatchPolicy::Single(), 16, false),
                     RunGraph(ops, input, BatchPolicy::Single(), 16, true),
                     "fused-unbatched");
}

// ----------------------------------------- sharded scale-out equivalence

// The ShardedPipeline facade must be invisible: running the same operator
// graph as N key-disjoint shard pipelines (input scattered by the
// PartitionedLog producer hash) yields exactly the single-pipeline
// multiset, for every shard count and transport policy combination.
TEST(ShardedEquivTest, ShardedGraphsMatchSinglePipeline) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<OpSpec> ops = RandomGraph(seed);
    const std::vector<VRec> input = MakeVesselRecords(seed, 1500);
    StageOptions base;
    base.capacity = 8;
    const std::vector<VRec> baseline =
        RunGraph(ops, input, BatchPolicy::Single(), base, false);
    for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
      ExpectSameMultiset(
          baseline,
          RunGraphSharded(ops, input, shards, BatchPolicy::Single(), base,
                          false),
          "sharded-single");
      ExpectSameMultiset(
          baseline,
          RunGraphSharded(ops, input, shards, BatchPolicy::Batched(7, 1),
                          base, false),
          "sharded-batched");
      ExpectSameMultiset(
          baseline,
          RunGraphSharded(ops, input, shards, BatchPolicy::Batched(64, kLingerPastRunMs),
                          base, true),
          "sharded-fused");
    }
  }
}

// Fixed graph touching every operator kind, sharded — coverage must not
// depend on what the seeded generator draws.
TEST(ShardedEquivTest, AllOperatorKindsGraphSharded) {
  const std::vector<OpSpec> ops = {
      {OpKind::kMap},          {OpKind::kFilter, 3},
      {OpKind::kFlatMap},      {OpKind::kKeyed},
      {OpKind::kKeyedPar, 4},  {OpKind::kWindow, 5000, 2000},
      {OpKind::kMap},
  };
  const std::vector<VRec> input = MakeVesselRecords(42, 3000);
  StageOptions base;
  base.capacity = 8;
  const std::vector<VRec> baseline =
      RunGraph(ops, input, BatchPolicy::Single(), base, false);
  for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    ExpectSameMultiset(baseline,
                       RunGraphSharded(ops, input, shards,
                                       BatchPolicy::Batched(64, 1), base,
                                       false),
                       "sharded-all-ops");
  }
  // The merged report groups same-named auto-assigned stages across
  // shards; the facade must expose both views.
  ShardedPipeline sp(4);
  std::vector<std::vector<VRec>> outs(4);
  std::vector<std::vector<VRec>> scattered(4);
  for (const VRec& r : input) scattered[HashPartition(r.id, 4)].push_back(r);
  sp.Build([&](Pipeline* pipeline, size_t shard) {
    Flow<VRec>::FromVector(pipeline, scattered[shard], {.capacity = 8})
        .Map<VRec>(MapFn, {.capacity = 8})
        .CollectInto(&outs[shard]);
  });
  sp.Run();
  const std::string json = sp.ReportJson();
  EXPECT_NE(json.find("\"shards\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"aggregate\":["), std::string::npos);
  EXPECT_NE(json.find("\"per_shard\":["), std::string::npos);
  uint64_t mapped = 0;
  for (const StageMetrics& m : sp.AggregateReport()) {
    if (m.stage.rfind("map#", 0) == 0) mapped += m.records_out;
  }
  EXPECT_EQ(mapped, input.size());
}

// ------------------------------- shutdown / cancellation under batching

// Watchdog: fails (instead of hanging the suite) when the pipeline does
// not shut down in time. The worker is detached so a deadlock regression
// is reported, not inherited.
void ExpectCompletesWithin(std::function<void()> body, int timeout_ms) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread([body = std::move(body), done] {
    body();
    done->set_value();
  }).detach();
  ASSERT_EQ(finished.wait_for(std::chrono::milliseconds(timeout_ms)),
            std::future_status::ready)
      << "pipeline hung: batched shutdown deadlock regression";
}

TEST(BatchShutdownTest, SinkCancelsMidBatchWithoutHangingOrLosingSignal) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        std::vector<int> input(200000);
        std::iota(input.begin(), input.end(), 0);
        size_t seen = 0;
        // Tiny capacity + large batch: the source is mid-PushBatch (and
        // the map stage mid-flush) when the sink walks away.
        auto flow = Flow<int>::FromVector(
                        &pipeline, input,
                        {.capacity = 4, .batch = BatchPolicy::Batched(64, 1)})
                        .Map<int>([](const int& x) { return x + 1; },
                                  {.capacity = 4});
        flow.SinkWhile([&seen](const int&) { return ++seen < 10; });
        pipeline.Run();
        EXPECT_GE(seen, 10u);
        // The cancel must have reached the source edge.
        auto report = pipeline.Report();
        bool source_cancelled = false;
        for (const auto& m : report) {
          if (m.stage == "source#0") source_cancelled = m.cancelled;
        }
        EXPECT_TRUE(source_cancelled);
      },
      5000);
}

TEST(BatchShutdownTest, SourceClosesMidLingerFlushesStagedBatch) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        // 3 elements never fill a 1024-batch; end-of-stream must flush
        // the partial batch, not drop it.
        std::vector<int> out;
        Flow<int>::FromVector(
            &pipeline, {1, 2, 3},
            {.capacity = 8, .batch = BatchPolicy::Batched(1024, 10'000)})
            .Map<int>([](const int& x) { return x * 2; }, {.capacity = 8})
            .CollectInto(&out);
        pipeline.Run();
        EXPECT_EQ(out, (std::vector<int>{2, 4, 6}));
      },
      5000);
}

TEST(BatchShutdownTest, LingerFlushesStagedOutputsWhileInputStaysOpen) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        auto in = std::make_shared<Channel<int>>(64);
        std::atomic<int> delivered{0};
        Flow<int> flow(&pipeline, in, BatchPolicy::Batched(1024, 1));
        flow.Map<int>([](const int& x) { return x; }, {.capacity = 64})
            .Sink([&delivered](const int&) { ++delivered; });
        for (int i = 0; i < 3; ++i) in->Push(i);
        // The channel stays OPEN: only the 1 ms linger can flush the
        // 3-element batch staged inside the map operator.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(4);
        while (delivered.load() < 3 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        EXPECT_EQ(delivered.load(), 3);
        in->Close();
        pipeline.Run();
      },
      6000);
}

TEST(BatchShutdownTest, KeyedProcessParallelTeardownUnderBatching) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        std::vector<std::pair<uint64_t, int>> input;
        for (int i = 0; i < 200000; ++i) {
          input.push_back({static_cast<uint64_t>(i % 31), i});
        }
        size_t seen = 0;
        Flow<std::pair<uint64_t, int>>::FromVector(
            &pipeline, input,
            {.capacity = 8, .batch = BatchPolicy::Batched(64, 1)})
            .KeyedProcessParallel<int, int>(
                [](const std::pair<uint64_t, int>& e) { return e.first; },
                [](const std::pair<uint64_t, int>& e, int& sum,
                   const std::function<void(int)>& emit) {
                  sum += e.second;
                  emit(sum);
                },
                /*parallelism=*/4, nullptr, {.capacity = 8})
            .SinkWhile([&seen](const int&) { return ++seen < 10; });
        pipeline.Run();
        EXPECT_GE(seen, 10u);
      },
      10000);
}

TEST(BatchShutdownTest, FusedStageCancelPropagatesToSource) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        std::vector<int> input(200000);
        std::iota(input.begin(), input.end(), 0);
        size_t seen = 0;
        Flow<int>::FromVector(
            &pipeline, input,
            {.capacity = 4, .batch = BatchPolicy::Batched(64, 1)})
            .Fuse()
            .Map<int>([](const int& x) { return x + 1; })
            .Filter([](const int& x) { return (x & 1) == 0; })
            .Map<int>([](const int& x) { return x * 2; })
            .Emit({.capacity = 4})
            .SinkWhile([&seen](const int&) { return ++seen < 10; });
        pipeline.Run();
        EXPECT_GE(seen, 10u);
        // The cancel must have crossed the fused stage to the source edge.
        bool source_cancelled = false;
        for (const auto& m : pipeline.Report()) {
          if (m.stage == "source#0") source_cancelled = m.cancelled;
        }
        EXPECT_TRUE(source_cancelled);
      },
      5000);
}

TEST(BatchShutdownTest, GeneratorStopsWhenDownstreamCancelsBatched) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        std::atomic<long long> generated{0};
        auto flow = Flow<long long>::FromGenerator(
            &pipeline,
            [&generated]() -> std::optional<long long> {
              return ++generated;
            },
            {.capacity = 4, .batch = BatchPolicy::Batched(32, 1)});
        size_t seen = 0;
        flow.SinkWhile([&seen](const long long&) { return ++seen < 100; });
        pipeline.Run();
        // The infinite generator must have been stopped by the cancel.
        EXPECT_GE(seen, 100u);
        EXPECT_LT(generated.load(), 1000000);
      },
      5000);
}

TEST(KeyedFuseShutdownTest, CancelMidFusedPrefixPropagatesToSource) {
  // The sink walks away while the router is mid-prefix: the cancel must
  // cross the keyed boundary (worker → partition edge → router → source)
  // and stop the infinite generator.
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        std::atomic<long long> generated{0};
        size_t seen = 0;
        Flow<long long>::FromGenerator(
            &pipeline,
            [&generated]() -> std::optional<long long> { return ++generated; },
            {.capacity = 4, .batch = BatchPolicy::Batched(64, 1)})
            .Fuse()
            .Map<long long>([](const long long& x) { return x + 1; })
            .Filter([](const long long& x) { return (x & 1) == 0; })
            .KeyedProcessParallel<long long, long long>(
                [](const long long& x) {
                  return static_cast<uint64_t>(x % 13);
                },
                [](const long long& x, long long& sum,
                   const std::function<void(long long)>& emit) {
                  sum += x;
                  emit(sum);
                },
                /*parallelism=*/4, nullptr, {.capacity = 4})
            .SinkWhile([&seen](const long long&) { return ++seen < 100; });
        pipeline.Run();
        EXPECT_GE(seen, 100u);
        EXPECT_LT(generated.load(), 1000000);
      },
      10000);
}

}  // namespace
}  // namespace tcmf::stream
