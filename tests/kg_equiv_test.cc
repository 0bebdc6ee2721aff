// Differential, property, and concurrency tests for the dictionary-
// encoded adjacency-indexed triplestore (rdf::AdjacencyIndex,
// rdf::Dictionary, rdf::EvaluateBgp, store::KnowledgeStore adjacency
// plans) plus the stream-enrichment stages (rdf::TripleGeneratorStage,
// rdf::SemanticTrajectoryStage, store::KgStoreSink). The differential
// suites enforce the core invariant of the refactor: the reordering BGP
// matcher and the adjacency star-join plans return exactly the bindings
// the scan-order reference evaluators do.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "rdf/adjacency.h"
#include "rdf/bgp.h"
#include "rdf/graph.h"
#include "rdf/semantic_trajectory.h"
#include "rdf/stages.h"
#include "rdf/vocab.h"
#include "store/kgstore.h"
#include "store/stages.h"
#include "stream/pipeline.h"
#include "synopses/critical_points.h"

namespace tcmf {
namespace {

using rdf::Binding;
using rdf::EncodedTriple;
using rdf::Graph;
using rdf::Iri;
using rdf::PatternTerm;
using rdf::Term;
using rdf::Triple;
using rdf::TriplePattern;

// ------------------------------------------------------ Dictionary

TEST(DictionaryPropertyTest, RandomTermsRoundTripWithDenseStableIds) {
  Rng rng(101);
  rdf::Dictionary dict;
  std::vector<Term> terms;
  for (int i = 0; i < 2000; ++i) {
    int pick = rng.UniformInt(0, 2);
    Term t;
    if (pick == 0) {
      t = Iri("http://x/e/" + std::to_string(rng.UniformInt(0, 500)));
    } else if (pick == 1) {
      t = rdf::Literal(std::to_string(rng.UniformInt(0, 500)));
    } else {
      t = rdf::TypedLiteral(std::to_string(rng.Uniform(0.0, 1.0)),
                            rdf::vocab::kWktLiteral);
    }
    terms.push_back(t);
  }
  std::map<uint64_t, Term> by_id;
  uint64_t max_id = 0;
  for (const Term& t : terms) {
    uint64_t id = dict.Encode(t);
    ASSERT_NE(id, rdf::Dictionary::kNoId);
    // Stability: re-encoding returns the same id; Lookup agrees.
    EXPECT_EQ(dict.Encode(t), id);
    EXPECT_EQ(dict.Lookup(t), id);
    auto [it, inserted] = by_id.try_emplace(id, t);
    if (!inserted) {
      EXPECT_EQ(it->second, t);  // ids are injective
    }
    max_id = std::max(max_id, id);
    // Round trip through Decode.
    auto back = dict.Decode(id);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
  }
  // Density: ids are exactly 1..size with no holes.
  EXPECT_EQ(max_id, dict.size());
  EXPECT_EQ(by_id.size(), dict.size());
}

TEST(DictionaryPropertyTest, LookupNeverInterns) {
  rdf::Dictionary dict;
  EXPECT_EQ(dict.Lookup(Iri("http://x/never")), rdf::Dictionary::kNoId);
  EXPECT_EQ(dict.size(), 0u);
}

TEST(DictionaryPropertyTest, DistinctKindsSameLexicalGetDistinctIds) {
  rdf::Dictionary dict;
  uint64_t iri = dict.Encode(Iri("42"));
  uint64_t lit = dict.Encode(rdf::Literal("42"));
  uint64_t typed = dict.Encode(rdf::TypedLiteral("42", "http://t/int"));
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, typed);
  EXPECT_NE(iri, typed);
}

// -------------------------------------------------- AdjacencyIndex

TEST(KgAdjacencyIndexTest, PostingsMatchInputMultiset) {
  Rng rng(7);
  std::vector<EncodedTriple> triples;
  for (int i = 0; i < 3000; ++i) {
    triples.push_back({static_cast<uint64_t>(rng.UniformInt(1, 50)),
                       static_cast<uint64_t>(rng.UniformInt(1, 6)),
                       static_cast<uint64_t>(rng.UniformInt(1, 80))});
  }
  rdf::AdjacencyIndex index;
  index.Build(triples);
  EXPECT_EQ(index.size(), triples.size());
  // Every (s,o) under p is present with its multiplicity, both ways.
  std::multiset<std::tuple<uint64_t, uint64_t, uint64_t>> expect, got_so,
      got_os;
  for (const auto& t : triples) expect.insert({t.p, t.s, t.o});
  for (uint64_t p : index.predicates()) {
    auto [lo, hi] = index.Subjects(p);
    for (const rdf::Posting* e = lo; e != hi; ++e) {
      got_so.insert({p, e->key, e->value});
      EXPECT_TRUE(e == lo || !(e->key < (e - 1)->key));  // sorted by (s,o)
    }
    auto [olo, ohi] = index.Objects(p);
    for (const rdf::Posting* e = olo; e != ohi; ++e) {
      got_os.insert({p, e->value, e->key});
    }
  }
  EXPECT_EQ(got_so, expect);
  EXPECT_EQ(got_os, expect);
}

TEST(KgAdjacencyIndexTest, StatsAndEstimatesAreConsistent) {
  std::vector<EncodedTriple> triples = {
      {1, 10, 5}, {1, 10, 6}, {2, 10, 5}, {3, 11, 7}, {3, 11, 7},
  };
  rdf::AdjacencyIndex index;
  index.Build(triples);
  const rdf::PredicateStats* s10 = index.Stats(10);
  ASSERT_NE(s10, nullptr);
  EXPECT_EQ(s10->triples, 3u);
  EXPECT_EQ(s10->distinct_subjects, 2u);
  EXPECT_EQ(s10->distinct_objects, 2u);
  // (?s, 10, ?o) estimates the predicate's triple count.
  EXPECT_DOUBLE_EQ(index.EstimateCardinality(false, 10, true, false), 3.0);
  // (s, 10, ?o): triples / distinct subjects.
  EXPECT_DOUBLE_EQ(index.EstimateCardinality(true, 10, true, false), 1.5);
  // Unknown predicate: nothing can match.
  EXPECT_DOUBLE_EQ(index.EstimateCardinality(false, 999, true, false), 0.0);
  // Free predicate, all free: whole graph.
  EXPECT_DOUBLE_EQ(index.EstimateCardinality(false, 0, false, false), 5.0);
}

TEST(KgAdjacencyIndexTest, RunLookupsFindExactRanges) {
  std::vector<EncodedTriple> triples = {
      {1, 10, 5}, {1, 10, 6}, {2, 10, 9}, {4, 10, 1}};
  rdf::AdjacencyIndex index;
  index.Build(triples);
  auto [lo, hi] = index.ObjectsOf(10, 1);
  ASSERT_EQ(hi - lo, 2);
  EXPECT_EQ(lo->value, 5u);
  EXPECT_EQ((lo + 1)->value, 6u);
  auto [slo, shi] = index.SubjectsOf(10, 9);
  ASSERT_EQ(shi - slo, 1);
  EXPECT_EQ(slo->value, 2u);
  auto [mlo, mhi] = index.ObjectsOf(10, 3);  // absent subject
  EXPECT_EQ(mlo, mhi);
}

// --------------------------------------------------- BGP equivalence

// Canonical form of a binding set: sorted vector of sorted (var,id)
// lists — multiset comparison independent of evaluation order.
std::vector<std::vector<std::pair<std::string, uint64_t>>> Canon(
    const std::vector<Binding>& bindings) {
  std::vector<std::vector<std::pair<std::string, uint64_t>>> out;
  out.reserve(bindings.size());
  for (const Binding& b : bindings) {
    std::vector<std::pair<std::string, uint64_t>> row(b.begin(), b.end());
    std::sort(row.begin(), row.end());
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Fills a random graph over small id universes (dense enough that joins
// actually join). Graph owns a mutex (lazy index build) so it is
// neither copyable nor movable — fill in place.
void FillRandomGraph(uint64_t seed, int triples, Graph* g) {
  Rng rng(seed);
  for (int i = 0; i < triples; ++i) {
    g->Add({Iri("http://x/s/" + std::to_string(rng.UniformInt(0, 30))),
            Iri("http://x/p/" + std::to_string(rng.UniformInt(0, 4))),
            Iri("http://x/o/" + std::to_string(rng.UniformInt(0, 20)))});
  }
}

PatternTerm RandomSlot(Rng& rng, const std::string& universe, int max_id,
                       const std::vector<std::string>& vars) {
  if (rng.UniformInt(0, 2) == 0) {
    return PatternTerm::Var(vars[rng.UniformInt(0, vars.size() - 1)]);
  }
  return PatternTerm::Const(
      Iri("http://x/" + universe + "/" + std::to_string(rng.UniformInt(0, max_id))));
}

TEST(BgpEquivTest, ReorderedMatcherEqualsInOrderReferenceOnRandomInputs) {
  const std::vector<std::string> vars = {"a", "b", "c", "d"};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Graph g;
    FillRandomGraph(seed, 400, &g);
    Rng rng(1000 + seed);
    for (int q = 0; q < 10; ++q) {
      std::vector<TriplePattern> patterns;
      const int n = rng.UniformInt(1, 3);
      for (int i = 0; i < n; ++i) {
        patterns.push_back({RandomSlot(rng, "s", 32, vars),
                            RandomSlot(rng, "p", 5, vars),
                            RandomSlot(rng, "o", 22, vars)});
      }
      auto reordered = Canon(rdf::EvaluateBgp(g, patterns));
      auto reference = Canon(rdf::EvaluateBgpInOrder(g, patterns));
      ASSERT_EQ(reordered, reference)
          << "seed=" << seed << " query=" << q;
    }
  }
}

TEST(BgpEquivTest, PlanOrderIsAPermutation) {
  Graph g;
  FillRandomGraph(3, 300, &g);
  std::vector<TriplePattern> patterns = {
      {PatternTerm::Var("a"), PatternTerm::Var("b"), PatternTerm::Var("c")},
      {PatternTerm::Var("a"), PatternTerm::Const(Iri("http://x/p/0")),
       PatternTerm::Var("d")},
      {PatternTerm::Var("d"), PatternTerm::Var("e"), PatternTerm::Var("f")},
  };
  std::vector<size_t> order = rdf::PlanBgpOrder(g, patterns);
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<size_t>{0, 1, 2}));
}

TEST(BgpEquivTest, SelectivePatternRunsFirst) {
  Graph g;
  // Predicate "rare" has 1 triple; "common" has 100.
  g.Add({Iri("http://x/s/0"), Iri("http://x/rare"), Iri("http://x/o/0")});
  for (int i = 0; i < 100; ++i) {
    g.Add({Iri("http://x/s/" + std::to_string(i)), Iri("http://x/common"),
           Iri("http://x/o/" + std::to_string(i))});
  }
  std::vector<TriplePattern> patterns = {
      {PatternTerm::Var("s"), PatternTerm::Const(Iri("http://x/common")),
       PatternTerm::Var("o")},
      {PatternTerm::Var("s"), PatternTerm::Const(Iri("http://x/rare")),
       PatternTerm::Var("o2")},
  };
  std::vector<size_t> order = rdf::PlanBgpOrder(g, patterns);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // the rare pattern leads
  // And the join result is the single subject carrying both predicates.
  auto bindings = rdf::EvaluateBgp(g, patterns);
  ASSERT_EQ(bindings.size(), 1u);
  EXPECT_EQ(bindings[0].at("s"),
            g.dictionary().Lookup(Iri("http://x/s/0")));
}

TEST(BgpEquivTest, UnInternedConstantShortCircuits) {
  Graph g;
  FillRandomGraph(5, 200, &g);
  std::vector<TriplePattern> patterns = {
      {PatternTerm::Var("s"), PatternTerm::Var("p"), PatternTerm::Var("o")},
      {PatternTerm::Var("s"), PatternTerm::Const(Iri("http://x/absent")),
       PatternTerm::Var("o2")},
  };
  // The absent-constant pattern estimates 0 and must be evaluated first,
  // so the whole BGP is empty without enumerating the wildcard pattern.
  std::vector<size_t> order = rdf::PlanBgpOrder(g, patterns);
  EXPECT_EQ(order[0], 1u);
  EXPECT_TRUE(rdf::EvaluateBgp(g, patterns).empty());
}

// ------------------------------------------- KnowledgeStore plans

class KgAdjacencyPlanTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 300;

  KgAdjacencyPlanTest()
      : encoder_({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour),
        store_(encoder_, 4) {
    Rng rng(17);
    for (size_t i = 0; i < kNodes; ++i) {
      rdf::Term node = Iri("http://x/node/" + std::to_string(i));
      store_.AddPositionNode(node, rng.Uniform(0.0, 10.0),
                             rng.Uniform(35.0, 44.0),
                             static_cast<TimeMs>(rng.Uniform(
                                 0.0, 24.0 * kMillisPerHour)));
      store_.Add({node, Iri(rdf::vocab::kHasSpeed),
                  rdf::DoubleLiteral(rng.Uniform(0.0, 12.0))});
      // Clustered entity attribute: only every 5th node carries heading,
      // so the adjacency plan's stats pick it as the driver.
      if (i % 5 == 0) {
        store_.Add({node, Iri(rdf::vocab::kHasHeading),
                    rdf::DoubleLiteral(rng.Uniform(0.0, 360.0))});
      }
    }
    store_.Compile();
    query_.predicate_ids = {
        store_.dictionary().Lookup(Iri(rdf::vocab::kHasSpeed)),
        store_.dictionary().Lookup(Iri(rdf::vocab::kHasHeading)),
        store_.dictionary().Lookup(Iri(rdf::vocab::kHasTimestamp)),
    };
  }

  static std::vector<store::StarRow> Sorted(std::vector<store::StarRow> rows) {
    std::sort(rows.begin(), rows.end(),
              [](const store::StarRow& a, const store::StarRow& b) {
                return a.subject < b.subject;
              });
    return rows;
  }

  static void ExpectSameRows(const std::vector<store::StarRow>& a,
                             const std::vector<store::StarRow>& b) {
    auto sa = Sorted(a), sb = Sorted(b);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].subject, sb[i].subject);
      EXPECT_EQ(sa[i].objects, sb[i].objects);
    }
  }

  geom::StCellEncoder encoder_;
  store::KnowledgeStore store_;
  store::StarQuery query_;
};

TEST_F(KgAdjacencyPlanTest, AdjacencyPlanMatchesScanAndVertical) {
  auto scan = store_.RunStar(query_, store::StarPlan::kTriplesTableScan,
                             nullptr);
  auto vertical =
      store_.RunStar(query_, store::StarPlan::kVerticalPartition, nullptr);
  auto adjacency =
      store_.RunStar(query_, store::StarPlan::kAdjacencyIndex, nullptr);
  EXPECT_EQ(scan.size(), kNodes / 5);  // heading is the limiting predicate
  ExpectSameRows(scan, adjacency);
  ExpectSameRows(vertical, adjacency);
}

TEST_F(KgAdjacencyPlanTest, AdjacencyPlansMatchUnderStConstraint) {
  store::StarQuery q = query_;
  q.has_st_constraint = true;
  q.st_box.bounds = {2.0, 38.0, 6.0, 42.0};
  q.st_box.t_begin = 4 * kMillisPerHour;
  q.st_box.t_end = 16 * kMillisPerHour;
  auto scan = store_.RunStar(q, store::StarPlan::kTriplesTableScan, nullptr);
  auto adjacency =
      store_.RunStar(q, store::StarPlan::kAdjacencyIndex, nullptr);
  auto pushdown =
      store_.RunStar(q, store::StarPlan::kAdjacencyIndexPushdown, nullptr);
  ExpectSameRows(scan, adjacency);
  ExpectSameRows(scan, pushdown);
}

TEST_F(KgAdjacencyPlanTest, AdjacencyPlanScansFarLessThanTableScan) {
  store::StarQueryMetrics scan, adjacency;
  store_.RunStar(query_, store::StarPlan::kTriplesTableScan, &scan);
  store_.RunStar(query_, store::StarPlan::kAdjacencyIndex, &adjacency);
  // The scan visits every triple; the adjacency plan visits the driver
  // predicate's postings plus one probe per (driver subject, slot).
  EXPECT_LT(adjacency.triples_scanned, scan.triples_scanned / 2);
}

TEST_F(KgAdjacencyPlanTest, AdjacencyPushdownPrunesExactFilters) {
  store::StarQuery q = query_;
  q.has_st_constraint = true;
  q.st_box.bounds = {2.0, 38.0, 6.0, 42.0};
  q.st_box.t_begin = 4 * kMillisPerHour;
  q.st_box.t_end = 16 * kMillisPerHour;
  store::StarQueryMetrics plain, pushdown;
  store_.RunStar(q, store::StarPlan::kAdjacencyIndex, &plain);
  store_.RunStar(q, store::StarPlan::kAdjacencyIndexPushdown, &pushdown);
  EXPECT_LT(pushdown.st_filter_evaluations,
            std::max<size_t>(1, plain.st_filter_evaluations));
}

TEST_F(KgAdjacencyPlanTest, CountersAccumulateAcrossQueries) {
  store::StoreCounters before = store_.CountersSnapshot();
  EXPECT_EQ(before.triples_added, store_.size());
  auto rows = store_.RunStar(query_, store::StarPlan::kAdjacencyIndex,
                             nullptr);
  store::StoreCounters after = store_.CountersSnapshot();
  EXPECT_EQ(after.star_queries, before.star_queries + 1);
  EXPECT_EQ(after.star_rows, before.star_rows + rows.size());
  EXPECT_GT(after.triples_scanned, before.triples_scanned);
}

TEST_F(KgAdjacencyPlanTest, StreamedStCellTriplesFeedPushdownIndex) {
  // Ingesting hasStCell integer triples through plain Add (the streamed
  // template path, not AddPositionNode) must keep the pushdown usable.
  geom::StCellEncoder encoder({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour);
  store::KnowledgeStore store(encoder, 2);
  rdf::Term node = Iri("http://x/streamed/1");
  const double lon = 3.0, lat = 39.0;
  const TimeMs t = 6 * kMillisPerHour;
  store.Add({node, Iri(rdf::vocab::kHasStCell),
             rdf::IntLiteral(static_cast<int64_t>(encoder.Encode(lon, lat, t)))});
  store.Add({node, Iri(rdf::vocab::kAsWKT),
             rdf::TypedLiteral("POINT (3.000000 39.000000)",
                               rdf::vocab::kWktLiteral)});
  store.Add({node, Iri(rdf::vocab::kHasTimestamp), rdf::IntLiteral(t)});
  store.Add({node, Iri(rdf::vocab::kHasSpeed), rdf::DoubleLiteral(5.0)});
  store.Compile();
  store::StarQuery q;
  q.predicate_ids = {
      store.dictionary().Lookup(Iri(rdf::vocab::kHasSpeed)),
      store.dictionary().Lookup(Iri(rdf::vocab::kHasTimestamp)),
  };
  q.has_st_constraint = true;
  q.st_box.bounds = {2.0, 38.0, 6.0, 42.0};
  q.st_box.t_begin = 4 * kMillisPerHour;
  q.st_box.t_end = 16 * kMillisPerHour;
  auto rows =
      store.RunStar(q, store::StarPlan::kAdjacencyIndexPushdown, nullptr);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].subject, store.dictionary().Lookup(node));
}

// ------------------------------------------------- Concurrency (TSan)

TEST(KgConcurrentTest, ConcurrentReadersShareLazyIndexBuild) {
  Graph g;
  FillRandomGraph(23, 2000, &g);
  // The index is dirty: every reader races to trigger the first build.
  const uint64_t p0 = g.dictionary().Lookup(Iri("http://x/p/0"));
  std::atomic<size_t> total{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      size_t n = 0;
      g.Match(0, p0, 0, [&](const EncodedTriple&) { ++n; });
      n += g.Count(0, p0, 0);
      total.fetch_add(n);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 8 * 2 * g.Count(0, p0, 0));
}

TEST(KgConcurrentTest, ConcurrentBgpEvaluationIsStable) {
  Graph g;
  FillRandomGraph(29, 1000, &g);
  std::vector<TriplePattern> patterns = {
      {PatternTerm::Var("s"), PatternTerm::Const(Iri("http://x/p/1")),
       PatternTerm::Var("o")},
      {PatternTerm::Var("s"), PatternTerm::Const(Iri("http://x/p/2")),
       PatternTerm::Var("o2")},
  };
  auto expected = Canon(rdf::EvaluateBgp(g, patterns));
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&] {
      if (Canon(rdf::EvaluateBgp(g, patterns)) != expected) ++mismatches;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(KgConcurrentTest, ConcurrentRunStarAfterCompile) {
  geom::StCellEncoder encoder({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour);
  store::KnowledgeStore store(encoder, 4);
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    rdf::Term node = Iri("http://x/c/" + std::to_string(i));
    store.AddPositionNode(node, rng.Uniform(0.0, 10.0),
                          rng.Uniform(35.0, 44.0),
                          static_cast<TimeMs>(rng.Uniform(0.0, 86400000.0)));
    store.Add({node, Iri(rdf::vocab::kHasSpeed), rdf::DoubleLiteral(1.0)});
  }
  store.Compile();
  store::StarQuery q;
  q.predicate_ids = {
      store.dictionary().Lookup(Iri(rdf::vocab::kHasSpeed)),
      store.dictionary().Lookup(Iri(rdf::vocab::kHasTimestamp)),
  };
  const size_t expected =
      store.RunStar(q, store::StarPlan::kAdjacencyIndex, nullptr).size();
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < 8; ++i) {
    const auto plan = (i % 2 == 0) ? store::StarPlan::kAdjacencyIndex
                                   : store::StarPlan::kVerticalPartition;
    threads.emplace_back([&, plan] {
      store::StarQueryMetrics m;
      if (store.RunStar(q, plan, &m).size() != expected) ++mismatches;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(store.CountersSnapshot().star_queries, 9u);
}

// ------------------------------------------------- Enrichment stages

std::vector<stream::Record> MakePositionRecords(int n) {
  std::vector<stream::Record> records;
  for (int i = 0; i < n; ++i) {
    Position p;
    p.entity_id = 100 + (i % 7);
    p.t = i * 1000;
    p.lon = 2.0 + 0.001 * i;
    p.lat = 41.0;
    p.speed_mps = 5.0;
    p.heading_deg = 90.0;
    records.push_back(stream::PositionToRecord(p));
  }
  return records;
}

TEST(KgStageTest, TripleGeneratorStageMatchesBatchGeneration) {
  rdf::GraphTemplate tmpl;
  rdf::VariableVector vars;
  rdf::MakePositionTemplate("http://x/", &tmpl, &vars);
  std::vector<stream::Record> records = MakePositionRecords(50);

  // Batch reference.
  rdf::TripleGenerator gen(tmpl, vars);
  rdf::VectorConnector conn(records);
  std::multiset<std::string> expected;
  gen.Run(conn, [&](const Triple& t) {
    expected.insert(t.s.lexical + "|" + t.p.lexical + "|" + t.o.lexical);
  });

  // Fused stage.
  stream::Pipeline pipeline;
  std::vector<Triple> out;
  rdf::TripleGeneratorStage(
      stream::Flow<stream::Record>::FromVector(&pipeline, records),
      std::move(tmpl), std::move(vars))
      .CollectInto(&out);
  pipeline.Run();

  std::multiset<std::string> got;
  for (const Triple& t : out) {
    got.insert(t.s.lexical + "|" + t.p.lexical + "|" + t.o.lexical);
  }
  EXPECT_EQ(got, expected);
}

TEST(KgStageTest, KgStoreSinkPopulatesStoreAndReportsKgMetrics) {
  rdf::GraphTemplate tmpl;
  rdf::VariableVector vars;
  rdf::MakePositionTemplate("http://x/", &tmpl, &vars);
  std::vector<stream::Record> records = MakePositionRecords(40);

  geom::StCellEncoder encoder({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour);
  store::KnowledgeStore store(encoder, 4);
  stream::Pipeline pipeline;
  store::KgStoreSink(
      rdf::TripleGeneratorStage(
          stream::Flow<stream::Record>::FromVector(&pipeline, records),
          tmpl, vars),
      &store);
  pipeline.Run();

  // 7 patterns per position record.
  EXPECT_EQ(store.size(), records.size() * 7);
  EXPECT_EQ(store.CountersSnapshot().triples_added, store.size());
  // The fix under test: kg_* counters must surface in ReportJson.
  std::string report = pipeline.ReportJson();
  EXPECT_NE(report.find("\"kg\":true"), std::string::npos) << report;
  EXPECT_NE(report.find("\"kg_triples_added\":" +
                        std::to_string(store.size())),
            std::string::npos)
      << report;

  // The streamed store answers star queries after Compile.
  store.Compile();
  store::StarQuery q;
  q.predicate_ids = {
      store.dictionary().Lookup(Iri(rdf::vocab::kHasSpeed)),
      store.dictionary().Lookup(Iri(rdf::vocab::kHasTimestamp)),
  };
  auto rows = store.RunStar(q, store::StarPlan::kAdjacencyIndex, nullptr);
  EXPECT_EQ(rows.size(), records.size());  // one node per record
}

TEST(KgStageTest, SemanticTrajectoryStageMatchesBatchBuilder) {
  // Two entities with part-splitting critical point sequences.
  using synopses::CriticalPoint;
  using synopses::CriticalPointType;
  std::vector<CriticalPoint> cps;
  for (uint64_t e : {5u, 9u}) {
    for (int i = 0; i < 6; ++i) {
      CriticalPoint cp;
      cp.pos.entity_id = e;
      cp.pos.t = i * 60000;
      cp.pos.lon = 2.0 + 0.01 * i;
      cp.pos.lat = 41.0;
      cp.type = (i == 3) ? CriticalPointType::kGapEnd
                         : CriticalPointType::kChangeInHeading;
      cps.push_back(cp);
    }
  }

  // Batch reference through the Graph overload.
  Graph reference;
  std::multiset<std::string> expected;
  for (uint64_t e : {5u, 9u}) {
    std::vector<CriticalPoint> mine;
    for (const auto& cp : cps) {
      if (cp.pos.entity_id == e) mine.push_back(cp);
    }
    rdf::BuildSemanticTrajectory("http://x/", e, mine,
                                 [&](const Triple& t) {
                                   expected.insert(t.s.lexical + "|" +
                                                   t.p.lexical + "|" +
                                                   t.o.lexical);
                                 });
  }

  stream::Pipeline pipeline;
  std::vector<Triple> out;
  rdf::SemanticTrajectoryStage(
      stream::Flow<CriticalPoint>::FromVector(&pipeline, cps), "http://x/")
      .CollectInto(&out);
  pipeline.Run();
  std::multiset<std::string> got;
  for (const Triple& t : out) {
    got.insert(t.s.lexical + "|" + t.p.lexical + "|" + t.o.lexical);
  }
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace tcmf
