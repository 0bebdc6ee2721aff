#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/rng.h"
#include "geom/stcell.h"
#include "rdf/vocab.h"
#include "store/columnar.h"
#include "store/kgstore.h"

namespace tcmf::store {
namespace {

// -------------------------------------------------------------- Columnar

TEST(VarintTest, RoundTripValues) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 40,
                     ~0ull}) {
    std::string buf;
    AppendVarint(&buf, v);
    size_t pos = 0;
    uint64_t out = 0;
    ASSERT_TRUE(ReadVarint(buf, &pos, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncationDetected) {
  std::string buf;
  AppendVarint(&buf, 1ull << 40);
  buf.pop_back();
  size_t pos = 0;
  uint64_t out;
  EXPECT_FALSE(ReadVarint(buf, &pos, &out));
}

TEST(ColumnTest, RoundTripRandom) {
  Rng rng(1);
  std::vector<uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)));
  }
  auto decoded = DecodeColumn(EncodeColumn(values));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), values);
}

TEST(ColumnTest, SortedColumnCompressesWell) {
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 10000; ++i) values.push_back(i * 3);
  std::string encoded = EncodeColumn(values);
  // Delta+varint: ~1 byte per element vs 8 raw.
  EXPECT_LT(encoded.size(), values.size() * 2);
}

TEST(ColumnTest, EmptyColumn) {
  auto decoded = DecodeColumn(EncodeColumn({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(PartitionFileTest, RoundTrip) {
  std::string path = testing::TempDir() + "/tcmf_part.col";
  std::vector<rdf::EncodedTriple> triples;
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    triples.push_back({static_cast<uint64_t>(rng.UniformInt(1, 100)),
                       static_cast<uint64_t>(rng.UniformInt(1, 10)),
                       static_cast<uint64_t>(rng.UniformInt(1, 1000))});
  }
  ASSERT_TRUE(WriteTriplePartition(path, triples).ok());
  auto loaded = ReadTriplePartition(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), triples);
  std::remove(path.c_str());
}

TEST(PartitionFileTest, BadMagicRejected) {
  std::string path = testing::TempDir() + "/tcmf_bad.col";
  {
    std::ofstream out(path);
    out << "NOT A PARTITION FILE";
  }
  EXPECT_FALSE(ReadTriplePartition(path).ok());
  std::remove(path.c_str());
}

TEST(PartitionFileTest, MissingFileRejected) {
  EXPECT_FALSE(ReadTriplePartition("/no/such/part.col").ok());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

const char kPartitionMagic[] = "TCMFCOL1";

TEST(PartitionFileTest, WrappingColumnLengthsRejected) {
  // slen + plen wraps to 0, so a summed bounds check would pass and the
  // P-column substr would start past the end of the 61-byte file.
  std::string bytes(kPartitionMagic, 8);
  AppendVarint(&bytes, 200);
  AppendVarint(&bytes, ~0ull - 199);  // 2^64 - 200
  AppendVarint(&bytes, 0);
  bytes.resize(61, '\0');
  std::string path = testing::TempDir() + "/tcmf_wrap.col";
  WriteBytes(path, bytes);
  auto part = ReadTriplePartition(path);
  ASSERT_FALSE(part.ok());
  EXPECT_EQ(part.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(PartitionFileTest, HugeColumnCountRejected) {
  // A column claiming 2^40 values in 2 payload bytes must not size an
  // allocation from the claim.
  std::string column;
  AppendVarint(&column, 1ull << 40);
  column += std::string(2, '\x02');
  std::string empty = EncodeColumn({});
  std::string bytes(kPartitionMagic, 8);
  AppendVarint(&bytes, column.size());
  AppendVarint(&bytes, empty.size());
  AppendVarint(&bytes, empty.size());
  bytes += column + empty + empty;
  std::string path = testing::TempDir() + "/tcmf_count.col";
  WriteBytes(path, bytes);
  auto part = ReadTriplePartition(path);
  ASSERT_FALSE(part.ok());
  EXPECT_EQ(part.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(DecodeColumn(column).ok());
  std::remove(path.c_str());
}

// Seeded mutation fuzz over a valid partition file: bit flips, byte
// overwrites, truncations, insertions and spliced near-2^64 varints. Every
// read must end in a clean result or an error Status, never a crash.
TEST(PartitionFileTest, MutationFuzzNeverCrashes) {
  std::vector<rdf::EncodedTriple> triples;
  Rng gen(21);
  for (int i = 0; i < 300; ++i) {
    triples.push_back({static_cast<uint64_t>(gen.UniformInt(1, 500)),
                       static_cast<uint64_t>(gen.UniformInt(1, 12)),
                       static_cast<uint64_t>(gen.UniformInt(1, 5000))});
  }
  const std::string dir = testing::TempDir() + "/tcmf_fuzz_store";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/partition-0000.col";
  ASSERT_TRUE(WriteTriplePartition(path, triples).ok());
  std::string valid;
  {
    std::ifstream in(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(valid.size(), 16u);

  const geom::StCellEncoder encoder({0.0, 0.0, 1.0, 1.0}, 4, 0,
                                    kMillisPerHour);
  Rng rng(1234);
  auto pos_in = [&](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n)));
  };
  size_t accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string bytes = valid;
    const int edits = static_cast<int>(rng.UniformInt(1, 3));
    for (int e = 0; e < edits && !bytes.empty(); ++e) {
      switch (rng.UniformInt(0, 4)) {
        case 0:  // bit flip
          bytes[pos_in(bytes.size() - 1)] ^=
              static_cast<char>(1 << rng.UniformInt(0, 7));
          break;
        case 1:  // byte overwrite
          bytes[pos_in(bytes.size() - 1)] =
              static_cast<char>(rng.UniformInt(0, 255));
          break;
        case 2:  // truncation
          bytes.resize(pos_in(bytes.size()));
          break;
        case 3: {  // insertion
          std::string junk;
          for (int b = static_cast<int>(rng.UniformInt(1, 16)); b > 0; --b) {
            junk.push_back(static_cast<char>(rng.UniformInt(0, 255)));
          }
          bytes.insert(pos_in(bytes.size()), junk);
          break;
        }
        default: {  // near-2^64 varint, mostly over the header lengths
          std::string big;
          AppendVarint(&big, ~0ull - static_cast<uint64_t>(
                                         rng.UniformInt(0, 1024)));
          size_t at = rng.Bernoulli(0.5)
                          ? std::min(bytes.size(), 8 + pos_in(4))
                          : pos_in(bytes.size());
          if (rng.Bernoulli(0.5)) {
            bytes.replace(at, big.size(), big);
          } else {
            bytes.insert(at, big);
          }
        }
      }
    }
    WriteBytes(path, bytes);

    auto part = ReadTriplePartition(path);
    if (part.ok()) {
      // Each of a triple's three values takes at least one byte.
      EXPECT_LE(part.value().size() * 3, bytes.size());
      ++accepted;
    } else {
      EXPECT_EQ(part.status().code(), StatusCode::kParseError);
    }
    KnowledgeStore store(encoder, 1);
    auto loaded = store.LoadTriples(dir);
    ASSERT_EQ(loaded.ok(), part.ok()) << "iteration " << iter;
    if (loaded.ok()) {
      EXPECT_EQ(loaded.value(), part.value().size());
      EXPECT_EQ(store.size(), part.value().size());
    }
  }
  // Some mutations (e.g. a flipped low bit in a delta) stay decodable;
  // the sweep must reach the accepting path as well as the error paths.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 3000u);
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------- KgStore

class KgStoreTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 400;

  KgStoreTest()
      : encoder_({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour),
        store_(encoder_, 4) {
    Rng rng(3);
    for (size_t i = 0; i < kNodes; ++i) {
      rdf::Term node = rdf::Iri("http://x/node/" + std::to_string(i));
      double lon = rng.Uniform(0.0, 10.0);
      double lat = rng.Uniform(35.0, 44.0);
      TimeMs t = static_cast<TimeMs>(
          rng.Uniform(0.0, 24.0 * kMillisPerHour));
      store_.AddPositionNode(node, lon, lat, t);
      store_.Add({node, rdf::Iri(rdf::vocab::kHasSpeed),
                  rdf::DoubleLiteral(rng.Uniform(0.0, 12.0))});
      store_.Add({node, rdf::Iri(rdf::vocab::kHasHeading),
                  rdf::DoubleLiteral(rng.Uniform(0.0, 360.0))});
      lons_.push_back(lon);
      lats_.push_back(lat);
      times_.push_back(t);
    }
    store_.Compile();

    query_.predicate_ids = {
        store_.dictionary().Lookup(rdf::Iri(rdf::vocab::kHasSpeed)),
        store_.dictionary().Lookup(rdf::Iri(rdf::vocab::kHasHeading)),
        store_.dictionary().Lookup(rdf::Iri(rdf::vocab::kHasTimestamp)),
    };
    query_.has_st_constraint = true;
    query_.st_box.bounds = {2.0, 38.0, 6.0, 42.0};
    query_.st_box.t_begin = 4 * kMillisPerHour;
    query_.st_box.t_end = 16 * kMillisPerHour;
  }

  size_t ExpectedMatches() const {
    size_t n = 0;
    for (size_t i = 0; i < kNodes; ++i) {
      if (query_.st_box.bounds.Contains(lons_[i], lats_[i]) &&
          times_[i] >= query_.st_box.t_begin &&
          times_[i] <= query_.st_box.t_end) {
        ++n;
      }
    }
    return n;
  }

  geom::StCellEncoder encoder_;
  KnowledgeStore store_;
  StarQuery query_;
  std::vector<double> lons_, lats_;
  std::vector<TimeMs> times_;
};

TEST_F(KgStoreTest, TripleCountTracksAdds) {
  // 3 position triples + 2 property triples per node.
  EXPECT_EQ(store_.size(), kNodes * 5);
}

TEST_F(KgStoreTest, AllPlansAgreeOnStarQuery) {
  StarQueryMetrics m1, m2, m3;
  auto r1 = store_.RunStar(query_, StarPlan::kTriplesTableScan, &m1);
  auto r2 = store_.RunStar(query_, StarPlan::kVerticalPartition, &m2);
  auto r3 = store_.RunStar(query_, StarPlan::kVerticalPartitionPushdown, &m3);

  auto subjects = [](const std::vector<StarRow>& rows) {
    std::set<uint64_t> out;
    for (const auto& r : rows) out.insert(r.subject);
    return out;
  };
  EXPECT_EQ(subjects(r1), subjects(r2));
  EXPECT_EQ(subjects(r2), subjects(r3));
  EXPECT_EQ(r1.size(), ExpectedMatches());
}

TEST_F(KgStoreTest, PushdownPrunesExactFilterWork) {
  StarQueryMetrics late, pushdown;
  store_.RunStar(query_, StarPlan::kVerticalPartition, &late);
  store_.RunStar(query_, StarPlan::kVerticalPartitionPushdown, &pushdown);
  // The st-cell integer pre-filter must cut exact (WKT-parsing) filter
  // evaluations by a large factor.
  EXPECT_LT(pushdown.st_filter_evaluations,
            late.st_filter_evaluations / 2);
}

TEST_F(KgStoreTest, UnconstrainedQueryReturnsAllCompleteSubjects) {
  StarQuery q = query_;
  q.has_st_constraint = false;
  auto rows = store_.RunStar(q, StarPlan::kVerticalPartition, nullptr);
  EXPECT_EQ(rows.size(), kNodes);
}

TEST_F(KgStoreTest, MissingPredicateYieldsNoRows) {
  StarQuery q = query_;
  q.predicate_ids.push_back(999999);  // never interned
  auto rows = store_.RunStar(q, StarPlan::kVerticalPartition, nullptr);
  EXPECT_TRUE(rows.empty());
}

TEST_F(KgStoreTest, EmptyQueryYieldsNoRows) {
  StarQuery q;
  auto rows = store_.RunStar(q, StarPlan::kTriplesTableScan, nullptr);
  EXPECT_TRUE(rows.empty());
}

TEST_F(KgStoreTest, RowsCarryObjectBindings) {
  auto rows = store_.RunStar(query_, StarPlan::kVerticalPartition, nullptr);
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    ASSERT_EQ(row.objects.size(), 3u);
    for (uint64_t o : row.objects) EXPECT_NE(o, 0u);
    // Speed object decodes to a double literal.
    auto term = store_.dictionary().Decode(row.objects[0]);
    ASSERT_TRUE(term.has_value());
    EXPECT_EQ(term->kind, rdf::Term::Kind::kLiteral);
  }
}

TEST_F(KgStoreTest, LookupPosition) {
  uint64_t sid =
      store_.dictionary().Lookup(rdf::Iri("http://x/node/0"));
  double lon, lat;
  TimeMs t;
  ASSERT_TRUE(store_.LookupPosition(sid, &lon, &lat, &t));
  EXPECT_DOUBLE_EQ(lon, lons_[0]);
  EXPECT_EQ(t, times_[0]);
  EXPECT_FALSE(store_.LookupPosition(999999, &lon, &lat, &t));
}

TEST_F(KgStoreTest, SaveLoadTriplesRoundTrip) {
  std::string dir = testing::TempDir() + "/tcmf_store_test";
  ASSERT_TRUE(store_.SaveTriples(dir).ok());
  KnowledgeStore loaded(encoder_, store_.partitions());
  auto n = loaded.LoadTriples(dir);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), store_.size());
  EXPECT_EQ(loaded.size(), store_.size());
  std::filesystem::remove_all(dir);
}

TEST_F(KgStoreTest, PlanNames) {
  EXPECT_STREQ(StarPlanName(StarPlan::kTriplesTableScan),
               "triples-table-scan");
  EXPECT_STRNE(StarPlanName(StarPlan::kVerticalPartitionPushdown),
               "unknown");
}


TEST_F(KgStoreTest, PropertyTablePlansAgreeWithOthers) {
  store_.BuildPropertyTable(query_.predicate_ids);
  auto subjects = [](const std::vector<StarRow>& rows) {
    std::set<uint64_t> out;
    for (const auto& r : rows) out.insert(r.subject);
    return out;
  };
  auto base = store_.RunStar(query_, StarPlan::kVerticalPartition, nullptr);
  auto pt = store_.RunStar(query_, StarPlan::kPropertyTable, nullptr);
  auto ptp =
      store_.RunStar(query_, StarPlan::kPropertyTablePushdown, nullptr);
  EXPECT_EQ(subjects(base), subjects(pt));
  EXPECT_EQ(subjects(pt), subjects(ptp));
}

TEST_F(KgStoreTest, PropertyTablePushdownPrunesExactFilters) {
  store_.BuildPropertyTable(query_.predicate_ids);
  StarQueryMetrics plain, pushdown;
  store_.RunStar(query_, StarPlan::kPropertyTable, &plain);
  store_.RunStar(query_, StarPlan::kPropertyTablePushdown, &pushdown);
  EXPECT_LT(pushdown.st_filter_evaluations, plain.st_filter_evaluations / 2);
}

TEST_F(KgStoreTest, PropertyTableServesSubsetQueries) {
  // A table over three predicates serves a two-predicate star.
  store_.BuildPropertyTable(query_.predicate_ids);
  StarQuery narrow = query_;
  narrow.predicate_ids.pop_back();
  auto base = store_.RunStar(narrow, StarPlan::kVerticalPartition, nullptr);
  auto pt = store_.RunStar(narrow, StarPlan::kPropertyTable, nullptr);
  EXPECT_EQ(base.size(), pt.size());
}

TEST_F(KgStoreTest, MissingPropertyTableYieldsNoRows) {
  // No table built: property-table plans return empty (planner would fall
  // back to another layout in a full system).
  auto rows = store_.RunStar(query_, StarPlan::kPropertyTable, nullptr);
  EXPECT_TRUE(rows.empty());
}

// ------------------------------------------------------- Pinned plans

// Rows as (subject, objects) pairs in subject order, so plans that emit
// rows in different orders compare equal exactly when their rows do.
std::vector<std::pair<uint64_t, std::vector<uint64_t>>> SortedRows(
    const std::vector<StarRow>& rows) {
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> out;
  for (const StarRow& row : rows) out.emplace_back(row.subject, row.objects);
  std::sort(out.begin(), out.end());
  return out;
}

// A small fixed graph exercising each join edge case, with the exact
// rows and StarQueryMetrics of every indexed plan pinned by hand:
//   s0  in the box, two p1 objects (the row binds the smallest id);
//   s1  in the box, the p2 triple inserted twice;
//   s2  in the box, lacks p2;      s6  in the box, lacks p1;
//   s3  in the box's st-cell but outside the exact box;
//   s4  in another st-cell;        s5  no position at all;
//   s7  p2 only, no position (makes p2 the less selective predicate).
// The query lists p2 before p1, so the driving predicate is slot 1.
class PinnedPlanTest : public ::testing::Test {
 protected:
  PinnedPlanTest()
      : encoder_({0.0, 0.0, 10.0, 10.0}, 1, 0, kMillisPerHour),
        store_(encoder_, 4) {
    auto node = [](int i) {
      return rdf::Iri("http://pin/s" + std::to_string(i));
    };
    auto obj = [](const std::string& name) {
      return rdf::Iri("http://pin/o/" + name);
    };
    const rdf::Term p1 = rdf::Iri("http://pin/p1");
    const rdf::Term p2 = rdf::Iri("http://pin/p2");
    const TimeMs minute = 60 * 1000;
    store_.AddPositionNode(node(0), 2.0, 2.0, 10 * minute);
    store_.Add({node(0), p1, obj("o1b")});
    store_.Add({node(0), p1, obj("o1a")});
    store_.Add({node(0), p2, obj("o2")});
    store_.AddPositionNode(node(1), 2.5, 2.5, 15 * minute);
    store_.Add({node(1), p1, obj("o3")});
    store_.Add({node(1), p2, obj("o4")});
    store_.Add({node(1), p2, obj("o4")});
    store_.AddPositionNode(node(2), 1.5, 1.5, 5 * minute);
    store_.Add({node(2), p1, obj("o5")});
    store_.AddPositionNode(node(3), 4.0, 4.0, 10 * minute);
    store_.Add({node(3), p1, obj("o6")});
    store_.Add({node(3), p2, obj("o7")});
    store_.AddPositionNode(node(4), 8.0, 8.0, 10 * minute);
    store_.Add({node(4), p1, obj("o8")});
    store_.Add({node(4), p2, obj("o9")});
    store_.Add({node(5), p1, obj("o10")});
    store_.Add({node(5), p2, obj("o11")});
    store_.AddPositionNode(node(6), 2.0, 2.0, 10 * minute);
    store_.Add({node(6), p2, obj("o12")});
    store_.Add({node(7), p2, obj("o13")});
    store_.Compile();

    const rdf::Dictionary& dict = store_.dictionary();
    auto id = [&](const rdf::Term& t) { return dict.Lookup(t); };
    query_.predicate_ids = {id(p2), id(p1)};
    store_.BuildPropertyTable({id(p1), id(p2)});
    box_.bounds = {1.0, 1.0, 3.0, 3.0};
    box_.t_begin = 0;
    box_.t_end = 30 * minute;

    const uint64_t o1 = std::min(id(obj("o1a")), id(obj("o1b")));
    all_rows_ = {{id(node(0)), {id(obj("o2")), o1}},
                 {id(node(1)), {id(obj("o4")), id(obj("o3"))}},
                 {id(node(3)), {id(obj("o7")), id(obj("o6"))}},
                 {id(node(4)), {id(obj("o9")), id(obj("o8"))}},
                 {id(node(5)), {id(obj("o11")), id(obj("o10"))}}};
    std::sort(all_rows_.begin(), all_rows_.end());
    for (const auto& row : all_rows_) {
      if (row.first == id(node(0)) || row.first == id(node(1))) {
        boxed_rows_.push_back(row);
      }
    }
  }

  StarQuery Query(bool boxed) const {
    StarQuery q = query_;
    q.has_st_constraint = boxed;
    q.st_box = box_;
    return q;
  }

  geom::StCellEncoder encoder_;
  KnowledgeStore store_;
  StarQuery query_;
  geom::StCellEncoder::StBox box_;
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> all_rows_;
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> boxed_rows_;
};

TEST_F(PinnedPlanTest, IndexedPlansPinRowsAndCounters) {
  struct Expect {
    StarPlan plan;
    bool boxed;
    size_t triples_scanned, candidate_subjects, st_filter_evaluations;
  };
  // Join plans: 7 driver (p1) postings + one probe per distinct driver
  // subject (6). Pushdown plans: 6 side-index probes + per-slot probes
  // for the 5 st-cell survivors (s0 2, s1 2, s2 1, s3 2, s6 2), leaving
  // 3 candidates. Property tables: one wide-row visit per complete row.
  const Expect cases[] = {
      {StarPlan::kVerticalPartition, false, 13, 5, 0},
      {StarPlan::kVerticalPartition, true, 13, 5, 5},
      {StarPlan::kVerticalPartitionPushdown, false, 13, 5, 0},
      {StarPlan::kVerticalPartitionPushdown, true, 15, 3, 3},
      {StarPlan::kPropertyTable, false, 5, 5, 0},
      {StarPlan::kPropertyTable, true, 5, 5, 5},
      {StarPlan::kPropertyTablePushdown, false, 5, 5, 0},
      {StarPlan::kPropertyTablePushdown, true, 5, 3, 3},
      {StarPlan::kAdjacencyIndex, false, 13, 5, 0},
      {StarPlan::kAdjacencyIndex, true, 13, 5, 5},
      {StarPlan::kAdjacencyIndexPushdown, false, 13, 5, 0},
      {StarPlan::kAdjacencyIndexPushdown, true, 15, 3, 3},
  };
  for (const Expect& e : cases) {
    SCOPED_TRACE(std::string(StarPlanName(e.plan)) +
                 (e.boxed ? " boxed" : " unboxed"));
    StarQueryMetrics m;
    auto rows = store_.RunStar(Query(e.boxed), e.plan, &m);
    EXPECT_EQ(SortedRows(rows), e.boxed ? boxed_rows_ : all_rows_);
    EXPECT_EQ(m.triples_scanned, e.triples_scanned);
    EXPECT_EQ(m.candidate_subjects, e.candidate_subjects);
    EXPECT_EQ(m.st_filter_evaluations, e.st_filter_evaluations);
    EXPECT_EQ(m.rows, e.boxed ? 2u : 5u);
  }
}

TEST_F(PinnedPlanTest, ScanPlanPinsSubjects) {
  for (bool boxed : {false, true}) {
    auto rows = store_.RunStar(Query(boxed), StarPlan::kTriplesTableScan,
                               nullptr);
    std::set<uint64_t> got, want;
    for (const StarRow& row : rows) got.insert(row.subject);
    for (const auto& row : boxed ? boxed_rows_ : all_rows_) {
      want.insert(row.first);
    }
    EXPECT_EQ(got, want) << (boxed ? "boxed" : "unboxed");
  }
}

// Sweep the selectivity of the st-box: plans must agree everywhere.
class PlanAgreementSweep : public ::testing::TestWithParam<double> {};

TEST_P(PlanAgreementSweep, AgreeAtAllSelectivities) {
  double frac = GetParam();
  geom::StCellEncoder encoder({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour);
  KnowledgeStore store(encoder, 3);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    rdf::Term node = rdf::Iri("http://x/n/" + std::to_string(i));
    store.AddPositionNode(node, rng.Uniform(0, 10), rng.Uniform(35, 44),
                          static_cast<TimeMs>(rng.Uniform(0, 86400000.0)));
    store.Add({node, rdf::Iri(rdf::vocab::kHasSpeed),
               rdf::DoubleLiteral(1.0)});
  }
  store.Compile();
  StarQuery q;
  q.predicate_ids = {
      store.dictionary().Lookup(rdf::Iri(rdf::vocab::kHasSpeed))};
  q.has_st_constraint = true;
  q.st_box.bounds = {0.0, 35.0, 0.0 + 10 * frac, 35.0 + 9 * frac};
  q.st_box.t_begin = 0;
  q.st_box.t_end = static_cast<TimeMs>(86400000.0 * frac);
  // One object per predicate on every subject, so every plan, the scan
  // included, binds the same objects.
  auto reference =
      SortedRows(store.RunStar(q, StarPlan::kTriplesTableScan, nullptr));
  for (StarPlan plan :
       {StarPlan::kVerticalPartition, StarPlan::kVerticalPartitionPushdown,
        StarPlan::kAdjacencyIndex, StarPlan::kAdjacencyIndexPushdown}) {
    EXPECT_EQ(SortedRows(store.RunStar(q, plan, nullptr)), reference)
        << StarPlanName(plan);
  }
}

INSTANTIATE_TEST_SUITE_P(Selectivities, PlanAgreementSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace tcmf::store
