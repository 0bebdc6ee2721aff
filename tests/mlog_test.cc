#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "common/varint.h"
#include "datagen/areas.h"
#include "datagen/vessel.h"
#include "mlog/codec.h"
#include "mlog/log.h"
#include "mlog/partitioned.h"
#include "mlog/stages.h"
#include "stream/pipeline.h"
#include "stream/record.h"
#include "stream/sharded.h"

namespace tcmf::mlog {
namespace {

namespace fsys = std::filesystem;

/// Fresh per-test log directory under the test working directory (kept
/// inside the build tree; .gitignore covers it).
std::string TestDir(const std::string& name) {
  const std::string dir = "mlog_test_logs/" + name;
  fsys::remove_all(dir);
  return dir;
}

std::unique_ptr<Log> MustOpen(const LogOptions& options) {
  Result<std::unique_ptr<Log>> log = Log::Open(options);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return std::move(log).value();
}

stream::Record MakeRecord(int i) {
  stream::Record r;
  r.set_event_time(1000 * i);
  r.Set("seq", static_cast<int64_t>(i));
  r.Set("name", "entity-" + std::to_string(i % 7));
  r.Set("speed", 3.5 * i);
  r.Set("moving", i % 2 == 0);
  return r;
}

stream::Record RandomRecord(Rng& rng) {
  stream::Record r;
  r.set_event_time(rng.UniformInt(-4'000'000'000'000LL, 4'000'000'000'000LL));
  const int64_t n = rng.UniformInt(0, 8);
  for (int64_t i = 0; i < n; ++i) {
    // Appended, not "f" + ...: GCC 12 reports a false -Wrestrict there.
    std::string name = "f";
    name += std::to_string(i);
    switch (rng.UniformInt(0, 5)) {
      case 0:
        r.Set(name, stream::Value{});  // null
        break;
      case 1:
        r.Set(name, rng.UniformInt(std::numeric_limits<int64_t>::min() / 2,
                                   std::numeric_limits<int64_t>::max() / 2));
        break;
      case 2: {
        const double choices[] = {0.0,
                                  -0.0,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  rng.Gaussian(0.0, 1e9),
                                  1e-300};
        r.Set(name, choices[rng.UniformInt(0, 6)]);
        break;
      }
      case 3: {
        std::string s;
        const int64_t len = rng.UniformInt(0, 64);
        for (int64_t k = 0; k < len; ++k) {
          s.push_back(static_cast<char>(rng.UniformInt(0, 255)));
        }
        r.Set(name, s);
        break;
      }
      case 4:
        r.Set(name, rng.Bernoulli(0.5));
        break;
      case 5:
        r.Set(name, std::string());  // empty string, distinct from null
        break;
    }
  }
  return r;
}

std::vector<stream::Record> ReadAll(Log* log) {
  std::vector<stream::Record> out;
  std::unique_ptr<Cursor> cursor = log->NewCursor();
  while (auto rr = cursor->Next()) out.push_back(std::move(rr->record));
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  return out;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string OnlySegmentPath(const std::string& dir) {
  std::string found;
  for (const auto& e : fsys::directory_iterator(dir)) {
    if (e.path().extension() == ".mseg") {
      EXPECT_TRUE(found.empty()) << "expected a single segment";
      found = e.path().string();
    }
  }
  EXPECT_FALSE(found.empty());
  return found;
}

// ---------------------------------------------------------------- codec

TEST(MlogCodecTest, RoundTripAllValueKinds) {
  stream::Record r;
  r.set_event_time(-123456789);
  r.Set("null", stream::Value{});
  r.Set("empty", std::string());  // "" must stay distinct from null
  r.Set("int_neg", static_cast<int64_t>(-9876543210));
  r.Set("int_min", std::numeric_limits<int64_t>::min());
  r.Set("int_max", std::numeric_limits<int64_t>::max());
  r.Set("nan", std::numeric_limits<double>::quiet_NaN());
  r.Set("inf", std::numeric_limits<double>::infinity());
  r.Set("ninf", -std::numeric_limits<double>::infinity());
  r.Set("nzero", -0.0);
  r.Set("pi", 3.141592653589793);
  r.Set("yes", true);
  r.Set("no", false);
  r.Set("text", std::string("καράβι\0binary", 14));

  std::string payload;
  EncodeRecordPayload(r, &payload);
  stream::Record back;
  ASSERT_TRUE(DecodeRecordPayload(payload, &back));
  EXPECT_EQ(r, back);
  // Null and empty string decode to different variants.
  EXPECT_FALSE(back.GetString("null").has_value());
  EXPECT_EQ(back.GetString("empty").value(), "");
  EXPECT_TRUE(std::isnan(back.GetDouble("nan").value()));
  EXPECT_TRUE(std::signbit(back.GetDouble("nzero").value()));
}

TEST(MlogCodecTest, RoundTripEmptyRecord) {
  stream::Record r;
  std::string payload;
  EncodeRecordPayload(r, &payload);
  stream::Record back;
  back.Set("stale", true);  // must be replaced wholesale
  ASSERT_TRUE(DecodeRecordPayload(payload, &back));
  EXPECT_EQ(r, back);
  EXPECT_EQ(back.size(), 0u);
}

TEST(MlogCodecTest, RandomizedRoundTripProperty) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    const stream::Record r = RandomRecord(rng);
    std::string payload;
    EncodeRecordPayload(r, &payload);
    stream::Record back;
    ASSERT_TRUE(DecodeRecordPayload(payload, &back)) << "trial " << trial;
    EXPECT_EQ(r, back) << "trial " << trial << ": " << r.ToString();
  }
}

TEST(MlogCodecTest, EveryProperPrefixIsRejected) {
  const stream::Record r = MakeRecord(3);
  std::string payload;
  EncodeRecordPayload(r, &payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    stream::Record back;
    EXPECT_FALSE(
        DecodeRecordPayload(std::string_view(payload.data(), cut), &back))
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(MlogCodecTest, EventTimeProbe) {
  stream::Record r = MakeRecord(5);
  r.set_event_time(-42);
  std::string payload;
  EncodeRecordPayload(r, &payload);
  TimeMs t = 0;
  ASSERT_TRUE(DecodePayloadEventTime(payload, &t));
  EXPECT_EQ(t, -42);
}

TEST(MlogCodecTest, EntryFramingDetectsEveryBitFlip) {
  std::string entry;
  AppendEntry(&entry, MakeRecord(9));
  EntryView view;
  ASSERT_TRUE(ParseEntry(entry.data(), entry.data() + entry.size(), &view));
  EXPECT_EQ(view.next, entry.data() + entry.size());
  stream::Record back;
  ASSERT_TRUE(DecodeRecordPayload(view.payload, &back));
  EXPECT_EQ(back, MakeRecord(9));

  // Any torn suffix fails.
  for (size_t cut = 0; cut < entry.size(); ++cut) {
    EXPECT_FALSE(ParseEntry(entry.data(), entry.data() + cut, &view))
        << "torn at " << cut;
  }
  // Any single-bit corruption fails (CRC32C guarantees burst < 32 bits).
  for (size_t pos = 0; pos < entry.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = entry;
      bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
      EXPECT_FALSE(ParseEntry(bad.data(), bad.data() + bad.size(), &view))
          << "flip at byte " << pos << " bit " << bit;
    }
  }
}

TEST(MlogCodecTest, VarintAndCrcPrimitives) {
  // Varint round-trip across magnitudes.
  const uint64_t kMagnitudes[] = {0,     1,          127,
                                  128,   16383,      16384,
                                  1ull << 32, std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : kMagnitudes) {
    std::string buf;
    AppendVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength64(v));
    uint64_t back = 0;
    const char* end = ParseVarint64(buf.data(), buf.data() + buf.size(), &back);
    ASSERT_NE(end, nullptr);
    EXPECT_EQ(end, buf.data() + buf.size());
    EXPECT_EQ(back, v);
    // Truncated varints are rejected.
    EXPECT_EQ(ParseVarint64(buf.data(), buf.data() + buf.size() - 1, &back),
              nullptr);
  }
  // ZigZag bijection.
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode64(ZigZagEncode64(v)), v);
  }
  // CRC32C known-answer test: "123456789" -> 0xE3069283 (RFC 3720 vector).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cUnmask(Crc32cMask(0xE3069283u)), 0xE3069283u);
  // Extend is equivalent to a single pass.
  const std::string s = "the quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Crc32cExtend(Crc32c(s.data(), 10), s.data() + 10, s.size() - 10),
            Crc32c(s.data(), s.size()));
}

// ------------------------------------------------------------------ log

TEST(MlogLogTest, AppendReadRoundTrip) {
  LogOptions opt;
  opt.dir = TestDir("round_trip");
  auto log = MustOpen(opt);
  std::vector<stream::Record> originals;
  for (int i = 0; i < 1000; ++i) {
    originals.push_back(MakeRecord(i));
    Result<uint64_t> off = log->Append(originals.back());
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(off.value(), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(log->next_offset(), 1000u);
  const std::vector<stream::Record> back = ReadAll(log.get());
  ASSERT_EQ(back.size(), originals.size());
  for (size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], originals[i]);
}

TEST(MlogLogTest, BatchAppendAssignsDenseOffsets) {
  LogOptions opt;
  opt.dir = TestDir("batch");
  auto log = MustOpen(opt);
  std::vector<stream::Record> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(MakeRecord(i));
  Result<uint64_t> first = log->AppendBatch(batch);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 0u);
  Result<uint64_t> second = log->AppendBatch(batch);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 10u);
  EXPECT_EQ(log->next_offset(), 20u);

  std::unique_ptr<Cursor> cursor = log->NewCursor();
  uint64_t expected = 0;
  while (auto rr = cursor->Next()) {
    EXPECT_EQ(rr->offset, expected);
    EXPECT_EQ(rr->record, batch[expected % 10]);
    ++expected;
  }
  EXPECT_EQ(expected, 20u);
}

TEST(MlogLogTest, ReopenContinuesOffsets) {
  LogOptions opt;
  opt.dir = TestDir("reopen");
  {
    auto log = MustOpen(opt);
    for (int i = 0; i < 25; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
  }
  auto log = MustOpen(opt);
  EXPECT_EQ(log->next_offset(), 25u);
  EXPECT_EQ(log->metrics().recovered_records, 25u);
  EXPECT_EQ(log->metrics().truncated_bytes, 0u);
  Result<uint64_t> off = log->Append(MakeRecord(25));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.value(), 25u);
  const auto back = ReadAll(log.get());
  ASSERT_EQ(back.size(), 26u);
  for (int i = 0; i < 26; ++i) EXPECT_EQ(back[i], MakeRecord(i));
}

TEST(MlogLogTest, RollsSegmentsAndReadsAcrossThem) {
  LogOptions opt;
  opt.dir = TestDir("roll");
  opt.segment_bytes = 256;  // tiny: force frequent rolls
  auto log = MustOpen(opt);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
  EXPECT_GT(log->segment_count(), 3u);
  const auto back = ReadAll(log.get());
  ASSERT_EQ(back.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(back[i], MakeRecord(i));

  // Reopen with multiple sealed segments on disk.
  log.reset();
  log = MustOpen(opt);
  EXPECT_EQ(log->next_offset(), 200u);
  const auto again = ReadAll(log.get());
  ASSERT_EQ(again.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(again[i], MakeRecord(i));
}

TEST(MlogLogTest, SeekByOffset) {
  LogOptions opt;
  opt.dir = TestDir("seek");
  opt.segment_bytes = 512;
  opt.index_interval_bytes = 128;  // exercise the sparse index
  auto log = MustOpen(opt);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());

  std::unique_ptr<Cursor> cursor = log->NewCursor();
  for (uint64_t target : {0ull, 1ull, 137ull, 255ull, 299ull}) {
    ASSERT_TRUE(cursor->Seek(target).ok());
    auto rr = cursor->Next();
    ASSERT_TRUE(rr.has_value()) << "at " << target;
    EXPECT_EQ(rr->offset, target);
    EXPECT_EQ(rr->record, MakeRecord(static_cast<int>(target)));
  }
  // Past-the-end seeks clamp to end (no records, no error).
  ASSERT_TRUE(cursor->Seek(1000).ok());
  EXPECT_EQ(cursor->offset(), 300u);
  EXPECT_FALSE(cursor->Next().has_value());
  EXPECT_TRUE(cursor->status().ok());
}

TEST(MlogLogTest, SeekToEventTime) {
  LogOptions opt;
  opt.dir = TestDir("seek_time");
  auto log = MustOpen(opt);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(log->Append(MakeRecord(i)).ok());  // event_time = 1000*i
  }
  std::unique_ptr<Cursor> cursor = log->NewCursor();
  ASSERT_TRUE(cursor->SeekToTime(1500).ok());
  auto rr = cursor->Next();
  ASSERT_TRUE(rr.has_value());
  EXPECT_EQ(rr->record.event_time(), 2000);  // first record with t >= 1500
  ASSERT_TRUE(cursor->SeekToTime(-100).ok());
  EXPECT_EQ(cursor->Next()->record.event_time(), 0);
  ASSERT_TRUE(cursor->SeekToTime(1'000'000).ok());
  EXPECT_FALSE(cursor->Next().has_value());  // nothing that late
  EXPECT_TRUE(cursor->status().ok());
}

TEST(MlogLogTest, TailingCursorSeesLaterAppends) {
  LogOptions opt;
  opt.dir = TestDir("tailing");
  auto log = MustOpen(opt);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
  std::unique_ptr<Cursor> cursor = log->NewCursor();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(cursor->Next().has_value());
  EXPECT_FALSE(cursor->Next().has_value());  // caught up, not an error
  EXPECT_TRUE(cursor->status().ok());
  ASSERT_TRUE(log->Append(MakeRecord(3)).ok());
  auto rr = cursor->Next();
  ASSERT_TRUE(rr.has_value());
  EXPECT_EQ(rr->offset, 3u);
}

TEST(MlogLogTest, NextBatchMatchesRepeatedNext) {
  LogOptions opt;
  opt.dir = TestDir("next_batch_equiv");
  opt.segment_bytes = 512;  // force many segments
  auto log = MustOpen(opt);
  const int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
  }
  ASSERT_GT(log->segment_count(), 1u);

  std::unique_ptr<Cursor> one = log->NewCursor();
  std::unique_ptr<Cursor> batched = log->NewCursor();
  std::vector<ReadRecord> expected;
  while (auto rr = one->Next()) expected.push_back(std::move(*rr));
  ASSERT_EQ(expected.size(), static_cast<size_t>(kCount));

  // Varying batch sizes, including ones that straddle segment
  // boundaries, must yield the identical record+offset sequence.
  std::vector<ReadRecord> got;
  std::vector<ReadRecord> chunk;
  size_t want = 1;
  while (true) {
    chunk.clear();
    const size_t n = batched->NextBatch(&chunk, want);
    if (n == 0) break;
    EXPECT_EQ(n, chunk.size());
    EXPECT_LE(n, want);
    for (auto& rr : chunk) got.push_back(std::move(rr));
    want = want * 3 + 1;  // 1, 4, 13, 40, 121, ...
  }
  EXPECT_TRUE(batched->status().ok()) << batched->status().ToString();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].offset, expected[i].offset) << i;
    EXPECT_EQ(got[i].record, expected[i].record) << i;
  }
}

TEST(MlogLogTest, NextBatchCrossesSegmentsInOneCall) {
  LogOptions opt;
  opt.dir = TestDir("next_batch_cross");
  opt.segment_bytes = 256;  // a handful of records per segment
  auto log = MustOpen(opt);
  for (int i = 0; i < 120; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
  ASSERT_GT(log->segment_count(), 2u);

  // One call larger than any single segment's record count walks through
  // sealed-segment boundaries and returns everything.
  std::unique_ptr<Cursor> cursor = log->NewCursor();
  std::vector<ReadRecord> all;
  EXPECT_EQ(cursor->NextBatch(&all, 1000), 120u);
  ASSERT_EQ(all.size(), 120u);
  for (int i = 0; i < 120; ++i) {
    EXPECT_EQ(all[i].offset, static_cast<uint64_t>(i));
    EXPECT_EQ(all[i].record, MakeRecord(i));
  }
  // Exhausted: further batch reads return 0 without error (tailing).
  std::vector<ReadRecord> more;
  EXPECT_EQ(cursor->NextBatch(&more, 16), 0u);
  EXPECT_TRUE(cursor->status().ok());
}

TEST(MlogLogTest, NextBatchTailsTheActiveSegment) {
  LogOptions opt;
  opt.dir = TestDir("next_batch_tail");
  auto log = MustOpen(opt);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
  std::unique_ptr<Cursor> cursor = log->NewCursor();
  std::vector<ReadRecord> out;
  // Asking for more than is committed returns only the committed prefix.
  EXPECT_EQ(cursor->NextBatch(&out, 64), 5u);
  EXPECT_EQ(cursor->NextBatch(&out, 64), 0u);  // caught up, not an error
  EXPECT_TRUE(cursor->status().ok());
  // New appends become visible to the same cursor on the next call.
  for (int i = 5; i < 9; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
  EXPECT_EQ(cursor->NextBatch(&out, 64), 4u);
  ASSERT_EQ(out.size(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(out[i].record, MakeRecord(i));
  // max_n == 0 is a no-op.
  EXPECT_EQ(cursor->NextBatch(&out, 0), 0u);
  // Amortized read metrics still account every record exactly once.
  EXPECT_EQ(log->metrics().read_records, 9u);
}

TEST(MlogLogTest, RetentionDropsOldSegmentsAndAdvancesStart) {
  LogOptions opt;
  opt.dir = TestDir("retention");
  opt.segment_bytes = 256;
  opt.retention_segments = 3;
  auto log = MustOpen(opt);
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
  EXPECT_LE(log->segment_count(), 3u);
  EXPECT_GT(log->start_offset(), 0u);
  EXPECT_GT(log->metrics().segments_deleted, 0u);

  // Seeking below the horizon clamps to the oldest retained record.
  std::unique_ptr<Cursor> cursor = log->NewCursor();
  ASSERT_TRUE(cursor->Seek(0).ok());
  auto rr = cursor->Next();
  ASSERT_TRUE(rr.has_value());
  EXPECT_EQ(rr->offset, log->start_offset());
  EXPECT_EQ(rr->record, MakeRecord(static_cast<int>(rr->offset)));
  // And everything from the horizon to the end is intact.
  uint64_t expected = rr->offset + 1;
  while (auto next = cursor->Next()) {
    EXPECT_EQ(next->offset, expected);
    ++expected;
  }
  EXPECT_EQ(expected, 400u);
}

TEST(MlogLogTest, FsyncPolicyCountsSyncs) {
  {
    LogOptions opt;
    opt.dir = TestDir("fsync_never");
    opt.fsync_policy = FsyncPolicy::kNever;
    auto log = MustOpen(opt);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
    EXPECT_EQ(log->metrics().fsyncs, 0u);
  }
  {
    LogOptions opt;
    opt.dir = TestDir("fsync_batch");
    opt.fsync_policy = FsyncPolicy::kPerBatch;
    auto log = MustOpen(opt);
    std::vector<stream::Record> batch;
    for (int i = 0; i < 5; ++i) batch.push_back(MakeRecord(i));
    ASSERT_TRUE(log->AppendBatch(batch).ok());
    // One for the segment-header create, one for the batch.
    EXPECT_EQ(log->metrics().fsyncs, 2u);
  }
  {
    LogOptions opt;
    opt.dir = TestDir("fsync_append");
    opt.fsync_policy = FsyncPolicy::kPerAppend;
    auto log = MustOpen(opt);
    std::vector<stream::Record> batch;
    for (int i = 0; i < 5; ++i) batch.push_back(MakeRecord(i));
    ASSERT_TRUE(log->AppendBatch(batch).ok());
    // One per record plus the segment-header create.
    EXPECT_EQ(log->metrics().fsyncs, 6u);
  }
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kNever), "never");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kPerBatch), "per_batch");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kPerAppend), "per_append");
}

TEST(MlogLogTest, EmptyLogBehaves) {
  LogOptions opt;
  opt.dir = TestDir("empty");
  auto log = MustOpen(opt);
  EXPECT_EQ(log->start_offset(), 0u);
  EXPECT_EQ(log->next_offset(), 0u);
  EXPECT_EQ(log->segment_count(), 1u);
  std::unique_ptr<Cursor> cursor = log->NewCursor();
  EXPECT_FALSE(cursor->Next().has_value());
  EXPECT_TRUE(cursor->status().ok());
}

// ------------------------------------------------------------- recovery

/// Shared fixture data for the fault-injection sweeps: a 5-record log in
/// one segment, with the byte range of the last entry known exactly.
struct TailFixture {
  LogOptions opt;
  std::string segment_path;
  std::string pristine;        ///< full segment file bytes
  uint64_t last_entry_start;   ///< file pos where the last entry begins
  std::vector<stream::Record> originals;
};

TailFixture BuildTailFixture(const std::string& name) {
  TailFixture fx;
  fx.opt.dir = TestDir(name);
  auto log = MustOpen(fx.opt);
  for (int i = 0; i < 5; ++i) {
    fx.originals.push_back(MakeRecord(i));
    EXPECT_TRUE(log->Append(fx.originals.back()).ok());
    if (i == 3) fx.last_entry_start = log->size_bytes();
  }
  log.reset();  // close fds; page cache keeps the bytes
  fx.segment_path = OnlySegmentPath(fx.opt.dir);
  fx.pristine = ReadFileBytes(fx.segment_path);
  EXPECT_GT(fx.pristine.size(), fx.last_entry_start);
  return fx;
}

/// After damaging the tail, recovery must keep exactly the first 4
/// records, appends must continue at offset 4, and the re-appended log
/// must read back intact.
void ExpectRecoversPrefix(const TailFixture& fx, uint64_t expect_truncated) {
  auto log = MustOpen(fx.opt);
  EXPECT_EQ(log->next_offset(), 4u);
  EXPECT_EQ(log->metrics().recovered_records, 4u);
  EXPECT_EQ(log->metrics().truncated_bytes, expect_truncated);

  Result<uint64_t> off = log->Append(MakeRecord(100));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.value(), 4u);  // no gap, no duplicate

  const auto back = ReadAll(log.get());
  ASSERT_EQ(back.size(), 5u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back[i], fx.originals[i]);
  EXPECT_EQ(back[4], MakeRecord(100));
}

TEST(MlogRecoveryTest, TornTailEveryTruncationPoint) {
  const TailFixture fx = BuildTailFixture("torn_tail");
  for (uint64_t cut = fx.last_entry_start; cut < fx.pristine.size(); ++cut) {
    SCOPED_TRACE("truncated at byte " + std::to_string(cut));
    WriteFileBytes(fx.segment_path, fx.pristine.substr(0, cut));
    ExpectRecoversPrefix(fx, cut - fx.last_entry_start);
  }
  // Restoring the pristine bytes recovers all 5 records.
  WriteFileBytes(fx.segment_path, fx.pristine);
  auto log = MustOpen(fx.opt);
  EXPECT_EQ(log->next_offset(), 5u);
  EXPECT_EQ(log->metrics().truncated_bytes, 0u);
}

TEST(MlogRecoveryTest, BitFlipAtEveryByteOfLastEntry) {
  const TailFixture fx = BuildTailFixture("bit_flip");
  for (uint64_t pos = fx.last_entry_start; pos < fx.pristine.size(); ++pos) {
    SCOPED_TRACE("bit flip at byte " + std::to_string(pos));
    std::string damaged = fx.pristine;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x20);
    WriteFileBytes(fx.segment_path, damaged);
    // The whole last entry is cut, whichever of its bytes was damaged.
    ExpectRecoversPrefix(fx, fx.pristine.size() - fx.last_entry_start);
  }
}

TEST(MlogRecoveryTest, TornHeaderResetsSegment) {
  LogOptions opt;
  opt.dir = TestDir("torn_header");
  { auto log = MustOpen(opt); }
  const std::string path = OnlySegmentPath(opt.dir);
  const std::string pristine = ReadFileBytes(path);
  ASSERT_EQ(pristine.size(), 16u);
  WriteFileBytes(path, pristine.substr(0, 7));  // torn mid-header

  auto log = MustOpen(opt);
  EXPECT_EQ(log->next_offset(), 0u);
  EXPECT_EQ(log->metrics().truncated_bytes, 7u);
  ASSERT_TRUE(log->Append(MakeRecord(0)).ok());
  EXPECT_EQ(ReadAll(log.get()).size(), 1u);
}

TEST(MlogRecoveryTest, RecoveryOnlyTouchesTailSegment) {
  LogOptions opt;
  opt.dir = TestDir("tail_only");
  opt.segment_bytes = 256;
  {
    auto log = MustOpen(opt);
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
    ASSERT_GT(log->segment_count(), 2u);
  }
  // Chop the final segment file mid-entry; everything in sealed segments
  // plus the tail's intact prefix must survive.
  std::vector<std::string> segs;
  for (const auto& e : fsys::directory_iterator(opt.dir)) {
    if (e.path().extension() == ".mseg") segs.push_back(e.path().string());
  }
  std::sort(segs.begin(), segs.end());
  const std::string tail = segs.back();
  const std::string bytes = ReadFileBytes(tail);
  ASSERT_GT(bytes.size(), 20u);
  WriteFileBytes(tail, bytes.substr(0, bytes.size() - 3));

  auto log = MustOpen(opt);
  const uint64_t n = log->next_offset();
  EXPECT_LT(n, 100u);
  EXPECT_GT(n, 50u);  // only tail-segment records were at risk
  const auto back = ReadAll(log.get());
  ASSERT_EQ(back.size(), n);
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(back[i], MakeRecord(static_cast<int>(i)));
  }
}

TEST(MlogRecoveryTest, CursorSurfacesMidLogCorruption) {
  LogOptions opt;
  opt.dir = TestDir("mid_log");
  {
    auto log = MustOpen(opt);
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());
  }
  // Damage an entry in the *middle* (not the tail): recovery keeps the
  // prefix; the cursor must stop with a sticky error, not skip or crash.
  const std::string path = OnlySegmentPath(opt.dir);
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xff);
  WriteFileBytes(path, bytes);

  auto log = MustOpen(opt);
  EXPECT_LT(log->next_offset(), 20u);  // suffix truncated from the bad entry
  std::unique_ptr<Cursor> cursor = log->NewCursor();
  uint64_t n = 0;
  while (cursor->Next()) ++n;
  EXPECT_EQ(n, log->next_offset());
  EXPECT_TRUE(cursor->status().ok());
}

/// One random edit of `bytes`: bit flip, byte overwrite, truncation,
/// junk insertion, or a near-2^64 varint — the length fields' worst
/// case, half the time written over the entry length at `first_entry`.
void MutateBytes(std::string* bytes, size_t first_entry, Rng& rng) {
  auto pos_in = [&](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n)));
  };
  if (bytes->empty()) {
    bytes->push_back(static_cast<char>(rng.UniformInt(0, 255)));
    return;
  }
  switch (rng.UniformInt(0, 4)) {
    case 0:
      (*bytes)[pos_in(bytes->size() - 1)] ^=
          static_cast<char>(1 << rng.UniformInt(0, 7));
      break;
    case 1:
      (*bytes)[pos_in(bytes->size() - 1)] =
          static_cast<char>(rng.UniformInt(0, 255));
      break;
    case 2:
      bytes->resize(pos_in(bytes->size()));
      break;
    case 3: {
      std::string junk;
      for (int b = static_cast<int>(rng.UniformInt(1, 16)); b > 0; --b) {
        junk.push_back(static_cast<char>(rng.UniformInt(0, 255)));
      }
      bytes->insert(pos_in(bytes->size()), junk);
      break;
    }
    default: {
      std::string big;
      AppendVarint64(&big,
                     ~0ull - static_cast<uint64_t>(rng.UniformInt(0, 32)));
      const size_t at = rng.Bernoulli(0.5)
                            ? std::min(first_entry, bytes->size() - 1)
                            : pos_in(bytes->size() - 1);
      bytes->replace(at, big.size(), big);
      break;
    }
  }
}

// Seeded mutation fuzz of the durable format: a valid multi-segment log
// is mutated and fed to the entry and payload decoders, and to Log::Open
// recovery followed by a full cursor replay. Damage must surface as a
// parse failure, a truncated tail, an Open error or a sticky cursor
// error — never a crash or a sanitizer report.
TEST(MlogRecoveryTest, MutationFuzzNeverCrashes) {
  LogOptions opt;
  opt.dir = TestDir("fuzz_src");
  opt.segment_bytes = 1024;
  Rng gen(77);
  {
    auto log = MustOpen(opt);
    for (int i = 0; i < 80; ++i) {
      ASSERT_TRUE(log->Append(i % 2 ? MakeRecord(i) : RandomRecord(gen)).ok());
    }
    ASSERT_GT(log->segment_count(), 2u);
  }
  std::vector<std::pair<std::string, std::string>> segments;  // name, bytes
  for (const auto& e : fsys::directory_iterator(opt.dir)) {
    segments.emplace_back(e.path().filename().string(),
                          ReadFileBytes(e.path().string()));
  }
  std::sort(segments.begin(), segments.end());

  Rng rng(4242);
  // Decoders over mutated segment bodies (the 16-byte header stripped).
  size_t entries_parsed = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string& seg =
        segments[rng.UniformInt(0, static_cast<int64_t>(segments.size()) - 1)]
            .second;
    std::string body = seg.substr(16);
    for (int e = static_cast<int>(rng.UniformInt(1, 3)); e > 0; --e) {
      MutateBytes(&body, 0, rng);
    }
    const char* p = body.data();
    const char* limit = p + body.size();
    EntryView entry;
    stream::Record rec;
    while (p < limit && ParseEntry(p, limit, &entry)) {
      ASSERT_GT(entry.next, p);
      ASSERT_LE(entry.next, limit);
      DecodeRecordPayload(entry.payload, &rec);
      p = entry.next;
      ++entries_parsed;
    }
    // The raw bytes as a payload: must be rejected or decoded, nothing else.
    DecodeRecordPayload(body, &rec);
    TimeMs t = 0;
    DecodePayloadEventTime(body, &t);
  }
  EXPECT_GT(entries_parsed, 0u);

  // Recovery and replay over a directory with one or two damaged files.
  size_t opened = 0;
  size_t replay_errors = 0;
  for (int iter = 0; iter < 400; ++iter) {
    LogOptions run = opt;
    run.dir = TestDir("fuzz_run");
    fsys::create_directories(run.dir);
    std::vector<std::string> files;
    for (const auto& [name, bytes] : segments) files.push_back(bytes);
    for (int d = static_cast<int>(rng.UniformInt(1, 2)); d > 0; --d) {
      std::string& victim =
          files[rng.UniformInt(0, static_cast<int64_t>(files.size()) - 1)];
      for (int e = static_cast<int>(rng.UniformInt(1, 3)); e > 0; --e) {
        MutateBytes(&victim, 16, rng);  // after the segment header
      }
    }
    for (size_t i = 0; i < files.size(); ++i) {
      WriteFileBytes(run.dir + "/" + segments[i].first, files[i]);
    }
    Result<std::unique_ptr<Log>> log = Log::Open(run);
    if (!log.ok()) continue;
    ++opened;
    std::unique_ptr<Cursor> cursor = log.value()->NewCursor();
    std::vector<ReadRecord> batch;
    uint64_t replayed = 0;
    while (true) {
      batch.clear();
      const size_t n = cursor->NextBatch(&batch, 16);
      if (n == 0) break;
      for (const ReadRecord& r : batch) ASSERT_EQ(r.offset, replayed++);
    }
    EXPECT_LE(replayed, log.value()->next_offset());
    if (!cursor->status().ok()) ++replay_errors;
    // A recovered log accepts appends at its next offset.
    Result<uint64_t> off = log.value()->Append(MakeRecord(0));
    if (off.ok()) {
      EXPECT_EQ(off.value() + 1, log.value()->next_offset());
    }
  }
  EXPECT_GT(opened, 0u);
  EXPECT_GT(replay_errors, 0u);
}

// ---------------------------------------------------------- concurrency

TEST(MlogConcurrencyTest, WriterAndManyCursorReaders) {
  LogOptions opt;
  opt.dir = TestDir("concurrent");
  opt.segment_bytes = 8 * 1024;  // several rolls while readers tail
  auto log = MustOpen(opt);

  constexpr int kRecords = 2000;
  constexpr int kReaders = 4;
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    std::vector<stream::Record> batch;
    for (int i = 0; i < kRecords; ++i) {
      batch.push_back(MakeRecord(i));
      if (batch.size() == 16 || i + 1 == kRecords) {
        ASSERT_TRUE(log->AppendBatch(batch).ok());
        batch.clear();
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::vector<uint64_t> read_counts(kReaders, 0);
  std::vector<bool> read_ok(kReaders, true);
  for (int w = 0; w < kReaders; ++w) {
    readers.emplace_back([&, w] {
      std::unique_ptr<Cursor> cursor = log->NewCursor();
      uint64_t expected = 0;
      while (expected < kRecords) {
        auto rr = cursor->Next();
        if (!rr.has_value()) {
          if (!cursor->status().ok()) {
            read_ok[w] = false;
            return;
          }
          if (writer_done.load(std::memory_order_acquire) &&
              log->next_offset() <= expected) {
            break;
          }
          std::this_thread::yield();
          continue;
        }
        if (rr->offset != expected ||
            rr->record != MakeRecord(static_cast<int>(expected))) {
          read_ok[w] = false;
          return;
        }
        ++expected;
      }
      read_counts[w] = expected;
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  for (int w = 0; w < kReaders; ++w) {
    EXPECT_TRUE(read_ok[w]) << "reader " << w;
    EXPECT_EQ(read_counts[w], static_cast<uint64_t>(kRecords))
        << "reader " << w;
  }
  EXPECT_EQ(log->metrics().read_records,
            static_cast<uint64_t>(kRecords) * kReaders);
}

// ------------------------------------------------- dataflow integration

TEST(MlogStagesIntegrationTest, CaptureThenReplayVesselStreamIsIdentical) {
  // Simulate an AIS vessel stream, capture it through LogSink, then
  // replay it from a *freshly reopened* log and demand record equality —
  // fields, order and event time (the paper's Kafka replay semantics).
  datagen::VesselSimConfig config;
  config.vessel_count = 5;
  config.duration_ms = 30 * kMillisPerMinute;
  config.report_interval_ms = 30 * kMillisPerSecond;
  config.gap_probability = 0.0;
  Rng rng(11);
  auto ports = datagen::MakePorts(rng, config.extent, 6);
  datagen::VesselSimulator sim(config, ports, {}, nullptr);
  const datagen::VesselSimOutput data = sim.Run();
  ASSERT_GT(data.stream.size(), 100u);

  std::vector<stream::Record> expected;
  for (const Position& p : data.stream) {
    expected.push_back(stream::PositionToRecord(p));
  }

  LogOptions opt;
  opt.dir = TestDir("capture_replay");
  opt.segment_bytes = 32 * 1024;
  opt.fsync_policy = FsyncPolicy::kPerBatch;
  {
    auto log = MustOpen(opt);
    stream::Pipeline capture;
    auto flow = stream::Flow<Position>::FromVector(&capture, data.stream)
                    .Map<stream::Record>(
                        [](const Position& p) {
                          return stream::PositionToRecord(p);
                        });
    LogSink(flow, log.get(),
            {.batch = stream::BatchPolicy::Batched(/*max_batch=*/64)});
    capture.Run();
    EXPECT_EQ(log->next_offset(), expected.size());
    EXPECT_GT(log->metrics().appended_bytes, 0u);
    EXPECT_GT(log->metrics().fsyncs, 0u);
    // The sink registered itself with the pipeline's metrics report.
    const std::string json = capture.ReportJson();
    EXPECT_NE(json.find("mlog.sink"), std::string::npos);
    EXPECT_NE(json.find("\"io_syncs\":"), std::string::npos);
  }

  auto log = MustOpen(opt);  // reopen: replay must survive process death
  stream::Pipeline replay;
  std::vector<stream::Record> replayed;
  LogSource(&replay, log.get()).CollectInto(&replayed);
  replay.Run();

  ASSERT_EQ(replayed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(replayed[i], expected[i]) << "at " << i;
    EXPECT_EQ(replayed[i].event_time(), expected[i].event_time());
  }
}

TEST(MlogStagesIntegrationTest, LogSourceReplaysOffsetAndTimeRanges) {
  LogOptions opt;
  opt.dir = TestDir("source_ranges");
  auto log = MustOpen(opt);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());

  {
    stream::Pipeline p;
    std::vector<stream::Record> got;
    LogSourceOptions so;
    so.start_offset = 10;
    so.end_offset = 20;
    LogSource(&p, log.get(), so).CollectInto(&got);
    p.Run();
    ASSERT_EQ(got.size(), 10u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], MakeRecord(10 + i));
  }
  {
    stream::Pipeline p;
    std::vector<stream::Record> got;
    LogSourceOptions so;
    so.start_time = 40'000;  // event_time of record 40
    LogSource(&p, log.get(), so).CollectInto(&got);
    p.Run();
    ASSERT_EQ(got.size(), 10u);
    EXPECT_EQ(got.front(), MakeRecord(40));
  }
}

TEST(MlogStagesIntegrationTest, LogSourceSingleReplaysExactRange) {
  LogOptions opt;
  opt.dir = TestDir("source_single");
  opt.segment_bytes = 512;  // the range spans several segments
  auto log = MustOpen(opt);
  for (int i = 0; i < 60; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());

  stream::Pipeline p;
  std::vector<stream::Record> got;
  LogSourceOptions so;
  so.start_offset = 13;
  so.end_offset = 41;
  so.stage.batch = stream::BatchPolicy::Single();
  LogSource(&p, log.get(), so).CollectInto(&got);
  p.Run();

  ASSERT_EQ(got.size(), 28u);
  for (int i = 0; i < 28; ++i) {
    EXPECT_EQ(got[i], MakeRecord(13 + i)) << "at " << i;
    EXPECT_EQ(got[i].event_time(), MakeRecord(13 + i).event_time());
  }
  // One record per transfer on the replay edge.
  bool found = false;
  for (const stream::StageMetrics& m : p.Report()) {
    if (m.stage != "mlog.source") continue;
    found = true;
    EXPECT_EQ(m.records_in, 28u);
    EXPECT_EQ(m.batches_in, 28u);
  }
  EXPECT_TRUE(found);
}

TEST(MlogStagesIntegrationTest, MultiConsumerFanOutFromOneLog) {
  LogOptions opt;
  opt.dir = TestDir("fan_out");
  auto log = MustOpen(opt);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());

  // Two independent replay consumers in one pipeline, each with its own
  // cursor — the multi-consumer semantics channels alone cannot offer.
  stream::Pipeline p;
  std::vector<stream::Record> a, b;
  LogSourceOptions sa;
  sa.stage.name = "replay.a";
  LogSourceOptions sb;
  sb.stage.name = "replay.b";
  LogSource(&p, log.get(), sa).CollectInto(&a);
  LogSource(&p, log.get(), sb).CollectInto(&b);
  p.Run();
  ASSERT_EQ(a.size(), 100u);
  ASSERT_EQ(b.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a[i], MakeRecord(i));
    EXPECT_EQ(b[i], MakeRecord(i));
  }
}

// ------------------------------------------------- durable error paths

TEST(MlogStagesErrorTest, LogSinkSurfacesMidStreamAppendFailure) {
  LogOptions opt;
  opt.dir = TestDir("sink_mid_fault");
  auto log = MustOpen(opt);
  log->SetAppendFault(Status::IoError("injected: disk full"));

  std::vector<stream::Record> input;
  for (int i = 0; i < 100; ++i) input.push_back(MakeRecord(i));
  stream::Pipeline p;
  auto flow = stream::Flow<stream::Record>::FromVector(&p, input);
  // Small batches: the failure hits a full mid-stream batch, which must
  // record the sticky error *and* cancel upstream.
  LogSink(flow, log.get(), {.batch = stream::BatchPolicy::Batched(4)});
  p.Run();

  EXPECT_EQ(log->next_offset(), 0u);
  const std::string json = p.ReportJson();
  EXPECT_NE(json.find("mlog.sink"), std::string::npos);
  EXPECT_NE(json.find("\"error\":\"IoError: injected: disk full\""),
            std::string::npos)
      << json;
}

TEST(MlogStagesErrorTest, LogSinkSurfacesFinalBatchAppendFailure) {
  LogOptions opt;
  opt.dir = TestDir("sink_tail_fault");
  auto log = MustOpen(opt);
  log->SetAppendFault(Status::IoError("injected: tail append failed"));

  // 10 records under a batch size of 64: nothing is appended mid-stream;
  // the only append is the final partial-batch flush at EOS. Before the
  // fix its Status was discarded — the pipeline reported success while
  // every record of the stream was lost.
  std::vector<stream::Record> input;
  for (int i = 0; i < 10; ++i) input.push_back(MakeRecord(i));
  stream::Pipeline p;
  auto flow = stream::Flow<stream::Record>::FromVector(&p, input);
  LogSink(flow, log.get(), {.batch = stream::BatchPolicy::Batched(64)});
  p.Run();

  EXPECT_EQ(log->next_offset(), 0u);  // the data really was lost...
  const std::string json = p.ReportJson();
  EXPECT_NE(json.find("\"error\":\"IoError: injected: tail append failed\""),
            std::string::npos)  // ...and the report must say so
      << json;

  // Control: with the fault cleared the same stream persists cleanly and
  // the report carries no error field.
  log->SetAppendFault(Status::Ok());
  stream::Pipeline p2;
  auto flow2 = stream::Flow<stream::Record>::FromVector(&p2, input);
  LogSink(flow2, log.get(), {.batch = stream::BatchPolicy::Batched(64)});
  p2.Run();
  EXPECT_EQ(log->next_offset(), 10u);
  EXPECT_EQ(p2.ReportJson().find("\"error\":"), std::string::npos);
}

TEST(MlogStagesErrorTest, LogSourceSurfacesCorruptSeek) {
  LogOptions opt;
  opt.dir = TestDir("source_seek_fault");
  opt.index_interval_bytes = 1u << 30;  // no index: seeks scan every header
  auto log = MustOpen(opt);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(log->Append(MakeRecord(i)).ok());

  // Damage a wide mid-file range while the log is open (the committed
  // watermark already covers it): a forward seek must walk over the
  // damage and fail, not land somewhere arbitrary and replay from there.
  const std::string path = OnlySegmentPath(opt.dir);
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 600u);
  for (size_t i = bytes.size() / 2; i < bytes.size() / 2 + 150; ++i) {
    bytes[i] = static_cast<char>(0xff);
  }
  WriteFileBytes(path, bytes);

  {
    stream::Pipeline p;
    std::vector<stream::Record> got;
    LogSourceOptions so;
    so.start_offset = 190;  // beyond the damaged region
    LogSource(&p, log.get(), so).CollectInto(&got);
    p.Run();
    EXPECT_TRUE(got.empty());  // empty flow, not a wrong-position replay
    const std::string json = p.ReportJson();
    EXPECT_NE(json.find("mlog.source.log"), std::string::npos);
    EXPECT_NE(json.find("corrupt entry during seek"), std::string::npos)
        << json;
  }
  {
    // Time seeks scan payloads from the start and must fail the same way.
    stream::Pipeline p;
    std::vector<stream::Record> got;
    LogSourceOptions so;
    so.start_time = 190'000;
    LogSource(&p, log.get(), so).CollectInto(&got);
    p.Run();
    EXPECT_TRUE(got.empty());
    EXPECT_NE(p.ReportJson().find("\"error\":\""), std::string::npos);
  }
}

// ------------------------------------------------------------ partitioned

std::unique_ptr<PartitionedLog> MustOpenTopic(
    const PartitionedLogOptions& options) {
  Result<std::unique_ptr<PartitionedLog>> topic =
      PartitionedLog::Open(options);
  EXPECT_TRUE(topic.ok()) << topic.status().ToString();
  return std::move(topic).value();
}

TEST(MlogPartitionedTest, KeyedRoutingPreservesPerKeyOrder) {
  PartitionedLogOptions po;
  po.dir = TestDir("topic_round_trip");
  po.partitions = 4;
  auto topic = MustOpenTopic(po);
  ASSERT_EQ(topic->partition_count(), 4u);

  for (int i = 0; i < 400; ++i) {
    const uint64_t key = static_cast<uint64_t>(i % 37);
    ASSERT_TRUE(topic->AppendKeyed(key, MakeRecord(i)).ok());
  }
  EXPECT_EQ(topic->next_offset_total(), 400u);

  size_t total = 0;
  std::map<uint64_t, int64_t> last_seq;  // per-key order across the topic
  for (size_t p = 0; p < topic->partition_count(); ++p) {
    const auto records = ReadAll(topic->partition(p));
    EXPECT_GT(records.size(), 0u) << "partition " << p << " unused";
    for (const stream::Record& r : records) {
      const int64_t seq = r.GetInt("seq").value();
      const uint64_t key = static_cast<uint64_t>(seq % 37);
      // Routing is the topic's hash, nothing else.
      EXPECT_EQ(topic->PartitionFor(key), p);
      auto it = last_seq.find(key);
      if (it != last_seq.end()) {
        EXPECT_GT(seq, it->second);
      }
      last_seq[key] = seq;
      ++total;
    }
  }
  EXPECT_EQ(total, 400u);
}

TEST(MlogPartitionedTest, ReopenInfersPartitionCountAndRejectsMismatch) {
  PartitionedLogOptions po;
  po.dir = TestDir("topic_reopen");
  po.partitions = 4;
  {
    auto topic = MustOpenTopic(po);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          topic->AppendKeyed(static_cast<uint64_t>(i), MakeRecord(i)).ok());
    }
  }
  // partitions = 0 infers the on-disk layout.
  PartitionedLogOptions infer = po;
  infer.partitions = 0;
  auto topic = MustOpenTopic(infer);
  EXPECT_EQ(topic->partition_count(), 4u);
  EXPECT_EQ(topic->next_offset_total(), 40u);
  topic.reset();

  // A different explicit count would rehash keys across partitions:
  // refused, not silently accepted.
  PartitionedLogOptions wrong = po;
  wrong.partitions = 6;
  Result<std::unique_ptr<PartitionedLog>> bad = PartitionedLog::Open(wrong);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MlogPartitionedTest, PartitionsRecoverTornTailsIndependently) {
  PartitionedLogOptions po;
  po.dir = TestDir("topic_torn_tails");
  po.partitions = 3;
  std::vector<std::vector<stream::Record>> expected(3);
  {
    auto topic = MustOpenTopic(po);
    for (int i = 0; i < 90; ++i) {
      ASSERT_TRUE(
          topic->AppendKeyed(static_cast<uint64_t>(i), MakeRecord(i)).ok());
    }
    for (size_t p = 0; p < 3; ++p) {
      expected[p] = ReadAll(topic->partition(p));
      ASSERT_GT(expected[p].size(), 2u);
    }
  }
  // Tear the tails of partitions 0 and 2 (cut mid-entry); leave 1 alone.
  for (const size_t p : {0u, 2u}) {
    const std::string seg = OnlySegmentPath(po.dir + "/p" + std::to_string(p));
    const std::string bytes = ReadFileBytes(seg);
    WriteFileBytes(seg, bytes.substr(0, bytes.size() - 3));
  }

  auto topic = MustOpenTopic(po);
  for (const size_t p : {0u, 2u}) {
    // The damaged partitions each lost exactly their torn last record.
    const auto back = ReadAll(topic->partition(p));
    ASSERT_EQ(back.size(), expected[p].size() - 1) << "partition " << p;
    for (size_t i = 0; i < back.size(); ++i) {
      EXPECT_EQ(back[i], expected[p][i]);
    }
    EXPECT_GT(topic->partition(p)->metrics().truncated_bytes, 0u);
  }
  // The intact partition is untouched by its siblings' recovery.
  const auto back = ReadAll(topic->partition(1));
  ASSERT_EQ(back.size(), expected[1].size());
  for (size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], expected[1][i]);
  EXPECT_EQ(topic->partition(1)->metrics().truncated_bytes, 0u);
}

TEST(MlogGroupCursorTest, RebalanceDeliversEveryRecordExactlyOnce) {
  PartitionedLogOptions po;
  po.dir = TestDir("group_rebalance");
  po.partitions = 4;
  auto topic = MustOpenTopic(po);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        topic->AppendKeyed(static_cast<uint64_t>(i), MakeRecord(i)).ok());
  }

  // Phase 1: a single member owns all four partitions and consumes part
  // of the topic.
  Result<std::unique_ptr<GroupCursor>> join = topic->JoinGroup("g", 0, 1);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  std::unique_ptr<GroupCursor> a = std::move(join).value();
  ASSERT_EQ(a->assignment().size(), 4u);

  std::set<std::pair<size_t, uint64_t>> seen;  // (partition, offset)
  for (int i = 0; i < 70; ++i) {
    std::optional<GroupRecord> r = a->Next();
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(seen.insert({r->partition, r->offset}).second)
        << "double-read before rebalance";
  }
  EXPECT_GT(a->Frontier().lag, 0u);

  // Phase 2: the group grows to two members. Both re-derive their
  // assignment; reads resume from the shared committed watermarks.
  ASSERT_TRUE(a->Rebalance(0, 2).ok());
  Result<std::unique_ptr<GroupCursor>> join_b = topic->JoinGroup("g", 1, 2);
  ASSERT_TRUE(join_b.ok());
  std::unique_ptr<GroupCursor> b = std::move(join_b).value();
  EXPECT_EQ(a->assignment(), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(b->assignment(), (std::vector<size_t>{1, 3}));

  std::vector<GroupRecord> batch;
  while (a->NextBatch(&batch, 16) > 0 || b->NextBatch(&batch, 16) > 0) {
    for (GroupRecord& r : batch) {
      EXPECT_TRUE(seen.insert({r.partition, r.offset}).second)
          << "double-read across rebalance at p" << r.partition << " off "
          << r.offset;
    }
    batch.clear();
  }
  EXPECT_TRUE(a->status().ok());
  EXPECT_TRUE(b->status().ok());

  // Exactly-once: every appended record was seen exactly one time.
  size_t total_appended = 0;
  for (size_t p = 0; p < topic->partition_count(); ++p) {
    for (uint64_t o = 0; o < topic->partition(p)->next_offset(); ++o) {
      EXPECT_TRUE(seen.count({p, o})) << "lost p" << p << " off " << o;
    }
    total_appended += topic->partition(p)->next_offset();
  }
  EXPECT_EQ(seen.size(), total_appended);
  EXPECT_EQ(total_appended, 200u);

  // The merged frontier reports the group fully caught up.
  const GroupFrontier f = a->Frontier();
  EXPECT_EQ(f.committed_total, 200u);
  EXPECT_EQ(f.end_total, 200u);
  EXPECT_EQ(f.lag, 0u);
  EXPECT_NE(f.ToJson().find("\"lag\":0"), std::string::npos);

  // Groups are independent: a fresh group replays from the start.
  Result<std::unique_ptr<GroupCursor>> fresh = topic->JoinGroup("h", 0, 1);
  ASSERT_TRUE(fresh.ok());
  size_t replayed = 0;
  while (fresh.value()->NextBatch(&batch, 64) > 0) {
    replayed += batch.size();
    batch.clear();
  }
  EXPECT_EQ(replayed, 200u);

  // Invalid memberships are refused.
  EXPECT_FALSE(topic->JoinGroup("g", 3, 2).ok());
  EXPECT_FALSE(a->Rebalance(0, 0).ok());
}

TEST(MlogLogTest, SetSyncDelayStallsAppendsAndCountsThem) {
  LogOptions opt;
  opt.dir = TestDir("sync_delay");
  auto log = MustOpen(opt);

  ASSERT_TRUE(log->Append(MakeRecord(0)).ok());
  EXPECT_EQ(log->metrics().sync_stalls, 0u);  // disarmed by default

  log->SetSyncDelay(20);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(log->Append(MakeRecord(1)).ok());
  const auto stalled = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(stalled, 20);
  EXPECT_EQ(log->metrics().sync_stalls, 1u);

  log->SetSyncDelay(0);  // disarm: appends run full speed again
  ASSERT_TRUE(log->Append(MakeRecord(2)).ok());
  EXPECT_EQ(log->metrics().sync_stalls, 1u);
  EXPECT_NE(log->metrics().ToJson().find("\"sync_stalls\":1"),
            std::string::npos);

  // The stall injects latency, never corruption: everything reads back.
  EXPECT_EQ(ReadAll(log.get()).size(), 3u);
}

TEST(MlogGroupCursorTest, CloseAndRejoinMidTailResumesAtWatermark) {
  PartitionedLogOptions po;
  po.dir = TestDir("group_resume");
  po.partitions = 3;
  auto topic = MustOpenTopic(po);

  // A live writer keeps the topic growing while the consumer tails it,
  // so the close/rejoin happens genuinely mid-stream.
  constexpr int kTotal = 600;
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (int i = 0; i < kTotal; ++i) {
      ASSERT_TRUE(
          topic->AppendKeyed(static_cast<uint64_t>(i % 53), MakeRecord(i)).ok());
      if (i % 40 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    writer_done.store(true, std::memory_order_release);
  });

  // One member owns all partitions; its committed watermarks are the
  // group's durable position, so dropping the cursor loses nothing.
  std::vector<uint64_t> next_expected(po.partitions, 0);
  size_t consumed = 0;
  size_t rejoins = 0;
  std::vector<GroupRecord> batch;
  std::unique_ptr<GroupCursor> cursor;
  while (true) {
    if (!cursor) {
      Result<std::unique_ptr<GroupCursor>> join =
          topic->JoinGroup("g", 0, 1);
      ASSERT_TRUE(join.ok()) << join.status().ToString();
      cursor = std::move(join).value();
      // Rejoin resumes exactly at the committed watermark of every
      // partition — nothing re-read, nothing skipped.
      for (size_t p = 0; p < po.partitions; ++p) {
        EXPECT_EQ(cursor->committed(p), next_expected[p]) << "p" << p;
      }
    }
    batch.clear();
    const size_t n = cursor->NextBatch(&batch, 32);
    ASSERT_TRUE(cursor->status().ok()) << cursor->status().ToString();
    for (const GroupRecord& r : batch) {
      // Offsets are dense per partition: any gap or duplicate across the
      // restart would break the equality.
      EXPECT_EQ(r.offset, next_expected[r.partition])
          << "p" << r.partition << " after " << rejoins << " rejoins";
      next_expected[r.partition] = r.offset + 1;
      ++consumed;
    }
    // Tear the consumer down mid-tail a couple of times.
    if (rejoins < 2 && consumed >= (rejoins + 1) * (kTotal / 4)) {
      cursor.reset();
      ++rejoins;
      continue;
    }
    if (n == 0) {
      if (writer_done.load(std::memory_order_acquire) &&
          cursor->Frontier().lag == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  writer.join();
  EXPECT_EQ(rejoins, 2u);
  EXPECT_EQ(consumed, static_cast<size_t>(kTotal));

  uint64_t committed_total = 0;
  for (size_t p = 0; p < po.partitions; ++p) {
    EXPECT_EQ(next_expected[p], topic->partition(p)->next_offset());
    committed_total += next_expected[p];
  }
  EXPECT_EQ(committed_total, static_cast<uint64_t>(kTotal));
}

TEST(MlogPartitionedTest, ShardedPipelineReplaysTopicWithMergedReport) {
  PartitionedLogOptions po;
  po.dir = TestDir("topic_sharded");
  po.partitions = 4;
  auto topic = MustOpenTopic(po);

  // Capture: one pipeline persists a keyed stream through the
  // partitioned sink (producer-side hash routing).
  std::vector<stream::Record> input;
  for (int i = 0; i < 500; ++i) input.push_back(MakeRecord(i));
  auto key_fn = [](const stream::Record& r) {
    return static_cast<uint64_t>(r.GetInt("seq").value() % 91);
  };
  {
    stream::Pipeline capture;
    auto flow = stream::Flow<stream::Record>::FromVector(&capture, input);
    PartitionedLogSink(flow, topic.get(), key_fn);
    capture.Run();
    EXPECT_EQ(topic->next_offset_total(), input.size());
    EXPECT_NE(capture.ReportJson().find("mlog.psink"), std::string::npos);
  }

  // Scale-out replay: one pipeline instance per partition behind the
  // ShardedPipeline facade, shard index = partition index.
  stream::ShardedPipeline sp(topic->partition_count());
  std::vector<std::vector<stream::Record>> outs(sp.shard_count());
  sp.Build([&](stream::Pipeline* p, size_t shard) {
    PartitionedLogSource(p, topic.get(), shard).CollectInto(&outs[shard]);
  });
  sp.Run();

  // Same multiset as the input, and per-key order preserved within the
  // owning shard (a key never crosses partitions).
  std::vector<int64_t> seqs;
  for (size_t s = 0; s < outs.size(); ++s) {
    std::map<uint64_t, int64_t> last_seq;
    for (const stream::Record& r : outs[s]) {
      const int64_t seq = r.GetInt("seq").value();
      const uint64_t key = static_cast<uint64_t>(seq % 91);
      EXPECT_EQ(topic->PartitionFor(key), s);
      auto it = last_seq.find(key);
      if (it != last_seq.end()) {
        EXPECT_GT(seq, it->second);
      }
      last_seq[key] = seq;
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  ASSERT_EQ(seqs.size(), input.size());
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], static_cast<int64_t>(i));
  }

  // The merged report exposes the shard count, the per-stage aggregate
  // and the per-shard breakdown.
  const std::string json = sp.ReportJson();
  EXPECT_NE(json.find("\"shards\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"aggregate\":["), std::string::npos);
  EXPECT_NE(json.find("\"per_shard\":["), std::string::npos);
  EXPECT_NE(json.find("\"shard\":3"), std::string::npos);
  EXPECT_NE(json.find("mlog.source.log"), std::string::npos);
  // The aggregate "mlog.source.log" row sums the partition replay
  // counters back to the full topic size.
  bool found = false;
  for (const stream::StageMetrics& m : sp.AggregateReport()) {
    if (m.stage != "mlog.source.log") continue;
    found = true;
    EXPECT_EQ(m.records_in, input.size());   // appends (whole topic)
    EXPECT_EQ(m.records_out, input.size());  // cursor reads
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace tcmf::mlog
