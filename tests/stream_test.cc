#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "stream/channel.h"
#include "stream/pipeline.h"
#include "stream/record.h"
#include "stream/window.h"

namespace tcmf::stream {
namespace {

// ---------------------------------------------------------------- Record

TEST(RecordTest, SetAndGetTyped) {
  Record r;
  r.Set("i", static_cast<int64_t>(5));
  r.Set("d", 2.5);
  r.Set("s", std::string("x"));
  r.Set("b", true);
  EXPECT_EQ(r.GetInt("i").value(), 5);
  EXPECT_DOUBLE_EQ(r.GetDouble("d").value(), 2.5);
  EXPECT_EQ(r.GetString("s").value(), "x");
  EXPECT_TRUE(r.GetBool("b").value());
}

TEST(RecordTest, TypeMismatchReturnsNullopt) {
  Record r;
  r.Set("i", static_cast<int64_t>(5));
  EXPECT_FALSE(r.GetDouble("i").has_value());
  EXPECT_FALSE(r.GetString("i").has_value());
}

TEST(RecordTest, GetNumericWidensInt) {
  Record r;
  r.Set("i", static_cast<int64_t>(5));
  r.Set("d", 2.5);
  EXPECT_DOUBLE_EQ(r.GetNumeric("i").value(), 5.0);
  EXPECT_DOUBLE_EQ(r.GetNumeric("d").value(), 2.5);
}

TEST(RecordTest, MissingField) {
  Record r;
  EXPECT_FALSE(r.Has("nope"));
  EXPECT_FALSE(r.GetInt("nope").has_value());
}

TEST(RecordTest, OverwriteKeepsSingleField) {
  Record r;
  r.Set("x", static_cast<int64_t>(1));
  r.Set("x", static_cast<int64_t>(2));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.GetInt("x").value(), 2);
}

TEST(RecordTest, PositionRoundTrip) {
  Position p;
  p.entity_id = 123456;
  p.t = 987654321;
  p.lon = 2.5;
  p.lat = 41.3;
  p.alt_m = 9500;
  p.speed_mps = 230;
  p.heading_deg = 271.5;
  p.vrate_mps = -8.5;
  Position back = RecordToPosition(PositionToRecord(p));
  EXPECT_EQ(back.entity_id, p.entity_id);
  EXPECT_EQ(back.t, p.t);
  EXPECT_DOUBLE_EQ(back.lon, p.lon);
  EXPECT_DOUBLE_EQ(back.heading_deg, p.heading_deg);
  EXPECT_DOUBLE_EQ(back.vrate_mps, p.vrate_mps);
}

TEST(RecordTest, ValueToStringForms) {
  EXPECT_EQ(ValueToString(Value{std::monostate{}}), "");
  EXPECT_EQ(ValueToString(Value{static_cast<int64_t>(7)}), "7");
  EXPECT_EQ(ValueToString(Value{true}), "true");
  EXPECT_EQ(ValueToString(Value{std::string("s")}), "s");
}

TEST(RecordTest, EqualityComparesFieldsAndEventTime) {
  Record a;
  a.set_event_time(10);
  a.Set("id", static_cast<int64_t>(1));
  a.Set("name", std::string("alpha"));
  Record b;
  b.set_event_time(10);
  b.Set("id", static_cast<int64_t>(1));
  b.Set("name", std::string("alpha"));
  EXPECT_EQ(a, b);

  Record later = a;
  later.set_event_time(11);
  EXPECT_NE(a, later);

  Record renamed = a;
  renamed.Set("name", std::string("beta"));
  EXPECT_NE(a, renamed);

  Record extra = a;
  extra.Set("flag", true);
  EXPECT_NE(a, extra);
}

TEST(RecordTest, ValueEqualsIsRepresentational) {
  // Bitwise comparison for doubles: NaN == NaN, but 0.0 != -0.0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(ValueEquals(Value{nan}, Value{nan}));
  EXPECT_FALSE(ValueEquals(Value{0.0}, Value{-0.0}));
  // Empty string and null are distinct alternatives.
  EXPECT_FALSE(ValueEquals(Value{std::string()}, Value{std::monostate{}}));
  EXPECT_TRUE(ValueEquals(Value{std::string()}, Value{std::string()}));
  // Cross-type never compares equal, even when numerically identical.
  EXPECT_FALSE(ValueEquals(Value{static_cast<int64_t>(1)}, Value{1.0}));
}

// --------------------------------------------------------------- Channel

TEST(ChannelTest, FifoOrder) {
  Channel<int> ch(10);
  ch.Push(1);
  ch.Push(2);
  ch.Push(3);
  EXPECT_EQ(ch.Pop().value(), 1);
  EXPECT_EQ(ch.Pop().value(), 2);
  EXPECT_EQ(ch.Pop().value(), 3);
}

TEST(ChannelTest, CloseDrainsThenNullopt) {
  Channel<int> ch(10);
  ch.Push(1);
  ch.Close();
  EXPECT_EQ(ch.Pop().value(), 1);
  EXPECT_FALSE(ch.Pop().has_value());
}

TEST(ChannelTest, PushAfterCloseFails) {
  Channel<int> ch(10);
  ch.Close();
  EXPECT_FALSE(ch.Push(1));
  EXPECT_EQ(ch.PushBatch({1, 2}), 0u);
}

TEST(ChannelTest, BlockingBackpressure) {
  Channel<int> ch(1);
  ch.Push(0);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ch.Push(1);  // blocks until consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(ch.Pop().value(), 0);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(ch.Pop().value(), 1);
  // A full but healthy channel blocks; only closed/cancelled pushes count
  // as rejections.
  EXPECT_EQ(ch.MetricsSnapshot().push_rejected, 0u);
}

TEST(ChannelTest, ManyProducersOneConsumer) {
  Channel<int> ch(16);
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&ch] {
      for (int i = 0; i < kPerProducer; ++i) ch.Push(1);
    });
  }
  std::thread closer([&] {
    for (std::thread& t : producers) t.join();
    ch.Close();
  });
  long long sum = 0;
  while (auto v = ch.Pop()) sum += *v;
  closer.join();
  EXPECT_EQ(sum, 4 * kPerProducer);
}

// ------------------------------------------------ Channel: cancel + poll

TEST(ChannelTest, PopBatchForDrainsBeforeReportingClosed) {
  Channel<int> ch(4);
  std::vector<int> out;
  constexpr std::chrono::milliseconds kPoll(1);
  // Open and empty: try again later.
  EXPECT_EQ(ch.PopBatchFor(&out, 1, kPoll), PollStatus::kEmpty);
  // Item available.
  ch.Push(7);
  EXPECT_EQ(ch.PopBatchFor(&out, 1, kPoll), PollStatus::kItem);
  EXPECT_EQ(out, (std::vector<int>{7}));
  // Closed but not yet drained: still an item, then terminal.
  ch.Push(8);
  ch.Close();
  EXPECT_EQ(ch.PopBatchFor(&out, 1, kPoll), PollStatus::kItem);
  EXPECT_EQ(out, (std::vector<int>{7, 8}));
  EXPECT_EQ(ch.PopBatchFor(&out, 1, kPoll), PollStatus::kClosed);
}

TEST(ChannelTest, CloseAndDrainDiscardsQueuedElements) {
  Channel<int> ch(8);
  ch.Push(1);
  ch.Push(2);
  ch.Push(3);
  ch.CloseAndDrain();
  EXPECT_TRUE(ch.cancelled());
  EXPECT_TRUE(ch.closed());
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_FALSE(ch.Pop().has_value());
  EXPECT_FALSE(ch.Push(4));
  StageMetrics m = ch.MetricsSnapshot();
  EXPECT_EQ(m.dropped_on_cancel, 3u);
  EXPECT_EQ(m.push_rejected, 1u);
  EXPECT_TRUE(m.cancelled);
}

TEST(ChannelTest, CloseAndDrainUnblocksBlockedProducer) {
  Channel<int> ch(1);
  ch.Push(0);
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result = ch.Push(1);  // blocks: channel full
    push_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(push_returned.load());
  ch.CloseAndDrain();  // consumer walks away
  producer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(push_result.load());  // the element was rejected
}

TEST(ChannelTest, MetricsCountRecordsAndHighWatermark) {
  Channel<int> ch(16);
  for (int i = 0; i < 5; ++i) ch.Push(i);
  ch.Pop();
  ch.Pop();
  StageMetrics m = ch.MetricsSnapshot();
  EXPECT_EQ(m.records_in, 5u);
  EXPECT_EQ(m.records_out, 2u);
  EXPECT_EQ(m.queue_high_watermark, 5u);
  EXPECT_EQ(m.producer_blocked_ns, 0u);  // never hit capacity
}

TEST(ChannelTest, MetricsRecordBlockedTimeOnBothSides) {
  Channel<int> ch(1);
  // Producer blocks on a full queue until the consumer drains it.
  ch.Push(0);
  std::thread producer([&] { ch.Push(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  ch.Pop();
  producer.join();
  EXPECT_GT(ch.MetricsSnapshot().producer_blocked_ns, 0u);
  // Consumer blocks on an empty queue until a producer arrives.
  ch.Pop();  // drain
  std::thread consumer([&] { ch.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  ch.Push(2);
  consumer.join();
  EXPECT_GT(ch.MetricsSnapshot().consumer_blocked_ns, 0u);
}

// ------------------------------------------- Channel: batched transport

TEST(ChannelTest, PushBatchPopBatchFifoOrder) {
  Channel<int> ch(16);
  EXPECT_EQ(ch.PushBatch({1, 2, 3, 4, 5}), 5u);
  std::vector<int> out;
  EXPECT_EQ(ch.PopBatch(&out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ch.PopBatch(&out, 10), 2u);  // appends
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ChannelTest, PushBatchLargerThanCapacityChunksThroughBackpressure) {
  Channel<int> ch(4);
  std::vector<int> batch(32);
  std::iota(batch.begin(), batch.end(), 0);
  std::thread producer([&] { EXPECT_EQ(ch.PushBatch(std::move(batch)), 32u); });
  std::vector<int> got;
  while (got.size() < 32) ch.PopBatch(&got, 8);
  producer.join();
  std::vector<int> expected(32);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(got, expected);
}

TEST(ChannelTest, PushBatchPartialAcceptOnClose) {
  Channel<int> ch(2);
  std::atomic<size_t> accepted{0};
  std::thread producer([&] {
    // 2 fit, then the producer blocks; CloseAndDrain rejects the rest.
    accepted = ch.PushBatch({1, 2, 3, 4, 5});
  });
  while (ch.size() < 2) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  ch.CloseAndDrain();
  producer.join();
  EXPECT_EQ(accepted.load(), 2u);
  StageMetrics m = ch.MetricsSnapshot();
  EXPECT_EQ(m.push_rejected, 3u);       // the unaccepted tail
  EXPECT_EQ(m.dropped_on_cancel, 2u);   // the accepted-then-discarded head
}

TEST(ChannelTest, PopBatchZeroMeansEndOfStream) {
  Channel<int> ch(4);
  ch.Push(1);
  ch.Close();
  std::vector<int> out;
  EXPECT_EQ(ch.PopBatch(&out, 4), 1u);
  EXPECT_EQ(ch.PopBatch(&out, 4), 0u);
}

TEST(ChannelTest, PopBatchForTimesOutWhileOpen) {
  Channel<int> ch(4);
  std::vector<int> out;
  size_t n = 99;
  EXPECT_EQ(ch.PopBatchFor(&out, 4, std::chrono::milliseconds(5), &n),
            PollStatus::kEmpty);
  EXPECT_EQ(n, 0u);
  ch.Push(1);
  EXPECT_EQ(ch.PopBatchFor(&out, 4, std::chrono::milliseconds(5), &n),
            PollStatus::kItem);
  EXPECT_EQ(n, 1u);
  ch.Close();
  EXPECT_EQ(ch.PopBatchFor(&out, 4, std::chrono::milliseconds(5), &n),
            PollStatus::kClosed);
}

TEST(ChannelTest, BatchMetricsCountBatchesAndMeanSize) {
  Channel<int> ch(64);
  ch.PushBatch({1, 2, 3, 4, 5, 6});  // 1 batch of 6
  ch.Push(7);                        // 1 batch of 1
  std::vector<int> out;
  ch.PopBatch(&out, 64);             // 1 batch of 7
  StageMetrics m = ch.MetricsSnapshot();
  EXPECT_EQ(m.records_in, 7u);
  EXPECT_EQ(m.batches_in, 2u);
  EXPECT_EQ(m.records_out, 7u);
  EXPECT_EQ(m.batches_out, 1u);
  EXPECT_DOUBLE_EQ(m.MeanBatchIn(), 3.5);
  EXPECT_DOUBLE_EQ(m.MeanBatchOut(), 7.0);
}

// Regression for the notify_one wakeup bug: a batch transfer releases k
// resources at once; waking only ONE waiter strands the other k-1
// forever (no further notifies arrive once producers/consumers are
// drained). 4 producers blocked in Push freed by one PopBatch, and 4
// consumers blocked in Pop fed by one PushBatch — both directions
// previously hung with notify_one.
TEST(ChannelTest, BatchWakeupsFourProducersFourConsumersNoStrand) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread([done] {
    {
      // Direction 1: one PopBatch must wake every blocked producer.
      Channel<int> ch(4);
      for (int i = 0; i < 4; ++i) ch.Push(i);  // fill
      std::vector<std::thread> producers;
      for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&ch, p] { ch.Push(100 + p); });
      }
      // Wait until all four producers are blocked on the full queue.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::vector<int> out;
      EXPECT_EQ(ch.PopBatch(&out, 4), 4u);  // frees 4 slots in one notify
      for (std::thread& t : producers) t.join();
      EXPECT_EQ(ch.size(), 4u);
    }
    {
      // Direction 2: one PushBatch must wake every blocked consumer.
      Channel<int> ch(8);
      std::vector<std::thread> consumers;
      std::atomic<int> popped{0};
      for (int c = 0; c < 4; ++c) {
        consumers.emplace_back([&ch, &popped] {
          if (ch.Pop().has_value()) ++popped;
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ch.PushBatch({1, 2, 3, 4});  // feeds 4 consumers in one notify
      for (std::thread& t : consumers) t.join();
      EXPECT_EQ(popped.load(), 4);
    }
    done->set_value();
  }).detach();
  ASSERT_EQ(finished.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "batch wakeup stranded a waiter: notify_one regression";
}

// ------------------------ Channel: timed poll vs consumer cancellation

TEST(ChannelTest, PollingConsumerObservesEmptyThenClosedAcrossCancel) {
  Channel<int> ch(4);
  std::vector<int> out;
  constexpr std::chrono::milliseconds kPoll(1);
  // Polling consumer sees kEmpty while the channel is open...
  EXPECT_EQ(ch.PopBatchFor(&out, 1, kPoll), PollStatus::kEmpty);
  ch.Push(1);
  ch.Push(2);
  EXPECT_EQ(ch.PopBatchFor(&out, 1, kPoll), PollStatus::kItem);
  EXPECT_EQ(out, (std::vector<int>{1}));
  // ...then another consumer cancels: the queued element is discarded
  // and the poller transitions to kClosed with no intervening kItem
  // (cancel means "never again", not "drain first").
  ch.CloseAndDrain();
  EXPECT_EQ(ch.PopBatchFor(&out, 1, kPoll), PollStatus::kClosed);
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(ChannelTest, PushAfterCloseAndDrainCountsRejections) {
  Channel<int> ch(4);
  ch.Push(1);
  ch.CloseAndDrain();
  EXPECT_FALSE(ch.Push(2));
  EXPECT_FALSE(ch.Push(3));
  EXPECT_EQ(ch.PushBatch({4, 5, 6}), 0u);
  StageMetrics m = ch.MetricsSnapshot();
  EXPECT_EQ(m.dropped_on_cancel, 1u);  // the queued element
  EXPECT_EQ(m.push_rejected, 5u);      // 2 Push + 3 batch
  EXPECT_EQ(m.records_in, 1u);         // rejected pushes are not "in"
  EXPECT_TRUE(m.cancelled);
}

// -------------------------------------------------------------- Pipeline

TEST(PipelineTest, SourceMapSink) {
  Pipeline pipeline;
  std::vector<int> input(100);
  std::iota(input.begin(), input.end(), 0);
  std::vector<int> output;
  Flow<int>::FromVector(&pipeline, input)
      .Map<int>([](const int& x) { return x * 2; })
      .CollectInto(&output);
  pipeline.Run();
  ASSERT_EQ(output.size(), 100u);
  EXPECT_EQ(output[10], 20);
  EXPECT_EQ(output[99], 198);
}

TEST(PipelineTest, FilterDropsElements) {
  Pipeline pipeline;
  std::vector<int> output;
  Flow<int>::FromVector(&pipeline, {1, 2, 3, 4, 5, 6})
      .Filter([](const int& x) { return x % 2 == 0; })
      .CollectInto(&output);
  pipeline.Run();
  EXPECT_EQ(output, std::vector<int>({2, 4, 6}));
}

TEST(PipelineTest, FlatMapExpands) {
  Pipeline pipeline;
  std::vector<int> output;
  Flow<int>::FromVector(&pipeline, {1, 3})
      .FlatMap<int>([](const int& x) {
        return std::vector<int>{x, x + 1};
      })
      .CollectInto(&output);
  pipeline.Run();
  EXPECT_EQ(output, std::vector<int>({1, 2, 3, 4}));
}

TEST(PipelineTest, GeneratorSource) {
  Pipeline pipeline;
  int counter = 0;
  std::vector<int> output;
  Flow<int>::FromGenerator(&pipeline,
                           [&counter]() -> std::optional<int> {
                             if (counter >= 5) return std::nullopt;
                             return counter++;
                           })
      .CollectInto(&output);
  pipeline.Run();
  EXPECT_EQ(output.size(), 5u);
}

TEST(PipelineTest, KeyedProcessMaintainsPerKeyState) {
  Pipeline pipeline;
  // Running sum per key; emit the sum at every element.
  std::vector<std::pair<uint64_t, int>> input = {
      {1, 10}, {2, 100}, {1, 5}, {2, 1}, {1, 1}};
  std::vector<int> output;
  Flow<std::pair<uint64_t, int>>::FromVector(&pipeline, input)
      .KeyedProcess<int, int>(
          [](const std::pair<uint64_t, int>& e) { return e.first; },
          [](const std::pair<uint64_t, int>& e, int& sum,
             const std::function<void(int)>& emit) {
            sum += e.second;
            emit(sum);
          })
      .CollectInto(&output);
  pipeline.Run();
  EXPECT_EQ(output, std::vector<int>({10, 100, 15, 101, 16}));
}

TEST(PipelineTest, KeyedProcessFlushRunsPerKey) {
  Pipeline pipeline;
  std::vector<std::pair<uint64_t, int>> input = {{1, 1}, {2, 2}, {1, 3}};
  std::vector<int> output;
  Flow<std::pair<uint64_t, int>>::FromVector(&pipeline, input)
      .KeyedProcess<int, int>(
          [](const std::pair<uint64_t, int>& e) { return e.first; },
          [](const std::pair<uint64_t, int>& e, int& sum,
             const std::function<void(int)>&) { sum += e.second; },
          [](uint64_t, int& sum, const std::function<void(int)>& emit) {
            emit(sum);
          })
      .CollectInto(&output);
  pipeline.Run();
  std::sort(output.begin(), output.end());
  EXPECT_EQ(output, std::vector<int>({2, 4}));
}

TEST(PipelineTest, MultiStageChain) {
  Pipeline pipeline;
  std::vector<int> input(1000);
  std::iota(input.begin(), input.end(), 0);
  std::vector<int> output;
  Flow<int>::FromVector(&pipeline, input)
      .Map<int>([](const int& x) { return x + 1; })
      .Filter([](const int& x) { return x % 3 == 0; })
      .Map<int>([](const int& x) { return x / 3; })
      .CollectInto(&output);
  pipeline.Run();
  ASSERT_EQ(output.size(), 333u);
  EXPECT_EQ(output[0], 1);
  EXPECT_EQ(output[332], 333);
}


TEST(PipelineTest, ParallelKeyedProcessMatchesSequential) {
  // Same per-key sums whether run on 1 or 4 workers.
  std::vector<std::pair<uint64_t, int>> input;
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    input.push_back({static_cast<uint64_t>(rng.UniformInt(0, 15)),
                     static_cast<int>(rng.UniformInt(1, 9))});
  }
  auto run = [&](size_t parallelism) {
    Pipeline pipeline;
    std::vector<std::pair<uint64_t, int>> output;
    Flow<std::pair<uint64_t, int>>::FromVector(&pipeline, input)
        .KeyedProcessParallel<std::pair<uint64_t, int>, int>(
            [](const std::pair<uint64_t, int>& e) { return e.first; },
            [](const std::pair<uint64_t, int>& e, int& sum,
               const std::function<void(std::pair<uint64_t, int>)>&) {
              sum += e.second;
            },
            parallelism,
            [](uint64_t key, int& sum,
               const std::function<void(std::pair<uint64_t, int>)>& emit) {
              emit({key, sum});
            })
        .CollectInto(&output);
    pipeline.Run();
    std::sort(output.begin(), output.end());
    return output;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(PipelineTest, ParallelKeyedPreservesPerKeyOrder) {
  // Each key's elements must be processed in stream order even across
  // 4 workers: emit running counts and check monotonicity per key.
  std::vector<std::pair<uint64_t, int>> input;
  for (int i = 0; i < 500; ++i) {
    input.push_back({static_cast<uint64_t>(i % 7), i});
  }
  Pipeline pipeline;
  std::vector<std::pair<uint64_t, int>> output;
  Flow<std::pair<uint64_t, int>>::FromVector(&pipeline, input)
      .KeyedProcessParallel<std::pair<uint64_t, int>, int>(
          [](const std::pair<uint64_t, int>& e) { return e.first; },
          [](const std::pair<uint64_t, int>& e, int& last,
             const std::function<void(std::pair<uint64_t, int>)>& emit) {
            emit({e.first, e.second});
            last = e.second;
          },
          4)
      .CollectInto(&output);
  pipeline.Run();
  std::unordered_map<uint64_t, int> last_seen;
  for (const auto& [key, value] : output) {
    auto it = last_seen.find(key);
    if (it != last_seen.end()) {
      EXPECT_GT(value, it->second);
    }
    last_seen[key] = value;
  }
  EXPECT_EQ(output.size(), input.size());
}

TEST(PipelineTest, ParallelKeyedStrideKeysSpreadAcrossWorkers) {
  // Regression for the identity-hash router: vessel-ID-style keys
  // stepping by a multiple of the parallelism all satisfy
  // key % parallelism == const, so routing with std::hash (identity in
  // libstdc++) starves every worker but one. The Mix64 router must keep
  // every worker loaded; per-worker load is read off the stage row's
  // nested worker_edges snapshots.
  constexpr size_t kWorkers = 4;
  std::vector<std::pair<uint64_t, int>> input;
  for (int i = 0; i < 4000; ++i) {
    input.push_back(
        {200000000u + static_cast<uint64_t>(i) * (kWorkers * 4), i});
  }
  Pipeline pipeline;
  std::vector<std::pair<uint64_t, int>> output;
  Flow<std::pair<uint64_t, int>>::FromVector(&pipeline, input)
      .KeyedProcessParallel<std::pair<uint64_t, int>, int>(
          [](const std::pair<uint64_t, int>& e) { return e.first; },
          [](const std::pair<uint64_t, int>& e, int&,
             const std::function<void(std::pair<uint64_t, int>)>& emit) {
            emit(e);
          },
          kWorkers, nullptr, {.name = "stride"})
      .CollectInto(&output);
  pipeline.Run();
  EXPECT_EQ(output.size(), input.size());

  size_t workers_seen = 0;
  uint64_t min_load = std::numeric_limits<uint64_t>::max();
  uint64_t max_load = 0;
  for (const StageMetrics& m : pipeline.Report()) {
    if (m.stage != "stride") continue;
    for (const StageMetrics& e : m.worker_edges) {
      ++workers_seen;
      min_load = std::min(min_load, e.records_in);
      max_load = std::max(max_load, e.records_in);
    }
  }
  ASSERT_EQ(workers_seen, kWorkers);
  const double mean = static_cast<double>(input.size()) / kWorkers;
  EXPECT_GT(min_load, mean / 2);
  EXPECT_LT(max_load, mean * 2);
}

// ------------------------------------------- Pipeline: shutdown semantics

// Runs `body` on a watchdog: fails the test (instead of hanging forever)
// when the pipeline does not shut down within the timeout. The worker is
// detached so a deadlock regression is reported, not inherited.
void ExpectCompletesWithin(std::function<void()> body, int timeout_ms) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread([body = std::move(body), done] {
    body();
    done->set_value();
  }).detach();
  ASSERT_EQ(finished.wait_for(std::chrono::milliseconds(timeout_ms)),
            std::future_status::ready)
      << "Pipeline::Run() hung: shutdown deadlock regression";
}

TEST(PipelineShutdownTest, SinkStopsMidStreamWithoutHanging) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        std::vector<int> input(100000);
        std::iota(input.begin(), input.end(), 0);
        size_t seen = 0;
        // Tiny capacities guarantee the source is blocked in Push when
        // the sink walks away.
        Flow<int>::FromVector(&pipeline, input, {.capacity = 4})
            .Map<int>([](const int& x) { return x + 1; }, {.capacity = 4})
            .SinkWhile([&seen](const int&) { return ++seen < 10; });
        pipeline.Run();
        EXPECT_EQ(seen, 10u);
      },
      5000);
}

TEST(PipelineShutdownTest, FlatMapConsumerClosesEarlyDoesNotHang) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        std::vector<int> input(50000);
        std::iota(input.begin(), input.end(), 0);
        size_t seen = 0;
        Flow<int>::FromVector(&pipeline, input, {.capacity = 2})
            .FlatMap<int>(
                [](const int& x) {
                  return std::vector<int>{x, x, x};
                },
                {.capacity = 2})
            .SinkWhile([&seen](const int&) { return ++seen < 5; });
        pipeline.Run();
        EXPECT_GE(seen, 5u);
      },
      5000);
}

TEST(PipelineShutdownTest, KeyedProcessEarlyCloseDoesNotHang) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        std::vector<std::pair<uint64_t, int>> input;
        for (int i = 0; i < 50000; ++i) {
          input.push_back({static_cast<uint64_t>(i % 13), i});
        }
        size_t seen = 0;
        Flow<std::pair<uint64_t, int>>::FromVector(&pipeline, input,
                                                   {.capacity = 4})
            .KeyedProcess<int, int>(
                [](const std::pair<uint64_t, int>& e) { return e.first; },
                [](const std::pair<uint64_t, int>& e, int& sum,
                   const std::function<void(int)>& emit) {
                  sum += e.second;
                  emit(sum);
                },
                nullptr, {.capacity = 4})
            .SinkWhile([&seen](const int&) { return ++seen < 7; });
        pipeline.Run();
        EXPECT_GE(seen, 7u);
      },
      5000);
}

TEST(PipelineShutdownTest, KeyedProcessParallelEarlyCloseDoesNotHang) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        std::vector<std::pair<uint64_t, int>> input;
        for (int i = 0; i < 100000; ++i) {
          input.push_back({static_cast<uint64_t>(i % 31), i});
        }
        size_t seen = 0;
        Flow<std::pair<uint64_t, int>>::FromVector(&pipeline, input,
                                                   {.capacity = 8})
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
      5000);
}

TEST(PipelineShutdownTest, GeneratorStopsWhenDownstreamCancels) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        // An infinite source: only cancellation can end this job.
        int i = 0;
        size_t seen = 0;
        Flow<int>::FromGenerator(
            &pipeline, [&i]() -> std::optional<int> { return i++; },
            {.capacity = 4})
            .Filter([](const int& x) { return x % 2 == 0; }, {.capacity = 4})
            .SinkWhile([&seen](const int&) { return ++seen < 25; });
        pipeline.Run();
        EXPECT_EQ(seen, 25u);
      },
      5000);
}

// --------------------------------------------- Pipeline: stage metrics

TEST(PipelineMetricsTest, ReportExposesPerStageCounts) {
  Pipeline pipeline;
  std::vector<int> input(1000);
  std::iota(input.begin(), input.end(), 0);
  std::vector<int> output;
  Flow<int>::FromVector(&pipeline, input, {.name = "src", .capacity = 64})
      .Map<int>([](const int& x) { return x * 2; },
                {.name = "double", .capacity = 64})
      .Filter([](const int& x) { return x % 4 == 0; },
              {.name = "mult4", .capacity = 64})
      .CollectInto(&output);
  pipeline.Run();
  ASSERT_EQ(output.size(), 500u);

  auto report = pipeline.Report();
  ASSERT_EQ(report.size(), 3u);
  auto find = [&](const std::string& name) -> const StageMetrics& {
    for (const auto& m : report) {
      if (m.stage == name) return m;
    }
    ADD_FAILURE() << "missing stage " << name;
    static StageMetrics empty;
    return empty;
  };
  EXPECT_EQ(find("src").records_in, 1000u);
  EXPECT_EQ(find("src").records_out, 1000u);
  EXPECT_EQ(find("double").records_in, 1000u);
  EXPECT_EQ(find("mult4").records_in, 500u);
  EXPECT_EQ(find("mult4").records_out, 500u);
  for (const auto& m : report) {
    EXPECT_FALSE(m.cancelled) << m.stage;
    EXPECT_EQ(m.push_rejected, 0u) << m.stage;
  }
  // Renderers carry the counters plus the pipeline's lifetime fields.
  EXPECT_NE(pipeline.ReportString().find("src"), std::string::npos);
  const std::string json = pipeline.ReportJson();
  EXPECT_NE(json.find("\"records_in\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"started_at_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"uptime_ms\":"), std::string::npos);
  // Uptime froze when Run() returned: later reads agree.
  EXPECT_GE(pipeline.uptime_ms(), 0);
  EXPECT_EQ(pipeline.uptime_ms(), pipeline.uptime_ms());
}

// Single() and Batched() run the same loop; only the transfer size
// differs, and the stage rows show it.
TEST(PipelineMetricsTest, SingleMovesOneRecordPerTransfer) {
  auto run = [](BatchPolicy policy) {
    Pipeline pipeline;
    std::vector<int> input(5000);
    std::iota(input.begin(), input.end(), 0);
    size_t delivered = 0;
    Flow<int>::FromVector(&pipeline, input, {.batch = policy})
        .Map<int>([](const int& x) { return x + 1; })
        .Filter([](const int& x) { return x % 2 == 0; })
        .Sink([&delivered](const int&) { ++delivered; });
    pipeline.Run();
    EXPECT_EQ(delivered, 2500u);
    std::vector<StageMetrics> report = pipeline.Report();
    EXPECT_EQ(report.size(), 3u);
    return report;
  };
  // A max_batch of 0 set by hand runs as 1, not as an empty pop that
  // would end every stage at once.
  for (const BatchPolicy& single : {BatchPolicy::Single(), BatchPolicy{0, 5}}) {
    for (const StageMetrics& m : run(single)) {
      EXPECT_GT(m.records_in, 0u) << m.stage;
      EXPECT_EQ(m.batches_in, m.records_in) << m.stage;
    }
  }
  for (const StageMetrics& m : run(BatchPolicy::Batched(64))) {
    EXPECT_GT(m.MeanBatchIn(), 1.0) << m.stage;
  }
}

TEST(PipelineMetricsTest, AutoNamedStagesAndCancelledEdgeVisible) {
  Pipeline pipeline;
  std::vector<int> input(10000);
  std::iota(input.begin(), input.end(), 0);
  size_t seen = 0;
  Flow<int>::FromVector(&pipeline, input, {.capacity = 4})
      .Map<int>([](const int& x) { return x; }, {.capacity = 4})
      .SinkWhile([&seen](const int&) { return ++seen < 3; });
  pipeline.Run();
  auto report = pipeline.Report();
  ASSERT_EQ(report.size(), 2u);
  // Auto-generated names follow "<op>#<index>".
  EXPECT_NE(report[0].stage.find("source#"), std::string::npos);
  EXPECT_NE(report[1].stage.find("map#"), std::string::npos);
  // The map output edge was cancelled by the early-stopping sink.
  EXPECT_TRUE(report[1].cancelled);
}

TEST(PipelineMetricsTest, BackpressureShowsAsProducerBlockedTime) {
  Pipeline pipeline;
  std::vector<int> input(256);
  std::iota(input.begin(), input.end(), 0);
  Flow<int>::FromVector(&pipeline, input, {.name = "src", .capacity = 2})
      .Sink([](const int&) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
  pipeline.Run();
  auto report = pipeline.Report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_GT(report[0].producer_blocked_ns, 0u);  // slow consumer visible
}

// Just enough JSON to read Pipeline::ReportJson() back: objects, arrays,
// strings, numbers and booleans.
struct JsonValue {
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  std::set<std::string> Keys() const {
    std::set<std::string> keys;
    for (const auto& [key, value] : object) keys.insert(key);
    return keys;
  }
  const JsonValue& At(const std::string& key) const {
    for (const auto& [k, value] : object) {
      if (k == key) return value;
    }
    ADD_FAILURE() << "missing key " << key;
    static const JsonValue kMissing;
    return kMissing;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}

  /// True when the whole text is one well-formed value.
  bool Parse(JsonValue* out) {
    const bool ok = Value(out);
    SkipWs();
    return ok && pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && ++pos_ >= s_.size()) return false;
      out->push_back(s_[pos_++]);
    }
    return Eat('"');
  }
  bool Value(JsonValue* v) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '"') return String(&v->str);
    if (c == '[') {
      ++pos_;
      if (Eat(']')) return true;
      do {
        v->array.emplace_back();
        if (!Value(&v->array.back())) return false;
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '{') {
      ++pos_;
      if (Eat('}')) return true;
      do {
        std::string key;
        if (!String(&key) || !Eat(':')) return false;
        v->object.emplace_back(std::move(key), JsonValue{});
        if (!Value(&v->object.back().second)) return false;
      } while (Eat(','));
      return Eat('}');
    }
    for (const char* word : {"true", "false"}) {
      const std::string w(word);
      if (s_.compare(pos_, w.size(), w) == 0) {
        pos_ += w.size();
        v->str = w;
        return true;
      }
    }
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    v->number = std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  std::string s_;
  size_t pos_ = 0;
};

/// Collects every object key of `v` and of the values nested in it.
void CollectKeys(const JsonValue& v, std::set<std::string>* keys) {
  for (const auto& [key, value] : v.object) {
    keys->insert(key);
    CollectKeys(value, keys);
  }
  for (const JsonValue& e : v.array) CollectKeys(e, keys);
}

// The stage-row schema every report consumer reads (bench_micro rows,
// perfbench's traced stage reports): a plain row carries exactly the
// core counters; a keyed-parallel row adds skew_ratio and one core-only
// row per partition edge.
TEST(PipelineMetricsTest, ReportJsonStageRowSchemaIsPinned) {
  Pipeline pipeline;
  std::vector<std::pair<uint64_t, int>> input;
  for (int i = 0; i < 4000; ++i) {
    input.push_back({static_cast<uint64_t>(i % 8), i});
  }
  size_t sunk = 0;
  Flow<std::pair<uint64_t, int>>::FromVector(
      &pipeline, input,
      {.name = "src", .capacity = 64, .batch = BatchPolicy::Batched(32, 1)})
      .KeyedProcessParallel<int, int>(
          [](const std::pair<uint64_t, int>& e) { return e.first; },
          [](const std::pair<uint64_t, int>& e, int&,
             const std::function<void(int)>& emit) { emit(e.second); },
          /*parallelism=*/2, nullptr, {.name = "keyed", .capacity = 64})
      .Sink([&sunk](const int&) { ++sunk; });
  pipeline.Run();
  ASSERT_EQ(sunk, input.size());

  JsonValue report;
  ASSERT_TRUE(JsonReader(pipeline.ReportJson()).Parse(&report))
      << pipeline.ReportJson();
  EXPECT_EQ(report.Keys(),
            (std::set<std::string>{"started_at_ms", "uptime_ms", "stages"}));
  const std::vector<JsonValue>& stages = report.At("stages").array;
  ASSERT_EQ(stages.size(), 2u);

  const std::set<std::string> kCore = {
      "stage",          "records_in",           "records_out",
      "batches_in",     "batches_out",          "mean_batch_in",
      "mean_batch_out", "queue_high_watermark", "capacity",
      "producer_blocked_ns", "consumer_blocked_ns", "push_rejected",
      "dropped_on_cancel",   "late_dropped",        "cancelled",
      "bytes",          "io_syncs",             "recovered",
      "truncated_bytes"};
  EXPECT_EQ(stages[0].At("stage").str, "src");
  EXPECT_EQ(stages[0].Keys(), kCore);

  const JsonValue& keyed = stages[1];
  EXPECT_EQ(keyed.At("stage").str, "keyed");
  std::set<std::string> keyed_keys = kCore;
  keyed_keys.insert({"skew_ratio", "worker_edges"});
  EXPECT_EQ(keyed.Keys(), keyed_keys);
  const std::vector<JsonValue>& edges = keyed.At("worker_edges").array;
  ASSERT_EQ(edges.size(), 2u);
  double routed = 0.0;
  double hottest = 0.0;
  for (size_t w = 0; w < edges.size(); ++w) {
    EXPECT_EQ(edges[w].Keys(), kCore);
    EXPECT_EQ(edges[w].At("stage").str, "keyed.part" + std::to_string(w));
    routed += edges[w].At("records_in").number;
    hottest = std::max(hottest, edges[w].At("records_in").number);
  }
  EXPECT_EQ(routed, static_cast<double>(input.size()));
  EXPECT_NEAR(keyed.At("skew_ratio").number, hottest / (routed / 2), 0.01);

  // No controller block survives anywhere in the report.
  std::set<std::string> all_keys;
  CollectKeys(report, &all_keys);
  for (const std::string& key : all_keys) {
    EXPECT_NE(key, "tuned");
    EXPECT_NE(key.rfind("tuner_", 0), 0u) << key;
    EXPECT_NE(key.rfind("capacity_", 0), 0u) << key;
  }
}

// -------------------------------------- Pipeline: keyed tumbling windows

TEST(PipelineWindowTest, KeyedTumblingWindowAggregatesAndCountsLate) {
  using Element = std::pair<uint64_t, TimeMs>;
  Pipeline pipeline;
  std::vector<Element> input = {
      {1, 100}, {2, 500}, {1, 900},  {1, 1100},
      {2, 1500}, {1, 2100}, {1, 50},  // last one: too late for key 1
  };
  using Result = std::pair<uint64_t, TumblingWindower<Element, int>::WindowResult>;
  std::vector<Result> output;
  Flow<Element>::FromVector(&pipeline, input)
      .KeyedTumblingWindow<int>(
          [](const Element& e) { return e.first; },
          [](const Element& e) { return e.second; },
          /*window_ms=*/1000, /*allowed_lateness_ms=*/0,
          [](int& acc, const Element&, TimeMs) { ++acc; },
          {.name = "win1s"})
      .CollectInto(&output);
  pipeline.Run();

  // Per-key window counts: key 1 -> [0,1000)=2, [1000,2000)=1, [2000,3000)=1;
  // key 2 -> [0,1000)=1, [1000,2000)=1. The (1,50) element is late-dropped.
  std::map<std::pair<uint64_t, TimeMs>, int> counts;
  for (const auto& [key, wr] : output) {
    counts[{key, wr.window_start}] += wr.value;
  }
  EXPECT_EQ(counts.size(), 5u);
  EXPECT_EQ((counts[{1, 0}]), 2);
  EXPECT_EQ((counts[{1, 1000}]), 1);
  EXPECT_EQ((counts[{1, 2000}]), 1);
  EXPECT_EQ((counts[{2, 0}]), 1);
  EXPECT_EQ((counts[{2, 1000}]), 1);

  // The drop is wired into the stage's metrics.
  auto report = pipeline.Report();
  uint64_t late = 0;
  for (const auto& m : report) {
    if (m.stage == "win1s") late = m.late_dropped;
  }
  EXPECT_EQ(late, 1u);
}

// ---------------------------------------------------------------- Window

TEST(WindowTest, TumblingAssignsByEventTime) {
  TumblingWindower<int, int> w(
      1000, 0, [](int& acc, const int& v, TimeMs) { acc += v; });
  EXPECT_TRUE(w.Add(1, 100).empty());
  EXPECT_TRUE(w.Add(2, 900).empty());
  auto closed = w.Add(3, 1100);  // watermark passes window [0, 1000)
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].window_start, 0);
  EXPECT_EQ(closed[0].value, 3);
  auto rest = w.Close();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].value, 3);
}

TEST(WindowTest, AllowedLatenessHoldsWindowsOpen) {
  TumblingWindower<int, int> w(
      1000, 500, [](int& acc, const int& v, TimeMs) { acc += v; });
  w.Add(1, 100);
  // Watermark = 1100 - 500 = 600 < 1000: window [0,1000) stays open.
  EXPECT_TRUE(w.Add(2, 1100).empty());
  // Late-but-allowed element still lands in [0, 1000).
  w.Add(10, 700);
  auto closed = w.Add(3, 1600);  // watermark 1100 closes [0, 1000)
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].value, 11);  // 1 + the late 10
  auto rest = w.Close();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].value, 5);  // 2 + 3 in [1000, 2000)
}

TEST(WindowTest, TooLateElementsDropped) {
  TumblingWindower<int, int> w(
      1000, 0, [](int& acc, const int& v, TimeMs) { acc += v; });
  w.Add(1, 100);
  w.Add(2, 2500);  // watermark 2500, closes [0,1000) and [1000,2000)
  w.Add(99, 100);  // too late
  EXPECT_EQ(w.late_dropped(), 1u);
  auto rest = w.Close();
  ASSERT_EQ(rest.size(), 1u);  // only [2000, 3000) with the value 2
  EXPECT_EQ(rest[0].value, 2);
}

TEST(WindowTest, HugeLatenessDoesNotUnderflowWatermark) {
  // Regression: watermark = max_event_time - lateness used to underflow
  // TimeMs for large lateness, wrapping to a huge positive watermark that
  // silently dropped every subsequent element.
  TumblingWindower<int, int> w(
      1000, std::numeric_limits<TimeMs>::max(),
      [](int& acc, const int& v, TimeMs) { acc += v; });
  EXPECT_TRUE(w.Add(1, 0).empty());
  EXPECT_TRUE(w.Add(2, 500).empty());   // must NOT be late-dropped
  EXPECT_TRUE(w.Add(3, 1500).empty());  // lateness holds everything open
  EXPECT_EQ(w.late_dropped(), 0u);
  // Without wrapping, the watermark stays far in the past (no drops).
  EXPECT_LT(w.watermark(), 0);
  auto rest = w.Close();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].value, 3);  // [0, 1000)
  EXPECT_EQ(rest[1].value, 3);  // [1000, 2000)
}

TEST(WindowTest, NegativeEventTimesWithLatenessStayClamped) {
  TumblingWindower<int, int> w(
      1000, 1'000'000'000'000,
      [](int& acc, const int& v, TimeMs) { acc += v; });
  // Negative event times with lateness exceeding their distance to the
  // bottom of the TimeMs range: max_event_time - lateness would wrap
  // without the clamp.
  const TimeMs low = std::numeric_limits<TimeMs>::min() + 500'000'000'000;
  EXPECT_TRUE(w.Add(1, low).empty());
  EXPECT_TRUE(w.Add(2, low + 5).empty());
  EXPECT_EQ(w.late_dropped(), 0u);
  EXPECT_EQ(w.watermark(), std::numeric_limits<TimeMs>::min());
  auto rest = w.Close();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].value, 3);
}

TEST(WindowTest, NegativeLatenessTreatedAsZero) {
  TumblingWindower<int, int> w(
      1000, -500, [](int& acc, const int& v, TimeMs) { acc += v; });
  w.Add(1, 100);
  auto closed = w.Add(2, 1100);  // watermark 1100 (not 1600)
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].value, 1);
}

TEST(WindowTest, MultipleWindowsCloseInOrder) {
  TumblingWindower<int, int> w(
      10, 0, [](int& acc, const int&, TimeMs) { ++acc; });
  w.Add(0, 5);
  w.Add(0, 15);
  w.Add(0, 25);
  auto closed = w.Add(0, 35);
  // Windows [0,10) [10,20) [20,30) all closed by watermark 35.
  std::vector<TimeMs> starts;
  for (auto& c : closed) starts.push_back(c.window_start);
  // First two closed earlier; ensure ordering is non-decreasing overall.
  EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
}

}  // namespace
}  // namespace tcmf::stream
