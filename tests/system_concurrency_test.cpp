// Concurrency determinism suite (ROADMAP "Concurrent sharded execution").
//
// The contract under test: worker threads change host wall clock only.
// The same shard streams filtered with 1, 2 and N worker threads must
// produce byte-identical per-shard decision vectors and the identical
// cycle-quantized report, because lanes share no mutable state and each
// lane's byte sequence is schedule-independent. Run under TSan in CI (one
// configuration builds -fsanitize=thread) the suite also proves the
// per-lane locking: producer threads hammering offer() while workers
// drain never race.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/expr.hpp"
#include "core/raw_filter.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "query/compile.hpp"
#include "query/riotbench.hpp"
#include "system/ingest.hpp"
#include "system/sharded.hpp"

namespace jrf::system {
namespace {

std::vector<std::string_view> views(const std::vector<std::string>& streams) {
  return {streams.begin(), streams.end()};
}

void expect_reports_identical(const sharded_report& a,
                              const sharded_report& b,
                              std::size_t workers) {
  EXPECT_EQ(a.bytes, b.bytes) << workers;
  EXPECT_EQ(a.records, b.records) << workers;
  EXPECT_EQ(a.accepted, b.accepted) << workers;
  EXPECT_EQ(a.backpressure_events, b.backpressure_events) << workers;
  EXPECT_EQ(a.hard_backpressure_events, b.hard_backpressure_events)
      << workers;
  EXPECT_EQ(a.cycles, b.cycles) << workers;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << workers;
  EXPECT_EQ(a.seconds, b.seconds) << workers;
  EXPECT_EQ(a.gbytes_per_second, b.gbytes_per_second) << workers;
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].offered, b.shards[s].offered) << workers << s;
    EXPECT_EQ(a.shards[s].bytes, b.shards[s].bytes) << workers << s;
    EXPECT_EQ(a.shards[s].records, b.shards[s].records) << workers << s;
    EXPECT_EQ(a.shards[s].accepted, b.shards[s].accepted) << workers << s;
    EXPECT_EQ(a.shards[s].fifo_high_watermark,
              b.shards[s].fifo_high_watermark)
        << workers << s;
  }
}

TEST(ShardedConcurrency, WorkerCountNeverChangesDecisionsOrReport) {
  data::smartcity_generator gen;
  const auto rf = query::compile_default(query::riotbench::qs0());
  const auto streams = data::shard_records(gen.stream(400), 4);

  // Serial reference: the paper-reproduction path, no pool at all.
  sharded_filter_system serial({rf}, 4);
  const sharded_report reference = serial.run(views(streams));

  const std::size_t hw = std::thread::hardware_concurrency();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::max<std::size_t>(hw, 3)}) {
    system_options options;
    options.worker_threads = workers;
    sharded_filter_system threaded({rf}, 4, options);
    const sharded_report report = threaded.run(views(streams));

    for (std::size_t shard = 0; shard < 4; ++shard)
      EXPECT_EQ(threaded.decisions(shard), serial.decisions(shard))
          << "workers=" << workers << " shard=" << shard;
    expect_reports_identical(report, reference, workers);
  }
}

TEST(ShardedConcurrency, TinyFifoBackpressureIsDeterministicUnderWorkers) {
  // FIFO smaller than the burst: the offer/pump interleave exercises
  // truncated offers; the counts must still be schedule-independent
  // because run()'s rounds are barriers.
  data::smartcity_generator gen;
  const auto streams = data::shard_records(gen.stream(120), 3);
  const core::expr_ptr rf = core::string_leaf("temperature", 1);

  system_options serial_options;
  serial_options.lane_fifo_bytes = 96;
  serial_options.dma_burst_bytes = 512;
  sharded_filter_system serial({rf}, 3, serial_options);
  const sharded_report reference = serial.run(views(streams));
  EXPECT_GT(reference.backpressure_events, 0u);

  system_options threaded_options = serial_options;
  threaded_options.worker_threads = 4;
  sharded_filter_system threaded({rf}, 3, threaded_options);
  const sharded_report report = threaded.run(views(streams));

  expect_reports_identical(report, reference, 4);
  for (std::size_t shard = 0; shard < 3; ++shard)
    EXPECT_EQ(threaded.decisions(shard), serial.decisions(shard)) << shard;
}

TEST(ShardedConcurrency, ProducerThreadsRacingPumpStayLossless) {
  // One producer thread per shard offering concurrently with pump() on
  // the worker pool: bytes may interleave with draining arbitrarily, but
  // per-lane locking must keep every lane's byte sequence intact, so the
  // decisions equal the serial reference. (TSan checks the locking.)
  data::smartcity_generator gen;
  const auto streams = data::shard_records(gen.stream(200), 3);
  const core::expr_ptr rf = core::string_leaf("temperature", 1);

  system_options options;
  options.worker_threads = 3;
  options.lane_fifo_bytes = 256;  // small: force real backpressure
  sharded_filter_system sys({rf}, 3, options);

  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    producers.emplace_back([&, shard] {
      std::string_view remaining = streams[shard];
      while (!remaining.empty()) {
        const std::size_t taken =
            sys.offer(shard, remaining.substr(0, 128));
        remaining.remove_prefix(taken);
        if (taken == 0) std::this_thread::yield();  // hard backpressure
      }
    });
  }
  // Consumer: keep pumping until every producer delivered everything.
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) sys.pump(512);
  });
  for (std::thread& producer : producers) producer.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  sys.finish();

  core::raw_filter reference(rf);
  for (std::size_t shard = 0; shard < 3; ++shard)
    EXPECT_EQ(sys.decisions(shard), reference.filter_stream(streams[shard]))
        << shard;
  const sharded_report report = sys.report();
  EXPECT_EQ(report.bytes, streams[0].size() + streams[1].size() +
                              streams[2].size());
}

TEST(ShardedConcurrency, ConcurrentRunnerMatchesSerialUnderWorkers) {
  // The ingest machinery end to end: synthetic-rate sources driven by the
  // runner over a threaded system equal the serial run of the same bytes.
  const std::string corpus =
      "{\"temperature\":9}\n{\"pressure\":3}\n{\"temperature\":1}\n";
  const std::size_t total = corpus.size() * 8;
  const core::expr_ptr rf = core::string_leaf("temperature", 1);

  std::string replay;
  for (int i = 0; i < 8; ++i) replay += corpus;

  system_options options;
  options.worker_threads = 4;
  sharded_filter_system sys({rf}, 2, options);
  concurrent_runner runner(sys, 64);
  runner.bind(0, std::make_unique<synthetic_rate_source>(corpus, total, 48));
  runner.bind(1, std::make_unique<synthetic_rate_source>(corpus, total, 16));
  const sharded_report report = runner.run();

  core::raw_filter reference(rf);
  const auto expected = reference.filter_stream(replay);
  EXPECT_EQ(sys.decisions(0), expected);
  EXPECT_EQ(sys.decisions(1), expected);
  EXPECT_EQ(report.bytes, 2 * total);
}

}  // namespace
}  // namespace jrf::system
