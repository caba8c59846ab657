// Tests for the sharded multi-stream system model.
#include "system/sharded.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
#include <vector>

#include "core/expr.hpp"
#include "core/raw_filter.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "query/compile.hpp"
#include "query/riotbench.hpp"
#include "util/error.hpp"

namespace jrf::system {
namespace {

core::expr_ptr simple_filter() { return core::string_leaf("temperature", 1); }

std::vector<std::string_view> views(const std::vector<std::string>& streams) {
  return {streams.begin(), streams.end()};
}

TEST(ShardedSystem, PerShardDecisionsMatchReferenceFilter) {
  data::smartcity_generator gen;
  const auto streams = data::shard_records(gen.stream(400), 4);

  sharded_filter_system sys({simple_filter()}, 4);
  sys.run(views(streams));

  core::raw_filter reference(simple_filter());
  for (std::size_t shard = 0; shard < streams.size(); ++shard) {
    const auto expected = reference.filter_stream(streams[shard]);
    EXPECT_EQ(sys.decisions(shard), expected) << "shard " << shard;
  }
}

TEST(ShardedSystem, QueryLanesMatchRawFilterOracle) {
  // A compiled riotbench query on the chunked lanes decides every shard
  // exactly like the byte-serial raw_filter reference.
  data::smartcity_generator gen;
  const auto rf = query::compile_default(query::riotbench::qs0());
  const auto streams = data::shard_records(gen.stream(300), 3);

  sharded_filter_system sys({rf}, 3);
  sys.run(views(streams));
  core::raw_filter reference(rf);
  for (std::size_t shard = 0; shard < 3; ++shard)
    EXPECT_EQ(sys.decisions(shard), reference.filter_stream(streams[shard]))
        << shard;
}

TEST(ShardedSystem, ReportAggregatesShards) {
  data::smartcity_generator gen;
  const auto streams = data::shard_records(gen.stream(200), 4);

  sharded_filter_system sys({simple_filter()}, 4);
  const sharded_report report = sys.run(views(streams));

  ASSERT_EQ(report.shards.size(), 4u);
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t accepted = 0;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    bytes += report.shards[shard].bytes;
    records += report.shards[shard].records;
    accepted += report.shards[shard].accepted;
    EXPECT_EQ(report.shards[shard].bytes, streams[shard].size()) << shard;
    EXPECT_EQ(report.shards[shard].records, sys.decisions(shard).size());
  }
  EXPECT_EQ(report.bytes, bytes);
  EXPECT_EQ(report.records, records);
  EXPECT_EQ(report.accepted, accepted);
  EXPECT_GT(report.cycles, 0u);
  EXPECT_GT(report.gbytes_per_second, 0.0);
  EXPECT_NEAR(report.theoretical_gbps, 0.8, 0.01);  // 4 lanes x 200 MHz
}

TEST(ShardedSystem, OfferHonoursFifoBackpressure) {
  system_options options;
  options.lane_fifo_bytes = 32;
  sharded_filter_system sys({simple_filter()}, 1, options);

  const std::string big(100, 'x');
  const std::size_t taken = sys.offer(0, big);
  EXPECT_EQ(taken, 32u);

  // Full FIFO refuses everything until pumped.
  EXPECT_EQ(sys.offer(0, big), 0u);
  sys.pump();
  EXPECT_EQ(sys.offer(0, big), 32u);

  const sharded_report report = sys.report();
  EXPECT_GE(report.shards[0].backpressure_events, 2u);
  EXPECT_EQ(report.shards[0].fifo_high_watermark, 32u);
  EXPECT_EQ(report.shards[0].offered, 300u);
}

TEST(ShardedSystem, HardBackpressureIsItsOwnStat) {
  system_options options;
  options.lane_fifo_bytes = 32;
  sharded_filter_system sys({simple_filter()}, 1, options);

  const std::string big(100, 'x');
  sys.offer(0, big);  // truncated: soft backpressure only
  sharded_report report = sys.report();
  EXPECT_EQ(report.shards[0].backpressure_events, 1u);
  EXPECT_EQ(report.shards[0].hard_backpressure_events, 0u);

  // Full FIFO taking zero bytes of a non-empty offer: hard backpressure,
  // counted both as a backpressure event and in the dedicated stat.
  EXPECT_EQ(sys.offer(0, big), 0u);
  EXPECT_EQ(sys.offer(0, "y"), 0u);
  report = sys.report();
  EXPECT_EQ(report.shards[0].backpressure_events, 3u);
  EXPECT_EQ(report.shards[0].hard_backpressure_events, 2u);
  EXPECT_EQ(report.hard_backpressure_events, 2u);  // merged view

  // After draining, a fitting offer counts neither.
  sys.pump();
  EXPECT_EQ(sys.offer(0, "z"), 1u);
  report = sys.report();
  EXPECT_EQ(report.shards[0].backpressure_events, 3u);
  EXPECT_EQ(report.shards[0].hard_backpressure_events, 2u);
}

TEST(ShardedSystem, EmptyOfferOnFullFifoChangesNoCounters) {
  system_options options;
  options.lane_fifo_bytes = 32;
  sharded_filter_system sys({simple_filter()}, 1, options);
  sys.offer(0, std::string(32, 'x'));  // exactly fills the FIFO
  const sharded_report before = sys.report();

  EXPECT_EQ(sys.offer(0, std::string_view{}), 0u);
  EXPECT_EQ(sys.offer(0, ""), 0u);

  const sharded_report after = sys.report();
  EXPECT_EQ(after.shards[0].offered, before.shards[0].offered);
  EXPECT_EQ(after.shards[0].backpressure_events,
            before.shards[0].backpressure_events);
  EXPECT_EQ(after.shards[0].hard_backpressure_events,
            before.shards[0].hard_backpressure_events);
  EXPECT_EQ(after.shards[0].fifo_high_watermark,
            before.shards[0].fifo_high_watermark);
  EXPECT_EQ(after.shards[0].bytes, before.shards[0].bytes);
}

TEST(ShardedSystem, ZeroByteReportHasNoNanOrInf) {
  // report() on a freshly constructed system: every derived rate must be
  // exactly zero - not the configured peak, and never NaN/inf.
  sharded_filter_system sys({simple_filter()}, 4);
  const sharded_report report = sys.report();
  EXPECT_EQ(report.bytes, 0u);
  EXPECT_EQ(report.records, 0u);
  EXPECT_EQ(report.cycles, 0u);
  EXPECT_EQ(report.stall_cycles, 0u);
  EXPECT_EQ(report.seconds, 0.0);
  EXPECT_EQ(report.gbytes_per_second, 0.0);
  EXPECT_EQ(report.theoretical_gbps, 0.0);
  EXPECT_TRUE(std::isfinite(report.seconds));
  EXPECT_TRUE(std::isfinite(report.gbytes_per_second));
  EXPECT_TRUE(std::isfinite(report.theoretical_gbps));
  // to_string on the empty report must not trip anything either.
  EXPECT_FALSE(report.to_string().empty());
}

TEST(ShardedSystem, RunCompletesDespiteTinyFifo) {
  // FIFO smaller than the DMA burst: run() must still move every byte.
  data::smartcity_generator gen;
  const auto streams = data::shard_records(gen.stream(60), 2);

  system_options options;
  options.lane_fifo_bytes = 64;
  options.dma_burst_bytes = 256;
  sharded_filter_system sys({simple_filter()}, 2, options);
  const sharded_report report = sys.run(views(streams));

  EXPECT_EQ(report.bytes, streams[0].size() + streams[1].size());
  EXPECT_GT(report.backpressure_events, 0u);

  core::raw_filter reference(simple_filter());
  for (std::size_t shard = 0; shard < 2; ++shard)
    EXPECT_EQ(sys.decisions(shard), reference.filter_stream(streams[shard]));
}

TEST(ShardedSystem, LaneImbalanceShowsAsStalls) {
  // One long stream, one empty: the idle lane stalls while the loaded lane
  // bounds completion.
  std::vector<std::string> streams{
      data::smartcity_generator().stream(100), std::string{}};

  sharded_filter_system sys({simple_filter()}, 2);
  const sharded_report report = sys.run(views(streams));
  EXPECT_GT(report.stall_cycles, 0u);
  EXPECT_EQ(report.shards[1].records, 0u);
}

TEST(ShardedSystem, FinishFlushesTrailingRecord) {
  sharded_filter_system sys({simple_filter()}, 1);
  sys.offer(0, "{\"temperature\":1}");  // no trailing separator
  sys.pump();
  EXPECT_TRUE(sys.decisions(0).empty());
  sys.finish();
  ASSERT_EQ(sys.decisions(0).size(), 1u);
  EXPECT_TRUE(sys.decisions(0).front());
}

TEST(ShardedSystem, RejectsBadConfigurations) {
  EXPECT_THROW(sharded_filter_system({simple_filter()}, 0), error);

  system_options zero_fifo;
  zero_fifo.lane_fifo_bytes = 0;
  EXPECT_THROW(sharded_filter_system({simple_filter()}, 1, zero_fifo), error);

  sharded_filter_system sys({simple_filter()}, 2);
  EXPECT_THROW(sys.offer(2, "x"), error);
  EXPECT_THROW(sys.decisions(2), error);

  std::vector<std::string_view> wrong{std::string_view{"a\n"}};
  EXPECT_THROW(sys.run(wrong), error);
}

}  // namespace
}  // namespace jrf::system
