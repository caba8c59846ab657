// Tests for the system-architecture model (Section IV-B): the Figure-4
// report of shards(L) fed through the facade's record router, and the
// model_report accounting underneath it.
#include "system/system.hpp"

#include <gtest/gtest.h>

#include <string>

#include "api/pipeline.hpp"
#include "core/expr.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"

namespace jrf::system {
namespace {

core::expr_ptr simple_filter() { return core::string_leaf("temperature", 1); }

/// One stream dealt record by record to `lanes` replicated pipelines: the
/// paper's Figure-4 system through the facade.
run_result figure4(const std::string& stream, int lanes,
                   pipeline_options options = {}) {
  auto built = pipeline::make()
                   .raw_filter(simple_filter())
                   .options(options)
                   .shards(static_cast<std::size_t>(lanes))
                   .build();
  EXPECT_TRUE(built.has_value()) << (built ? "" : built.error().message);
  EXPECT_TRUE(built->offer(stream).has_value());
  auto result = built->finish();
  EXPECT_TRUE(result.has_value()) << (result ? "" : result.error().message);
  return *result;
}

TEST(FilterSystem, SevenLanesBeat10GbELineRate) {
  // The paper's headline: 7 x 1 B/cycle @ 200 MHz sustains 1.33 GB/s,
  // above the 1.25 GB/s of 10 GbE.
  data::smartcity_generator gen;
  const std::string stream = data::inflate(gen.stream(200), 2u << 20);

  const auto report = figure4(stream, 7).report;
  EXPECT_NEAR(report.theoretical_gbps, 1.4, 0.01);
  EXPECT_GT(report.gbytes_per_second, report.line_rate_10gbe);
  EXPECT_LT(report.gbytes_per_second, report.theoretical_gbps);
}

TEST(FilterSystem, ThroughputScalesWithLanes) {
  data::smartcity_generator gen;
  const std::string stream = data::inflate(gen.stream(200), 1u << 20);

  double previous = 0.0;
  for (const int lanes : {1, 2, 4, 7}) {
    const double rate = figure4(stream, lanes).report.gbytes_per_second;
    EXPECT_GT(rate, previous) << lanes;
    previous = rate;
  }
}

TEST(FilterSystem, DmaOverheadReducesBelowTheoretical) {
  data::smartcity_generator gen;
  const std::string stream = data::inflate(gen.stream(100), 1u << 20);

  pipeline_options costly;
  costly.dma_setup_cycles = 4000;  // pathological descriptor overhead
  EXPECT_LT(figure4(stream, 7, costly).report.gbytes_per_second,
            figure4(stream, 7).report.gbytes_per_second);
}

TEST(FilterSystem, SingleLaneApproachesClockRate) {
  data::smartcity_generator gen;
  const std::string stream = data::inflate(gen.stream(100), 1u << 20);
  // 1 byte/cycle at 200 MHz = 0.2 GB/s peak.
  EXPECT_NEAR(figure4(stream, 1).report.gbytes_per_second, 0.2, 0.01);
}

TEST(FilterSystem, AcceptedCountsMatchDecisions) {
  data::smartcity_generator gen;
  const std::string stream = gen.stream(300);
  const run_result result = figure4(stream, 7);
  std::size_t accepted = 0;
  for (const bool d : result.decisions) accepted += d ? 1 : 0;
  EXPECT_EQ(result.report.accepted, accepted);
  EXPECT_EQ(result.report.records, result.decisions.size());
  EXPECT_EQ(result.report.records, 300u);
}

TEST(FilterSystem, BlankLineHeavyStreamDoesNotUnderflowStalls) {
  // Blank lines carry bytes to no lane, so the slowest lane can finish in
  // fewer cycles than the balanced distribution of raw bytes; the stall
  // accounting must clamp at zero instead of wrapping the unsigned math.
  // (The facade's record router drops blank lines before any lane counts
  // them, so only a direct model call reaches the clamp.)
  const std::uint64_t bytes = 8 + 50000;  // one record + 50000 blank lines
  const throughput_report report =
      model_report(system_options{}, 7, bytes, 1, 1, 8);
  EXPECT_EQ(report.records, 1u);
  EXPECT_LE(report.stall_cycles, report.cycles);
  EXPECT_EQ(report.stall_cycles, 0u);
}

}  // namespace
}  // namespace jrf::system
