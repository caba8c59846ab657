// Tests for the ingest-source abstraction and the concurrent runner.
#include "system/ingest.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/expr.hpp"
#include "core/raw_filter.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "util/error.hpp"

namespace jrf::system {
namespace {

core::expr_ptr simple_filter() { return core::string_leaf("temperature", 1); }

/// Drain a source to a string via the peek/consume protocol, `step` bytes
/// at a time.
std::string drain(ingest_source& source, std::size_t step) {
  std::string out;
  while (!source.exhausted()) {
    const std::string_view view = source.peek(step);
    if (view.empty()) break;
    out.append(view);
    source.consume(view.size());
  }
  return out;
}

TEST(MemorySource, DrainsBufferInOrder) {
  const std::string buffer = "abcdefghij";
  memory_source source(buffer);
  EXPECT_FALSE(source.exhausted());
  EXPECT_EQ(drain(source, 3), buffer);
  EXPECT_TRUE(source.exhausted());
  EXPECT_TRUE(source.peek(16).empty());
}

TEST(MemorySource, PartialConsumeRepeeksRemainder) {
  memory_source source("hello world");
  EXPECT_EQ(source.peek(5), "hello");
  source.consume(2);  // backpressured offer took only 2 bytes
  EXPECT_EQ(source.peek(5), "llo w");
  EXPECT_THROW(source.consume(100), error);
}

TEST(MemorySource, UncappedPeekReturnsEverything) {
  memory_source source("0123456789");
  EXPECT_EQ(source.peek(0), "0123456789");
}

TEST(ChunkedFileSource, StreamsFileAcrossChunkBoundaries) {
  const std::string path = testing::TempDir() + "jrf_ingest_file.ndjson";
  const std::string content = data::smartcity_generator().stream(50);
  { std::ofstream(path, std::ios::binary) << content; }

  // Chunk far smaller than the file: peeks must splice back losslessly.
  chunked_file_source source(path, 64);
  EXPECT_EQ(drain(source, 29), content);
  EXPECT_TRUE(source.exhausted());
  std::remove(path.c_str());
}

TEST(ChunkedFileSource, EmptyFileIsImmediatelyExhausted) {
  const std::string path = testing::TempDir() + "jrf_ingest_empty";
  { std::ofstream touch(path, std::ios::binary); }
  chunked_file_source source(path, 64);
  EXPECT_TRUE(source.peek(16).empty());
  EXPECT_TRUE(source.exhausted());
  std::remove(path.c_str());
}

TEST(ChunkedFileSource, MissingFileThrows) {
  EXPECT_THROW(chunked_file_source("/nonexistent/jrf-no-such-file"), error);
}

TEST(SyntheticRateSource, ReplaysCorpusUpToTotal) {
  const std::string corpus = "{\"temperature\":1}\n";
  synthetic_rate_source source(corpus, corpus.size() * 3, 7);
  const std::string produced = drain(source, 0);
  EXPECT_EQ(produced, corpus + corpus + corpus);
  EXPECT_TRUE(source.exhausted());
}

TEST(SyntheticRateSource, CapsBytesPerPull) {
  synthetic_rate_source source("abcdef", 600, 5);
  while (!source.exhausted()) {
    const std::string_view view = source.peek(0);
    EXPECT_LE(view.size(), 5u);  // the modeled line rate
    ASSERT_FALSE(view.empty());
    source.consume(view.size());
  }
}

TEST(SyntheticRateSource, RejectsBadConfigurations) {
  EXPECT_THROW(synthetic_rate_source("", 10, 4), error);
  EXPECT_THROW(synthetic_rate_source("x", 10, 0), error);
  synthetic_rate_source empty_ok("", 0, 4);  // zero total: fine, exhausted
  EXPECT_TRUE(empty_ok.exhausted());
  EXPECT_TRUE(empty_ok.peek(8).empty());
}

TEST(ConcurrentRunner, MixedSourcesMatchReferenceFilter) {
  data::smartcity_generator gen;
  const std::string stream_a = gen.stream(80);
  const std::string stream_b = gen.stream(60);
  const std::string corpus = "{\"temperature\":1}\n{\"humidity\":2}\n";

  const std::string path = testing::TempDir() + "jrf_runner_feed.ndjson";
  { std::ofstream(path, std::ios::binary) << stream_b; }

  sharded_filter_system sys({simple_filter()}, 3);
  concurrent_runner runner(sys);
  runner.bind(0, std::make_unique<memory_source>(stream_a));
  runner.bind(1, std::make_unique<chunked_file_source>(path, 128));
  runner.bind(2, std::make_unique<synthetic_rate_source>(
                     corpus, corpus.size() * 5, 11));
  const sharded_report report = runner.run();
  std::remove(path.c_str());

  core::raw_filter reference(simple_filter());
  EXPECT_EQ(sys.decisions(0), reference.filter_stream(stream_a));
  EXPECT_EQ(sys.decisions(1), reference.filter_stream(stream_b));
  std::string replay;
  for (int i = 0; i < 5; ++i) replay += corpus;
  EXPECT_EQ(sys.decisions(2), reference.filter_stream(replay));
  EXPECT_EQ(report.bytes,
            stream_a.size() + stream_b.size() + corpus.size() * 5);
}

TEST(ConcurrentRunner, UnboundShardIdlesAsImbalance) {
  data::smartcity_generator gen;
  const std::string stream = gen.stream(60);

  sharded_filter_system sys({simple_filter()}, 2);
  concurrent_runner runner(sys);
  runner.bind(0, std::make_unique<memory_source>(stream));
  const sharded_report report = runner.run();

  EXPECT_EQ(report.shards[1].records, 0u);
  EXPECT_GT(report.stall_cycles, 0u);
}

TEST(ConcurrentRunner, HonoursBackpressureWithTinyFifo) {
  data::smartcity_generator gen;
  const std::string stream = gen.stream(60);

  system_options options;
  options.lane_fifo_bytes = 64;
  options.dma_burst_bytes = 256;  // bursts larger than the FIFO
  sharded_filter_system sys({simple_filter()}, 1, options);
  concurrent_runner runner(sys);
  runner.bind(0, std::make_unique<memory_source>(stream));
  const sharded_report report = runner.run();

  EXPECT_EQ(report.bytes, stream.size());
  EXPECT_GT(report.backpressure_events, 0u);
  core::raw_filter reference(simple_filter());
  EXPECT_EQ(sys.decisions(0), reference.filter_stream(stream));
}

TEST(ConcurrentRunner, RejectsBadBindings) {
  sharded_filter_system sys({simple_filter()}, 2);
  concurrent_runner runner(sys);
  EXPECT_THROW(runner.bind(2, std::make_unique<memory_source>("x")), error);
  EXPECT_THROW(runner.bind(0, nullptr), error);
}

TEST(ConcurrentRunner, RunWithNoSourcesReportsAllZero) {
  sharded_filter_system sys({simple_filter()}, 2);
  concurrent_runner runner(sys);
  const sharded_report report = runner.run();
  EXPECT_EQ(report.bytes, 0u);
  EXPECT_EQ(report.cycles, 0u);
  EXPECT_EQ(report.seconds, 0.0);
}

}  // namespace
}  // namespace jrf::system
