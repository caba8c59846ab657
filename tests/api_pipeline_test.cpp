// jrf::pipeline facade suite (tier-1).
//
// Two halves:
//   * equivalence - the facade's per-record decisions are byte-identical to
//     the byte-serial raw_filter reference, across riotbench queries x
//     datasets x shard counts x worker counts, batch and streaming
//     surfaces alike;
//   * error paths - build()/run()/offer()/finish() never throw across the
//     API boundary: malformed query text comes back as an expected error
//     carrying the parse_error byte offset, and invalid configurations
//     (zero FIFO / burst / shards, duplicate query sources, missing input
//     files) are diagnosed without aborting.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "api/pipeline.hpp"
#include "core/filter_engine.hpp"
#include "core/raw_filter.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "data/taxi.hpp"
#include "data/twitter.hpp"
#include "query/compile.hpp"
#include "query/eval.hpp"
#include "query/parse.hpp"
#include "query/riotbench.hpp"
#include "system/sharded.hpp"
#include "util/error.hpp"

namespace {

using namespace jrf;

struct workload {
  std::string name;
  query::query q;
  std::string stream;
};

const std::vector<workload>& workloads() {
  static const std::vector<workload> cases = [] {
    std::vector<workload> out;
    data::smartcity_generator city;
    out.push_back({"qs0_smartcity", query::riotbench::qs0(), city.stream(400)});
    out.push_back({"qs1_smartcity", query::riotbench::qs1(), city.stream(400)});
    data::taxi_generator taxi;
    out.push_back({"qt_taxi", query::riotbench::qt(), taxi.stream(400)});
    return out;
  }();
  return cases;
}

std::vector<bool> facade_decisions(const workload& w) {
  auto built = pipeline::make().from_query(w.q).input(w.stream).build();
  EXPECT_TRUE(built.has_value()) << (built ? "" : built.error().message);
  auto result = built->run();
  EXPECT_TRUE(result.has_value()) << (result ? "" : result.error().message);
  return result->decisions;
}

/// Merge per-shard decisions back into stream order: record k of the
/// merged input went to shard k % shards at index k / shards.
std::vector<bool> interleave(const std::vector<std::vector<bool>>& shards) {
  std::vector<bool> out;
  for (std::size_t j = 0;; ++j) {
    bool any = false;
    for (const auto& shard : shards) {
      if (j >= shard.size()) continue;
      out.push_back(shard[j]);
      any = true;
    }
    if (!any) return out;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Equivalence: facade vs the byte-serial raw_filter reference.

TEST(ApiPipelineEquivalence, OracleSweep) {
  // Every riotbench query over every dataset, through every surface of
  // the one execution path, against the scalar raw_filter reference.
  data::smartcity_generator city;
  data::taxi_generator taxi;
  data::twitter_generator tweets;
  const std::vector<std::pair<std::string, std::string>> datasets{
      {"smartcity", city.stream(300)},
      {"taxi", taxi.stream(300)},
      {"twitter", tweets.stream(300)}};
  const std::vector<std::pair<std::string, query::query>> queries{
      {"qs0", query::riotbench::qs0()},
      {"qs1", query::riotbench::qs1()},
      {"qt", query::riotbench::qt()}};
  for (const auto& [qname, q] : queries) {
    const core::expr_ptr rf = query::compile_default(q);
    for (const auto& [dname, stream] : datasets) {
      const std::vector<bool> oracle =
          core::raw_filter(rf).filter_stream(stream);
      for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                       std::size_t{7}}) {
        const std::string where =
            qname + "/" + dname + " shards=" + std::to_string(shards);
        const auto feeds = data::shard_records(stream, shards);

        // Batch run(), one bound input per shard, serial and pooled.
        for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
          auto builder = pipeline::make();
          builder.from_query(q).worker_threads(workers);
          for (const std::string& feed : feeds) builder.input(feed);
          auto built = builder.build();
          ASSERT_TRUE(built.has_value()) << built.error().message;
          auto result = built->run();
          ASSERT_TRUE(result.has_value()) << result.error().message;
          EXPECT_EQ(interleave(result->shard_decisions), oracle)
              << where << " run() workers=" << workers;
        }

        // Routed offer(bytes): ragged chunks dealt record by record.
        auto built = pipeline::make().from_query(q).shards(shards).build();
        ASSERT_TRUE(built.has_value()) << built.error().message;
        std::string_view rest = stream;
        while (!rest.empty()) {
          const std::size_t step = std::min<std::size_t>(61, rest.size());
          ASSERT_TRUE(built->offer(rest.substr(0, step)).has_value());
          rest.remove_prefix(step);
        }
        auto result = built->finish();
        ASSERT_TRUE(result.has_value()) << result.error().message;
        EXPECT_EQ(interleave(result->shard_decisions), oracle)
            << where << " routed offer";
        EXPECT_EQ(result->records(), oracle.size()) << where;
      }
    }
  }
}

TEST(ApiPipelineEquivalence, NoFalseNegativesThroughTheFacade) {
  for (const workload& w : workloads()) {
    const auto decisions = facade_decisions(w);
    const auto check =
        query::verify_no_false_negatives(w.q, w.stream, decisions);
    EXPECT_GT(check.true_matches, 0u) << w.name;
    EXPECT_TRUE(check.ok()) << w.name << ": dropped "
                            << check.false_negatives << " true matches";
  }
}

// ---------------------------------------------------------------------------
// Streaming surface: offer()/pump()/finish() and the decision sink.

TEST(ApiPipelineStreaming, StreamingMatchesBatch) {
  const workload& w = workloads().front();
  const auto batch = facade_decisions(w);

  std::vector<std::pair<std::size_t, bool>> sunk;
  auto built = pipeline::make()
                   .from_query(w.q)
                   .on_decision([&](std::size_t shard, std::uint64_t index,
                                    bool accepted) {
                     EXPECT_EQ(shard, 0u);
                     sunk.emplace_back(index, accepted);
                   })
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;

  // Ragged chunks: boundaries land mid-record, mid-token, everywhere.
  std::string_view rest = w.stream;
  while (!rest.empty()) {
    const std::size_t step = std::min<std::size_t>(97, rest.size());
    auto taken = built->offer(rest.substr(0, step));
    ASSERT_TRUE(taken.has_value()) << taken.error().message;
    EXPECT_EQ(*taken, step);
    rest.remove_prefix(step);
  }
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  EXPECT_EQ(result->decisions, batch);
  ASSERT_EQ(sunk.size(), batch.size());
  for (std::size_t i = 0; i < sunk.size(); ++i) {
    EXPECT_EQ(sunk[i].first, i);       // in order, exactly once
    EXPECT_EQ(sunk[i].second, batch[i]);
  }
}

TEST(ApiPipelineStreaming, ShardedStreamingUnderBackpressure) {
  const workload& w = workloads().front();
  const auto shards = data::shard_records(w.stream, 3);

  std::vector<std::vector<bool>> sunk(shards.size());
  auto built = pipeline::make()
                   .from_query(w.q)
                   .shards(shards.size())
                   .worker_threads(2)
                   .lane_fifo_bytes(256)  // far smaller than the offers
                   .on_decision([&](std::size_t shard, std::uint64_t index,
                                    bool accepted) {
                     EXPECT_EQ(index, sunk[shard].size());
                     sunk[shard].push_back(accepted);
                   })
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  EXPECT_EQ(built->shard_count(), shards.size());

  // Offer each shard's whole stream in one call: far larger than the lane
  // FIFO, so offer() must drain in-line and still absorb every byte.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    auto taken = built->offer(s, shards[s]);
    ASSERT_TRUE(taken.has_value()) << taken.error().message;
    EXPECT_EQ(*taken, shards[s].size());
  }
  ASSERT_TRUE(built->pump().has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;

  // Decisions per shard equal a fresh serial sharded run of the same feeds.
  const core::expr_ptr rf = query::compile_default(w.q);
  const std::vector<std::string_view> views{shards.begin(), shards.end()};
  system::sharded_filter_system reference({rf}, views.size());
  reference.run(views);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(result->shard_decisions[s], reference.decisions(s));
    EXPECT_EQ(sunk[s], result->shard_decisions[s]) << "shard " << s;
  }
}

TEST(ApiPipelineStreaming, TryOfferPartialAbsorptionUnderFullFifo) {
  // A lane FIFO far smaller than the offer: try_offer must absorb exactly
  // the free space, report hard backpressure with 0 (never block, never
  // drain in-line), and resume after the caller pumps that shard.
  const workload& w = workloads().front();
  auto built = pipeline::make()
                   .from_query(w.q)
                   .shards(1)
                   .lane_fifo_bytes(64)
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;

  std::string_view rest = w.stream;
  std::uint64_t absorbed = 0;
  bool saw_partial = false;
  bool saw_hard = false;
  while (!rest.empty()) {
    auto taken = built->try_offer(0, rest);
    ASSERT_TRUE(taken.has_value()) << taken.error().message;
    EXPECT_LE(*taken, 64u);  // never more than the FIFO can hold
    if (*taken == 0) {
      saw_hard = true;
      ASSERT_TRUE(built->pump(0).has_value());
      continue;
    }
    if (*taken < rest.size()) saw_partial = true;
    absorbed += *taken;
    rest.remove_prefix(*taken);
  }
  EXPECT_TRUE(saw_partial);
  EXPECT_EQ(absorbed, w.stream.size());

  // A bounded second offer absorbs only what fits behind the unpumped
  // tail; the live stats() snapshot shows the backpressure the loop hit.
  auto tail = built->try_offer(0, w.stream);
  ASSERT_TRUE(tail.has_value());
  EXPECT_LE(*tail, 64u);
  auto stats = built->stats();
  ASSERT_TRUE(stats.has_value()) << stats.error().message;
  ASSERT_EQ(stats->size(), 1u);
  if (saw_hard) {
    EXPECT_GT((*stats)[0].hard_backpressure_events, 0u);
  }

  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  // Every absorbed byte got filtered (finish drains the FIFO remainder),
  // and the decisions are byte-identical to a batch scan over exactly the
  // absorbed prefix sequence.
  ASSERT_EQ(result->shards.size(), 1u);
  EXPECT_EQ(result->shards[0].bytes, absorbed + *tail);
  const core::expr_ptr rf = query::compile_default(w.q);
  const std::string absorbed_stream =
      w.stream + w.stream.substr(0, static_cast<std::size_t>(*tail));
  EXPECT_EQ(result->decisions,
            core::make_filter_engine(core::engine_kind::chunked, rf)
                ->filter_stream(absorbed_stream));
}

TEST(ApiPipelineStreaming, TryOfferMatchesOfferDecisions) {
  // try_offer + pump(shard) and blocking offer() absorb the same streams
  // into byte-identical decisions, across queries x datasets x workers.
  for (const workload& w : workloads()) {
    const auto shards = data::shard_records(w.stream, 3);
    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
      auto make = [&] {
        auto builder = pipeline::make();
        builder.from_query(w.q)
            .shards(shards.size())
            .worker_threads(workers)
            .lane_fifo_bytes(512);
        return builder.build();
      };
      auto blocking = make();
      auto nonblocking = make();
      ASSERT_TRUE(blocking.has_value()) << blocking.error().message;
      ASSERT_TRUE(nonblocking.has_value()) << nonblocking.error().message;

      for (std::size_t s = 0; s < shards.size(); ++s) {
        ASSERT_TRUE(blocking->offer(s, shards[s]).has_value());
        std::string_view rest = shards[s];
        while (!rest.empty()) {
          auto taken = nonblocking->try_offer(s, rest);
          ASSERT_TRUE(taken.has_value()) << taken.error().message;
          if (*taken == 0) {
            ASSERT_TRUE(nonblocking->pump(s).has_value());
            continue;
          }
          rest.remove_prefix(*taken);
        }
      }
      auto blocking_result = blocking->finish();
      auto nonblocking_result = nonblocking->finish();
      ASSERT_TRUE(blocking_result.has_value());
      ASSERT_TRUE(nonblocking_result.has_value());
      for (std::size_t s = 0; s < shards.size(); ++s)
        EXPECT_EQ(nonblocking_result->shard_decisions[s],
                  blocking_result->shard_decisions[s])
            << w.name << " workers=" << workers << " shard=" << s;
    }
  }
}

TEST(ApiPipelineStreaming, ReentrantSinkDoesNotDeadlock) {
  // Regression: deliver() used to invoke the sink holding the facade
  // mutex, so a sink calling back into offer()/pump() self-deadlocked on
  // the non-recursive lock. Decisions are now handed over outside every
  // internal lock - this test re-enters both calls from inside the sink.
  const workload& w = workloads().front();
  const auto batch = facade_decisions(w);

  pipeline* self = nullptr;
  const std::string extra = "{\"e\":[]}\n";
  std::vector<bool> sunk;
  bool reentered = false;
  auto built = pipeline::make()
                   .from_query(w.q)
                   .on_decision([&](std::size_t, std::uint64_t index,
                                    bool accepted) {
                     EXPECT_EQ(index, sunk.size());  // order survives
                     sunk.push_back(accepted);
                     if (!reentered) {
                       reentered = true;
                       // Both re-entrant calls must return, not deadlock.
                       ASSERT_TRUE(self->pump().has_value());
                       ASSERT_TRUE(self->offer(extra).has_value());
                     }
                   })
                   .build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  self = &*built;

  ASSERT_TRUE(built->offer(w.stream).has_value());
  auto result = built->finish();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  ASSERT_TRUE(reentered);

  // The re-entrant offer() injected one extra record after the first
  // complete record's decision; every verdict still arrived exactly once,
  // in record order.
  const core::expr_ptr rf = query::compile_default(w.q);
  const auto reference =
      core::make_filter_engine(core::engine_kind::chunked, rf)
          ->filter_stream(w.stream + extra);
  EXPECT_EQ(result->decisions.size(), batch.size() + 1);
  EXPECT_EQ(sunk.size(), result->decisions.size());
  EXPECT_EQ(sunk, result->decisions);
  // Same multiset of verdicts as the reference over stream+extra (the
  // extra record lands mid-stream in arrival order, at the tail in the
  // reference, so compare counts).
  const auto count = [](const std::vector<bool>& v) {
    std::size_t accepted = 0;
    for (const bool d : v) accepted += d ? 1 : 0;
    return accepted;
  };
  EXPECT_EQ(count(sunk), count(reference));
}

TEST(ApiPipelineStreaming, ConvenienceOfferRoundRobinsAcrossShards) {
  // Regression: offer(bytes) used to hard-pin every byte to shard 0,
  // silently serializing a multi-shard pipeline. It now deals complete
  // records round-robin - byte-identical to data::shard_records - even
  // when the chunking is ragged (boundaries mid-record).
  for (const workload& w : workloads()) {
    const auto shards = data::shard_records(w.stream, 3);
    std::vector<std::vector<bool>> sunk(shards.size());
    auto built = pipeline::make()
                     .from_query(w.q)
                     .shards(shards.size())
                     .on_decision([&](std::size_t shard, std::uint64_t index,
                                      bool accepted) {
                       ASSERT_LT(shard, sunk.size());
                       EXPECT_EQ(index, sunk[shard].size());
                       sunk[shard].push_back(accepted);
                     })
                     .build();
    ASSERT_TRUE(built.has_value()) << built.error().message;

    std::string_view rest = w.stream;
    while (!rest.empty()) {
      const std::size_t step = std::min<std::size_t>(61, rest.size());
      ASSERT_TRUE(built->offer(rest.substr(0, step)).has_value());
      rest.remove_prefix(step);
    }
    auto result = built->finish();
    ASSERT_TRUE(result.has_value()) << result.error().message;

    const core::expr_ptr rf = query::compile_default(w.q);
    const std::vector<std::string_view> views{shards.begin(), shards.end()};
    system::sharded_filter_system reference({rf}, views.size());
    reference.run(views);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      EXPECT_EQ(result->shard_decisions[s], reference.decisions(s))
          << w.name << " shard=" << s;
      EXPECT_EQ(sunk[s], result->shard_decisions[s]) << w.name;
      EXPECT_FALSE(result->shard_decisions[s].empty())
          << w.name << ": shard " << s << " never saw a record";
    }
  }
}

// ---------------------------------------------------------------------------
// Error paths: the boundary never throws, offsets survive.

namespace {

std::size_t reference_offset_filter_expression(std::string_view text) {
  try {
    (void)query::parse_filter_expression(text);
  } catch (const parse_error& e) {
    return e.offset();
  }
  ADD_FAILURE() << "reference parse unexpectedly succeeded";
  return static_cast<std::size_t>(-1);
}

std::size_t reference_offset_jsonpath(std::string_view text) {
  try {
    (void)query::parse_jsonpath(text);
  } catch (const parse_error& e) {
    return e.offset();
  }
  ADD_FAILURE() << "reference parse unexpectedly succeeded";
  return static_cast<std::size_t>(-1);
}

}  // namespace

TEST(ApiPipelineErrors, MalformedFilterExpressionPreservesOffset) {
  const std::string_view bad[] = {
      "",                                     // empty query text
      "(0.7 <= \"temperature\" <= )",         // missing bound
      "(0.7 <= \"temperature\" <= 35.1) AND", // dangling conjunction
      "(0.7 <= temperature <= 35.1)",         // unquoted attribute
  };
  for (const std::string_view text : bad) {
    auto built = pipeline::make().filter_expression(text).build();
    ASSERT_FALSE(built.has_value()) << "accepted: " << text;
    ASSERT_TRUE(built.error().offset.has_value()) << text;
    EXPECT_EQ(*built.error().offset, reference_offset_filter_expression(text))
        << text;
    EXPECT_FALSE(built.error().message.empty());
  }
}

TEST(ApiPipelineErrors, MalformedJsonPathPreservesOffset) {
  const std::string_view bad[] = {
      "",
      "$.e[?(@.n==\"temperature\"",          // unterminated filter
      "e[?(@.n==\"t\" & @.v >= 1)]",         // missing $.
  };
  for (const std::string_view text : bad) {
    auto built = pipeline::make().jsonpath(text).build();
    ASSERT_FALSE(built.has_value()) << "accepted: " << text;
    ASSERT_TRUE(built.error().offset.has_value()) << text;
    EXPECT_EQ(*built.error().offset, reference_offset_jsonpath(text)) << text;
  }
}

TEST(ApiPipelineErrors, ConfigurationValidation) {
  const query::query q = query::riotbench::q0();

  // No query source at all.
  auto none = pipeline::make().input("{}\n").build();
  ASSERT_FALSE(none.has_value());
  EXPECT_FALSE(none.error().offset.has_value());

  // Two query sources.
  auto twice = pipeline::make()
                   .from_query(q)
                   .jsonpath("$.e[?(@.n==\"t\" & @.v >= 1)]")
                   .build();
  ASSERT_FALSE(twice.has_value());

  // Zero-byte lane FIFO.
  auto zero_fifo = pipeline::make()
                       .from_query(q)
                       .lane_fifo_bytes(0)
                       .build();
  ASSERT_FALSE(zero_fifo.has_value());

  // Zero shards without bound inputs.
  auto zero_shards = pipeline::make()
                         .from_query(q)
                         .shards(0)
                         .build();
  ASSERT_FALSE(zero_shards.has_value());

  // Zero DMA burst.
  auto zero_burst =
      pipeline::make().from_query(q).dma_burst_bytes(0).build();
  ASSERT_FALSE(zero_burst.has_value());
}

TEST(ApiPipelineErrors, SurfaceMisuseIsDiagnosed) {
  const query::query q = query::riotbench::q0();
  const std::string stream = "{\"e\":[{\"n\":\"t\",\"v\":\"1\"}]}\n";

  // run() without inputs.
  auto empty = pipeline::make().from_query(q).build();
  ASSERT_TRUE(empty.has_value());
  ASSERT_FALSE(empty->run().has_value());

  // offer() on a batch pipeline / run() after streaming started.
  auto batch = pipeline::make().from_query(q).input(stream).build();
  ASSERT_TRUE(batch.has_value());
  ASSERT_FALSE(batch->offer(stream).has_value());
  ASSERT_TRUE(batch->run().has_value());
  ASSERT_FALSE(batch->run().has_value());  // second run

  auto streaming = pipeline::make().from_query(q).build();
  ASSERT_TRUE(streaming.has_value());
  ASSERT_TRUE(streaming->offer(stream).has_value());
  ASSERT_FALSE(streaming->run().has_value());
  ASSERT_TRUE(streaming->finish().has_value());
  ASSERT_FALSE(streaming->offer(stream).has_value());  // after finish
  ASSERT_FALSE(streaming->finish().has_value());       // double finish

  // Out-of-range shard on a single-shard pipeline.
  auto single = pipeline::make().from_query(q).build();
  ASSERT_TRUE(single.has_value());
  ASSERT_FALSE(single->offer(3, stream).has_value());

  // Missing input file surfaces from run(), with the path in the message.
  auto missing = pipeline::make()
                     .from_query(q)
                     .input_file("/nonexistent/jrf-no-such-file.ndjson")
                     .build();
  ASSERT_TRUE(missing.has_value());
  auto result = missing->run();
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("jrf-no-such-file"),
            std::string::npos);
}

TEST(ApiPipelineEquivalence, CustomSeparatorConsistentAcrossBackends) {
  // ';'-separated records: one shard, records routed across three shards
  // and the raw_filter reference all frame on the configured separator
  // byte - and never on one inside a JSON string literal, which would
  // split a true match into pieces that no longer match.
  struct separator_case {
    std::string stream;
    const char* expr;
    std::vector<bool> expected;
  };
  const std::vector<separator_case> cases{
      {"{\"a\":\"1\"};{\"a\":\"7\"};{\"a\":\"3\"};", "(0 <= \"a\" <= 5)",
       {true, false, true}},
      {"{\"a\":\"x;y\",\"b\":3};{\"b\":9};", "(0 <= \"b\" <= 5)",
       {true, false}},
  };
  for (const separator_case& c : cases) {
    auto make = [&](std::size_t shards) {
      return pipeline::make()
          .filter_expression(c.expr)
          .separator(';')
          .shards(shards)
          .build();
    };
    auto one = make(1);
    ASSERT_TRUE(one.has_value()) << one.error().message;
    ASSERT_TRUE(one->offer(0, c.stream).has_value());
    auto one_result = one->finish();
    ASSERT_TRUE(one_result.has_value()) << one_result.error().message;
    EXPECT_EQ(one_result->decisions, c.expected) << c.stream;

    auto routed = make(3);
    ASSERT_TRUE(routed.has_value()) << routed.error().message;
    ASSERT_TRUE(routed->offer(c.stream).has_value());
    auto routed_result = routed->finish();
    ASSERT_TRUE(routed_result.has_value()) << routed_result.error().message;
    EXPECT_EQ(interleave(routed_result->shard_decisions), c.expected)
        << c.stream;

    core::filter_options options;
    options.separator = ';';
    const core::expr_ptr rf = query::compile_default(
        query::parse_filter_expression(c.expr));
    EXPECT_EQ(core::raw_filter(rf, options).filter_stream(c.stream),
              c.expected)
        << c.stream;
  }
}

TEST(ApiPipelineErrors, NullSourceIsDiagnosed) {
  const query::query q = query::riotbench::q0();
  auto built = pipeline::make().from_query(q).source(nullptr).build();
  EXPECT_FALSE(built.has_value());
}

TEST(ApiPipelineErrors, ShardCountConflictingWithInputsIsDiagnosed) {
  const query::query q = query::riotbench::q0();
  const std::string stream = "{\"e\":[{\"n\":\"t\",\"v\":\"1\"}]}\n";
  auto conflicting = pipeline::make()
                         .from_query(q)
                         .shards(5)
                         .input(stream)
                         .input(stream)
                         .build();
  ASSERT_FALSE(conflicting.has_value());
  EXPECT_NE(conflicting.error().message.find("conflicts"), std::string::npos);

  // A matching explicit count is fine.
  auto matching = pipeline::make()
                      .from_query(q)
                      .shards(2)
                      .input(stream)
                      .input(stream)
                      .build();
  EXPECT_TRUE(matching.has_value());
}

TEST(ApiPipelineErrors, FailedBuildLeavesBuilderRetryable) {
  const std::string stream = "{\"e\":[{\"n\":\"t\",\"v\":\"1\"}]}\n";
  std::size_t sunk = 0;
  auto builder = pipeline::make();
  builder.jsonpath("$.e[?(@.n==\"t\"")  // malformed: unterminated filter
      .on_decision(
          [&](std::size_t, std::uint64_t, bool) { ++sunk; })
      .input(stream);
  ASSERT_FALSE(builder.build().has_value());

  // Correct the query text (same source kind = replacement, not a
  // duplicate) and retry: the bound input and sink must have survived.
  builder.jsonpath("$.e[?(@.n==\"t\" & @.v >= 1)]");
  auto built = builder.build();
  ASSERT_TRUE(built.has_value()) << built.error().message;
  auto result = built->run();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->records(), 1u);
  EXPECT_EQ(sunk, 1u);
}

TEST(ApiPipelineErrors, BuilderReuseIsDiagnosedNotUndefined) {
  const query::query q = query::riotbench::q0();
  auto builder = pipeline::make();
  builder.from_query(q).input("{}\n");
  ASSERT_TRUE(builder.build().has_value());
  // Setters on a spent builder must stay memory-safe, and a second build()
  // must come back as a diagnosed error, not a crash.
  builder.shards(2).backend(backend_kind::sharded);
  auto again = builder.build();
  ASSERT_FALSE(again.has_value());
  EXPECT_NE(again.error().message.find("already consumed"),
            std::string::npos);
}

TEST(ApiPipelineErrors, ExpectedValueRethrowsAsJrfError) {
  auto built = pipeline::make().filter_expression("(bogus").build();
  ASSERT_FALSE(built.has_value());
  EXPECT_THROW((void)built.value(), jrf::error);
}

// ---------------------------------------------------------------------------
// verify_no_false_negatives helper contract.

TEST(VerifyNoFalseNegatives, CountsMissedTrueMatches) {
  const workload& w = workloads().front();
  const auto labels = query::label_stream(w.q, w.stream);

  // A perfect oracle has zero false negatives.
  const auto perfect = query::verify_no_false_negatives(w.q, w.stream, labels);
  EXPECT_TRUE(perfect.ok());
  EXPECT_EQ(perfect.records, labels.size());
  EXPECT_GT(perfect.true_matches, 0u);

  // Dropping everything misses every true match, with indices reported.
  const std::vector<bool> drop_all(labels.size(), false);
  const auto missed = query::verify_no_false_negatives(w.q, w.stream, drop_all);
  EXPECT_FALSE(missed.ok());
  EXPECT_EQ(missed.false_negatives, missed.true_matches);
  EXPECT_EQ(missed.missed.size(), missed.false_negatives);

  // A decision-count mismatch is a harness bug and throws.
  EXPECT_THROW((void)query::verify_no_false_negatives(
                   w.q, w.stream, std::vector<bool>(labels.size() + 1, true)),
               jrf::error);
}
