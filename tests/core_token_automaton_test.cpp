// Token-run evaluation of the chunked engine. Every run-capable value
// engine of a layout is fused into product DFAs over the numeric-token
// bytes (core/token_automaton.hpp); one walk per token run yields every
// engine's pulse at the run's end. These tests hold that walk to the
// byte-serial value DFAs of raw_filter on the numeral shapes that stress
// it - long numerals, signs, exponents, dot-leading tokens, repeats, and
// runs that end the stream - for one query and for a fleet, at every SIMD
// tier, and cover both fallbacks: engines past the 64 run slots and
// automata split by the state bound.
#include "core/token_automaton.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <string_view>
#include <vector>

#include "core/expr.hpp"
#include "core/filter_engine.hpp"
#include "core/raw_filter.hpp"
#include "core/simd.hpp"
#include "numrange/range_spec.hpp"

namespace jrf::core {
namespace {

using numrange::numeric_kind;
using numrange::range_spec;

const std::vector<std::string>& edge_numerals() {
  static const std::vector<std::string> numerals{
      "123456789012345",                           // 15 bytes
      "1234567890123456",                          // 16 bytes
      "12345678901234567",                         // 17 bytes
      "1234567890123456789012345678901234567890",  // 40 bytes
      "12345.6789012345", "-1234.56789012345", "0.000000000000001",
      "+12", "-12", "-0.5", "+35.1", "-35.1", "+-1", "1-2", "--",
      "1e5", "2.5E-3", "-7e+2", "1e", "e5", "E", "1.5e300",
      ".5", "-.25", ".", "..", "1.2.3", "35.", "0.7",
      "007", "0", "00.50", "12", "49", "50", "11",
  };
  return numerals;
}

value_spec value(range_spec range, bool exponent_escape = true,
                 bool leading_zeros = true) {
  value_spec spec{std::move(range), {}};
  spec.options.exponent_escape = exponent_escape;
  spec.options.allow_leading_zeros = leading_zeros;
  return spec;
}

std::vector<value_spec> value_specs() {
  return {
      value(range_spec::integer_range("12", "49")),
      value(range_spec::real_range("0.7", "35.1")),
      value(range_spec::at_least("100000000000000", numeric_kind::integer)),
      value(range_spec::at_most("1234567890123456", numeric_kind::real)),
      value(range_spec::real_range("-5", "5"), false),
      value(range_spec::integer_range("-1000", "-10"), true, false),
      value(range_spec::real_range("12345", "12346"), false, false),
  };
}

std::vector<expr_ptr> edge_queries() {
  std::vector<expr_ptr> queries;
  for (const value_spec& v : value_specs()) queries.push_back(leaf(v));
  const std::vector<value_spec> specs = value_specs();
  const string_spec key{string_technique::substring, 1, "v"};
  queries.push_back(conj({string_leaf("w", 1), leaf(specs[1])}));
  queries.push_back(make_group(group_kind::scope, {key, specs[0]}));
  queries.push_back(make_group(group_kind::pair, {key, specs[3]}));
  queries.push_back(make_group(group_kind::pair, {specs[0], specs[2]}));
  queries.push_back(disj({leaf(specs[4]), leaf(specs[5])}));
  return queries;
}

/// Records placing every edge numeral as a value, inside arrays, inside a
/// string literal, alone (the run touches both record ends), and repeated
/// within one record.
std::string edge_stream() {
  std::string out;
  for (const std::string& n : edge_numerals()) {
    out += "{\"v\":" + n + ",\"w\":[" + n + "," + n + "]}\n";
    out += "{\"w\":\"" + n + "\",\"v\":{\"x\":" + n + "}}\n";
    out += n + "\n";
    out += "[" + n + " " + n + "," + n + "]\n";
  }
  out += "{\"v\":12,\"v\":12,\"v\":12,\"w\":35.1,\"w\":35.1}\n";
  out += "{\"v\":" + edge_numerals().front();  // unterminated trailing run
  return out;
}

/// Chunked decisions over `stream`, fed whole and in 5-byte chunks (which
/// split numerals across chunk boundaries into carried records).
void expect_matches_raw_filter(const expr_ptr& query, std::string_view stream,
                               filter_options options,
                               const std::string& label) {
  raw_filter reference(query, options);
  const std::vector<bool> expected = reference.filter_stream(stream);
  for (const simd::simd_level level : simd::available_levels()) {
    options.simd = level;
    const std::string where = label + " simd=" + simd::to_string(level);
    auto whole = make_filter_engine(engine_kind::chunked, query, options);
    EXPECT_EQ(whole->filter_stream(stream), expected) << where;
    auto split = make_filter_engine(engine_kind::chunked, query, options);
    for (std::size_t off = 0; off < stream.size(); off += 5)
      split->scan_chunk(stream.substr(off, 5));
    split->finish();
    EXPECT_EQ(split->take_decisions(), expected) << where << " chunks=5";
  }
}

/// Every member column of a multi-query engine, and the any-match
/// `decisions` its filter_stream returned, against the members' standalone
/// raw_filter runs.
void expect_columns_match(const filter_engine& engine,
                          const std::vector<bool>& decisions,
                          const std::vector<expr_ptr>& queries,
                          std::string_view stream, filter_options options,
                          const std::string& label) {
  std::vector<bool> any;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    raw_filter reference(queries[q], options);
    const std::vector<bool> expected = reference.filter_stream(stream);
    EXPECT_EQ(engine.decision_column(q), expected) << label << " query " << q;
    any.resize(expected.size(), false);
    for (std::size_t r = 0; r < expected.size(); ++r)
      if (expected[r]) any[r] = true;
  }
  EXPECT_EQ(decisions, any) << label << " any-match";
}

TEST(TokenAutomaton, ProductWalkMatchesEveryEngineDfa) {
  std::vector<std::unique_ptr<primitive_engine>> engines;
  engines.push_back(
      make_engine(string_spec{string_technique::substring, 1, "v"}));
  for (const value_spec& v : value_specs()) engines.push_back(make_engine(v));
  EXPECT_EQ(engines[0]->token_dfa(), nullptr);  // string engines: no runs

  for (const std::size_t bound : {token_automata::max_states, std::size_t{2}}) {
    const auto automata = build_token_automata(engines, bound);
    ASSERT_EQ(automata->engine_bit.size(), engines.size());
    EXPECT_EQ(automata->engine_bit[0], 0u);
    for (const std::string& n : edge_numerals()) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(n.data());
      const std::uint64_t mask = automata->run_mask(bytes, n.size());
      for (std::size_t e = 1; e < engines.size(); ++e) {
        const regex::dfa* dfa = engines[e]->token_dfa();
        ASSERT_NE(dfa, nullptr);
        ASSERT_NE(automata->engine_bit[e], 0u);
        EXPECT_EQ((mask & automata->engine_bit[e]) != 0, dfa->run(n))
            << "numeral " << n << " engine " << e << " bound " << bound;
      }
    }
  }
}

TEST(TokenAutomaton, EdgeNumeralsSingleQuery) {
  const std::string stream = edge_stream();
  const std::vector<expr_ptr> queries = edge_queries();
  for (std::size_t q = 0; q < queries.size(); ++q)
    expect_matches_raw_filter(queries[q], stream, {},
                              "query " + std::to_string(q));
}

TEST(TokenAutomaton, RunEndingTheStreamUnderATokenSeparator) {
  // A token-class separator continues the token instead of sampling it:
  // the run before every boundary, and the trailing run that finish()
  // flushes, must never pulse.
  filter_options options;
  for (const unsigned char separator : {'5', '.', 'e'}) {
    options.separator = separator;
    const std::string sep(1, static_cast<char>(separator));
    const std::string stream =
        "12 13" + sep + "{\"v\":1234567890123456}" + sep + "0.7 35 12";
    for (const expr_ptr& query : edge_queries()) {
      expect_matches_raw_filter(query, stream, options, "separator " + sep);
      expect_matches_raw_filter(query, edge_stream(), options,
                                "edge stream, separator " + sep);
    }
  }
}

TEST(TokenAutomaton, EdgeNumeralsFleet) {
  const std::string stream = edge_stream();
  const std::vector<expr_ptr> queries = edge_queries();
  for (const simd::simd_level level : simd::available_levels()) {
    filter_options options;
    options.simd = level;
    auto engine = make_filter_engine(engine_kind::chunked, queries, options);
    const std::vector<bool> decisions = engine->filter_stream(stream);
    expect_columns_match(*engine, decisions, queries, stream, options,
                         std::string("fleet simd=") + simd::to_string(level));
  }
}

TEST(TokenAutomaton, EnginesPastSixtyFourRunSlotsTakeThePerEnginePath) {
  // 70 distinct value primitives: the first 64 get run slots, the rest
  // fall back to the per-engine bulk scans - decisions must not care.
  std::vector<expr_ptr> queries;
  for (int i = 0; i < 70; ++i)
    queries.push_back(value_leaf(range_spec::integer_range(
        std::to_string(3 * i), std::to_string(3 * i + 4))));
  const compiled_layout layout = compiled_layout::compile_set(queries);
  ASSERT_EQ(layout.engines.size(), 70u);
  for (std::size_t e = 0; e < 70; ++e)
    EXPECT_EQ(layout.automata->engine_bit[e] != 0, e < 64) << "engine " << e;

  std::string stream;
  for (int v = -2; v < 220; ++v)
    stream += "{\"v\":" + std::to_string(v) + ",\"w\":" +
              std::to_string(215 - v) + "}\n";
  for (const simd::simd_level level : simd::available_levels()) {
    filter_options options;
    options.simd = level;
    auto engine = make_filter_engine(engine_kind::chunked, queries, options);
    const std::vector<bool> decisions = engine->filter_stream(stream);
    expect_columns_match(*engine, decisions, queries, stream, options,
                         std::string("70 values simd=") +
                             simd::to_string(level));
  }
}

TEST(TokenAutomaton, StateBoundSplitsAutomataWithoutChangingDecisions) {
  const std::string stream = edge_stream();
  const std::vector<expr_ptr> queries = edge_queries();
  for (const std::size_t bound : {std::size_t{2}, std::size_t{40}}) {
    compiled_layout layout = compiled_layout::compile_set(queries);
    layout.automata = build_token_automata(layout.engines, bound);
    const auto& automata = layout.automata->automata;
    EXPECT_GT(automata.size(), 1u) << "bound " << bound;
    for (const token_automaton& a : automata) {
      // Only an automaton of one engine may exceed the bound.
      EXPECT_TRUE(a.state_count() <= bound || std::popcount(a.slots) == 1)
          << "bound " << bound;
    }

    for (const simd::simd_level level : simd::available_levels()) {
      filter_options options;
      options.simd = level;
      auto engine = make_chunked_engine(queries, layout.clone(), options);
      const std::vector<bool> decisions = engine->filter_stream(stream);
      expect_columns_match(*engine, decisions, queries, stream, options,
                           "bound " + std::to_string(bound) + " simd=" +
                               simd::to_string(level));
    }
  }

  // One query: the split walk decides like raw_filter too.
  const expr_ptr query = conj(
      {leaf(value_specs()[0]), leaf(value_specs()[1]), leaf(value_specs()[3])});
  compiled_layout layout = compiled_layout::compile(*query);
  layout.automata = build_token_automata(layout.engines, 2);
  ASSERT_EQ(layout.automata->automata.size(), 3u);
  raw_filter reference(query);
  auto engine = make_chunked_engine({query}, std::move(layout));
  EXPECT_EQ(engine->filter_stream(stream), reference.filter_stream(stream));
}

}  // namespace
}  // namespace jrf::core
