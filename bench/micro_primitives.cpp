// Microbenchmarks (google-benchmark): byte throughput of the behavioural
// engines and the cycle-accurate RTL simulation. These quantify the
// software-model substitution: the behavioural path is what the DSE and
// FPR evaluations run on; the RTL path is the cycle-accurate twin used for
// equivalence checking (and is orders of magnitude slower, which is why
// the signal-table memoization exists).
#include <benchmark/benchmark.h>

#include "core/elaborate.hpp"
#include "core/expr.hpp"
#include "core/filter_engine.hpp"
#include "core/raw_filter.hpp"
#include "core/simd.hpp"
#include "data/smartcity.hpp"
#include "data/taxi.hpp"
#include "query/compile.hpp"
#include "query/riotbench.hpp"
#include "rtl/simulator.hpp"

namespace {

using namespace jrf;

const std::string& stream() {
  static const std::string s = data::smartcity_generator().stream(2000);
  return s;
}

void run_filter(benchmark::State& state, core::expr_ptr expr) {
  core::raw_filter rf(std::move(expr));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf.filter_stream(stream()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream().size()));
}

void run_chunked(benchmark::State& state, core::expr_ptr expr) {
  auto engine =
      core::make_filter_engine(core::engine_kind::chunked, std::move(expr));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->filter_stream(stream()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream().size()));
}

void BM_SubstringB1(benchmark::State& state) {
  run_filter(state, core::string_leaf("temperature", 1));
}
BENCHMARK(BM_SubstringB1);

void BM_SubstringB2(benchmark::State& state) {
  run_filter(state, core::string_leaf("temperature", 2));
}
BENCHMARK(BM_SubstringB2);

void BM_FullCompare(benchmark::State& state) {
  run_filter(state, core::string_leaf("temperature", 11));
}
BENCHMARK(BM_FullCompare);

void BM_DfaString(benchmark::State& state) {
  run_filter(state, core::dfa_string_leaf("temperature"));
}
BENCHMARK(BM_DfaString);

void BM_ValueRange(benchmark::State& state) {
  run_filter(state,
             core::value_leaf(numrange::range_spec::real_range("0.7", "35.1")));
}
BENCHMARK(BM_ValueRange);

void BM_ComposedQs0(benchmark::State& state) {
  run_filter(state, query::compile_default(query::riotbench::qs0()));
}
BENCHMARK(BM_ComposedQs0);

// Chunked filter-engine counterparts: same decisions, batched hot path.
void BM_ChunkedSubstringB1(benchmark::State& state) {
  run_chunked(state, core::string_leaf("temperature", 1));
}
BENCHMARK(BM_ChunkedSubstringB1);

void BM_ChunkedDfaString(benchmark::State& state) {
  run_chunked(state, core::dfa_string_leaf("temperature"));
}
BENCHMARK(BM_ChunkedDfaString);

void BM_ChunkedValueRange(benchmark::State& state) {
  run_chunked(state,
              core::value_leaf(numrange::range_spec::real_range("0.7", "35.1")));
}
BENCHMARK(BM_ChunkedValueRange);

void BM_ChunkedComposedQs0(benchmark::State& state) {
  run_chunked(state, query::compile_default(query::riotbench::qs0()));
}
BENCHMARK(BM_ChunkedComposedQs0);

// Token-run verdicts of the chunked engine: one walk of QT's fused token
// automaton per maximal numeric-token run of a taxi buffer, yielding every
// value engine's pulse at once.
void BM_TokenRunMasks(benchmark::State& state) {
  static const std::string taxi = data::taxi_generator().stream(2000);
  const auto* bytes = reinterpret_cast<const unsigned char*>(taxi.data());
  std::vector<core::simd::token_run> runs;
  core::simd::token_runs(bytes, taxi.size(), core::simd::active_level(), runs);
  const core::compiled_layout layout = core::compiled_layout::compile(
      *query::compile_default(query::riotbench::qt()));
  const core::token_automata& automata = *layout.automata;
  for (auto _ : state) {
    std::uint64_t any = 0;
    for (const core::simd::token_run& run : runs)
      any |= automata.run_mask(bytes + run.begin, run.end - run.begin);
    benchmark::DoNotOptimize(any);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(runs.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(taxi.size()));
}
BENCHMARK(BM_TokenRunMasks);

void BM_RtlCycleAccurate(benchmark::State& state) {
  // One full composed filter, executed gate by gate per byte.
  netlist::network net;
  const auto circuit = core::elaborate_filter(
      net, query::compile_default(query::riotbench::qs0()));
  rtl::simulator sim(net);
  const std::string_view bytes{stream().data(), 4096};
  for (auto _ : state) {
    for (const char c : bytes) {
      sim.set_bus(circuit.byte, static_cast<unsigned char>(c));
      sim.step();
    }
    benchmark::DoNotOptimize(sim.cycle());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_RtlCycleAccurate);

}  // namespace

BENCHMARK_MAIN();
