// Core replay of a traced run: the layers under the facade, timed by
// calling their public functions directly on the workload's own bytes.
#include <algorithm>
#include <stdexcept>

#include "core/bitmaps.hpp"
#include "core/filter_engine.hpp"
#include "perfbench.hpp"
#include "project/tape.hpp"
#include "query/compile.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBuffer = 64 * 1024;
constexpr int kPasses = 2;

double ns_of(const std::map<std::string, tracer::layer_time>& after,
             const std::map<std::string, tracer::layer_time>& before,
             const char* name, bool self = false) {
  auto get = [&](const auto& m) {
    const auto it = m.find(name);
    if (it == m.end()) return 0.0;
    return self ? it->second.self_ns : it->second.total_ns;
  };
  return get(after) - get(before);
}

// Per record in corpus order, whether the resident set truly matches it:
// the single query's label, or for the fleet the any-match of the
// resident members' pool-predicate masks (the verdict fpr scores).
std::vector<std::uint8_t> resident_truth(const context& ctx) {
  if (!ctx.w.fleet) return ctx.labels[0];
  std::vector<std::uint32_t> masks = ctx.w.masks;
  std::sort(masks.begin(), masks.end());
  masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
  std::vector<std::uint8_t> truth(ctx.pool_truth.size(), 0);
  for (std::size_t k = 0; k < truth.size(); ++k)
    for (const std::uint32_t m : masks)
      if ((ctx.pool_truth[k] & m) == m) {
        truth[k] = 1;
        break;
      }
  return truth;
}

// The aggregate rate behind system.scaling: run() over every stream on
// the workload's worker pool (each pass checked against the reference
// verdicts), or without a pool replay the timed passes' own rate.
double pool_mbps(context& ctx, const std::vector<std::string>& streams,
                 const batch_stats& batch) {
  const workload& w = ctx.w;
  if (w.pool_workers < 2) return median(batch.mbps);
  constexpr int kPoolPasses = 5;
  std::vector<double> rates;
  for (int pass = 0; pass < kPoolPasses; ++pass) {
    auto builder = make_builder(w, w.pool_workers);
    for (const std::string& s : streams) builder.input(s);
    auto built = builder.build();
    if (!built) throw std::runtime_error("pool build: " + built.error().message);
    const auto t0 = clock_type::now();
    jrf::expected<jrf::run_result> result = [&] {
      tracer::scope span(ctx.trace, "api.run");
      return built->run();
    }();
    if (!result) throw std::runtime_error("pool run: " + result.error().message);
    rates.push_back(static_cast<double>(ctx.data.bytes.size()) /
                    seconds_since(t0) / 1e6);
    const std::size_t shards = result->shard_decisions.size();
    std::uint64_t differ = result->records() == ctx.data.size() ? 0 : 1;
    for (std::size_t s = 0; s < shards; ++s)
      for (std::size_t j = 0; j < result->shard_decisions[s].size(); ++j) {
        const std::size_t k = j * shards + s;
        bool got = result->shard_decisions[s][j];
        if (ctx.flip == flip_target::pool_run && pass == 0 && k == 0) got = !got;
        differ += k < ctx.reference.size() && got != (ctx.reference[k] != 0);
      }
    ctx.out.attempted(ctx.data.size());
    ctx.out.failed("pool_run", differ);
  }
  return median(rates);
}

}  // namespace

void probe_phase(context& ctx, const batch_stats& batch) {
  const workload& w = ctx.w;
  tracer& tr = ctx.trace;
  report& out = ctx.out;
  const auto level = jrf::core::simd::active_level();
  const std::vector<std::string> streams = shard_streams(ctx);
  const std::size_t shards = streams.size();
  const std::vector<std::uint8_t> truth = resident_truth(ctx);
  const auto before = tr.layers();

  double compile_ms = 0.0, plan_ms = 0.0;
  std::uint64_t fallback_words = 0, rows = 0, rows_true = 0, bytes = 0;
  std::uint64_t records = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    // query -> raw-filter expressions, then the shared plan.
    std::vector<jrf::core::expr_ptr> exprs;
    auto t0 = clock_type::now();
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      tracer::scope s(tr, "query.compile");
      exprs.push_back(deploy(w.queries[i], w.designs[i]));
    }
    compile_ms += seconds_since(t0) * 1e3;

    jrf::project::extractor extractor(jrf::project::derive_paths(w.queries));
    std::vector<jrf::project::field_ref> fields(extractor.paths().size());
    for (std::size_t s = 0; s < shards; ++s) {
      const std::string_view stream = streams[s];
      t0 = clock_type::now();
      std::unique_ptr<jrf::core::filter_engine> engine;
      {
        tracer::scope span(tr, "core.plan_build");
        engine = jrf::core::make_filter_engine(jrf::core::engine_kind::chunked,
                                               exprs);
      }
      plan_ms += seconds_since(t0) * 1e3;
      for (std::size_t off = 0; off < stream.size(); off += kBuffer) {
        tracer::scope span(tr, "core.scan_chunk");
        engine->scan_chunk(stream.substr(off, kBuffer));
      }
      {
        tracer::scope span(tr, "core.scan_chunk");
        engine->finish();
      }
      records += engine->decisions().size();

      jrf::core::bitmap_pass bp;
      jrf::core::framing_state state{};
      for (std::size_t off = 0; off < stream.size(); off += kBuffer) {
        const std::string_view chunk = stream.substr(off, kBuffer);
        tracer::scope span(tr, "core.bitmap_pass");
        bp.compute(reinterpret_cast<const unsigned char*>(chunk.data()),
                   chunk.size(), '\n', state, level);
        state = bp.end_state();
        fallback_words += bp.scalar_fallback_words();
      }
      bytes += stream.size();

      // Extractor replay, on every workload: a second scan with the
      // accepted hook installed runs the extractor on every accepted
      // record, as a projecting pipeline would. Only the extract() call is
      // inside the project.extract span.
      auto hooked = jrf::core::make_filter_engine(
          jrf::core::engine_kind::chunked, exprs);
      std::vector<std::uint64_t> ordinals;
      hooked->set_accepted_hook(
          [&](std::uint64_t ordinal, std::span<const unsigned char> record,
              const jrf::core::bitmap_pass& hook_bp, std::size_t offset) {
            {
              tracer::scope span(tr, "project.extract");
              extractor.extract(record, hook_bp, offset, fields.data());
            }
            ordinals.push_back(ordinal);
          });
      {
        tracer::scope span(tr, "probe.extract_replay");
        for (std::size_t off = 0; off < stream.size(); off += kBuffer)
          hooked->scan_chunk(stream.substr(off, kBuffer));
        hooked->finish();
      }
      rows += ordinals.size();
      for (const std::uint64_t ordinal : ordinals) {
        const std::size_t k = ordinal * shards + s;
        rows_true += k < truth.size() && truth[k] != 0;
      }
    }
  }

  const auto after = tr.layers();
  const double scan_ns = ns_of(after, before, "core.scan_chunk");
  const double scan_self_ns = ns_of(after, before, "core.scan_chunk", true);
  const double extract_ns = ns_of(after, before, "project.extract");
  const double bitmap_ns = ns_of(after, before, "core.bitmap_pass");
  const double eval_ns = scan_self_ns - bitmap_ns;
  const auto b = static_cast<double>(bytes);
  const auto passes = static_cast<double>(kPasses);

  out.set("core.bitmap_pass.ns_per_byte", bitmap_ns / b, "ns/B");
  out.set("core.bitmap_pass.fallback_words",
          static_cast<double>(fallback_words) / passes, "count");
  out.set("core.eval.ns_per_byte", eval_ns / b, "ns/B");
  out.set("core.eval.ns_per_record_fleet",
          eval_ns / static_cast<double>(records), "ns");
  out.set("core.verdict_bits_per_record", batch.verdict_bits, "bits");
  out.set("core.precision", batch.precision, "ratio");
  out.set("query.compile_ms", compile_ms / passes, "ms");
  out.set("core.plan_build_ms", plan_ms / passes, "ms");

  // The facade's replayed core work: the scan, plus the extraction when
  // the pipeline itself projects.
  const double core_ns = scan_ns + (w.project ? extract_ns : 0.0);
  const double per_pass_bytes = b / passes;
  if (!batch.facade_s.empty())
    out.set("api.overhead.ns_per_byte",
            (median(batch.facade_s) * 1e9 - core_ns / passes) / per_pass_bytes,
            "ns/B");
  const double core_mbps = b / core_ns * 1e3;
  out.set("system.scaling", pool_mbps(ctx, streams, batch) / core_mbps, "x");
  out.set("project.extract.ns_per_record",
          rows ? extract_ns / static_cast<double>(rows) : 0.0, "ns");
  out.set("project.rows", static_cast<double>(rows) / passes, "count");
  out.set("project.useful_ratio",
          rows ? static_cast<double>(rows_true) / static_cast<double>(rows) : 0.0,
          "ratio");
}

}  // namespace perfbench
