// Batch phase (repeated passes of the workload's pipeline over its corpus)
// and the swap phase (runtime add/remove on a streaming pipeline).
#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "core/filter_engine.hpp"
#include "perfbench.hpp"
#include "query/compile.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBuffer = 64 * 1024;

template <typename T>
T must(jrf::expected<T> r, const char* what) {
  if (!r) throw std::runtime_error(std::string(what) + ": " + r.error().message);
  return std::move(*r);
}

// The fleet's per-query column checks. Every query ever resident must
// keep every ground-truth match over its residency epoch; on the first
// pass, each sampled query's column must also equal an independent
// single-query engine over the same records. Returns the tallies of all
// columns for fpr and precision.
struct column_tally {
  std::uint64_t fp = 0, negatives = 0, tp = 0, accepts = 0;
};

column_tally check_fleet_columns(context& ctx, const jrf::run_result& r,
                                 const std::vector<std::uint64_t>& added,
                                 bool against_engines) {
  column_tally t;
  if (r.shard_query_columns.empty()) {
    ctx.out.failed("fleet_columns_missing", 1);
    return t;
  }
  std::unordered_map<std::uint64_t, std::size_t> order_of;
  for (std::size_t i = 0; i < added.size(); ++i) order_of[added[i]] = i;
  std::unordered_map<std::size_t, const jrf::query_column*> by_order;
  bool flipped = false;
  for (const jrf::query_column& col : r.shard_query_columns[0]) {
    const auto it = order_of.find(col.id);
    if (it == order_of.end() ||
        col.first_record + col.decisions.size() > ctx.data.size()) {
      ctx.out.failed("fleet_column_unknown", 1);
      continue;
    }
    by_order[it->second] = &col;
    const std::uint32_t mask = fleet_mask(ctx.w, it->second);
    std::uint64_t missed = 0;
    for (std::size_t k = 0; k < col.decisions.size(); ++k) {
      const std::uint32_t holds = ctx.pool_truth[col.first_record + k];
      const bool truth = (holds & mask) == mask;
      bool got = col.decisions[k];
      if (ctx.flip == flip_target::ground_truth && against_engines &&
          !flipped && truth && got)
        got = false, flipped = true;
      missed += truth && !got;
      t.fp += got && !truth;
      t.negatives += !truth;
      t.tp += got && truth;
      t.accepts += got;
    }
    ctx.out.attempted(col.decisions.size());
    ctx.out.failed("ground_truth(fleet query " + std::to_string(col.id) + ")",
                   missed);
  }
  if (!against_engines) return t;
  for (std::size_t q = 0; q < ctx.checked_order.size(); ++q) {
    const auto it = by_order.find(ctx.checked_order[q]);
    if (it == by_order.end()) {
      ctx.out.failed("fleet_column_absent", 1);
      continue;
    }
    const jrf::query_column& col = *it->second;
    std::vector<bool> decisions = col.decisions;
    if (ctx.flip == flip_target::fleet_columns && q == 0 && !decisions.empty())
      decisions[0] = !decisions[0];
    const auto engine = jrf::core::make_filter_engine(
        jrf::core::engine_kind::chunked, ctx.checked_filters[q]);
    const std::vector<bool> solo = engine->filter_stream(
        ctx.data.slice(col.first_record, decisions.size()));
    std::uint64_t differ = solo.size() == decisions.size() ? 0 : 1;
    for (std::size_t k = 0; k < std::min(solo.size(), decisions.size()); ++k)
      differ += solo[k] != decisions[k];
    ctx.out.attempted(decisions.size());
    ctx.out.failed("fleet_columns(query " + std::to_string(col.id) + ")",
                   differ);
  }
  return t;
}

// One timed add+remove pair on a live pipeline; returns the added id.
std::uint64_t timed_swap(context& ctx, jrf::pipeline& p, const query::query& q,
                         const design& d, std::uint64_t pick,
                         bool remove_added, batch_stats& st) {
  const auto t0 = clock_type::now();
  std::uint64_t id = 0;
  {
    tracer::scope s(ctx.trace, "api.add_query");
    id = must(p.add_query(deploy(q, d)), "add_query");
  }
  const auto t1 = clock_type::now();
  std::uint64_t victim = id;
  if (!remove_added) {
    const auto ids = p.query_ids();
    victim = ids[pick % ids.size()];
  }
  {
    tracer::scope s(ctx.trace, "api.remove_query");
    must(p.remove_query(victim), "remove_query");
  }
  const auto t2 = clock_type::now();
  st.add_ms.push_back(micros(t0, t1) / 1e3);
  st.remove_ms.push_back(micros(t1, t2) / 1e3);
  st.swap_ms.push_back(micros(t0, t2) / 1e3);
  return id;
}

}  // namespace

batch_runner::batch_runner(context& ctx) : ctx_(ctx) {
  if (ctx.w.batch_feed == workload::feed::run) streams_ = shard_streams(ctx);
  verdict_.assign(ctx.data.size(), 0);
}

void batch_runner::socket_pass(batch_stats& st) {
  // The service workload's batch rate is its unpaced socket capacity.
  const serve_stats s = serve(ctx_, {{0.0, ctx_.data.size()}}, 0, true, false);
  st.mbps.push_back(static_cast<double>(s.bytes) / s.wall_s / 1e6);
  st.setup_s.push_back(s.open_s);
  st.mem_mb.push_back(s.mem_mb);
  // The service drives offer/pump/finish itself: its facade time is the
  // whole socket round trip.
  st.facade_s.push_back(s.wall_s);
  st.hard_backpressure += s.hard_backpressure;
  fp_ += s.false_positives, negatives_ += s.negatives;
  tp_ += s.true_accepts, accepts_ += s.accepts;
  rejected_bytes_ += s.rejected_bytes, total_bytes_ += s.bytes;
  records_ += s.sent, verdict_bits_ += s.accepts;
}

void batch_runner::pass(batch_stats& st) {
  context& ctx = ctx_;
  const workload& w = ctx.w;
  const corpus& c = ctx.data;
  const std::size_t n = c.size();
  const bool first_pass = passes_++ == 0;
  if (w.batch_feed == workload::feed::socket) return socket_pass(st);

  std::fill(verdict_.begin(), verdict_.end(), 0);
  std::uint64_t bits = 0, projected_rows = 0;
  trim_heap();
  const double base_mb = rss_mb();
  reset_peak_rss();
  tracer::scope pass_span(ctx.trace, "batch.pass");

  const auto t_build = clock_type::now();
  auto builder = make_builder(w);
  if (w.fleet) {
    builder.on_verdict([this, &bits](std::size_t, std::uint64_t index,
                                     std::span<const jrf::core::query_id>,
                                     std::span<const std::uint64_t> words) {
      std::uint64_t set = 0;
      for (const std::uint64_t word : words) set += std::popcount(word);
      bits += set;
      verdict_[index] = set != 0;
    });
  } else if (w.batch_feed == workload::feed::offer) {
    builder.on_decision([this](std::size_t, std::uint64_t index, bool accepted) {
      verdict_[index] = accepted;
    });
  }
  if (w.project)
    builder.on_projection(
        [&projected_rows](std::size_t, const jrf::project::column_batch& b) {
          projected_rows += b.rows();
        });
  for (const std::string& s : streams_) builder.input(s);

  std::optional<jrf::pipeline> built;
  {
    tracer::scope s(ctx.trace, "api.build");
    built.emplace(must(builder.build(), "build"));
  }
  jrf::pipeline& p = *built;
  const auto t0 = clock_type::now();
  st.setup_s.push_back(std::chrono::duration<double>(t0 - t_build).count());
  // Ids of the fleet in add order: the resident set, then each churn add.
  std::vector<std::uint64_t> added =
      w.fleet ? p.query_ids() : std::vector<std::uint64_t>{};

  jrf::run_result result;
  double facade_s = 0.0;
  if (w.batch_feed == workload::feed::run) {
    const auto f0 = clock_type::now();
    tracer::scope s(ctx.trace, "api.run");
    result = must(p.run(), "run");
    facade_s += seconds_since(f0);
  } else {
    std::size_t next_churn = 0;
    for (std::size_t off = 0; off < c.bytes.size(); off += kBuffer) {
      // One add/remove pair in the middle of every churn_every bytes.
      if (next_churn < w.churn.size() &&
          off >= next_churn * w.churn_every + w.churn_every / 2) {
        const auto& op = w.churn[next_churn++];
        added.push_back(timed_swap(ctx, p, op.add, op.d, op.pick, false, st));
      }
      const auto f0 = clock_type::now();
      tracer::scope s(ctx.trace, "api.offer");
      must(p.offer(0, std::string_view(c.bytes).substr(off, kBuffer)), "offer");
      facade_s += seconds_since(f0);
    }
    const auto f0 = clock_type::now();
    tracer::scope s(ctx.trace, "api.finish");
    result = must(p.finish(), "finish");
    facade_s += seconds_since(f0);
  }
  const double elapsed = seconds_since(t0);
  st.mem_mb.push_back(peak_rss_mb() - base_mb);
  st.mbps.push_back(static_cast<double>(c.bytes.size()) / elapsed / 1e6);
  st.facade_s.push_back(facade_s);
  for (const auto& s : result.shards)
    st.hard_backpressure += s.hard_backpressure_events;

  // Per-record any-match verdicts in corpus order.
  if (w.batch_feed == workload::feed::run) {
    const std::size_t shards = result.shard_decisions.size();
    for (std::size_t s = 0; s < shards; ++s)
      for (std::size_t j = 0; j < result.shard_decisions[s].size(); ++j)
        if (j * shards + s < n)
          verdict_[j * shards + s] = result.shard_decisions[s][j];
  }
  if (result.records() != n) ctx.out.failed("record_count", 1);

  if (w.fleet) {
    const column_tally t = check_fleet_columns(ctx, result, added, first_pass);
    fp_ += t.fp, negatives_ += t.negatives, tp_ += t.tp, accepts_ += t.accepts;
  } else {
    // Ground truth: the raw filter may pass extra records, never drop a
    // true match.
    if (ctx.flip == flip_target::ground_truth && first_pass)
      for (std::size_t k = 0; k < n; ++k)
        if (ctx.labels[0][k] && verdict_[k]) {
          verdict_[k] = 0;
          break;
        }
    std::uint64_t missed = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const bool truth = ctx.labels[0][k] != 0;
      const bool got = verdict_[k] != 0;
      missed += truth && !got;
      fp_ += got && !truth;
      negatives_ += !truth;
      tp_ += got && truth;
      accepts_ += got;
      bits += got;
    }
    ctx.out.attempted(n);
    ctx.out.failed("ground_truth", missed);
  }
  std::uint64_t accepted = 0;
  for (std::size_t k = 0; k < n; ++k) {
    accepted += verdict_[k];
    if (!verdict_[k]) rejected_bytes_ += c.starts[k + 1] - c.starts[k];
  }
  total_bytes_ += c.bytes.size();
  records_ += n;
  verdict_bits_ += bits;
  if (w.project) {
    // Every accepted record gets exactly one projected row.
    ctx.out.attempted(1);
    ctx.out.failed("projection_rows", projected_rows == accepted ? 0 : 1);
  }
}

void batch_runner::summarize(batch_stats& st) const {
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  st.fpr = ratio(fp_, negatives_);
  st.precision = ratio(tp_, accepts_);
  st.filtered_pct = 100.0 * ratio(rejected_bytes_, total_bytes_);
  st.verdict_bits = ratio(verdict_bits_, records_);
}

swap_runner::swap_runner(context& ctx) : ctx_(ctx) {
  auto builder = make_builder(ctx.w);
  if (ctx.w.project)
    builder.on_projection([](std::size_t, const jrf::project::column_batch&) {});
  p_.emplace(must(builder.build(), "build"));
}

void swap_runner::step(int swaps, batch_stats& into) {
  // Stream 256 KiB before each add+remove pair, so a swap always lands on
  // a pipeline with records in flight. The corpus wraps around.
  constexpr std::size_t kBetweenSwaps = 256 * 1024;
  const std::string_view bytes = ctx_.data.bytes;
  for (int i = 0; i < swaps; ++i) {
    for (std::size_t sent = 0; sent < kBetweenSwaps; sent += kBuffer) {
      if (off_ >= bytes.size()) off_ = 0;
      tracer::scope s(ctx_.trace, "api.offer");
      const std::string_view chunk = bytes.substr(off_, kBuffer);
      must(p_->offer(chunk), "offer");
      off_ += chunk.size();
    }
    timed_swap(ctx_, *p_, ctx_.w.swap_query, design{}, 0, true, into);
  }
}

void swap_runner::finish(batch_stats& into) {
  {
    tracer::scope s(ctx_.trace, "api.stats");
    for (const auto& s : must(p_->stats(), "stats"))
      into.hard_backpressure += s.hard_backpressure_events;
  }
  must(p_->finish(), "finish");
}

}  // namespace perfbench
