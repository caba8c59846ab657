// The four workloads, their seeded inputs, and the reference verdicts.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "data/taxi.hpp"
#include "json/parser.hpp"
#include "perfbench.hpp"
#include "project/paths.hpp"
#include "query/eval.hpp"
#include "query/parse.hpp"
#include "query/riotbench.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace data = jrf::data;

namespace {

// Fleet predicate pool: 5 SenML attributes x 4 bound pairs. Each pair
// holds ~40% of its attribute's generated values (data/smartcity.hpp
// distributions), so a 1-3 way conjunction accepts ~21% of records on
// average, and the whole pool interns to about 20 value engines plus 5
// attribute-name engines however many queries are resident.
struct bound_pair {
  const char* lo;
  const char* hi;
};
struct attribute_pool {
  const char* name;
  bound_pair pairs[4];
};
constexpr attribute_pool kFleetPool[5] = {
    {"temperature", {{"10.0", "20.0"}, {"15.0", "23.0"}, {"18.5", "27.0"},
                     {"22.0", "40.0"}}},
    {"humidity", {{"20.0", "42.0"}, {"35.0", "50.0"}, {"40.0", "58.0"},
                  {"47.0", "80.0"}}},
    {"light", {{"1010", "1150"}, {"1100", "1250"}, {"1200", "1400"},
               {"1250", "30000"}}},
    {"dust", {{"100.00", "500.00"}, {"300.00", "900.00"},
              {"500.00", "2000.00"}, {"800.00", "5000.00"}}},
    {"airquality_raw", {{"10", "26"}, {"20", "32"}, {"25", "40"},
                        {"30", "60"}}},
};

// A fleet member: a conjunction of 1-3 pool predicates on distinct
// attributes. `mask` has bit 4 * attribute + pair set per predicate.
std::pair<query::query, std::uint32_t> fleet_query(jrf::util::prng& rng) {
  int attrs[5] = {0, 1, 2, 3, 4};
  const std::size_t k = 1 + rng.below(3);
  std::string text;
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.below(5 - i);
    std::swap(attrs[i], attrs[j]);
    const attribute_pool& a = kFleetPool[attrs[i]];
    const std::size_t pair = rng.below(4);
    const bound_pair& b = a.pairs[pair];
    mask |= 1u << (4 * attrs[i] + pair);
    if (i > 0) text += " AND ";
    text += std::string("(") + b.lo + " <= \"" + a.name + "\" <= " + b.hi + ")";
  }
  return {query::parse_filter_expression(text, query::data_model::senml), mask};
}

// The fleet's deployed design: the first k-1 predicates grouped, the last
// of a multi-predicate conjunction omitted (the cheapest
// over-approximation, as on the paper's Pareto fronts).
design omit_last(const query::query& q) {
  design d(q.predicates().size());
  if (d.size() > 1) d.back().mode = query::attribute_mode::omit;
  return d;
}

// Keep only the predicates whose flag is set, grouped at B = 1.
design keep(std::initializer_list<bool> flags) {
  design d;
  for (const bool f : flags) {
    d.emplace_back();
    if (!f) d.back().mode = query::attribute_mode::omit;
  }
  return d;
}

constexpr std::size_t kMiB = 1u << 20;

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "senml_qs0_project", "taxi_qt_2shard", "fleet_1k_churn",
      "service_qs1_open"};
  return names;
}

workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  workload w;
  w.name = name;
  const std::size_t scale = tiny ? 64 : 1;
  if (name == "senml_qs0_project") {
    // The paper's Section IV-B job: QS0 over SenML, one shard, streamed in
    // 64 KiB buffers with projection on.
    w.corpus_bytes = 24 * kMiB / scale;
    w.project = true;
    w.fixed_rate = 50000;
    // Deployed at the knee of the paper's QS0 Pareto front (Table V): four
    // structural groups, light omitted.
    w.queries = {query::riotbench::qs0()};
    w.designs = {keep({true, true, false, true, true})};
    w.swap_query = query::riotbench::qs1();
  } else if (name == "taxi_qt_2shard") {
    // Flat data model over two input streams, run() on the sharded
    // backend. The timed rounds drain both lanes on the calling thread;
    // the traced run also replays run() on a 2-thread worker pool for
    // system.scaling, the only place a pool does real work (README.md
    // says why the timed rounds leave the pool out).
    w.taxi = true;
    w.corpus_bytes = 32 * kMiB / scale;
    w.shards = 2;
    w.pool_workers = 2;
    w.batch_feed = workload::feed::run;
    w.fixed_rate = 20000;
    w.queries = {query::riotbench::qt()};
    w.designs = {design{}};
    w.swap_query = query::parse_filter_expression(
        R"((140 <= "trip_time_in_secs" <= 3155) AND (6.00 <= "fare_amount" <= 201.00))");
  } else if (name == "fleet_1k_churn") {
    // 1000 resident queries: the plan trie and verdict words dominate, and
    // one add/remove pair every 4 MiB exercises plan rebuilds.
    w.corpus_bytes = 16 * kMiB / scale;
    w.fleet = true;
    w.fixed_rate = 7500;
    jrf::util::prng rng(seed ^ 0xF1EE7ull);
    const std::size_t n = tiny ? 50 : 1000;
    for (std::size_t i = 0; i < n; ++i) {
      auto [q, mask] = fleet_query(rng);
      w.designs.push_back(omit_last(q));
      w.queries.push_back(std::move(q));
      w.masks.push_back(mask);
    }
    w.churn_every = 4 * kMiB / scale;
    for (std::size_t i = 0; i < w.corpus_bytes / w.churn_every; ++i) {
      auto [q, mask] = fleet_query(rng);
      design d = omit_last(q);
      w.churn.push_back({std::move(q), std::move(d), mask, rng.next_u64()});
    }
  } else if (name == "service_qs1_open") {
    // QS1 behind net::filter_service: the net and system layers.
    w.corpus_bytes = 8 * kMiB / scale;
    w.shards = 2;
    w.batch_feed = workload::feed::socket;
    w.fixed_rate = 100000;
    // Deployed at the cheapest point of the paper's QS1 Pareto front under
    // 3% FPR (Table VI): the light group alone.
    w.queries = {query::riotbench::qs1()};
    w.designs = {keep({false, false, true, false, false})};
    w.swap_query = query::riotbench::qs0();
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

void build_inputs(context& ctx) {
  const workload& w = ctx.w;
  corpus& c = ctx.data;
  c.bytes.reserve(w.corpus_bytes + 4096);
  c.starts = {0};
  data::smartcity_generator senml(ctx.seed);
  data::taxi_generator taxi(ctx.seed);
  while (c.bytes.size() < w.corpus_bytes) {
    c.bytes += w.taxi ? taxi.record() : senml.record();
    c.bytes += '\n';
    c.starts.push_back(c.bytes.size());
  }

  // Checked queries: the single query, or a seeded sample of the fleet
  // (six initial members plus the first two churn additions, so the
  // per-query columns cover swap epochs too).
  if (!w.fleet) {
    ctx.checked = {w.queries[0]};
    ctx.checked_filters = {deploy(w.queries[0], w.designs[0])};
    ctx.checked_order = {0};
  } else {
    jrf::util::prng rng(ctx.seed ^ 0x5A3B1Eull);
    while (ctx.checked_order.size() < 6) {
      const std::size_t at = rng.below(w.queries.size());
      if (std::find(ctx.checked_order.begin(), ctx.checked_order.end(), at) !=
          ctx.checked_order.end())
        continue;
      ctx.checked_order.push_back(at);
      ctx.checked.push_back(w.queries[at]);
      ctx.checked_filters.push_back(deploy(w.queries[at], w.designs[at]));
    }
    for (std::size_t i = 0; i < 2 && i < w.churn.size(); ++i) {
      ctx.checked_order.push_back(w.queries.size() + i);
      ctx.checked.push_back(w.churn[i].add);
      ctx.checked_filters.push_back(deploy(w.churn[i].add, w.churn[i].d));
    }
  }

  // Ground truth: one json::parse per record, every checked query
  // evaluated on the parsed document. For the fleet, every pool predicate
  // too: a member's truth is the AND of its predicates' bits, so every
  // resident query is checked, not only the sample.
  std::vector<query::predicate> pool;
  if (w.fleet)
    for (const attribute_pool& a : kFleetPool)
      for (const bound_pair& b : a.pairs)
        pool.push_back(query::predicate::between(a.name, b.lo, b.hi));
  ctx.labels.assign(ctx.checked.size(),
                    std::vector<std::uint8_t>(c.size(), 0));
  ctx.pool_truth.assign(w.fleet ? c.size() : 0, 0);
  for (std::size_t k = 0; k < c.size(); ++k) {
    std::string_view rec = c.record(k);
    rec.remove_suffix(1);
    const jrf::json::value doc = jrf::json::parse(rec);
    for (std::size_t q = 0; q < ctx.checked.size(); ++q)
      ctx.labels[q][k] = query::eval(ctx.checked[q], doc) ? 1 : 0;
    for (std::size_t i = 0; i < pool.size(); ++i)
      if (query::eval_predicate(pool[i], doc, query::data_model::senml))
        ctx.pool_truth[k] |= 1u << i;
  }
  // The predicate bits must reproduce query::eval on the sampled members.
  for (std::size_t q = 0; q < ctx.checked.size() && w.fleet; ++q) {
    const std::uint32_t mask = fleet_mask(w, ctx.checked_order[q]);
    std::uint64_t differ = 0;
    for (std::size_t k = 0; k < c.size(); ++k)
      differ += ctx.labels[q][k] != ((ctx.pool_truth[k] & mask) == mask);
    ctx.out.attempted(c.size());
    ctx.out.failed("fleet_predicate_labels", differ);
  }
}

std::uint32_t fleet_mask(const workload& w, std::size_t order) {
  return order < w.masks.size() ? w.masks[order]
                                : w.churn[order - w.masks.size()].mask;
}

jrf::core::expr_ptr deploy(const query::query& q, const design& d) {
  return d.empty() ? query::compile_default(q, 1) : query::compile(q, d);
}

jrf::pipeline_builder make_builder(const workload& w, std::size_t workers) {
  auto b = jrf::pipeline::make();
  b.raw_filter(deploy(w.queries[0], w.designs[0]));
  for (std::size_t i = 1; i < w.queries.size(); ++i)
    b.add_raw_filter(deploy(w.queries[i], w.designs[i]));
  b.backend(jrf::backend_kind::sharded)
      .shards(w.shards)
      .worker_threads(workers);
  if (w.project) b.project(jrf::project::derive_paths(w.queries));
  return b;
}

std::vector<std::string> shard_streams(const context& ctx) {
  if (ctx.w.shards == 1) return {ctx.data.bytes};
  return data::shard_records(ctx.data.bytes, ctx.w.shards);
}

void build_reference(context& ctx) {
  workload plain = ctx.w;
  plain.project = false;
  auto builder = make_builder(plain);
  const std::vector<std::string> streams = shard_streams(ctx);
  for (const std::string& s : streams) builder.input(s);
  auto built = builder.build();
  if (!built)
    throw std::runtime_error("reference build: " + built.error().message);
  auto result = built->run();
  if (!result)
    throw std::runtime_error("reference run: " + result.error().message);
  const std::size_t shards = streams.size();
  ctx.reference.assign(ctx.data.size(), 0);
  for (std::size_t s = 0; s < shards; ++s) {
    const auto& d = result->shard_decisions[s];
    for (std::size_t j = 0; j < d.size(); ++j)
      if (j * shards + s < ctx.reference.size())
        ctx.reference[j * shards + s] = d[j] ? 1 : 0;
  }
  if (result->records() != ctx.data.size())
    ctx.out.failed("reference_record_count", 1);
}

}  // namespace perfbench
