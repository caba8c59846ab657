// perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--tiny] [--flip CHECK] [--socket-dir DIR] [--trace-out FILE]
//
// Runs one workload and prints one JSON result line last on stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes every recorded span to --trace-out). --tiny shrinks the
// inputs 64x for the self-check; --flip feeds one deliberately wrong
// verdict to a correctness check (ground_truth, fleet_columns,
// service_echo, and pool_run in a traced run) so the self-check can see
// that check fail.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--tiny] [--flip CHECK] [--socket-dir DIR] "
               "[--trace-out FILE]\nworkloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

// Every measurement alternates with the others in rounds - one batch
// pass and a few swaps per round (a traced run adds fixed-rate service
// bursts and one climb of the rate ladder) - so a stretch of host
// contention lands in a few samples of each rather than in all of one, and
// the median of the samples leaves it out. Rounds run for kRoundsShare of
// --seconds.
//
// Contention on the shared host also drifts over minutes, longer than a
// run. The compute-bound samples of an untraced round (its pass rate and
// swap times) are therefore scaled to the nominal host speed by the
// round's host_factor(), measured before and after its pass, before their
// medians are taken; the raw medians go to stderr.
constexpr double kRoundsShare = 0.85;
constexpr double kBurstSeconds = 0.25;
constexpr int kSwapsPerRound = 4;
constexpr int kMinRounds = 3;

struct service_samples {
  std::vector<double> latency_us;  // steady-state records of every burst
  serve_stats net;                 // traced timestamps of all bursts
};

void burst(context& ctx, service_samples& into, std::size_t& first) {
  const burst_stats b = fixed_rate_burst(ctx, kBurstSeconds, first);
  first += b.run.sent;
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(into.latency_us, b.steady_us);
  append(into.net.ingest_us, b.run.ingest_us);
  append(into.net.egress_us, b.run.egress_us);
  append(into.net.write_us, b.run.write_us);
  append(into.net.lag_us, b.run.lag_us);
  into.net.lost += b.run.lost;
  into.net.hard_backpressure += b.run.hard_backpressure;
}

// Round samples scaled to the nominal host speed (see above).
struct adjusted_samples {
  std::vector<double> host_factor;  // per round
  std::vector<double> mbps, swap_ms;
};

void log_line(const char* name, const std::vector<double>& v) {
  std::fprintf(stderr,
               "perfbench: %-16s n=%-7zu p10 %-10.4g p50 %-10.4g p90 %.4g\n",
               name, v.size(), quantile(v, 0.1), quantile(v, 0.5),
               quantile(v, 0.9));
}

// The spread of the samples behind the medians, on stderr.
void log_samples(int rounds, const batch_stats& batch) {
  std::fprintf(stderr, "perfbench: %d rounds\n", rounds);
  log_line("pass MB/s", batch.mbps);
  log_line("swap ms", batch.swap_ms);
}

void run_untraced(context& ctx) {
  batch_runner runner(ctx);
  std::optional<swap_runner> swaps;
  if (!ctx.w.fleet) swaps.emplace(ctx);
  batch_stats batch;
  adjusted_samples adj;
  int rounds = 0;
  const auto start = clock_type::now();
  for (; rounds < kMinRounds || seconds_since(start) < kRoundsShare * ctx.seconds;
       ++rounds) {
    const std::size_t swaps_before = batch.swap_ms.size();
    const double host_before = host_factor();
    runner.pass(batch);
    const double f = std::sqrt(host_before * host_factor());
    if (swaps) swaps->step(kSwapsPerRound, batch);
    adj.host_factor.push_back(f);
    adj.mbps.push_back(batch.mbps.back() * f);
    for (std::size_t i = swaps_before; i < batch.swap_ms.size(); ++i)
      adj.swap_ms.push_back(batch.swap_ms[i] / f);
  }
  log_samples(rounds, batch);
  log_line("host factor", adj.host_factor);
  log_line("adj. pass MB/s", adj.mbps);
  log_line("adj. swap ms", adj.swap_ms);
  runner.summarize(batch);
  if (swaps) swaps->finish(batch);

  report& out = ctx.out;
  out.set("throughput_mbps", median(adj.mbps), "MB/s");
  out.set("setup_s", median(batch.setup_s), "s");
  out.set("fpr", batch.fpr, "ratio");
  out.set("filtered_pct", batch.filtered_pct, "%");
  out.set("mem_mb", median(batch.mem_mb), "MB");
  out.set("swap_ms_p50", median(adj.swap_ms), "ms");
}

void run_traced(context& ctx) {
  batch_runner runner(ctx);
  std::optional<swap_runner> swaps;
  if (!ctx.w.fleet) swaps.emplace(ctx);
  // Each round runs one untraced and one traced pass: the difference of
  // their medians is the tracing overhead.
  batch_stats plain, batch;
  service_samples svc, traced_svc;
  std::vector<double> climb_rates;
  std::size_t first = 0;
  int rounds = 0;
  const auto start = clock_type::now();
  for (; rounds < kMinRounds || seconds_since(start) < kRoundsShare * ctx.seconds;
       ++rounds) {
    // Untraced: a pass, a burst for svc_p50_us/svc_p99_us and a climb.
    ctx.trace.enable(false);
    runner.pass(plain);
    burst(ctx, svc, first);
    const climb_stats cs = climb(ctx, first);
    first += cs.run.sent;
    climb_rates.push_back(cs.rate);
    batch.hard_backpressure += cs.run.hard_backpressure;
    // Traced: a pass, a burst with decision timestamps for net.*, swaps.
    ctx.trace.enable(true);
    runner.pass(batch);
    burst(ctx, traced_svc, first);
    if (swaps) swaps->step(kSwapsPerRound, batch);
  }
  log_samples(rounds, batch);
  log_line("latency us", svc.latency_us);
  runner.summarize(batch);
  if (swaps) swaps->finish(batch);
  probe_phase(ctx, batch);

  report& out = ctx.out;
  out.set("svc_p50_us", median(svc.latency_us), "us");
  out.set("svc_p99_us", quantile(svc.latency_us, 0.99), "us");
  out.set("svc_max_rps", median(climb_rates), "1/s");
  out.set("api.add_query_ms_p50", median(batch.add_ms), "ms");
  out.set("api.remove_query_ms_p50", median(batch.remove_ms), "ms");
  out.set("system.hard_backpressure_events",
          static_cast<double>(batch.hard_backpressure + svc.net.hard_backpressure +
                              traced_svc.net.hard_backpressure),
          "count");
  const serve_stats& net = traced_svc.net;
  out.set("net.ingest_us_p50", quantile(net.ingest_us, 0.5), "us");
  out.set("net.egress_us_p50", quantile(net.egress_us, 0.5), "us");
  out.set("net.write_us_p50", quantile(net.write_us, 0.5), "us");
  out.set("net.generator_lag_us_p99", quantile(net.lag_us, 0.99), "us");
  out.set("net.verdicts_lost", static_cast<double>(svc.net.lost + net.lost),
          "count");
  out.set("trace.overhead_mbps", median(batch.mbps) - median(plain.mbps),
          "MB/s");
}

}  // namespace

int main(int argc, char** argv) {
  context ctx;
  std::string name, trace_out;
  bool traced = false;
  ctx.socket_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      ctx.tiny = true;
    } else if (value == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      name = value, ++i;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(value, nullptr, 10), ++i;
    } else if (arg == "--seconds") {
      ctx.seconds = std::strtod(value, nullptr), ++i;
    } else if (arg == "--trace") {
      traced = std::strcmp(value, "1") == 0, ++i;
    } else if (arg == "--socket-dir") {
      ctx.socket_dir = value, ++i;
    } else if (arg == "--trace-out") {
      trace_out = value, ++i;
    } else if (arg == "--flip") {
      const std::string check = value;
      ++i;
      if (check == "ground_truth") ctx.flip = flip_target::ground_truth;
      else if (check == "fleet_columns") ctx.flip = flip_target::fleet_columns;
      else if (check == "service_echo") ctx.flip = flip_target::service_echo;
      else if (check == "pool_run") ctx.flip = flip_target::pool_run;
      else return usage();
    } else {
      return usage();
    }
  }
  if (name.empty() || !(ctx.seconds > 0)) return usage();

  try {
    ctx.w = make_workload(name, ctx.seed, ctx.tiny);
    build_inputs(ctx);
    build_reference(ctx);
    if (traced) run_traced(ctx);
    else run_untraced(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", name.c_str(), e.what());
    return 2;
  }
  if (traced && !trace_out.empty() && !ctx.trace.write(trace_out))
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  std::printf("%s\n", ctx.out.json().c_str());
  return ctx.out.correct() ? 0 : 1;
}
