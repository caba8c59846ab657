// Service phase: the workload's pipeline behind net::filter_service, driven
// by a single-process open-loop generator.
//
// Thread budget of the generator: the calling thread is the one pacing
// sender (it writes to every connection), and one reader thread polls every
// connection for echoed verdict bytes. Connection c feeds shard c, so the
// echo of connection c is shard c's verdict stream in record order.
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "net/service.hpp"
#include "net/socket.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr double kP99LimitUs = 2000.0;  // svc_max_rps latency limit
constexpr double kRungFactor = 1.05;    // ladder: fixed_rate / 4 * 1.05^i
constexpr int kRungs = 96;
constexpr double kStepSeconds = 0.04;   // dwell of one climb step

std::string socket_path(const context& ctx) {
  static int counter = 0;
  return ctx.socket_dir + "/s-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

double rung_rate(const workload& w, int rung) {
  return w.fixed_rate / 4.0 * std::pow(kRungFactor, rung);
}

}  // namespace

serve_stats serve(context& ctx, const std::vector<rate_step>& steps,
                  std::size_t first, bool measure_memory, bool stop_on_late) {
  const workload& w = ctx.w;
  const corpus& c = ctx.data;
  const std::size_t n = c.size();
  const std::size_t conns = w.shards;
  const bool traced = ctx.trace.enabled();
  serve_stats st;

  // Due time of every record (ns after t0; 0 throughout unpaced steps).
  std::vector<std::int64_t> due_ns;
  std::vector<std::uint32_t> step_of;
  double at_ns = 0.0;
  for (std::size_t j = 0; j < steps.size(); ++j)
    for (std::size_t i = 0; i < steps[j].records; ++i) {
      due_ns.push_back(static_cast<std::int64_t>(at_ns));
      step_of.push_back(static_cast<std::uint32_t>(j));
      if (steps[j].rate > 0) at_ns += 1e9 / steps[j].rate;
    }
  const std::size_t planned = due_ns.size();
  // stop_on_late: records of each step later than the limit. A step with
  // more than 1% of them has its p99 past the limit; once two consecutive
  // steps have, the sender stops.
  std::vector<std::size_t> late(steps.size(), 0);
  std::vector<std::uint8_t> step_failed(steps.size() + 1, 0);
  std::atomic<bool> two_failed{false};

  // Per-record timestamps, allocated before the memory baseline.
  std::vector<clock_type::time_point> written(planned);
  std::vector<clock_type::time_point> echoed(planned);
  std::vector<std::uint8_t> got_echo(planned, 0);
  std::vector<std::vector<clock_type::time_point>> decided(conns);
  if (traced)
    for (auto& d : decided) d.resize(planned / conns + 1);
  std::vector<std::string> out(conns);
  for (auto& o : out) o.reserve(1 << 20);
  std::vector<double> lag_us;
  lag_us.reserve(planned);

  double base_mb = 0.0;
  if (measure_memory) {
    trim_heap();
    base_mb = rss_mb();
    reset_peak_rss();
  }

  jrf::net::service_options options;
  options.listen.unix_path = socket_path(ctx);
  options.echo_decisions = true;
  if (traced)
    options.on_decision = [&decided](std::size_t shard, std::uint64_t index,
                                     bool) {
      if (index < decided[shard].size()) decided[shard][index] = clock_type::now();
    };
  const auto t_open = clock_type::now();
  auto builder = make_builder(w);
  if (w.project)
    builder.on_projection([](std::size_t, const jrf::project::column_batch&) {});
  auto service = [&] {
    tracer::scope s(ctx.trace, "net.open");
    return jrf::net::filter_service::open(std::move(builder), options);
  }();
  st.open_s = seconds_since(t_open);
  if (!service) throw std::runtime_error("open: " + service.error().message);

  std::vector<jrf::net::socket_fd> fds;
  for (std::size_t i = 0; i < conns; ++i) {
    fds.push_back(jrf::net::connect_to(service->where()));
    while (service->connections_accepted() < i + 1) std::this_thread::yield();
  }

  const auto t0 = clock_type::now() + std::chrono::milliseconds(1);
  auto due = [&](std::size_t k) { return t0 + std::chrono::nanoseconds(due_ns[k]); };

  // Reader: echo byte j of connection i is record j * conns + i.
  std::atomic<std::size_t> sent{planned};  // final once the sender is done
  std::atomic<bool> sender_done{false};
  std::atomic<std::uint64_t> echoes{0};
  std::uint64_t wrong = 0, accepts = 0, rejected_bytes = 0;
  std::uint64_t fp = 0, negatives = 0, true_accepts = 0, missed = 0;
  // --flip ground_truth reaches the service workload's check here (the
  // other workloads check ground truth in their batch passes).
  bool flip_truth = ctx.flip == flip_target::ground_truth &&
                    w.batch_feed == workload::feed::socket;
  clock_type::time_point last_echo = t0;
  std::thread reader([&] {
    std::vector<std::size_t> count(conns, 0);
    std::vector<pollfd> polls(conns);
    for (std::size_t i = 0; i < conns; ++i) polls[i] = {fds[i].get(), POLLIN, 0};
    std::vector<bool> open(conns, true);
    std::vector<char> buffer(1 << 16);
    clock_type::time_point give_up = clock_type::time_point::max();
    std::uint64_t got_total = 0;
    for (;;) {
      const bool done = sender_done.load(std::memory_order_acquire);
      if (done && got_total >= sent.load(std::memory_order_acquire)) break;
      if (done && give_up == clock_type::time_point::max())
        give_up = clock_type::now() + std::chrono::seconds(5);
      if (clock_type::now() > give_up) break;
      if (::poll(polls.data(), conns, 20) <= 0) continue;
      for (std::size_t i = 0; i < conns; ++i) {
        if (!open[i] || polls[i].revents == 0) continue;
        std::size_t got = 0;
        try {
          got = jrf::net::read_some(fds[i], buffer.data(), buffer.size());
        } catch (const std::exception&) {
        }
        if (got == 0) {
          open[i] = false;
          polls[i].fd = -1;
          continue;
        }
        const auto now = clock_type::now();
        last_echo = now;
        for (std::size_t b = 0; b < got; ++b) {
          const std::size_t k = count[i]++ * conns + i;
          if (k >= planned) {
            ++wrong;
            continue;
          }
          ++got_total;
          got_echo[k] = 1;
          echoed[k] = now;
          const std::size_t j = step_of[k];
          if (stop_on_late && micros(due(k), now) > kP99LimitUs &&
              ++late[j] * 100 > steps[j].records) {
            step_failed[j] = 1;
            if ((j > 0 && step_failed[j - 1]) || step_failed[j + 1])
              two_failed.store(true, std::memory_order_release);
          }
          const std::size_t rec = (first + k) % n;
          bool verdict = buffer[b] == '1';
          if (ctx.flip == flip_target::service_echo && got_total == 1)
            verdict = !verdict;
          wrong += verdict != (ctx.reference[rec] != 0);
          accepts += verdict;
          if (!verdict) rejected_bytes += c.starts[rec + 1] - c.starts[rec];
          if (!w.fleet) {
            const bool truth = ctx.labels[0][rec] != 0;
            if (flip_truth && truth && verdict) verdict = flip_truth = false;
            missed += truth && !verdict;
            fp += verdict && !truth;
            negatives += !truth;
            true_accepts += verdict && truth;
          }
        }
        echoes.store(got_total, std::memory_order_release);
      }
    }
  });

  // Sender: sleeps to the next due time (never spins: a spinning sender
  // takes a CPU from the service under test), then writes every record
  // due by now in one write per connection (at most 256 records per write
  // when unpaced). A 1 us timer slack keeps the wake-up close to the due
  // time. With stop_on_late it stops once two consecutive steps have
  // failed the limit.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  std::size_t k = 0;
  std::this_thread::sleep_until(t0);
  try {
    while (k < planned) {
      auto now = clock_type::now();
      if (now < due(k)) {
        std::this_thread::sleep_until(due(k));
        now = clock_type::now();
      }
      if (stop_on_late && two_failed.load(std::memory_order_acquire)) break;
      std::size_t end = k;
      while (end < planned && due(end) <= now &&
             (steps[step_of[end]].rate > 0 || end < k + 256))
        ++end;
      for (std::size_t r = k; r < end; ++r) {
        out[r % conns] += c.record((first + r) % n);
        if (steps[step_of[r]].rate > 0) lag_us.push_back(micros(due(r), now));
      }
      for (std::size_t i = 0; i < conns; ++i) {
        if (out[i].empty()) continue;
        const auto w0 = clock_type::now();
        jrf::net::write_all(fds[i], out[i]);
        st.write_us.push_back(micros(w0, clock_type::now()));
        for (std::size_t r = k + (i + conns - k % conns) % conns; r < end;
             r += conns)
          written[r] = w0;
        out[i].clear();
      }
      k = end;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: send failed: %s\n", e.what());
  }
  sent.store(k, std::memory_order_release);
  for (auto& fd : fds) fd.shutdown_write();
  sender_done.store(true, std::memory_order_release);
  reader.join();
  auto result = [&] {
    tracer::scope s(ctx.trace, "net.shutdown");
    return service->shutdown();
  }();
  if (!result) throw std::runtime_error("shutdown: " + result.error().message);
  for (const auto& s : result->shards)
    st.hard_backpressure += s.hard_backpressure_events;
  if (measure_memory) st.mem_mb = peak_rss_mb() - base_mb;

  st.sent = k;
  st.lost = k - echoes.load();
  st.wrong = wrong;
  st.accepts = accepts;
  st.rejected_bytes = rejected_bytes;
  st.false_positives = fp;
  st.negatives = negatives;
  st.true_accepts = true_accepts;
  st.wall_s = std::chrono::duration<double>(last_echo - t0).count();
  for (std::size_t r = 0; r < k; ++r) st.bytes += c.record((first + r) % n).size();
  st.lag_us = std::move(lag_us);
  // One latency per sent record; a missing verdict counts as infinitely
  // late (and fails the run through service_verdicts_lost).
  st.latency_us.resize(k, std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < k; ++r)
    if (got_echo[r]) st.latency_us[r] = micros(due(r), echoed[r]);
  if (traced) {
    for (std::size_t r = 0; r < k; ++r) {
      if (!got_echo[r]) continue;
      const auto d = decided[r % conns][r / conns];
      st.ingest_us.push_back(micros(written[r], d));
      st.egress_us.push_back(micros(d, echoed[r]));
    }
  }

  ctx.out.attempted(k);
  ctx.out.failed("service_echo", wrong);
  ctx.out.failed("ground_truth(service)", missed);
  ctx.out.failed("service_verdicts_lost", st.lost);
  return st;
}

burst_stats fixed_rate_burst(context& ctx, double seconds, std::size_t first) {
  const double rate = ctx.w.fixed_rate;
  const auto records =
      std::max<std::size_t>(2000, static_cast<std::size_t>(rate * seconds));
  burst_stats b;
  b.run = serve(ctx, {{rate, records}}, first % ctx.data.size(), false, false);
  // The first 10% of records warm the fresh service up.
  b.steady_us.assign(b.run.latency_us.begin() +
                         static_cast<std::ptrdiff_t>(b.run.latency_us.size() / 10),
                     b.run.latency_us.end());
  return b;
}

// One climb of the ladder in one service session: rungs from the one that
// offers the workload's fixed rate upward, each held for 40 ms (at least
// 1000 records). A step fails when the p99 latency of its records from
// their due time is past kP99LimitUs (a missing verdict counts as
// infinitely late); past capacity the backlog grows through every step,
// so the limit catches it. One stall - of the host, or of the service's
// own bookkeeping - fails a single step, so the climb ends at its first
// two consecutive failing steps (sending stops there) and yields the last
// rung it met before them; a climb whose first two steps fail yields
// rate 0.
climb_stats climb(context& ctx, std::size_t first) {
  const workload& w = ctx.w;
  const int from = fixed_rate_rung();
  std::vector<rate_step> steps;
  for (int r = from; r < kRungs; ++r) {
    const double rate = rung_rate(w, r);
    steps.push_back(
        {rate, std::max<std::size_t>(1000, static_cast<std::size_t>(rate * kStepSeconds))});
  }
  climb_stats cs;
  cs.run = serve(ctx, steps, first % ctx.data.size(), false, true);
  std::vector<bool> passed;
  std::size_t at = 0;
  for (const rate_step& step : steps) {
    const std::size_t end = at + step.records;
    if (end > cs.run.latency_us.size()) break;  // not sent: failed
    passed.push_back(
        quantile({cs.run.latency_us.begin() + static_cast<std::ptrdiff_t>(at),
                  cs.run.latency_us.begin() + static_cast<std::ptrdiff_t>(end)},
                 0.99) <= kP99LimitUs);
    at = end;
  }
  passed.resize(steps.size() + 2, false);
  std::size_t i = 0;
  while (passed[i] || passed[i + 1]) ++i;
  // Steps i and i + 1 are the first two failing ones, so step i - 1 passed.
  if (i > 0) {
    cs.highest = from + static_cast<int>(i) - 1;
    cs.rate = rung_rate(w, cs.highest);
  }
  return cs;
}

int fixed_rate_rung() {
  return static_cast<int>(std::lround(std::log(4.0) / std::log(kRungFactor)));
}

}  // namespace perfbench
