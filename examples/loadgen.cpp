// Service latency loadgen: the SLO view of the socket front-end.
//
// The throughput benches answer "how many MB/s can the filter absorb";
// a network-facing deployment also has to answer "how long does ONE
// record wait for its verdict under a given arrival rate". This example
// stands up a net::filter_service (RiotBench QS1 over SenML telemetry),
// opens one connection per shard, replays records at a target aggregate
// rate, and timestamps every record from the send() to the echoed
// '1'/'0' verdict byte - per-record decision latency, reported as
// p50/p99/p99.9 and emitted as BENCH_service_latency.json.
//
//   example_loadgen [--records N] [--rate R] [--shards S] [--workers W]
//                   [--socket PATH | --tcp] [--json PATH]
//
// R is aggregate records/second across all connections (0 = unpaced).
// The default transport is a Unix socket under /tmp (CI-safe: no ports).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.hpp"
#include "data/smartcity.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "query/riotbench.hpp"

namespace {

using steady = std::chrono::steady_clock;

struct config {
  std::size_t records = 20000;
  double rate = 100000.0;  // aggregate records/s, 0 = unpaced
  std::size_t shards = 4;
  std::size_t workers = 2;
  std::string socket_path;  // empty + !tcp => /tmp default
  bool tcp = false;
  std::string json_path;
};

// One client connection = one shard: the sender paces records onto the
// socket stamping send times; the reader turns each echoed verdict byte
// back into a latency sample (verdict k on this connection is record k
// sent on it - per-shard record order is the service's echo contract).
struct client {
  jrf::net::socket_fd fd;
  std::vector<steady::time_point> send_time;
  std::atomic<std::size_t> sent{0};
  std::vector<double> latency_us;
  std::uint64_t accepted = 0;
  std::thread sender;
  std::thread reader;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jrf;
  config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--records" && value) cfg.records = std::strtoull(value, nullptr, 10), ++i;
    else if (arg == "--rate" && value) cfg.rate = std::strtod(value, nullptr), ++i;
    else if (arg == "--shards" && value) cfg.shards = std::strtoull(value, nullptr, 10), ++i;
    else if (arg == "--workers" && value) cfg.workers = std::strtoull(value, nullptr, 10), ++i;
    else if (arg == "--socket" && value) cfg.socket_path = value, ++i;
    else if (arg == "--json" && value) cfg.json_path = value, ++i;
    else if (arg == "--tcp") cfg.tcp = true;
    else {
      std::fprintf(stderr,
                   "usage: %s [--records N] [--rate R] [--shards S] "
                   "[--workers W] [--socket PATH | --tcp] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.shards == 0 || cfg.records == 0) {
    std::fprintf(stderr, "loadgen: need records >= 1 and shards >= 1\n");
    return 2;
  }

  // Corpus: a pool of SenML records replayed round-robin.
  data::smartcity_generator sensors;
  std::vector<std::string> corpus;
  for (std::size_t i = 0; i < 512; ++i)
    corpus.push_back(sensors.record() + "\n");

  net::endpoint where;
  if (cfg.tcp) {
    where.port = 0;  // ephemeral
  } else {
    where.unix_path = cfg.socket_path.empty()
                          ? "/tmp/jrf-loadgen-" + std::to_string(::getpid()) +
                                ".sock"
                          : cfg.socket_path;
  }

  net::service_options options;
  options.listen = where;
  options.echo_decisions = true;
  auto builder = pipeline::make();
  builder.from_query(query::riotbench::qs1())
      .shards(cfg.shards)
      .worker_threads(cfg.workers);
  auto service = net::filter_service::open(std::move(builder), options);
  if (!service) {
    std::fprintf(stderr, "loadgen: service failed: %s\n",
                 service.error().message.c_str());
    return 1;
  }
  std::printf("loadgen: %zu records at %.0f rec/s over %s, %zu shards, "
              "%zu workers\n",
              cfg.records, cfg.rate, service->where().to_string().c_str(),
              cfg.shards, cfg.workers);

  // Connect sequentially, waiting for the service to register each
  // connection: client c is connection c, feeding shard c.
  std::vector<std::unique_ptr<client>> clients;
  for (std::size_t c = 0; c < cfg.shards; ++c) {
    auto cl = std::make_unique<client>();
    try {
      cl->fd = net::connect_to(service->where());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "loadgen: connect failed: %s\n", e.what());
      return 1;
    }
    while (service->connections_accepted() < c + 1)
      std::this_thread::yield();
    clients.push_back(std::move(cl));
  }

  const steady::time_point start = steady::now();
  for (std::size_t c = 0; c < cfg.shards; ++c) {
    client& cl = *clients[c];
    // Deal record i to connection i % shards: connection c sends records
    // c, c+shards, c+2*shards, ... at 1/shards of the aggregate rate.
    const std::size_t count =
        cfg.records / cfg.shards + (c < cfg.records % cfg.shards ? 1 : 0);
    cl.send_time.resize(count);
    cl.latency_us.reserve(count);

    cl.sender = std::thread([&cl, &corpus, &cfg, c, count, start] {
      const double interval_ns =
          cfg.rate > 0.0 ? 1e9 * static_cast<double>(cfg.shards) / cfg.rate
                         : 0.0;
      for (std::size_t k = 0; k < count; ++k) {
        if (interval_ns > 0.0) {
          // Absolute deadlines: a late record never slows the schedule
          // down (open-loop load, the honest way to measure latency).
          const auto deadline =
              start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                          interval_ns * static_cast<double>(k)));
          std::this_thread::sleep_until(deadline);
        }
        const std::string& record = corpus[(c + k * cfg.shards) % corpus.size()];
        cl.send_time[k] = steady::now();
        cl.sent.store(k + 1, std::memory_order_release);
        try {
          net::write_all(cl.fd, record);
        } catch (const std::exception&) {
          break;  // service gone; the reader will see EOF
        }
      }
      cl.fd.shutdown_write();  // EOF to the service: drain this shard
    });

    cl.reader = std::thread([&cl, count] {
      char buffer[4096];
      std::size_t got = 0;
      while (got < count) {
        std::size_t n;
        try {
          n = net::read_some(cl.fd, buffer, sizeof buffer);
        } catch (const std::exception&) {
          break;
        }
        if (n == 0) break;  // service closed before all verdicts: partial run
        const steady::time_point now = steady::now();
        for (std::size_t b = 0; b < n && got < count; ++b, ++got) {
          // The verdict for record `got` cannot outrun its send.
          while (cl.sent.load(std::memory_order_acquire) <= got)
            std::this_thread::yield();
          cl.latency_us.push_back(
              std::chrono::duration<double, std::micro>(
                  now - cl.send_time[got]).count());
          if (buffer[b] == '1') ++cl.accepted;
        }
      }
    });
  }

  for (auto& cl : clients) {
    cl->sender.join();
    cl->reader.join();
  }
  const double wall_seconds =
      std::chrono::duration<double>(steady::now() - start).count();

  auto result = service->shutdown();
  if (!result) {
    std::fprintf(stderr, "loadgen: shutdown failed: %s\n",
                 result.error().message.c_str());
    return 1;
  }

  std::vector<double> latencies;
  std::uint64_t echoed_accepts = 0;
  for (const auto& cl : clients) {
    latencies.insert(latencies.end(), cl->latency_us.begin(),
                     cl->latency_us.end());
    echoed_accepts += cl->accepted;
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double p999 = percentile(latencies, 0.999);
  const double lat_max = latencies.empty() ? 0.0 : latencies.back();

  std::uint64_t hard_backpressure = 0;
  for (const auto& s : result->shards)
    hard_backpressure += s.hard_backpressure_events;

  std::printf("verdicts  : %zu/%zu echoed, %llu accepted (echo) / %llu "
              "(pipeline), hard backpressure %llu\n",
              latencies.size(), cfg.records,
              static_cast<unsigned long long>(echoed_accepts),
              static_cast<unsigned long long>(result->accepted()),
              static_cast<unsigned long long>(hard_backpressure));
  std::printf("latency   : p50 %.1f us  p99 %.1f us  p99.9 %.1f us  "
              "max %.1f us\n", p50, p99, p999, lat_max);
  std::printf("wall      : %.3f s (%.0f rec/s achieved)\n", wall_seconds,
              static_cast<double>(latencies.size()) / wall_seconds);

  // Every record sent must have come back with a verdict, and the echoed
  // accepts must match the pipeline's own count - the loadgen doubles as
  // an end-to-end correctness check.
  const bool complete = latencies.size() == cfg.records &&
                        echoed_accepts == result->accepted() &&
                        result->records() == cfg.records;
  if (!complete)
    std::fprintf(stderr, "loadgen: INCOMPLETE RUN (lost records or "
                         "verdict mismatch)\n");

  if (!cfg.json_path.empty()) {
    std::FILE* out = std::fopen(cfg.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "loadgen: cannot write %s\n",
                   cfg.json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"service_latency\",\n"
                 "  \"transport\": \"%s\",\n"
                 "  \"records\": %zu,\n"
                 "  \"rate_per_sec\": %.0f,\n"
                 "  \"shards\": %zu,\n"
                 "  \"workers\": %zu,\n"
                 "  \"accepted\": %llu,\n"
                 "  \"hard_backpressure_events\": %llu,\n"
                 "  \"latency_us\": {\n"
                 "    \"p50\": %.1f,\n"
                 "    \"p99\": %.1f,\n"
                 "    \"p999\": %.1f,\n"
                 "    \"max\": %.1f\n"
                 "  },\n"
                 "  \"wall_seconds\": %.3f,\n"
                 "  \"complete\": %s\n"
                 "}\n",
                 cfg.tcp ? "tcp" : "unix", cfg.records, cfg.rate, cfg.shards,
                 cfg.workers,
                 static_cast<unsigned long long>(result->accepted()),
                 static_cast<unsigned long long>(hard_backpressure), p50, p99,
                 p999, lat_max, wall_seconds, complete ? "true" : "false");
    std::fclose(out);
    std::printf("json      : %s\n", cfg.json_path.c_str());
  }
  return complete ? 0 : 1;
}
