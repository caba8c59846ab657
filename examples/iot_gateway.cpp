// IoT gateway scenario (paper Section IV-B): an edge device receives a
// 10 GbE stream of SenML sensor records and forwards only query-relevant
// ones to the on-chip CPU. Seven parallel raw-filter lanes at 200 MHz
// pre-filter the stream at line rate; the CPU parses only what survives.
//
// Both deployments - the monolithic Figure-4 gateway and the concurrent
// sharded service core - stand up through the jrf::pipeline facade.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "query/eval.hpp"
#include "query/riotbench.hpp"
#include "system/ingest.hpp"

int main() {
  using namespace jrf;

  // The gateway runs RiotBench QS1 (outlier detection: light, dust and air
  // quality outside their usual bands).
  const query::query q = query::riotbench::qs1();

  // Ingress: 8 MB of SenML telemetry.
  data::smartcity_generator sensors;
  const std::string ingress = data::inflate(sensors.stream(2000), 8u << 20);

  // Deployment 1: the paper's Figure-4 system - one stream, whole records
  // dealt round-robin to 7 replicated lanes by the shard-less offer().
  auto gateway = pipeline::make().from_query(q).shards(7).build();
  if (!gateway) {
    std::fprintf(stderr, "build failed: %s\n", gateway.error().message.c_str());
    return 1;
  }
  std::printf("gateway query : %s\n", q.to_string().c_str());
  std::printf("deployed RF   : %s\n\n",
              gateway->expression()->to_string().c_str());

  if (auto offered = gateway->offer(ingress); !offered) {
    std::fprintf(stderr, "offer failed: %s\n", offered.error().message.c_str());
    return 1;
  }
  auto run = gateway->finish();
  if (!run) {
    std::fprintf(stderr, "run failed: %s\n", run.error().message.c_str());
    return 1;
  }
  const auto& report = run->report;
  std::printf("ingress   : %.1f MB, %llu records\n",
              static_cast<double>(report.bytes) / (1u << 20),
              static_cast<unsigned long long>(report.records));
  std::printf("filtering : %s\n", report.to_string().c_str());
  std::printf("egress    : %llu records to the CPU (%.1f%% dropped in PL)\n",
              static_cast<unsigned long long>(report.accepted),
              100.0 * (1.0 - static_cast<double>(report.accepted) /
                                 static_cast<double>(report.records)));

  // What the CPU-side parser would have concluded - the raw filter must
  // never have dropped a true match. Record k of the ingress went to lane
  // k % 7 at index k / 7.
  std::vector<bool> forwarded;
  for (std::size_t k = 0; k < report.records; ++k)
    forwarded.push_back(run->shard_decisions[k % 7][k / 7]);
  const auto check = query::verify_no_false_negatives(q, ingress, forwarded);
  std::printf("check     : %zu true matches, %zu dropped by the RF %s\n",
              check.true_matches, check.false_negatives,
              check.ok() ? "(no false negatives)" : "(BUG!)");

  // Deployment 2: the same gateway as a concurrent service core - 7
  // independent sensor feeds, one filter lane each (query compiled once,
  // lanes cloned), lanes pumped on a worker pool, bounded per-lane FIFOs
  // pushing back on fast producers. Six feeds replay captured telemetry
  // from memory; the last one is a throttled line-rate sensor modeled by a
  // synthetic-rate source, so the run shows real lane imbalance and
  // backpressure accounting.
  const auto feeds = data::shard_records(ingress, 7);
  auto service = pipeline::make();
  service.from_query(q).worker_threads(4);
  for (std::size_t shard = 0; shard + 1 < feeds.size(); ++shard)
    service.input(feeds[shard]);
  service.source(std::make_unique<system::synthetic_rate_source>(
      feeds.back(), feeds.back().size(), 1024));
  auto sharded = service.build();
  if (!sharded) {
    std::fprintf(stderr, "build failed: %s\n", sharded.error().message.c_str());
    return 1;
  }
  auto sharded_run = sharded->run();
  if (!sharded_run) {
    std::fprintf(stderr, "run failed: %s\n",
                 sharded_run.error().message.c_str());
    return 1;
  }
  std::printf("\nsharded   : %s\n", sharded_run->to_string().c_str());

  // The concurrent core must drop nothing the monolithic gateway kept.
  std::printf("cross-check: %llu accepted on the concurrent core (%s)\n",
              static_cast<unsigned long long>(sharded_run->accepted()),
              sharded_run->accepted() == report.accepted
                  ? "matches one-stream run"
                  : "MISMATCH!");
  return check.ok() && sharded_run->accepted() == report.accepted ? 0 : 1;
}
