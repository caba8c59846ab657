// SmartNIC scenario (paper Section IV-B, second deployment): the raw
// filters sit between the network interface and the host CPU; filtered
// records cross PCIe, everything else is dropped in the NIC. The host
// effectively sees only candidate matches of the Taxi query QT. The NIC
// stands up through the jrf::pipeline facade like every other deployment.
#include <cstdio>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "core/elaborate.hpp"
#include "data/stream.hpp"
#include "data/taxi.hpp"
#include "query/eval.hpp"
#include "query/riotbench.hpp"

int main() {
  using namespace jrf;

  const query::query q = query::riotbench::qt();

  data::taxi_generator trips;
  const std::string wire = data::inflate(trips.stream(3000), 8u << 20);

  // A SmartNIC has a tight area budget: pick the B = 2 grouped filter the
  // paper highlights ({ s2("tolls_amount") & v(2.5 <= f <= 18.0) } class
  // of configurations) by compiling with block length 2. The NIC runs
  // seven replicated lanes, whole records dealt round-robin by the
  // shard-less offer(): the paper's Figure-4 system.
  auto nic = pipeline::make().from_query(q).block(2).shards(7).build();
  if (!nic) {
    std::fprintf(stderr, "build failed: %s\n", nic.error().message.c_str());
    return 1;
  }
  const auto cost = core::filter_cost(nic->expression());
  std::printf("query      : %s\n", q.to_string().c_str());
  std::printf("NIC filter : %s\n", nic->expression()->to_string().c_str());
  std::printf("area       : %s\n\n", cost.to_string().c_str());

  if (auto offered = nic->offer(wire); !offered) {
    std::fprintf(stderr, "offer failed: %s\n", offered.error().message.c_str());
    return 1;
  }
  auto run = nic->finish();
  if (!run) {
    std::fprintf(stderr, "run failed: %s\n", run.error().message.c_str());
    return 1;
  }
  const auto& report = run->report;
  const double pcie_reduction =
      1.0 - static_cast<double>(report.accepted) /
                static_cast<double>(report.records);
  std::printf("wire ingress : %.1f MB at %.2f GB/s (10GbE line rate %.2f)\n",
              static_cast<double>(report.bytes) / (1u << 20),
              report.gbytes_per_second, report.line_rate_10gbe);
  std::printf("PCIe egress  : %llu of %llu records (%.1f%% never reach the "
              "host)\n",
              static_cast<unsigned long long>(report.accepted),
              static_cast<unsigned long long>(report.records),
              100.0 * pcie_reduction);

  // Host-side verification: parse the forwarded records exactly (record k
  // of the wire went to lane k % 7 at index k / 7).
  std::vector<bool> forwarded;
  for (std::size_t k = 0; k < report.records; ++k)
    forwarded.push_back(run->shard_decisions[k % 7][k / 7]);
  const auto check = query::verify_no_false_negatives(q, wire, forwarded);
  std::printf("host check   : %zu/%zu true matches forwarded %s\n",
              check.true_matches - check.false_negatives, check.true_matches,
              check.ok() ? "(no false negatives)" : "(BUG!)");
  return check.ok() ? 0 : 1;
}
