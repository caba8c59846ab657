#include "system/system.hpp"

#include <algorithm>
#include <cstdio>

namespace jrf::system {

std::string throughput_report::to_string() const {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "bytes=%llu records=%llu accepted=%llu cycles=%llu "
                "(stall=%llu) time=%.4fs rate=%.2f GB/s (theoretical %.2f, "
                "10GbE line rate %.2f)",
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(stall_cycles), seconds,
                gbytes_per_second, theoretical_gbps, line_rate_10gbe);
  return buffer;
}

throughput_report model_report(const system_options& options, int lanes,
                               std::uint64_t bytes, std::uint64_t records,
                               std::uint64_t accepted,
                               std::uint64_t slowest_lane_bytes) {
  throughput_report report;
  report.bytes = bytes;
  report.records = records;
  report.accepted = accepted;
  report.theoretical_gbps =
      static_cast<double>(lanes) * options.clock_mhz * 1e6 / 1e9;

  // DMA: every burst descriptor costs setup cycles during which no lane
  // receives data (shared ingress bus).
  const std::uint64_t bursts =
      (bytes + options.dma_burst_bytes - 1) / options.dma_burst_bytes;
  const std::uint64_t dma_overhead =
      bursts * static_cast<std::uint64_t>(options.dma_setup_cycles);

  const std::uint64_t balanced =
      (bytes + static_cast<std::uint64_t>(lanes) - 1) /
      static_cast<std::uint64_t>(lanes);
  report.cycles = slowest_lane_bytes + dma_overhead;
  // Clamp: blank-line-heavy input can make the slowest lane shorter than
  // the balanced distribution of raw bytes (separators of empty records
  // reach no lane), and unsigned subtraction must not wrap.
  report.stall_cycles = report.cycles - std::min(report.cycles, balanced);
  report.seconds =
      static_cast<double>(report.cycles) / (options.clock_mhz * 1e6);
  report.gbytes_per_second =
      report.seconds > 0
          ? static_cast<double>(report.bytes) / report.seconds / 1e9
          : 0.0;
  return report;
}

}  // namespace jrf::system
