// System-architecture model (paper Section IV-B, Figure 4).
//
// The paper's prototype couples a Zynq-7000 processor system with
// programmable logic holding 7 parallel raw-filter pipelines, each
// consuming one byte per cycle at 200 MHz (1.4 GB/s theoretical); 44 MB of
// inflated JSON moved through DMA achieved 1.33 GB/s, enough for a 10 GbE
// line rate of 1.25 GB/s.
//
// This module holds that bandwidth accounting: a cycle-quantized model in
// which a DMA engine streams bursts from memory, whole records are dealt to
// the lanes, and each lane filters one byte per cycle (the behavioural
// engines, which the RTL suite proves cycle-equivalent to the netlist). The
// model charges DMA burst-setup overhead and lane-imbalance stalls - the
// two effects that separate the measured 1.33 GB/s from the 1.4 GB/s
// theoretical peak. The lanes themselves run in sharded.hpp: the Figure-4
// system is one sharded lane per replicated pipeline, records dealt
// round-robin by the jrf::pipeline facade.
#pragma once

#include <cstdint>
#include <string>

#include "core/filter_engine.hpp"

namespace jrf::system {

struct system_options {
  double clock_mhz = 200.0;         // PL clock (paper: 200 MHz)
  std::size_t dma_burst_bytes = 4096;  // bytes moved per DMA descriptor
  int dma_setup_cycles = 12;        // descriptor setup / bus arbitration
  std::size_t lane_fifo_bytes = 8192;  // per-lane input FIFO
  // Bytes the software pump hands a lane per drain round (0 = follow
  // dma_burst_bytes). Distinct from the modeled DMA burst: the cycle
  // accounting always uses dma_burst_bytes, while bigger software bursts
  // only let the buffer-at-a-time bitmap pass amortise over more bytes -
  // decisions and the modeled report are identical for every value.
  std::size_t pump_burst_bytes = 1u << 16;
  // Host worker threads the sharded system pumps its lanes on (0 or 1 =
  // the calling thread). Decisions and the cycle-quantized accounting are
  // identical for every value; only host wall-clock differs.
  std::size_t worker_threads = 0;
  // filter.simd selects the vector tier of the lanes' bulk scans
  // (automatic = runtime CPU dispatch); decisions are identical at every
  // level.
  core::filter_options filter;
};

struct throughput_report {
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t accepted = 0;       // records forwarded to the CPU
  std::uint64_t cycles = 0;         // total simulated PL cycles
  std::uint64_t stall_cycles = 0;   // DMA setup + lane imbalance
  double seconds = 0.0;             // cycles / clock
  double gbytes_per_second = 0.0;   // end-to-end achieved rate
  double theoretical_gbps = 0.0;    // lanes * clock (bytes/cycle = 1)
  double line_rate_10gbe = 1.25;    // GB/s reference the paper compares to

  std::string to_string() const;
};

/// The cycle-quantized Figure-4 accounting behind the sharded system's
/// report (and so every jrf::pipeline result): the slowest lane bounds the
/// filtering time, every DMA burst descriptor charges setup cycles on the
/// shared ingress bus, and the gap to the perfectly balanced distribution
/// shows up as stall cycles. `lanes` is the number of parallel RF
/// pipelines (the paper's Figure 4 has 7; the sharded system passes its
/// shard count). A zero-byte run reports all-zero rates (no NaN/inf).
throughput_report model_report(const system_options& options, int lanes,
                               std::uint64_t bytes, std::uint64_t records,
                               std::uint64_t accepted,
                               std::uint64_t slowest_lane_bytes);

}  // namespace jrf::system
