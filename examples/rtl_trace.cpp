// Figure 1 companion: elaborate the s2("temperature") matcher of the
// paper's RTL schematic, run it cycle by cycle on the netlist simulator,
// and dump a VCD waveform of the byte stream, match counter and accept
// line - viewable with GTKWave. The same filter expression then runs
// through the jrf::pipeline facade as a decision cross-check (its
// decisions are held byte-identical to the byte-serial path the RTL suite
// proves cycle-equivalent).
#include <cstdio>
#include <fstream>
#include <string>

#include "api/pipeline.hpp"
#include "core/elaborate.hpp"
#include "core/expr.hpp"
#include "rtl/simulator.hpp"
#include "rtl/vcd.hpp"

int main() {
  using namespace jrf;

  const core::expr_ptr rf = core::string_leaf("temperature", 2);
  netlist::network net;
  const core::filter_circuit circuit = core::elaborate_filter(net, rf);
  std::printf("elaborated %s: %s\n", rf->to_string().c_str(),
              net.stats().c_str());

  const std::string path = "rtl_trace.vcd";
  std::ofstream out(path);
  rtl::vcd_writer vcd(out, "raw_filter");
  vcd.add_bus("byte", circuit.byte);
  vcd.add_signal("accept", circuit.accept);
  vcd.add_signal("boundary", circuit.record_boundary);
  // Registered state: counter bits and the shift-buffer stage.
  for (const netlist::node_id reg : net.registers())
    vcd.add_signal(net.at(reg).name, reg);
  vcd.begin();

  rtl::simulator sim(net);
  const std::string stream =
      R"({"n":"temperature","v":"21.5"})" "\n"
      R"({"n":"humidity","v":"12"})" "\n";
  std::uint64_t time = 0;
  for (const char c : stream) {
    sim.set_bus(circuit.byte, static_cast<unsigned char>(c));
    sim.settle();
    vcd.sample(sim, time++);
    sim.step();
  }

  std::printf("wrote %llu cycles to %s (open with GTKWave)\n",
              static_cast<unsigned long long>(time), path.c_str());

  // Software cross-check through the facade: its per-record decisions
  // equal the byte-per-cycle semantics, so they state what the traced
  // circuit's accept line concludes per record.
  auto built = pipeline::make()
                   .raw_filter(rf)
                   .input(stream)
                   .build();
  if (!built) {
    std::fprintf(stderr, "build failed: %s\n", built.error().message.c_str());
    return 1;
  }
  auto result = built->run();
  if (!result) {
    std::fprintf(stderr, "run failed: %s\n", result.error().message.c_str());
    return 1;
  }
  for (std::size_t i = 0; i < result->decisions.size(); ++i)
    std::printf("record %zu: %s\n", i,
                result->decisions[i] ? "accept" : "drop");
  // The first record contains "temperature", the second does not.
  return result->decisions == std::vector<bool>{true, false} ? 0 : 1;
}
