// Fused token-run automata: every run-capable value engine of a layout
// compiled into one product DFA over the 15 numeric-token bytes.
//
// The paper's FPGA runs every number-range DFA in parallel on the same
// byte (Section III-B). The software analogue is a product automaton: one
// state per reachable tuple of engine DFA states, each state carrying the
// 64-bit run-slot mask of the engines that accept in it. A token run's
// verdict for every value engine at once is then one table walk over the
// run's bytes instead of one DFA walk per engine.
//
// A product may not grow past a state bound; the engine that would push it
// past starts a second automaton, and a run walks each automaton in turn
// (with one engine per automaton that is exactly the per-engine walk).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/primitive.hpp"

namespace jrf::core {

/// One product DFA over the numeric-token bytes. State 0 is the all-dead
/// state (every component DFA dead): mask 0 and absorbing, so a walk that
/// reaches it ends early.
struct token_automaton {
  /// Transition row width: the 15 token-byte classes plus one class for
  /// every other byte, which leads to the dead state (token runs never
  /// contain such bytes).
  static constexpr std::size_t stride = 16;
  static constexpr std::uint16_t dead = 0;

  /// The token bytes (numrange::is_token_byte), in class order.
  static constexpr char class_bytes[stride] = "0123456789+-.Ee";

  /// Byte -> class: the 15 token bytes get classes 0..14, every other
  /// byte class 15.
  static constexpr std::array<std::uint8_t, 256> byte_class = [] {
    std::array<std::uint8_t, 256> table{};
    table.fill(stride - 1);
    for (std::size_t c = 0; c + 1 < stride; ++c)
      table[static_cast<unsigned char>(class_bytes[c])] =
          static_cast<std::uint8_t>(c);
    return table;
  }();

  std::uint16_t start = dead;
  std::uint64_t slots = 0;            // run-slot bits this automaton evaluates
  std::vector<std::uint16_t> next;    // state * stride + class -> state
  std::vector<std::uint64_t> accept;  // state -> run-slot accept mask

  std::size_t state_count() const noexcept { return accept.size(); }

  /// Accept mask after walking bytes[0..n) from the start state.
  std::uint64_t run_mask(const unsigned char* bytes,
                         std::size_t n) const noexcept {
    std::size_t state = start;
    for (std::size_t i = 0; i < n; ++i) {
      state = next[state * stride + byte_class[bytes[i]]];
      if (state == dead) return 0;
    }
    return accept[state];
  }
};

/// The fused automata of one layout plus the engine -> run-slot map.
struct token_automata {
  /// Product-state bound of one automaton: 1024 states keep a transition
  /// table at 32 KiB.
  static constexpr std::size_t max_states = 1024;

  /// Engine index -> its run-slot bit, or 0 for an engine that takes the
  /// per-engine bulk path: not a value engine, a value engine whose start
  /// state accepts, one past the 64 slots of the verdict mask, or one
  /// whose DFA alone exceeds the 16-bit state range.
  std::vector<std::uint64_t> engine_bit;
  std::vector<token_automaton> automata;

  /// Run-slot mask of one maximal token run: bit engine_bit[e] set iff
  /// engine e's token DFA accepts the run's bytes.
  std::uint64_t run_mask(const unsigned char* bytes,
                         std::size_t n) const noexcept {
    std::uint64_t mask = 0;
    for (const token_automaton& a : automata) mask |= a.run_mask(bytes, n);
    return mask;
  }
};

/// Assign run slots to the token-DFA engines in engine order and fuse them
/// into product automata of at most `max_states` states each (a single
/// engine's automaton may exceed the bound up to the 16-bit state range).
std::shared_ptr<const token_automata> build_token_automata(
    std::span<const std::unique_ptr<primitive_engine>> engines,
    std::size_t max_states = token_automata::max_states);

}  // namespace jrf::core
