#include "core/token_automaton.hpp"

#include <limits>
#include <optional>
#include <utility>

namespace jrf::core {

namespace {

/// State ids are 16-bit: no automaton may exceed this many states.
constexpr std::size_t state_capacity =
    std::size_t{std::numeric_limits<std::uint16_t>::max()} + 1;

/// Product of automaton `a` with one engine DFA `d` whose accepting states
/// contribute `bit`, over the reachable state pairs only. Dead DFA states
/// all collapse into one component value, so every all-dead pair is state
/// 0. nullopt once the product would exceed `max_states`.
std::optional<token_automaton> product(const token_automaton& a,
                                       const regex::dfa& d, std::uint64_t bit,
                                       std::size_t max_states) {
  constexpr std::size_t classes = token_automaton::stride - 1;
  const auto n = static_cast<std::size_t>(d.state_count());
  // Component value of a DFA state: 0 for dead, state + 1 otherwise.
  std::vector<std::size_t> component(n);
  for (std::size_t s = 0; s < n; ++s)
    component[s] = d.dead(static_cast<int>(s)) ? 0 : s + 1;

  token_automaton out;
  out.slots = a.slots | bit;
  constexpr std::uint32_t unseen = ~std::uint32_t{0};
  std::vector<std::uint32_t> id_of(a.state_count() * (n + 1), unseen);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // id -> (a, dc)
  const auto intern = [&](std::size_t as, std::size_t dc)
      -> std::optional<std::uint16_t> {
    std::uint32_t& id = id_of[as * (n + 1) + dc];
    if (id == unseen) {
      if (pairs.size() == max_states) return std::nullopt;
      id = static_cast<std::uint32_t>(pairs.size());
      pairs.emplace_back(as, dc);
    }
    return static_cast<std::uint16_t>(id);
  };
  (void)intern(token_automaton::dead, 0);  // the all-dead pair is state 0
  const auto start =
      intern(a.start, component[static_cast<std::size_t>(d.start())]);
  if (!start) return std::nullopt;
  out.start = *start;
  for (std::size_t id = 0; id < pairs.size(); ++id) {
    const auto [as, dc] = pairs[id];
    out.next.resize(out.next.size() + token_automaton::stride,
                    token_automaton::dead);
    for (std::size_t c = 0; c < classes; ++c) {
      const std::size_t a_next = a.next[as * token_automaton::stride + c];
      std::size_t d_next = 0;
      if (dc != 0)
        d_next = component[static_cast<std::size_t>(
            d.step(static_cast<int>(dc - 1),
                   static_cast<unsigned char>(
                       token_automaton::class_bytes[c])))];
      const auto to = intern(a_next, d_next);
      if (!to) return std::nullopt;
      out.next[id * token_automaton::stride + c] = *to;
    }
    const bool accepts = dc != 0 && d.accepting(static_cast<int>(dc - 1));
    out.accept.push_back(a.accept[as] | (accepts ? bit : 0));
  }
  return out;
}

/// The automaton of no engine: the dead state alone.
token_automaton empty_automaton() {
  token_automaton a;
  a.next.assign(token_automaton::stride, token_automaton::dead);
  a.accept.push_back(0);
  return a;
}

}  // namespace

std::shared_ptr<const token_automata> build_token_automata(
    std::span<const std::unique_ptr<primitive_engine>> engines,
    std::size_t max_states) {
  auto out = std::make_shared<token_automata>();
  out->engine_bit.assign(engines.size(), 0);
  token_automaton current = empty_automaton();
  std::size_t slots = 0;
  for (std::size_t e = 0; e < engines.size() && slots < 64; ++e) {
    const regex::dfa* dfa = engines[e]->token_dfa();
    if (dfa == nullptr) continue;
    const std::uint64_t bit = std::uint64_t{1} << slots;
    if (auto fused = product(current, *dfa, bit, max_states)) {
      current = std::move(*fused);
    } else if (auto alone = product(empty_automaton(), *dfa, bit,
                                    state_capacity)) {
      if (current.slots != 0) out->automata.push_back(std::move(current));
      current = std::move(*alone);
    } else {
      continue;  // too large for 16-bit state ids: per-engine path
    }
    out->engine_bit[e] = bit;
    ++slots;
  }
  if (current.slots != 0) out->automata.push_back(std::move(current));
  return out;
}

}  // namespace jrf::core
