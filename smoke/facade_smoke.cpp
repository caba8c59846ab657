// Facade smoke: one translation unit compiled against the umbrella header
// alone - no internal module includes. Proves an embedding application can
// drive the whole flow (query text -> compiled raw filter -> sharded
// concurrent execution -> decisions) through jrf::pipeline and jrf.hpp
// only. Runs in CI next to the examples.
#include <cstdio>

#include "jrf.hpp"

int main() {
  using namespace jrf;

  // Two independent SenML feeds, filtered by the paper's Listing 2 query
  // on two concurrently pumped shards.
  data::smartcity_generator sensors;
  const std::string feed_a = sensors.stream(200);
  const std::string feed_b = sensors.stream(200);

  auto built =
      pipeline::make()
          .jsonpath(R"($.e[?(@.n=="temperature" & @.v >= 0.7 & @.v <= 35.1)])")
          .worker_threads(2)
          .input(feed_a)
          .input(feed_b)
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
  std::printf("facade smoke: %s\n", result->to_string().c_str());

  // The error path must cross the boundary as a value, never a throw.
  auto bad = pipeline::make().filter_expression("(1 <= \"x\" <=").build();
  if (bad || !bad.error().offset) {
    std::fprintf(stderr, "expected a parse error with an offset\n");
    return 1;
  }
  std::printf("facade smoke: parse error surfaced at offset %zu as expected\n",
              *bad.error().offset);

  if (result->records() == 0 || result->shards.size() != 2) {
    std::fprintf(stderr, "unexpected result shape\n");
    return 1;
  }
  return 0;
}
