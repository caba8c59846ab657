// Quickstart: the complete public-API path in ~40 lines, all through the
// jrf::pipeline facade - query text in, per-record decisions out.
//
//   $ ./quickstart
//
// takes the paper's running example (Listing 1 + Listing 2): keep records
// whose "temperature" measurement lies in [0.7, 35.1].
#include <cstdio>
#include <string>

#include "api/pipeline.hpp"
#include "core/elaborate.hpp"
#include "query/eval.hpp"

int main() {
  using namespace jrf;

  // An NDJSON stream of SenML records (Listing 1 shape).
  const std::string stream =
      R"({"e":[{"v":"35.2","u":"far","n":"temperature"}],"bt":1})" "\n"
      R"({"e":[{"v":"21.5","u":"far","n":"temperature"}],"bt":2})" "\n"
      R"({"e":[{"v":"12","u":"per","n":"humidity"}],"bt":3})" "\n";

  // One fluent flow: parse the Listing 2 JSONPath query, compile it to a
  // raw filter, bind the stream.
  auto built = pipeline::make()
                   .jsonpath(R"($.e[?(@.n=="temperature" & @.v >= 0.7)"
                             R"( & @.v <= 35.1)])")
                   .input(stream)
                   .build();
  if (!built) {  // the facade never throws: errors come back as values
    std::fprintf(stderr, "build failed: %s\n", built.error().message.c_str());
    return 1;
  }
  std::printf("query: %s\n", built->parsed_query()->to_string().c_str());
  std::printf("raw filter: %s\n", built->expression()->to_string().c_str());
  std::printf("estimated cost: %s\n",
              core::filter_cost(built->expression()).to_string().c_str());

  auto result = built->run();
  if (!result) {
    std::fprintf(stderr, "run failed: %s\n", result.error().message.c_str());
    return 1;
  }

  // Compare with the exact (CPU-parser) verdicts: the raw filter may pass
  // extra records but never drops a true match.
  const auto labels = query::label_stream(*built->parsed_query(), stream);
  for (std::size_t i = 0; i < result->decisions.size(); ++i)
    std::printf("record %zu: raw filter %s, exact %s\n", i,
                result->decisions[i] ? "PASS" : "drop",
                labels[i] ? "match" : "no match");
  const auto check = query::verify_no_false_negatives(
      *built->parsed_query(), stream, result->decisions);
  std::printf("%zu true matches, %zu dropped %s\n", check.true_matches,
              check.false_negatives,
              check.ok() ? "(no false negatives)" : "(BUG!)");
  return check.ok() ? 0 : 1;
}
