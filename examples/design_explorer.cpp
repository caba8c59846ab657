// Design-space exploration walkthrough (paper Section III-D): given a
// query and a calibration stream, enumerate every raw-filter
// configuration, print the FPR/LUT Pareto front, let the deployment pick
// its operating point - e.g. "cheapest configuration under FPR 5%" - and
// stand the chosen filter up through the jrf::pipeline facade.
#include <cstdio>
#include <vector>

#include "api/pipeline.hpp"
#include "data/taxi.hpp"
#include "dse/explore.hpp"
#include "query/compile.hpp"
#include "query/eval.hpp"
#include "query/riotbench.hpp"

int main() {
  using namespace jrf;

  const query::query q = query::riotbench::qt();
  std::printf("exploring: %s\n\n", q.to_string().c_str());

  data::taxi_generator gen;
  const std::string calibration = gen.stream(6000);
  const auto labels = query::label_stream(q, calibration);

  const auto result = dse::explore(q, calibration, labels);
  std::printf("%zu design points evaluated; Pareto front:\n",
              result.points.size());
  for (const std::size_t index : result.pareto) {
    const auto& p = result.points[index];
    std::printf("  FPR %5.3f @ %4d LUTs: %s\n", p.fpr, p.luts,
                p.notation.c_str());
  }

  // Operating-point selection: cheapest point under an FPR budget.
  const double fpr_budget = 0.05;
  const dse::design_point* chosen = nullptr;
  for (const std::size_t index : result.pareto) {
    const auto& p = result.points[index];
    if (p.fpr <= fpr_budget && (chosen == nullptr || p.luts < chosen->luts))
      chosen = &p;
  }
  if (chosen == nullptr) {
    std::printf("\nno configuration meets FPR <= %.2f\n", fpr_budget);
    return 1;
  }
  std::printf("\nchosen for deployment (FPR budget %.2f):\n  %s\n", fpr_budget,
              chosen->notation.c_str());
  std::printf("  -> %d LUTs, FPR %.3f, forwards %.1f%% of the stream\n",
              chosen->luts, chosen->fpr, 100.0 * chosen->accept_rate);

  // Deploy the chosen operating point: compile its choice vector and deal
  // the calibration stream record by record to the 7-lane Figure-4 system
  // via the facade's shard-less offer().
  auto deployed = pipeline::make()
                      .raw_filter(query::compile(q, chosen->choices))
                      .shards(7)
                      .build();
  if (!deployed) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 deployed.error().message.c_str());
    return 1;
  }
  if (auto offered = deployed->offer(calibration); !offered) {
    std::fprintf(stderr, "deploy offer failed: %s\n",
                 offered.error().message.c_str());
    return 1;
  }
  auto run = deployed->finish();
  if (!run) {
    std::fprintf(stderr, "deploy run failed: %s\n",
                 run.error().message.c_str());
    return 1;
  }
  std::vector<bool> forwarded;  // record k went to lane k % 7, index k / 7
  for (std::size_t k = 0; k < run->records(); ++k)
    forwarded.push_back(run->shard_decisions[k % 7][k / 7]);
  const auto check =
      query::verify_no_false_negatives(q, calibration, forwarded);
  std::printf("%s\n", run->report.to_string().c_str());
  std::printf("deployed via jrf::pipeline: %llu of %llu records forwarded, "
              "%zu true matches, %zu dropped %s\n",
              static_cast<unsigned long long>(run->accepted()),
              static_cast<unsigned long long>(run->records()),
              check.true_matches, check.false_negatives,
              check.ok() ? "(no false negatives)" : "(BUG!)");
  return check.ok() ? 0 : 1;
}
