// Extension (PR 9 tentpole) - projection cost across the Table VIII
// selectivity spectrum: what does extracting the queried fields of every
// ACCEPTED record add on top of filter-only throughput?
//
// The projection subsystem (src/project/) walks the structural/string
// bitmaps the filter already paid for, and it only ever runs inside the
// accepted-record hook - so its marginal cost is proportional to the
// query's SELECTIVITY. The paper's evaluation queries span exactly the
// interesting range: QS0 accepts ~63.9 % of SmartCity records (near the
// worst case for projection), QS1 ~5.4 % and QT ~5.7 % (the realistic
// filter-then-extract regime, where projection should be nearly free).
//
// Each row runs the same one-shard facade pipeline (derived paths)
// twice over the same inflated stream - projection off, then on with a
// counting sink - and reports:
//
//   query            riotbench query (data model in parentheses)
//   selectivity      accepted / records of the measured run
//   filter MB/s      projection off (best of N interleaved repetitions)
//   project MB/s     projection on, batches consumed by a sink (best)
//   overhead %       100 * (filter/project - 1)
//   rows, text KB    projected rows and columnar text arena emitted
//
//   bench_ext_projection [--json PATH] [--smoke]
//
// scripts/bench.sh passes --json BENCH_ext_projection.json; its --compare
// gate reads overhead_low_sel_pct (the QS1 row - low selectivity is the
// deployment posture; emitted as the noise-robust min-pair statistic, see
// paired_runs) and fails above 10 %, plus the usual wall-rate gate on
// project_qs1_mbps against the committed baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/pipeline.hpp"
#include "bench_common.hpp"
#include "core/simd.hpp"
#include "data/smartcity.hpp"
#include "data/stream.hpp"
#include "data/taxi.hpp"
#include "project/columns.hpp"
#include "query/riotbench.hpp"

namespace {

using namespace jrf;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct measured {
  double mbps = 0.0;
  std::uint64_t records = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rows = 0;       // projected rows (projection runs only)
  std::uint64_t text_bytes = 0; // columnar text arena emitted
};

// One timed one-shard facade run. Build is outside the clock (build()
// stands the lanes up eagerly), so run() measures steady-state filtering
// only, matching the other wall-rate benches.
measured timed_run(const query::query& q, const std::string& stream,
                   bool project) {
  measured out;
  auto builder = pipeline::make();
  // 1 MB bursts into a 1 MB lane FIFO: the throughput posture (the 4 KB
  // default models a DMA burst; here it would re-pass ~every
  // chunk-straddling record and dominate both configurations with framing
  // overhead).
  builder.from_query(q).input(stream).dma_burst_bytes(1u << 20)
      .lane_fifo_bytes(1u << 20);
  if (project) {
    builder.project().on_projection(
        [&out](std::size_t, const project::column_batch& batch) {
          out.rows += batch.rows();
          for (const project::column_data& col : batch.columns)
            out.text_bytes += col.text.size();
        });
  }
  auto built = builder.build();
  if (!built) {
    std::fprintf(stderr, "build failed: %s\n", built.error().message.c_str());
    std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  auto result = built->run();
  const double seconds = seconds_since(start);
  if (!result) {
    std::fprintf(stderr, "run failed: %s\n", result.error().message.c_str());
    std::exit(1);
  }
  out.records = result->records();
  out.accepted = result->accepted();
  out.mbps = seconds > 0
                 ? static_cast<double>(stream.size()) / seconds / 1e6
                 : 0.0;
  return out;
}

struct paired {
  measured filter;
  measured project;
  double overhead_pct = 0.0;       // best-vs-best (central estimate)
  double overhead_min_pct = 0.0;   // min per-pair (gate statistic)
};

// Best-of-`reps` for BOTH configurations, interleaved. Scheduling noise
// is strictly additive to wall time, so the best rate of enough
// repetitions converges on the uncontended rate for each configuration
// and their ratio on the true overhead - the classic min-time estimator.
// The GATE additionally wants a statistic that cannot flake when one
// side's best happens to catch a faster machine phase than the other's:
// the minimum of the per-pair ratios (adjacent filter/project runs).
// It bounds the true overhead from below, so it stays under an absolute
// threshold whenever the true overhead does - while a real regression
// lifts every pair and trips it deterministically.
paired paired_runs(const query::query& q, const std::string& stream,
                   int reps) {
  paired out{timed_run(q, stream, false), timed_run(q, stream, true)};
  out.overhead_min_pct =
      out.project.mbps > 0
          ? 100.0 * (out.filter.mbps / out.project.mbps - 1.0)
          : 0.0;
  for (int r = 1; r < reps; ++r) {
    const measured f = timed_run(q, stream, false);
    const measured p = timed_run(q, stream, true);
    if (p.mbps > 0)
      out.overhead_min_pct = std::min(
          out.overhead_min_pct, 100.0 * (f.mbps / p.mbps - 1.0));
    if (f.mbps > out.filter.mbps) out.filter = f;
    if (p.mbps > out.project.mbps) out.project = p;
  }
  if (out.project.mbps > 0)
    out.overhead_pct = 100.0 * (out.filter.mbps / out.project.mbps - 1.0);
  return out;
}

struct sweep_row {
  std::string name;
  std::string model;
  double paper_selectivity = 0.0;  // Table VIII
  double selectivity = 0.0;
  double filter_mbps = 0.0;
  double project_mbps = 0.0;
  double overhead_pct = 0.0;
  double overhead_min_pct = 0.0;
  std::uint64_t records = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rows = 0;
  std::uint64_t text_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
  }

  bench::heading("Extension: projection cost vs selectivity (PR 9)");

  const std::size_t target = smoke ? (1u << 20) : (8u << 20);
  data::smartcity_generator city;  // default seeds: calibrated so the
  data::taxi_generator taxi;       // measured selectivities track Table VIII
  const std::string smartcity = data::inflate(city.stream(2000), target);
  const std::string taxi_stream = data::inflate(taxi.stream(2000), target);
  const int reps = smoke ? 1 : 15;
  std::printf("workload: %.1f MB SmartCity + %.1f MB Taxi, simd %s%s\n",
              static_cast<double>(smartcity.size()) / (1u << 20),
              static_cast<double>(taxi_stream.size()) / (1u << 20),
              core::simd::to_string(core::simd::active_level()),
              smoke ? " [smoke]" : "");
  bench::rule();
  std::printf("%-12s | %-11s | %-11s | %-12s | %-10s | %-8s | %-8s\n",
              "query", "select. %", "filter MB/s", "project MB/s",
              "overhead %", "rows", "text KB");
  bench::rule();

  struct workload {
    const char* name;
    const char* model;
    double paper_selectivity;
    query::query q;
    const std::string* stream;
  };
  const std::vector<workload> workloads{
      {"qs0", "senml", 63.9, query::riotbench::qs0(), &smartcity},
      {"qs1", "senml", 5.4, query::riotbench::qs1(), &smartcity},
      {"qt", "flat", 5.7, query::riotbench::qt(), &taxi_stream},
  };

  std::vector<sweep_row> rows;
  for (const workload& w : workloads) {
    const paired p = paired_runs(w.q, *w.stream, reps);
    const measured& filter = p.filter;
    const measured& project = p.project;
    sweep_row row;
    row.name = w.name;
    row.model = w.model;
    row.paper_selectivity = w.paper_selectivity;
    row.selectivity = filter.records > 0
                          ? 100.0 * static_cast<double>(filter.accepted) /
                                static_cast<double>(filter.records)
                          : 0.0;
    row.filter_mbps = filter.mbps;
    row.project_mbps = project.mbps;
    row.overhead_pct = p.overhead_pct;
    row.overhead_min_pct = p.overhead_min_pct;
    row.records = filter.records;
    row.accepted = filter.accepted;
    row.rows = project.rows;
    row.text_bytes = project.text_bytes;
    rows.push_back(row);
    std::printf("%-4s (%-5s) | %4.1f /%4.1f | %11.2f | %12.2f | %9.1f%% | "
                "%-8llu | %8.1f\n",
                row.name.c_str(), row.model.c_str(), row.paper_selectivity,
                row.selectivity, row.filter_mbps, row.project_mbps,
                row.overhead_pct,
                static_cast<unsigned long long>(row.rows),
                static_cast<double>(row.text_bytes) / 1024.0);
  }
  bench::rule();
  std::printf("select. %% column: paper Table VIII / measured. overhead is "
              "the filter-only wall rate\nover the projecting rate: accepted "
              "records pay one bitmap-driven extraction walk, so\nthe "
              "overhead tracks selectivity - the low-selectivity rows are "
              "the gated posture.\n");

  double overhead_low = 0.0, project_qs1 = 0.0;
  for (const sweep_row& row : rows)
    if (row.name == "qs1") {
      overhead_low = row.overhead_min_pct;
      project_qs1 = row.project_mbps;
    }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ext_projection\",\n");
    std::fprintf(f,
                 "  \"workload\": {\"smartcity_bytes\": %zu, "
                 "\"taxi_bytes\": %zu, \"reps\": %d, \"simd\": \"%s\", "
                 "\"smoke\": %s},\n",
                 smartcity.size(), taxi_stream.size(), reps,
                 core::simd::to_string(core::simd::active_level()),
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i)
      std::fprintf(f,
                   "    {\"query\": \"%s\", \"model\": \"%s\", "
                   "\"paper_selectivity_pct\": %.1f, "
                   "\"selectivity_pct\": %.2f, \"filter_mbps\": %.2f, "
                   "\"project_mbps\": %.2f, \"overhead_pct\": %.2f, "
                   "\"records\": %llu, \"accepted\": %llu, "
                   "\"projected_rows\": %llu, \"text_bytes\": %llu}%s\n",
                   rows[i].name.c_str(), rows[i].model.c_str(),
                   rows[i].paper_selectivity, rows[i].selectivity,
                   rows[i].filter_mbps, rows[i].project_mbps,
                   rows[i].overhead_pct,
                   static_cast<unsigned long long>(rows[i].records),
                   static_cast<unsigned long long>(rows[i].accepted),
                   static_cast<unsigned long long>(rows[i].rows),
                   static_cast<unsigned long long>(rows[i].text_bytes),
                   i + 1 < rows.size() ? "," : "");
    std::fprintf(f, "  ],\n");
    // Keys the bench.sh --compare gate reads: the QS1 (low-selectivity)
    // projection overhead - the min-pair statistic, gated at an ABSOLUTE
    // 10% - and its projecting wall rate, gated against the committed
    // baseline at the usual tolerance.
    std::fprintf(f, "  \"overhead_low_sel_pct\": %.2f,\n", overhead_low);
    std::fprintf(f, "  \"project_qs1_mbps\": %.2f\n}\n", project_qs1);
    std::fclose(f);
  }
  return 0;
}
