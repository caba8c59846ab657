// perfbench - the repository benchmark.
//
// One command runs a named workload from a seed, checks every verdict it
// produces, and prints every metric by name with its unit as the last line
// of stdout (see README.md for the workloads, metrics and seeds). The
// benchmark measures the library from outside: it times calls into the
// public functions of each layer and never reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/pipeline.hpp"
#include "query/compile.hpp"
#include "query/ir.hpp"

namespace perfbench {

namespace query = jrf::query;

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}
inline double micros(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile (p in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double quantile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// How much slower than nominal the host runs right now: the time of a
/// fixed calibration kernel that uses nothing from src/ (branchy byte
/// scanning over 1 MiB) over its nominal time. About 7 ms per call.
double host_factor();

/// Resident-set accounting through /proc/self: the current resident size,
/// the high-water mark, and a reset of the mark to the current size.
double rss_mb();
double peak_rss_mb();
void reset_peak_rss();
/// Return freed heap pages to the kernel so the next baseline is honest.
void trim_heap();

// --- spans -----------------------------------------------------------------

/// In-memory span recorder. Spans are recorded on the main thread only
/// (sinks running on library threads stamp plain timestamps instead), so a
/// stack of open spans gives every span its parent.
class tracer {
 public:
  struct span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };
  /// Per span name: summed duration, summed self time (duration minus the
  /// child spans it encloses) and span count.
  struct layer_time {
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::uint64_t count = 0;
  };

  bool enabled() const noexcept { return enabled_; }
  void enable(bool on) noexcept { enabled_ = on; }
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  std::map<std::string, layer_time> layers() const;
  /// One JSON object per line: id, name, start_ns, end_ns, parent.
  bool write(const std::string& path) const;

  class scope {
   public:
    scope(tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~scope() { t_.close(id_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer& t_;
    std::int32_t id_;
  };

 private:
  std::int64_t now_ns() const;

  bool enabled_ = false;
  clock_type::time_point epoch_ = clock_type::now();
  std::deque<span> spans_;  // grows without moving (no copy stalls)
  std::vector<std::int32_t> stack_;
};

// --- run report ------------------------------------------------------------

/// Metrics plus the correctness ledger of one run: every checked verdict
/// is one attempted operation, every wrong or missing verdict one failure.
class report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Record `n` failed operations of one check (named in the stderr log).
  void failed(const std::string& check, std::uint64_t n);
  bool correct() const noexcept { return failed_ == 0 && attempted_ > 0; }
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- inputs ----------------------------------------------------------------

/// Unique NDJSON records generated from the seed. Record k occupies
/// bytes[starts[k], starts[k + 1]) including its '\n'.
struct corpus {
  std::string bytes;
  std::vector<std::size_t> starts;

  std::size_t size() const noexcept { return starts.size() - 1; }
  std::string_view record(std::size_t k) const {
    return std::string_view(bytes).substr(starts[k],
                                          starts[k + 1] - starts[k]);
  }
  /// Records [first, first + count) as one contiguous view.
  std::string_view slice(std::size_t first, std::size_t count) const {
    return std::string_view(bytes).substr(
        starts[first], starts[first + count] - starts[first]);
  }
};

/// Which correctness check gets one deliberately flipped verdict
/// (--flip, used by selfcheck.py to prove each check can fail).
enum class flip_target {
  none,
  ground_truth,
  fleet_columns,
  service_echo,
  pool_run
};

/// The deployed raw filter of a query: one attribute choice per predicate
/// from the paper's design space (Section III-D). Empty = every predicate
/// grouped at B = 1, the compiler default.
using design = std::vector<query::attribute_choice>;
jrf::core::expr_ptr deploy(const query::query& q, const design& d);

/// Everything a workload is configured by. The four named workloads are
/// built in workloads.cpp.
struct workload {
  std::string name;
  bool taxi = false;  // data generator: taxi (flat) or smartcity (SenML)
  std::size_t corpus_bytes = 0;
  std::size_t shards = 1;
  /// Worker threads of the traced run's pool replay (system.scaling);
  /// 0 = no replay. Every timed round runs without a worker pool.
  std::size_t pool_workers = 0;
  bool project = false;  // projection with a counting on_projection sink
  bool fleet = false;    // on_verdict sink, per-query column checks, churn
  enum class feed { offer, run, socket } batch_feed = feed::offer;
  double fixed_rate = 0.0;  // records/s of the svc_p50/p99 phase
  std::vector<query::query> queries;  // resident set, primary first
  std::vector<design> designs;        // parallel to queries
  /// Fleet: the pool predicates of each query (bit 4 * attribute + pair).
  std::vector<std::uint32_t> masks;
  /// Fleet churn, one entry per churn_every bytes of every pass: add
  /// `add`, then remove the resident id at index pick % residents.
  struct churn_op {
    query::query add;
    design d;
    std::uint32_t mask = 0;
    std::uint64_t pick = 0;
  };
  std::vector<churn_op> churn;
  std::size_t churn_every = 0;
  /// Query added and removed again by the swap phase of the single-query
  /// workloads (deployed with the default design).
  query::query swap_query;
};

/// Shared state of one run.
struct context {
  workload w;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false;
  flip_target flip = flip_target::none;
  std::string socket_dir;
  tracer trace;
  report out;

  corpus data;
  /// Queries checked against json::parser + query::eval ground truth: the
  /// single query, or the sampled fleet members (initial and churned).
  std::vector<query::query> checked;
  std::vector<jrf::core::expr_ptr> checked_filters;  // their deployed filters
  /// Position of each checked query in the fleet's add order: the resident
  /// set in build order, then the churn additions.
  std::vector<std::size_t> checked_order;
  std::vector<std::vector<std::uint8_t>> labels;  // [checked][record]
  /// Fleet: per record, which of the 20 pool predicates hold.
  std::vector<std::uint32_t> pool_truth;
  /// Any-match verdict of a batch run() of the workload's pipeline over
  /// the corpus: the reference every echoed service verdict must equal.
  std::vector<std::uint8_t> reference;
};

workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny);
const std::vector<std::string>& workload_names();

/// Generate the corpus and the ground-truth labels of ctx.checked.
void build_inputs(context& ctx);
/// Pool-predicate mask of the fleet query at `order` in add order.
std::uint32_t fleet_mask(const workload& w, std::size_t order);
/// The workload's pipeline builder (queries, backend, shards, projection)
/// with `workers` worker threads; callers attach inputs and sinks.
jrf::pipeline_builder make_builder(const workload& w, std::size_t workers = 0);
/// The corpus as the per-shard streams the sharded backend sees (record k
/// on shard k % shards, as data::shard_records deals them).
std::vector<std::string> shard_streams(const context& ctx);
/// Batch run() over the corpus: fills ctx.reference.
void build_reference(context& ctx);

// --- phases ----------------------------------------------------------------

/// Samples of the batch passes and swaps that feed the metrics.
struct batch_stats {
  std::vector<double> mbps;       // per pass (or per unpaced service run)
  std::vector<double> setup_s;    // per build()/open()
  std::vector<double> mem_mb;     // per pass, peak above the pass baseline
  std::vector<double> swap_ms;    // add+remove pair times
  std::vector<double> add_ms, remove_ms;
  double fpr = 0.0;
  double filtered_pct = 0.0;
  double precision = 0.0;
  std::uint64_t hard_backpressure = 0;
  double verdict_bits = 0.0;  // set verdict bits per record
  /// Facade time per pass: offer + finish, run, or the socket round trip.
  std::vector<double> facade_s;
};

/// Timed passes of the workload's pipeline over the whole corpus (for the
/// service workload: unpaced runs through the socket), each with a fresh
/// build. Every pass checks its verdicts; the quality metrics accumulate
/// over passes. Traced when ctx.trace is enabled.
class batch_runner {
 public:
  explicit batch_runner(context& ctx);
  void pass(batch_stats& st);
  /// fpr, precision, filtered_pct and verdict bits over every pass so far.
  void summarize(batch_stats& st) const;

 private:
  void socket_pass(batch_stats& st);

  context& ctx_;
  std::vector<std::string> streams_;  // run() inputs
  std::vector<std::uint8_t> verdict_;  // any-match per record, last pass
  int passes_ = 0;
  std::uint64_t fp_ = 0, negatives_ = 0, tp_ = 0, accepts_ = 0;
  std::uint64_t rejected_bytes_ = 0, total_bytes_ = 0;
  std::uint64_t records_ = 0, verdict_bits_ = 0;
};

/// Add/remove on one streaming pipeline of the workload: the single-query
/// workloads' swap_ms_p50 (the fleet churns inside its batch passes).
class swap_runner {
 public:
  explicit swap_runner(context& ctx);
  /// `swaps` times: stream 256 KiB, then time one add+remove pair.
  void step(int swaps, batch_stats& into);
  void finish(batch_stats& into);

 private:
  context& ctx_;
  std::optional<jrf::pipeline> p_;
  std::size_t off_ = 0;
};

/// Results of driving the workload's pipeline behind net::filter_service.
struct serve_stats {
  std::vector<double> latency_us;  // per sent record: due time -> echo
  std::vector<double> lag_us;      // write start - due time, paced records
  std::vector<double> write_us;    // write_all duration, per call
  std::vector<double> ingest_us;   // write start -> on_decision (traced)
  std::vector<double> egress_us;   // on_decision -> echo read (traced)
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  std::uint64_t wrong = 0;
  std::uint64_t hard_backpressure = 0;
  std::uint64_t bytes = 0;
  std::uint64_t rejected_bytes = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t negatives = 0;
  std::uint64_t true_accepts = 0;
  std::uint64_t accepts = 0;
  double open_s = 0.0;
  double wall_s = 0.0;  // t0 -> last echo
  double mem_mb = 0.0;
};

/// `records` records offered at `rate` records/s (0 = unpaced).
struct rate_step {
  double rate = 0.0;
  std::size_t records = 0;
};

/// Open a service, send the steps' records back to back (corpus order from
/// `first`, wrapping), collect and check every echoed verdict, shut down.
/// With stop_on_late the sender stops early once some step's p99 latency
/// is past the ladder's limit.
serve_stats serve(context& ctx, const std::vector<rate_step>& steps,
                  std::size_t first, bool measure_memory, bool stop_on_late);

/// One burst at the workload's fixed rate: the latency of every record
/// after a 10% warm-up.
struct burst_stats {
  std::vector<double> steady_us;
  serve_stats run;
};
burst_stats fixed_rate_burst(context& ctx, double seconds, std::size_t first);

/// One climb of the rate ladder (rung i offers fixed_rate / 4 * 1.05^i)
/// from the fixed-rate rung: the highest rung that met the p99 limit, and
/// its rate (-1 and 0 when the climb met none).
struct climb_stats {
  int highest = -1;
  double rate = 0.0;
  serve_stats run;
};
climb_stats climb(context& ctx, std::size_t first);
/// The ladder rung that offers the workload's fixed rate.
int fixed_rate_rung();

/// Core replay (traced runs): bitmap_pass, scan_chunk, extractor, compile
/// and plan build timed directly, for the per-layer metrics.
void probe_phase(context& ctx, const batch_stats& batch);

}  // namespace perfbench
