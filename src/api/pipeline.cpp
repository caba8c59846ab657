#include "api/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/bitmaps.hpp"
#include "project/tape.hpp"
#include "query/compile.hpp"
#include "query/parse.hpp"
#include "system/sharded.hpp"
#include "system/system.hpp"

namespace jrf {

namespace {

// One bound input, whatever shape the builder was given. Owned text and
// custom sources live here until run() consumes them.
struct input_spec {
  enum class kind { view, text, file, custom };

  kind k = kind::view;
  std::string_view view;
  std::string text;
  std::string path;
  std::unique_ptr<system::ingest_source> source;
};

std::unique_ptr<system::ingest_source> open_source(input_spec& in) {
  switch (in.k) {
    case input_spec::kind::view:
      return std::make_unique<system::memory_source>(in.view);
    case input_spec::kind::text:
      return std::make_unique<system::memory_source>(in.text);
    case input_spec::kind::file:
      return std::make_unique<system::chunked_file_source>(in.path);
    case input_spec::kind::custom:
      return std::move(in.source);
  }
  throw error("pipeline: invalid input binding");
}

system::system_options to_system_options(const pipeline_options& o) {
  system::system_options so;
  so.clock_mhz = o.clock_mhz;
  so.dma_burst_bytes = o.dma_burst_bytes;
  so.dma_setup_cycles = o.dma_setup_cycles;
  so.lane_fifo_bytes = o.lane_fifo_bytes;
  so.worker_threads = o.worker_threads;
  so.filter = o.filter;
  return so;
}

}  // namespace

std::string run_result::to_string() const {
  std::string out = report.to_string();
  if (shards.size() > 1) {
    std::uint64_t backpressure = 0;
    std::uint64_t hard = 0;
    for (const auto& s : shards) {
      backpressure += s.backpressure_events;
      hard += s.hard_backpressure_events;
    }
    out += " [" + std::to_string(shards.size()) +
           " shards, backpressure=" + std::to_string(backpressure) +
           " (hard=" + std::to_string(hard) + ")]";
  }
  return out;
}

// ---------------------------------------------------------------------------
// pipeline::impl - the execution state behind the facade: one
// sharded_filter_system plus per-shard decision staging. The streaming
// surface is the primitive; run() drives the bound inputs through the
// concurrent_runner policy.
//
// Locking. Each stream carries its own gate, so producers on different
// shards never serialize above the per-lane locks of the sharded system.
// The lock order, for every path that holds more than one lock, is
//
//   state_mutex  >  router_mutex  >  stream gate s  >  sink_mutex s
//
// where state_mutex is never held while acquiring any later lock (the
// entry points validate under it, release, then take the locks they
// need), finish() acquires every gate in index order, and the decision
// sink is only ever invoked with NO internal lock held - which is what
// makes re-entrant offer()/try_offer()/pump() calls from a sink legal.

struct pipeline::impl {
  pipeline_options opts;
  std::optional<query::query> q;  // set when built from text / query
  core::expr_ptr expr;            // query 0 (the primary source)
  decision_sink sink;
  verdict_sink vsink;
  std::vector<input_spec> inputs;

  // --- multi-tenant query registry ---------------------------------------
  // qset names the resident queries (stable ids, dense order = bitmap bit
  // order); every epoch of the set is frozen into an immutable
  // query_registry snapshot so decision batches staged across a runtime
  // add/remove stay paired with the id set they actually decided under.
  // All mutation goes through mutation_mutex, which the new plan compiles
  // under; no stream gate is held during the compile - the whole point of
  // the epoch scheme is that live traffic keeps flowing meanwhile.
  struct query_registry {
    std::vector<core::query_id> ids;          // dense order
    std::vector<decision_sink> query_sinks;   // parallel to ids; may be null
    bool has_query_sinks = false;
    /// Ordinals of the queries with a non-null sink: the flush loop visits
    /// only these instead of probing every resident query per record.
    std::vector<std::uint32_t> sink_ordinals;

    std::size_t wpr() const noexcept { return (ids.size() + 63) / 64; }

    /// Recompute has_query_sinks / sink_ordinals after query_sinks edits.
    void index_sinks() {
      sink_ordinals.clear();
      for (std::size_t qi = 0; qi < query_sinks.size(); ++qi)
        if (query_sinks[qi])
          sink_ordinals.push_back(static_cast<std::uint32_t>(qi));
      has_query_sinks = !sink_ordinals.empty();
    }
  };
  using registry_ptr = std::shared_ptr<const query_registry>;

  core::query_set qset;        // resident queries (mutation_mutex)
  registry_ptr reg;            // current epoch snapshot (mutation_mutex)
  // Clones of the current epoch's primitive engines, taken before any lane
  // scanned: the next epoch's compile clones every spec it still needs
  // from here and builds only new ones (mutation_mutex). Never a lane's
  // engine - lanes keep scanning while the next epoch compiles.
  core::compiled_layout::engine_pool engine_pool;
  mutable std::mutex mutation_mutex;
  // Multi-tenant bookkeeping on: decision staging switches from the
  // index-cursor over the engines' growing decision vectors to a consume
  // stream (take_decisions + bitmap words) archived per stream. Off for
  // plain single-query pipelines, whose hot path stays byte-identical to
  // the pre-multi-tenant facade; flips on (never off) at the first
  // mutation or when built with >1 query / a verdict sink.
  std::atomic<bool> multi{false};

  enum class phase { idle, streaming, done };
  std::atomic<phase> state{phase::idle};
  std::mutex state_mutex;  // guards phase transitions

  // One per stream: the gate serializes this stream's offers/pumps, and
  // the delivery half stages decisions (under the gate) so they can be
  // handed to the sink outside every lock, in per-shard record order.
  struct stream_state {
    std::mutex gate;

    // Epoch of the engine currently resident on this stream and the count
    // of records taken into the shard's history (both gate-guarded).
    registry_ptr reg;
    std::uint64_t archived = 0;

    std::mutex sink_mutex;         // guards the delivery fields below
    std::vector<bool> pending;     // staged, not yet handed to the sink
    std::size_t pending_head = 0;  // consumed prefix of `pending`
    std::uint64_t next_index = 0;  // record index of pending[pending_head]
    bool delivering = false;       // a flush loop is live for this shard
    std::uint64_t observed = 0;    // decisions staged so far (gate-guarded)

    // Multi-tenant delivery row: one record's verdicts plus the epoch
    // snapshot they decided under (so the verdict / per-query sinks see
    // the right id set even across a concurrent add/remove).
    struct verdict_row {
      bool any = false;
      std::uint64_t index = 0;  // per-shard record ordinal
      registry_ptr reg;
      std::size_t words_offset = 0;  // first word in row_words, wpr() long
    };
    std::vector<verdict_row> rows;  // staged multi-tenant deliveries
    std::size_t rows_head = 0;      // consumed prefix of `rows`
    // Verdict bitmaps of the staged rows as one flat word buffer: a batch
    // lands with a single bulk append of whole 64-bit words and each row
    // indexes its span by offset, instead of one heap vector per record.
    // Cleared together with rows.
    std::vector<std::uint64_t> row_words;
  };
  std::vector<std::unique_ptr<stream_state>> streams;

  // Multi-tenant mode archives every taken decision batch here (the
  // engines' decision vectors become consume streams): the any-match
  // column feeds collect()'s decisions, and the bitmap words - grouped
  // into segments by epoch - expand into per-query columns at the end.
  // Guarded by the owning stream's gate.
  struct stream_history {
    struct segment {
      registry_ptr reg;
      std::uint64_t first_record = 0;  // per-shard ordinal of row 0
      std::vector<std::uint64_t> words;
    };
    std::vector<bool> any;
    std::vector<segment> segments;
  };
  std::vector<stream_history> history;

  // Record router behind the shard-less offer(bytes) overload on a
  // multi-stream pipeline: deals complete records round-robin, carrying a
  // record split across calls until its boundary arrives. Mirrors the
  // engines' framing automaton (a separator inside a JSON string literal
  // never ends a record; a '"' separator is always masked).
  std::mutex router_mutex;
  core::framing_state router_state;  // string/escape carry across offers
  core::bitmap_pass router_pass;     // reused buffer-at-a-time sweep
  std::string router_carry;          // partial record, no boundary yet
  std::size_t router_next_shard = 0;

  // The execution: one chunked lane per shard, stood up by build().
  std::unique_ptr<system::sharded_filter_system> sharded;

  // --- projection ---------------------------------------------------------
  // One extraction lane per stream, driven by the engines' accepted-record
  // hook. The hook fires under the lane mutex - the same lock that orders
  // that shard's decisions - so batches flush, and the sink fires,
  // strictly BEFORE any flush_decisions can deliver the verdicts of the
  // records they contain. collect() runs quiescent (run()/finish()
  // exclusivity), so the final partial-batch flush needs no extra lock;
  // the pool-join / gate hand-offs give the happens-before edges.
  bool project_enabled = false;
  project::path_set paths;  // frozen at build(); runtime adds don't extend
  projection_sink psink;
  struct projection_state {
    std::unique_ptr<project::extractor> extractor;
    std::vector<project::field_ref> refs;  // one per path, reused
    project::tape tape;
    std::unique_ptr<project::column_builder> builder;
    std::uint64_t base = 0;  // per-shard record index of engine ordinal 0
    std::vector<project::column_batch> retained;  // no sink: run_result

    explicit projection_state(const project::path_set& p,
                              core::simd::simd_level level)
        : extractor(std::make_unique<project::extractor>(p, level)),
          refs(p.size()),
          tape(p.size()),
          builder(std::make_unique<project::column_builder>(p)) {}
  };
  std::vector<std::unique_ptr<projection_state>> projection;

  /// The accepted-record hook body of one shard: extract onto the tape,
  /// flush a batch every projection_batch_rows accepted records. Runs
  /// under the shard's decision-ordering lock (see above).
  void project_record(std::size_t shard, std::uint64_t ordinal,
                      std::span<const unsigned char> record,
                      const core::bitmap_pass& pass, std::size_t offset) {
    projection_state& ps = *projection[shard];
    ps.extractor->extract(record, pass, offset, ps.refs.data());
    ps.tape.add_record(ps.base + ordinal, ps.refs, record);
    if (ps.tape.rows() >= opts.projection_batch_rows)
      flush_projection(shard);
  }

  /// Pivot the accumulated tape rows into one column batch and hand it to
  /// the sink (or retain it for run_result::projection). No-op when
  /// nothing accumulated - the final flush of an exactly-full stream.
  void flush_projection(std::size_t shard) {
    projection_state& ps = *projection[shard];
    if (ps.tape.rows() == 0) return;
    ps.builder->append(ps.tape);
    ps.tape.clear();
    project::column_batch batch = ps.builder->flush(shard);
    if (psink)
      psink(shard, batch);
    else
      ps.retained.push_back(std::move(batch));
  }

  /// Install the hook on `shard`'s lane at bring-up; swap_shard carries
  /// it over to every rebuilt engine.
  void attach_projection(std::size_t shard) {
    sharded->set_accepted_hook(
        shard, [this, shard](std::uint64_t ordinal,
                             std::span<const unsigned char> record,
                             const core::bitmap_pass& pass,
                             std::size_t offset) {
          project_record(shard, ordinal, record, pass, offset);
        });
  }

  std::size_t stream_count() const {
    return inputs.empty() ? opts.shards : inputs.size();
  }

  /// Stand the execution up: one shared compile over the whole resident
  /// set (a one-element set is the plain single-query engine - byte- and
  /// performance-identical), cloned into one lane per stream.
  void start_exec() {
    const std::size_t n = stream_count();
    sharded = std::make_unique<system::sharded_filter_system>(
        compile_epoch(), n, to_system_options(opts));
    streams.reserve(n);
    for (std::size_t shard = 0; shard < n; ++shard) {
      auto st = std::make_unique<stream_state>();
      st->reg = reg;
      streams.push_back(std::move(st));
    }
    history.resize(n);
    if (project_enabled) {
      for (std::size_t shard = 0; shard < n; ++shard) {
        projection.push_back(
            std::make_unique<projection_state>(paths, opts.filter.simd));
        attach_projection(shard);
      }
    }
  }

  /// Absorb the whole view into `shard`, draining a full FIFO in-line -
  /// only this shard's lane, so a blocking producer never waits on (or
  /// pumps work into) another shard. pump_shard() with a zero budget
  /// empties the lane, so after one drain a non-zero FIFO (validated at
  /// build()) must accept bytes: two zero-byte rounds in a row mean the
  /// lane cannot make forward progress, which is reported instead of spun
  /// on (each refused round already ticked the shard's
  /// hard_backpressure_events, so the stall is observable in stats() too).
  void offer_bytes(std::size_t shard, std::string_view bytes) {
    std::string_view rest = bytes;
    bool stalled = false;
    while (!rest.empty()) {
      const std::size_t taken = sharded->offer(shard, rest);
      rest.remove_prefix(taken);
      if (rest.empty()) break;
      if (taken == 0) {
        if (stalled)
          throw error("pipeline: offer() made no forward progress on shard " +
                      std::to_string(shard) +
                      " (lane FIFO stuck full after a drain)");
        stalled = true;
      } else {
        stalled = false;
      }
      sharded->pump_shard(shard);
    }
  }

  bool sinks_for(const query_registry& r) const {
    return sink || vsink || r.has_query_sinks;
  }

  /// Append one taken decision batch to the shard's history and stage
  /// delivery rows when any sink wants them. Caller holds the gate;
  /// `any`/`words` are the engine's consume-stream batch, `reg_now` the
  /// epoch those records decided under. Single-query engines emit no
  /// words: bit 0 is synthesized from the any-match column (the epoch has
  /// exactly one resident query by construction).
  void archive_batch(std::size_t shard, const registry_ptr& reg_now,
                     const std::vector<bool>& any,
                     std::vector<std::uint64_t>&& words) {
    if (any.empty()) return;
    stream_state& st = *streams[shard];
    const std::size_t wpr = reg_now->wpr();
    if (words.empty()) {
      words.assign(any.size() * wpr, 0);
      for (std::size_t r = 0; r < any.size(); ++r)
        if (any[r]) words[r * wpr] |= 1u;
    }
    const std::uint64_t base = st.archived;
    st.archived += any.size();
    stream_history& h = history[shard];
    h.any.insert(h.any.end(), any.begin(), any.end());
    // Records the legacy index-cursor already staged (the mode-switch
    // prefix) must not reach the sinks a second time.
    std::size_t skip = 0;
    if (st.observed > base)
      skip = static_cast<std::size_t>(
          std::min<std::uint64_t>(st.observed - base, any.size()));
    if (sinks_for(*reg_now) && skip < any.size()) {
      std::lock_guard<std::mutex> lock(st.sink_mutex);
      // The whole batch's bitmaps land with ONE word append; each row just
      // records where its wpr-word span starts.
      std::size_t offset = st.row_words.size();
      st.row_words.insert(st.row_words.end(),
                          words.begin() +
                              static_cast<std::ptrdiff_t>(skip * wpr),
                          words.end());
      st.rows.reserve(st.rows.size() + (any.size() - skip));
      for (std::size_t r = skip; r < any.size(); ++r, offset += wpr)
        st.rows.push_back({any[r], base + r, reg_now, offset});
    }
    if (!h.segments.empty() && h.segments.back().reg == reg_now) {
      stream_history::segment& seg = h.segments.back();
      seg.words.insert(seg.words.end(), words.begin(), words.end());
    } else {
      h.segments.push_back({reg_now, base, std::move(words)});
    }
  }

  /// Multi-tenant staging: consume the engine's decision stream (any +
  /// bitmap words) into the shard's history. Caller holds the gate.
  std::uint64_t stage_multi(std::size_t shard) {
    stream_state& st = *streams[shard];
    auto taken = sharded->take_decisions(shard);
    const std::uint64_t base = st.archived;
    archive_batch(shard, st.reg, taken.any, std::move(taken.words));
    const std::uint64_t end = base + taken.any.size();
    const std::uint64_t seen = std::max<std::uint64_t>(st.observed, base);
    return end > seen ? end - seen : 0;
  }

  /// Stage decisions the sink has not seen yet. Caller holds the shard's
  /// gate, or runs quiescent (run()/finish()); the sink is NOT invoked
  /// here - flush_decisions does that with no lock held. Returns how many
  /// new decisions were observed.
  std::uint64_t stage_decisions(std::size_t shard) {
    if (multi.load(std::memory_order_relaxed)) return stage_multi(shard);
    stream_state& st = *streams[shard];
    const std::vector<bool>& all = sharded->decisions(shard);
    if (st.observed >= all.size()) return 0;
    const std::uint64_t fresh = all.size() - st.observed;
    std::lock_guard<std::mutex> lock(st.sink_mutex);
    for (; st.observed < all.size(); ++st.observed)
      if (sink) st.pending.push_back(all[st.observed]);
    return fresh;
  }

  /// Hand staged decisions to the sink, in record order, outside every
  /// internal lock - a sink may therefore re-enter the streaming surface.
  /// One flush loop runs per shard at a time: a second caller (including a
  /// re-entrant one) returns immediately and the live loop picks up
  /// whatever it staged.
  void flush_decisions(std::size_t shard) {
    if (!sink && !multi.load(std::memory_order_relaxed)) return;
    stream_state& st = *streams[shard];
    std::vector<std::uint64_t> words_scratch;  // reused across rows
    std::unique_lock<std::mutex> lock(st.sink_mutex);
    if (st.delivering) return;
    st.delivering = true;
    // The legacy pending queue drains first: its entries predate every
    // verdict row (rows only start once multi-tenant staging is on, and
    // the mode-switch archives the legacy prefix before staging rows).
    while (st.pending_head < st.pending.size() ||
           st.rows_head < st.rows.size()) {
      if (st.pending_head < st.pending.size()) {
        const bool accepted = st.pending[st.pending_head++];
        const std::uint64_t index = st.next_index++;
        if (st.pending_head == st.pending.size()) {
          st.pending.clear();
          st.pending_head = 0;
        }
        lock.unlock();
        sink(shard, index, accepted);
        lock.lock();
        continue;
      }
      const stream_state::verdict_row row = st.rows[st.rows_head++];
      // Copy the row's word span out before unlocking: producers may
      // append (and reallocate) row_words while the sinks run.
      const auto first = st.row_words.begin() +
                         static_cast<std::ptrdiff_t>(row.words_offset);
      words_scratch.assign(
          first, first + static_cast<std::ptrdiff_t>(row.reg->wpr()));
      if (st.rows_head == st.rows.size()) {
        st.rows.clear();
        st.rows_head = 0;
        st.row_words.clear();
      }
      lock.unlock();
      if (sink) sink(shard, row.index, row.any);
      if (vsink)
        vsink(shard, row.index,
              std::span<const core::query_id>(row.reg->ids),
              std::span<const std::uint64_t>(words_scratch));
      // Only the queries that actually have a sink are visited - the
      // registry indexes them once per epoch, so a 10k-query fleet with
      // two subscribed sinks costs two calls per record, not 10k probes.
      for (const std::uint32_t qi : row.reg->sink_ordinals)
        row.reg->query_sinks[qi](
            shard, row.index,
            ((words_scratch[qi / 64] >> (qi % 64)) & 1u) != 0);
      lock.lock();
    }
    st.delivering = false;
  }

  /// Deal `bytes` into per-shard batches of complete records (round-robin,
  /// separator re-appended per record), advancing the framing automaton.
  /// Caller holds router_mutex; the trailing partial record stays in
  /// router_carry until a later call (or finish) completes it.
  std::vector<std::string> route_records(std::string_view bytes) {
    std::vector<std::string> batches(streams.size());
    const char sep = static_cast<char>(opts.filter.separator);
    // One vectored sweep materialises the boundary bitmap for the whole
    // offer; dealing is then a ctz walk of set bits instead of a byte
    // loop. A '"' separator yields zero boundaries (always masked), so
    // everything lands in router_carry - same as the byte automaton.
    router_pass.compute(reinterpret_cast<const unsigned char*>(bytes.data()),
                        bytes.size(), opts.filter.separator, router_state,
                        core::simd::resolve(opts.filter.simd));
    std::size_t start = 0;
    for (std::size_t b = router_pass.next_boundary(0); b != core::simd::npos;
         b = router_pass.next_boundary(b + 1)) {
      // Empty records (consecutive separators) deal no bytes: they
      // produce no decision on any path.
      if (!router_carry.empty() || b > start) {
        std::string& batch = batches[router_next_shard];
        batch.append(router_carry);
        batch.append(bytes.substr(start, b - start));
        batch.push_back(sep);
        router_carry.clear();
        router_next_shard = (router_next_shard + 1) % streams.size();
      }
      start = b + 1;
    }
    router_carry.append(bytes.substr(start));
    router_state = router_pass.end_state();
    return batches;
  }

  /// Expand the per-epoch bitmap segments into one decision column per
  /// query ever resident on each shard. Ids are never reused, so every
  /// query's residency is one contiguous span and consecutive segments
  /// containing the same id concatenate in record order. Columns are sized
  /// up front, then one pass over each segment's rows visits only the set
  /// verdict bits (a ctz walk per word) - most bits of a fleet are clear.
  std::vector<std::vector<query_column>> expand_columns() const {
    std::vector<std::vector<query_column>> out(history.size());
    for (std::size_t shard = 0; shard < history.size(); ++shard) {
      const std::vector<stream_history::segment>& segs =
          history[shard].segments;
      std::vector<query_column>& cols = out[shard];
      // id -> column slot, so a 10k-query epoch costs one hash probe per
      // query instead of a linear rescan of every column per query.
      std::unordered_map<core::query_id, std::size_t> slot_of;
      // Per segment, per dense ordinal: the column slot and the column
      // position of the segment's row 0.
      std::vector<std::vector<std::pair<std::size_t, std::size_t>>> at(
          segs.size());
      std::vector<std::size_t> length;  // per slot
      for (std::size_t s = 0; s < segs.size(); ++s) {
        const stream_history::segment& seg = segs[s];
        const std::size_t rows = seg.words.size() / seg.reg->wpr();
        at[s].reserve(seg.reg->ids.size());
        for (const core::query_id id : seg.reg->ids) {
          const auto [it, fresh] = slot_of.try_emplace(id, cols.size());
          if (fresh) {
            cols.push_back({id, seg.first_record, {}});
            length.push_back(0);
          }
          at[s].emplace_back(it->second, length[it->second]);
          length[it->second] += rows;
        }
      }
      for (std::size_t slot = 0; slot < cols.size(); ++slot)
        cols[slot].decisions.assign(length[slot], false);
      for (std::size_t s = 0; s < segs.size(); ++s) {
        const stream_history::segment& seg = segs[s];
        const std::size_t wpr = seg.reg->wpr();
        const std::size_t rows = seg.words.size() / wpr;
        const std::uint64_t* word = seg.words.data();
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t w = 0; w < wpr; ++w, ++word) {
            for (std::uint64_t bits = *word; bits != 0; bits &= bits - 1) {
              const std::size_t qi =
                  w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
              const auto [slot, start] = at[s][qi];
              cols[slot].decisions[start + r] = true;
            }
          }
        }
      }
    }
    return out;
  }

  run_result collect() {
    run_result result;
    const bool m = multi.load(std::memory_order_relaxed);
    const system::sharded_report sr = sharded->report();
    result.report.bytes = sr.bytes;
    result.report.records = sr.records;
    result.report.accepted = sr.accepted;
    result.report.cycles = sr.cycles;
    result.report.stall_cycles = sr.stall_cycles;
    result.report.seconds = sr.seconds;
    result.report.gbytes_per_second = sr.gbytes_per_second;
    result.report.theoretical_gbps = sr.theoretical_gbps;
    result.shards = sr.shards;
    for (std::size_t shard = 0; shard < sharded->shard_count(); ++shard) {
      result.shard_decisions.push_back(m ? history[shard].any
                                         : sharded->decisions(shard));
      result.decisions.insert(result.decisions.end(),
                              result.shard_decisions.back().begin(),
                              result.shard_decisions.back().end());
    }
    if (m) {
      result.query_ids = reg->ids;
      result.shard_query_columns = expand_columns();
    }
    if (project_enabled) {
      // Quiescent by contract (run()/finish() exclusivity): flush each
      // shard's partial tail batch, then surface everything a sink did
      // not already consume.
      for (std::size_t shard = 0; shard < projection.size(); ++shard) {
        flush_projection(shard);
        projection_state& ps = *projection[shard];
        result.projection.insert(result.projection.end(),
                                 std::make_move_iterator(ps.retained.begin()),
                                 std::make_move_iterator(ps.retained.end()));
        ps.retained.clear();
      }
    }
    return result;
  }

  run_result run_batch() {
    system::concurrent_runner runner(*sharded, opts.dma_burst_bytes);
    for (std::size_t shard = 0; shard < inputs.size(); ++shard)
      runner.bind(shard, open_source(inputs[shard]));
    runner.run();
    // run() is exclusive (state moved to done before this), so staging
    // needs no gates; the sink still fires outside the stage step.
    for (std::size_t shard = 0; shard < streams.size(); ++shard) {
      stage_decisions(shard);
      flush_decisions(shard);
    }
    return collect();
  }

  // --- runtime query management ------------------------------------------

  /// Compile the resident set into a fresh, never-scanned engine, cloning
  /// every primitive engine_pool already holds, then refill engine_pool
  /// from the new layout before anything scans it. Caller holds
  /// mutation_mutex (or is build(), before the pipeline exists).
  std::unique_ptr<core::filter_engine> compile_epoch() {
    core::compiled_layout layout =
        qset.compile(opts.filter.simd, &engine_pool);
    core::compiled_layout::engine_pool next = layout.clone_pool();
    auto engine = core::make_chunked_engine(qset.queries(), std::move(layout),
                                            opts.filter);
    engine_pool = std::move(next);
    return engine;
  }

  /// New epoch snapshot for the current qset, carrying per-query sinks
  /// over by id. Caller holds mutation_mutex.
  std::shared_ptr<query_registry> snapshot_registry() const {
    auto nreg = std::make_shared<query_registry>();
    nreg->ids = qset.ids();
    nreg->query_sinks.resize(nreg->ids.size());
    // Ids are monotone, never reused, and removal keeps order, so both id
    // lists ascend: each old sink finds its new slot by binary search.
    if (reg) {
      for (const std::uint32_t old : reg->sink_ordinals) {
        const auto it = std::ranges::lower_bound(nreg->ids, reg->ids[old]);
        if (it != nreg->ids.end() && *it == reg->ids[old])
          nreg->query_sinks[static_cast<std::size_t>(it - nreg->ids.begin())] =
              reg->query_sinks[old];
      }
    }
    nreg->index_sinks();
    return nreg;
  }

  /// Move every stream onto the `nreg` epoch - with freshly compiled
  /// engines when `rebuild` (add/remove), or registry-only (sink attach).
  /// Caller holds mutation_mutex. The compile happens OUTSIDE every stream
  /// gate, so live traffic keeps flowing while the new plan builds; each
  /// stream then pauses only for its own drain + carry replay. Decisions
  /// taken during the swap archive under the OUTGOING epoch - those
  /// records decided before the new set existed.
  void swap_epoch(registry_ptr nreg, bool rebuild) {
    std::unique_ptr<core::filter_engine> proto;
    if (rebuild) proto = compile_epoch();
    // Flip to consume-stream staging BEFORE touching any stream: a
    // producer racing the walk on a not-yet-swapped shard then stages
    // take-style under its stream's (still old) epoch, which is exactly
    // right; the `observed` cursor keeps the already-staged legacy prefix
    // from reaching the sink twice.
    multi.store(true, std::memory_order_relaxed);
    for (std::size_t shard = 0; shard < streams.size(); ++shard) {
      stream_state& st = *streams[shard];
      std::lock_guard<std::mutex> gate(st.gate);
      // Bytes already offered decide under the outgoing epoch, so the FIFO
      // drains through the current engine before the epoch moves - also
      // for a registry-only swap, whose sinks must not see those records.
      sharded->pump_shard(shard);
      stage_decisions(shard);
      if (rebuild) {
        auto taken = sharded->swap_shard(shard, *proto);
        archive_batch(shard, st.reg, taken.any, std::move(taken.words));
        if (project_enabled) {
          // swap_shard carried the hook over, but the rebuilt engine's
          // record ordinals restart at zero; everything decided so far was
          // archived above (stage_decisions, plus swap_shard's drained
          // tail), so the shard's record numbering continues at
          // st.archived. The projected path set stays frozen - runtime
          // adds decide normally but do not extend it.
          projection[shard]->base = st.archived;
        }
      }
      st.reg = nreg;
    }
    reg = std::move(nreg);
    for (std::size_t shard = 0; shard < streams.size(); ++shard)
      flush_decisions(shard);
  }

  core::query_id add_query_impl(core::expr_ptr qexpr,
                                decision_sink query_sink) {
    if (!qexpr) throw error("pipeline: add_query(null expression)");
    std::lock_guard<std::mutex> mu(mutation_mutex);
    if (done()) throw error("pipeline: add_query() after finish()/run()");
    const core::query_id id = qset.add(std::move(qexpr));
    try {
      auto nreg = snapshot_registry();
      if (query_sink) {
        nreg->query_sinks[qset.ordinal(id)] = std::move(query_sink);
        nreg->index_sinks();
      }
      swap_epoch(std::move(nreg), true);
    } catch (...) {
      // A failed compile leaves every stream on the old epoch; drop the
      // half-registered query so the set matches the engines again.
      qset.remove(id);
      throw;
    }
    return id;
  }

  void remove_query_impl(core::query_id id) {
    std::lock_guard<std::mutex> mu(mutation_mutex);
    if (done()) throw error("pipeline: remove_query() after finish()/run()");
    if (!qset.contains(id))
      throw error("pipeline: remove_query(" + std::to_string(id) +
                  "): unknown query id");
    if (qset.size() == 1)
      throw error("pipeline: cannot remove the last resident query");
    qset.remove(id);
    swap_epoch(snapshot_registry(), true);
  }

  void attach_query_sink(core::query_id id, decision_sink s) {
    std::lock_guard<std::mutex> mu(mutation_mutex);
    if (done())
      throw error("pipeline: on_query_decision() after finish()/run()");
    if (!qset.contains(id))
      throw error("pipeline: on_query_decision(" + std::to_string(id) +
                  "): unknown query id");
    auto nreg = snapshot_registry();
    nreg->query_sinks[qset.ordinal(id)] = std::move(s);
    nreg->index_sinks();
    // Registry-only epoch: the engines already evaluate this query, only
    // the delivery plan changes.
    swap_epoch(std::move(nreg), false);
  }

  /// Shared entry gate of the streaming calls: validate under state_mutex
  /// and flip to streaming. Returns an error message or nullopt; never
  /// holds state_mutex beyond the check.
  std::optional<std::string> enter_streaming(const char* op,
                                            std::size_t shard) {
    std::lock_guard<std::mutex> lock(state_mutex);
    if (state.load(std::memory_order_relaxed) == phase::done)
      return std::string("pipeline: ") + op + "() after finish()/run()";
    if (!inputs.empty())
      return std::string("pipeline: ") + op +
             "() on a pipeline with bound inputs - use run(), or build "
             "without inputs to stream";
    if (shard >= stream_count())
      return "pipeline: shard " + std::to_string(shard) +
             " out of range (" + std::to_string(stream_count()) +
             " streams)";
    state.store(phase::streaming, std::memory_order_relaxed);
    return std::nullopt;
  }

  bool done() const {
    return state.load(std::memory_order_acquire) == phase::done;
  }
};

// ---------------------------------------------------------------------------
// pipeline

pipeline::pipeline(std::unique_ptr<impl> impl) : impl_(std::move(impl)) {}
pipeline::~pipeline() = default;
pipeline::pipeline(pipeline&&) noexcept = default;
pipeline& pipeline::operator=(pipeline&&) noexcept = default;

pipeline_builder pipeline::make() { return pipeline_builder{}; }

const core::expr_ptr& pipeline::expression() const noexcept {
  return impl_->expr;
}

const query::query* pipeline::parsed_query() const noexcept {
  return impl_->q ? &*impl_->q : nullptr;
}

const pipeline_options& pipeline::options() const noexcept {
  return impl_->opts;
}

std::size_t pipeline::shard_count() const noexcept {
  return impl_->stream_count();
}

expected<run_result> pipeline::run() {
  {
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    if (impl_->state.load(std::memory_order_relaxed) != impl::phase::idle)
      return unexpected("pipeline: run() after the pipeline already executed "
                        "(streaming surface or a previous run)");
    if (impl_->inputs.empty())
      return unexpected("pipeline: run() needs at least one bound input "
                        "(input / input_text / input_file / source)");
    impl_->state.store(impl::phase::done, std::memory_order_release);
  }
  // state_mutex is released before the batch executes, so a sink that
  // (wrongly) re-enters the pipeline gets a clean error, not a deadlock.
  try {
    return impl_->run_batch();
  } catch (const parse_error& e) {
    return unexpected(error_info::from(e));
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<std::uint64_t> pipeline::offer(std::size_t shard,
                                        std::string_view bytes) {
  try {
    if (auto err = impl_->enter_streaming("offer", shard))
      return unexpected(std::move(*err));
    impl::stream_state& st = *impl_->streams[shard];
    {
      std::lock_guard<std::mutex> gate(st.gate);
      // Re-check after winning the gate: a finish() that overtook us
      // (gates are taken after the state flips) must not be scanned past.
      if (impl_->done())
        return unexpected("pipeline: offer() after finish()/run()");
      impl_->offer_bytes(shard, bytes);
      impl_->stage_decisions(shard);
    }
    impl_->flush_decisions(shard);
    return static_cast<std::uint64_t>(bytes.size());
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<std::uint64_t> pipeline::offer(std::string_view bytes) {
  if (impl_->stream_count() <= 1) return offer(0, bytes);
  // Multi-stream pipeline, no shard named: deal complete records
  // round-robin (record k -> shard k % streams). The router is one shared
  // cursor, so shard-less producers serialize on it - producers that want
  // the concurrent path name their shard.
  try {
    if (auto err = impl_->enter_streaming("offer", 0))
      return unexpected(std::move(*err));
    {
      std::lock_guard<std::mutex> router(impl_->router_mutex);
      const std::vector<std::string> batches = impl_->route_records(bytes);
      for (std::size_t shard = 0; shard < batches.size(); ++shard) {
        if (batches[shard].empty()) continue;
        std::lock_guard<std::mutex> gate(impl_->streams[shard]->gate);
        if (impl_->done())
          return unexpected("pipeline: offer() after finish()/run()");
        impl_->offer_bytes(shard, batches[shard]);
        impl_->stage_decisions(shard);
      }
    }
    for (std::size_t shard = 0; shard < impl_->streams.size(); ++shard)
      impl_->flush_decisions(shard);
    return static_cast<std::uint64_t>(bytes.size());
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<std::uint64_t> pipeline::try_offer(std::size_t shard,
                                            std::string_view bytes) {
  try {
    if (auto err = impl_->enter_streaming("try_offer", shard))
      return unexpected(std::move(*err));
    impl::stream_state& st = *impl_->streams[shard];
    std::uint64_t taken = 0;
    {
      std::lock_guard<std::mutex> gate(st.gate);
      if (impl_->done())
        return unexpected("pipeline: try_offer() after finish()/run()");
      // Bounded by the lane's free FIFO space; never drains in-line.
      taken = impl_->sharded->offer(shard, bytes);
    }
    impl_->flush_decisions(shard);
    return taken;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<std::uint64_t> pipeline::pump() {
  try {
    if (impl_->done())
      return unexpected("pipeline: pump() after finish()/run()");
    std::uint64_t observed = 0;
    for (std::size_t shard = 0; shard < impl_->streams.size(); ++shard) {
      {
        std::lock_guard<std::mutex> gate(impl_->streams[shard]->gate);
        if (impl_->done()) break;
        impl_->sharded->pump_shard(shard);
        observed += impl_->stage_decisions(shard);
      }
      impl_->flush_decisions(shard);
    }
    return observed;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<std::uint64_t> pipeline::pump(std::size_t shard) {
  try {
    if (impl_->done())
      return unexpected("pipeline: pump() after finish()/run()");
    if (shard >= impl_->stream_count())
      return unexpected("pipeline: shard " + std::to_string(shard) +
                        " out of range (" +
                        std::to_string(impl_->stream_count()) + " streams)");
    std::uint64_t observed = 0;
    {
      std::lock_guard<std::mutex> gate(impl_->streams[shard]->gate);
      if (!impl_->done()) {
        impl_->sharded->pump_shard(shard);
        observed = impl_->stage_decisions(shard);
      }
    }
    impl_->flush_decisions(shard);
    return observed;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<run_result> pipeline::finish() {
  try {
    {
      std::lock_guard<std::mutex> lock(impl_->state_mutex);
      if (impl_->state.load(std::memory_order_relaxed) == impl::phase::done)
        return unexpected("pipeline: finish() after finish()/run()");
      if (!impl_->inputs.empty())
        return unexpected("pipeline: finish() on a pipeline with bound "
                          "inputs - use run()");
      impl_->state.store(impl::phase::done, std::memory_order_release);
    }
    // Quiesce: in-flight offers either finished before the store above or
    // will fail their post-gate re-check; waiting on every gate (in index
    // order, after the router so a shard-less offer cannot interleave)
    // guarantees the former have drained before the final flush.
    std::lock_guard<std::mutex> router(impl_->router_mutex);
    std::vector<std::unique_lock<std::mutex>> gates;
    gates.reserve(impl_->streams.size());
    for (auto& st : impl_->streams) gates.emplace_back(st->gate);
    if (!impl_->router_carry.empty()) {
      // Trailing partial record of the shard-less overload: it belongs to
      // the shard the round-robin cursor owes it to.
      impl_->offer_bytes(impl_->router_next_shard, impl_->router_carry);
      impl_->router_carry.clear();
    }
    impl_->sharded->finish();
    for (std::size_t shard = 0; shard < impl_->streams.size(); ++shard)
      impl_->stage_decisions(shard);
    gates.clear();
    for (std::size_t shard = 0; shard < impl_->streams.size(); ++shard)
      impl_->flush_decisions(shard);
    return impl_->collect();
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

namespace {

core::expr_ptr compile_for(const pipeline_options& opts,
                           const query::query& q) {
  query::compile_options co;
  co.group = opts.group;
  return query::compile_default(q, opts.block, co);
}

}  // namespace

expected<core::query_id> pipeline::add_query(core::expr_ptr expr,
                                             decision_sink query_sink) {
  try {
    return impl_->add_query_impl(std::move(expr), std::move(query_sink));
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<core::query_id> pipeline::add_query(std::string_view filter_expression,
                                             decision_sink query_sink,
                                             query::data_model model) {
  try {
    const query::query q =
        query::parse_filter_expression(filter_expression, model);
    return impl_->add_query_impl(compile_for(impl_->opts, q),
                                 std::move(query_sink));
  } catch (const parse_error& e) {
    return unexpected(error_info::from(e));
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<core::query_id> pipeline::add_jsonpath(std::string_view text,
                                                decision_sink query_sink) {
  try {
    const query::query q = query::parse_jsonpath(text);
    return impl_->add_query_impl(compile_for(impl_->opts, q),
                                 std::move(query_sink));
  } catch (const parse_error& e) {
    return unexpected(error_info::from(e));
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<bool> pipeline::remove_query(core::query_id id) {
  try {
    impl_->remove_query_impl(id);
    return true;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

expected<bool> pipeline::on_query_decision(core::query_id id,
                                           decision_sink sink) {
  try {
    impl_->attach_query_sink(id, std::move(sink));
    return true;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

std::vector<core::query_id> pipeline::query_ids() const {
  std::lock_guard<std::mutex> mu(impl_->mutation_mutex);
  return impl_->qset.ids();
}

expected<std::vector<system::shard_stats>> pipeline::stats() const {
  try {
    return impl_->sharded->report().shards;
  } catch (const std::exception& e) {
    return unexpected(error_info::from(e));
  }
}

// ---------------------------------------------------------------------------
// pipeline_builder

struct pipeline_builder::state {
  pipeline_options opts;

  enum class source_kind { none, filter_expr, jsonpath, parsed, expr };
  source_kind qsrc = source_kind::none;
  bool duplicate_query = false;
  bool consumed = false;    // build() succeeded; the builder is spent
  bool shards_set = false;  // shards() called explicitly
  std::optional<std::string> bad_simd;  // unparseable simd("...") argument
  std::string qtext;
  query::data_model qmodel = query::data_model::flat;
  std::optional<query::query> parsed;
  core::expr_ptr expr;

  // Additional resident queries beyond the primary source, in add order
  // (ids are assigned in this order, primary first).
  struct extra_query {
    source_kind k = source_kind::none;
    std::string text;
    query::data_model model = query::data_model::flat;
    std::optional<query::query> parsed;
    core::expr_ptr expr;
  };
  std::vector<extra_query> extras;

  std::vector<input_spec> inputs;
  decision_sink sink;
  verdict_sink vsink;

  // Projection: project() / project(path_set) / on_projection().
  bool project = false;
  std::optional<project::path_set> project_paths;  // explicit targets
  projection_sink psink;

  void set_source(source_kind kind) {
    // Re-setting the same kind replaces it (the retry-after-parse-error
    // flow); mixing kinds is the misuse the duplicate diagnosis catches.
    if (qsrc != source_kind::none && qsrc != kind) duplicate_query = true;
    qsrc = kind;
  }
};

pipeline_builder::pipeline_builder() : state_(std::make_unique<state>()) {}
pipeline_builder::~pipeline_builder() = default;
pipeline_builder::pipeline_builder(pipeline_builder&&) noexcept = default;
pipeline_builder& pipeline_builder::operator=(pipeline_builder&&) noexcept =
    default;

pipeline_builder& pipeline_builder::filter_expression(std::string_view text,
                                                      query::data_model model) {
  state_->set_source(state::source_kind::filter_expr);
  state_->qtext = std::string(text);
  state_->qmodel = model;
  return *this;
}

pipeline_builder& pipeline_builder::jsonpath(std::string_view text) {
  state_->set_source(state::source_kind::jsonpath);
  state_->qtext = std::string(text);
  return *this;
}

pipeline_builder& pipeline_builder::from_query(query::query q) {
  state_->set_source(state::source_kind::parsed);
  state_->parsed = std::move(q);
  return *this;
}

pipeline_builder& pipeline_builder::raw_filter(core::expr_ptr expr) {
  state_->set_source(state::source_kind::expr);
  state_->expr = std::move(expr);
  return *this;
}

pipeline_builder& pipeline_builder::add_filter_expression(
    std::string_view text, query::data_model model) {
  state::extra_query ex;
  ex.k = state::source_kind::filter_expr;
  ex.text = std::string(text);
  ex.model = model;
  state_->extras.push_back(std::move(ex));
  return *this;
}

pipeline_builder& pipeline_builder::add_jsonpath(std::string_view text) {
  state::extra_query ex;
  ex.k = state::source_kind::jsonpath;
  ex.text = std::string(text);
  state_->extras.push_back(std::move(ex));
  return *this;
}

pipeline_builder& pipeline_builder::add_query(query::query q) {
  state::extra_query ex;
  ex.k = state::source_kind::parsed;
  ex.parsed = std::move(q);
  state_->extras.push_back(std::move(ex));
  return *this;
}

pipeline_builder& pipeline_builder::add_raw_filter(core::expr_ptr expr) {
  state::extra_query ex;
  ex.k = state::source_kind::expr;
  ex.expr = std::move(expr);
  state_->extras.push_back(std::move(ex));
  return *this;
}

pipeline_builder& pipeline_builder::block(int b) {
  state_->opts.block = b;
  return *this;
}

pipeline_builder& pipeline_builder::group(core::group_kind kind) {
  state_->opts.group = kind;
  return *this;
}

pipeline_builder& pipeline_builder::backend(backend_kind) { return *this; }

pipeline_builder& pipeline_builder::shards(std::size_t n) {
  state_->opts.shards = n;
  state_->shards_set = true;
  return *this;
}

pipeline_builder& pipeline_builder::worker_threads(std::size_t n) {
  state_->opts.worker_threads = n;
  return *this;
}

pipeline_builder& pipeline_builder::lane_fifo_bytes(std::size_t n) {
  state_->opts.lane_fifo_bytes = n;
  return *this;
}

pipeline_builder& pipeline_builder::dma_burst_bytes(std::size_t n) {
  state_->opts.dma_burst_bytes = n;
  return *this;
}

pipeline_builder& pipeline_builder::separator(unsigned char s) {
  state_->opts.filter.separator = s;
  return *this;
}

pipeline_builder& pipeline_builder::simd(core::simd::simd_level level) {
  state_->opts.filter.simd = level;
  state_->bad_simd.reset();
  return *this;
}

pipeline_builder& pipeline_builder::simd(std::string_view level) {
  // Unknown names are diagnosed at build(), keeping the fluent chain
  // noexcept like every other setter.
  const auto parsed = core::simd::parse_level(level);
  if (parsed.has_value()) {
    state_->opts.filter.simd = *parsed;
    state_->bad_simd.reset();
  } else {
    state_->bad_simd = std::string(level);
  }
  return *this;
}

pipeline_builder& pipeline_builder::options(pipeline_options o) {
  state_->opts = std::move(o);
  return *this;
}

pipeline_builder& pipeline_builder::input(std::string_view buffer) {
  input_spec in;
  in.k = input_spec::kind::view;
  in.view = buffer;
  state_->inputs.push_back(std::move(in));
  return *this;
}

pipeline_builder& pipeline_builder::input_text(std::string text) {
  input_spec in;
  in.k = input_spec::kind::text;
  in.text = std::move(text);
  state_->inputs.push_back(std::move(in));
  return *this;
}

pipeline_builder& pipeline_builder::input_file(std::string path) {
  input_spec in;
  in.k = input_spec::kind::file;
  in.path = std::move(path);
  state_->inputs.push_back(std::move(in));
  return *this;
}

pipeline_builder& pipeline_builder::source(
    std::unique_ptr<system::ingest_source> src) {
  input_spec in;
  in.k = input_spec::kind::custom;
  in.source = std::move(src);
  state_->inputs.push_back(std::move(in));
  return *this;
}

pipeline_builder& pipeline_builder::on_decision(decision_sink sink) {
  state_->sink = std::move(sink);
  return *this;
}

pipeline_builder& pipeline_builder::on_verdict(verdict_sink sink) {
  state_->vsink = std::move(sink);
  return *this;
}

pipeline_builder& pipeline_builder::project() {
  state_->project = true;
  return *this;
}

pipeline_builder& pipeline_builder::project(project::path_set paths) {
  state_->project = true;
  state_->project_paths = std::move(paths);
  return *this;
}

pipeline_builder& pipeline_builder::projection_batch_rows(std::size_t rows) {
  state_->opts.projection_batch_rows = rows;
  return *this;
}

pipeline_builder& pipeline_builder::on_projection(projection_sink sink) {
  // A sink implies projection (derive mode unless project(path_set) also
  // names the targets explicitly).
  state_->project = true;
  state_->psink = std::move(sink);
  return *this;
}

expected<pipeline> pipeline_builder::build() {
  state& s = *state_;
  if (s.consumed)
    return unexpected("pipeline builder: build() already consumed this "
                      "builder");

  // --- configuration validation (before any parsing work) ---
  if (s.qsrc == state::source_kind::none)
    return unexpected("pipeline: no query source given - call one of "
                      "filter_expression / jsonpath / from_query / "
                      "raw_filter");
  if (s.duplicate_query)
    return unexpected("pipeline: more than one query source given - exactly "
                      "one of filter_expression / jsonpath / from_query / "
                      "raw_filter");
  if (s.opts.dma_burst_bytes == 0)
    return unexpected("pipeline: dma_burst_bytes must be non-zero");
  if (s.opts.clock_mhz <= 0.0)
    return unexpected("pipeline: clock_mhz must be positive");
  if (s.opts.block < 0)
    return unexpected("pipeline: negative block length");
  if (s.bad_simd)
    return unexpected("pipeline: unknown simd level \"" + *s.bad_simd +
                      "\" - one of automatic / scalar / sse2 / avx2 / avx512");
  for (const input_spec& in : s.inputs)
    if (in.k == input_spec::kind::custom && !in.source)
      return unexpected("pipeline: null ingest source bound");
  for (const state::extra_query& ex : s.extras)
    if (ex.k == state::source_kind::expr && !ex.expr)
      return unexpected("pipeline: add_raw_filter(null expression)");
  if (s.opts.lane_fifo_bytes == 0)
    return unexpected("pipeline: lane_fifo_bytes must be non-zero");
  if (s.inputs.empty() && s.opts.shards == 0)
    return unexpected("pipeline: shards must be >= 1 (or bound inputs, one "
                      "shard each)");
  if (s.shards_set && !s.inputs.empty() && s.opts.shards != s.inputs.size())
    return unexpected("pipeline: shards(" + std::to_string(s.opts.shards) +
                      ") conflicts with " + std::to_string(s.inputs.size()) +
                      " bound inputs - each input is its own shard");
  if (s.project) {
    if (s.opts.projection_batch_rows == 0)
      return unexpected("pipeline: projection_batch_rows must be non-zero");
    // The extraction walk reads the records' structural bitmap; a record
    // separator that IS a structural byte would fold separator hits into
    // the walk's event stream.
    if (std::string_view("{}[],\"").find(
            static_cast<char>(s.opts.filter.separator)) !=
        std::string_view::npos)
      return unexpected("pipeline: projection cannot run with a JSON "
                        "structural byte as the record separator");
    if (s.project_paths && s.project_paths->empty())
      return unexpected("pipeline: project(path_set) given an empty set");
  }

  // --- parse + compile: the exception/expected boundary. parse_error byte
  // offsets cross it intact via error_info::offset. A failed build leaves
  // the builder fully retryable: the sink and query sources are copied,
  // and the (move-only) inputs are handed back on the error path.
  auto impl = std::make_unique<pipeline::impl>();
  impl->opts = s.opts;
  impl->sink = s.sink;
  impl->vsink = s.vsink;
  impl->inputs = std::move(s.inputs);
  try {
    switch (s.qsrc) {
      case state::source_kind::filter_expr:
        impl->q = query::parse_filter_expression(s.qtext, s.qmodel);
        break;
      case state::source_kind::jsonpath:
        impl->q = query::parse_jsonpath(s.qtext);
        break;
      case state::source_kind::parsed:
        impl->q = s.parsed;
        break;
      case state::source_kind::expr:
        impl->expr = s.expr;
        break;
      case state::source_kind::none:
        break;  // unreachable, validated above
    }
    if (impl->q) {
      query::compile_options co;
      co.group = s.opts.group;
      impl->expr = query::compile_default(*impl->q, s.opts.block, co);
    }
    // The resident query set: primary source first (query 0), then every
    // add_* query in call order. A one-element set compiles to exactly
    // the single-query engines - the multi-tenant bookkeeping stays off
    // unless a second query or a bitmap sink asks for it.
    impl->qset.add(impl->expr);
    // Projection derive mode reads the parsed query forms, so the extras
    // loop keeps them alongside the compiled expressions. Raw expressions
    // carry no attribute names - derive mode refuses them below.
    std::vector<query::query> parsed_queries;
    bool raw_expr_query = !impl->q;
    if (impl->q) parsed_queries.push_back(*impl->q);
    for (const state::extra_query& ex : s.extras) {
      switch (ex.k) {
        case state::source_kind::filter_expr: {
          query::query q = query::parse_filter_expression(ex.text, ex.model);
          impl->qset.add(compile_for(s.opts, q));
          parsed_queries.push_back(std::move(q));
          break;
        }
        case state::source_kind::jsonpath: {
          query::query q = query::parse_jsonpath(ex.text);
          impl->qset.add(compile_for(s.opts, q));
          parsed_queries.push_back(std::move(q));
          break;
        }
        case state::source_kind::parsed:
          impl->qset.add(compile_for(s.opts, *ex.parsed));
          parsed_queries.push_back(*ex.parsed);
          break;
        case state::source_kind::expr:
          impl->qset.add(ex.expr);
          raw_expr_query = true;
          break;
        case state::source_kind::none:
          break;  // unreachable, extras always carry a kind
      }
    }
    if (s.project) {
      if (s.project_paths) {
        impl->paths = *s.project_paths;
      } else {
        if (raw_expr_query)
          throw error("pipeline: projection cannot derive paths from a raw "
                      "filter expression - name the targets with "
                      "project(path_set)");
        impl->paths = project::derive_paths(parsed_queries);
      }
      if (impl->paths.empty())
        throw error("pipeline: projection derived no paths from the "
                    "resident queries");
      impl->project_enabled = true;
      impl->psink = s.psink;
    }
    impl->reg = impl->snapshot_registry();
    if (impl->qset.size() > 1 || impl->vsink)
      impl->multi.store(true, std::memory_order_relaxed);
    // Stand the execution state up eagerly: engine compilation, lane
    // clones and the worker pool all belong to build(), so run()/offer()
    // spend their time on steady-state filtering only (the wall-clock
    // benches time run() alone).
    impl->start_exec();
  } catch (const std::exception& e) {
    s.inputs = std::move(impl->inputs);
    const auto* pe = dynamic_cast<const parse_error*>(&e);
    return unexpected(pe ? error_info::from(*pe) : error_info::from(e));
  }

  s.consumed = true;
  return pipeline(std::move(impl));
}

}  // namespace jrf
