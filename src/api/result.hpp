// Result surface of the jrf::pipeline facade.
//
// run() and finish() report through run_result: the merged
// cycle-quantized throughput_report of the Figure-4 model (one lane per
// shard), per-shard service stats, and the per-record decisions both
// merged (shard order) and split per shard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/query_set.hpp"
#include "project/columns.hpp"
#include "system/sharded.hpp"
#include "system/system.hpp"

namespace jrf {

/// One resident query's decision column on one shard of a multi-tenant
/// pipeline. Ids are never reused, so every query has exactly one
/// contiguous residency span: decisions[k] is the verdict of per-shard
/// record first_record + k, from the record the query became resident
/// until it was removed (or the stream ended).
struct query_column {
  core::query_id id = 0;
  std::uint64_t first_record = 0;
  std::vector<bool> decisions;
};

struct run_result {
  /// Merged cycle-quantized accounting (system::model_report semantics,
  /// the merged sharded_report view).
  system::throughput_report report;

  /// One entry per shard: offered/filtered bytes, records, accepted,
  /// backpressure counters, FIFO high-watermark.
  std::vector<system::shard_stats> shards;

  /// Per-record decisions, per shard, in each stream's record order.
  std::vector<std::vector<bool>> shard_decisions;

  /// Merged decisions: shard_decisions concatenated in shard order (for
  /// a single shard this IS the stream order).
  std::vector<bool> decisions;

  /// Multi-tenant pipelines only (more than one resident query, a verdict
  /// or per-query sink, or any runtime add/remove): the query ids resident
  /// when the stream ended, dense order == decision-bitmap bit order.
  /// Empty for plain single-query pipelines.
  std::vector<core::query_id> query_ids;

  /// Per shard, one decision column per query ever resident on that
  /// stream (including queries removed mid-stream), in order of first
  /// residency. Parallel to shard_decisions: column bit k of query q is
  /// that query's verdict on per-shard record q.first_record + k.
  std::vector<std::vector<query_column>> shard_query_columns;

  /// Projecting pipelines without an on_projection sink: the columnar
  /// batches of every accepted record's extracted paths, in shard order
  /// and per shard in flush order (batch.shard names the stream; each
  /// batch's `records` are that shard's per-record indices, matching
  /// shard_decisions). Empty when projection is off or a sink consumed
  /// the batches as they flushed.
  std::vector<project::column_batch> projection;

  std::uint64_t records() const noexcept { return report.records; }
  std::uint64_t accepted() const noexcept { return report.accepted; }

  std::string to_string() const;
};

}  // namespace jrf
