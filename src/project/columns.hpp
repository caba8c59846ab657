// Columnar batching of projected fields - the structured handoff format.
//
// The tape (project/tape.hpp) is the filter-side accumulation: row-major,
// arena-backed, escaped raw bytes. Downstream analytics wants the
// transpose: one typed vector per queried path with null bitmaps, the
// shape a columnar engine (or an Arrow-style consumer) ingests without
// another pivot - the same handoff the near-memory and FPGA-to-database
// literature argues for (PAPERS.md: Singh et al., bolson's JSON-to-Arrow
// converter). column_builder performs that pivot off the hot path:
// append() transposes whole tapes, flush() emits a self-contained
// column_batch and resets, so a pipeline flushes every N accepted records
// (pipeline_options::projection_batch_rows) and the batch lifetime is
// independent of the ingest buffers the tape pointed into.
//
// Per row and column the batch carries:
//   * the JSON type (value_type; missing = record has no such path),
//   * a present bitmap (bit clear = null/missing - the null bitmap),
//   * a numeric bitmap + double vector (JSON numbers, plus numeric
//     STRINGS, because SenML carries measurements as quoted decimals),
//   * the textual value (strings unescaped; everything else raw input
//     text) in one offsets+bytes arena per column.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "project/paths.hpp"
#include "project/tape.hpp"

namespace jrf::project {

/// One projected path's column of a batch. Vectors are row-aligned with
/// column_batch::records; bitmaps are LSB-first 64-bit words.
struct column_data {
  std::string name;  // the path target's attribute
  query::data_model model = query::data_model::flat;
  std::vector<value_type> types;          // per-row JSON type
  std::vector<std::uint64_t> present;     // bit set = field exists
  std::vector<std::uint64_t> numeric;     // bit set = numbers[row] valid
  std::vector<double> numbers;            // 0.0 where not numeric
  std::vector<std::uint32_t> offsets;     // rows+1 bounds into text
  std::string text;                       // concatenated textual values

  bool present_at(std::size_t row) const noexcept {
    return (present[row >> 6] >> (row & 63)) & 1;
  }
  bool numeric_at(std::size_t row) const noexcept {
    return (numeric[row >> 6] >> (row & 63)) & 1;
  }
  std::string_view text_at(std::size_t row) const noexcept {
    return std::string_view(text).substr(offsets[row],
                                         offsets[row + 1] - offsets[row]);
  }
};

/// Self-contained batch of projected rows: `records` holds the accepted
/// records' ordinals (the per-shard record index of the facade),
/// `columns` one entry per path ordinal of the projecting path_set.
struct column_batch {
  std::size_t shard = 0;
  std::vector<std::uint64_t> records;
  std::vector<column_data> columns;

  std::size_t rows() const noexcept { return records.size(); }
};

/// Transposes tapes into column batches. One instance per filter lane;
/// flush() hands off a finished batch and resets the accumulator.
class column_builder {
 public:
  explicit column_builder(const path_set& paths);

  /// Transpose every row of `t` into the accumulating batch. The tape's
  /// path_count must match the builder's path_set.
  void append(const tape& t);

  std::size_t rows() const noexcept { return batch_.records.size(); }

  /// Move out the accumulated batch (stamped with `shard`) and reset.
  column_batch flush(std::size_t shard = 0);

 private:
  void reset();

  path_set paths_;
  column_batch batch_;
};

}  // namespace jrf::project
