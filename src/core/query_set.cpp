#include "core/query_set.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace jrf::core {

query_id query_set::add(expr_ptr query) {
  if (!query) throw error("query set: null query expression");
  const query_id id = next_id_++;
  ids_.push_back(id);
  queries_.push_back(std::move(query));
  ++revision_;
  return id;
}

bool query_set::remove(query_id id) {
  const auto it = std::ranges::find(ids_, id);
  if (it == ids_.end()) return false;
  const auto at = static_cast<std::size_t>(it - ids_.begin());
  ids_.erase(it);
  queries_.erase(queries_.begin() + static_cast<std::ptrdiff_t>(at));
  ++revision_;
  return true;
}

bool query_set::contains(query_id id) const noexcept {
  return std::ranges::find(ids_, id) != ids_.end();
}

const expr_ptr& query_set::query(query_id id) const {
  return queries_[ordinal(id)];
}

std::size_t query_set::ordinal(query_id id) const {
  const auto it = std::ranges::find(ids_, id);
  if (it == ids_.end()) throw error("query set: unknown query id");
  return static_cast<std::size_t>(it - ids_.begin());
}

compiled_layout query_set::compile(
    simd::simd_level level, const compiled_layout::engine_pool* reuse) const {
  if (queries_.empty()) throw error("query set: compile of empty set");
  if (queries_.size() == 1)
    return compiled_layout::compile(*queries_.front(), level, reuse);
  return compiled_layout::compile_set(queries_, level, reuse);
}

std::unique_ptr<filter_engine> query_set::make_engine(
    engine_kind kind, filter_options options) const {
  if (queries_.empty()) throw error("query set: engine over empty set");
  return make_filter_engine(kind, queries_, options);
}

}  // namespace jrf::core
