// Statistics, /proc memory accounting, the span recorder and the result line.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfbench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // frac == 0 returns the sample itself (also when its neighbour is inf).
  return frac == 0.0 ? values[lo] : values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// A "Name:   <kB> kB" line of /proc/self/status, in MiB.
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0)
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
  return 0.0;
}

}  // namespace

double rss_mb() { return status_mb("VmRSS"); }
double peak_rss_mb() { return status_mb("VmHWM"); }

void reset_peak_rss() {
  // Writing 5 resets the high-water mark to the current resident size.
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

void trim_heap() { ::malloc_trim(0); }

// --- host speed ------------------------------------------------------------

namespace {

// 1 MiB of random bytes, built once per process.
std::vector<unsigned char> calibration_bytes() {
  std::vector<unsigned char> bytes(1u << 20);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (unsigned char& b : bytes) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  return bytes;
}

volatile std::uint64_t calibration_sink;

// Kernel time of an uncontended reference host (Xeon, 4 vCPUs): the scale
// of host_factor(), which leaves ratios between runs unchanged.
constexpr double kNominalUs = 1600.0;

}  // namespace

double host_factor() {
  static const std::vector<unsigned char> bytes = calibration_bytes();
  // Branchy byte classification with a running hash, as a scalar JSON
  // scanner does. One warm-up run takes the cache state the measured work
  // left behind out of the figure; the median of three runs follows.
  auto kernel = [&] {
    std::uint64_t h = 0xcbf29ce484222325ull, n = 0;
    for (const unsigned char c : bytes) {
      n += c == '"' || c == '{' || c == '}' || (c & 0x1f) == 3;
      h = (h ^ c) * 0x100000001b3ull;
    }
    return h + n;
  };
  calibration_sink = kernel();
  std::vector<double> us;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock_type::now();
    calibration_sink = kernel();
    us.push_back(micros(t0, clock_type::now()));
  }
  return median(std::move(us)) / kNominalUs;
}

// --- tracer ----------------------------------------------------------------

std::int64_t tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock_type::now() - epoch_)
      .count();
}

std::int32_t tracer::open(const char* name) {
  if (!enabled_) return -1;
  span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void tracer::close(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, tracer::layer_time> tracer::layers() const {
  // Children run inside their parent on the same thread and never overlap
  // each other, so the covered part of a parent is the sum of its
  // children's durations.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, layer_time> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    layer_time& l = out[spans_[i].name];
    l.total_ns += dur;
    l.self_ns += dur - child_ns[i];
    ++l.count;
  }
  return out;
}

bool tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

// --- report ----------------------------------------------------------------

void report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics_)
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  metrics_.push_back({name, {value, unit}});
}

void report::failed(const std::string& check, std::uint64_t n) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "perfbench: check %s failed for %llu operation(s)\n",
               check.c_str(), static_cast<unsigned long long>(n));
}

std::string report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    char number[64];
    // Non-finite values cannot appear in JSON; they are reported as 0.
    const double v = std::isfinite(value.first) ? value.first : 0.0;
    std::snprintf(number, sizeof number, "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
