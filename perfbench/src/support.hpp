// Shared plumbing of the benchmark binary: seeded generators, order
// statistics, the result record printed as the last stdout line, the
// benchmark-side span log, and the host/build fingerprint.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double to_ms(std::chrono::nanoseconds d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---------------------------------------------------------------- generators
// Every input is a pure function of (seed, stream, index): splitmix64 rather
// than <random> distributions, whose output is implementation-defined.

[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) noexcept
      : state_(mix64(seed ^ mix64(stream + 0x9e3779b97f4a7c15ULL))) {}
  [[nodiscard]] std::uint64_t next() noexcept;
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Exponential inter-arrival gap for a Poisson process of `rate` per second.
  [[nodiscard]] double exponential(double rate) noexcept;

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank r drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t operator()(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------- statistics

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Samples strictly beyond the nearest-rank q-quantile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);
/// a / b, or 0 when b is 0 (ratios of counters that may legitimately be empty).
[[nodiscard]] double ratio(double a, double b) noexcept;

// ---------------------------------------------------------------- run record

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  bool smoke = false;  ///< small inputs and few ladder trials (self-tests)
  std::filesystem::path workdir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last stdout line.  `failed` counts wrong
/// answers, shed requests, exceptions and unexpected statuses, by reason.
class RunResult {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& reason, std::uint64_t n = 1);
  /// Marks the run invalid without an operation failing (e.g. the open-loop
  /// generator fell behind its schedule).
  void invalidate(const std::string& reason);
  void add(std::string name, double value, std::string unit);

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0 && invalid_.empty(); }

  /// Human summary of failures / invalidity (stdout, before the JSON line).
  void print_problems() const;
  [[nodiscard]] std::string to_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> failures_;
  std::vector<std::string> invalid_;
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------- spans
// The benchmark's own trace: one span per call the benchmark makes into a
// layer.  Spans sharing a query id belong to one request.  Kept in memory and
// written out when the run ends; a disabled log records nothing.

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t query = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] std::uint64_t new_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(SpanRecord span);

  /// Per span name: count, median duration and median self time (duration
  /// minus the part of its interval its children cover).
  void print_summary() const;
  void write_json(const std::filesystem::path& path, const std::string& fingerprint) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; inert when the log is disabled.  `name` must outlive it.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t parent, std::uint64_t query);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog* log_ = nullptr;
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  std::uint64_t query_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------- host

/// Peak resident set size of this process (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();
/// nproc, CPU model, L3 size, build type/flags, commit and source digest.
[[nodiscard]] std::string fingerprint_json();

}  // namespace perfbench
