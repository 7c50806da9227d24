// The three workloads, the per-layer ladder, and what they share.
//
// A workload runs its timed window against the program's public APIs,
// checks every answer against the serial executors, and adds its metrics to
// the run record: the end-to-end set untraced, the per-layer set traced.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "archive/tiled.hpp"
#include "engine/cache.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "support.hpp"
#include "util/interval.hpp"
#include "verify.hpp"

namespace perfbench {

void run_scan_cold(const RunOptions& opts, SpanLog& spans, RunResult& result);
void run_serve_zipf(const RunOptions& opts, SpanLog& spans, RunResult& result);
void run_fleet_scan(const RunOptions& opts, SpanLog& spans, RunResult& result);

/// Self-tests (smoke mode): verifier rejection and seed determinism.
[[nodiscard]] int run_selftest(const RunOptions& opts);

// ------------------------------------------------------------------ ladder
// One representative query of a workload sent down every layer's public
// entry point, so each layer's cost over the layer below is explicit.

enum class LadderMode { kFullScan, kCombined };

struct LadderSpec {
  const mmir::TiledArchive* archive = nullptr;
  std::vector<mmir::Interval> ranges;
  LadderMode mode = LadderMode::kCombined;
  std::size_t intra_query_threads = 0;  ///< the workload engine's pool size
  std::uint64_t seed = 1;
  bool smoke = false;
};

/// Adds core.*, engine.parallel.*, engine.shard.*, engine.scheduler.overhead_ms,
/// engine.cache.hit_us, engine.batch.member_ms and net.* to `result`; every
/// ladder answer is checked against the serial executor.
void run_ladder(const LadderSpec& spec, SpanLog& spans, RunResult& result);

// ------------------------------------------------------------------ shared

/// Median of repeated set-ups, and what each ingest cost.
struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  std::vector<double> summarize_ms;
  std::vector<double> summarize_mb_s;

  void add_ingest(const LoadedArchive& data);
  [[nodiscard]] double ingest_ms() const;
};

/// The end-to-end metric set every workload reports.
struct EndToEnd {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double slo_pct = 0.0;
  double ingest_ms = 0.0;
  double setup_s = 0.0;
};
void add_end_to_end(const EndToEnd& e, RunResult& result);

/// Per-layer facts a workload's own engine run yields (traced runs).
struct WorkloadLayers {
  const SetupTimes* ingests = nullptr;  ///< load / summarize samples
  double queue_wait_p99_ms = 0.0;
  mmir::obs::MetricsSnapshot engine;  ///< the workload engines' registry
  mmir::CacheStats result_cache;
  mmir::CacheStats tile_cache;
  double tracing_overhead_pct = 0.0;
};
void add_workload_layers(const WorkloadLayers& w, RunResult& result);

/// Traced runs alternate traced and untraced slices of a closed loop so the
/// tracing tax is measured inside one process: qps of each side.
class TraceSlices {
 public:
  TraceSlices(SpanLog& spans, bool traced_run, double slice_s)
      : spans_(spans), traced_run_(traced_run), slice_s_(slice_s), start_(Clock::now()) {}

  /// Switches the span log on for odd slices; returns whether it is on.
  bool update();
  void completed(std::uint64_t n = 1);
  /// 100 * (untraced qps - traced qps) / untraced qps.
  [[nodiscard]] double overhead_pct() const;

 private:
  SpanLog& spans_;
  bool traced_run_;
  double slice_s_;
  Clock::time_point start_;
  Clock::time_point last_ = start_;
  bool current_ = false;
  double seconds_[2] = {0.0, 0.0};
  std::uint64_t done_[2] = {0, 0};
};

/// Percentile line for stdout, with the sample counts beyond p95 and p99.
void print_latency(const char* label, const std::vector<double>& ms);

/// Repeated set-up: `set_up()` runs kSetupReps times (each result replacing
/// the last) and its wall times go to `times.setup_s`; the last result is
/// kept.  Every rep builds anew, so setup_s is a median of real
/// set-ups, not of one set-up and its warm caches.
inline constexpr int kSetupReps = 5;
template <typename SetUp>
auto set_up_repeatedly(SetupTimes& times, SetUp&& set_up) {
  decltype(set_up()) fixture;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fixture = nullptr;
    const Clock::time_point t0 = Clock::now();
    fixture = set_up();
    times.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return fixture;
}

// ------------------------------------------------------------------ closed loop

struct LoopRecord {
  double latency_ms = 0.0;
  double queue_wait_ms = 0.0;
  Answer answer;
  std::string error;  ///< exception text; the request counts as failed
};

struct ClosedLoop {
  std::vector<LoopRecord> records;
  double elapsed_s = 0.0;
  double tracing_overhead_pct = 0.0;
};

/// One client with one request outstanding, for opts.seconds.  `call(i, r,
/// span)` sends request i and fills r.answer (and r.queue_wait_ms); the
/// call is timed as the request's latency, under a root span "query" whose
/// id it gets for child spans.  Traced runs alternate traced and untraced
/// 1-second slices, which gives the tracing overhead.
template <typename Call>
ClosedLoop run_closed_loop(const RunOptions& opts, SpanLog& spans, RunResult& result,
                           const char* what, Call&& call) {
  ClosedLoop loop;
  TraceSlices slices(spans, opts.trace, 1.0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = start + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(opts.seconds));
  for (std::uint64_t i = 0; Clock::now() < stop; ++i) {
    slices.update();
    LoopRecord& r = loop.records.emplace_back();
    result.attempt();
    try {
      const ScopedSpan query(spans, "query", 0, i + 1);
      const Clock::time_point t0 = Clock::now();
      call(i, r, query.id());
      r.latency_ms = ms_between(t0, Clock::now());
      slices.completed();
    } catch (const std::exception& e) {
      r.error = std::string(what) + ": exception: " + e.what();
    }
  }
  slices.update();
  spans.set_enabled(false);
  loop.elapsed_s = ms_between(start, Clock::now()) / 1e3;
  loop.tracing_overhead_pct = slices.overhead_pct();
  return loop;
}

struct LoopSummary {
  std::vector<double> latencies;    ///< answered (not shed) requests
  std::vector<double> queue_waits;
  double qps = 0.0;
  double slo_pct = 0.0;  ///< correct within `slo_ms`, of all attempted
};

/// Checks every answer against the serial answer `want(i)` (outside the
/// timed window, in parallel), tallies failures, and summarizes latency.
LoopSummary check_closed_loop(const ClosedLoop& loop,
                              const std::function<mmir::RasterTopK(std::size_t)>& want,
                              double slo_ms, const char* what, RunResult& result);

}  // namespace perfbench
