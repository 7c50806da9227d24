#include "workloads.hpp"

#include <cstdio>

namespace perfbench {

void SetupTimes::add_ingest(const LoadedArchive& data) {
  load_ms.push_back(data.load_ms);
  summarize_ms.push_back(data.summarize_ms);
  summarize_mb_s.push_back(ratio(data.band_mb(), data.summarize_ms / 1e3));
}

double SetupTimes::ingest_ms() const {
  std::vector<double> total;
  for (std::size_t i = 0; i < load_ms.size(); ++i) total.push_back(load_ms[i] + summarize_ms[i]);
  return median(total);
}

void add_end_to_end(const EndToEnd& e, RunResult& result) {
  result.add("qps", e.qps, "1/s");
  result.add("p50_ms", e.p50_ms, "ms");
  result.add("p95_ms", e.p95_ms, "ms");
  result.add("slo_pct", e.slo_pct, "%");
  result.add("ingest_ms", e.ingest_ms, "ms");
  result.add("setup_s", e.setup_s, "s");
  result.add("rss_mb", peak_rss_mb(), "MiB");
}

void add_workload_layers(const WorkloadLayers& w, RunResult& result) {
  result.add("archive.load_ms", median(w.ingests->load_ms), "ms");
  result.add("archive.summarize_ms", median(w.ingests->summarize_ms), "ms");
  result.add("archive.summarize_mb_s", median(w.ingests->summarize_mb_s), "MB/s");
  result.add("engine.scheduler.queue_wait_p99_ms", w.queue_wait_p99_ms, "ms");
  const double submitted = static_cast<double>(w.engine.counter("engine_jobs_submitted_total"));
  const double shed = static_cast<double>(w.engine.counter("engine_jobs_shed_total"));
  result.add("engine.scheduler.shed_pct", 100.0 * ratio(shed, submitted), "%");
  const auto hit_pct = [](const mmir::CacheStats& s) {
    return 100.0 * ratio(static_cast<double>(s.hits), static_cast<double>(s.hits + s.misses));
  };
  result.add("engine.cache.result_hit_pct", hit_pct(w.result_cache), "%");
  result.add("engine.cache.tile_hit_pct", hit_pct(w.tile_cache), "%");
  // Unbatched engines run every query solo: fan-in 1.
  const double batches = static_cast<double>(w.engine.counter("engine_batch_batches_total"));
  const double members = static_cast<double>(w.engine.counter("engine_batch_members_total"));
  result.add("engine.batch.mean_fanin", batches == 0.0 ? 1.0 : members / batches, "count");
  result.add("obs.tracing_overhead_pct", w.tracing_overhead_pct, "%");
}

bool TraceSlices::update() {
  const Clock::time_point now = Clock::now();
  seconds_[current_ ? 1 : 0] += std::chrono::duration<double>(now - last_).count();
  last_ = now;
  const auto slice =
      static_cast<std::uint64_t>(std::chrono::duration<double>(now - start_).count() / slice_s_);
  current_ = traced_run_ && slice % 2 == 1;
  spans_.set_enabled(current_);
  return current_;
}

void TraceSlices::completed(std::uint64_t n) { done_[current_ ? 1 : 0] += n; }

double TraceSlices::overhead_pct() const {
  const double untraced = ratio(static_cast<double>(done_[0]), seconds_[0]);
  const double traced = ratio(static_cast<double>(done_[1]), seconds_[1]);
  return 100.0 * ratio(untraced - traced, untraced);
}

void print_latency(const char* label, const std::vector<double>& ms) {
  std::printf(
      "%s: n=%zu p50=%.4f ms p95=%.4f ms p99=%.4f ms max=%.4f ms (beyond p95: %zu, p99: %zu)\n",
      label, ms.size(), quantile(ms, 0.5), quantile(ms, 0.95), quantile(ms, 0.99),
      quantile(ms, 1.0), samples_beyond(ms.size(), 0.95), samples_beyond(ms.size(), 0.99));
}

LoopSummary check_closed_loop(const ClosedLoop& loop,
                              const std::function<mmir::RasterTopK(std::size_t)>& want,
                              double slo_ms, const char* what, RunResult& result) {
  const auto& records = loop.records;
  std::vector<Verdict> verdicts(records.size(), Verdict::kCorrect);
  parallel_for_each(records.size(), [&](std::size_t i) {
    if (records[i].error.empty()) verdicts[i] = judge(records[i].answer, want(i));
  });
  LoopSummary out;
  std::uint64_t within_slo = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const LoopRecord& r = records[i];
    if (!r.error.empty()) {
      result.fail(r.error);
      continue;
    }
    tally(verdicts[i], what, result);
    if (r.answer.status == mmir::ResultStatus::kShed) continue;
    out.latencies.push_back(r.latency_ms);
    out.queue_waits.push_back(r.queue_wait_ms);
    if (verdicts[i] == Verdict::kCorrect && r.latency_ms <= slo_ms) ++within_slo;
  }
  out.qps = static_cast<double>(out.latencies.size()) / loop.elapsed_s;
  out.slo_pct =
      100.0 * ratio(static_cast<double>(within_slo), static_cast<double>(records.size()));
  print_latency((std::string(what) + " latency").c_str(), out.latencies);
  return out;
}

}  // namespace perfbench
