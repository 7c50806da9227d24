// scan_cold: one closed-loop client, one query outstanding; every query a
// cold RasterJob::kFullScan (k=10) with a fresh seeded HPS variant, on a
// 1024x1024 four-band scene in 16-pixel tiles (32 MiB: above per-core L2,
// below the shared L3).  The engine runs 1 dispatcher with
// intra_query_threads=3, so the kernel and the tile-parallel pool do nearly
// all the work; the result cache never hits, and batching, net and ingest
// are bypassed.
#include <future>
#include <memory>

#include "core/raster_model.hpp"
#include "engine/scheduler.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSceneSize = 1024;
constexpr std::size_t kSmokeSceneSize = 128;
constexpr std::size_t kIntraQueryThreads = 3;
constexpr std::size_t kWarmupQueries = 2;
constexpr std::uint64_t kWarmupModelBase = 1ULL << 40U;
// slo_pct limit: ~1.3x the p50 measured on a 4-core host when the
// benchmark was added.
constexpr double kSloMs = 150.0;

struct Fixture {
  std::unique_ptr<LoadedArchive> data;
  mmir::obs::MetricsRegistry registry;
  std::unique_ptr<mmir::QueryEngine> engine;
};

mmir::RasterJob full_scan_job(const Fixture& f, const mmir::RasterModel& model) {
  mmir::RasterJob job;
  job.mode = mmir::RasterJob::Mode::kFullScan;
  job.archive = f.data->archive.get();
  job.model = &model;
  job.k = kTopK;
  job.archive_id = 1;
  return job;
}

std::unique_ptr<Fixture> set_up(const SceneFiles& files, const RunOptions& opts, SpanLog& spans) {
  auto f = std::make_unique<Fixture>();
  f->data = ingest(files, spans, 0, 0);
  mmir::EngineConfig config;
  config.dispatchers = 1;
  config.intra_query_threads = kIntraQueryThreads;
  config.metrics = &f->registry;
  f->engine = std::make_unique<mmir::QueryEngine>(config);
  for (std::size_t w = 0; w < kWarmupQueries; ++w) {
    const mmir::LinearRasterModel model(
        model_variant(opts.seed, kScanModelStream, kWarmupModelBase + w));
    (void)f->engine->submit(full_scan_job(*f, model)).get();
  }
  f->registry.reset();
  return f;
}

}  // namespace

void run_scan_cold(const RunOptions& opts, SpanLog& spans, RunResult& result) {
  const SceneFiles files =
      make_scene_files(0, opts.smoke ? kSmokeSceneSize : kSceneSize, opts.workdir);
  SetupTimes setup;
  const std::unique_ptr<Fixture> f = set_up_repeatedly(setup, [&] {
    auto fixture = set_up(files, opts, spans);
    setup.add_ingest(*fixture->data);
    return fixture;
  });

  const ClosedLoop loop = run_closed_loop(
      opts, spans, result, "scan_cold", [&](std::uint64_t i, LoopRecord& r, std::uint64_t span) {
        const mmir::LinearRasterModel model(model_variant(opts.seed, kScanModelStream, i));
        std::future<mmir::RasterOutcome> future;
        {
          const ScopedSpan submit(spans, "QueryEngine::submit", span, i + 1);
          future = f->engine->submit(full_scan_job(*f, model));
        }
        const ScopedSpan wait(spans, "future::get", span, i + 1);
        mmir::RasterOutcome out = future.get();
        r.queue_wait_ms = to_ms(out.queue_wait);
        r.answer = {std::move(out.result.hits), out.result.status};
      });
  const LoopSummary sum = check_closed_loop(
      loop,
      [&](std::size_t i) {
        return reference_full_scan(*f->data->archive,
                                   model_variant(opts.seed, kScanModelStream, i));
      },
      kSloMs, "scan_cold", result);

  if (!opts.trace) {
    add_end_to_end({.qps = sum.qps,
                    .p50_ms = quantile(sum.latencies, 0.5),
                    .p95_ms = quantile(sum.latencies, 0.95),
                    .slo_pct = sum.slo_pct,
                    .ingest_ms = setup.ingest_ms(),
                    .setup_s = median(setup.setup_s)},
                   result);
    return;
  }
  add_workload_layers({.ingests = &setup,
                       .queue_wait_p99_ms = quantile(sum.queue_waits, 0.99),
                       .engine = f->registry.snapshot(),
                       .result_cache = f->engine->result_cache_stats(),
                       .tile_cache = f->engine->tile_cache_stats(),
                       .tracing_overhead_pct = loop.tracing_overhead_pct},
                      result);
  f->engine.reset();
  run_ladder({.archive = f->data->archive.get(),
              .ranges = band_ranges(*f->data->archive),
              .mode = LadderMode::kFullScan,
              .intra_query_threads = kIntraQueryThreads,
              .seed = opts.seed,
              .smoke = opts.smoke},
             spans, result);
}

}  // namespace perfbench
