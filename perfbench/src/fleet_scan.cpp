// fleet_scan: one closed-loop client calls net::Router::execute, which
// scatters each kCombined query (k=10, a fresh seeded HPS variant) over 4
// in-process ShardServers on loopback TCP, each with 1 serial dispatcher, on
// the scan_cold scene.  The slowest leg's scan is ~0.25 ms of a ~0.9 ms
// query: the router, the wire protocol and server admission do most of the
// work, the kernel and the caches little.
#include <memory>
#include <string>

#include "net/router.hpp"
#include "net/shard_server.hpp"
#include "net/socket.hpp"
#include "obs/aggregate.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSceneSize = 1024;
constexpr std::size_t kSmokeSceneSize = 128;
constexpr std::size_t kShards = 4;
constexpr std::size_t kWarmupQueries = 16;
constexpr std::uint64_t kWarmupModelBase = 1ULL << 40U;
// slo_pct limit: ~2x the p50 measured on a 4-core host when the
// benchmark was added.
constexpr double kSloMs = 2.0;

struct Fixture {
  std::unique_ptr<LoadedArchive> data;
  std::vector<mmir::Interval> ranges;
  mmir::obs::MetricsRegistry server_registry;
  mmir::obs::MetricsRegistry router_registry;
  std::vector<std::unique_ptr<mmir::net::ShardServer>> servers;
  std::unique_ptr<mmir::net::Router> router;  ///< destroyed first, then the servers
};

mmir::net::RouterQuery combined_query(const mmir::LinearModel& model) {
  mmir::net::RouterQuery q;
  q.archive_id = 1;
  q.shard_count = kShards;
  q.policy = mmir::ShardPolicy::kRowBands;
  q.mode = mmir::ShardScanMode::kCombined;
  q.model = &model;
  q.k = kTopK;
  return q;
}

std::unique_ptr<Fixture> set_up(const SceneFiles& files, const RunOptions& opts, SpanLog& spans) {
  auto f = std::make_unique<Fixture>();
  f->data = ingest(files, spans, 0, 0);
  f->ranges = band_ranges(*f->data->archive);
  mmir::net::RouterConfig router_config;
  router_config.metrics = &f->router_registry;
  for (std::size_t s = 0; s < kShards; ++s) {
    mmir::net::ShardServerConfig config;
    config.engine.dispatchers = 1;
    config.engine.intra_query_threads = 0;
    config.engine.metrics = &f->server_registry;
    auto server = std::make_unique<mmir::net::ShardServer>(config);
    server->register_archive(1, f->data->archive.get(), f->ranges);
    if (!server->start()) throw std::runtime_error("fleet_scan: a shard server did not start");
    router_config.ports.push_back(static_cast<std::uint16_t>(server->port()));
    f->servers.push_back(std::move(server));
  }
  f->router = std::make_unique<mmir::net::Router>(router_config);
  for (std::size_t w = 0; w < kWarmupQueries; ++w) {
    const mmir::LinearModel model =
        model_variant(opts.seed, kFleetModelStream, kWarmupModelBase + w);
    mmir::QueryContext ctx;
    mmir::CostMeter meter;
    (void)f->router->execute(combined_query(model), ctx, meter);
  }
  f->server_registry.reset();
  f->router_registry.reset();
  return f;
}

}  // namespace

void run_fleet_scan(const RunOptions& opts, SpanLog& spans, RunResult& result) {
  if (!mmir::net::sockets_available()) {
    throw std::runtime_error("fleet_scan: loopback sockets are unavailable");
  }
  const SceneFiles files =
      make_scene_files(0, opts.smoke ? kSmokeSceneSize : kSceneSize, opts.workdir);

  SetupTimes setup;
  const std::unique_ptr<Fixture> f = set_up_repeatedly(setup, [&] {
    auto fixture = set_up(files, opts, spans);
    setup.add_ingest(*fixture->data);
    return fixture;
  });

  const ClosedLoop loop = run_closed_loop(
      opts, spans, result, "fleet_scan", [&](std::uint64_t i, LoopRecord& r, std::uint64_t span) {
        const mmir::LinearModel model = model_variant(opts.seed, kFleetModelStream, i);
        const ScopedSpan execute(spans, "Router::execute", span, i + 1);
        mmir::QueryContext ctx;
        mmir::CostMeter meter;
        mmir::net::RouterResult out = f->router->execute(combined_query(model), ctx, meter);
        // Every leg must have answered in full; a degraded merge is a failure.
        mmir::ResultStatus status = out.result.merged.status;
        for (const mmir::ResultStatus s : out.result.shard_status) {
          if (s != mmir::ResultStatus::kComplete) status = s;
        }
        r.answer = {std::move(out.result.merged.hits), status};
      });
  const LoopSummary sum = check_closed_loop(
      loop,
      [&](std::size_t i) {
        return reference_combined(*f->data->archive,
                                  model_variant(opts.seed, kFleetModelStream, i), f->ranges);
      },
      kSloMs, "fleet_scan", result);

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
  // The shard servers' engines are reachable only through their shared
  // registry: queue wait comes from its histogram, interpolated.
  const mmir::obs::MetricsSnapshot servers = f->server_registry.snapshot();
  double queue_wait_p99_ms = 0.0;
  for (const auto& h : servers.histograms) {
    if (h.name == "engine_queue_wait_ns") {
      queue_wait_p99_ms = mmir::obs::interpolated_quantile(h, 0.99) / 1e6;
    }
  }
  add_workload_layers({.ingests = &setup,
                       .queue_wait_p99_ms = queue_wait_p99_ms,
                       .engine = servers,
                       .result_cache = {},
                       .tile_cache = {},
                       .tracing_overhead_pct = loop.tracing_overhead_pct},
                      result);
  run_ladder({.archive = f->data->archive.get(),
              .ranges = f->ranges,
              .mode = LadderMode::kCombined,
              .intra_query_threads = 0,
              .seed = opts.seed,
              .smoke = opts.smoke},
             spans, result);
}

}  // namespace perfbench
