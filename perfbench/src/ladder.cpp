// The per-layer ladder (traced runs only).  A workload's representative
// query -- its mode, on its archive, with a seeded variant model -- is sent
// down every layer's public entry point in turn:
//
//   core     full_scan_top_k, progressive_combined_top_k
//   engine   parallel_* at 1/2/4 threads, sharded_* at 4 shards,
//            scan_shard_partial per leg, batch_scan at fan-in 1/16,
//            QueryEngine::submit -> future (uncached, and a result-cache hit)
//   net      Router::execute over 4 loopback ShardServers
//
// Each row is the median of a few trials after a warm-up call, every answer
// checked against the serial executor.  A layer's self time is its row
// minus the row of the layer below it.  The ladder records its spans from
// this file only; it adds none inside the library.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>

#include "core/raster_model.hpp"
#include "engine/batch_exec.hpp"
#include "engine/parallel_exec.hpp"
#include "engine/scheduler.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "linear/progressive.hpp"
#include "net/router.hpp"
#include "net/shard_server.hpp"
#include "util/cost.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTrials = 7;
constexpr std::size_t kSmokeTrials = 2;
constexpr std::size_t kShards = 4;
constexpr std::size_t kBatchFanin = 16;
constexpr std::uint64_t kLadderQueryBase = 1ULL << 32U;

/// One seeded variant in both shapes the entry points take.
struct Member {
  explicit Member(mmir::LinearModel m, const std::vector<mmir::Interval>& ranges)
      : linear(std::move(m)), raster(linear), progressive(linear, ranges) {}
  mmir::LinearModel linear;
  mmir::LinearRasterModel raster;
  mmir::ProgressiveLinearModel progressive;
  mmir::RasterTopK want;  ///< the serial answer in the ladder's mode
};

struct Row {
  std::uint64_t query = 0;  ///< span query id of this row's calls
  std::string layer;
  std::vector<double> ms;
  std::string below;  ///< layer whose row this one is measured against ("" = none)
  double scale = 1.0;  ///< per-member rows divide by the fan-in

  [[nodiscard]] double median_ms() const { return median(ms) / scale; }
};

class Ladder {
 public:
  Ladder(const LadderSpec& spec, SpanLog& spans, RunResult& result)
      : spec_(spec), spans_(spans), result_(result),
        trials_(spec.smoke ? kSmokeTrials : kTrials),
        root_(spans, "ladder", 0, kLadderQueryBase) {}

  /// Times `fn` (one warm-up call, then the trials); `fn` returns whether
  /// its answer matched the serial executor's.
  template <typename Fn>
  Row& measure(const std::string& layer, const std::string& below, Fn&& fn) {
    Row& row = add_row(layer, below);
    for (std::size_t t = 0; t <= trials_; ++t) call(row, fn, t > 0);
    return row;
  }

  /// Like measure(), for two rows whose difference is the metric: calls
  /// alternate trial by trial (twice the trials) so drift cancels, and the
  /// median of the paired differences a - b is returned.
  template <typename FnA, typename FnB>
  double measure_paired(const std::string& a, FnA&& fa, const std::string& b, FnB&& fb) {
    Row& rb = add_row(b, "");
    Row& ra = add_row(a, b);
    std::vector<double> diffs;
    for (std::size_t t = 0; t <= 2 * trials_; ++t) {
      const double mb = call(rb, fb, t > 0);
      const double ma = call(ra, fa, t > 0);
      if (t > 0) diffs.push_back(ma - mb);
    }
    return median(diffs);
  }

  [[nodiscard]] double ms(const std::string& layer) const {
    for (const Row& r : rows_) {
      if (r.layer == layer) return r.median_ms();
    }
    return 0.0;
  }

  void print() const {
    std::printf("ladder (%s query, median of %zu trials; self = row - below):\n",
                spec_.mode == LadderMode::kFullScan ? "full-scan" : "combined", trials_);
    std::printf("  %-44s %11s %11s %11s %9s\n", "layer", "median ms", "IQR ms", "self ms",
                "below/row");
    for (const Row& r : rows_) {
      const double m = r.median_ms();
      const double iqr = (quantile(r.ms, 0.75) - quantile(r.ms, 0.25)) / r.scale;
      if (r.below.empty()) {
        std::printf("  %-44s %11.4f %11.4f %11s %9s\n", r.layer.c_str(), m, iqr, "-", "-");
      } else {
        const double below = ms(r.below);
        std::printf("  %-44s %11.4f %11.4f %11.4f %8.3fx\n", r.layer.c_str(), m, iqr, m - below,
                    ratio(below, m));
      }
    }
  }

 private:
  const LadderSpec& spec_;
  SpanLog& spans_;
  RunResult& result_;
  std::size_t trials_;
  ScopedSpan root_;
  std::deque<Row> rows_;  ///< a deque: rows (and their names) never move

  Row& add_row(const std::string& layer, const std::string& below) {
    Row& row = rows_.emplace_back();
    row.query = kLadderQueryBase + rows_.size();
    row.layer = layer;
    row.below = below;
    return row;
  }

  template <typename Fn>
  double call(Row& row, Fn& fn, bool keep) {
    result_.attempt();
    bool ok = false;
    const Clock::time_point t0 = Clock::now();
    {
      const ScopedSpan span(spans_, row.layer.c_str(), root_.id(), row.query);
      ok = fn();
    }
    const double ms = ms_between(t0, Clock::now());
    if (!ok) result_.fail("ladder: " + row.layer + " answer differs from the serial executor");
    if (keep) row.ms.push_back(ms);
    return ms;
  }
};

}  // namespace

void run_ladder(const LadderSpec& spec, SpanLog& spans, RunResult& result) {
  spans.set_enabled(true);
  const mmir::TiledArchive& archive = *spec.archive;
  const bool full = spec.mode == LadderMode::kFullScan;

  std::deque<Member> members;
  for (std::size_t m = 0; m < kBatchFanin; ++m) {
    members.emplace_back(model_variant(spec.seed, kLadderModelStream, m), spec.ranges);
  }
  parallel_for_each(members.size(), [&](std::size_t m) {
    members[m].want = full ? reference_full_scan(archive, members[m].linear)
                           : reference_combined(archive, members[m].linear, spec.ranges);
  });
  Member& rep = members.front();
  const mmir::RasterTopK want_full = full ? rep.want : reference_full_scan(archive, rep.linear);
  const mmir::RasterTopK want_combined =
      full ? reference_combined(archive, rep.linear, spec.ranges) : rep.want;
  const auto same = [](const mmir::RasterTopK& got, const mmir::RasterTopK& want) {
    return got.status == mmir::ResultStatus::kComplete && same_hits(got.hits, want.hits);
  };

  Ladder ladder(spec, spans, result);
  const std::string serial_row =
      full ? "core.full_scan_top_k" : "core.progressive_combined_top_k";

  // core: the serial executors, both modes whatever the workload's mode.
  ladder.measure("core.full_scan_top_k", "", [&] {
    mmir::QueryContext ctx;
    mmir::CostMeter meter;
    return same(mmir::full_scan_top_k(archive, rep.raster, kTopK, ctx, meter), want_full);
  });
  std::uint64_t combined_ops = 0;
  ladder.measure("core.progressive_combined_top_k", "", [&] {
    mmir::QueryContext ctx;
    mmir::CostMeter meter;
    const bool ok = same(
        mmir::progressive_combined_top_k(archive, rep.progressive, kTopK, ctx, meter),
        want_combined);
    combined_ops = meter.ops();
    return ok;
  });

  // Tiles pruned by the combined scan: one leg covering the whole archive.
  double tiles_pruned_pct = 0.0;
  {
    const mmir::ShardedArchive whole(archive, 1);
    mmir::QueryContext ctx;
    mmir::CostMeter meter;
    result.attempt();
    const mmir::ShardScanResult r = mmir::scan_shard_partial(
        whole, 0, mmir::ShardScanMode::kCombined, nullptr, &rep.progressive, kTopK, ctx, meter);
    if (!same(r.partial.result, want_combined)) {
      result.fail("ladder: one-shard scan_shard_partial answer differs from the serial executor");
    }
    tiles_pruned_pct = 100.0 * ratio(static_cast<double>(r.partial.tiles_pruned),
                                     static_cast<double>(archive.tiles().size()));
  }

  // engine: tile-parallel at 1/2/4 threads (the caller is one of them).
  for (const std::size_t threads : {1UL, 2UL, 4UL}) {
    mmir::ThreadPool pool(threads - 1);
    ladder.measure("engine.parallel@" + std::to_string(threads) + "t", serial_row, [&] {
      mmir::QueryContext ctx;
      mmir::CostMeter meter;
      return same(full ? mmir::parallel_full_scan_top_k(archive, rep.raster, kTopK, ctx, meter,
                                                        pool)
                       : mmir::parallel_progressive_combined_top_k(archive, rep.progressive,
                                                                   kTopK, ctx, meter, pool),
                  rep.want);
    });
  }

  // engine: in-process sharded scatter-gather, and its legs one by one.
  const mmir::ShardedArchive sharded(archive, kShards, mmir::ShardPolicy::kRowBands);
  {
    mmir::ThreadPool pool(3);
    ladder.measure("engine.sharded@4s", serial_row, [&] {
      mmir::QueryContext ctx;
      mmir::CostMeter meter;
      const mmir::ShardedTopK r =
          full ? mmir::sharded_full_scan_top_k(sharded, rep.raster, kTopK, ctx, meter, pool)
               : mmir::sharded_progressive_combined_top_k(sharded, rep.progressive, kTopK, ctx,
                                                          meter, pool);
      return same(r.merged, rep.want);
    });
  }
  const mmir::ShardScanMode leg_mode =
      full ? mmir::ShardScanMode::kFullScan : mmir::ShardScanMode::kCombined;
  std::vector<mmir::ShardPartial> partials(kShards);
  std::string slowest_leg;
  double slowest_leg_ms = -1.0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::string layer = "engine.scan_shard_partial[" + std::to_string(s) + "/4]";
    ladder.measure(layer, "", [&] {
      mmir::QueryContext ctx;
      mmir::CostMeter meter;
      partials[s] = mmir::scan_shard_partial(sharded, s, leg_mode, &rep.raster, &rep.progressive,
                                             kTopK, ctx, meter)
                        .partial;
      return partials[s].result.status == mmir::ResultStatus::kComplete;
    });
    if (ladder.ms(layer) > slowest_leg_ms) {
      slowest_leg_ms = ladder.ms(layer);
      slowest_leg = layer;
    }
  }
  result.attempt();
  if (!same(mmir::merge_shard_partials(partials, kTopK), rep.want)) {
    result.fail("ladder: merged scan_shard_partial legs differ from the serial executor");
  }

  // engine: shared-scan batch at fan-in 1 and 16.
  const mmir::BatchScanMode batch_mode =
      full ? mmir::BatchScanMode::kFullScan : mmir::BatchScanMode::kCombined;
  for (const std::size_t fanin : {1UL, kBatchFanin}) {
    Row& row = ladder.measure(
        "engine.batch_scan@" + std::to_string(fanin) + (fanin > 1 ? " per member" : ""),
        fanin > 1 ? "engine.batch_scan@1" : serial_row, [&] {
          std::deque<mmir::QueryContext> ctxs(fanin);
          std::vector<mmir::CostMeter> meters(fanin);
          std::vector<mmir::BatchMemberSpec> specs(fanin);
          for (std::size_t m = 0; m < fanin; ++m) {
            specs[m].mode = batch_mode;
            specs[m].model = &members[m].raster;
            specs[m].progressive = &members[m].progressive;
            specs[m].k = kTopK;
            specs[m].ctx = &ctxs[m];
            specs[m].meter = &meters[m];
          }
          const auto out = mmir::batch_scan(archive, specs);
          bool ok = out.size() == fanin;
          for (std::size_t m = 0; ok && m < fanin; ++m) ok = same(out[m].result, members[m].want);
          return ok;
        });
    row.scale = static_cast<double>(fanin);
  }

  // engine: the scheduler, configured like the workload's engine.
  double scheduler_overhead_ms = 0.0;
  {
    mmir::obs::MetricsRegistry registry;
    mmir::EngineConfig config;
    config.dispatchers = 1;
    config.intra_query_threads = spec.intra_query_threads;
    config.metrics = &registry;
    mmir::QueryEngine engine(config);
    mmir::RasterJob job;
    job.mode = full ? mmir::RasterJob::Mode::kFullScan : mmir::RasterJob::Mode::kCombined;
    job.archive = &archive;
    job.model = &rep.raster;
    job.progressive = &rep.progressive;
    job.k = kTopK;
    // The direct call is the executor the engine itself runs for this job.
    mmir::ThreadPool pool(spec.intra_query_threads);
    scheduler_overhead_ms = ladder.measure_paired(
        "engine.QueryEngine::submit->future",
        [&] { return same(engine.submit(job).get().result, rep.want); },  // archive_id 0: uncached
        "engine.parallel@" + std::to_string(spec.intra_query_threads + 1) + "t (paired)", [&] {
          mmir::QueryContext ctx;
          mmir::CostMeter meter;
          return same(full ? mmir::parallel_full_scan_top_k(archive, rep.raster, kTopK, ctx,
                                                            meter, pool)
                           : mmir::parallel_progressive_combined_top_k(
                                 archive, rep.progressive, kTopK, ctx, meter, pool),
                      rep.want);
        });
    job.archive_id = 1;
    (void)engine.submit(job).get();  // fills the result cache
    ladder.measure("engine.QueryEngine::submit->future (cache hit)", "", [&] {
      const mmir::RasterOutcome out = engine.submit(job).get();
      return out.cache_hit && same(out.result, rep.want);
    });
  }

  // net: Router::execute over a fleet shaped like fleet_scan's.
  double attempts_per_query = 0.0;
  double wire_bytes_per_query = 0.0;
  {
    mmir::obs::MetricsRegistry server_registry;
    mmir::obs::MetricsRegistry router_registry;
    std::vector<std::unique_ptr<mmir::net::ShardServer>> servers;
    mmir::net::RouterConfig router_config;
    router_config.metrics = &router_registry;
    for (std::size_t s = 0; s < kShards; ++s) {
      mmir::net::ShardServerConfig config;
      config.engine.dispatchers = 1;
      config.engine.intra_query_threads = 0;
      config.engine.metrics = &server_registry;
      auto server = std::make_unique<mmir::net::ShardServer>(config);
      server->register_archive(1, &archive, spec.ranges);
      if (!server->start()) throw std::runtime_error("ladder: a shard server did not start");
      router_config.ports.push_back(static_cast<std::uint16_t>(server->port()));
      servers.push_back(std::move(server));
    }
    {
      mmir::net::Router router(router_config);
      mmir::net::RouterQuery query;
      query.archive_id = 1;
      query.shard_count = kShards;
      query.policy = mmir::ShardPolicy::kRowBands;
      query.mode = leg_mode;
      query.model = &rep.linear;
      query.k = kTopK;
      ladder.measure("net.Router::execute", slowest_leg, [&] {
        mmir::QueryContext ctx;
        mmir::CostMeter meter;
        return same(router.execute(query, ctx, meter).result.merged, rep.want);
      });
    }
    const mmir::obs::MetricsSnapshot net = router_registry.snapshot();
    const double queries = static_cast<double>(net.counter("engine_net_queries_total"));
    attempts_per_query =
        ratio(static_cast<double>(net.counter("engine_net_attempts_total")), queries);
    wire_bytes_per_query =
        ratio(static_cast<double>(net.counter("engine_net_bytes_sent_total") +
                                  net.counter("engine_net_bytes_received_total")),
              queries);
  }
  spans.set_enabled(false);
  ladder.print();

  const double pixels = static_cast<double>(archive.pixel_count());
  const double full_ms = ladder.ms("core.full_scan_top_k");
  const double serial_ms = ladder.ms(serial_row);
  result.add("core.full_scan_ns_per_pixel", full_ms * 1e6 / pixels, "ns");
  result.add("core.full_scan_gb_s",
             ratio(pixels * static_cast<double>(archive.band_count() * sizeof(double)),
                   full_ms * 1e-3) / 1e9,
             "GB/s");
  result.add("core.combined_ms", ladder.ms("core.progressive_combined_top_k"), "ms");
  result.add("core.work_ratio",
             ratio(static_cast<double>(mmir::serial_baseline_ops(archive.pixel_count(),
                                                                 rep.linear.dim())),
                   static_cast<double>(combined_ops)),
             "count");
  result.add("core.tiles_pruned_pct", tiles_pruned_pct, "%");
  result.add("engine.parallel.speedup_2t", ratio(serial_ms, ladder.ms("engine.parallel@2t")),
             "x");
  result.add("engine.parallel.speedup_4t", ratio(serial_ms, ladder.ms("engine.parallel@4t")),
             "x");
  result.add("engine.parallel.scan_ms", ladder.ms("engine.parallel@4t"), "ms");
  result.add("engine.shard.partial_ms", slowest_leg_ms, "ms");
  result.add("engine.shard.speedup_4s", ratio(serial_ms, ladder.ms("engine.sharded@4s")), "x");
  result.add("engine.scheduler.overhead_ms", scheduler_overhead_ms, "ms");
  result.add("engine.cache.hit_us",
             ladder.ms("engine.QueryEngine::submit->future (cache hit)") * 1e3, "us");
  result.add("engine.batch.member_ms",
             ladder.ms("engine.batch_scan@" + std::to_string(kBatchFanin) + " per member"), "ms");
  result.add("net.router.overhead_ms", ladder.ms("net.Router::execute") - slowest_leg_ms, "ms");
  result.add("net.attempts_per_query", attempts_per_query, "count");
  result.add("net.wire_bytes_per_query", wire_bytes_per_query, "B");
}

}  // namespace perfbench
