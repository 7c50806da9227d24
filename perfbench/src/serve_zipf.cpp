// serve_zipf: open-loop serving with ingest beside it.  One generator thread
// sends kCombined queries on a seeded Poisson schedule: a `nominal` phase,
// then a `peak` phase at 2x the rate.  Both rates are constants below the
// saturation rate measured on a 4-core host; they are never derived from the
// run's own measurements.  Query keys (model variant x live archive) follow a
// seeded Zipf whose hot set fits the 256-entry result cache while the
// per-tile bounds working set exceeds the 4096-entry tile cache.  A second
// thread ingests a pre-saved 512x512 scene at a fixed cadence (load_grid per
// band, then TiledArchive); it goes live under a new archive id and the
// oldest live archive retires.
//
// The engine runs 2 dispatchers, intra_query_threads=0, default caches,
// batch_max_fanin=16 and batch_window=0: batches form only under queue
// pressure, so at `peak` and rarely at `nominal`.  The scheduler, the caches,
// batching and ingest do the work here; kCombined prunes nearly every tile,
// so the kernel does little.
//
// Latency is timed from each request's due time, so a stall also charges
// the requests queued behind it.  A run whose generator fell behind its own
// schedule is invalid.
#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/scheduler.hpp"
#include "linear/progressive.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSceneSize = 512;
constexpr std::size_t kSmokeSceneSize = 96;
constexpr std::size_t kSceneFiles = 4;    ///< pre-saved scenes the ingest thread cycles through
constexpr std::size_t kLiveArchives = 4;  ///< archives served at any time
constexpr std::size_t kVariants = 512;    ///< model variants; keys = variants x live archives
constexpr double kZipfExponent = 1.1;
constexpr double kNominalQps = 1000.0;
constexpr double kPeakQps = 2.0 * kNominalQps;
constexpr double kIngestPeriodS = 1.0;
constexpr double kSmokeIngestPeriodS = 0.2;
constexpr std::size_t kWarmupQueries = 8;
// slo_pct is measured on the peak phase against this limit.
constexpr double kSloMs = 25.0;
// The generator is behind when a request leaves later than this after its
// due time; more than 1% such requests invalidate the run.
constexpr double kMaxLagMs = 5.0;
constexpr double kLateShareLimit = 0.01;
// Traced runs: closed loop, 2 queries outstanding, traced/untraced slices.
constexpr double kOverheadPhaseS = 2.0;
constexpr double kTraceSliceS = 0.25;

struct Live {
  std::uint64_t id = 0;
  std::size_t scene = 0;
  std::unique_ptr<LoadedArchive> data;
};
using LivePtr = std::shared_ptr<const Live>;

class LiveSet {
 public:
  [[nodiscard]] LivePtr get(std::size_t slot) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return slots_[slot];
  }
  void put(std::size_t slot, LivePtr live) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (slots_.size() <= slot) slots_.resize(slot + 1);
    slots_[slot] = std::move(live);
  }

 private:
  mutable std::mutex mutex_;
  std::vector<LivePtr> slots_;
};

struct Fixture {
  LiveSet live;
  mmir::obs::MetricsRegistry registry;
  std::unique_ptr<mmir::QueryEngine> engine;
  std::uint64_t next_id = 1;
};

struct Request {
  double due_s = 0.0;
  std::uint32_t variant = 0;
  std::uint32_t slot = 0;
  bool peak = false;
};

struct Outcome {
  bool open_loop = true;  ///< false: the traced runs' closed overhead loop
  bool peak = false;
  double lag_ms = 0.0;
  double latency_ms = 0.0;
  double queue_wait_ms = 0.0;
  bool completed = false;
  bool cache_hit = false;
  std::uint32_t variant = 0;
  std::size_t scene = 0;
  Answer answer;
  std::string error;
};

struct Inputs {
  std::vector<SceneFiles> scenes;
  std::vector<mmir::Interval> ranges;  ///< hull over every scene's bands
  std::vector<mmir::ProgressiveLinearModel> models;
  std::vector<Request> schedule;
};

Inputs make_inputs(const RunOptions& opts) {
  Inputs in;
  for (std::size_t s = 0; s < kSceneFiles; ++s) {
    in.scenes.push_back(make_scene_files(s, opts.smoke ? kSmokeSceneSize : kSceneSize,
                                         opts.workdir));
    SpanLog none(false);
    const auto data = ingest(in.scenes.back(), none, 0, 0);
    const auto r = band_ranges(*data->archive);
    if (in.ranges.empty()) {
      in.ranges = r;
    } else {
      for (std::size_t b = 0; b < r.size(); ++b) in.ranges[b] = in.ranges[b].hull(r[b]);
    }
  }
  for (std::size_t v = 0; v < kVariants; ++v) {
    in.models.emplace_back(model_variant(opts.seed, kZipfModelStream, v), in.ranges);
  }
  const Zipf zipf(kVariants * kLiveArchives, kZipfExponent);
  Rng rng(opts.seed, kZipfScheduleStream);
  const double half = opts.seconds / 2.0;
  for (double t = rng.exponential(kNominalQps); t < opts.seconds;) {
    const std::size_t key = zipf(rng);
    const bool peak = t >= half;
    in.schedule.push_back({t, static_cast<std::uint32_t>(key / kLiveArchives),
                           static_cast<std::uint32_t>(key % kLiveArchives), peak});
    t += rng.exponential(t >= half ? kPeakQps : kNominalQps);
  }
  return in;
}

mmir::RasterJob combined_job(const Live& live, const mmir::ProgressiveLinearModel& model) {
  mmir::RasterJob job;
  job.mode = mmir::RasterJob::Mode::kCombined;
  job.archive = live.data->archive.get();
  job.progressive = &model;
  job.k = kTopK;
  job.archive_id = live.id;
  return job;
}

std::unique_ptr<Fixture> set_up(const Inputs& in, SpanLog& spans) {
  auto f = std::make_unique<Fixture>();
  for (std::size_t slot = 0; slot < kLiveArchives; ++slot) {
    auto live = std::make_shared<Live>();
    live->id = f->next_id++;
    live->scene = slot % kSceneFiles;
    live->data = ingest(in.scenes[live->scene], spans, 0, 0);
    f->live.put(slot, std::move(live));
  }
  mmir::EngineConfig config;
  config.dispatchers = 2;
  config.intra_query_threads = 0;
  config.batch_max_fanin = 16;
  config.batch_window = std::chrono::nanoseconds{0};
  config.metrics = &f->registry;
  f->engine = std::make_unique<mmir::QueryEngine>(config);
  // Warm-up keys come from variants the schedule also uses; their archives
  // retire within the run, so no warm entry survives into steady state.
  for (std::size_t w = 0; w < kWarmupQueries; ++w) {
    const LivePtr live = f->live.get(w % kLiveArchives);
    (void)f->engine->submit(combined_job(*live, in.models[kVariants - 1 - w])).get();
  }
  f->registry.reset();
  return f;
}

// Completed-or-not bookkeeping shared by the open loop and the overhead loop.
void fill_outcome(Outcome& o, std::future<mmir::RasterOutcome>& future) {
  try {
    mmir::RasterOutcome out = future.get();
    o.queue_wait_ms = to_ms(out.queue_wait);
    o.latency_ms = o.lag_ms + to_ms(out.latency());
    o.completed = out.result.status != mmir::ResultStatus::kShed;
    o.cache_hit = out.cache_hit;
    o.answer = {std::move(out.result.hits), out.result.status};
  } catch (const std::exception& e) {
    o.error = std::string("serve_zipf: exception: ") + e.what();
  }
}

struct Pending {
  std::size_t index = 0;
  std::future<mmir::RasterOutcome> future;
  LivePtr live;  ///< keeps the archive alive until its answer is collected
  std::uint64_t span = 0;
  Clock::time_point due;
};

}  // namespace

void run_serve_zipf(const RunOptions& opts, SpanLog& spans, RunResult& result) {
  const Inputs in = make_inputs(opts);

  // ingest_ms counts the ingests made while serving, not the set-up's.
  SetupTimes setup;
  const std::unique_ptr<Fixture> f = set_up_repeatedly(setup, [&] { return set_up(in, spans); });

  std::vector<Outcome> outcomes(in.schedule.size());
  std::mutex pending_mutex;
  std::condition_variable pending_cv;
  std::deque<Pending> pending;
  bool generator_done = false;

  std::mutex ingest_mutex;
  std::condition_variable ingest_cv;
  bool ingest_stop = false;
  std::uint64_t ingests = 0;
  std::vector<std::string> ingest_errors;
  const double ingest_period_s = opts.smoke ? kSmokeIngestPeriodS : kIngestPeriodS;
  Clock::time_point start;

  // Everything the two threads touch is declared above this point, so it
  // outlives them.
  std::thread collector;
  std::thread ingester;
  // Stops and joins both threads, also on an exception.
  const auto stop_threads = [&] {
    {
      const std::lock_guard<std::mutex> lock(pending_mutex);
      generator_done = true;
    }
    pending_cv.notify_one();
    if (collector.joinable()) collector.join();
    {
      const std::lock_guard<std::mutex> lock(ingest_mutex);
      ingest_stop = true;
    }
    ingest_cv.notify_one();
    if (ingester.joinable()) ingester.join();
  };
  struct JoinOnExit {
    const decltype(stop_threads)& stop;
    ~JoinOnExit() { stop(); }
  } join_on_exit{stop_threads};
  start = Clock::now();

  // Collector: answers are taken in submission order; latency comes from
  // the engine's own queue-wait + execution stamps anchored at submission,
  // so an answer collected late is not charged for its predecessor.
  collector = std::thread([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(pending_mutex);
        pending_cv.wait(lock, [&] { return !pending.empty() || generator_done; });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      Outcome& o = outcomes[p.index];
      fill_outcome(o, p.future);
      if (p.span != 0 && o.completed) {
        const auto done = p.due + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(o.latency_ms));
        spans.record({p.span, 0, p.index + 1, "request", p.due, done});
      }
    }
  });

  // Ingest: a fixed cadence from the start of the window.
  ingester = std::thread([&] {
    for (std::uint64_t n = 1;; ++n) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(ingest_period_s * static_cast<double>(n)));
      {
        std::unique_lock<std::mutex> lock(ingest_mutex);
        if (ingest_cv.wait_until(lock, due, [&] { return ingest_stop; })) return;
      }
      try {
        const ScopedSpan span(spans, "ingest", 0, 0);
        auto live = std::make_shared<Live>();
        live->id = kLiveArchives + n;
        live->scene = (kLiveArchives + n - 1) % kSceneFiles;
        live->data = ingest(in.scenes[live->scene], spans, span.id(), 0);
        const std::lock_guard<std::mutex> lock(ingest_mutex);
        setup.add_ingest(*live->data);
        f->live.put((n - 1) % kLiveArchives, std::move(live));
        ++ingests;
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(ingest_mutex);
        ingest_errors.push_back(std::string("serve_zipf: ingest exception: ") + e.what());
      }
    }
  });
  // Generator.
  std::vector<double> lags;
  lags.reserve(in.schedule.size());
  for (std::size_t i = 0; i < in.schedule.size(); ++i) {
    const Request& rq = in.schedule[i];
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(rq.due_s));
    std::this_thread::sleep_until(due);
    Pending p;
    p.index = i;
    p.due = due;
    p.live = f->live.get(rq.slot);
    p.span = spans.enabled() ? spans.new_id() : 0;
    const Clock::time_point t_submit = Clock::now();
    Outcome& o = outcomes[i];
    o.peak = rq.peak;
    o.variant = rq.variant;
    o.scene = p.live->scene;
    o.lag_ms = ms_between(due, t_submit);
    lags.push_back(o.lag_ms);
    try {
      const ScopedSpan submit(spans, "QueryEngine::submit", p.span, i + 1);
      p.future = f->engine->submit(combined_job(*p.live, in.models[rq.variant]));
    } catch (const std::exception& e) {
      o.error = std::string("serve_zipf: submit exception: ") + e.what();
      continue;
    }
    const std::lock_guard<std::mutex> lock(pending_mutex);
    pending.push_back(std::move(p));
    pending_cv.notify_one();
  }
  stop_threads();
  const double elapsed_s = ms_between(start, Clock::now()) / 1e3;
  result.attempt(ingests + ingest_errors.size());
  for (const auto& e : ingest_errors) result.fail(e);

  // Traced runs: tracing tax as closed-loop qps, traced vs untraced slices.
  double overhead_pct = 0.0;
  if (opts.trace) {
    TraceSlices slices(spans, true, kTraceSliceS);
    const Zipf zipf(kVariants * kLiveArchives, kZipfExponent);
    Rng rng(opts.seed, kZipfScheduleStream + 1000);
    std::deque<Pending> inflight;
    const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(kOverheadPhaseS));
    while (Clock::now() < stop || !inflight.empty()) {
      slices.update();
      if (Clock::now() < stop && inflight.size() < 2) {
        const std::size_t key = zipf(rng);
        Pending p;
        p.index = outcomes.size();
        p.live = f->live.get(key % kLiveArchives);
        Outcome& o = outcomes.emplace_back();
        o.open_loop = false;
        o.variant = static_cast<std::uint32_t>(key / kLiveArchives);
        o.scene = p.live->scene;
        const ScopedSpan submit(spans, "QueryEngine::submit", 0, p.index + 1);
        p.future = f->engine->submit(combined_job(*p.live, in.models[o.variant]));
        inflight.push_back(std::move(p));
        continue;
      }
      fill_outcome(outcomes[inflight.front().index], inflight.front().future);
      inflight.pop_front();
      slices.completed();
    }
    slices.update();
    spans.set_enabled(false);
    overhead_pct = slices.overhead_pct();
  }

  // Verification, outside the timed window: one serial answer per distinct
  // (variant, scene), computed on archives loaded afresh from the same files.
  std::vector<std::unique_ptr<LoadedArchive>> reference_archives;
  for (const SceneFiles& files : in.scenes) {
    SpanLog none(false);
    reference_archives.push_back(ingest(files, none, 0, 0));
  }
  std::map<std::pair<std::uint32_t, std::size_t>, mmir::RasterTopK> reference;
  for (const Outcome& o : outcomes) reference[{o.variant, o.scene}];
  std::vector<std::pair<const std::pair<std::uint32_t, std::size_t>, mmir::RasterTopK>*> todo;
  for (auto& entry : reference) todo.push_back(&entry);
  parallel_for_each(todo.size(), [&](std::size_t i) {
    const auto [variant, scene] = todo[i]->first;
    todo[i]->second = reference_combined(*reference_archives[scene]->archive,
                                         in.models[variant].model(), in.ranges);
  });

  std::vector<double> nominal;
  std::vector<double> peak;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> queue_waits;
  std::uint64_t peak_attempted = 0;
  std::uint64_t peak_within = 0;
  std::uint64_t completed = 0;
  std::uint64_t hits = 0;
  for (const Outcome& o : outcomes) {
    result.attempt();
    if (o.peak) ++peak_attempted;
    if (!o.error.empty()) {
      result.fail(o.error);
      continue;
    }
    const Verdict v = judge(o.answer, reference.at({o.variant, o.scene}));
    tally(v, "serve_zipf", result);
    if (!o.completed || !o.open_loop) continue;
    ++completed;
    if (o.cache_hit) ++hits;
    queue_waits.push_back(o.queue_wait_ms);
    (o.peak ? peak : nominal).push_back(o.latency_ms);
    if (!o.peak) (o.cache_hit ? hit_ms : miss_ms).push_back(o.latency_ms);
    if (o.peak && v == Verdict::kCorrect && o.latency_ms <= kSloMs) ++peak_within;
  }

  const std::size_t late = static_cast<std::size_t>(
      std::count_if(lags.begin(), lags.end(), [](double l) { return l > kMaxLagMs; }));
  std::printf("serve_zipf: %zu requests, %zu distinct keys, %.1f%% result-cache hits, %" PRIu64
              " ingests\n",
              in.schedule.size(), reference.size(),
              100.0 * ratio(static_cast<double>(hits), static_cast<double>(completed)), ingests);
  print_latency("serve_zipf nominal latency", nominal);
  print_latency("serve_zipf peak latency", peak);
  print_latency("serve_zipf nominal hits", hit_ms);
  print_latency("serve_zipf nominal misses", miss_ms);
  std::printf("serve_zipf generator lag: p50=%.4f ms p99=%.4f ms max=%.4f ms, %zu late (> %.1f ms)\n",
              quantile(lags, 0.5), quantile(lags, 0.99), quantile(lags, 1.0), late, kMaxLagMs);
  if (static_cast<double>(late) > kLateShareLimit * static_cast<double>(lags.size())) {
    result.invalidate("serve_zipf: the generator fell behind its schedule (" +
                      std::to_string(late) + " requests late)");
  }

  if (!opts.trace) {
    add_end_to_end({.qps = static_cast<double>(completed) / elapsed_s,
                    .p50_ms = quantile(nominal, 0.5),
                    .p95_ms = quantile(nominal, 0.95),
                    .slo_pct = 100.0 * ratio(static_cast<double>(peak_within),
                                             static_cast<double>(peak_attempted)),
                    .ingest_ms = setup.ingest_ms(),
                    .setup_s = median(setup.setup_s)},
                   result);
    return;
  }
  add_workload_layers({.ingests = &setup,
                       .queue_wait_p99_ms = quantile(queue_waits, 0.99),
                       .engine = f->registry.snapshot(),
                       .result_cache = f->engine->result_cache_stats(),
                       .tile_cache = f->engine->tile_cache_stats(),
                       .tracing_overhead_pct = overhead_pct},
                      result);
  f->engine.reset();
  const LivePtr live = f->live.get(0);
  run_ladder({.archive = live->data->archive.get(),
              .ranges = in.ranges,
              .mode = LadderMode::kCombined,
              .intra_query_threads = 0,
              .seed = opts.seed,
              .smoke = opts.smoke},
             spans, result);
}

}  // namespace perfbench
