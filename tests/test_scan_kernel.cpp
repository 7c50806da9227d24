// Oracle battery for the full-model scan kernel (core/exec_kernels.hpp).
//
// The row kernel scores a row segment straight from the band planes and the
// scan charges, filters and bills a row at a time, so nothing in the other
// parity batteries pins it to the per-pixel definition it replaces: they
// compare executors that all run through this same kernel.  This battery
// checks it against references written here, over the scenario generator's
// hard archives (tie storm, all-NaN band, constant tiles, anti-correlated
// bands) with ±inf samples injected:
//
//   1. RasterModel::evaluate_row equals per-pixel evaluate() bit for bit,
//      for the planar LinearRasterModel override and the base-class
//      gather fallback, on segments at odd x0 with lengths 1..17;
//   2. full_scan_top_k — unbounded, never-tripping and tripping budgets —
//      and the tile-parallel full scan return the hits, bad points, status,
//      meter totals and spent() of a per-pixel reference loop, and the
//      serial and parallel tile-screened scans (which visit tiles out of
//      rank order, so exact ties must still be offered) its hits;
//   3. a non-finite score that arrives after the heap is full is still
//      counted as a bad point and degrades the status.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/exec_kernels.hpp"
#include "core/progressive_exec.hpp"
#include "core/raster_model.hpp"
#include "engine/parallel_exec.hpp"
#include "engine/thread_pool.hpp"
#include "linear/model.hpp"
#include "testing/scenario_gen.hpp"
#include "util/rng.hpp"

namespace mmir {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A RasterModel that keeps the base-class evaluate_row (gather + evaluate).
class GatherModel final : public RasterModel {
 public:
  explicit GatherModel(LinearModel model) : model_(std::move(model)) {}
  [[nodiscard]] std::size_t bands() const override { return model_.dim(); }
  [[nodiscard]] double evaluate(std::span<const double> pixel) const override {
    return model_.evaluate(pixel);
  }
  [[nodiscard]] Interval bound(std::span<const Interval> ranges) const override {
    return model_.evaluate_interval(ranges);
  }
  [[nodiscard]] std::size_t ops_per_evaluation() const override { return model_.dim(); }

 private:
  LinearModel model_;
};

/// A scenario archive with optional ±inf samples injected into copies of its
/// bands; the archive is rebuilt over the copies so its summaries count them.
struct KernelArchive {
  std::string name;
  std::vector<Grid> grids;
  std::unique_ptr<TiledArchive> archive;
};

KernelArchive make_archive(ScenarioKind kind, bool inject_inf, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.kind = kind;
  cfg.width = 37;  // odd width: row segments and tiles end off the vector stride
  cfg.height = 21;
  cfg.tile_size = 8;
  cfg.seed = seed;
  GeneratedArchive gen = generate_scenario(cfg);
  KernelArchive out;
  out.name = std::string(scenario_name(kind)) + (inject_inf ? "+inf" : "");
  out.grids = gen.grids;
  if (inject_inf) {
    Rng rng(seed + 17);
    for (int i = 0; i < 12; ++i) {
      Grid& band = out.grids[rng.uniform_int(out.grids.size())];
      band.at(rng.uniform_int(cfg.width), rng.uniform_int(cfg.height)) =
          rng.bernoulli(0.5) ? kInf : -kInf;
    }
  }
  std::vector<const Grid*> bands;
  for (const Grid& g : out.grids) bands.push_back(&g);
  out.archive = std::make_unique<TiledArchive>(std::move(bands), cfg.tile_size);
  return out;
}

std::vector<KernelArchive> archives() {
  std::vector<KernelArchive> out;
  std::uint64_t seed = 4100;
  for (ScenarioKind kind : {ScenarioKind::kTieStorm, ScenarioKind::kAllNaNBand,
                            ScenarioKind::kConstantTile, ScenarioKind::kAntiCorrelatedBand}) {
    for (bool inject_inf : {false, true}) out.push_back(make_archive(kind, inject_inf, ++seed));
  }
  return out;
}

/// Models over 4 bands: integer weights (exact ties on the palette
/// scenarios) and fractional signed weights with a bias.
std::vector<LinearModel> models() {
  return {LinearModel({1.0, 2.0, -1.0, 3.0}, 0.0, {}),
          LinearModel({0.443, -0.222, 0.153, 0.183}, -1.25, {}),
          LinearModel({-2.0, 0.0, 0.5, 1.0}, 7.5, {})};
}

std::vector<double> gather(const TiledArchive& archive, std::size_t x, std::size_t y) {
  std::vector<double> pixel(archive.band_count());
  for (std::size_t b = 0; b < pixel.size(); ++b) pixel[b] = archive.band(b).cell(x, y);
  return pixel;
}

/// Bit identity, with every NaN one class: a NaN's payload is not a score,
/// and the executors only ever ask std::isfinite of it.
bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Per-pixel reference for the serial full scan: visits pixels in row-major
/// order, charging `ops` per pixel against `budget` exactly as the per-pixel
/// definition does, and bills one gather + one evaluation per visited pixel.
struct Reference {
  RasterTopK result;
  std::uint64_t spent = 0;
  std::uint64_t pixels = 0;
  std::uint64_t points = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
};

Reference reference_scan(const TiledArchive& archive, const RasterModel& model, std::size_t k,
                         std::uint64_t budget) {
  Reference ref;
  TopK<RasterHit> top(k);
  const std::uint64_t ops = model.ops_per_evaluation();
  const std::uint64_t bands = archive.band_count();
  bool truncated = false;
  for (std::size_t y = 0; y < archive.height() && !truncated; ++y) {
    for (std::size_t x = 0; x < archive.width(); ++x) {
      ref.spent += ops;
      if (ref.spent > budget) {
        truncated = true;
        break;
      }
      ++ref.pixels;
      ref.points += bands;
      ref.bytes += bands * sizeof(double);
      ref.ops += ops;
      const double score = model.evaluate(gather(archive, x, y));
      if (!std::isfinite(score)) {
        ++ref.result.bad_points;
        continue;
      }
      top.offer_ranked(score, exec::pixel_rank(archive, x, y), RasterHit{x, y, score});
    }
  }
  ref.result.hits = exec::finalize(top);
  if (truncated) {
    ref.result.status = ResultStatus::kTruncatedBudget;
    ref.result.missed_bound = exec::archive_score_bound(archive, model);
  } else {
    ref.result.status = exec::completion_status(archive, ref.result.bad_points);
  }
  return ref;
}

/// Compares a run's hits and status against the reference; returns "" on
/// agreement, else the first difference.
std::string diff_answer(const Reference& want, const RasterTopK& got) {
  if (got.status != want.result.status) {
    return std::string("status ") + to_string(got.status) + " != " +
           to_string(want.result.status);
  }
  if (got.hits.size() != want.result.hits.size()) return "hit count differs";
  for (std::size_t i = 0; i < got.hits.size(); ++i) {
    const RasterHit& a = got.hits[i];
    const RasterHit& b = want.result.hits[i];
    if (a.x != b.x || a.y != b.y || !same_bits(a.score, b.score)) {
      return "hit differs at rank " + std::to_string(i);
    }
  }
  return "";
}

/// Compares a run against the reference — answer, bad points, missed bound,
/// spent() and meter totals; returns "" on agreement, else the first
/// difference.
std::string diff(const Reference& want, const RasterTopK& got, const QueryContext& ctx,
                 const CostMeter& meter) {
  if (std::string why = diff_answer(want, got); !why.empty()) return why;
  if (got.bad_points != want.result.bad_points) return "bad_points differ";
  if (!same_bits(got.missed_bound, want.result.missed_bound)) return "missed_bound differs";
  if (ctx.spent() != want.spent) return "spent differs";
  if (meter.points() != want.points) return "meter points differ";
  if (meter.bytes() != want.bytes) return "meter bytes differ";
  if (meter.ops() != want.ops) return "meter ops differ";
  if (meter.pruned() != 0) return "full scan pruned something";
  return "";
}

TEST(ScanKernel, EvaluateRowIsBitIdenticalToEvaluate) {
  for (const KernelArchive& ka : archives()) {
    const TiledArchive& archive = *ka.archive;
    for (const LinearModel& linear : models()) {
      const LinearRasterModel planar(linear);
      const GatherModel fallback(linear);
      std::vector<double> row(17);
      for (std::size_t y = 0; y < archive.height(); ++y) {
        for (std::size_t x0 = 1; x0 < archive.width(); x0 += 2) {
          for (std::size_t n = 1; n <= 17 && x0 + n <= archive.width(); ++n) {
            for (const RasterModel* model : {static_cast<const RasterModel*>(&planar),
                                             static_cast<const RasterModel*>(&fallback)}) {
              const std::span<double> out(row.data(), n);
              model->evaluate_row(archive, x0, y, out);
              for (std::size_t i = 0; i < n; ++i) {
                const double want = linear.evaluate(gather(archive, x0 + i, y));
                ASSERT_TRUE(same_bits(out[i], want))
                    << ka.name << " y=" << y << " x0=" << x0 << " n=" << n << " i=" << i
                    << " got=" << out[i] << " want=" << want
                    << (model == &planar ? " (planar)" : " (fallback)");
              }
            }
          }
        }
      }
    }
  }
}

TEST(ScanKernel, FullScanMatchesPerPixelReference) {
  constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();
  for (const KernelArchive& ka : archives()) {
    const TiledArchive& archive = *ka.archive;
    const std::uint64_t pixels = archive.pixel_count();
    for (const LinearModel& linear : models()) {
      const LinearRasterModel planar(linear);
      const GatherModel fallback(linear);
      const std::uint64_t ops = planar.ops_per_evaluation();
      for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{40}}) {
        // Budgets: unbounded (bulk charge), never tripping (per-pixel), and
        // trip points at the first pixel, mid-row, mid-scene and the last.
        const std::uint64_t budgets[] = {kUnbounded,      kUnbounded - 1, 0,
                                         ops - 1,         ops * 37 + 2,   pixels * ops / 2,
                                         pixels * ops - 1};
        for (std::uint64_t budget : budgets) {
          const Reference want = reference_scan(archive, planar, k, budget);
          for (const RasterModel* model : {static_cast<const RasterModel*>(&planar),
                                           static_cast<const RasterModel*>(&fallback)}) {
            QueryContext ctx;
            if (budget != kUnbounded) ctx.with_op_budget(budget);
            CostMeter meter;
            const RasterTopK got = full_scan_top_k(archive, *model, k, ctx, meter);
            const std::string why = diff(want, got, ctx, meter);
            EXPECT_EQ(why, "") << ka.name << " k=" << k << " budget=" << budget
                               << (model == &planar ? " (planar)" : " (fallback)");
            EXPECT_EQ(ctx.bad_points(), want.result.bad_points) << ka.name;
          }
        }
        // The tile-screened scans visit tiles best-bound-first, not in rank
        // order, so exact ties reach the kernel with smaller ranks than the
        // heap's worst entry: they must still be offered.  Pruned tiles make
        // the meters differ; the answer must not.
        {
          const Reference want = reference_scan(archive, planar, k, kUnbounded);
          QueryContext ctx;
          CostMeter meter;
          const RasterTopK got = tile_screened_top_k(archive, planar, k, ctx, meter);
          EXPECT_EQ(diff_answer(want, got), "") << ka.name << " k=" << k << " (tile-screened)";
          ThreadPool pool(3);
          QueryContext pctx;
          CostMeter pmeter;
          const RasterTopK pgot =
              parallel_tile_screened_top_k(archive, planar, k, pctx, pmeter, pool);
          EXPECT_EQ(diff_answer(want, pgot), "")
              << ka.name << " k=" << k << " (parallel tile-screened)";
        }
        // The tile-parallel full scan bills and answers like the serial one.
        for (std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
          ThreadPool pool(workers);
          for (std::uint64_t budget : {kUnbounded, kUnbounded - 1}) {
            const Reference want = reference_scan(archive, planar, k, budget);
            QueryContext ctx;
            if (budget != kUnbounded) ctx.with_op_budget(budget);
            CostMeter meter;
            const RasterTopK got = parallel_full_scan_top_k(archive, planar, k, ctx, meter, pool);
            EXPECT_EQ(diff(want, got, ctx, meter), "")
                << ka.name << " k=" << k << " workers=" << workers << " budget=" << budget;
          }
        }
      }
    }
  }
}

TEST(ScanKernel, NonFiniteScoreAfterFullHeapIsCountedAndDegrades) {
  // Finite samples whose scores overflow: the archive itself is clean
  // (bad_pixel_count() == 0), so only the kernel's own bad-point count can
  // degrade the status.  The overflowing pixels come after the k=2 heap has
  // filled with finite scores, where a threshold-first filter would drop a
  // -inf silently.
  Grid b0(9, 3, 1.0);
  Grid b1(9, 3, 2.0);
  b0.at(7, 2) = -1e308;  // 10 * -1e308 overflows to -inf
  b0.at(8, 2) = 1e308;   // ... and to +inf
  const TiledArchive archive({&b0, &b1}, 4);
  ASSERT_EQ(archive.bad_pixel_count(), 0u);
  const LinearRasterModel model(LinearModel({10.0, 1.0}, 0.0, {}));
  for (std::uint64_t budget :
       {std::numeric_limits<std::uint64_t>::max(), std::numeric_limits<std::uint64_t>::max() - 1}) {
    QueryContext ctx;
    ctx.with_op_budget(budget);
    CostMeter meter;
    const RasterTopK got = full_scan_top_k(archive, model, 2, ctx, meter);
    EXPECT_EQ(got.bad_points, 2u) << "budget=" << budget;
    EXPECT_EQ(ctx.bad_points(), 2u) << "budget=" << budget;
    EXPECT_EQ(got.status, ResultStatus::kDegraded) << "budget=" << budget;
    ASSERT_EQ(got.hits.size(), 2u);
    EXPECT_EQ(got.hits[0].score, 12.0);
    EXPECT_EQ(got.hits[0].x, 0u);
    EXPECT_EQ(got.hits[1].x, 1u);
  }
}

}  // namespace
}  // namespace mmir
