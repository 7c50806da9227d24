#pragma once
// Per-tile / per-pixel kernels shared by the serial progressive executors
// (core/progressive_exec.cpp) and their tile-parallel variants
// (engine/parallel_exec.cpp).
//
// Each kernel scans one pixel rectangle — a tile, a row band, or the whole
// scene — into a caller-owned TopK accumulator, charging a caller-owned
// CostMeter and the shared QueryContext.  Nothing in here is thread-aware:
// parallelism comes from running many kernels at once over disjoint
// rectangles with per-worker accumulators/meters, which is exactly why the
// serial and parallel executors can share this code and stay answer-
// identical.
//
// Offers carry the pixel's row-major offset (`pixel_rank`) as the TopK rank,
// so exact score ties resolve to the canonical (score desc, rank asc) set no
// matter which order a scan visits pixels: serial, tile-parallel, sharded and
// batched runs of the same query return byte-identical results.
//
// The full-model kernel (scan_rect_full) scores a row at a time through
// RasterModel::evaluate_row into a caller-owned score buffer, so the hot loop
// pays no per-pixel gather, virtual call or meter update.  Charge rule:
// an unbounded QueryContext is charged once per rectangle (it cannot trip,
// so only the spent() total matters, and that is unchanged); a bounded one
// (budget, deadline or cancel flag) is charged per pixel, so trip points and
// certified prefixes are exact.  Per-pixel charging of an unbounded context
// was the tile-parallel collapse: one shared fetch_add per pixel on the
// context's cache line (which stopped() reads too) made 4 workers slower
// than 1.  The per-worker state that holds a kernel's accumulators
// (WorkerState, ShardRun) is padded to a cache line for the same reason —
// measurements in DESIGN.md §6b.  Charging per rectangle rather
// than per row matters too: a tile row is only tile_size pixels.
//
// Bit identity: evaluate_row must produce exactly the per-pixel evaluate()
// score (same per-pixel summation order; the build enables no FMA
// contraction or fast-math), so every executor, and the batch executor that
// still scores per pixel, agrees byte for byte.
//
// The staged kernel takes its abandoning threshold through a callable so the
// serial executor can pass the local heap threshold and the parallel one can
// splice in the shared cross-worker threshold (a stale value only weakens
// pruning, never soundness).

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "archive/tiled.hpp"
#include "core/progressive_exec.hpp"
#include "core/raster_model.hpp"
#include "linear/progressive.hpp"
#include "util/cost.hpp"
#include "util/topk.hpp"

namespace mmir::exec {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Canonical total-order rank of a pixel: its row-major offset.  Feeding this
/// as the TopK tie-break makes every executor's result a pure function of the
/// scored pixel multiset, independent of visit order.
inline std::uint64_t pixel_rank(const TiledArchive& archive, std::size_t x, std::size_t y) {
  return static_cast<std::uint64_t>(y) * archive.width() + x;
}

/// Smallest pixel_rank inside a tile (its top-left corner) — the strongest
/// rank any of its pixels could bring to an exact-tie contest.
inline std::uint64_t tile_min_rank(const TiledArchive& archive, const TileSummary& tile) {
  return static_cast<std::uint64_t>(tile.y0) * archive.width() + tile.x0;
}

/// Drains a TopK accumulator into a best-first hit vector.
inline std::vector<RasterHit> finalize(TopK<RasterHit>& top) {
  std::vector<RasterHit> out;
  for (auto& entry : top.take_sorted()) out.push_back(entry.item);
  return out;
}

/// Per-scan counters a kernel accumulates for its caller.  `pixels` counts
/// pixels whose evaluation *began* (data-leg pruning skips a pixel entirely,
/// so n_total / pixels is the empirical pd of §4.2); `bad_points` counts
/// non-finite evaluations skipped.  Plain locals — each worker owns one and
/// the coordinator sums after the join, like the per-worker CostMeters.
struct ScanTally {
  std::uint64_t pixels = 0;
  std::uint64_t bad_points = 0;

  ScanTally& operator+=(const ScanTally& other) noexcept {
    pixels += other.pixels;
    bad_points += other.bad_points;
    return *this;
  }
};

/// Staged evaluation of one pixel with early abandoning: returns the exact
/// score, or any value strictly below `threshold` once the upper bound drops
/// under it.  Charges one op + point per term actually computed, both to the
/// meter and to the query context (whose failure aborts the pixel — callers
/// must check ctx.stopped() on return).
inline double staged_pixel(const TiledArchive& archive, const ProgressiveLinearModel& model,
                           std::size_t x, std::size_t y, double threshold, QueryContext& ctx,
                           CostMeter& meter) {
  const auto order = model.order();
  double partial = model.model().bias();
  for (std::size_t stage = 0; stage < order.size(); ++stage) {
    if (!ctx.charge(1)) return kNegInf;  // aborted mid-pixel; ctx.stopped() is set
    const std::size_t band = order[stage];
    partial += model.model().weight(band) * archive.band(band).cell(x, y);
    meter.add_ops(1);
    meter.add_points(1);
    meter.add_bytes(sizeof(double));
    if (stage + 1 < order.size()) {
      const Interval tail = model.tail(stage);
      if (partial + tail.hi < threshold) {
        meter.add_pruned();
        return partial + tail.hi;  // certified below threshold
      }
    }
  }
  return partial;
}

/// Scans the rectangle [x0,x1)×[y0,y1) with the full model, offering every
/// finite score into `top` and counting visited pixels / non-finite
/// evaluations into `tally` (bad points also go to the context).  `scores`
/// is the caller's per-worker row buffer, reused across calls.  Stops
/// early — possibly mid-row — once the context stops; callers check
/// ctx.stopped() to distinguish.
///
/// Each row is scored in one RasterModel::evaluate_row call, then walked in
/// column order.  Charging follows the context:
///   * unbounded — charge() can never fail, so the whole rectangle is
///     charged up front in one call (the batch executor's bulk_charged rule;
///     spent() totals are unchanged);
///   * bounded (budget, deadline or cancel flag) — one charge per pixel,
///     and a pixel is consumed only if its charge succeeds, so trip points
///     are exact.
/// Non-finite scores are counted before the threshold filter (a -inf that
/// arrives after the heap is full is still a bad point); scores strictly
/// below the heap threshold skip offer_ranked (ties still reach it, to
/// contest on rank).  Meters are billed once per row with the per-pixel
/// totals: band_count points and band reads, ops_per_evaluation ops.
inline void scan_rect_full(const TiledArchive& archive, const RasterModel& model, std::size_t x0,
                           std::size_t x1, std::size_t y0, std::size_t y1, TopK<RasterHit>& top,
                           std::vector<double>& scores, QueryContext& ctx, CostMeter& meter,
                           ScanTally& tally) {
  const std::size_t width = x1 - x0;
  const std::uint64_t ops_per_pixel = model.ops_per_evaluation();
  const std::uint64_t bands = archive.band_count();
  const bool bulk = ctx.unbounded();
  if (bulk) (void)ctx.charge(static_cast<std::uint64_t>(width) * (y1 - y0) * ops_per_pixel);
  scores.resize(width);
  for (std::size_t y = y0; y < y1 && !ctx.stopped(); ++y) {
    model.evaluate_row(archive, x0, y, scores);
    const std::uint64_t rank0 = pixel_rank(archive, x0, y);
    std::size_t consumed = width;
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < width; ++i) {
      if (!bulk && !ctx.charge(ops_per_pixel)) {
        consumed = i;
        break;
      }
      const double score = scores[i];
      if (!std::isfinite(score)) {
        ++bad;
        continue;
      }
      if (score < top.threshold()) continue;
      top.offer_ranked(score, rank0 + i, RasterHit{x0 + i, y, score});
    }
    if (bad > 0) {
      ctx.note_bad_points(bad);
      tally.bad_points += bad;
    }
    tally.pixels += consumed;
    meter.add_points(consumed * bands);
    meter.add_bytes(consumed * bands * sizeof(double));
    meter.add_ops(consumed * ops_per_pixel);
  }
}

/// Staged-scan counterpart of scan_rect_full.  `threshold` is a callable
/// returning the current abandoning threshold (a lower bound on the final
/// global K-th best); `on_offer` runs after each successful offer so callers
/// can publish their updated heap threshold.
template <typename ThresholdFn, typename OnOfferFn>
inline void scan_rect_staged(const TiledArchive& archive, const ProgressiveLinearModel& model,
                             std::size_t x0, std::size_t x1, std::size_t y0, std::size_t y1,
                             TopK<RasterHit>& top, ThresholdFn&& threshold, OnOfferFn&& on_offer,
                             QueryContext& ctx, CostMeter& meter, ScanTally& tally) {
  for (std::size_t y = y0; y < y1 && !ctx.stopped(); ++y) {
    for (std::size_t x = x0; x < x1; ++x) {
      ++tally.pixels;
      const double score = staged_pixel(archive, model, x, y, threshold(), ctx, meter);
      if (ctx.stopped()) break;
      if (!std::isfinite(score)) {
        ctx.note_bad_points();
        ++tally.bad_points;
        continue;
      }
      // >= rather than >: a candidate tying the threshold can still displace
      // a worse-ranked incumbent under the canonical (score, rank) order.
      if (score >= top.threshold() &&
          top.offer_ranked(score, pixel_rank(archive, x, y), RasterHit{x, y, score})) {
        on_offer();
      }
    }
  }
}

/// Per-tile model bounds and the screening visit order (descending interval
/// upper bound).  Charges the meter one model-bound evaluation per tile —
/// the metadata-level work of the data leg.
struct TileBounds {
  std::vector<Interval> bounds;     ///< per-tile model interval, tile index order
  std::vector<std::size_t> order;   ///< tile indices, best upper bound first
};

/// Computes `bounds` (without ordering) for every tile.  Split out so the
/// engine's tile-summary cache can serve individual tiles (engine/cache.hpp).
inline void tile_bounds_into(const TiledArchive& archive, const RasterModel& model,
                             std::vector<Interval>& bounds, CostMeter& meter) {
  const auto tiles = archive.tiles();
  bounds.resize(tiles.size());
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    bounds[t] = model.bound(tiles[t].band_range);
    // Metadata-level work: one model-bound evaluation per tile.
    meter.add_ops(model.ops_per_evaluation());
  }
}

/// Sorts tile indices by descending bound upper bound.
inline std::vector<std::size_t> order_by_bound(const std::vector<Interval>& bounds) {
  std::vector<std::size_t> order(bounds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return bounds[a].hi > bounds[b].hi; });
  return order;
}

/// Bounds + visit order in one step (the serial executors' metadata pass).
inline TileBounds compute_tile_bounds(const TiledArchive& archive, const RasterModel& model,
                                      CostMeter& meter) {
  TileBounds tb;
  tile_bounds_into(archive, model, tb.bounds, meter);
  tb.order = order_by_bound(tb.bounds);
  return tb;
}

/// Sound upper bound on the model anywhere in the archive (finite data only),
/// used as the missed-score bound when a scan-order executor truncates.
inline double archive_score_bound(const TiledArchive& archive, const RasterModel& model) {
  return model.bound(archive.band_ranges()).hi;
}

/// Verdict of screening one tile against the caller's current heap.
enum class TilePrune : std::uint8_t {
  kScan = 0,       ///< the tile may still contribute — scan it
  kPruneOne = 1,   ///< this tile is certified out, but later tiles with the
                   ///< same bound may still win on rank — keep going
  kPruneRest = 2,  ///< strictly below the threshold: in a descending-bound
                   ///< visit order every remaining tile is certified out too
};

/// Canonical tile-screening rule for heaps fed via offer_ranked.  A tile is
/// certified out when no pixel in it can enter the canonical top-K: either
/// its bound is strictly below the K-th best score, or it exactly ties the
/// threshold but even its best-ranked pixel (top-left corner) ranks at or
/// after the heap's worst entry, so an exact tie could not displace anything.
inline TilePrune screen_tile(const TopK<RasterHit>& top, double tile_hi,
                             std::uint64_t tile_min_rank) {
  if (!top.full()) return TilePrune::kScan;
  const double threshold = top.threshold();
  if (tile_hi < threshold) return TilePrune::kPruneRest;
  if (tile_hi == threshold && tile_min_rank >= top.worst_rank()) return TilePrune::kPruneOne;
  return TilePrune::kScan;
}

/// Status of an execution that ran out its loops without truncating.
inline ResultStatus completion_status(const TiledArchive& archive, std::uint64_t bad_points) {
  // An archive carrying poisoned samples yields a degraded answer even when
  // this query never touched them (a pruned tile's NaN could have been
  // anything): the result is exact over the *finite* data only.
  return bad_points > 0 || archive.bad_pixel_count() > 0 ? ResultStatus::kDegraded
                                                         : ResultStatus::kComplete;
}

}  // namespace mmir::exec
