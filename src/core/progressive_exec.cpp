#include "core/progressive_exec.hpp"

#include <algorithm>

#include "core/exec_kernels.hpp"
#include "obs/trace.hpp"

namespace mmir {

// The pixel/tile kernels live in core/exec_kernels.hpp, shared with the
// tile-parallel executors in engine/parallel_exec.cpp; this file wires them
// into the four serial executors with the exact historical semantics.

using exec::kNegInf;

namespace {

/// Closes out an executor's trace span: result shape plus the meter's totals
/// at stage close (per-pixel work is charged to the meter, never traced
/// per-event, so tracing cost stays per-stage).
void annotate_result(const obs::Span& span, const RasterTopK& out, const CostMeter& meter) {
  if (!span.active()) return;
  span.annotate("hits", static_cast<double>(out.hits.size()));
  span.annotate("bad_points", static_cast<double>(out.bad_points));
  span.annotate("meter_points", static_cast<double>(meter.points()));
  span.annotate("meter_ops", static_cast<double>(meter.ops()));
  span.annotate("meter_pruned", static_cast<double>(meter.pruned()));
  span.note("status", to_string(out.status));
}

/// Publishes the §4.2 efficiency-model inputs on the executor span: archive
/// size n (total pixels), full-model cost N (ops per full evaluation),
/// pixels whose evaluation began, and the ops spent inside the scan stage
/// (excluding the metadata pass).  obs::ExplainReport derives the empirical
/// pm = visited·N / scan_ops and pd = n / visited from exactly these four.
void annotate_efficiency(const obs::Span& span, const TiledArchive& archive,
                         std::uint64_t model_terms, std::uint64_t pixels_visited,
                         std::uint64_t scan_ops) {
  if (!span.active()) return;
  span.annotate("total_pixels",
                static_cast<double>(archive.width()) * static_cast<double>(archive.height()));
  span.annotate("model_terms", static_cast<double>(model_terms));
  span.annotate("pixels_visited", static_cast<double>(pixels_visited));
  span.annotate("scan_ops", static_cast<double>(scan_ops));
}

}  // namespace

RasterTopK full_scan_top_k(const TiledArchive& archive, const RasterModel& model, std::size_t k,
                           QueryContext& ctx, CostMeter& meter) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.bands() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "full_scan");
  RasterTopK out;
  TopK<RasterHit> top(k);
  std::vector<double> scores;
  const std::uint64_t ops_before = meter.ops();
  exec::ScanTally tally;
  exec::scan_rect_full(archive, model, 0, archive.width(), 0, archive.height(), top, scores, ctx,
                       meter, tally);
  out.bad_points = tally.bad_points;
  out.hits = exec::finalize(top);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = exec::archive_score_bound(archive, model);
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  annotate_efficiency(span, archive, model.ops_per_evaluation(), tally.pixels,
                      meter.ops() - ops_before);
  annotate_result(span, out, meter);
  return out;
}

std::vector<RasterHit> full_scan_top_k(const TiledArchive& archive, const RasterModel& model,
                                       std::size_t k, CostMeter& meter) {
  QueryContext unbounded;
  return full_scan_top_k(archive, model, k, unbounded, meter).hits;
}

RasterTopK progressive_model_top_k(const TiledArchive& archive,
                                   const ProgressiveLinearModel& model, std::size_t k,
                                   QueryContext& ctx, CostMeter& meter) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.model().dim() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "progressive_model");
  RasterTopK out;
  TopK<RasterHit> top(k);
  const std::uint64_t ops_before = meter.ops();
  exec::ScanTally tally;
  exec::scan_rect_staged(
      archive, model, 0, archive.width(), 0, archive.height(), top,
      [&] { return top.threshold(); }, [] {}, ctx, meter, tally);
  out.bad_points = tally.bad_points;
  out.hits = exec::finalize(top);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = model.model().evaluate_interval(archive.band_ranges()).hi;
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  annotate_efficiency(span, archive, model.order().size(), tally.pixels,
                      meter.ops() - ops_before);
  annotate_result(span, out, meter);
  return out;
}

std::vector<RasterHit> progressive_model_top_k(const TiledArchive& archive,
                                               const ProgressiveLinearModel& model, std::size_t k,
                                               CostMeter& meter) {
  QueryContext unbounded;
  return progressive_model_top_k(archive, model, k, unbounded, meter).hits;
}

RasterTopK tile_screened_top_k(const TiledArchive& archive, const RasterModel& model,
                               std::size_t k, QueryContext& ctx, CostMeter& meter) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.bands() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "tile_screened");
  RasterTopK out;
  obs::Span screen_span = obs::Span::child_of(&span, "metadata_screen");
  const exec::TileBounds tb = exec::compute_tile_bounds(archive, model, meter);
  screen_span.annotate("tiles", static_cast<double>(tb.bounds.size()));
  screen_span.finish();
  const auto tiles = archive.tiles();
  const std::uint64_t ops_per_pixel = model.ops_per_evaluation();

  TopK<RasterHit> top(k);
  std::vector<double> scores;
  double truncation_bound = kNegInf;
  std::size_t tiles_scanned = 0;
  exec::ScanTally tally;
  // Metadata pass: one bound evaluation per tile.
  if (!ctx.charge(tiles.size() * ops_per_pixel)) {
    out.status = ctx.stop_reason();
    out.missed_bound = exec::archive_score_bound(archive, model);
    annotate_result(span, out, meter);
    return out;
  }
  const std::uint64_t ops_before = meter.ops();
  obs::Span scan_span = obs::Span::child_of(&span, "full_model_scan");
  for (std::size_t pos = 0; pos < tb.order.size(); ++pos) {
    const std::size_t t = tb.order[pos];
    const TileSummary& tile = tiles[t];
    switch (exec::screen_tile(top, tb.bounds[t].hi, exec::tile_min_rank(archive, tile))) {
      case exec::TilePrune::kPruneRest:
        // Strictly dominated; tiles run best-bound-first, so every later
        // tile is dominated too.
        meter.add_pruned(tb.order.size() - pos);
        pos = tb.order.size();
        continue;
      case exec::TilePrune::kPruneOne:
        // Exact-tie prune: this tile cannot win on rank, but a later tile
        // with the same bound and a smaller corner rank still could.
        meter.add_pruned();
        continue;
      case exec::TilePrune::kScan:
        break;
    }
    ++tiles_scanned;
    exec::scan_rect_full(archive, model, tile.x0, tile.x0 + tile.width, tile.y0,
                         tile.y0 + tile.height, top, scores, ctx, meter, tally);
    if (ctx.stopped()) {
      // Tiles run best-bound-first, so the current tile's bound dominates
      // everything unexamined (its own remainder and all later tiles).
      truncation_bound = tb.bounds[t].hi;
      break;
    }
  }
  out.bad_points = tally.bad_points;
  scan_span.annotate("tiles_scanned", static_cast<double>(tiles_scanned));
  scan_span.annotate("tiles_pruned", static_cast<double>(tb.order.size() - tiles_scanned));
  scan_span.finish();
  out.hits = exec::finalize(top);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = truncation_bound;
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  annotate_efficiency(span, archive, ops_per_pixel, tally.pixels, meter.ops() - ops_before);
  annotate_result(span, out, meter);
  return out;
}

std::vector<RasterHit> tile_screened_top_k(const TiledArchive& archive, const RasterModel& model,
                                           std::size_t k, CostMeter& meter) {
  QueryContext unbounded;
  return tile_screened_top_k(archive, model, k, unbounded, meter).hits;
}

RasterTopK progressive_combined_top_k(const TiledArchive& archive,
                                      const ProgressiveLinearModel& model, std::size_t k,
                                      QueryContext& ctx, CostMeter& meter) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.model().dim() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "progressive_combined");
  RasterTopK out;
  const LinearRasterModel raster_model(model.model());
  obs::Span screen_span = obs::Span::child_of(&span, "metadata_screen");
  const exec::TileBounds tb = exec::compute_tile_bounds(archive, raster_model, meter);
  screen_span.annotate("tiles", static_cast<double>(tb.bounds.size()));
  screen_span.finish();
  const auto tiles = archive.tiles();

  TopK<RasterHit> top(k);
  double truncation_bound = kNegInf;
  std::size_t tiles_scanned = 0;
  exec::ScanTally tally;
  if (!ctx.charge(tiles.size() * raster_model.ops_per_evaluation())) {
    out.status = ctx.stop_reason();
    out.missed_bound = exec::archive_score_bound(archive, raster_model);
    annotate_result(span, out, meter);
    return out;
  }
  const std::uint64_t ops_before = meter.ops();
  obs::Span scan_span = obs::Span::child_of(&span, "staged_model_scan");
  for (std::size_t pos = 0; pos < tb.order.size(); ++pos) {
    const std::size_t t = tb.order[pos];
    const TileSummary& tile = tiles[t];
    switch (exec::screen_tile(top, tb.bounds[t].hi, exec::tile_min_rank(archive, tile))) {
      case exec::TilePrune::kPruneRest:
        meter.add_pruned(tb.order.size() - pos);
        pos = tb.order.size();
        continue;
      case exec::TilePrune::kPruneOne:
        meter.add_pruned();
        continue;
      case exec::TilePrune::kScan:
        break;
    }
    ++tiles_scanned;
    exec::scan_rect_staged(
        archive, model, tile.x0, tile.x0 + tile.width, tile.y0, tile.y0 + tile.height, top,
        [&] { return top.threshold(); }, [] {}, ctx, meter, tally);
    if (ctx.stopped()) {
      truncation_bound = tb.bounds[t].hi;
      break;
    }
  }
  out.bad_points = tally.bad_points;
  scan_span.annotate("tiles_scanned", static_cast<double>(tiles_scanned));
  scan_span.annotate("tiles_pruned", static_cast<double>(tb.order.size() - tiles_scanned));
  scan_span.finish();
  out.hits = exec::finalize(top);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = truncation_bound;
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  annotate_efficiency(span, archive, model.order().size(), tally.pixels,
                      meter.ops() - ops_before);
  annotate_result(span, out, meter);
  return out;
}

std::vector<RasterHit> progressive_combined_top_k(const TiledArchive& archive,
                                                  const ProgressiveLinearModel& model,
                                                  std::size_t k, CostMeter& meter) {
  QueryContext unbounded;
  return progressive_combined_top_k(archive, model, k, unbounded, meter).hits;
}

}  // namespace mmir
