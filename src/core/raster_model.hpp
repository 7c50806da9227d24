#pragma once
// Model abstraction over raster archives.
//
// The framework's progressive executor works with any model that can
// (a) score a pixel's band vector and (b) bound its score over a box of band
// ranges — the two capabilities §3 requires for progressive execution on
// progressively represented data.  LinearRasterModel adapts the §2.1 linear
// family; custom models (e.g. learned classifiers) implement the interface
// directly.
//
// evaluate_row() is the scan kernels' entry point: it scores a run of
// consecutive pixels of one row straight from the archive's band planes.
// The base class gathers each pixel and calls evaluate(); LinearRasterModel
// overrides it with a planar loop.  Overrides must be bit-identical to
// per-pixel evaluate() — same per-pixel operation order, no FMA contraction
// or fast-math — because every executor's answer is checked against that.

#include <memory>
#include <span>

#include "linear/model.hpp"
#include "util/cost.hpp"
#include "util/interval.hpp"

namespace mmir {

class TiledArchive;

/// A model evaluable per pixel and boundable per tile.
class RasterModel {
 public:
  virtual ~RasterModel() = default;

  /// Number of bands the model consumes.
  [[nodiscard]] virtual std::size_t bands() const = 0;

  /// Score of one pixel (band values in archive band order).
  [[nodiscard]] virtual double evaluate(std::span<const double> pixel) const = 0;

  /// Scores the pixels (x0 + i, y) for i in [0, out.size()) into `out`,
  /// bit-identically to evaluate() on each gathered pixel.  The default
  /// gathers and evaluates pixel by pixel.  Charges nothing: the caller
  /// bills the meter for the pixels it consumes.
  virtual void evaluate_row(const TiledArchive& archive, std::size_t x0, std::size_t y,
                            std::span<double> out) const;

  /// Bounds of the score over a box of per-band ranges.
  [[nodiscard]] virtual Interval bound(std::span<const Interval> ranges) const = 0;

  /// Elementary operations one evaluate() costs (for §4.2 accounting).
  [[nodiscard]] virtual std::size_t ops_per_evaluation() const = 0;
};

/// Adapter: LinearModel -> RasterModel.
class LinearRasterModel final : public RasterModel {
 public:
  explicit LinearRasterModel(LinearModel model) : model_(std::move(model)) {}

  [[nodiscard]] std::size_t bands() const override { return model_.dim(); }
  [[nodiscard]] double evaluate(std::span<const double> pixel) const override {
    return model_.evaluate(pixel);
  }
  /// Planar row kernel: s[i] = bias, then s[i] += w_b * band_b[i] band by
  /// band — LinearModel::evaluate's per-pixel summation order.
  void evaluate_row(const TiledArchive& archive, std::size_t x0, std::size_t y,
                    std::span<double> out) const override;
  [[nodiscard]] Interval bound(std::span<const Interval> ranges) const override {
    return model_.evaluate_interval(ranges);
  }
  [[nodiscard]] std::size_t ops_per_evaluation() const override { return model_.dim(); }

  [[nodiscard]] const LinearModel& linear() const noexcept { return model_; }

 private:
  LinearModel model_;
};

}  // namespace mmir
