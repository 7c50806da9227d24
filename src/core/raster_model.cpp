#include "core/raster_model.hpp"

#include <vector>

#include "archive/tiled.hpp"

namespace mmir {

void RasterModel::evaluate_row(const TiledArchive& archive, std::size_t x0, std::size_t y,
                               std::span<double> out) const {
  MMIR_EXPECTS(archive.band_count() == bands());
  MMIR_EXPECTS(y < archive.height() && x0 + out.size() <= archive.width());
  std::vector<double> pixel(archive.band_count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t b = 0; b < pixel.size(); ++b) pixel[b] = archive.band(b).cell(x0 + i, y);
    out[i] = evaluate(pixel);
  }
}

void LinearRasterModel::evaluate_row(const TiledArchive& archive, std::size_t x0, std::size_t y,
                                     std::span<double> out) const {
  MMIR_EXPECTS(archive.band_count() == model_.dim());
  MMIR_EXPECTS(y < archive.height() && x0 + out.size() <= archive.width());
  const std::size_t offset = y * archive.width() + x0;
  const std::size_t n = out.size();
  double* __restrict scores = out.data();
  // Band-major over the row, pixel-minor inside: each pixel still sees
  // bias, then + w_0·x_0, then + w_1·x_1, ... — LinearModel::evaluate's exact
  // operation sequence, so the scores are bit-identical (the build enables
  // no FMA contraction or fast-math that could reassociate them).
  const double bias = model_.bias();
  for (std::size_t i = 0; i < n; ++i) scores[i] = bias;
  const std::span<const double> weights = model_.weights();
  for (std::size_t b = 0; b < weights.size(); ++b) {
    const double w = weights[b];
    const double* __restrict band = archive.band(b).flat().data() + offset;
    for (std::size_t i = 0; i < n; ++i) scores[i] += w * band[i];
  }
}

}  // namespace mmir
