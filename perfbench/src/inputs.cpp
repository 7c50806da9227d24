#include "inputs.hpp"

#include <string>

#include "archive/io.hpp"
#include "data/scene.hpp"
#include "util/fnv.hpp"

namespace perfbench {

SceneFiles make_scene_files(std::uint64_t index, std::size_t size,
                            const std::filesystem::path& dir) {
  mmir::SceneConfig config;
  config.width = size;
  config.height = size;
  config.seed = Rng(kSceneSeed, kSceneStream * 1000003ULL + index).next();
  const mmir::Scene scene = mmir::generate_scene(config);
  const std::vector<const mmir::Grid*> grids = {&scene.band("b4"), &scene.band("b5"),
                                                &scene.band("b7"), &scene.dem};
  const char* names[] = {"b4", "b5", "b7", "dem"};
  std::filesystem::create_directories(dir);
  SceneFiles files;
  for (std::size_t b = 0; b < grids.size(); ++b) {
    files.bands.push_back(dir / ("scene" + std::to_string(index) + "_" + names[b] + ".grd"));
    mmir::save_grid(*grids[b], files.bands.back().string());
  }
  return files;
}

mmir::LinearModel model_variant(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  const mmir::LinearModel base = mmir::hps_risk_model();
  Rng rng(seed, stream * 0x100000001b3ULL + index);
  std::vector<double> weights;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < base.dim(); ++i) {
    weights.push_back(base.weight(i) * (0.5 + rng.uniform()));
    names.push_back(base.name(i));
  }
  return mmir::LinearModel(std::move(weights), base.bias(), std::move(names));
}

double LoadedArchive::band_mb() const {
  double bytes = 0.0;
  for (const mmir::Grid& g : grids) bytes += static_cast<double>(g.size() * sizeof(double));
  return bytes / 1e6;
}

std::unique_ptr<LoadedArchive> ingest(const SceneFiles& files, SpanLog& spans,
                                      std::uint64_t parent, std::uint64_t query) {
  auto out = std::make_unique<LoadedArchive>();
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan load(spans, "archive.load_grid", parent, query);
    for (const auto& path : files.bands) out->grids.push_back(mmir::load_grid(path.string()));
  }
  const Clock::time_point t1 = Clock::now();
  {
    const ScopedSpan summarize(spans, "archive.TiledArchive", parent, query);
    std::vector<const mmir::Grid*> bands;
    for (const mmir::Grid& g : out->grids) bands.push_back(&g);
    out->archive = std::make_unique<mmir::TiledArchive>(std::move(bands), kTileSize);
  }
  out->load_ms = ms_between(t0, t1);
  out->summarize_ms = ms_between(t1, Clock::now());
  return out;
}

std::vector<mmir::Interval> band_ranges(const mmir::TiledArchive& archive) {
  const auto ranges = archive.band_ranges();
  return {ranges.begin(), ranges.end()};
}

std::uint64_t digest_files(const SceneFiles& files) {
  std::uint64_t h = 0;
  for (const auto& path : files.bands) {
    const mmir::Grid g = mmir::load_grid(path.string());
    const auto cells = g.flat();
    h = mix64(h ^ mmir::fnv1a(cells.data(), cells.size_bytes()));
  }
  return h;
}

}  // namespace perfbench
