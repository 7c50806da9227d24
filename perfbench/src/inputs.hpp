// Seeded inputs and the archive ingest path the workloads time.
//
// Inputs are generated before any timed window and handed to the program
// only as files and models: a scene is generated, its four bands (b4, b5,
// b7, dem) are saved with archive/io, and set-up or the ingest thread loads
// them back exactly as a deployment would.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "archive/tiled.hpp"
#include "data/grid.hpp"
#include "linear/model.hpp"
#include "support.hpp"
#include "util/interval.hpp"

namespace perfbench {

inline constexpr std::size_t kTileSize = 16;
inline constexpr std::size_t kTopK = 10;

/// Distinct generator streams, so workloads never share a random sequence.
enum Stream : std::uint64_t {
  kSceneStream = 1,
  kScanModelStream = 2,
  kZipfModelStream = 3,
  kZipfScheduleStream = 4,
  kFleetModelStream = 5,
  kLadderModelStream = 6,
};

struct SceneFiles {
  std::vector<std::filesystem::path> bands;  ///< b4, b5, b7, dem
};

/// The archives are a fixed data set: scene `index` is the same terrain
/// whatever the run's seed, which draws only the query stream (model
/// variants, arrival times, keys).  How hard a terrain is for the pruning
/// executors varies up to 2x between random scenes; drawing them per seed
/// would make the spread between runs measure the terrain, not the program.
inline constexpr std::uint64_t kSceneSeed = 0;

/// Generates scene `index` at size x size and saves its bands.
SceneFiles make_scene_files(std::uint64_t index, std::size_t size,
                            const std::filesystem::path& dir);

/// A fresh variant of the HPS risk model: each weight scaled by a seeded
/// factor in [0.5, 1.5).  Distinct indexes give distinct fingerprints, so no
/// result cache can answer one variant with another's result.
[[nodiscard]] mmir::LinearModel model_variant(std::uint64_t seed, std::uint64_t stream,
                                              std::uint64_t index);

/// A loaded, summarized archive: the grids it points into plus the tiled
/// view, and what loading (archive/io) and summarizing (TiledArchive) cost.
struct LoadedArchive {
  std::vector<mmir::Grid> grids;
  std::unique_ptr<mmir::TiledArchive> archive;
  double load_ms = 0.0;
  double summarize_ms = 0.0;

  [[nodiscard]] double band_mb() const;
};

/// load_grid for each band, then TiledArchive — the timed ingest path.
[[nodiscard]] std::unique_ptr<LoadedArchive> ingest(const SceneFiles& files, SpanLog& spans,
                                                    std::uint64_t parent, std::uint64_t query);

/// Per-band [min, max]; the progressive models' term ranges.
[[nodiscard]] std::vector<mmir::Interval> band_ranges(const mmir::TiledArchive& archive);

/// FNV-1a over the grids of a saved scene (self-test: seed determinism).
[[nodiscard]] std::uint64_t digest_files(const SceneFiles& files);

}  // namespace perfbench
