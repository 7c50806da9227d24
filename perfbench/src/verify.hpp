// Answer checking.  Every answer a run collects is compared, after the timed
// window, with the serial executor's answer to the same query: the hit lists
// must be byte-identical (x, y and the bits of the score).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "archive/tiled.hpp"
#include "core/progressive_exec.hpp"
#include "linear/model.hpp"
#include "support.hpp"
#include "util/result_status.hpp"

namespace perfbench {

/// One answer as the program returned it.
struct Answer {
  std::vector<mmir::RasterHit> hits;
  mmir::ResultStatus status = mmir::ResultStatus::kComplete;
};

enum class Verdict { kCorrect, kWrongHits, kBadStatus };

/// x, y and score bits, in order.
[[nodiscard]] bool same_hits(const std::vector<mmir::RasterHit>& got,
                             const std::vector<mmir::RasterHit>& want);

/// `want` is the serial answer; a correct answer is kComplete and identical.
[[nodiscard]] Verdict judge(const Answer& got, const mmir::RasterTopK& want);

/// Records a non-correct verdict in the run's failure tally.
void tally(Verdict v, const char* what, RunResult& result);

/// Serial reference answers (the executors the parity batteries trust).
[[nodiscard]] mmir::RasterTopK reference_full_scan(const mmir::TiledArchive& archive,
                                                   const mmir::LinearModel& model);
[[nodiscard]] mmir::RasterTopK reference_combined(const mmir::TiledArchive& archive,
                                                  const mmir::LinearModel& model,
                                                  const std::vector<mmir::Interval>& ranges);

/// Runs fn(i) for every i in [0, n) on a few threads (verification is
/// outside the timed window; this only keeps runs short).
void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace perfbench
