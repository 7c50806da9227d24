#include "verify.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <mutex>
#include <thread>

#include "core/raster_model.hpp"
#include "inputs.hpp"
#include "linear/progressive.hpp"

namespace perfbench {

bool same_hits(const std::vector<mmir::RasterHit>& got,
               const std::vector<mmir::RasterHit>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].x != want[i].x || got[i].y != want[i].y ||
        std::bit_cast<std::uint64_t>(got[i].score) != std::bit_cast<std::uint64_t>(want[i].score)) {
      return false;
    }
  }
  return true;
}

Verdict judge(const Answer& got, const mmir::RasterTopK& want) {
  if (got.status != mmir::ResultStatus::kComplete) return Verdict::kBadStatus;
  return same_hits(got.hits, want.hits) ? Verdict::kCorrect : Verdict::kWrongHits;
}

void tally(Verdict v, const char* what, RunResult& result) {
  switch (v) {
    case Verdict::kCorrect:
      return;
    case Verdict::kWrongHits:
      result.fail(std::string(what) + ": hit list differs from the serial executor");
      return;
    case Verdict::kBadStatus:
      result.fail(std::string(what) + ": status not complete");
      return;
  }
}

mmir::RasterTopK reference_full_scan(const mmir::TiledArchive& archive,
                                     const mmir::LinearModel& model) {
  const mmir::LinearRasterModel raster(model);
  mmir::QueryContext ctx;
  mmir::CostMeter meter;
  return mmir::full_scan_top_k(archive, raster, kTopK, ctx, meter);
}

mmir::RasterTopK reference_combined(const mmir::TiledArchive& archive,
                                    const mmir::LinearModel& model,
                                    const std::vector<mmir::Interval>& ranges) {
  const mmir::ProgressiveLinearModel progressive(model, ranges);
  mmir::QueryContext ctx;
  mmir::CostMeter meter;
  return mmir::progressive_combined_top_k(archive, progressive, kTopK, ctx, meter);
}

void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      try {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (error == nullptr) error = std::current_exception();
        next.store(n);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace perfbench
