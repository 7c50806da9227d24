// Self-tests of the benchmark itself (seconds long): the verifier rejects
// perturbed hit lists, and the seed alone determines the inputs.  run.py
// --selftest runs these, then every workload in smoke mode, and checks that
// each metric named in BENCHMARK.json is emitted with its unit.
#include <bit>
#include <cstdio>
#include <string>

#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("selftest %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void verifier_rejects_perturbations(const RunOptions& opts) {
  const SceneFiles files = make_scene_files(0, 64, opts.workdir / "verifier");
  SpanLog none(false);
  const auto data = ingest(files, none, 0, 0);
  const mmir::RasterTopK want =
      reference_full_scan(*data->archive, model_variant(opts.seed, kScanModelStream, 0));
  check(want.hits.size() == kTopK, "reference answer has k hits");

  const Answer exact{want.hits, mmir::ResultStatus::kComplete};
  check(judge(exact, want) == Verdict::kCorrect, "identical hit list accepted");

  Answer score = exact;
  score.hits[0].score =
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(score.hits[0].score) ^ 1U);
  check(judge(score, want) == Verdict::kWrongHits, "score off by one ulp rejected");

  Answer moved = exact;
  moved.hits[1].x ^= 1U;
  check(judge(moved, want) == Verdict::kWrongHits, "hit moved one pixel rejected");

  Answer swapped = exact;
  std::swap(swapped.hits[2], swapped.hits[3]);
  check(judge(swapped, want) == Verdict::kWrongHits, "two hits swapped rejected");

  Answer shorter = exact;
  shorter.hits.pop_back();
  check(judge(shorter, want) == Verdict::kWrongHits, "dropped hit rejected");

  Answer degraded = exact;
  degraded.status = mmir::ResultStatus::kDegraded;
  check(judge(degraded, want) == Verdict::kBadStatus, "non-complete status rejected");

  Answer shed{{}, mmir::ResultStatus::kShed};
  check(judge(shed, want) == Verdict::kBadStatus, "shed request rejected");
}

/// Digest of every generated input: the saved scenes (the same for every
/// seed), model variants of every stream, and the open-loop schedule's draws.
std::uint64_t inputs_digest(std::uint64_t seed, const std::filesystem::path& dir) {
  std::uint64_t h = 0;
  for (std::uint64_t scene = 0; scene < 2; ++scene) {
    h = mix64(h ^ digest_files(make_scene_files(scene, 48, dir)));
  }
  for (const Stream stream : {kScanModelStream, kZipfModelStream, kFleetModelStream,
                              kLadderModelStream}) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      const mmir::LinearModel model = model_variant(seed, stream, i);
      for (const double w : model.weights()) h = mix64(h ^ std::bit_cast<std::uint64_t>(w));
    }
  }
  const Zipf zipf(2048, 1.1);
  Rng rng(seed, kZipfScheduleStream);
  for (int i = 0; i < 1000; ++i) {
    h = mix64(h ^ std::bit_cast<std::uint64_t>(rng.exponential(1000.0)));
    h = mix64(h ^ zipf(rng));
  }
  return h;
}

void seed_determines_inputs(const RunOptions& opts) {
  const std::uint64_t a = inputs_digest(opts.seed, opts.workdir / "seed_a");
  const std::uint64_t b = inputs_digest(opts.seed, opts.workdir / "seed_b");
  const std::uint64_t c = inputs_digest(opts.seed + 1, opts.workdir / "seed_c");
  check(a == b, "same seed regenerates identical inputs");
  check(a != c, "a different seed gives different inputs");
}

}  // namespace

int run_selftest(const RunOptions& opts) {
  verifier_rejects_perturbations(opts);
  seed_determines_inputs(opts);
  std::printf("selftest: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
