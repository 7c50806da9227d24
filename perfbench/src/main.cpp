// perfbench: the repository benchmark binary.
//
//   perfbench --workload <scan_cold|serve_zipf|fleet_scan> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//             [--trace-out <file>] [--smoke]
//   perfbench --selftest --workdir <dir>
//
// Prints a host/build fingerprint line, human-readable measurement lines,
// and as the last line one JSON object: correct, attempted, failed and the
// metrics (end-to-end with --trace 0, per-layer with --trace 1).  Normally
// launched through perfbench/run.py, which builds it first.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "support.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <scan_cold|serve_zipf|fleet_scan> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir> [--trace-out <file>] "
               "[--smoke]\n       perfbench --selftest --workdir <dir>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  bool selftest = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opts.workload = value();
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opts.trace = std::stoi(value()) != 0;
      } else if (arg == "--workdir") {
        opts.workdir = value();
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else if (arg == "--smoke") {
        opts.smoke = true;
      } else if (arg == "--selftest") {
        selftest = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opts.workdir.empty()) usage("--workdir is required");
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");

  const std::string fingerprint = fingerprint_json();
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  try {
    if (selftest) return run_selftest(opts);

    SpanLog spans(opts.trace);
    RunResult result;
    if (opts.workload == "scan_cold") {
      run_scan_cold(opts, spans, result);
    } else if (opts.workload == "serve_zipf") {
      run_serve_zipf(opts, spans, result);
    } else if (opts.workload == "fleet_scan") {
      run_fleet_scan(opts, spans, result);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
    if (opts.trace) {
      spans.print_summary();
      if (!trace_out.empty()) spans.write_json(trace_out, fingerprint);
    }
    result.print_problems();
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
