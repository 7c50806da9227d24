#!/usr/bin/env python3
"""Repository benchmark: build the benchmark binary from source, run one workload.

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The binary is built with CMake from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run compiles the libraries under src/.
Generated inputs live in a work directory under the build tree that is
removed after the run; traced runs keep their span dump in
<build>/traces/.  The last stdout line is the run's JSON result.

--selftest builds, runs the binary's own checks (verifier rejection, seed
determinism), then runs every workload for a few seconds in smoke mode
(small inputs), traced and untraced, and checks that each metric named in
BENCHMARK.json is emitted with its unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan_cold", "serve_zipf", "fleet_scan")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs])
    with open(bdir / "build.log", "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = (bdir / "build.log").read_text(errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                die("build failed: " + " ".join(step))
    return bdir / "perfbench"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_binary(binary, args, tag, capture=False):
    """Runs the binary in a fresh work directory; returns the CompletedProcess."""
    workdir = build_dir() / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PERFBENCH_GIT_COMMIT=git_commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    sys.stdout.flush()
    try:
        return subprocess.run([str(binary), *args, "--workdir", str(workdir)], env=env,
                              timeout=RUN_TIMEOUT_S, capture_output=capture, text=True)
    except subprocess.TimeoutExpired:
        die(f"benchmark binary did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def selftest(binary):
    failures = 0
    proc = run_binary(binary, ["--selftest"], "selftest")
    if proc.returncode != 0:
        failures += 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in WORKLOADS:
            proc = run_binary(binary, ["--workload", workload, "--seed", "7", "--seconds", "2",
                                       "--trace", str(trace), "--smoke"],
                              f"smoke-{workload}", capture=True)
            lines = proc.stdout.strip().splitlines()
            problems = []
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
                problems.append("last stdout line is not JSON")
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            if result and set(result) != RESULT_KEYS:
                problems.append(f"result keys {sorted(result)}")
            if result and not result.get("correct"):
                problems.append("run reported correct=false")
            got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
            for name, unit in want.items():
                if name not in got:
                    problems.append(f"metric {name} not emitted")
                elif got[name] != unit:
                    problems.append(f"metric {name} unit {got[name]!r}, expected {unit!r}")
            for name in set(got) - set(want):
                problems.append(f"metric {name} not named in BENCHMARK.json")
            status = "ok  " if not problems else "FAIL"
            print(f"selftest {status}: {workload} --trace {trace}: {len(got)} metrics with units")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    print(f"selftest: {failures} failing check group(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{tag}.json")]
    return run_binary(binary, cmd, tag).returncode


if __name__ == "__main__":
    sys.exit(main())
