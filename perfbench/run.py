#!/usr/bin/env python3
"""End-to-end coloring benchmark for sinrcolor.

Builds perfbench/e2e from the checkout's sources (CMake, into .bench_build),
runs one workload and prints the e2e binary's report. The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. The run exits non-zero if any check failed, the build is
a Debug or sanitizer build, or the report does not match BENCHMARK.json.

    python3 perfbench/run.py --workload sinr --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke     # every workload, tiny, both modes

Workloads (perfbench/e2e.cpp): sinr, fading, graph, sweep. The seed makes
the deployments; the default is 1. Seed 7919 is held out: use it only to
confirm a gain that was developed on other seeds.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# A run must end within 180 s; leave room for process start-up.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate_result(line, expected):
    """Returns a list of problems with one result line (empty when valid)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    problems = []
    keys = set(result)
    if keys != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(keys)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    if result["failed"] != 0:
        problems.append(f"failed = {result['failed']}")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(m)}")
        elif m["unit"] != unit:
            problems.append(f"{name}: unit {m['unit']!r}, expected {unit!r}")
        elif not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append(f"{name}: value is not a number")
    return problems


def tool_env():
    env = dict(os.environ)
    # git (run by CMake configure and for provenance) must not search above
    # the checkout for a repository.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def build():
    """Configures (once) and builds the e2e binary; returns its path."""
    # CARGO_TARGET_DIR names the build directory when the caller sets one.
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no sinrcolor source tree at {ROOT}")
    log_path = build_dir / "perfbench-build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "e2e", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=tool_env()).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"run.py: build failed (log: {log_path})")
    return build_dir / "e2e"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=tool_env(),
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_workload(binary, spec, workload, seed, seconds, trace, smoke, echo=True):
    """Runs one workload; returns (exit code, result line or None, problems)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha()]
    if smoke:
        cmd += ["--smoke", "1"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, None, [f"timed out after {RUN_TIMEOUT_S} s"]
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    last = lines[-1] if lines and lines[-1].startswith("{") else None
    if last is None:
        return proc.returncode or 1, None, ["no result line"]
    problems = [ln for ln in lines if ln.startswith("CHECK FAILED")]
    problems += validate_result(last, expected_metrics(spec, trace))
    return proc.returncode, last, problems


def smoke(binary, spec):
    """Runs every workload tiny, untraced and traced; checks every metric."""
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, _, problems = run_workload(binary, spec, w["name"], DEFAULT_SEED,
                                             1, trace, smoke=True, echo=False)
            ok = code == 0 and not problems
            failures += not ok
            print(f"smoke {w['name']:<8} trace={trace}: "
                  f"{'ok' if ok else 'FAIL ' + '; '.join(problems)}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="sinr")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"deployment seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny, traced and untraced")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    if args.smoke:
        return smoke(binary, spec)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"run.py: unknown workload {args.workload!r} (one of {names})")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    code, _, problems = run_workload(binary, spec, args.workload, args.seed,
                                     seconds, args.trace, smoke=False)
    for p in problems:
        sys.stderr.write(f"run.py: {p}\n")
    return code if code != 0 else (1 if problems else 0)


if __name__ == "__main__":
    sys.exit(main())
