#!/usr/bin/env python3
"""Build and run the hbosim fleet benchmark.

    python3 fleetbench/run.py --workload soak_power --seed 1 --seconds 30
    python3 fleetbench/run.py --self-check

Run from the root of a checkout. The first call configures and builds
fleetbench/ (the hbosim libraries from src/ plus the fleetbench program)
into .bench_build/fleetbench; later calls rebuild only what changed. The
program's output is passed through; its last line is the result JSON.

--self-check runs every workload at a tiny size in both trace modes and
checks that each metric BENCHMARK.json names is printed with its unit,
that both modes of one seed simulate the same fleet (equal digests), that
fleetbench/predictions.json names only known metrics and workloads, and
that bad command lines are rejected.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fleetbench")
BINARY = os.path.join(BUILD, "fleetbench")
WORKLOADS = ("hbo_prior", "soak_power", "edge_offload")
RUN_TIMEOUT_S = 175
BUILD_TYPE = "RelWithDebInfo"


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def jobs():
    return str(max(1, min(os.cpu_count() or 1, 4)))


def build():
    """Configure once, then let the build tool rebuild what changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("hbosim sources (src/) not found next to fleetbench/; "
             "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "fleetbench", "-j", jobs()]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    if out.returncode != 0:
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def run_program(args, echo=True):
    """Run the fleetbench program; return (exit code, stdout lines). With echo off,
    neither its stdout nor its stderr is passed through."""
    env = dict(os.environ, FLEETBENCH_GIT_DESCRIBE=git_describe())
    try:
        out = subprocess.run([BINARY] + args, capture_output=True, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fleetbench did not finish within {RUN_TIMEOUT_S} s")
    if echo:
        sys.stderr.write(out.stderr)
        sys.stdout.write(out.stdout)
        sys.stdout.flush()
    return out.returncode, out.stdout.splitlines()


def parse_result(lines):
    """The last stdout line as the result object, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)
    problems = []

    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    all_metrics = set(expected[0]) | set(expected[1])
    for p in predictions:
        for m in p["metrics"] + p["moves"]:
            if m not in all_metrics:
                problems.append(f"predictions.json: unknown metric {m}")
        for w in p["workload"] + p["no_change_on"]:
            if w not in WORKLOADS:
                problems.append(f"predictions.json: unknown workload {w}")

    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            code, lines = run_program(
                ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--sessions", "8"], echo=False)
            result = parse_result(lines)
            tag = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}, no result line")
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics/units {got} != "
                                f"{expected[trace]}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}")
            digests.update(ln for ln in lines
                           if ln.startswith("digest fleet0 "))
            printed = [ln for ln in lines if ln.startswith("metric ")]
            for name, unit in expected[trace].items():
                if not any(ln.startswith(f"metric {name} = ") and
                           ln.endswith(f" {unit}") for ln in printed):
                    problems.append(f"{tag}: {name} not printed with {unit}")
            print(f"self-check {tag}: {len(got)} metrics, "
                  f"{result['attempted']} sessions")
        if len(digests) != 1:
            problems.append(f"{workload}: fleet-0 digests of the untraced and "
                            f"traced processes differ: {sorted(digests)}")

    bad_lines = [["--workload", "nope", "--seed", "1", "--seconds", "1"],
                 ["--workload", "hbo_prior", "--seed", "x", "--seconds", "1"],
                 ["--workload", "hbo_prior", "--seed", "1", "--seconds", "0"],
                 ["--workload", "hbo_prior", "--seed", "1", "--seconds", "1",
                  "--trace", "2"],
                 ["--workload", "hbo_prior", "--seed", "1", "--seconds", "1",
                  "--bogus", "1"],
                 ["--workload", "hbo_prior"]]
    for bad in bad_lines:
        code, lines = run_program(bad, echo=False)
        if code == 0 or parse_result(lines) is not None:
            problems.append(f"fleetbench accepted bad command line {bad}")

    for p in problems:
        print(f"self-check FAILED: {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description="hbosim fleet benchmark: host throughput and simulated "
                    "reward of one fleet workload (--trace 0), or its "
                    "per-layer profile from a traced run (--trace 1).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sessions", type=int,
                        help="sessions per fleet run (default: workload size)")
    parser.add_argument("--self-check", action="store_true",
                        help="tiny runs of every workload that check the "
                             "printed metrics against BENCHMARK.json")
    args = parser.parse_args()

    if not args.self_check:
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        if not 1 <= args.seconds <= 600:
            parser.error("--seconds must be in [1, 600]")
        if args.sessions is not None and args.sessions < 1:
            parser.error("--sessions must be >= 1")

    build()
    if args.self_check:
        return self_check()

    program_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.sessions is not None:
        program_args += ["--sessions", str(args.sessions)]
    code, lines = run_program(program_args)
    if code != 0:
        fail(f"fleetbench exited with {code}", code)
    if parse_result(lines) is None:
        fail("fleetbench printed no result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
