#!/usr/bin/env python3
"""Builds and runs the CAGRA benchmark declared in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_deep --seed 1 --seconds 15 --trace 0

It configures perfbench/ (which builds the library from ../src exactly as
the root CMakeLists does) into .bench_build/ in Release, builds it, runs
the benchmark binary and prints, as the last line of standard output, one
JSON object {"correct", "attempted", "failed", "metrics"} whose metrics are
the end_to_end ones of BENCHMARK.json (--trace 0) or the per_layer ones
(--trace 1), each with the unit BENCHMARK.json gives it. The exit code is
non-zero when an output check failed or the run could not be made.

Traced runs also write their spans to .bench_build/traces/ and, when an
untraced run of the same workload and seed was made before in this
checkout, print the tracing overhead against it.

`--selftest` builds and runs the benchmark's own test instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def git_sha(root):
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def build(root, build_dir, targets):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(os.cpu_count() or 1)
    for target in targets:
        cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", target]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("run from the root of a checkout holding the library sources "
            "(CMakeLists.txt and src/ not found)")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    if args.selftest:
        if not build(root, build_dir, ["perfbench_test"]):
            return 2
        return subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode

    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload}")
    if not build(root, build_dir, ["cagra_perfbench"]):
        return 2

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    cmd = [os.path.join(build_dir, "cagra_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(root),
           "--trace-out", os.path.join(trace_dir, tag + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return 2
    result = json.loads(lines[-1])
    values = result["metrics"]

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        log(f"benchmark did not report {missing}")
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    untraced = os.path.join(build_dir, f"untraced-{tag}.json")
    if args.trace == 0:
        with open(untraced, "w") as f:
            json.dump(values, f)
    elif os.path.exists(untraced):
        traced = next(json.loads(l)["traced_end_to_end"] for l in lines
                      if l.startswith('{"traced_end_to_end"'))
        with open(untraced) as f:
            base = json.load(f)
        for m in spec["end_to_end"]:
            name = m["name"]
            if base.get(name) and name in traced:
                print(f"# tracing overhead {name}: traced {traced[name]:.6g} "
                      f"vs untraced {base[name]:.6g} "
                      f"({100 * (traced[name] / base[name] - 1):+.1f}%)")

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
