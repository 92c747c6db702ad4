#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds the xmem library
and the benchmark (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR
or .bench_build, runs the statistics self-test, then one measurement. The
last line of standard output is the result JSON. `--workload all` runs the
three workloads one after another and ends with a table of every
end-to-end metric, by name and unit.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["cold_sweep", "plan_refine_all", "serve_mixed"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """Identify the measured sources when the checkout is not a git repo."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(os.path.join(REPO_ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, REPO_ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id():
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        return "sources-sha256:" + source_digest()
    try:
        head = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "sources-sha256:" + source_digest()


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail("the xmem sources (src/) are not next to perfbench/; "
             "run from a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            step = subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT)
            if step.returncode != 0:
                fail("cmake configure failed; see " + log_path)
        step = subprocess.run(
            ["cmake", "--build", build_dir, "-j", "4"],
            stdout=log, stderr=subprocess.STDOUT)
        if step.returncode != 0:
            fail("build failed; see " + log_path)
    selftest = subprocess.run(
        [os.path.join(build_dir, "perfbench_selftest")],
        capture_output=True, text=True)
    if selftest.returncode != 0:
        fail("statistics self-test failed:\n" + selftest.stderr)


def run_one(build_dir, workload, seed, seconds, trace, commit):
    # The daemon's socket lives in the output directory and a Unix socket
    # path is limited to ~100 bytes, so pass the shorter spelling.
    out_dir = os.path.join(build_dir, "runs")
    out_dir = min(out_dir, os.path.relpath(out_dir), key=len)
    command = [
        os.path.join(build_dir, "perfbench"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out-dir", out_dir, "--commit", commit,
    ]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        fail(workload + ": run exceeded %d s" % RUN_TIMEOUT_S)
    if process.returncode != 0:
        sys.stdout.write(output)
        fail("%s: benchmark exited with code %d" %
             (workload, process.returncode))
    return output


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    build(build_dir)
    commit = commit_id()

    if args.workload != "all":
        sys.stdout.write(run_one(build_dir, args.workload, args.seed,
                                 args.seconds, args.trace, commit))
        return

    results = {}
    for workload in WORKLOADS:
        output = run_one(build_dir, workload, args.seed, args.seconds,
                         args.trace, commit)
        sys.stdout.write(output)
        results[workload] = json.loads(output.strip().splitlines()[-1])
    names = sorted({name for result in results.values()
                    for name in result["metrics"]})
    print("\n%-36s" % "metric" + "".join("%18s" % w for w in WORKLOADS))
    for name in names:
        row = "%-36s" % name
        unit = ""
        for workload in WORKLOADS:
            metric = results[workload]["metrics"].get(name)
            row += "%18s" % ("absent" if metric is None
                             else "%.6g" % metric["value"])
            unit = metric["unit"] if metric else unit
        print(row + "  " + unit)
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {w: r["metrics"] for w, r in results.items()},
    }))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
