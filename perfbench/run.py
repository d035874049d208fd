#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <fig6_grid|kv_read|kv_write> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the tcoram library plus the tcbench binary) with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
tcbench, checks that its result carries exactly the metrics BENCHMARK.json
names for the chosen mode, and prints that result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fig6_grid", "kv_read", "kv_write")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "tcbench",
         "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return build_dir / "tcbench"


def expected_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be 1..60", 2)

    root = Path(__file__).resolve().parent.parent
    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not (root / needed).exists():
            fail(f"{root / needed} is missing: run from a full checkout", 2)

    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (base if base.is_absolute() else root / base) / "perfbench"
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}", 3)

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"tcbench exceeded {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"tcbench exited {proc.returncode} without a result", 5)

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}", 6)
    want = expected_metrics(root, args.trace)
    got = set(result["metrics"])
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(want - got)}, extra {sorted(got - want)}", 6)

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
