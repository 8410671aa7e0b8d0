#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The repository is compiled (CMake, Release) into .bench_build/e2e under the
checkout root; later runs rebuild only what changed. bench_e2e runs with that
directory's runs/ as its working directory, so the span file of a traced run
lands there. Its metric lines are echoed, and the last line printed is one
JSON object:

    {"correct": true, "attempted": 38, "failed": 0,
     "metrics": {"sim_speed": {"value": 94.2, "unit": "vs/s"}, ...}}

holding BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1). "correct" is false when any of bench_e2e's output checks
failed. The script exits non-zero, printing no result, when the build or the
run itself fails.
"""
import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build bench_e2e; tool output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return BUILD / "bench_e2e"


def parse_metrics(stdout):
    """`name value unit` lines; '#' lines are commentary."""
    metrics = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            metrics[parts[0]] = (float(parts[1]), parts[2])
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    (BUILD / "runs").mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=BUILD / "runs", stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    print(f"# run.py: bench_e2e exited {proc.returncode} after {time.monotonic() - start:.1f} s")
    if proc.returncode not in (0, 1):  # 1 = ran to the end, a check failed
        return 1

    measured = parse_metrics(proc.stdout)
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            print(f"run.py: bench_e2e printed no {m['name']}", file=sys.stderr)
            return 1
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            print(f"run.py: {m['name']} is in {unit}, BENCHMARK.json says {m['unit']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": proc.returncode == 0,
        "attempted": int(measured["missions_attempted"][0]),
        "failed": int(measured["missions_failed"][0]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
