#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs, per workload and metric.

    python3 bench/e2e/compare.py <dirA> <dirB>

Each directory holds one file per run: the stdout of bench_e2e or of run.py
(the `# bench_e2e workload=... seed=...` header names the run). For every
(workload, metric) pair the table gives each side's median and quartiles
(Python's statistics.quantiles, n=4) and a verdict:

  end_to_end metrics of BENCHMARK.json  judged against their bound: "within",
                                        "WORSE", "better", or "unresolved" when
                                        either side's quartile spread, as a
                                        share of its median, exceeds the bound
                                        (unless every B run beats every A run)
  virtual-clock metrics                 must be identical for every seed both
                                        sides ran: "identical" or "CHANGED"
  fail_frac                             must not increase (bound 0)

The bound rule is the one judge() in stats.h implements; stats_test.cpp pins
its cases. Other metrics are listed for reading, without a verdict. Exits 0
only when every judged pair is "within" or "identical".
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Modeled results: a function of the seed alone (README.md, "Two clocks").
VIRTUAL = ("mission_s_p50", "energy_j_p50", "standby_frac", "fallbacks_per_min")
NO_INCREASE = ("fail_frac",)


def load_runs(directory):
    """{workload: {metric: {seed: value}}} from every run file in `directory`."""
    runs = defaultdict(lambda: defaultdict(dict))
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        header = None
        values = {}
        for line in path.read_text(errors="replace").splitlines():
            if line.startswith("# bench_e2e workload="):
                header = dict(kv.split("=", 1) for kv in line.split()[2:])
            parts = line.split()
            if len(parts) == 3 and not line.startswith("#"):
                try:
                    values[parts[0]] = float(parts[1])
                except ValueError:
                    pass
        if header is None:
            continue
        for name, value in values.items():
            runs[header["workload"]][name][header["seed"]] = value
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(q):
    q1, med, q3 = q
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def judge(base, change, bound, lower_is_better):
    """Mirror of judge() in stats.h."""
    qb, qc = quartiles(base), quartiles(change)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (qc[1] - qb[1])
    if qb[1] != 0:
        worse /= abs(qb[1])
    elif worse != 0:
        worse = float("inf") if worse > 0 else float("-inf")
    if bound > 0 and max(spread(qb), spread(qc)) > bound:
        if lower_is_better:
            all_better = max(change) < min(base)
        else:
            all_better = min(change) > max(base)
        return "better" if all_better else "unresolved"
    if worse > bound:
        return "WORSE"
    if worse < -bound:
        return "better"
    return "within"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load_runs(argv[1]), load_runs(argv[2])
    ok = True
    print(f"{'workload':<15} {'metric':<36} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'n':>5}  verdict")
    for workload in sorted(set(a) & set(b)):
        for metric in sorted(set(a[workload]) & set(b[workload])):
            sa, sb = a[workload][metric], b[workload][metric]
            va, vb = list(sa.values()), list(sb.values())
            if metric in gated:
                m = gated[metric]
                verdict = judge(va, vb, m["bound"], m["better"] == "lower")
                verdict += f" (bound {m['bound']:.0%})"
                ok &= verdict.startswith("within")
            elif metric in VIRTUAL:
                shared = set(sa) & set(sb)
                same = all(sa[s] == sb[s] for s in shared)
                verdict = f"{'identical' if same else 'CHANGED'} ({len(shared)} seeds)"
                ok &= same
            elif metric in NO_INCREASE:
                verdict = judge(va, vb, 0.0, True)
                ok &= verdict == "within"
            else:
                verdict = "-"
            qa, qb = quartiles(va), quartiles(vb)
            print(f"{workload:<15} {metric:<36} "
                  f"{qa[1]:>12.5g} [{qa[0]:>8.4g}, {qa[2]:>8.4g}] "
                  f"{qb[1]:>12.5g} [{qb[0]:>8.4g}, {qb[2]:>8.4g}] "
                  f"{len(va):>2}/{len(vb):<2}  {verdict}")
    for workload in sorted(set(a) ^ set(b)):
        print(f"{workload}: runs on one side only")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
