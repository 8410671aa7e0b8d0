#!/usr/bin/env bash
# Chaos suite: build the fault-injection subsystem under ASan and TSan
# (LGV_SANITIZE=address / thread), run every fault-related test plus a smoke
# pass of bench_fault_injection in each build, and validate the two emitted
# artifacts:
#
#   BENCH_fault_injection.json            degradation curves (docs/faults.md)
#   BENCH_fault_injection_telemetry.json  per-run metric snapshots
#
# Fails (non-zero exit) on any sanitizer report, test failure, missing
# artifact, or a degradation curve that does not show the graceful-
# degradation shape (adaptive+fallback completing with >=1 fallback while
# the non-adaptive plan out-stalls it).
#
# Usage: tools/run_chaos_suite.sh [--asan-only|--tsan-only]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
RUN_ASAN=1
RUN_TSAN=1
for arg in "$@"; do
  case "$arg" in
    --asan-only) RUN_TSAN=0 ;;
    --tsan-only) RUN_ASAN=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Everything the fault-injection PR touches: the injector itself, the lease
# protocol in OffloadRuntime, Algorithm 2 hysteresis edges, the Switcher
# direction/accounting fixes, the link telemetry fixes, and the end-to-end
# fallback missions — plus the wire-integrity layer (frame CRC/sequencing,
# adversarial deserialization, the structure-aware fuzz corpus) and the
# multi-threaded fleet paths (shared WorkerPool, pool faults and failover).
GTEST_FILTER='FaultSchedule*:FaultInjector*:FaultInjection*:OffloadRuntime*'
GTEST_FILTER+=':Algorithm2*:Controller*:Switcher*:UdpLink*:TcpLink*'
GTEST_FILTER+=':WireFrame*:WireFuzz*:WireAdversarial*:Crc32c*'
GTEST_FILTER+=':Fleet*:WorkerPool*:PoolFailover*'

validate_artifacts() {
  python3 - "$1/BENCH_fault_injection.json" \
    "$1/BENCH_fault_injection_telemetry.json" <<'EOF'
import json, sys

curves_path, sidecar_path = sys.argv[1], sys.argv[2]

with open(curves_path) as f:
    curves = json.load(f)
assert curves["bench"] == "fault_injection"
assert curves["nominal_completion_s"] > 0.0
for axis in ("outage_sweep", "stall_sweep"):
    points = curves[axis]
    assert points, f"{axis} is empty"
    for p in points:
        plans = {r["plan"] for r in p["runs"]}
        assert plans == {"local", "offload_fixed", "adaptive",
                         "adaptive_fallback"}, f"{axis}: plans {plans}"
        for r in p["runs"]:
            assert r["completion_s"] > 0.0 and r["energy_j"] > 0.0

# Graceful degradation at the harshest outage: the fallback plan completes
# and actually used the lease; the non-adaptive plan spent visibly longer
# standing still.
worst = curves["outage_sweep"][-1]
runs = {r["plan"]: r for r in worst["runs"]}
fb, fixed = runs["adaptive_fallback"], runs["offload_fixed"]
assert fb["success"], "adaptive_fallback did not complete the mission"
assert fb["fallbacks"] >= 1, "no lease fallback fired during the outage"
assert (not fixed["success"]) or fixed["standby_s"] > fb["standby_s"], \
    "non-adaptive plan did not out-stall the fallback plan"

with open(sidecar_path) as f:
    sidecar = json.load(f)
assert sidecar["bench"] == "fault_injection"
assert sidecar["runs"], "telemetry sidecar has no runs"
families = set()
for series in sidecar["runs"].values():
    families |= {s["family"] for s in series.values()}
for fam in ("fault_injected_total", "fallback_total", "lease_grants_total",
            "net_retransmits_total"):
    assert fam in families, f"metric family {fam} missing from sidecar"

print(f"artifacts OK: outage x{len(curves['outage_sweep'])}, "
      f"stall x{len(curves['stall_sweep'])}, "
      f"{len(sidecar['runs'])} sidecar runs, "
      f"worst outage {worst['outage_s']}s -> fallback "
      f"{fb['completion_s']:.1f}s vs fixed {fixed['completion_s']:.1f}s")
EOF
}

validate_corruption_artifacts() {
  python3 - "$1/BENCH_corruption_sweep.json" \
    "$1/BENCH_corruption_sweep_telemetry.json" <<'EOF'
import json, sys

curves_path, sidecar_path = sys.argv[1], sys.argv[2]

with open(curves_path) as f:
    curves = json.load(f)
assert curves["bench"] == "corruption_sweep"
assert curves["nominal_completion_s"] > 0.0
assert curves["sweep"], "corruption sweep is empty"
for p in curves["sweep"]:
    plans = {r["plan"] for r in p["runs"]}
    assert plans == {"local", "offload_fixed", "adaptive",
                     "adaptive_fallback"}, f"plans {plans}"
    for r in p["runs"]:
        assert r["completion_s"] > 0.0 and r["energy_j"] > 0.0

# Wire-integrity shape at the harshest corruption point: the fallback plan
# completes AND the integrity layer visibly rejected frames — corrupt bytes
# were counted out, not consumed.
worst = curves["sweep"][-1]
runs = {r["plan"]: r for r in worst["runs"]}
fb = runs["adaptive_fallback"]
assert fb["success"], "adaptive_fallback did not survive scheduled corruption"
assert fb["frames_rejected"] > 0, "no frames rejected under corrupt_burst"
assert fb["rejected_crc"] > 0, "CRC rejections absent despite bit flips"
# The all-local plan has no wire to corrupt: its mission must be untouched.
assert runs["local"]["success"], "local plan should be immune to wire faults"

with open(sidecar_path) as f:
    sidecar = json.load(f)
assert sidecar["bench"] == "corruption_sweep"
assert sidecar["runs"], "telemetry sidecar has no runs"
families = set()
for series in sidecar["runs"].values():
    families |= {s["family"] for s in series.values()}
for fam in ("net_frames_rejected_total", "net_corrupted_total",
            "fault_injected_total"):
    assert fam in families, f"metric family {fam} missing from sidecar"

print(f"corruption artifacts OK: {len(curves['sweep'])} points, "
      f"worst flip {worst['flip_prob']} -> fallback "
      f"{fb['completion_s']:.1f}s with {fb['frames_rejected']} rejects")
EOF
}

run_leg() {
  local name="$1" sanitizer="$2"
  local build_dir="$REPO_ROOT/build-$name"
  echo "=== $name leg (LGV_SANITIZE=$sanitizer) ==="
  cmake -B "$build_dir" -S "$REPO_ROOT" -DLGV_SANITIZE="$sanitizer" >/dev/null
  cmake --build "$build_dir" --target lgv_tests bench_fault_injection \
    bench_corruption_sweep -j
  "$build_dir/tests/lgv_tests" --gtest_filter="$GTEST_FILTER" \
    --gtest_brief=1
  local out_dir
  out_dir="$(mktemp -d)"
  (cd "$out_dir" && "$build_dir/bench/bench_fault_injection" --smoke)
  validate_artifacts "$out_dir"
  # The forced lease expiries in the outage sweep must leave a flight-recorder
  # post-mortem behind (docs/observability.md): the last trace window before
  # the failure edge, dumped once per run.
  if ! ls "$out_dir"/fault_*_flight_lease_expiry.jsonl >/dev/null 2>&1; then
    echo "FAIL: no flight-recorder dump artifact after forced lease expiry" >&2
    exit 1
  fi
  for dump in "$out_dir"/fault_*_flight_lease_expiry.jsonl; do
    [[ -s "$dump" ]] || { echo "FAIL: empty flight dump $dump" >&2; exit 1; }
  done
  (cd "$out_dir" && "$build_dir/bench/bench_corruption_sweep" --smoke)
  validate_corruption_artifacts "$out_dir"
  rm -rf "$out_dir"
  echo "=== $name leg PASSED ==="
}

[[ "$RUN_ASAN" == "1" ]] && run_leg asan address
[[ "$RUN_TSAN" == "1" ]] && run_leg tsan thread

echo "chaos suite PASSED"
