"""Benchmark for expsamp: three workloads, checked outputs, metrics by name.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 44 --trace 0

Workloads (see README.md for why each was chosen):

* ``tables``    the eight published error tables, 128 cells;
* ``modular``   the criterion-9 modular series for both operators, 8 values;
* ``luxemburg`` 18 Luxemburg norms of seeded piecewise-constant signals.

A run repeats whole passes of the workload, each in a fresh single-threaded
process from cold caches (``one_pass.py``), and starts another pass only
while the passes so far predict it ends within ``--seconds``.  With
``--trace 0`` it reports the medians over its passes of ``run_s`` (the
timed part), ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` it
alternates untraced and traced passes, at least one of each, and reports
the per-layer metrics of the traced passes (medians) and
``trace.overhead_s``, the traced minus the untraced median ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A pass that crashes
ends the run with a non-zero exit code and no result.  Each run also writes
its per-pass record to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("tables", "modular", "luxemburg")
# Every run must end within 180 s; no pass may start or run past this.
DEADLINE_S = 170.0
# Single-threaded BLAS: the pass is one single-threaded process.
PASS_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def one_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, "-B", str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PASS_ENV)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload} pass exceeded the run's {DEADLINE_S:g} s deadline")
    wall_s = time.perf_counter() - t0
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"{workload} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(traced=traced, wall_s=wall_s)
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        traced = kinds[len(passes) % len(kinds)]
        elapsed = time.perf_counter() - start
        passes.append(one_pass(workload, seed, traced, DEADLINE_S - elapsed))
        p = passes[-1]
        print(f"pass {len(passes)} ({'traced' if traced else 'untraced'}): "
              f"setup {p['setup_s']:.3f} s, run {p['run_s']:.3f} s, "
              f"peak {p['peak_rss_mb']:.1f} MB, {p['failed']}/{p['attempted']} failed")
        if len(passes) < len(kinds):
            continue
        nxt = kinds[len(passes) % len(kinds)]
        predicted = [q["wall_s"] for q in passes if q["traced"] == nxt][-1]
        if time.perf_counter() - start + predicted > seconds:
            return passes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in dict.fromkeys(n for p in passes for n in p["notes"]):
        print(note)

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        # median_low keeps counts whole; they repeat exactly across passes
        values = {name: statistics.median_low(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.run_s"] = statistics.median(p["run_s"] for p in traced)
        values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(
            p["run_s"] for p in plain)
    else:
        values = {name: statistics.median(p[name] for p in plain)
                  for name in ("run_s", "setup_s", "peak_rss_mb")}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        sys.exit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        # identical passes on identical inputs must fail the same operations
        "correct": len({p["failed"] for p in passes}) == 1,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    record.write_text(json.dumps({"args": vars(args), "passes": passes, "result": result},
                                 indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
