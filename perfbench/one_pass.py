"""One pass of one benchmark workload, in a fresh process.

    python3 -B perfbench/one_pass.py --workload tables --seed 1 --trace 0

A pass sets up (imports ``expsamp`` from this checkout's ``src/``, parses the
kernels, builds the signals and configs), runs the timed part once from cold
caches, reads the peak resident memory, and then checks the outputs outside
the timed part.  It prints one JSON line: set-up and run time, peak memory,
operations attempted and failed, report notes and, for a traced pass, the
per-layer metrics.  ``run.py`` starts one such process per pass.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

N_VALUES = [17, 26, 35, 53]
OPERATORS = ("max_product", "max_min")
# Luxemburg workload: signals per pass; each is normed under three gauges.
LUX_SIGNALS = 6


def import_program():
    """Import ``expsamp`` from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "expsamp" / "__init__.py").is_file():
        sys.exit(f"expsamp sources not found under {src}")
    sys.path.insert(0, str(src))
    import expsamp

    if Path(expsamp.__file__).resolve().parent != (src / "expsamp").resolve():
        sys.exit(f"imported expsamp from {expsamp.__file__}, not from {src}")
    return expsamp


def report_failure(what: str) -> None:
    print(f"{what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# tables: the eight published error tables, one cell per operation
# ---------------------------------------------------------------------------

class Tables:
    def __init__(self, seed: int):
        import numpy as np
        from expsamp import QuadratureSpec, parse_kernel_spec, refdata
        from expsamp.harness import get_test_function

        self.refdata = refdata
        specs = {s for info in refdata.TABLE_INFO.values() for s in (info["phi"], info["psi"])}
        self.kernels = {s: parse_kernel_spec(s) for s in sorted(specs)}
        self.signals = {w: get_test_function(w) for w in ("h1", "h2")}
        self.quad = QuadratureSpec(abs_tol=1e-9)
        self.points = list(refdata.REFERENCE_POINTS)
        builds = [(t, op) for t in refdata.TABLE_IDS for op in OPERATORS]
        # the seed fixes the order of the builds, and so which build pays
        # for the coefficient fills that later builds share
        self.order = [builds[i] for i in np.random.default_rng(seed).permutation(len(builds))]

    def run(self):
        from expsamp import build_error_table

        out = {}
        for table_id, op in self.order:
            info = self.refdata.TABLE_INFO[table_id]
            try:
                table = build_error_table(
                    op, self.kernels[info["phi"]], self.kernels[info["psi"]],
                    N_VALUES, self.points, interval=self.refdata.REFERENCE_INTERVAL,
                    quad=self.quad, which=self.signals[info["function"]])
            except Exception:  # counted as failed cells; the pass goes on
                report_failure(f"{table_id}/{op}")
                continue
            out[(table_id, op)] = {(r.n, r.point): r.abs_error for r in table.rows()}
        return out

    def check(self, out):
        from checks import check_table

        attempted = len(self.order) * len(N_VALUES) * len(self.points)
        failed, notes = 0, []
        for table_id, op in self.order:
            ref = {(r.n, r.point): r.abs_error
                   for r in self.refdata.load_reference(table_id, op)}
            if (table_id, op) not in out:
                failed += len(ref)
                continue
            bad, lines = check_table(table_id, op, out[(table_id, op)], ref)
            failed += len(bad)
            notes += lines + [f"{table_id}/{op} n={n} w={w:g}: check failed"
                              for n, w in sorted(bad)]
        return attempted, failed, notes


# ---------------------------------------------------------------------------
# modular: the criterion-9 series for both operators, one value per operation
# ---------------------------------------------------------------------------

class Modular:
    def __init__(self, seed: int):
        import numpy as np
        from expsamp import OperatorConfig, QuadratureSpec, parse_kernel_spec, parse_phi_spec
        from expsamp.harness import DEFAULT_INTERVAL, get_test_function

        self.gauge = parse_phi_spec("power:2")
        self.h = get_test_function("h1")
        self.template = OperatorConfig(
            phi=parse_kernel_spec("bspline:3"), psi=parse_kernel_spec("fejer:pi:0"),
            n=N_VALUES[0], a=DEFAULT_INTERVAL[0], b=DEFAULT_INTERVAL[1],
            quad=QuadratureSpec(abs_tol=1e-9))
        rng = np.random.default_rng(seed)
        # the seed fixes which series runs first (and fills the shared
        # coefficients) and which value of each series is recomputed densely
        self.order = [OPERATORS[i] for i in rng.permutation(len(OPERATORS))]
        self.recheck = {op: int(rng.integers(len(N_VALUES))) for op in OPERATORS}

    def run(self):
        from expsamp import orlicz

        out = {}
        for op in self.order:
            try:
                series = orlicz.modular_convergence_series(
                    self.gauge, op, self.h, self.template, N_VALUES, lam=1.0)
            except Exception:  # counted as failed values; the pass goes on
                report_failure(f"modular series {op}")
                continue
            out[op] = [rep.modular_value for rep in series]
        return out

    def dense_value(self, op: str, n: int) -> float:
        """The modular value recomputed by a fixed dense rule."""
        import numpy as np
        from dataclasses import replace
        from expsamp import get_evaluator
        from checks import dense_modular

        cfg = replace(self.template, n=n)
        ev = get_evaluator(cfg)

        def integrand(u):
            ws = np.exp(u)
            vals, skipped = ev.eval_grid(op, self.h, ws)
            diff = np.where(skipped, 0.0, vals - np.asarray(self.h(ws), dtype=float))
            return diff * diff  # the power:2 gauge at lambda = 1

        return dense_modular(integrand, math.log(cfg.a), math.log(cfg.b))

    def check(self, out):
        from checks import check_modular_series, modular_matches

        attempted = len(OPERATORS) * len(N_VALUES)
        failed, notes = 0, []
        for op in self.order:
            if op not in out:
                failed += len(N_VALUES)
                continue
            values = out[op]
            bad = check_modular_series(values)
            i = self.recheck[op]
            dense = self.dense_value(op, N_VALUES[i])
            if not modular_matches(values[i], dense):
                bad.add(i)
            failed += len(bad)
            notes.append(f"{op}: I = {', '.join(f'{v:.4e}' for v in values)}; "
                         f"n={N_VALUES[i]} dense rule {dense:.4e} "
                         f"(diff {values[i] - dense:.1e})")
            notes += [f"{op} n={N_VALUES[j]}: check failed" for j in sorted(bad)]
        return attempted, failed, notes


# ---------------------------------------------------------------------------
# luxemburg: norms of random piecewise-constant signals, one norm per operation
# ---------------------------------------------------------------------------

class Luxemburg:
    def __init__(self, seed: int):
        import numpy as np
        from expsamp import FunctionHandle, parse_phi_spec

        rng = np.random.default_rng(seed)
        self.norms = []
        for i in range(LUX_SIGNALS):
            # four and five pieces alternate, so every seed does the same
            # number of jumps, and each signal draws its power from its own
            # slice of [1.2, 3.5], so every seed spans the same range; the
            # intervals and values are drawn as in criterion 10
            pieces = 4 + i % 2
            a = float(np.exp(rng.uniform(-1.0, 0.0)))
            b = float(np.exp(rng.uniform(0.5, 2.0)))
            edges = np.concatenate([[a], np.sort(rng.uniform(a, b, pieces - 1)), [b]])
            values = rng.uniform(0.1, 3.0, pieces)
            p = float(1.2 + 2.3 * (i + rng.uniform()) / LUX_SIGNALS)

            def evaluate(w, edges=edges, values=values):
                w = np.asarray(w, dtype=float)
                idx = np.clip(np.searchsorted(edges, w, side="right") - 1, 0, values.size - 1)
                out = values[idx]
                return float(out) if out.ndim == 0 else out

            h = FunctionHandle(name=f"pc{i}", domain=(a, b), evaluator=evaluate,
                               breakpoints=tuple(float(c) for c in edges[1:-1]))
            for spec in (f"power:{p!r}", "powerlog:1:1", "exppower:1"):
                self.norms.append((parse_phi_spec(spec), h, a, b,
                                   [float(e) for e in edges], [float(v) for v in values]))

    def run(self):
        from expsamp import orlicz

        out = []
        for gauge, h, a, b, _, _ in self.norms:
            try:
                out.append(orlicz.luxemburg_norm(gauge, h, a, b, tol=1e-9))
            except Exception:  # counted as a failed norm; the pass goes on
                report_failure(f"norm of {h.name} under {gauge.name}")
                out.append(math.nan)
        return out

    def check(self, out):
        from checks import closed_form_norm, norm_matches

        failed, notes, worst = 0, [], 0.0
        for (gauge, h, _, _, edges, values), got in zip(self.norms, out):
            want = closed_form_norm(gauge.family, gauge.params, edges, values)
            if norm_matches(got, want):
                worst = max(worst, abs(got - want))
            else:
                failed += 1
                notes.append(f"{h.name} under {gauge.name}: {got!r} vs closed form {want!r}")
        notes.append(f"{len(out)} norms, worst closed-form gap among matches {worst:.1e}")
        return len(self.norms), failed, notes


WORKLOADS = {"tables": Tables, "modular": Modular, "luxemburg": Luxemburg}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import_program()
    work = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0

    if args.trace:
        import tracing

        rec = tracing.Recorder()
        uninstall = tracing.install(rec)
    t1 = time.perf_counter()
    try:
        out = work.run()
    finally:
        run_s = time.perf_counter() - t1
        if args.trace:
            uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, notes = work.check(out)
    result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              "attempted": attempted, "failed": failed, "notes": notes}
    if args.trace:
        result["layers"] = rec.layers()
        OUT.mkdir(exist_ok=True)
        rec.save(OUT / f"{args.workload}-seed{args.seed}.trace.npz")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
