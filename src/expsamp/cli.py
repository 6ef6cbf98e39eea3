"""Command-line surface: kernel inspection, operator evaluation, tables,
golden-file verification, sweeps, modular diagnostics, property suites and
``reproduce``, which reruns the paper's experiments through the same
per-config writers as ``table``, ``sweep`` and ``modular``.

Exit-code policy: 0 on success, 1 on operational failure (including a failed
verification), 2 on usage/parse/schema errors.  Producing a table never
fails on value mismatch; comparison is the separate ``verify`` step.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from .harness import (
    DEFAULT_INTERVAL,
    FunctionHandle,
    SchemaMismatchError,
    build_error_table,
    compare_tables,
    convergence_sweep,
    get_test_function,
    read_table_csv,
    write_json_mirror,
    write_sweep_csv,
    write_table_csv,
)
from .kernels import KernelSpecError, compute_metrics, parse_kernel_spec
from .operators import (
    OperatorConfig,
    PreconditionError,
    denominator_lower_bound_check,
    max_min_eval,
    max_product_eval,
    maxmin_algebra_checks,
)
from .orlicz import (
    OrliczOverflowError,
    PhiSpecError,
    jensen_max_checks,
    modular_convergence_series,
    parse_phi_spec,
)
from .quadrature import QuadratureSpec
from . import refdata

DEFAULT_N_LIST = [17, 26, 35, 53]
DEFAULT_POINTS = [0.8, 1.5, 2.0, 2.5]
DEFAULT_REL_TOL = 0.25
SWEEP_GRID_DENSITY = 400

# The grids of ``expsamp reproduce`` for sweeps and modular series (tables
# take theirs from ``refdata``).
PAIRS = {
    "b2_jackson": ("bspline:2", "jackson:1.05:1"),
    "b3_fejer": ("bspline:3", "fejer:pi:0"),
}
MODULAR_GAUGE = "power:2"
MODULAR_QUAD_TOL = 1e-8


class DataError(click.ClickException):
    exit_code = 2


@dataclass
class ExperimentConfig:
    """Round-trippable description of one CLI experiment."""

    operator: str = "max_product"
    phi: str = "bspline:2"
    psi: str = "jackson:1.05:1"
    n_list: list[int] = field(default_factory=lambda: list(DEFAULT_N_LIST))
    interval: tuple[float, float] = DEFAULT_INTERVAL
    points: list[float] | None = None
    grid_density: int | None = None
    test_function: str = "h1"
    phi_function: str | None = None
    lam: float = 1.0
    quad_tol: float = 1e-9
    output: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        if self.operator not in ("max_product", "max_min", "both"):
            raise ValueError(f"unknown operator {self.operator!r}")
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        if any(int(n) != n or n < 1 for n in self.n_list):
            raise ValueError("n_list entries must be naturals")
        a, b = self.interval
        if not (a > 0 and b > a):
            raise ValueError(f"interval needs 0 < a < b, got {self.interval}")
        if not math.log(b / a) > 1.0 / min(self.n_list):
            raise ValueError(
                f"interval too short for n={min(self.n_list)}: need b/a > e^(1/n)"
            )
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        if not self.quad_tol > 0:
            raise ValueError("quad_tol must be positive")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["interval"] = list(self.interval)
        d["lambda"] = d.pop("lam")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**d)
        cfg = dataclasses.replace(
            cfg,
            n_list=[int(n) for n in cfg.n_list],
            interval=tuple(float(x) for x in cfg.interval),
            points=None if cfg.points is None else [float(p) for p in cfg.points],
        )
        return cfg

    def with_updates(self, **kwargs) -> "ExperimentConfig":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return dataclasses.replace(self, **updates)


def _parsed(parse):
    """Click callback applying ``parse`` to a given value; a ValueError is a usage error."""
    def callback(ctx, param, value):
        try:
            return None if value is None else parse(value)
        except ValueError as exc:
            raise click.BadParameter(f"{value!r}: {exc}") from None
    return callback


def _comma_list(convert):
    def parse(text: str) -> list:
        items = [t.strip() for t in text.split(",") if t.strip()]
        if not items:
            raise ValueError("empty list")
        return [convert(t) for t in items]
    return parse


def _interval(text: str) -> tuple[float, float]:
    if text.count(":") != 1:
        raise ValueError("interval must look like a:b")
    a, b = text.split(":")
    return float(a), float(b)


_N_LIST = click.option("--n-list", callback=_parsed(_comma_list(int)),
                       help="comma-separated orders")
_OUTPUT = click.option("--output", required=True)
_FORMAT = click.option("--format", type=click.Choice(["csv", "json"]))


def _experiment_options(operators: tuple[str, ...], *extra):
    """The options shared by ``op eval``, ``table``, ``sweep`` and ``modular``, then ``extra``.

    Each option's parameter is named after the :class:`ExperimentConfig`
    field it sets (``config_path`` excepted), so a command hands them all
    to :func:`_assemble_config`.
    """
    shared = [
        click.option("--operator", type=click.Choice(operators)),
        click.option("--phi", help="kernel spec for the outer kernel"),
        click.option("--psi", help="kernel spec for the coefficient kernel"),
        click.option("--interval", callback=_parsed(_interval), help="a:b"),
        click.option("--function", "test_function", help="h1, h2 or a CSV sample file"),
        click.option("--quad-tol", type=float),
        click.option("--config", "config_path", type=click.Path(exists=True)),
    ]

    def decorate(command):
        for opt in reversed(shared + list(extra)):
            command = opt(command)
        return command
    return decorate


def _assemble_config(config_path, **flags) -> ExperimentConfig:
    """Defaults, then the given flags, then the fields present in the config file.

    The result must name an operator the running command's ``--operator``
    accepts, so a config file cannot hand ``both`` to a single-operator command.
    """
    cfg = ExperimentConfig().with_updates(**flags)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
            if not isinstance(loaded, dict):
                raise ValueError("config file must hold a JSON object")
            file_cfg = ExperimentConfig.from_dict(loaded)
            present = {"lam" if k == "lambda" else k for k in loaded}
            cfg = cfg.with_updates(**{k: getattr(file_cfg, k) for k in present})
        except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
            raise DataError(f"cannot load config {config_path}: {exc}") from None
    try:
        cfg.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    ctx = click.get_current_context()
    accepted = next(p.type.choices for p in ctx.command.params if p.name == "operator")
    if cfg.operator not in accepted:
        raise click.UsageError(f"{ctx.command_path} needs a single operator")
    return cfg


def _load_function(spec: str, interval: tuple[float, float]):
    """h1, h2, or a CSV of samples ``w,value`` interpolated linearly in log w.

    A sample file must cover the operator interval: ``np.interp`` would
    otherwise extend the end samples as constants without a word.
    """
    if spec in ("h1", "h2"):
        return get_test_function(spec)
    path = Path(spec)
    if not path.exists():
        raise click.UsageError(f"unknown test function {spec!r} (not h1/h2 and no such file)")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except Exception as exc:
        raise DataError(f"cannot read samples from {spec}: {exc}") from None
    if data.shape[0] == 0 or data.shape[1] < 2:
        raise DataError(f"{spec} needs rows of two columns w,value")
    ws, vals = data[:, 0], data[:, 1]
    if np.isnan(ws).any() or np.isnan(vals).any():
        raise DataError(f"samples in {spec} contain NaN")
    if np.any(ws <= 0):
        raise DataError(f"sample abscissae in {spec} must be positive")
    order = np.argsort(ws)
    ws, vals = ws[order], vals[order]
    if np.any(np.diff(ws) == 0):
        raise DataError(f"duplicate sample abscissae in {spec}")
    a, b = interval
    if not ws[0] <= a < b <= ws[-1]:
        raise DataError(f"interval [{a:g}, {b:g}] is not inside the sample range "
                        f"[{ws[0]:g}, {ws[-1]:g}] of {spec}")
    logw = np.log(ws)

    def interp(w):
        return np.interp(np.log(np.asarray(w, dtype=float)), logw, vals)

    return FunctionHandle(name=f"file:{path.name}", domain=(float(ws[0]), float(ws[-1])),
                          evaluator=interp)


def _kernel(spec: str):
    try:
        return parse_kernel_spec(spec)
    except KernelSpecError as exc:
        raise click.UsageError(str(exc)) from None


def _fmt_exponent(e: float) -> str:
    if e == 1.0:
        return "e"
    if e == int(e):
        return f"e^{int(e)}"
    return f"e^{e:g}"


def _fmt_support(desc) -> str:
    if desc.support is None:
        return "unbounded"
    lo, hi = desc.log_support
    return f"[{_fmt_exponent(lo)}, {_fmt_exponent(hi)}]"


@click.group()
def main() -> None:
    """Durrmeyer-type exponential sampling operators toolkit."""


@main.group()
def kernel() -> None:
    """Kernel inspection."""


@kernel.command("info")
@click.argument("spec")
@click.option("--json", "as_json", is_flag=True, help="emit JSON instead of text")
@click.option("--grid-density", type=int, default=10_000, show_default=True)
def kernel_info(spec: str, as_json: bool, grid_density: int) -> None:
    """Print kernel metrics: K, theta, moments, norm constant, support."""
    desc = _kernel(spec)
    metrics = compute_metrics(desc, grid_density=grid_density)
    payload = {
        "kernel": desc.name,
        "family": desc.family,
        "params": list(desc.params),
        "support": _fmt_support(desc),
        "norm_constant": desc.norm_constant,
        "K": metrics.K,
        "theta": metrics.theta,
        "discrete_moment": {str(r): v for r, v in metrics.discrete_moment.items()},
        "continuous_moment": {str(r): v for r, v in metrics.continuous_moment.items()},
        "l1_norm": metrics.l1_norm,
    }
    if as_json:
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    click.echo(f"kernel: {desc.name}")
    click.echo(f"family: {desc.family}")
    click.echo(f"support: {payload['support']}")
    click.echo(f"norm_constant: {desc.norm_constant:.10g}")
    click.echo(f"K: {metrics.K:.10g}")
    click.echo(f"theta: {metrics.theta:.10g}")
    for r in (0, 1, 2):
        click.echo(f"discrete_moment[{r}]: {metrics.discrete_moment[r]:.10g}")
    for r in (0, 1, 2):
        click.echo(f"continuous_moment[{r}]: {metrics.continuous_moment[r]:.10g}")
    click.echo(f"l1_norm: {metrics.l1_norm:.10g}")


@main.group()
def op() -> None:
    """Operator evaluation."""


@op.command("eval")
@_experiment_options(("max_product", "max_min"),
                     click.option("-n", "order", type=int, required=True),
                     click.option("-w", "points", type=float, multiple=True, required=True),
                     click.option("--json", "as_json", is_flag=True))
def op_eval(config_path, order, points, as_json, **flags) -> None:
    """Evaluate one operator at the given points."""
    cfg = _assemble_config(config_path, n_list=[order], **flags)
    h = _load_function(cfg.test_function, cfg.interval)
    ocfg = OperatorConfig(
        phi=_kernel(cfg.phi), psi=_kernel(cfg.psi), n=cfg.n_list[0],
        a=cfg.interval[0], b=cfg.interval[1],
        quad=QuadratureSpec(abs_tol=cfg.quad_tol),
    )
    rows = []
    for w in points:
        res = (max_product_eval if cfg.operator == "max_product" else max_min_eval)(h, ocfg, w)
        rows.append({
            "w": w,
            "value": res.value,
            "reference": float(h(w)),
            "abs_error": abs(res.value - float(h(w))) if not res.skipped else None,
            "numerator": res.numerator,
            "denominator": res.denominator,
            "active_index": res.active_index,
            "skipped": res.skipped,
            "warning": res.warning,
        })
    if as_json:
        click.echo(json.dumps({"config": cfg.to_dict(), "rows": rows}, indent=2))
        return
    for r in rows:
        if r["skipped"]:
            click.echo(f"w={r['w']:g}: skipped (degenerate denominator)")
        else:
            click.echo(
                f"w={r['w']:g}: value={r['value']:.8g} ref={r['reference']:.8g} "
                f"abs_error={r['abs_error']:.4g} k*={r['active_index']}"
            )
            if r["warning"]:
                click.echo(f"  warning: {r['warning']}")


def _write_output(path: Path, fmt: str, echo: dict, rows: list[dict], write_csv,
                  **extra) -> None:
    """Write ``path`` as CSV plus a JSON mirror at ``<path>.json``, or as JSON."""
    if fmt == "csv":
        write_csv(path)
        path = Path(str(path) + ".json")
    write_json_mirror(path, echo, rows, **extra)


def _run_table(cfg: ExperimentConfig) -> dict[str, list]:
    """Build and write the error table of each operator of ``cfg``; returns their rows."""
    operators = ["max_product", "max_min"] if cfg.operator == "both" else [cfg.operator]
    points = cfg.points if cfg.points is not None else DEFAULT_POINTS
    h = _load_function(cfg.test_function, cfg.interval)
    base, built = Path(cfg.output), {}
    for oper in operators:
        table = build_error_table(
            oper, cfg.phi, cfg.psi, cfg.n_list, points,
            interval=cfg.interval, quad=QuadratureSpec(abs_tol=cfg.quad_tol), which=h,
        )
        rows = built[oper] = table.rows()
        out = base if len(operators) == 1 else base.with_name(f"{base.stem}_{oper}{base.suffix}")
        _write_output(out, cfg.format, dict(cfg.to_dict(), operator=oper),
                      [dataclasses.asdict(r) for r in rows],
                      lambda path: write_table_csv(rows, path), warnings=table.warnings)
        click.echo(f"{oper}: wrote {out} ({len(rows)} rows, "
                   f"{sum(r.skipped for r in rows)} skipped)")
    return built


def _run_sweep(cfg: ExperimentConfig) -> None:
    """Run and write the sup-error sweep of ``cfg``, per-point errors in the JSON."""
    h = _load_function(cfg.test_function, cfg.interval)
    report = convergence_sweep(
        cfg.operator, cfg.phi, cfg.psi, h, cfg.n_list,
        grid_density=cfg.grid_density or SWEEP_GRID_DENSITY, interval=cfg.interval,
        quad=QuadratureSpec(abs_tol=cfg.quad_tol),
    )
    rows = [{"n": n, "sup_error": e, "skipped_points": s, "abs_errors": [float(x) for x in row]}
            for n, e, s, row in zip(report.n_values, report.sup_errors,
                                    report.skipped_counts, report.per_point)]
    out = Path(cfg.output)
    _write_output(out, cfg.format, cfg.to_dict(), rows,
                  lambda path: write_sweep_csv(report, path),
                  grid=[float(w) for w in report.grid])
    click.echo(f"wrote {out} ({len(rows)} rows)")


def _run_modular(cfg: ExperimentConfig) -> None:
    """Compute and write the modular distance series of ``cfg``."""
    if cfg.phi_function is None:
        raise click.UsageError("modular needs --phi-function")
    try:
        gauge = parse_phi_spec(cfg.phi_function)
    except PhiSpecError as exc:
        raise click.UsageError(str(exc)) from None
    h = _load_function(cfg.test_function, cfg.interval)
    template = OperatorConfig(
        phi=_kernel(cfg.phi), psi=_kernel(cfg.psi), n=min(cfg.n_list),
        a=cfg.interval[0], b=cfg.interval[1], quad=QuadratureSpec(abs_tol=cfg.quad_tol),
    )
    try:
        series = modular_convergence_series(gauge, cfg.operator, h, template,
                                            cfg.n_list, lam=cfg.lam)
    except OrliczOverflowError as exc:
        raise click.ClickException(str(exc)) from None

    def write_csv(path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("n,modular_value,lambda\n")
            for n, rep in zip(cfg.n_list, series):
                f.write(f"{n},{rep.modular_value:.6g},{rep.lam:g}\n")

    out = Path(cfg.output)
    _write_output(out, "csv", cfg.to_dict(), [
        {"n": n, "modular_value": rep.modular_value, "lambda": rep.lam,
         "skipped_nodes": rep.skipped_nodes}
        for n, rep in zip(cfg.n_list, series)
    ], write_csv)
    click.echo(f"wrote {out} ({len(series)} rows)")


@main.command("table")
@_experiment_options(("max_product", "max_min", "both"), _N_LIST, _OUTPUT, _FORMAT,
                     click.option("--points", callback=_parsed(_comma_list(float)),
                                  help="comma-separated points"))
def table_cmd(config_path, **flags) -> None:
    """Build absolute-error tables and write CSV/JSON."""
    _run_table(_assemble_config(config_path, **flags))


def _resolve_reference(ref: str):
    if ":" in ref and not Path(ref).exists():
        table_id, _, oper = ref.partition(":")
        try:
            return refdata.load_reference(table_id, oper)
        except KeyError as exc:
            raise click.UsageError(str(exc)) from None
    try:
        return read_table_csv(ref)
    except FileNotFoundError:
        raise click.UsageError(f"no such reference {ref!r}") from None


@main.command("verify")
@click.argument("table_file", type=click.Path(exists=True))
@click.argument("reference")
@click.option("--rel-tol", type=float, default=DEFAULT_REL_TOL, show_default=True)
def verify_cmd(table_file, reference, rel_tol) -> None:
    """Compare a produced table against a reference (path or tableN:operator).

    Exits 0 iff every non-flagged cell is within REL_TOL relative deviation
    and the produced errors are non-increasing in n outside the reference's
    own non-monotone positions.
    """
    try:
        produced = read_table_csv(table_file)
        ref_rows = _resolve_reference(reference)
        report = compare_tables(produced, ref_rows, rel_tol)
    except SchemaMismatchError as exc:
        raise DataError(str(exc)) from None
    for n, point, got, want, rel in report.deviations:
        mark = " [flagged]" if (n, point) in report.flagged else ""
        click.echo(f"n={n} w={point:g}: produced={got:.6g} reference={want:.6g} "
                   f"rel_dev={rel:.3f}{mark}")
    for p, n0, n1, e0, e1 in report.trend_violations:
        click.echo(f"TREND violation at w={p:g}: error rises {e0:.6g} -> {e1:.6g} "
                   f"from n={n0} to n={n1}")
    if report.passed:
        click.echo(f"verify: PASS (rel_tol={rel_tol:g}, {len(report.flagged)} flagged cells)")
    else:
        click.echo(f"verify: FAIL ({len(report.value_violations)} value, "
                   f"{len(report.trend_violations)} trend violations)")
        sys.exit(1)


@main.command("sweep")
@_experiment_options(("max_product", "max_min"), _N_LIST, _OUTPUT, _FORMAT,
                     click.option("--grid-density", type=int))
def sweep_cmd(config_path, **flags) -> None:
    """Sup-error convergence sweep over a log-spaced grid."""
    _run_sweep(_assemble_config(config_path, **flags))


@main.command("modular")
@_experiment_options(("max_product", "max_min"), _N_LIST, _OUTPUT,
                     click.option("--phi-function", help="power:2, exppower:1, powerlog:1:1"),
                     click.option("--lambda", "lam", type=float))
def modular_cmd(config_path, **flags) -> None:
    """Modular distance series I[lambda (D_n h - h)] over the n list."""
    _run_modular(_assemble_config(config_path, **flags))


def _reproduce_tables(outdir: Path) -> None:
    summary = []
    for table_id, info in refdata.TABLE_INFO.items():
        built = _run_table(ExperimentConfig(
            operator="both", phi=info["phi"], psi=info["psi"],
            n_list=list(refdata.REFERENCE_N_VALUES), interval=refdata.REFERENCE_INTERVAL,
            points=list(refdata.REFERENCE_POINTS), test_function=info["function"],
            output=str(outdir / f"{table_id}.csv"),
        ))
        for oper, rows in built.items():
            report = compare_tables(rows, refdata.load_reference(table_id, oper),
                                    DEFAULT_REL_TOL)
            worst = max((d[4] for d in report.deviations
                         if (d[0], d[1]) not in report.flagged), default=0.0)
            summary.append({
                "table": table_id, "operator": oper,
                "value_pass": not report.value_violations,
                "trend_pass": not report.trend_violations,
                "worst_rel_dev": round(worst, 4),
                "flagged_cells": len(report.flagged),
            })
            click.echo(f"{table_id}/{oper}: worst non-flagged rel dev {worst:.3f}, "
                       f"trend violations {len(report.trend_violations)}")
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    click.echo(f"wrote {outdir / 'summary.json'}")


@main.command("reproduce")
@click.argument("kind", type=click.Choice(["tables", "sweeps", "modular"]))
@click.option("--outdir", type=click.Path(file_okay=False), required=True)
def reproduce_cmd(kind, outdir) -> None:
    """Rerun one of the paper's experiments and write its outputs to OUTDIR.

    tables: the eight published tables on refdata.REFERENCE_INTERVAL, each
    compared with its bundled reference, plus summary.json; sweeps: sup-error
    sweeps for both kernel pairs, operators and signals; modular: the
    power:2 modular series of the max-product operator for both pairs and
    signals.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if kind == "tables":
        return _reproduce_tables(out)
    for pair, (phi, psi) in PAIRS.items():
        for which in ("h1", "h2"):
            if kind == "modular":
                gauge = MODULAR_GAUGE.replace(":", "-")
                _run_modular(ExperimentConfig(
                    operator="max_product", phi=phi, psi=psi, test_function=which,
                    phi_function=MODULAR_GAUGE, quad_tol=MODULAR_QUAD_TOL,
                    output=str(out / f"{pair}_max_product_{which}_{gauge}.csv"),
                ))
                continue
            for oper in ("max_product", "max_min"):
                _run_sweep(ExperimentConfig(
                    operator=oper, phi=phi, psi=psi, test_function=which,
                    output=str(out / f"{pair}_{oper}_{which}.csv"),
                ))


@main.command("props")
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--cases", type=int, default=10_000, show_default=True)
def props_cmd(seed, cases) -> None:
    """Run the lattice-algebra and gauge/maximum property suites."""
    reports = [maxmin_algebra_checks(seed, cases)]
    for spec in ("power:2", "exppower:1", "powerlog:1:1"):
        reports.append(jensen_max_checks(parse_phi_spec(spec), seed, cases))
    cfg = OperatorConfig(
        phi=parse_kernel_spec("fejer:pi:0"), psi=parse_kernel_spec("bspline:2"),
        n=5, a=1.0, b=math.e**2,
    )
    try:
        reports.append(denominator_lower_bound_check(
            cfg, np.exp(np.linspace(0.0, 2.0, 100))))
    except PreconditionError as exc:  # pragma: no cover - canonical config satisfies it
        raise click.ClickException(str(exc)) from None
    failed = False
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        click.echo(f"{rep.name}: cases={rep.cases} violations={len(rep.violations)} {status}")
        failed = failed or not rep.passed
    if failed:
        sys.exit(1)


if __name__ == "__main__":  # pragma: no cover
    main()
