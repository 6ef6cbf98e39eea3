import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from expsamp import refdata
from expsamp.cli import ExperimentConfig, main


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke_in_process(capsys, args):
    """(exit code, stdout + stderr) of ``expsamp args``, read through capsys.

    pytest's live-log handler suspends and resumes capture around each
    record, and the resume reinstalls pytest's own streams: output a
    CliRunner collects would land there after any log record of the
    command.  capsys is what that resume reinstalls, so this holds whether
    or not a record fires.
    """
    try:
        main.main(args, prog_name="expsamp")
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out + out.err


# ---------------------------------------------------------------------------
# config round-trip
# ---------------------------------------------------------------------------

def test_experiment_config_roundtrip():
    cfg = ExperimentConfig(
        operator="max_min", phi="bspline:3", psi="fejer:pi:0",
        n_list=[5, 9], interval=(0.5, 3.0), points=[1.0, 2.0],
        test_function="h2", phi_function="power:2", lam=0.5,
        quad_tol=1e-8, output="out.csv", format="csv",
    )
    back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg


def test_experiment_config_validation():
    # the values themselves are the library's to check (see
    # test_bad_config_values_are_usage_errors)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"no_such_field": 1})


# ---------------------------------------------------------------------------
# kernel info
# ---------------------------------------------------------------------------

def test_kernel_info_bspline2(runner):
    res = runner.invoke(main, ["kernel", "info", "bspline:2", "--grid-density", "2000"])
    assert res.exit_code == 0, res.output
    assert "theta: 0" in res.output
    assert "support: [e^-1, e]" in res.output


def test_kernel_info_jackson_json(runner):
    res = runner.invoke(main, ["kernel", "info", "jackson:1.05:1", "--json",
                               "--grid-density", "2000"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["norm_constant"] == pytest.approx(0.1515757, abs=1e-6)
    assert data["support"] == "unbounded"


def test_kernel_info_generic_order(runner):
    res = runner.invoke(main, ["kernel", "info", "bspline:9", "--grid-density", "2000"])
    assert res.exit_code == 0, res.output
    assert "support: [e^-4.5, e^4.5]" in res.output


def test_kernel_info_parse_error(runner):
    res = runner.invoke(main, ["kernel", "info", "gauss:3"])
    assert res.exit_code == 2
    assert "gauss" in res.output


# ---------------------------------------------------------------------------
# op eval
# ---------------------------------------------------------------------------

def test_op_eval(capsys):
    code, output = _invoke_in_process(capsys, [
        "op", "eval", "--operator", "max_product", "--phi", "bspline:2",
        "--psi", "bspline:2", "-n", "3", "--interval", "1:7.389",
        "--function", "h1", "-w", "2.0", "--quad-tol", "1e-9",
    ])
    assert code == 0, output
    assert "value=" in output and "abs_error=" in output


def test_op_eval_json(runner):
    res = runner.invoke(main, [
        "op", "eval", "--operator", "max_min", "--phi", "bspline:2",
        "--psi", "bspline:2", "-n", "3", "--interval", "1:3",
        "--function", "h2", "-w", "2.0", "--json",
    ])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["rows"][0]["skipped"] is False
    assert 0.0 <= data["rows"][0]["value"] <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# table / verify
# ---------------------------------------------------------------------------

def _make_table(runner, tmp_path, extra=()):
    out = tmp_path / "table.csv"
    args = [
        "table", "--operator", "max_product", "--phi", "bspline:2",
        "--psi", "bspline:2", "--n-list", "3,4", "--points", "1.5,2.0",
        "--interval", "1:7.389", "--function", "h1",
        "--quad-tol", "1e-8", "--output", str(out),
    ]
    res = runner.invoke(main, args + list(extra))
    return res, out


def test_table_writes_csv_and_mirror(runner, tmp_path):
    res, out = _make_table(runner, tmp_path)
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "n,point,abs_error,skipped"
    assert len(lines) == 5
    mirror = json.loads((tmp_path / "table.csv.json").read_text())
    assert mirror["config"]["operator"] == "max_product"
    assert len(mirror["rows"]) == 4


def test_table_deterministic(runner, tmp_path):
    res1, out = _make_table(runner, tmp_path)
    first = out.read_bytes()
    res2, out = _make_table(runner, tmp_path)
    assert first == out.read_bytes()


def test_table_both_operators(runner, tmp_path):
    out = tmp_path / "pair.csv"
    res = runner.invoke(main, [
        "table", "--operator", "both", "--phi", "bspline:2", "--psi", "bspline:2",
        "--n-list", "3,4", "--points", "1.5,2.0", "--interval", "1:7.389",
        "--function", "h1", "--quad-tol", "1e-8", "--output", str(out),
    ])
    assert res.exit_code == 0, res.output
    rows = 0
    for oper in ("max_product", "max_min"):
        rows += len((tmp_path / f"pair_{oper}.csv").read_text().splitlines()) - 1
    assert rows == 8


def test_table_mirror_keeps_max_min_range_warning(runner, tmp_path):
    samples = tmp_path / "fn.csv"
    samples.write_text("w,value\n" + "".join(f"{w},1.5\n" for w in (0.5, 1.0, 2.0, 4.0, 8.0)))
    out = tmp_path / "pair.csv"
    res = runner.invoke(main, [
        "table", "--operator", "both", "--phi", "bspline:2", "--psi", "bspline:2",
        "--n-list", "3,4", "--points", "1.5,2.0", "--interval", "1:7.389",
        "--function", str(samples), "--quad-tol", "1e-8", "--output", str(out),
    ])
    assert res.exit_code == 0, res.output
    product = json.loads((tmp_path / "pair_max_product.csv.json").read_text())
    maxmin = json.loads((tmp_path / "pair_max_min.csv.json").read_text())
    assert product["warnings"] == []
    # one message for all four cells
    assert len(maxmin["warnings"]) == 1
    assert "outside guarantee range" in maxmin["warnings"][0]


def test_sweep_mirror_keeps_max_min_range_warning(runner, tmp_path):
    samples = tmp_path / "fn.csv"
    samples.write_text("w,value\n" + "".join(f"{w},1.5\n" for w in (0.5, 1.0, 2.0, 4.0, 8.0)))
    mirrors = {}
    for oper in ("max_product", "max_min"):
        out = tmp_path / f"{oper}.csv"
        res = runner.invoke(main, [
            "sweep", "--operator", oper, "--phi", "bspline:2", "--psi", "bspline:2",
            "--n-list", "3,4", "--grid-density", "20", "--interval", "1:7.389",
            "--function", str(samples), "--quad-tol", "1e-8", "--output", str(out),
        ])
        assert res.exit_code == 0, res.output
        mirrors[oper] = json.loads((tmp_path / f"{oper}.csv.json").read_text())
    assert mirrors["max_product"]["warnings"] == []
    # one message for both orders
    assert len(mirrors["max_min"]["warnings"]) == 1
    assert "outside guarantee range" in mirrors["max_min"]["warnings"][0]


def test_table_h2_default_interval(runner, tmp_path):
    out = tmp_path / "h2.csv"
    res = runner.invoke(main, [
        "table", "--operator", "max_product", "--phi", "bspline:2",
        "--psi", "bspline:2", "--n-list", "3,5", "--points", "0.8,1.5",
        "--interval", "0.25:3", "--function", "h2", "--quad-tol", "1e-8",
        "--output", str(out),
    ])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert all(line.endswith(",0") for line in lines[1:])  # nothing skipped


def test_table_empty_n_list_usage_error(runner, tmp_path):
    res = runner.invoke(main, [
        "table", "--operator", "max_product", "--phi", "bspline:2",
        "--psi", "bspline:2", "--n-list", "", "--output", str(tmp_path / "x.csv"),
    ])
    assert res.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["op", "eval", "--operator", "max_product", "-n", "3", "-w", "5"], "outside the interval"),
    (["op", "eval", "--operator", "max_min", "-n", "3", "-w", "0"], "outside the interval"),
    (["op", "eval", "--operator", "max_product", "-n", "3", "-w", "1", "-w", "-1"],
     "outside the interval"),
    (["table", "--n-list", "3", "--points", "0.8,3", "--output", "{tmp}/t.csv"],
     "strictly inside"),
    (["sweep", "--n-list", "3", "--grid-density", "-5", "--output", "{tmp}/s.csv"],
     "grid_density"),
    (["sweep", "--n-list", "3", "--grid-density", "0", "--output", "{tmp}/s.csv"],
     "grid_density"),
    (["kernel", "info", "bspline:2", "--grid-density", "50"], "--grid-density"),
    # rel > nan is always false: a NaN tolerance would pass any table
    (["verify", "{ref}", "table5:max_min", "--rel-tol", "nan"], "--rel-tol"),
    (["verify", "{ref}", "table5:max_min", "--rel-tol", "-0.1"], "--rel-tol"),
    (["sweep", "--n-list", "5,3", "--output", "{tmp}/s.csv"], "strictly increasing"),
    (["modular", "--n-list", "5,3", "--phi-function", "power:2", "--output", "{tmp}/m.csv"],
     "strictly increasing"),
    (["props", "--cases", "0"], "--cases"),
    (["table", "--n-list", "3,3", "--output", "{tmp}/t.csv"], "distinct"),
    (["table", "--n-list", "3", "--points", "0.8,1.5,0.8", "--output", "{tmp}/t.csv"],
     "distinct"),
    (["sweep", "--n-list", "3", "--interval", "3:5", "--output", "{tmp}/s.csv"], "is empty"),
    (["sweep", "--n-list", "3", "--interval", "0.1:0.25", "--output", "{tmp}/s.csv"],
     "is empty"),
    (["op", "eval", "--operator", "max_product", "-n", "3", "-w", "1", "--function", "h2",
      "--interval", "0.25:4"], "does not cover"),
    (["kernel", "info", "fejer:pi:1"], "t = 0"),
], ids=["op-eval-above-b", "op-eval-zero", "op-eval-negative", "table-point-at-b",
        "sweep-negative-density", "sweep-zero-density", "kernel-info-coarse-grid",
        "verify-nan-tol", "verify-negative-tol", "sweep-n-decreasing",
        "modular-n-decreasing", "props-zero-cases", "table-repeated-n",
        "table-repeated-point", "sweep-window-above", "sweep-window-below",
        "op-eval-signal-domain", "kernel-info-fejer-nonzero-t"])
def test_bad_values_are_usage_errors(runner, tmp_path, args, message):
    ref = refdata.reference_path("table5", "max_min")
    res = runner.invoke(main, [arg.format(tmp=tmp_path, ref=ref) for arg in args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # click's usage exit, no traceback
    assert message in res.output
    assert not list(tmp_path.iterdir())


# Each row runs an otherwise valid command on --n-list 3 --interval 1:7.389
# (a table at --points 1.5) with the config file's fields, so only they fail.
_CONFIG_COMMANDS = {
    "table": ["--points", "1.5"],
    "sweep": [],
    "modular": ["--phi-function", "power:2"],
}


_CONFIG_ROWS = [
    # 2.5 ran as n = 2
    ("fraction-n", {"n_list": [2.5]}, "an integer, got 2.5", _CONFIG_COMMANDS),
    # a TypeError traceback, exit 1
    ("text-quad-tol", {"quad_tol": "x"}, "could not convert", _CONFIG_COMMANDS),
    ("text-lambda", {"lambda": "x"}, "could not convert", _CONFIG_COMMANDS),
    # a numpy TypeError, exit 1
    ("fraction-grid-density", {"grid_density": 2.5}, "grid_density", ["sweep"]),
    ("empty-n-list", {"n_list": []}, "is empty", _CONFIG_COMMANDS),
    ("text-n", {"n_list": ["a", 3]}, "got 'a'", _CONFIG_COMMANDS),
    ("negative-a", {"interval": [-1, 2]}, "0 < a < b", _CONFIG_COMMANDS),
    ("n-1-on-1-e", {"n_list": [1], "interval": [1, math.e]}, "interval too short",
     _CONFIG_COMMANDS),
    ("unknown-format", {"format": "xml"}, "needs a single format", ["table", "sweep"]),
    # a TypeError traceback from Path(spec), exit 1
    ("number-function", {"test_function": 3}, "test_function must be text", _CONFIG_COMMANDS),
    ("number-phi-function", {"phi_function": 2}, "phi_function must be text", ["modular"]),
    ("number-output", {"output": 3}, "output must be text", _CONFIG_COMMANDS),
]


@pytest.mark.parametrize("command, fields, message", [
    pytest.param(command, fields, message, id=f"{command}-{name}")
    for name, fields, message, commands in _CONFIG_ROWS for command in commands
])
def test_bad_config_values_are_usage_errors(runner, tmp_path, command, fields, message):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(fields))
    res = runner.invoke(main, [
        command, "--n-list", "3", "--interval", "1:7.389", *_CONFIG_COMMANDS[command],
        "--output", str(tmp_path / "out.csv"), "--config", str(cfgfile),
    ])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # click's usage exit, no traceback
    assert message in res.output
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("side", ["produced", "reference"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_verify_refuses_a_non_finite_cell(runner, tmp_path, side, bad):
    # a NaN cell passed even at --rel-tol 0, as did an inf reference
    res, out = _make_table(runner, tmp_path)
    lines = out.read_text().splitlines()
    n, p, _, skipped = lines[1].split(",")
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join([lines[0], ",".join([n, p, bad, skipped]), *lines[2:]]) + "\n")
    pair = [str(broken), str(out)] if side == "produced" else [str(out), str(broken)]
    res = runner.invoke(main, ["verify", *pair, "--rel-tol", "0"])
    assert res.exit_code == 2, res.output
    assert "non-finite abs_error" in res.output


def test_verify_self_is_exact(runner, tmp_path):
    res, out = _make_table(runner, tmp_path)
    res = runner.invoke(main, ["verify", str(out), str(out), "--rel-tol", "0"])
    assert res.exit_code == 0, res.output
    assert "PASS" in res.output


def test_verify_reference_shortcut_self(runner, tmp_path):
    # the bundled reference compared against itself passes at rel_tol 0
    from expsamp import refdata, write_table_csv

    rows = refdata.load_reference("table5", "max_product")
    path = tmp_path / "ref.csv"
    write_table_csv(rows, path)
    res = runner.invoke(main, ["verify", str(path), "table5:max_product",
                               "--rel-tol", "0"])
    assert res.exit_code == 0, res.output
    assert "flagged" in res.output


def test_verify_reproduced_table4_passes_diagnostic_tier(runner, tmp_path):
    # rebuild the smooth-signal table for the bspline:3/fejer pair on the
    # default interval and verify against the bundled reference at 25%
    out = tmp_path / "t4.csv"
    res = runner.invoke(main, [
        "table", "--operator", "max_product", "--phi", "bspline:3",
        "--psi", "fejer:pi:0", "--n-list", "17,26,35,53",
        "--points", "0.8,1.5,2.0,2.5", "--interval", "0.25:3",
        "--function", "h1", "--quad-tol", "1e-9", "--output", str(out),
    ])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["verify", str(out), "table4:max_product",
                               "--rel-tol", "0.25"])
    assert res.exit_code == 0, res.output
    assert "PASS" in res.output


def test_verify_schema_error(runner, tmp_path):
    res, out = _make_table(runner, tmp_path)
    broken = tmp_path / "broken.csv"
    broken.write_text("n,point,abs_error,skipped\n3,1.5,not_a_number,0\n")
    res = runner.invoke(main, ["verify", str(out), str(broken)])
    assert res.exit_code == 2


def test_verify_mismatch_exits_one(runner, tmp_path):
    res, out = _make_table(runner, tmp_path)
    other = tmp_path / "other.csv"
    text = out.read_text().splitlines()
    rows = [text[0]]
    for line in text[1:]:
        n, p, e, s = line.split(",")
        rows.append(",".join([n, p, str(float(e) * 10 + 1.0), s]))
    other.write_text("\n".join(rows) + "\n")
    res = runner.invoke(main, ["verify", str(other), str(out), "--rel-tol", "0.25"])
    assert res.exit_code == 1
    assert "FAIL" in res.output


# ---------------------------------------------------------------------------
# sweep / modular / props
# ---------------------------------------------------------------------------

def test_sweep_csv(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    res = runner.invoke(main, [
        "sweep", "--operator", "max_product", "--phi", "bspline:2",
        "--psi", "bspline:2", "--n-list", "3,5", "--interval", "1:7.389",
        "--function", "h1", "--grid-density", "40", "--quad-tol", "1e-8",
        "--output", str(out),
    ])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "n,sup_error"
    assert len(lines) == 3


def test_modular_cmd(runner, tmp_path):
    out = tmp_path / "mod.csv"
    res = runner.invoke(main, [
        "modular", "--phi-function", "power:2", "--lambda", "1.0",
        "--operator", "max_product", "--phi", "bspline:2", "--psi", "bspline:2",
        "--n-list", "2,3", "--interval", "1:7.389", "--function", "h1",
        "--quad-tol", "1e-8", "--output", str(out),
    ])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "n,modular_value,lambda"
    assert len(lines) == 3


def test_modular_mirror_states_error(runner, tmp_path):
    out = tmp_path / "mod.csv"
    res = runner.invoke(main, [
        "modular", "--phi-function", "power:2", "--operator", "max_min",
        "--phi", "bspline:3", "--psi", "fejer:pi:0", "--n-list", "5,9",
        "--function", "h2", "--quad-tol", "1e-8", "--output", str(out),
    ])
    assert res.exit_code == 0, res.output
    rows = json.loads(Path(str(out) + ".json").read_text())["rows"]
    assert [r["n"] for r in rows] == [5, 9]
    for r in rows:
        assert r["error_bound"] == 1e-8 / 4
        assert 0.0 <= r["error_estimate"] <= r["error_bound"]


def test_modular_rows_name_the_orders_as_run(runner, tmp_path):
    # a config file's 3.0 runs as n = 3, and the rows say 3 (they said 3.0)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"n_list": [3.0]}))
    out = tmp_path / "mod.csv"
    res = runner.invoke(main, [
        "modular", "--phi-function", "power:2", "--interval", "1:7.389",
        "--output", str(out), "--config", str(cfgfile),
    ])
    assert res.exit_code == 0, res.output
    assert out.read_text().splitlines()[1].startswith("3,")
    [row] = json.loads(Path(str(out) + ".json").read_text())["rows"]
    assert row["n"] == 3 and isinstance(row["n"], int)


def test_modular_requires_phi_function(runner, tmp_path):
    res = runner.invoke(main, [
        "modular", "--operator", "max_product", "--output", str(tmp_path / "m.csv"),
    ])
    assert res.exit_code == 2


@pytest.mark.parametrize("gauge,lam", [("exppower:1", "5000"), ("power:2", "1e200")])
def test_modular_overflow_names_lambda(capsys, tmp_path, gauge, lam):
    code, output = _invoke_in_process(capsys, [
        "modular", "--phi-function", gauge, "--lambda", lam,
        "--operator", "max_product", "--phi", "bspline:2", "--psi", "bspline:2",
        "--n-list", "2,3", "--interval", "1:7.389", "--function", "h1",
        "--output", str(tmp_path / "m.csv"),
    ])
    assert code == 1, output
    assert f"lambda={float(lam):g}" in output


def test_props(runner):
    res = runner.invoke(main, ["props", "--seed", "42", "--cases", "500"])
    assert res.exit_code == 0, res.output
    assert "violations=0" in res.output
    assert "FAIL" not in res.output


# ---------------------------------------------------------------------------
# --config overrides flags
# ---------------------------------------------------------------------------

def test_config_file_overrides_flags(runner, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n_list": [4], "points": [2.0]}))
    out = tmp_path / "t.csv"
    res = runner.invoke(main, [
        "table", "--operator", "max_product", "--phi", "bspline:2",
        "--psi", "bspline:2", "--n-list", "3,5", "--points", "1.5",
        "--interval", "1:7.389", "--function", "h1", "--quad-tol", "1e-8",
        "--output", str(out), "--config", str(cfgfile),
    ])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 1
    assert lines[0].startswith("4,2")


def test_custom_function_from_samples(runner, tmp_path):
    samples = tmp_path / "fn.csv"
    rows = ["w,value"] + [f"{w},{0.5}" for w in (0.5, 1.0, 2.0, 4.0, 8.0)]
    samples.write_text("\n".join(rows) + "\n")
    res = runner.invoke(main, [
        "op", "eval", "--operator", "max_product", "--phi", "bspline:2",
        "--psi", "bspline:2", "-n", "3", "--interval", "1:7.389",
        "--function", str(samples), "-w", "2.0", "--json",
    ])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["rows"][0]["value"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("samples, message", [
    (["0.5,0.5", "2.0,nan", "8.0,0.5"], "NaN"),
    (["0.5,0.5", "nan,0.5", "8.0,0.5"], "NaN"),
    (["0.5,0.5", "2.0,0.5", "2.0,0.6", "8.0,0.5"], "duplicate"),
    (["2.0,0.5", "4.0,0.5", "8.0,0.5"], "does not cover"),
    (["0.5,0.5", "2.0,inf", "8.0,0.5"], "NaN"),
    (["0.5,0.5", "2.0,0.5", "inf,0.5"], "NaN"),
], ids=["nan-value", "nan-abscissa", "duplicate-abscissa", "interval-outside-samples",
        "inf-value", "inf-abscissa"])
def test_custom_function_rejects_bad_samples(runner, tmp_path, samples, message):
    path = tmp_path / "fn.csv"
    path.write_text("\n".join(["w,value"] + samples) + "\n")
    res = runner.invoke(main, [
        "op", "eval", "--operator", "max_product", "--phi", "bspline:2",
        "--psi", "bspline:2", "-n", "3", "--interval", "1:7.389",
        "--function", str(path), "-w", "2.0",
    ])
    assert res.exit_code == 2, res.output
    assert message in res.output


def test_config_cannot_hand_both_to_single_operator_command(runner, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"operator": "both"}))
    res = runner.invoke(main, [
        "sweep", "--output", str(tmp_path / "s.csv"), "--config", str(cfgfile),
    ])
    assert res.exit_code == 2
    assert "needs a single operator" in res.output


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def test_reproduce_tables_and_sweeps(runner, tmp_path, monkeypatch):
    from expsamp import cli, refdata

    monkeypatch.setattr(refdata, "TABLE_INFO", {"table2": refdata.TABLE_INFO["table2"]})
    monkeypatch.setattr(cli, "PAIRS", {"b2_b2": ("bspline:2", "bspline:2")})
    monkeypatch.setattr(cli, "DEFAULT_N_LIST", [3, 5])
    monkeypatch.setattr(cli, "SWEEP_GRID_DENSITY", 20)

    tables = tmp_path / "tables"
    res = runner.invoke(main, ["reproduce", "tables", "--outdir", str(tables)])
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in tables.iterdir()) == [
        "summary.json", "table2_max_min.csv", "table2_max_min.csv.json",
        "table2_max_product.csv", "table2_max_product.csv.json",
    ]
    for oper in ("max_product", "max_min"):
        lines = (tables / f"table2_{oper}.csv").read_text().splitlines()
        assert lines[0] == "n,point,abs_error,skipped"
        assert len(lines) == 17
        mirror = json.loads((tables / f"table2_{oper}.csv.json").read_text())
        assert mirror["config"]["interval"] == list(refdata.REFERENCE_INTERVAL)
    summary = json.loads((tables / "summary.json").read_text())
    assert [(s["table"], s["operator"]) for s in summary] == [
        ("table2", "max_product"), ("table2", "max_min")]
    assert summary[0]["value_pass"] and summary[0]["trend_pass"]
    assert summary[0]["worst_rel_dev"] < 0.01

    sweeps = tmp_path / "sweeps"
    res = runner.invoke(main, ["reproduce", "sweeps", "--outdir", str(sweeps)])
    assert res.exit_code == 0, res.output
    stems = [f"b2_b2_{oper}_{which}"
             for oper in ("max_product", "max_min") for which in ("h1", "h2")]
    assert sorted(p.name for p in sweeps.iterdir()) == sorted(
        name for stem in stems for name in (f"{stem}.csv", f"{stem}.csv.json"))
    for stem in stems:
        lines = (sweeps / f"{stem}.csv").read_text().splitlines()
        assert lines[0] == "n,sup_error"
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "5"]
        mirror = json.loads((sweeps / f"{stem}.csv.json").read_text())
        assert len(mirror["grid"]) == 20
        assert all(len(row["abs_errors"]) == 20 for row in mirror["rows"])
