import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import bjweyl.cli
from bjweyl.cli import COMMANDS, ConfigError, RunConfig, main, parse_config, run

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# bjweyl-schema v1"
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def test_parse_minimal_config():
    cfg = parse_config('{"family": {"name": "free", "d": 1}}')
    assert cfg.family["name"] == "free"
    assert cfg.command == "weyl"


def test_unknown_key_rejected_with_location():
    with pytest.raises(ConfigError, match="'truncation'"):
        parse_config('{"truncation": 5}')
    with pytest.raises(ConfigError, match="family.'period'"):
        parse_config('{"family": {"name": "free", "d": 1, "period": 2}}')


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config('{"family": \n !}')


def test_semantic_error_names_block():
    cfg = {"family": {"name": "explicit", "d": 1,
                      "A": [[[0.0]]], "B": [[[0.0]]]}}
    with pytest.raises(ConfigError, match="n=0"):
        parse_config(json.dumps(cfg))


def test_diagonal_family_infers_d():
    cfg = parse_config(json.dumps({"family": {
        "name": "diagonal",
        "components": [{"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.0}]}}))
    assert cfg.family["d"] == 2


def test_bad_eps_ladder():
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config('{"family": {"name": "free", "d": 1}, "eps_ladder": [0.01, 0.1]}')


def test_weyl_command_free(tmp_path, capsys):
    cfg = RunConfig()
    cfg.command = "weyl"
    cfg.N = 200
    cfg.out = str(tmp_path / "w.csv")
    assert run(cfg) == 0
    rows = read_rows(tmp_path / "w.csv")
    assert len(rows) == 1
    assert float(rows[0]["im_W_0_0"]) == pytest.approx(math.sqrt(2) - 1, abs=1e-6)
    assert float(rows[0]["route_diff"]) < 1e-12


def test_transfer_check_k1_lo2_vanishes(tmp_path):
    cfg = RunConfig()
    cfg.command = "transfer-check"
    cfg.k_max = 3
    cfg.out = str(tmp_path / "t.csv")
    assert run(cfg) == 0
    rows = read_rows(tmp_path / "t.csv")
    assert float(rows[0]["lo_r2"]) < 1e-13
    assert all(r["error"] == "" for r in rows)


def test_measure_single_atom(tmp_path):
    cfg = RunConfig()
    cfg.command = "measure"
    cfg.N = 1
    cfg.out = str(tmp_path / "m.csv")
    assert run(cfg) == 0
    rows = read_rows(tmp_path / "m.csv")
    assert len(rows) == 1
    assert float(rows[0]["lambda"]) == 0.0
    assert float(rows[0]["re_w_0_0"]) == 1.0


def test_byte_identical_reruns(tmp_path):
    config = write_config(tmp_path, family={"name": "free", "d": 1},
                          command="weyl-scan", N=30,
                          **{"lambda": {"min": -1.0, "max": 1.0, "steps": 5}},
                          eps_ladder=[0.1, 0.03, 0.01])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--config", config, "--out", str(out1)]) == 0
    assert main(["--config", config, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_measure_cauchy_roundtrip(tmp_path):
    mcfg = write_config(tmp_path, "m.json", family={"name": "free", "d": 1},
                        command="measure", N=40)
    mcsv = tmp_path / "atoms.csv"
    assert main(["--config", mcfg, "--out", str(mcsv)]) == 0
    ccfg = write_config(tmp_path, "c.json", family={"name": "free", "d": 1},
                        command="cauchy-check", N=40, z=[0.0, 2.0],
                        measure_in=str(mcsv))
    ccsv = tmp_path / "gap.csv"
    assert main(["--config", ccfg, "--out", str(ccsv)]) == 0
    rows = read_rows(ccsv)
    assert float(rows[0]["gap"]) < 1e-9


def test_cauchy_check_of_a_given_measure_builds_no_section(tmp_path):
    # with measure_in only the banded resolvent runs, so N may pass the section cap
    mcfg = write_config(tmp_path, "m.json", family={"name": "free", "d": 1},
                        command="measure", N=40)
    mcsv = tmp_path / "atoms.csv"
    assert main(["--config", mcfg, "--out", str(mcsv)]) == 0
    ccfg = write_config(tmp_path, "c.json", family={"name": "free", "d": 1},
                        command="cauchy-check", N=5000, z=[0.0, 2.0], measure_in=str(mcsv))
    ccsv = tmp_path / "gap.csv"
    assert main(["--config", ccfg, "--out", str(ccsv)]) == 0
    rows = read_rows(ccsv)
    assert rows[0]["N"] == "5000" and rows[0]["error"] == ""


def test_json_format(tmp_path):
    config = write_config(tmp_path, family={"name": "free", "d": 1},
                          command="weyl", N=50, format="json")
    out = tmp_path / "w.json"
    assert main(["--config", config, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bjweyl-schema v1"
    assert len(doc["rows"]) == 1


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "no-such"}')
    assert main(["--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_flag_overrides(tmp_path):
    config = write_config(tmp_path, family={"name": "free", "d": 1})
    out = tmp_path / "n.csv"
    code = main(["--config", config, "--command", "nonsub",
                 "--lambda-min", "0", "--lambda-max", "0", "--lambda-steps", "1",
                 "--cap", "1000", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    verdicts = [r["verdict"] for r in rows if r["verdict"]]
    assert verdicts == ["nonsubordinate_evidence"]


def test_validate_command_reports_ok(tmp_path):
    config = write_config(tmp_path, family={"name": "free", "d": 2},
                          command="validate", N=10)
    out = tmp_path / "v.csv"
    assert main(["--config", config, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows == [{"n": "", "kind": "ok", "value": ""}]


def test_report_command_emits_interval(tmp_path):
    config = write_config(tmp_path, family={"name": "free", "d": 1},
                          command="report",
                          **{"lambda": {"min": -1.0, "max": 1.0, "steps": 3}},
                          eps_ladder=[0.1, 0.03, 0.01, 0.003])
    out = tmp_path / "r.csv"
    assert main(["--config", config, "--out", str(out)]) == 0
    rows = read_rows(out)
    intervals = [r for r in rows if r["kind"] == "interval"]
    assert intervals and intervals[0]["note"] == "heuristic"


@pytest.mark.parametrize("n", [5, 10])
def test_validate_reports_violation_of_finite_diagonal_family(tmp_path, n):
    # the family lists three terms, so N beyond them validates what exists
    config = write_config(tmp_path, command="validate", N=n, family={
        "name": "diagonal", "components": [{"a": [1.0, 0.0, 1.0], "b": 0.0}]})
    out = tmp_path / "v.csv"
    assert main(["--config", config, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [(r["n"], r["kind"]) for r in rows] == [("1", "singular_A")]


FREE = {"name": "free", "d": 1}


@pytest.mark.parametrize("config, flags, where", [
    ({"N": "abc"}, [], "N"),
    ({"z": [1]}, [], "z"),
    ({"family": {"name": "constant", "d": 2, "A": [[1]], "B": [[0, 0], [0, 0]]}}, [], "family"),
    ({"family": {"name": "constant", "d": 1, "B": [[0]]}}, [], "family: missing key 'A'"),
    ({"lambda": {"min": 0}}, [], "lambda: missing key 'max'"),
    ({"lambda": [0, 1, 2]}, [], "lambda"),
    ({"command": "nonsub", "t_grid": {"max": 10, "steps": 0}}, [], "t_grid.steps"),
    ({"command": "weyl-scan", "lambda": {"min": 0, "max": 1, "steps": 0}}, [], "lambda.steps"),
    ({"command": "weyl-scan"}, ["--lambda-steps", "0"], "lambda.steps"),
    ({}, ["--N", "0"], "N"),
    ({}, ["--cap", "0"], "cap"),
    ({}, ["--eps-ladder", "0.1,0.2"], "eps_ladder"),
    ({}, ["--eps-ladder", "0.1,x"], "eps_ladder"),
    ({"command": "cauchy-check", "measure_in": "no-such-atoms.csv"}, [], "no-such-atoms.csv"),
    ({"command": "cauchy-check", "measure_in": str(DATA / "atoms_missing_column.csv")}, [],
     "measure_in: missing key 'im_w_0_0'"),
    ({"command": "cauchy-check", "measure_in": str(DATA / "atoms_bad_cell.csv")}, [],
     "measure_in: could not convert"),
    ({"command": "cauchy-check", "measure_in": str(DATA / "atoms_negative_weight.csv")}, [],
     "measure_in: atom at 0.0 has a non-PSD weight"),
    ({"command": "jl", "family": {"name": "free", "d": 0}}, [], "family: d must be >= 1"),
    ({"family": {"name": "periodic_modulated", "d": 1, "A_period": [], "B_period": [[[0]]]}}, [],
     "family: A_period and B_period must be non-empty"),
    ({"family": {"name": "periodic_modulated", "d": 1, "A_period": [[[1]]], "B_period": []}}, [],
     "family: A_period and B_period must be non-empty"),
    ({"family": {"name": "explicit", "d": 1, "A": [], "B": []}}, [], "got 0 and 0"),
    ({"family": {"name": "explicit", "d": 1, "A": [[[1]], [[1]]], "B": [[[0]]]}}, [],
     "got 2 and 1"),
    ({"N": math.inf}, [], "N: cannot convert float infinity"),
    ({"family": {"name": "free", "d": math.inf}}, [], "family: cannot convert float infinity"),
    ({"command": "weyl-scan", "eps_ladder": [1e-300]}, [],
     "eps_ladder: eps = 1e-300 needs N above the cap"),
    ({"command": "nonsub", "t_grid": {"max": 1e12, "steps": 4}}, [],
     "t_grid: max = 1000000000000.0 is above the cap"),
    ({"command": "report", "eps_ladder": [1e-320]}, [],
     "eps_ladder: eps = 1e-320 needs N above the cap"),
    ({"command": "nonsub", "t_grid": {"max": 2 ** 20, "steps": 4}}, [],
     "t_grid: max = 1048576.0 is above the cap"),
    ({"command": "weyl-scan", "n_rule_C": math.nan}, [], "tolerances and caps must be positive"),
    ({"command": "measure", "N": 50_000}, [],
     "N: a section of 50000 rows is above the cap of 4096 rows"),
    ({"command": "cauchy-check", "family": {"name": "free", "d": 2}, "N": 2049}, [],
     "N: a section of 4098 rows is above the cap of 4096 rows"),
    ({"command": "polys", "n_max": 2 ** 20 + 1}, [], "n_max: 1048577 is above the cap"),
    ({"command": "transfer-check", "k_max": 2 ** 20 + 1}, [], "k_max: 1048577 is above the cap"),
    ({"command": "weyl", "N": 2 ** 20 + 1}, [], "N: 1048577 is above the cap"),
    ({}, ["--N", str(2 ** 20 + 1)], "N: 1048577 is above the cap"),
    ({"command": "validate", "N": 2 ** 20 + 1}, [], "N: 1048577 is above the cap"),
    ({"command": "nonsub", "t_grid": {"max": -5, "steps": 2}}, [],
     "t_grid: max = -5.0, steps = 2 do not give positive, strictly increasing nodes"),
    ({"command": "nonsub", "t_grid": {"max": 0, "steps": 3}}, [],
     "t_grid: max = 0.0, steps = 3 do not give"),
    ({"command": "nonsub", "t_grid": {"max": 1e-323, "steps": 4}}, [],
     "t_grid: max = 1e-323, steps = 4 do not give"),
    ({"command": "nonsub", "t_grid": {"max": 0, "steps": 1}}, [],
     "t_grid: max = 0.0, steps = 1 do not give"),
    ({"command": "nonsub", "t_grid": {"max": 10.0, "steps": 2 ** 12 + 1}}, [],
     "t_grid: steps = 4097 is above the cap of 4096 nodes"),
    ({"command": "nonsub", "t_grid": {"max": 1e-323, "steps": 2 ** 40}}, [],
     "t_grid: steps = 1099511627776 is above the cap of 4096 nodes"),
    ({"command": "weyl-scan", "n_rule_C": math.inf}, [], "n_rule_C must be finite, got inf"),
    ({"command": "nonsub", "cap": "inf"}, [], "cap must be finite, got inf"),
    # counts are JSON numbers with an integral value, not truncated or cast
    ({"N": 60.5}, [], "N: must be an integer, got 60.5"),
    ({"N": True}, [], "N: must be an integer, got True"),
    ({"family": {"name": "free", "d": 1.9}}, [], "family: must be an integer, got 1.9"),
    ({"family": {"name": "free", "d": "2"}}, [], "family: must be an integer, got '2'"),
    ({"command": "nonsub", "t_grid": {"max": 10, "steps": 2.7}}, [],
     "t_grid: must be an integer, got 2.7"),
    ({"command": "weyl-scan", "lambda": {"min": 0, "max": 1, "steps": 4.5}}, [],
     "lambda: must be an integer, got 4.5"),
    ({"command": "polys", "n_max": "3"}, [], "n_max: must be an integer, got '3'"),
    ({"command": "transfer-check", "k_max": False}, [], "k_max: must be an integer, got False"),
    ({"N": math.nan}, [], "N: cannot convert float NaN to integer"),
])
def test_malformed_config_is_a_located_config_error(tmp_path, capsys, config, flags, where):
    path = write_config(tmp_path, **{"family": FREE, **config})
    out = tmp_path / "o.csv"
    assert main(["--config", path, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and where in err
    assert not out.exists()


@pytest.mark.parametrize("command, written, count", [
    ("polys", {"n_max": 1e1, "family": {"name": "free", "d": 2.0}},
     {"n_max": 10, "family": {"name": "free", "d": 2}}),
    ("transfer-check", {"k_max": 12.0}, {"k_max": 12}),
    ("weyl", {"N": 1e3}, {"N": 1000}),
    ("weyl-scan", {"lambda": {"min": -1.0, "max": 1.0, "steps": 3.0}},
     {"lambda": {"min": -1.0, "max": 1.0, "steps": 3}}),
    ("nonsub", {"t_grid": {"max": 8.0, "steps": 4.0}}, {"t_grid": {"max": 8.0, "steps": 4}}),
])
def test_a_count_written_as_an_integral_float_is_that_count(tmp_path, command, written, count):
    # 1e3 is the JSON number 1000: the same bytes as the integer
    outs = []
    for name, knobs in (("written", written), ("count", count)):
        config = {"family": FREE, "command": command, **knobs}
        path = write_config(tmp_path, f"{name}.json", **config)
        out = tmp_path / f"{name}.csv"
        assert main(["--config", path, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


_FLAG_BASE = {"family": FREE, "command": "weyl", "N": 20, "z": [0.0, 1.0],
              "lambda": {"min": -1.0, "max": 1.0, "steps": 2}, "eps_ladder": [1.0, 0.5],
              "t_grid": {"max": 8.0, "steps": 4}}


@pytest.mark.parametrize("command, flags, keys", [
    ("weyl", [], {}),  # --out alone against the "out" key
    ("weyl", ["--N", "7"], {"N": 7}),
    ("weyl", ["--command", "weyl-scan"], {"command": "weyl-scan"}),
    ("weyl", ["--format", "json"], {"format": "json"}),
    ("weyl-scan", ["--lambda-min", "-0.5"], {"lambda": {"min": -0.5, "max": 1.0, "steps": 2}}),
    ("weyl-scan", ["--lambda-max", "0.5"], {"lambda": {"min": -1.0, "max": 0.5, "steps": 2}}),
    ("weyl-scan", ["--lambda-steps", "3"], {"lambda": {"min": -1.0, "max": 1.0, "steps": 3}}),
    ("weyl-scan", ["--eps-ladder", "0.5,0.25"], {"eps_ladder": [0.5, 0.25]}),
    ("jl", ["--seminorm", "norm"], {"seminorm": "matrix_norm"}),
    ("jl", ["--seminorm", "minmod"], {"seminorm": "matrix_minmod"}),
    ("nonsub", ["--cap", "2"], {"cap": 2.0}),
])
def test_flag_gives_the_bytes_of_its_config_key(tmp_path, command, flags, keys):
    base = {**_FLAG_BASE, "command": command}
    if command == "jl":  # d = 2 so that norm and minmod differ; the base has the other one
        base["family"] = {"name": "diagonal",
                          "components": [{"a": 1.0, "b": 0.0}, {"a": 2.0, "b": 0.0}]}
        base["seminorm"] = ({"matrix_norm", "matrix_minmod"} - {keys["seminorm"]}).pop()
    plain, via_flag, via_key = tmp_path / "plain.out", tmp_path / "flag.out", tmp_path / "key.out"
    flag_cfg = write_config(tmp_path, "flag.json", **base)
    key_cfg = write_config(tmp_path, "key.json", **{**base, **keys, "out": str(via_key)})
    assert main(["--config", flag_cfg, "--out", str(plain)]) == 0
    assert main(["--config", flag_cfg, "--out", str(via_flag), *flags]) == 0
    assert main(["--config", key_cfg]) == 0
    assert via_flag.read_bytes() == via_key.read_bytes()
    assert (plain.read_bytes() != via_flag.read_bytes()) == bool(flags)


# Families that parse but fail at run time: every A_n singular, blocks past the
# third, and A_n = (n+1)**400 overflowing at n = 5.
_FAILING_FAMILIES = {
    "zero_a": {"name": "diagonal", "components": [{"a": 0.0, "b": 0.0}]},
    "short_explicit": {"name": "explicit", "d": 1, "A": [[[1.0]]] * 3, "B": [[[0.0]]] * 3},
    "growth_400": {"name": "periodic_modulated", "d": 1, "A_period": [[[1.0]]],
                   "B_period": [[[0.0]]], "growth": 400},
}


@pytest.mark.parametrize("family", _FAILING_FAMILIES.values(), ids=_FAILING_FAMILIES)
@pytest.mark.parametrize("command", COMMANDS)
def test_family_failing_at_run_time_gives_row_errors_or_a_config_error(
        tmp_path, capsys, command, family):
    config = write_config(tmp_path, **{**_FLAG_BASE, "N": 10, "k_max": 3, "n_max": 5,
                                       "family": family, "command": command, "format": "json"})
    out = tmp_path / "o.json"
    code = main(["--config", config, "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("config error: family: ") and not out.exists()
    else:
        rows = json.loads(out.read_text())["rows"]
        assert code == (2 if rows and all(r.get("error") for r in rows) else 0)


def test_one_run_builds_the_family_once(tmp_path, monkeypatch):
    calls = []
    build = bjweyl.cli.make_family
    monkeypatch.setattr(bjweyl.cli, "make_family",
                        lambda *a, **kw: calls.append(a) or build(*a, **kw))
    config = write_config(tmp_path, command="weyl", N=20,
                          family={"name": "constant", "d": 1, "A": [[1.0]], "B": [[0.0]]})
    assert main(["--config", config, "--out", str(tmp_path / "w.csv")]) == 0
    assert len(calls) == 1


def test_a_failed_lambda_carries_its_reason(tmp_path):
    base = {**_FLAG_BASE, "family": _FAILING_FAMILIES["zero_a"]}
    report = tmp_path / "report.csv"
    assert main(["--config", write_config(tmp_path, **{**base, "command": "weyl-scan"}),
                 "--out", str(tmp_path / "scan.csv")]) == 2
    assert main(["--config", write_config(tmp_path, **{**base, "command": "report"}),
                 "--out", str(report)]) == 0
    points = [r for r in read_rows(report) if r["kind"] == "point"]
    assert points and all(r["note"].startswith("singular A") for r in points)


@pytest.mark.parametrize("command", ["validate", "measure"])
def test_an_overflowing_block_names_its_index(tmp_path, capsys, command):
    # A_5 = 6**400 overflows; no numpy warning may reach stderr on the way
    config = write_config(tmp_path, **{**_FLAG_BASE, "N": 10, "command": command,
                                       "family": _FAILING_FAMILIES["growth_400"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", config, "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == "config error: family: block at n=5 contains non-finite entries\n"


@pytest.mark.parametrize("command, knobs, code, err", [
    ("transfer-check", {"family": _FAILING_FAMILIES["growth_400"], "k_max": 6}, 0, ""),
    ("polys", {"z": [30.0, 0.0], "n_max": 400}, 1,
     "config error: family: recurrence overflows: term at n=209 is not finite\n"),
    ("jl", {"lambda": {"min": 30.0, "max": 30.0, "steps": 1}}, 0, ""),
    ("weyl", {"family": {"name": "diagonal", "components": [{"a": 1e308, "b": 0.0}]}}, 0, ""),
])
def test_overflow_reaches_stderr_only_as_a_located_message(tmp_path, capsys, command, knobs,
                                                          code, err):
    # P_n(30) overflows near n = 209, R~ of growth 400 near k = 5; no numpy warning may leak
    config = write_config(tmp_path, **{**_FLAG_BASE, "command": command, **knobs})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", config, "--out", str(tmp_path / "o.csv")]) == code
    assert capsys.readouterr().err == err


_BAD_LADDER = "eps_ladder: eps ladder must be non-empty, finite, positive and strictly decreasing"


@pytest.mark.parametrize("config, flags, err", [
    ({"command": "weyl-scan", "lambda": {"min": math.nan, "max": 1.0, "steps": 3}}, [],
     "lambda.min must be finite, got nan"),
    ({"command": "weyl-scan", "lambda": {"min": math.inf, "max": 1.0, "steps": 3}}, [],
     "lambda.min must be finite, got inf"),
    ({"command": "jl"}, ["--lambda-max", "nan"], "lambda.max must be finite, got nan"),
    ({"command": "transfer-check", "z": [math.inf, 1.0]}, [], "z must be finite, got (inf+1j)"),
    ({"command": "weyl", "z": [0.0, math.nan]}, [], "z must be finite, got nanj"),
    ({"command": "nonsub", "t_grid": {"max": math.nan, "steps": 4}}, [],
     "t_grid.max must be finite, got nan"),
    ({"command": "jl", "eps_ladder": [math.inf, 0.1]}, [], _BAD_LADDER),
    ({"command": "weyl-scan", "eps_ladder": [math.inf, 0.1]}, [], _BAD_LADDER),
    ({"command": "jl", "eps_ladder": [0.2, math.nan]}, [], _BAD_LADDER),
    ({"command": "jl"}, ["--eps-ladder", "inf,0.1"], _BAD_LADDER),
])
def test_a_non_finite_point_is_a_located_config_error(tmp_path, capsys, config, flags, err):
    path = write_config(tmp_path, **{"family": FREE, **config})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", path, "--out", str(tmp_path / "o.csv"), *flags]) == 1
    assert capsys.readouterr().err == f"config error: {err}\n"


_NOT_FINITE = "W is not finite: the Schur sweep overflowed"


@pytest.mark.parametrize("family, knobs, code, failed", [
    # N(1e-320) = 1 block of a family without a period, and W = 1/(-i 1e-320)
    # overflows on the last rung only
    ({"name": "explicit", "d": 1, "A": [[[1.0]]], "B": [[[0.0]]]},
     {"lambda": {"min": 0.0, "max": 0.0, "steps": 1}, "eps_ladder": [1e-10, 1e-300, 1e-320],
      "n_rule_C": 1e-320}, 0, [1e-320]),
    ({"name": "diagonal", "components": [{"a": 1e308, "b": 0.0}]},
     {"lambda": {"min": -1.0, "max": 1.0, "steps": 2}, "eps_ladder": [0.1, 0.03]}, 2, [0.1, 0.03]),
])
def test_an_overflowing_sweep_is_a_row_error_and_an_undecided_label(
        tmp_path, capsys, family, knobs, code, failed):
    path = write_config(tmp_path, family=family, command="weyl-scan", **knobs)
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", path, "--out", str(out)]) == code
    assert capsys.readouterr().err == ""
    rows = read_rows(out)
    samples, labels = [r for r in rows if r["eps"]], [r for r in rows if not r["eps"]]
    assert [float(r["eps"]) for r in samples if r["error"]] == failed * len(labels)
    assert all(r["error"] == _NOT_FINITE and not r["tr_im"] for r in samples if r["error"])
    assert all(r["label"] == "undecided" and r["error"] == _NOT_FINITE for r in labels)


def _run_quiet(tmp_path, capsys, **config):
    """Run a config with numpy warnings raised as errors; return (exit code, rows)."""
    path, out = write_config(tmp_path, **config), tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--config", path, "--out", str(out)])
    assert capsys.readouterr().err == ""
    return code, read_rows(out)


def test_an_overflowing_gram_matrix_is_a_row_error_of_its_lambda(tmp_path, capsys):
    # lambda = 30 lies outside the spectrum: G_t passes the double range between t = 75 and 150
    code, rows = _run_quiet(tmp_path, capsys, family=FREE, command="nonsub",
                            **{"lambda": {"min": 3.0, "max": 30.0, "steps": 2},
                               "t_grid": {"max": 300.0, "steps": 4}})
    assert code == 0
    assert [r["lambda"] for r in rows] == ["3"] * 5 + ["30"]
    assert rows[4]["verdict"] == "subordinate_evidence" and not rows[4]["error"]
    assert rows[5] == {"lambda": "30", "t": "", "cond": "", "verdict": "",
                       "growth_rate_per_step": "", "error": "overflow: G_t at t=150 is not finite"}


def test_an_overflowing_transfer_identity_is_a_row_error_of_its_k(tmp_path, capsys):
    # R~(30)* Omega R~(30) passes the double range at k = 105 (R_k itself at k = 209)
    code, rows = _run_quiet(tmp_path, capsys, family=FREE, command="transfer-check",
                            z=[30.0, 0.0], k_max=107)
    assert code == 0
    assert not any(r["error"] for r in rows[:104])
    assert all(r["omega_residual"] != "nan" for r in rows[:104])
    assert [r["error"] for r in rows[104:]] == [
        f"overflow: R~(conj z)* Omega R~(z) at n={k} is not finite" for k in (105, 106, 107)]


def test_a_far_lambda_is_a_jl_row_without_an_error(tmp_path, capsys):
    # P_n(1e6) overflows at n = 52; every target is reached at node 1
    code, rows = _run_quiet(tmp_path, capsys, family=FREE, command="jl",
                            **{"lambda": {"min": 1e6, "max": 1e6, "steps": 1}})
    assert code == 0
    assert len(rows) == len(RunConfig().eps_ladder)
    assert all(not r["error"] and 0.0 < float(r["ell"]) < 1.0 for r in rows)


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": str(Path(bjweyl.cli.__file__).parents[1])}
    code = "import sys, bjweyl.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout == "False\n"
