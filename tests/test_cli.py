import json
import math

import numpy as np
import pytest

from bjweyl.cli import ConfigError, RunConfig, main, parse_config, run


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
])
def test_malformed_config_is_a_located_config_error(tmp_path, capsys, config, flags, where):
    path = write_config(tmp_path, **{"family": FREE, **config})
    out = tmp_path / "o.csv"
    assert main(["--config", path, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and where in err
    assert not out.exists()


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
