"""The transfer-check command against its per-k form, and its cost in steps."""

import json
import warnings

import numpy as np
import pytest

import bjweyl.cli
from bjweyl import solutions, transfer
from bjweyl.blockcore import _finite
from bjweyl.cli import _num, _row_errors, main
from bjweyl.transfer import lo_residual, omega_identity_residual, transfer_nstep, transfer_step

FREE1 = {"name": "free", "d": 1}
EXPLICIT5 = {"name": "explicit", "d": 2,
             "A": [[[1.0, 0.2], [0.0, 1.1]], [[0.9, 0.0], [0.3, 1.0]], [[1.2, 0.1], [0.1, 0.8]],
                   [[1.0, 0.0], [0.0, 1.0]], [[0.7, 0.2], [-0.1, 1.3]]],
             "B": [[[0.0, 0.1], [0.1, 0.5]], [[1.0, 0.0], [0.0, -1.0]], [[0.2, 0.3], [0.3, 0.1]],
                   [[0.0, 0.0], [0.0, 0.0]], [[-0.5, 0.2], [0.2, 0.4]]]}
# B_0 = z makes P_1(z) = 0, so Q(z) passes the double range at n = 87 and P(z) only at n = 90
Q_FIRST = {"name": "periodic_modulated", "d": 1, "A_period": [[[1.0]]],
           "B_period": [[[1e10]], [[0.0]], [[0.0]]], "growth": 0}


def _per_k_transfer_check(cfg):
    """transfer-check with every row walked from n = 0, O(k_max^2) steps: the oracle."""
    p = cfg.params()
    fields = ["k", "omega_residual", "rinv_residual", "tinv_residual",
              "lo_r1", "lo_r2", "error"]
    rows = []
    eye = np.eye(2 * p.d)
    for k in range(1, cfg.k_max + 1):
        row = {"k": str(k)}
        with _row_errors(row):
            row["omega_residual"] = _num(omega_identity_residual(p, cfg.z, k))
            nstep = transfer_nstep(p, cfg.z, k)
            with np.errstate(over="ignore", invalid="ignore"):  # an infinite scale is max(1, inf)
                scale = max(1.0, np.linalg.norm(nstep["R"], 2)
                            * np.linalg.norm(nstep["R_inv"], 2))
                rr = _finite(nstep["R"] @ nstep["R_inv"], f"R_k R_k^-1 at k={k}")
            row["rinv_residual"] = _num(np.linalg.norm(rr - eye, 2) / scale)
            step = transfer_step(p, cfg.z, k - 1)
            with np.errstate(over="ignore", invalid="ignore"):
                tt = _finite(step["T"] @ step["T_inv"], f"T_k-1 T_k-1^-1 at k={k}")
            row["tinv_residual"] = _num(np.linalg.norm(tt - eye, 2))
            lo = lo_residual(p, cfg.z, k)
            row["lo_r1"] = _num(lo["r1"])
            row["lo_r2"] = _num(lo["r2"])
        rows.append(row)
    return fields, rows


def _both_forms(tmp_path, capsys, monkeypatch, **config):
    """(exit code, stderr, output text) of the command and of the oracle, numpy warnings
    raised as errors."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"command": "transfer-check", **config}))
    runs = []
    for form in (None, _per_k_transfer_check):
        if form is not None:
            monkeypatch.setitem(bjweyl.cli._DISPATCH, "transfer-check", form)
        out = tmp_path / f"o{len(runs)}.{config.get('format', 'csv')}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(path), "--out", str(out)])
        runs.append((code, capsys.readouterr().err, out.read_text() if out.exists() else None))
    return runs


@pytest.mark.parametrize("family, z, k_max, fmt", [
    (FREE1, [30.0, 0.0], 220, "csv"),  # the Omega identity overflows from k = 105 on
    (FREE1, [30.0, 0.5], 220, "json"),
    ({"name": "free", "d": 2}, [0.3, 0.2], 30, "csv"),
    ({"name": "explicit", "d": 1, "A": [[[1.0]]] * 3, "B": [[[0.0]]] * 3}, [0.5, 0.0], 6, "csv"),
    ({"name": "diagonal", "components": [{"a": 0.0, "b": 0.0}]}, [0.5, 0.0], 4, "json"),
    ({"name": "periodic_modulated", "d": 1, "A_period": [[[1.0]]], "B_period": [[[0.0]]],
      "growth": 400}, [-1.0, -0.5], 12, "csv"),
    (EXPLICIT5, [0.5, 0.0], 9, "csv"),
    (EXPLICIT5, [2.0, 1e-3], 9, "json"),
])
def test_rows_and_exit_code_are_those_of_the_per_k_form(tmp_path, capsys, monkeypatch, family,
                                                        z, k_max, fmt):
    ours, oracle = _both_forms(tmp_path, capsys, monkeypatch, family=family, z=z, k_max=k_max,
                               format=fmt)
    assert ours == oracle
    if family == FREE1 and z == [30.0, 0.0]:
        assert "R~(conj z)* Omega R~(z) at n=105 is not finite" in ours[2]


def test_an_lo_overflow_is_named_as_the_per_k_form_names_it(tmp_path, capsys, monkeypatch):
    # With the Omega and R_k^-1 cells forced finite, rows reach the LO columns: a defect
    # overflows from k = 45 on (r2 alone at k = 46), Q(z) at n = 87 and P(z) at n = 90, and
    # each row names the first of P(z), Q(z), P(conj z), Q(conj z) with a non-finite term at
    # or below k.
    eye = np.eye(2)
    for mod in (transfer, bjweyl.cli):
        monkeypatch.setattr(mod, "_omega_residual", lambda p, r, rb, n: 0.0)
        monkeypatch.setattr(mod, "_nstep", lambda p, r, rb, n: {"R": eye, "R_inv": eye})
    ours, oracle = _both_forms(tmp_path, capsys, monkeypatch, family=Q_FIRST, z=[1e10, 0.0],
                               k_max=95)
    assert ours == oracle
    errors = [line.rsplit(",", 1)[1] for line in ours[2].splitlines()[2:]]
    assert errors[44:46] == ["overflow: the r1 defect at k=45 is not finite",
                             "overflow: the r2 defect at k=46 is not finite"]
    assert errors[86:] == (["recurrence overflows: term at n=87 is not finite"] * 3
                           + ["recurrence overflows: term at n=90 is not finite"] * 6)


def _counting(monkeypatch, home, name, count):
    """Wrap home.name wherever bjweyl's modules bind it; count(args) per call."""
    orig = getattr(home, name)

    def wrapped(*args):
        count(args)
        return orig(*args)

    for mod in (transfer, solutions, bjweyl.cli):
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, wrapped)


def test_one_chain_step_and_one_walk_step_per_row(tmp_path, monkeypatch):
    steps = {"chain": 0, "walk": 0}

    def chain(args):  # transfer_step's own step is at a scalar z
        steps["chain"] += np.ndim(args[1]) > 0

    def walk(args):
        steps["walk"] += args[5] - args[4]  # n_max - first_n

    _counting(monkeypatch, transfer, "_step", chain)
    _counting(monkeypatch, solutions, "_steps", walk)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"family": {"name": "free", "d": 2}, "command": "transfer-check",
                                "z": [0.5, 0.0], "k_max": 60}))
    assert main(["--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
    assert steps == {"chain": 60, "walk": 60}
