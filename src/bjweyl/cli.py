"""Configuration ingestion, command dispatch and deterministic tabular output.

Config files are JSON; unknown keys are rejected with their location.  Rows
serialize with 17 significant digits (lossless double round-trip), complex
entries as re/im column pairs, and a mandatory versioned header line, so two
runs with the same config produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .blockcore import (FAMILY_KNOBS, HORIZON_CAP, JacobiParams, _finite, make_family,
                        validate_params)
from .measure import DiscreteMatrixMeasure, cauchy_transform, quadrature_measure
from .seminorms import SeminormKind
from .solutions import _check_bad, _first_bad, _pq_start, _steps, compute_PQ
from .subordinacy import DEFAULT_COND_CAP, ROW_ERRORS, _value, jl_function, nonsub_diagnostic
from .transfer import _lo_defects, _nstep, _omega_residual, _step, transfer_step
from .weyl import (DEFAULT_N_RULE_C, _check_ladder, _check_section, boundary_scan,
                   default_n_rule, weyl_resolvent, weyl_schur)

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

SCHEMA_LINE = "# bjweyl-schema v1"

_TOP_KEYS = {  # "seed" is accepted for older configs and ignored
    "family", "command", "N", "z", "lambda", "eps_ladder", "t_grid",
    "k_max", "n_max", "n_rule_C", "seed", "format", "out", "seminorm",
    "cap", "measure_in",
}
_LAMBDA_KEYS = ("min", "max", "steps")
T_STEPS_CAP = 2 ** 12  # nonsub keeps G_t, cond and a row per t node and lambda: 88 MB at the cap


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    family: dict = field(default_factory=lambda: {"name": "free", "d": 1})
    command: str = "weyl"
    N: int = 60
    z: complex = 2j
    lambda_grid: tuple = (-2.0, 2.0, 9)  # min, max, steps
    eps_ladder: tuple = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    t_grid: tuple = (64.0, 32)  # max, steps
    k_max: int = 10
    n_max: int = 20
    n_rule_C: float = DEFAULT_N_RULE_C
    fmt: str = "csv"
    out: str | None = None
    seminorm: str = "matrix_norm"
    cap: float = DEFAULT_COND_CAP
    measure_in: str | None = None
    _params: JacobiParams | None = field(default=None, init=False, repr=False, compare=False)

    def params(self) -> JacobiParams:
        """The family, built on the first call; later calls return the same
        object, so its blocks are materialized and checked once per run."""
        if self._params is None:
            knobs = {k: v for k, v in self.family.items() if k not in ("name", "d")}
            with _located("family"):
                self._params = make_family(self.family["name"], int(self.family["d"]), **knobs)
        return self._params

    def lambdas(self) -> np.ndarray:
        lo, hi, steps = self.lambda_grid
        return np.linspace(lo, hi, int(steps))

    def ts(self) -> np.ndarray:
        t_max, steps = self.t_grid
        return np.linspace(t_max / int(steps), t_max, int(steps))


@contextlib.contextmanager
def _located(where: str):
    """Turn a failure to read one config entry into a ConfigError naming it."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{where}: missing key {exc}") from exc
    except (TypeError, ArithmeticError, ValueError) as exc:  # int(inf): OverflowError
        raise ConfigError(f"{where}: {exc}") from exc


@contextlib.contextmanager
def _row_errors(row: dict):
    """Write a failure of the enclosed computation into ``row["error"]``;
    cells filled before it stay."""
    try:
        yield
    except ConfigError:
        raise
    except ROW_ERRORS as exc:
        row["error"] = str(exc)


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {where}{key!r}")


def _count(x) -> int:
    """A count: a JSON number with an integral value (1e3 is 1000).  A bool, a
    string or a fractional value is a ValueError naming the value, and int(inf)
    and int(nan) raise, for the caller's ``_located`` to name the key."""
    if isinstance(x, bool) or not isinstance(x, (numbers.Integral, float)) or x != int(x):
        raise ValueError(f"must be an integer, got {x!r}")
    return int(x)


def _decode(text: str) -> dict:
    """Config text to the raw config dict; syntax is checked here, values are not."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"syntax error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def parse_config(config: str | dict) -> RunConfig:
    """Validate a config, JSON text or its decoded dict, into a RunConfig.

    This is the one place config values are checked: ``main`` merges its
    flags into the dict before calling it.  Every failure is a ConfigError
    that names the offending key.
    """
    raw = _decode(config) if isinstance(config, str) else config
    _reject_unknown(raw, _TOP_KEYS, "")
    cfg = RunConfig()
    if "family" in raw:
        with _located("family"):
            fam = dict(raw["family"])
            name = fam.get("name")
            if name not in FAMILY_KNOBS:
                raise ConfigError(f"family.name must be one of {sorted(FAMILY_KNOBS)}")
            if name == "diagonal" and "d" not in fam and "components" in fam:
                fam["d"] = len(fam["components"])
        if "d" not in fam:
            raise ConfigError("family.d is required")
        with _located("family"):
            fam["d"] = _count(fam["d"])
        _reject_unknown(fam, FAMILY_KNOBS[name] | {"name", "d"}, "family.")
        cfg.family = fam
    for key, attr, choices in (("command", "command", COMMANDS), ("format", "fmt", ("csv", "json")),
                               ("seminorm", "seminorm", ("matrix_norm", "matrix_minmod"))):
        if key in raw:
            if raw[key] not in choices:
                raise ConfigError(f"{key} must be one of {choices}")
            setattr(cfg, attr, raw[key])
    if "z" in raw:
        with _located("z"):
            re, im = raw["z"]
            cfg.z = complex(float(re), float(im))
    if "eps_ladder" in raw:
        with _located("eps_ladder"):
            cfg.eps_ladder = tuple(float(e) for e in raw["eps_ladder"])
            _check_ladder(cfg.eps_ladder)
    for key, attr, convs in (("lambda", "lambda_grid",
                              {"min": float, "max": float, "steps": _count}),
                             ("t_grid", "t_grid", {"max": float, "steps": _count})):
        if key in raw:
            with _located(key):
                _reject_unknown(raw[key], set(convs), f"{key}.")
                setattr(cfg, attr, tuple(conv(raw[key][k]) for k, conv in convs.items()))
    for key, conv in (("N", _count), ("k_max", _count), ("n_max", _count),
                      ("n_rule_C", float), ("cap", float), ("out", str), ("measure_in", str)):
        if key in raw:
            with _located(key):
                setattr(cfg, key, conv(raw[key]))
    for where, count in (("N", cfg.N), ("k_max", cfg.k_max), ("n_max", cfg.n_max),
                         ("lambda.steps", cfg.lambda_grid[2]), ("t_grid.steps", cfg.t_grid[1])):
        if count < 1:
            raise ConfigError(f"{where} must be >= 1")
    if not (cfg.cap > 0 and cfg.n_rule_C > 0):  # NaN fails too
        raise ConfigError("tolerances and caps must be positive")
    for where, x in (("z", cfg.z), ("lambda.min", cfg.lambda_grid[0]),
                     ("lambda.max", cfg.lambda_grid[1]), ("t_grid.max", cfg.t_grid[0]),
                     ("n_rule_C", cfg.n_rule_C), ("cap", cfg.cap)):
        if not np.isfinite(x):
            raise ConfigError(f"{where} must be finite, got {x!r}")
    # cost bounds on the walks, located here; the block store enforces the same
    # integer cap, and G_t's floor(t) + 1 blocks exceed it iff t >= cap
    if cfg.command in ("weyl-scan", "report"):
        with _located("eps_ladder"):
            default_n_rule(min(cfg.eps_ladder), cfg.n_rule_C)
    if cfg.command == "nonsub" and cfg.t_grid[1] > T_STEPS_CAP:
        raise ConfigError(f"t_grid: steps = {cfg.t_grid[1]} is above the cap of {T_STEPS_CAP} "
                          "nodes")
    if cfg.command == "nonsub" and not np.all(np.diff(cfg.ts(), prepend=0.0) > 0):
        raise ConfigError(f"t_grid: max = {cfg.t_grid[0]!r}, steps = {cfg.t_grid[1]} do not give "
                          "positive, strictly increasing nodes")
    if cfg.command == "nonsub" and cfg.t_grid[0] >= HORIZON_CAP:
        raise ConfigError(f"t_grid: max = {cfg.t_grid[0]!r} is above the cap of "
                          f"{HORIZON_CAP} blocks (G_t needs floor(t) + 1)")
    for command, key in (("transfer-check", "k_max"), ("polys", "n_max"), ("weyl", "N"),
                         ("validate", "N")):  # as many blocks
        if cfg.command == command and getattr(cfg, key) > HORIZON_CAP:
            raise ConfigError(f"{key}: {getattr(cfg, key)} is above the cap of "
                              f"{HORIZON_CAP} blocks")
    d = cfg.params().d  # semantic gate: family blocks must satisfy the invariants
    if cfg.command == "measure" or (cfg.command == "cauchy-check" and cfg.measure_in is None):
        with _located("N"):  # N is the largest section either command builds
            _check_section(cfg.N, d)
    return cfg


# ---------------------------------------------------------------------------
# Row rendering
# ---------------------------------------------------------------------------

def _num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


@functools.cache  # built once per (tag, d), not once per row
def _mat_cols(tag: str, d: int) -> tuple[str, ...]:
    return tuple(f"{part}_{tag}_{i}_{j}" for i in range(d) for j in range(d)
                 for part in ("re", "im"))


def _mat_vals(row: dict, tag: str, m) -> None:
    parts = (_num(v) for x in np.ravel(m) for v in (x.real, x.imag))
    row.update(zip(_mat_cols(tag, m.shape[0]), parts))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_validate(cfg: RunConfig):
    result = validate_params(cfg.params(), cfg.N - 1)
    fields = ["n", "kind", "value"]
    if result["ok"]:
        return fields, [{"kind": "ok"}]
    return fields, [{"n": str(v["n"]), "kind": v["kind"], "value": _num(v["value"])}
                    for v in result["violations"]]


def _cmd_polys(cfg: RunConfig):
    p = cfg.params()
    pq = compute_PQ(p, cfg.z, cfg.n_max)
    fields = ["n", *_mat_cols("P", p.d), *_mat_cols("Q", p.d)]
    rows = []
    for n in range(-1, cfg.n_max + 1):
        row = {"n": str(n)}
        _mat_vals(row, "P", pq.P.term(n))
        _mat_vals(row, "Q", pq.Q.term(n))
        rows.append(row)
    return fields, rows


def _cmd_transfer_check(cfg: RunConfig):
    """Rows off one chain of R_k and one P/Q walk at (z, conj z), a step of each per row."""
    p = cfg.params()
    fields = ["k", "omega_residual", "rinv_residual", "tinv_residual",
              "lo_r1", "lo_r2", "error"]
    rows = []
    eye, zz = np.eye(2 * p.d), np.array([cfg.z, np.conj(cfg.z)])
    # R_k, P/Q at k - 1 and k, and each P/Q series' first non-finite index, after row k
    r, pq, bad = None, _pq_start(p.d, (2,)), np.full((2, 2), np.inf)
    for k in range(1, cfg.k_max + 1):
        row = {"k": str(k)}
        with _row_errors(row):
            # a step raises only for the blocks up to k - 1, and then in every later row too
            with np.errstate(over="ignore", invalid="ignore"):  # checked by each formula
                t, pq = _step(p, zz, k - 1), _steps(p, zz, *pq, k - 1, k)[1:]
                r = t if r is None else t @ r
            bad = np.minimum(bad, _first_bad(pq[1:], k, 2))
            row["omega_residual"] = _num(_omega_residual(p, *r, k))
            nstep = _nstep(p, *r, k)
            with np.errstate(over="ignore", invalid="ignore"):  # an infinite scale is max(1, inf)
                scale = max(1.0, np.linalg.norm(nstep["R"], 2)
                            * np.linalg.norm(nstep["R_inv"], 2))
                rr = _finite(nstep["R"] @ nstep["R_inv"], f"R_k R_k^-1 at k={k}")
            row["rinv_residual"] = _num(np.linalg.norm(rr - eye, 2) / scale)
            step = transfer_step(p, cfg.z, k - 1)
            with np.errstate(over="ignore", invalid="ignore"):
                tt = _finite(step["T"] @ step["T_inv"], f"T_k-1 T_k-1^-1 at k={k}")
            row["tinv_residual"] = _num(np.linalg.norm(tt - eye, 2))
            _check_bad(bad.T)  # as lo_residual's walk to k names an overflow
            lo = _lo_defects(p, k, pq[1], pq[0])
            row["lo_r1"] = _num(lo["r1"])
            row["lo_r2"] = _num(lo["r2"])
        rows.append(row)
    return fields, rows


def _cmd_weyl(cfg: RunConfig):
    p = cfg.params()
    fields = ["re_z", "im_z", "N", "route_diff", "herglotz_min_eig", *_mat_cols("W", p.d),
              "error"]
    row = {"re_z": _num(cfg.z.real), "im_z": _num(cfg.z.imag), "N": str(cfg.N)}
    with _row_errors(row):
        schur = weyl_schur(p, cfg.z, cfg.N)
        resolvent = weyl_resolvent(p, cfg.z, cfg.N)
        row["route_diff"] = _num(np.linalg.norm(schur.W - resolvent.W, 2))
        row["herglotz_min_eig"] = _num(schur.diagnostics["herglotz_min_eig"])
        _mat_vals(row, "W", schur.W)
    return fields, [row]


def _scan(cfg: RunConfig, p: JacobiParams):
    return boundary_scan(p, cfg.lambdas(), np.array(cfg.eps_ladder),
                         n_rule=functools.partial(default_n_rule, C=cfg.n_rule_C))


def _cmd_weyl_scan(cfg: RunConfig):
    p = cfg.params()
    scan = _scan(cfg, p)
    fields = ["lambda", "eps", "tr_im", *_mat_cols("W", p.d), "label", "rank", "error"]
    rows = []
    for r in scan.rows:
        row = {"lambda": _num(r["lambda"]), "eps": _num(r["eps"]), "error": r["error"]}
        if not math.isnan(r["tr_im"]):
            row["tr_im"] = _num(r["tr_im"])
        if r["W"] is not None:
            _mat_vals(row, "W", r["W"])
        rows.append(row)
    for lam, cls in zip(scan.lambda_grid, scan.classification):
        rows.append({"lambda": _num(lam), "label": cls["label"], "rank": _num(cls["rank"]),
                     "error": cls.get("error", "")})
    return fields, rows


def _cmd_measure(cfg: RunConfig):
    p = cfg.params()
    m = quadrature_measure(p, cfg.N)
    fields = ["lambda", *_mat_cols("w", p.d)]
    rows = []
    for lam, w in m.atoms:
        row = {"lambda": _num(lam)}
        _mat_vals(row, "w", w)
        rows.append(row)
    return fields, rows


def _read_measure_csv(path: str, d: int) -> DiscreteMatrixMeasure:
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != SCHEMA_LINE:
            raise ConfigError(f"{path}: missing schema header")
        reader = csv.DictReader(fh)
        pairs = []
        cols = _mat_cols("w", d)
        for rec in reader:
            w = np.array([complex(float(rec[re]), float(rec[im]))
                          for re, im in zip(cols[::2], cols[1::2])]).reshape(d, d)
            pairs.append((float(rec["lambda"]), w))
    return DiscreteMatrixMeasure.from_pairs(pairs, d)


def _cmd_cauchy_check(cfg: RunConfig):
    p = cfg.params()
    fields = ["N", "re_z", "im_z", "gap", "error"]
    rows = []
    sizes = sorted({max(1, cfg.N // 4), max(1, cfg.N // 2), cfg.N})
    given = None
    if cfg.measure_in is not None:
        with _located("measure_in"):
            given = _read_measure_csv(cfg.measure_in, p.d)
        sizes = [cfg.N]
    for n in sizes:
        row = {"N": str(n), "re_z": _num(cfg.z.real), "im_z": _num(cfg.z.imag)}
        with _row_errors(row):
            m = given if given is not None else quadrature_measure(p, n)
            gap = np.linalg.norm(
                cauchy_transform(m, cfg.z) - weyl_resolvent(p, cfg.z, n).W, 2)
            row["gap"] = _num(gap)
        rows.append(row)
    return fields, rows


def _cmd_jl(cfg: RunConfig):
    p = cfg.params()
    lams = cfg.lambdas()
    fields = ["lambda", "eps", "ell", "residual", "error"]
    rows = []
    samples = jl_function(p, lams, np.array(cfg.eps_ladder), SeminormKind(cfg.seminorm))
    for lam, row_samples in zip(lams, samples):
        for eps, s in zip(cfg.eps_ladder, row_samples):
            row = {"lambda": _num(lam), "eps": _num(eps)}
            with _row_errors(row):
                s = _value(s)
                row["ell"] = _num(s.ell)
                row["residual"] = _num(s.residual)
            rows.append(row)
    return fields, rows


def _cmd_nonsub(cfg: RunConfig):
    p = cfg.params()
    lams = cfg.lambdas()
    fields = ["lambda", "t", "cond", "verdict", "growth_rate_per_step", "error"]
    rows = []
    for lam, diag in zip(lams, nonsub_diagnostic(p, lams, cfg.ts(), cap=cfg.cap)):
        row = {"lambda": _num(lam)}
        with _row_errors(row):
            diag = _value(diag)
            rows += [{"lambda": _num(lam), "t": _num(t), "cond": _num(cond)}
                     for t, cond in diag["cond_trajectory"]]
            row["verdict"] = diag["verdict"]
            if not math.isnan(diag["growth_rate_per_step"]):
                row["growth_rate_per_step"] = _num(diag["growth_rate_per_step"])
        rows.append(row)
    return fields, rows


def _cmd_report(cfg: RunConfig):
    scan = _scan(cfg, cfg.params())
    lams = scan.lambda_grid
    fields = ["kind", "lambda", "lambda_lo", "lambda_hi", "label", "rank", "note"]
    rows = []
    for lam, cls in zip(lams, scan.classification):
        rows.append({"kind": "point", "lambda": _num(lam), "label": cls["label"],
                     "rank": _num(cls["rank"]), "note": cls.get("error", "")})
    # maximal grid runs where every point is ac or outside: a heuristic
    # stand-in for intervals free of singular candidates, not a proof
    i = 0
    labels = [c["label"] for c in scan.classification]
    while i < len(lams):
        if labels[i] in ("ac", "outside"):
            j = i
            while j + 1 < len(lams) and labels[j + 1] in ("ac", "outside"):
                j += 1
            rows.append({"kind": "interval", "lambda_lo": _num(lams[i]),
                         "lambda_hi": _num(lams[j]), "label": "ac_or_outside",
                         "note": "heuristic"})
            i = j + 1
        else:
            i += 1
    return fields, rows


_DISPATCH = {
    "validate": _cmd_validate,
    "polys": _cmd_polys,
    "transfer-check": _cmd_transfer_check,
    "weyl": _cmd_weyl,
    "weyl-scan": _cmd_weyl_scan,
    "measure": _cmd_measure,
    "cauchy-check": _cmd_cauchy_check,
    "jl": _cmd_jl,
    "nonsub": _cmd_nonsub,
    "report": _cmd_report,
}
COMMANDS = tuple(_DISPATCH)


def _write(fields, rows, fmt: str, out):
    rows = [dict.fromkeys(fields, "") | row for row in rows]  # absent cells are blank
    if fmt == "csv":
        out.write(SCHEMA_LINE + "\n")
        writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        json.dump({"schema": SCHEMA_LINE.lstrip("# "), "rows": rows},
                  out, indent=1, sort_keys=True)
        out.write("\n")


def run(cfg: RunConfig) -> int:
    try:
        fields, rows = _DISPATCH[cfg.command](cfg)
    except ConfigError:
        raise
    except ROW_ERRORS as exc:  # raised outside any row: the family cannot be run
        raise ConfigError(f"family: {exc}") from exc
    if rows and all(r.get("error") for r in rows):
        status = 2
    else:
        status = 0
    if cfg.out is None:
        _write(fields, rows, cfg.fmt, sys.stdout)
    else:
        with open(cfg.out, "w", newline="") as fh:
            _write(fields, rows, cfg.fmt, fh)
    return status


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bjweyl",
                                 description="block tridiagonal spectral toolkit")
    ap.add_argument("--config", help="JSON config path")
    ap.add_argument("--command", choices=COMMANDS)
    ap.add_argument("--out")
    ap.add_argument("--format", choices=("csv", "json"))
    ap.add_argument("--N", type=int)
    ap.add_argument("--lambda-min", type=float)
    ap.add_argument("--lambda-max", type=float)
    ap.add_argument("--lambda-steps", type=int)
    ap.add_argument("--eps-ladder", type=lambda s: s.split(","),
                    help="comma-separated decreasing positives")
    ap.add_argument("--seminorm", choices=("norm", "minmod"))
    ap.add_argument("--cap", type=float)
    return ap


def _flags_as_config(ns: argparse.Namespace, raw: dict) -> dict:
    """The given flags as config entries to merge over ``raw``; a lambda flag
    completes the config's lambda section, or the default grid."""
    flags = {key: v for key, v in vars(ns).items() if key in _TOP_KEYS and v is not None}
    if ns.seminorm is not None:
        flags["seminorm"] = "matrix_" + ns.seminorm
    lam = {key: v for key, v in zip(_LAMBDA_KEYS, (ns.lambda_min, ns.lambda_max, ns.lambda_steps))
           if v is not None}
    sec = raw.get("lambda", {})
    if lam and isinstance(sec, dict):
        flags["lambda"] = {**dict(zip(_LAMBDA_KEYS, RunConfig().lambda_grid)), **sec, **lam}
    return flags


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        raw = {}
        if ns.config is not None:
            with open(ns.config) as fh:
                raw = _decode(fh.read())
        return run(parse_config({**raw, **_flags_as_config(ns, raw)}))
    except (ConfigError, OSError) as exc:  # OSError: the config's files and paths
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
