"""Seeded inputs, op sequences and output checks for the three workloads.

A workload is a fixed sequence of ops (one *cycle*) that the harness repeats
for the requested time.  Cycle ``i`` of seed ``s`` draws fresh families from
``numpy.random.default_rng([s, i])``, so a seed fixes every input, while
cost that depends on the coefficients (the ``jl`` horizon, for instance)
averages over many families within one run.

CLI ops are JSON configs handed to ``bjweyl.cli.main``; library ops are
callables.  Every op carries a check that turns a wrong answer into a list of
problems, which the harness counts as a failed op.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

SCHEMA_LINE = "# bjweyl-schema v1"
SCAN_LABELS = {"ac", "outside", "sing_candidate", "undecided"}
NONSUB_VERDICTS = {"nonsubordinate_evidence", "subordinate_evidence", "inconclusive"}

# Full sizes (the benchmark) and toy sizes (the self-test).  See README.md
# for why each workload has the shape it has.
SIZES = {
    "scan": {
        "full": {"lambda": (-2.5, 2.5, 21), "eps_ladder": [1.0, 0.3, 0.1, 0.03],
                 "dims": (1, 2, 3)},
        "toy": {"lambda": (-2.5, 2.5, 3), "eps_ladder": [0.3, 0.1], "dims": (1, 2)},
    },
    "realaxis": {
        "full": {"lambda": (-2.0, 2.0, 21), "eps_ladder": None, "t_grid": (100.0, 32),
                 "k_max": 10, "n_max": 200, "period": 3, "lib_n": 400, "lib_t": 299.5},
        "toy": {"lambda": (-2.0, 2.0, 3), "eps_ladder": [0.1, 0.03], "t_grid": (20.0, 4),
                "k_max": 3, "n_max": 10, "period": 3, "lib_n": 40, "lib_t": 20.5},
    },
    "section": {
        "full": {"d": 3, "blocks": 300, "N": 300, "z": (0.3, 0.2)},
        "toy": {"d": 2, "blocks": 12, "N": 12, "z": (0.3, 0.2)},
    },
}
WORKLOADS = tuple(SIZES)
SEMINORM_MAX_RATE = 0.25  # per-step growth allowed at the seminorm op's lambda


@dataclass
class Op:
    """One unit of work.  Exactly one of ``config`` (CLI) or ``call`` (library).

    ``check(rows, ctx)`` returns the problems found in the op's output rows;
    ``ctx`` carries results between the ops of one cycle.
    """

    name: str
    check: Callable[[list, dict], list]
    config: dict | None = None
    call: Callable[[], list] | None = None


def parse_csv(raw: bytes) -> tuple[list, list]:
    """Split a schema-v1 CSV into header and rows; raise ValueError if malformed."""
    text = raw.decode()
    first, _, body = text.partition("\n")
    if first != SCHEMA_LINE:
        raise ValueError(f"schema line missing (got {first[:40]!r})")
    reader = csv.DictReader(io.StringIO(body))
    rows = list(reader)
    return list(reader.fieldnames or []), rows


def num(x) -> str:
    """Render a library result like the CLI renders numbers."""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Family generators
# ---------------------------------------------------------------------------

def _unitary(rng, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def _bounded_pair(rng, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A with singular values in [0.5, 2] and Hermitian B of norm O(1), drawn as
    in the test suite's ``random_bounded_params``."""
    a = _unitary(rng, d) @ np.diag(rng.uniform(0.5, 2.0, d)) @ _unitary(rng, d).conj().T
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a, (h + h.conj().T) / 2


def _cjson(m: np.ndarray) -> list:
    """A complex matrix as nested lists of strings numpy parses back exactly."""
    return [[repr(complex(x)) for x in row] for row in m]


def _diagonal_family(rng, d: int) -> dict:
    comps = [{"a": float(rng.uniform(0.5, 1.5)), "b": float(rng.uniform(-1.0, 1.0))}
             for _ in range(d)]
    return {"name": "diagonal", "d": d, "components": comps}


def _periodic_family(rng, d: int, period: int) -> tuple[dict, list]:
    pairs = [_bounded_pair(rng, d) for _ in range(period)]
    return {"name": "periodic_modulated", "d": d, "growth": 0.0,
            "A_period": [_cjson(a) for a, _ in pairs],
            "B_period": [_cjson(b) for _, b in pairs]}, pairs


def _growth_rate(pairs: list, lam: float) -> float:
    """Per-step exponential growth rate of the solutions at real lam: the log of
    the largest eigenvalue modulus of the one-period transfer product."""
    d, k = pairs[0][0].shape[0], len(pairs)
    m = np.eye(2 * d, dtype=complex)
    for n in range(1, k + 1):
        a, b = pairs[n % k]
        a_prev = pairs[(n - 1) % k][0]
        t = np.zeros((2 * d, 2 * d), dtype=complex)
        t[:d, d:] = np.eye(d)
        t[d:, :d] = -np.linalg.solve(a, a_prev.conj().T)
        t[d:, d:] = np.linalg.solve(a, lam * np.eye(d) - b)
        m = t @ m
    return math.log(max(abs(np.linalg.eigvals(m)))) / k


def _slow_growth_lambda(rng, pairs: list, lo: float, hi: float, rate: float) -> float:
    """A grid point of [lo, hi] where solutions grow by at most ``rate`` per step
    (the least-growing one if none does)."""
    grid = np.linspace(lo, hi, 81)
    rates = np.array([_growth_rate(pairs, lam) for lam in grid])
    slow = grid[rates <= rate]
    return float(rng.choice(slow)) if len(slow) else float(grid[np.argmin(rates)])


def _explicit_family(rng, d: int, blocks: int) -> dict:
    pairs = [_bounded_pair(rng, d) for _ in range(blocks)]
    return {"name": "explicit", "d": d,
            "A": [_cjson(a) for a, _ in pairs], "B": [_cjson(b) for _, b in pairs]}


def family_params(family: dict):
    """Build the family exactly as the CLI does from its config section."""
    from bjweyl.cli import RunConfig

    return RunConfig(family=family).params()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _f(row: dict, col: str) -> float:
    return float(row[col])


def _mat(row: dict, tag: str, d: int) -> np.ndarray:
    """The d x d complex matrix stored in re_<tag>_i_j / im_<tag>_i_j columns."""
    return np.array([[complex(_f(row, f"re_{tag}_{a}_{b}"), _f(row, f"im_{tag}_{a}_{b}"))
                      for b in range(d)] for a in range(d)])


def _rows_exactly(rows: list, n: int) -> list:
    return [] if len(rows) == n else [f"expected {n} rows, got {len(rows)}"]


def _bounded(rows: list, cols, tol: float) -> list:
    problems = []
    for i, row in enumerate(rows):
        if row.get("error"):
            problems.append(f"row {i}: error {row['error']!r}")
            continue
        for col in cols:
            if not _f(row, col) <= tol:
                problems.append(f"row {i}: {col}={row[col]} above {tol:g}")
    return problems


def _interval_rows(lams: list, labels: list) -> list:
    """The report's interval rows, recomputed from the point labels."""
    out, i = [], 0
    while i < len(labels):
        if labels[i] in ("ac", "outside"):
            j = i
            while j + 1 < len(labels) and labels[j + 1] in ("ac", "outside"):
                j += 1
            out.append((lams[i], lams[j]))
            i = j + 1
        else:
            i += 1
    return out


def check_weyl_scan(n_lam: int, n_eps: int):
    def check(rows: list, ctx: dict) -> list:
        problems = _rows_exactly(rows, n_lam * n_eps + n_lam)
        if problems:
            return problems
        samples, points = rows[:n_lam * n_eps], rows[n_lam * n_eps:]
        for i, row in enumerate(samples):
            if row["error"] or row["eps"] == "" or row["label"] != "":
                problems.append(f"sample row {i} malformed or failed: {row['error']!r}")
        for row in points:
            if row["label"] not in SCAN_LABELS:
                problems.append(f"unknown label {row['label']!r} at lambda {row['lambda']}")
            if row["label"] == "ac" and not row["rank"].isdigit():
                problems.append(f"ac without rank at lambda {row['lambda']}")
        ctx["scan_points"] = [(r["lambda"], r["label"], r["rank"]) for r in points]
        return problems
    return check


def check_report(n_lam: int):
    def check(rows: list, ctx: dict) -> list:
        points = [r for r in rows if r["kind"] == "point"]
        intervals = [(r["lambda_lo"], r["lambda_hi"]) for r in rows
                     if r["kind"] == "interval"]
        if len(points) != n_lam:
            return [f"expected {n_lam} point rows, got {len(points)}"]
        got = [(r["lambda"], r["label"], r["rank"]) for r in points]
        problems = []
        if got != ctx.get("scan_points"):
            problems.append("report labels differ from the weyl-scan labels")
        lams = [r[0] for r in got]
        if intervals != _interval_rows(lams, [r[1] for r in got]):
            problems.append("interval rows do not match the point labels")
        if len(rows) != n_lam + len(intervals):
            problems.append("rows other than point/interval present")
        return problems
    return check


def check_jl(n_lam: int, n_eps: int):
    def check(rows: list, ctx: dict) -> list:
        problems = _rows_exactly(rows, n_lam * n_eps)
        if problems:
            return problems
        for k in range(n_lam):
            prev = -math.inf
            for row in rows[k * n_eps:(k + 1) * n_eps]:
                if row["error"]:
                    continue  # a located row error; counted as an error row
                if not _f(row, "residual") <= 1e-10:
                    problems.append(f"lambda {row['lambda']} eps {row['eps']}: "
                                    f"residual {row['residual']}")
                ell = _f(row, "ell")
                if not ell >= prev:
                    problems.append(f"lambda {row['lambda']}: ell decreases as eps falls")
                prev = ell
        return problems
    return check


def check_nonsub(n_lam: int, steps: int):
    def check(rows: list, ctx: dict) -> list:
        problems = _rows_exactly(rows, n_lam * (steps + 1))
        if problems:
            return problems
        for k in range(n_lam):
            block = rows[k * (steps + 1):(k + 1) * (steps + 1)]
            if any(r["error"] for r in block):
                problems.append(f"lambda {block[0]['lambda']}: {block[0]['error']!r}")
                continue
            if block[-1]["verdict"] not in NONSUB_VERDICTS:
                problems.append(f"lambda {block[-1]['lambda']}: verdict "
                                f"{block[-1]['verdict']!r}")
            if not all(_f(r, "cond") >= 1.0 for r in block[:-1]):
                problems.append(f"lambda {block[0]['lambda']}: Gram condition below 1")
        return problems
    return check


def check_transfer(k_max: int):
    def check(rows: list, ctx: dict) -> list:
        return _rows_exactly(rows, k_max) or _bounded(
            rows, ("omega_residual", "rinv_residual", "tinv_residual", "lo_r1", "lo_r2"),
            1e-8)
    return check


def check_polys(n_max: int, d: int):
    def check(rows: list, ctx: dict) -> list:
        problems = _rows_exactly(rows, n_max + 2)
        if problems:
            return problems
        eye = np.eye(d)
        want = {("P", 0): 0 * eye, ("P", 1): eye, ("Q", 0): eye, ("Q", 1): 0 * eye}
        for (tag, i), m in want.items():
            if not np.array_equal(_mat(rows[i], tag, d), m):
                problems.append(f"{tag}_{i - 1} initial data wrong")
        return problems
    return check


def check_measure(n_atoms: int, d: int):
    def check(rows: list, ctx: dict) -> list:
        problems = _rows_exactly(rows, n_atoms)
        if problems:
            return problems
        mass = sum(_mat(row, "w", d) for row in rows)
        gap = float(np.abs(mass - np.eye(d)).max())
        if not gap <= 1e-10:
            problems.append(f"total mass differs from I by {gap:.3g}")
        return problems
    return check


def check_cauchy(n_sections: int):
    def check(rows: list, ctx: dict) -> list:
        return _rows_exactly(rows, n_sections) or _bounded(rows, ("gap",), 1e-8)
    return check


def check_weyl(d: int):
    def check(rows: list, ctx: dict) -> list:
        problems = _rows_exactly(rows, 1)
        if problems:
            return problems
        row = rows[0]
        if row["error"]:
            return [f"weyl failed: {row['error']!r}"]
        w = _mat(row, "W", d)
        tol = 1e-10 * max(1.0, float(np.linalg.norm(w, 2)))
        if not _f(row, "route_diff") <= tol:
            problems.append(f"route_diff {row['route_diff']} above {tol:.3g}")
        if not _f(row, "herglotz_min_eig") > 0:
            problems.append(f"herglotz_min_eig {row['herglotz_min_eig']} not positive")
        return problems
    return check


def check_validate(rows: list, ctx: dict) -> list:
    if [r["kind"] for r in rows] != ["ok"]:
        return [f"validate reported {[r['kind'] for r in rows]}"]
    return []


def check_seminorm(n_kinds: int):
    def check(rows: list, ctx: dict) -> list:
        problems = _rows_exactly(rows, n_kinds)
        for row in rows:
            lo, val, hi = _f(row, "lower"), _f(row, "value"), _f(row, "upper")
            slack = 1e-12 * max(abs(lo), abs(hi))
            if not lo - slack <= val <= hi + slack:
                problems.append(f"{row['kind']}: quotient {val} outside [{lo}, {hi}]")
            if not 0 < _f(row, "seminorm_t") <= _f(row, "seminorm_tail"):
                problems.append(f"{row['kind']}: seminorm not monotone in t")
        return problems
    return check


def check_energy(rows: list, ctx: dict) -> list:
    problems = _rows_exactly(rows, 1)
    if problems:
        return problems
    row = rows[0]
    if not _f(row, "gap") <= 1e-8 * max(1.0, abs(_f(row, "lhs"))):
        problems.append(f"energy identity gap {row['gap']}")
    if row["trace_bound_ok"] != "True" or row["w_bound_ok"] != "True":
        problems.append("energy identity bounds violated")
    return problems


# ---------------------------------------------------------------------------
# Library ops
# ---------------------------------------------------------------------------

def seminorm_op(family: dict, lam: float, n: int, t: float) -> list:
    """seminorm and quotient_brackets of P against Q for every SeminormKind."""
    from bjweyl.seminorms import SeminormKind, quotient_brackets, seminorm
    from bjweyl.solutions import compute_PQ

    pq = compute_PQ(family_params(family), lam, n)
    rows = []
    for kind in SeminormKind:
        if kind is SeminormKind.vector_norm:
            x, y = pq.P.column(0), pq.Q.column(0)
        else:
            x, y = pq.P, pq.Q
        qb = quotient_brackets(x, y, kind, 0, t)
        rows.append({"kind": kind.value, "seminorm_t": num(seminorm(x, kind, 0, t)),
                     "seminorm_tail": num(seminorm(x, kind, 0, math.inf)),
                     "value": num(qb["value"]), "lower": num(qb["lower"]),
                     "upper": num(qb["upper"])})
    return rows


def energy_op(family: dict, z: complex, n: int) -> list:
    """energy_identity_gap on the section family with v = (1, ..., 1)."""
    from bjweyl.weyl import energy_identity_gap

    p = family_params(family)
    res = energy_identity_gap(p, z, n, np.ones(p.d))
    return [{k: num(res[k]) for k in ("lhs", "rhs", "gap", "trace_bound_ok", "w_bound_ok")}]


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def _lambda_cfg(spec) -> dict:
    lo, hi, steps = spec
    return {"min": lo, "max": hi, "steps": steps}


def _scan_cycle(rng, s: dict) -> list:
    n_lam, n_eps = s["lambda"][2], len(s["eps_ladder"])
    ops = []
    for d in s["dims"]:
        base = {"family": _diagonal_family(rng, d), "lambda": _lambda_cfg(s["lambda"]),
                "eps_ladder": s["eps_ladder"]}
        ops.append(Op(f"weyl-scan.d{d}", check_weyl_scan(n_lam, n_eps),
                      config={**base, "command": "weyl-scan"}))
        ops.append(Op(f"report.d{d}", check_report(n_lam),
                      config={**base, "command": "report"}))
    return ops


def _realaxis_cycle(rng, s: dict) -> list:
    from bjweyl.cli import RunConfig

    d = 2
    fam, pairs = _periodic_family(rng, d, s["period"])
    z = [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.1, 0.5))]
    # In deep spectral gaps |P_n| passes 1e154 before n = 400 and seminorm's
    # squared terms overflow (OverflowError); the op stays where they do not.
    lam = _slow_growth_lambda(rng, pairs, *s["lambda"][:2], SEMINORM_MAX_RATE)
    n_lam = s["lambda"][2]
    base = {"family": fam, "lambda": _lambda_cfg(s["lambda"])}
    ladder = s["eps_ladder"] or list(RunConfig().eps_ladder)
    jl = {**base, "command": "jl"}
    if s["eps_ladder"]:
        jl["eps_ladder"] = s["eps_ladder"]
    t_max, steps = s["t_grid"]
    return [
        Op("jl", check_jl(n_lam, len(ladder)), config=jl),
        Op("nonsub", check_nonsub(n_lam, steps),
           config={**base, "command": "nonsub", "t_grid": {"max": t_max, "steps": steps}}),
        Op("transfer-check", check_transfer(s["k_max"]),
           config={**base, "command": "transfer-check", "k_max": s["k_max"], "z": z}),
        Op("polys", check_polys(s["n_max"], d),
           config={**base, "command": "polys", "n_max": s["n_max"], "z": z}),
        Op("lib.seminorm", check_seminorm(3),
           call=lambda: seminorm_op(fam, lam, s["lib_n"], s["lib_t"])),
    ]


def _section_cycle(rng, s: dict) -> list:
    d, n = s["d"], s["N"]
    fam = _explicit_family(rng, d, s["blocks"])
    z = list(s["z"])
    base = {"family": fam, "N": n, "z": z}
    return [
        Op("measure", check_measure(n * d, d), config={**base, "command": "measure"}),
        Op("cauchy-check", check_cauchy(len({max(1, n // 4), max(1, n // 2), n})),
           config={**base, "command": "cauchy-check"}),
        Op("weyl", check_weyl(d), config={**base, "command": "weyl"}),
        Op("validate", check_validate, config={**base, "command": "validate"}),
        Op("lib.energy", check_energy, call=lambda: energy_op(fam, complex(*z), n)),
    ]


_CYCLES = {"scan": _scan_cycle, "realaxis": _realaxis_cycle, "section": _section_cycle}


def build_cycle(workload: str, seed: int, index: int, size: str = "full") -> list:
    """The ops of cycle ``index``; the same (workload, seed, index, size) gives
    the same ops and inputs."""
    rng = np.random.default_rng([seed, index])
    return _CYCLES[workload](rng, SIZES[workload][size])
