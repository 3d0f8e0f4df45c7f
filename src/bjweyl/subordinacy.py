"""Interpolated-length diagnostics on the real axis: the length function
pairing the P/Q seminorm product with 1/(2 eps), solution-space Gram
matrices, and the nonsubordinacy verdict with its spectral-consequence
report.

The Gram matrix G_t is built from the transfer chain: with c = (u_{-1}, u_0)
the quadratic form c* G_t c equals the squared interpolated seminorm of the
extended solution with that initial data over [0, t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockcore import HORIZON_CAP, JacobiParams, _finite
from .seminorms import SeminormKind, seminorm_nodes
from .solutions import compute_PQ
from .transfer import _chain

__all__ = [
    "JLSample",
    "GramTrajectory",
    "HorizonExhausted",
    "jl_function",
    "gram_nodes",
    "gev_l2_dimension",
    "solution_gram",
    "nonsub_diagnostic",
    "spectral_consequence_report",
]

HORIZON_START = 64
DEFAULT_COND_CAP = 1e3


class HorizonExhausted(RuntimeError):
    """The seminorm product stayed below its target up to the horizon cap."""


@dataclass(frozen=True)
class JLSample:
    lam: float
    eps: float
    ell: float
    residual: float  # relative defect of the defining equation


@dataclass(frozen=True)
class GramTrajectory:
    lam: float
    nodes: tuple  # (t, G_t, cond)


def _pq_sq_nodes(p: JacobiParams, lam: float, horizon: int, kind: SeminormKind):
    """Cumulative squared term functionals of P and Q over indices 0..horizon."""
    pq = compute_PQ(p, lam, horizon)
    return seminorm_nodes(pq.P, kind, 0, horizon), seminorm_nodes(pq.Q, kind, 0, horizon)


def jl_function(p: JacobiParams, lam: float, eps: float,
                variant: SeminormKind = SeminormKind.matrix_norm) -> JLSample:
    """The unique length ell with ||P||_[0,ell] * ||Q||_[0,ell] = 1/(2 eps).

    The recurrence horizon doubles (64 up to 2^20) until a node product
    reaches the target T; exhausting it raises instead of guessing.  On the
    segment [m-1, m] ending at the first such node both squared seminorms are
    affine, so ell is the root of a quadratic in closed form and depends only
    on the nodes up to m.  The residual is a rounding-level check.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    target = 1.0 / (2.0 * eps)
    horizon = HORIZON_START
    while True:
        pn, qn = _pq_sq_nodes(p, lam, horizon, variant)
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite node is past any target
            m = int(np.searchsorted(np.sqrt(pn) * np.sqrt(qn), target))  # m >= 1, as Q_0 = 0
        if m <= horizon:
            break
        if horizon >= HORIZON_CAP:
            raise HorizonExhausted(
                f"seminorm product below {target:.6g} up to t = {horizon}")
        horizon *= 2
    # (p0 + s dp)(q0 + s dq) = 1 on the nodes over T: a s^2 + b s - c = 0, c > 0
    pa, pb, qa, qb = (float(x) for x in (pn[m - 1], pn[m], qn[m - 1], qn[m]))
    p0, q0, dp, dq = pa / target, qa / target, (pb - pa) / target, (qb - qa) / target
    if not math.isfinite(p0 + dp + q0 + dq):
        raise ArithmeticError(f"overflow: a squared seminorm at t={m} is not finite")
    a, b, c = dp * dq, p0 * dq + q0 * dp, 1.0 - p0 * q0
    s = 2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))  # cancellation-free root
    residual = abs(math.sqrt((p0 + s * dp) * (q0 + s * dq)) - 1.0)
    return JLSample(float(lam), float(eps), m - 1 + s, residual)


def _sel_chain(p: JacobiParams, z: complex, n: int) -> list[np.ndarray]:
    """Lower d-block rows of R_0 = I, R_1, ..., R_n."""
    d = p.d
    sel = np.hstack([np.zeros((d, d)), np.eye(d)]).astype(complex)
    return [sel] + [r[d:].copy() for r in _chain(p, z, n)]


def gram_nodes(p: JacobiParams, z: complex, ts) -> dict:
    """G_t for each requested t >= 0; c* G_t c = ||u(c)||^2 over [0, t].

    Integer nodes accumulate (Sel R_k)*(Sel R_k); fractional parts add the
    next term with the interpolation weight.
    """
    ts = [float(t) for t in ts]
    if any(t < 0 for t in ts):
        raise ValueError("t values must be >= 0")
    top = max(math.floor(t) + 1 for t in ts) if ts else 0
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):  # each G_t is checked
        terms = np.array([c.conj().T @ c for c in _sel_chain(p, z, top)])
        cum = np.cumsum(terms, axis=0)
        for t in ts:
            n = math.floor(t)
            g = cum[n].copy()
            frac = t - n
            if frac > 0:
                g = g + frac * terms[n + 1]
            out[t] = _finite(g, f"G_t at t={t:.17g}")
    return out


def gev_l2_dimension(p: JacobiParams, z: complex, n_max: int = 32) -> dict:
    """Estimate the number of square-summable directions among the 2d
    solution-space directions, via seminorm growth between two horizons.

    A direction counts as l2-like when its cumulative squared seminorm
    barely grows between n_max/2 and n_max (tail ratio <= 1.25).  Candidate
    directions are the Gram eigenvectors at the far horizon; their ratios
    are evaluated by applying the transfer chain directly, since the Gram
    quadratic form cancels catastrophically for decaying directions.  Off
    the real axis the estimate is at most d.  n_max much beyond ~30 is
    counterproductive: rounding contaminates decaying directions at rate
    eps * growth^2.
    """
    t1 = max(2, n_max // 2)
    t2 = n_max
    chain = _sel_chain(p, z, t2)
    g2 = sum(c.conj().T @ c for c in chain)
    _, evecs = np.linalg.eigh(g2)
    ratios = []
    for j in range(evecs.shape[1]):
        c = evecs[:, j]
        sq = [float(np.vdot(m @ c, m @ c).real) for m in chain]
        den = float(np.sum(sq[: t1 + 1]))
        num = float(np.sum(sq))
        ratios.append(num / den if den > 0 else math.inf)
    ratios = sorted(ratios)
    dim = sum(1 for r in ratios if r <= 1.25)
    exponents = [math.log(max(r, 1.0)) / (2.0 * (t2 - t1)) for r in ratios]
    return {"dim_estimate": int(dim), "growth_exponents": exponents,
            "horizons": (t1, t2)}


COND_SATURATION = 1e16


def _cond(g: np.ndarray) -> float:
    """Condition number of the PSD Gram, clamped at the double-precision
    resolution limit: once the spread passes ~1e16 the small eigenvalue is
    pure rounding, so the value saturates instead of fluctuating."""
    ev = np.linalg.eigvalsh(g / 2 + g.conj().T / 2)  # halved first: no overflow
    if ev[-1] <= 0:
        return math.inf
    floor = ev[-1] / COND_SATURATION
    return float(ev[-1] / max(ev[0], floor))


def solution_gram(p: JacobiParams, lam: float, t_nodes) -> GramTrajectory:
    """Gram trajectory at real spectral parameter lam over increasing t nodes."""
    t_nodes = [float(t) for t in t_nodes]
    if any(b <= a for a, b in zip(t_nodes, t_nodes[1:])):
        raise ValueError("t_nodes must be strictly increasing")
    grams = gram_nodes(p, lam, t_nodes)
    nodes = tuple((t, grams[t], _cond(grams[t])) for t in t_nodes)
    return GramTrajectory(float(lam), nodes)


def nonsub_diagnostic(p: JacobiParams, lam: float, t_grid,
                      cap: float = DEFAULT_COND_CAP) -> dict:
    """Condition-number trajectory of G_t with a three-way verdict.

    All unit-initial-data solution seminorm ratios are controlled by
    sqrt(cond G_t), so a trajectory capped over the final decade of the grid
    is evidence that no solution is asymptotically negligible against
    another; sustained monotone growth past the cap is evidence of a
    growing/decaying dichotomy.
    """
    traj = solution_gram(p, lam, t_grid)
    ts = [n[0] for n in traj.nodes]
    conds = [n[2] for n in traj.nodes]
    t_max = ts[-1]
    decade = [i for i, t in enumerate(ts) if t >= t_max / 10.0]
    tail = [conds[i] for i in decade]
    if all(c <= cap for c in tail):
        verdict = "nonsubordinate_evidence"
    elif (tail[-1] > cap
          and all(b >= 0.95 * a for a, b in zip(tail, tail[1:]))):
        # growth must be sustained; the 5% slack absorbs eigenvalue jitter
        # once the trajectory saturates the double-precision clamp
        verdict = "subordinate_evidence"
    else:
        verdict = "inconclusive"
    if len(decade) >= 2 and all(math.isfinite(c) and c > 0 for c in tail):
        dt = ts[decade[-1]] - ts[decade[0]]
        growth = (math.log(tail[-1]) - math.log(tail[0])) / (2.0 * dt) if dt > 0 else 0.0
    else:
        growth = math.nan
    return {
        "lam": float(lam),
        "cond_trajectory": list(zip(ts, conds)),
        "verdict": verdict,
        "cap": float(cap),
        "growth_rate_per_step": growth,
    }


def spectral_consequence_report(p: JacobiParams, lam: float, diagnostic: dict) -> dict:
    """Numerical-evidence report gated on the verdict and the bounded flag.

    Only bounded families are treated as self-adjoint here; for those, a
    capped trajectory supports "no square-summable solution at lam, lam in
    the spectrum but not an eigenvalue", cross-checked against the l2
    dimension estimate at lam.
    """
    if diagnostic["verdict"] != "nonsubordinate_evidence":
        return {"claim": None, "reason": f"verdict {diagnostic['verdict']}"}
    if not p.bounded:
        return {"claim": None,
                "reason": "family not flagged bounded; self-adjointness undecided"}
    dim = gev_l2_dimension(p, complex(lam, 0.0))
    return {
        "claim": ("numerical evidence: no l2 generalized eigenvector at lam; "
                  "lam in spectrum, not an eigenvalue"),
        "lam": float(lam),
        "cond_cap": diagnostic["cap"],
        "horizon": diagnostic["cond_trajectory"][-1][0],
        "l2_dim_estimate": dim["dim_estimate"],
        "consistent": dim["dim_estimate"] == 0,
    }
