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

from .blockcore import HORIZON_CAP, NUMERICAL_ERRORS, JacobiParams, _finite
from .seminorms import SeminormKind, _check_kind, squared_terms
from .solutions import _steps
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
WALK_SLAB = 2 ** 12  # the longest extension of the P/Q walk: it bounds the terms held at once
DEFAULT_COND_CAP = 1e3


class HorizonExhausted(RuntimeError):
    """The seminorm product stayed below its target up to the horizon cap."""


ROW_ERRORS = (*NUMERICAL_ERRORS, HorizonExhausted)  # what a row records in place of a value


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


def _pq_sq_nodes(p: JacobiParams, lam, horizon: int, kind: SeminormKind,
                 target: float = math.inf):
    """Cumulative squared term functionals (pn, qn) of P and Q over indices 0..horizon.

    An array lam is one walk for all its values and gives a list, one pair per
    lam.  The walk takes HORIZON_START steps, then doubles (by at most
    WALK_SLAB steps at a time), each extension continuing from the last two
    terms; only the squared functionals are kept.  A lam leaves it after the
    extension whose last node product reaches target, or at its first term
    that is not finite: its pair then ends just before that index, len(pn).
    """
    _check_kind(kind, vectors=False)
    lams = np.reshape(lam, -1)
    live, last = np.arange(len(lams)), np.zeros((2, len(lams)))  # the nodes reached so far
    nodes = [[] for _ in lams]  # per lam: (2, m) chunks of nodes
    eye = np.eye(p.d, dtype=complex) * np.ones((len(lams), 1, 1))
    walk = np.array([[0 * eye, eye], [eye, 0 * eye]])  # (P, Q) at n = -1, 0: a one-node walk
    first, end = -1, 0  # the last end - first terms of walk, at first + 1..end, are new
    while True:
        chunk = walk[first - end:]  # the terms not summed yet, (step, P/Q, lam, d, d)
        ok = np.isfinite(chunk).all(axis=(1, 3, 4))  # (step, lam)
        n_ok = np.where(ok.all(axis=0), len(ok), ok.argmin(axis=0))
        usable = (np.arange(len(ok))[:, None] < n_ok)[:, None, :, None, None]  # before a bad term
        sq = squared_terms(np.where(usable, chunk, 0.0), kind)  # (step, P/Q, lam)
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite node is past any target
            cum = np.cumsum(np.concatenate([last[None], sq]), axis=0)[1:]  # as one cumsum from 0
            keep = ~(np.sqrt(cum[-1, 0]) * np.sqrt(cum[-1, 1]) >= target) & (n_ok == len(ok))
        for j, i in enumerate(live):  # a copy, so that no lam holds the others' chunks
            nodes[i].append(cum[:n_ok[j], :, j].T.copy())
        if end >= horizon or not keep.any():
            break
        live, last = live[keep], cum[-1][:, keep]
        first, end = end, min(max(2 * end, HORIZON_START), end + WALK_SLAB, horizon)
        walk = _steps(p, lams[live], walk[-2][:, keep], walk[-1][:, keep], first, end)
    pairs = []
    for chunks in nodes:  # each lam's chunks go as its pair is joined
        pairs.append(tuple(np.concatenate(chunks, axis=1)))
        chunks.clear()
    return pairs[0] if np.ndim(lam) == 0 else pairs


def _outcome(f, *args):
    """f(*args), or the exception it raises: one row's result."""
    try:
        return f(*args)
    except ROW_ERRORS as exc:
        return exc


def _value(outcome):
    """The value an ``_outcome`` holds, or its exception, raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _jl_sample(lam, eps, pn: np.ndarray, qn: np.ndarray, horizon: int) -> JLSample:
    """The closed-form ell for one eps from the nodes of one lam's walk."""
    target = 1.0 / (2.0 * float(eps))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite node is past any target
        m = int(np.searchsorted(np.sqrt(pn) * np.sqrt(qn), target))  # m >= 1, as Q_0 = 0
    if m == len(pn) > horizon:
        raise HorizonExhausted(f"seminorm product below {target:.6g} up to t = {horizon}")
    if m == len(pn):
        raise ValueError(f"recurrence overflows: term at n={m} is not finite")
    # (p0 + s dp)(q0 + s dq) = 1 on the nodes over T: a s^2 + b s - c = 0, c > 0
    pa, pb, qa, qb = (float(x) for x in (pn[m - 1], pn[m], qn[m - 1], qn[m]))
    p0, q0, dp, dq = pa / target, qa / target, (pb - pa) / target, (qb - qa) / target
    if not math.isfinite(p0 + dp + q0 + dq):
        raise ArithmeticError(f"overflow: a squared seminorm at t={m} is not finite")
    a, b, c = dp * dq, p0 * dq + q0 * dp, 1.0 - p0 * q0
    s = 2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))  # cancellation-free root
    residual = abs(math.sqrt((p0 + s * dp) * (q0 + s * dq)) - 1.0)
    return JLSample(float(lam), float(eps), m - 1 + s, residual)


def jl_function(p: JacobiParams, lam, eps,
                variant: SeminormKind = SeminormKind.matrix_norm):
    """The unique length ell with ||P||_[0,ell] * ||Q||_[0,ell] = 1/(2 eps).

    One P/Q walk (``_pq_sq_nodes``) serves every lam and eps: it goes on until
    each lam's node product reaches the target T of the smallest eps, up to
    HORIZON_CAP, where HorizonExhausted is raised instead of a guess; a term
    that overflows before T is reached raises a ValueError naming it.  On the
    segment [m-1, m] ending at the first node that reaches T both squared
    seminorms are affine, so ell is the root of a quadratic in closed form and
    depends only on the nodes up to m.  The residual is a rounding-level check.

    An array lam or eps gives a nested list, one row per lam with one entry
    per eps: the JLSample, or the exception that pair alone raises.  If the
    walk itself raises (a rule that rejects a block, say), each pair is
    redone alone, so every entry keeps its own message.
    """
    lams, epss = np.reshape(lam, -1), np.reshape(eps, -1)
    if np.any(epss <= 0):
        raise ValueError("eps must be positive")
    horizon = HORIZON_CAP

    def grid():
        walks = _pq_sq_nodes(p, lams, horizon, variant, 1.0 / (2.0 * float(np.min(epss))))
        return [[_outcome(_jl_sample, x, e, pn, qn, horizon) for e in epss]
                for x, (pn, qn) in zip(lams, walks)]

    if np.ndim(lam) == 0 and np.ndim(eps) == 0:
        return _value(grid()[0][0])
    try:
        return grid()
    except NUMERICAL_ERRORS:
        return [[_outcome(jl_function, p, x, e, variant) for e in epss] for x in lams]


def _sel_chain(p: JacobiParams, z, n: int) -> list[np.ndarray]:
    """Lower d-block rows of R_0 = I, R_1, ..., R_n; z.shape + (d, 2d) stacks for an array z."""
    d = p.d
    sel = np.hstack([np.zeros((d, d)), np.eye(d)]).astype(complex)
    return ([np.broadcast_to(sel, np.shape(z) + sel.shape)]
            + [r[..., d:, :].copy() for r in _chain(p, z, n)])


def gram_nodes(p: JacobiParams, z, ts) -> dict:
    """G_t for each requested t >= 0; c* G_t c = ||u(c)||^2 over [0, t].

    Integer nodes accumulate (Sel R_k)*(Sel R_k); fractional parts add the
    next term with the interpolation weight.  A scalar z raises an
    ArithmeticError at the first G_t that is not finite.  An array z is one
    transfer chain for all its values: each G_t is a z.shape + (2d, 2d) stack,
    each entry bit-identical to the call at that z alone, and unchecked, so
    that one z's overflow leaves the others for the caller to check.
    """
    ts = [float(t) for t in ts]
    if any(t < 0 for t in ts):
        raise ValueError("t values must be >= 0")
    top = max(math.floor(t) + 1 for t in ts) if ts else 0
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):  # each G_t is checked
        terms = np.array([np.swapaxes(c.conj(), -1, -2) @ c for c in _sel_chain(p, z, top)])
        cum = np.cumsum(terms, axis=0)
        for t in ts:
            n = math.floor(t)
            g = cum[n].copy()
            frac = t - n
            if frac > 0:
                g = g + frac * terms[n + 1]
            out[t] = g if np.ndim(z) else _finite(g, f"G_t at t={t:.17g}")
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


def _cond(g: np.ndarray):
    """Condition number of the PSD Gram, or of each in a stack, clamped at the
    double-precision resolution limit: once the spread passes ~1e16 the small
    eigenvalue is pure rounding, so the value saturates instead of fluctuating."""
    ev = np.linalg.eigvalsh(g / 2 + np.swapaxes(g.conj(), -1, -2) / 2)  # halved first: no overflow
    top = ev[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):  # top <= 0 is inf, below
        cond = top / np.maximum(ev[..., 0], top / COND_SATURATION)
    return np.where(top > 0, cond, math.inf)[()]


def solution_gram(p: JacobiParams, lam, t_nodes):
    """Gram trajectory at real spectral parameter lam over increasing t nodes.

    An array lam is one transfer chain for all its values and gives a list:
    each lam's GramTrajectory, or the ArithmeticError naming its first G_t
    that is not finite.
    """
    t_nodes = [float(t) for t in t_nodes]
    if any(b <= a for a, b in zip(t_nodes, t_nodes[1:])):
        raise ValueError("t_nodes must be strictly increasing")
    lams = np.reshape(lam, -1)
    grams = gram_nodes(p, lams, t_nodes)
    g = np.stack([grams[t] for t in t_nodes], axis=1)  # (lam, t, 2d, 2d)
    finite = np.isfinite(g).all(axis=(2, 3))
    ok = finite.all(axis=1)
    conds = np.zeros(finite.shape)
    conds[ok] = _cond(g[ok])
    trajs = [GramTrajectory(float(x), tuple((t, g[i, k], float(conds[i, k]))
                                            for k, t in enumerate(t_nodes))) if ok[i]
             else ArithmeticError(f"overflow: G_t at t={t_nodes[finite[i].argmin()]:.17g} "
                                  "is not finite")
             for i, x in enumerate(lams)]
    return _value(trajs[0]) if np.ndim(lam) == 0 else trajs


def _verdict(traj: GramTrajectory, cap: float) -> dict:
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
        "lam": traj.lam,
        "cond_trajectory": list(zip(ts, conds)),
        "verdict": verdict,
        "cap": float(cap),
        "growth_rate_per_step": growth,
    }


def nonsub_diagnostic(p: JacobiParams, lam, t_grid, cap: float = DEFAULT_COND_CAP):
    """Condition-number trajectory of G_t with a three-way verdict.

    All unit-initial-data solution seminorm ratios are controlled by
    sqrt(cond G_t), so a trajectory capped over the final decade of the grid
    is evidence that no solution is asymptotically negligible against
    another; sustained monotone growth past the cap is evidence of a
    growing/decaying dichotomy.

    An array lam is one transfer chain (``solution_gram``) for all its values
    and gives a list: each lam's dict, or the exception that lam alone raises.
    If the chain itself raises (for a block, not a lam), every lam gets its exception.
    """
    if np.ndim(lam) == 0:
        return _verdict(solution_gram(p, lam, t_grid), cap)
    try:
        trajs = solution_gram(p, lam, t_grid)
    except NUMERICAL_ERRORS as exc:
        trajs = [exc] * np.size(lam)
    return [t if isinstance(t, Exception) else _verdict(t, cap) for t in trajs]


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
