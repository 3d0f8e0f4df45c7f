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
from .solutions import _pq_start, _steps
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


def _pq_sq_nodes(p: JacobiParams, lams: np.ndarray, horizon: int, kind: SeminormKind,
                 targets: list) -> list:
    """Where the P/Q node product first reaches each target T, in one walk for all lams.

    The walk takes HORIZON_START steps, then doubles (by at most WALK_SLAB steps at a time),
    each extension continuing from the last two terms: one extension and its cumulative squared
    term functionals (pn, qn) are held at a time, and only those two terms while the next is
    built.  Per lam, one entry per T: the crossing segment (m, pn[m-1], pn[m], qn[m-1], qn[m]),
    m the first node with sqrt(pn[m]) * sqrt(qn[m]) >= T, or what ended that lam's walk before
    it: a ValueError naming its first term that is not finite, HorizonExhausted at horizon, or
    the exception of the extension it could not take.  A lam leaves the walk once every T is
    reached.
    """
    _check_kind(kind, vectors=False)
    out = [[None] * len(targets) for _ in lams]  # per lam and T: a segment or an exception
    live, last = np.arange(len(lams)), np.zeros((2, len(lams)))  # the last node reached
    walk = _pq_start(p.d, (len(lams),))  # (P, Q) at n = -1, 0: a one-node walk
    first, end = -1, 0  # the last end - first terms of walk, at first + 1..end, are new
    while True:
        chunk = walk[first - end:]  # the terms not summed yet, (step, P/Q, lam, d, d)
        ok = np.isfinite(chunk).all(axis=(1, 3, 4))  # (step, lam)
        n_ok = np.where(ok.all(axis=0), len(ok), ok.argmin(axis=0))
        np.copyto(chunk, 0.0, where=(np.arange(len(ok))[:, None] >= n_ok)[:, None, :, None, None])
        sq = squared_terms(chunk, kind)  # (step, P/Q, lam): 0 from a bad term on; that lam leaves
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite node is past any target
            cum = np.cumsum(np.concatenate([last[None], sq]), axis=0)  # nodes first..end
            prod = np.sqrt(cum[:, 0]) * np.sqrt(cum[:, 1])
        for j, i in enumerate(live):
            for k, target in enumerate(targets):
                if out[i][k] is not None:
                    continue
                r = int(np.searchsorted(prod[:n_ok[j] + 1, j], target))  # node first is below T
                if r <= n_ok[j]:
                    out[i][k] = (first + r, *map(float, cum[r - 1:r + 1, :, j].T.ravel()))
                elif n_ok[j] < len(ok):
                    out[i][k] = ValueError(
                        f"recurrence overflows: term at n={first + 1 + n_ok[j]} is not finite")
                elif end >= horizon:
                    out[i][k] = HorizonExhausted(
                        f"seminorm product below {target:.6g} up to t = {horizon}")
        keep = np.array([None in out[i] for i in live], dtype=bool)
        if not keep.any():
            return out
        live, last, ends = live[keep], cum[-1][:, keep], walk[-2:][:, :, keep]
        del walk, chunk, sq, cum, prod  # the next extension is built holding only ends
        first, end = end, min(max(2 * end, HORIZON_START), end + WALK_SLAB, horizon)
        try:
            walk = _steps(p, lams[live], *ends, first, end)
        except NUMERICAL_ERRORS as exc:
            for i in live:
                out[i] = [exc if s is None else s for s in out[i]]
            return out


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


def _jl_sample(lam, eps, target: float, segment) -> JLSample:
    """The closed-form ell for one eps on its crossing segment from ``_pq_sq_nodes``."""
    m, pa, pb, qa, qb = _value(segment)
    # (p0 + s dp)(q0 + s dq) = 1 on the nodes over T: a s^2 + b s - c = 0, c > 0
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
    each lam's node product reaches every target T, up to HORIZON_CAP, where
    HorizonExhausted is raised instead of a guess; a term that overflows before
    T is reached raises a ValueError naming it.  On the segment [m-1, m] ending
    at the first node that reaches T both squared seminorms are affine, so ell
    is the root of a quadratic in closed form and depends only on the nodes up
    to m.  The residual is a rounding-level check.

    An array lam or eps gives a nested list, one row per lam with one entry
    per eps: the JLSample, or the exception that pair alone raises.  A pair is
    resolved in the extension where its product first reaches T, so a walk
    that later raises (a rule that rejects a block, say) fails only the pairs
    still open, each with the exception the pair walked alone would meet.
    """
    lams, epss = np.reshape(lam, -1), np.reshape(eps, -1)
    if not np.all((epss > 0) & (epss < math.inf)):  # NaN fails too
        raise ValueError("eps must be positive and finite")
    targets = [1.0 / (2.0 * float(e)) for e in epss]
    segments = _pq_sq_nodes(p, lams, HORIZON_CAP, variant, targets)
    grid = [[_outcome(_jl_sample, x, e, t, s) for e, t, s in zip(epss, targets, row)]
            for x, row in zip(lams, segments)]
    return _value(grid[0][0]) if np.ndim(lam) == 0 and np.ndim(eps) == 0 else grid


def _sel_chain(p: JacobiParams, z, n: int):
    """Yield the lower d-block rows of R_0 = I, R_1, ..., R_n; z.shape + (d, 2d) for an array z."""
    d = p.d
    sel = np.hstack([np.zeros((d, d)), np.eye(d)]).astype(complex)
    yield np.broadcast_to(sel, np.shape(z) + sel.shape)
    yield from (r[..., d:, :] for r in _chain(p, z, n))


def gram_nodes(p: JacobiParams, z, ts) -> dict:
    """G_t for each requested t >= 0; c* G_t c = ||u(c)||^2 over [0, t].

    One pass along the transfer chain holds the running sum of (Sel R_k)*(Sel R_k) and the
    last term: G_k is the sum to k; t in (k - 1, k) adds (t - k + 1) term_k to the sum to k - 1.
    A scalar z raises an ArithmeticError at the first G_t that is not finite.  An array z is
    one transfer chain for all its values: each G_t is a z.shape + (2d, 2d) stack, each entry
    bit-identical to the call at that z alone, and unchecked, so that one z's overflow leaves
    the others for the caller to check.
    """
    ts = [float(t) for t in ts]
    if any(t < 0 for t in ts):
        raise ValueError("t values must be >= 0")
    top = max(math.floor(t) + 1 for t in ts) if ts else 0
    out, at, s = dict.fromkeys(ts), {}, None  # at: the t read at node ceil(t)
    for t in out:
        at.setdefault(math.ceil(t), []).append(t)
    with np.errstate(over="ignore", invalid="ignore"):  # each G_t is checked, below
        for k, c in enumerate(_sel_chain(p, z, top)):
            term = np.swapaxes(c.conj(), -1, -2) @ c
            prev, s = s, term if s is None else s + term  # the additions of np.cumsum
            for t in at.get(k, ()):
                out[t] = s if t == k else prev + (t - (k - 1)) * term
    return out if np.ndim(z) else {t: _finite(g, f"G_t at t={t:.17g}") for t, g in out.items()}


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
    chain = list(_sel_chain(p, z, t2))  # each product is read twice
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
    try:
        trajs = solution_gram(p, np.reshape(lam, -1), t_grid)
    except NUMERICAL_ERRORS as exc:
        trajs = [exc] * np.size(lam)
    out = [t if isinstance(t, Exception) else _verdict(t, cap) for t in trajs]
    return _value(out[0]) if np.ndim(lam) == 0 else out


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
