"""The matrix Weyl function by two routes, energy identities and boundary
scans.

Both routes evaluate the top-left d x d block of the resolvent of the
N-block finite section: ``weyl_resolvent`` through a banded LU solve of
(H - zI) X = E, ``weyl_schur`` through the backward block Schur-complement
recursion.  They agree to rounding at equal N, which the test suite enforces
as an exact algebraic identity.

``weyl_schur`` itself takes one of two routes per z.  The sweep runs the
recursion over all N blocks.  On a family with a period L (``p.period``), the
recursion over M = 4 L blocks is one linear-fractional map, and doubling
raises it to the power q = N // M in about 2 log2 q compositions (the
structure-preserving doubling algorithm).  Doubling is taken only where
N |Im z| >= 20 max ||A_n|| and N >= M, where it stays within 1e-12 relative
of the sweep (README, Numerical notes); everywhere else, and for every family
without a period, the sweep is the route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockcore import (HORIZON_CAP, NUMERICAL_ERRORS, BlockMatSeq, JacobiParams,
                        check_cap)
from .solutions import MgevSolution
from .subordinacy import gev_l2_dimension

__all__ = [
    "FiniteSection",
    "WeylSample",
    "BoundaryScan",
    "finite_section",
    "weyl_resolvent",
    "weyl_schur",
    "weyl_solution",
    "energy_identity_gap",
    "boundary_scan",
    "gev_l2_dimension",
    "default_n_rule",
]

DEFAULT_N_RULE_C = 50.0  # N(eps) = ceil(C/eps) blocks
RANK_REL = 1e-3  # _classify's rank: singular values of Im W above this share of the largest
DOUBLING_PERIODS = 4  # the doubled route's base map: the section of M = 4 periods
DOUBLING_GATE = 20.0  # doubled only where N |Im z| >= DOUBLING_GATE * max ||A_n||


@dataclass(frozen=True)
class FiniteSection:
    N: int
    H: np.ndarray  # Nd x Nd Hermitian


@dataclass(frozen=True)
class WeylSample:
    z: complex
    W: np.ndarray
    method: str
    N: int
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BoundaryScan:
    lambda_grid: np.ndarray
    eps_ladder: np.ndarray
    rows: list  # one dict per (lambda, eps)
    classification: list  # one dict per lambda: {"label", "rank", "density"}, and
    # "error" (the first failed rung's message, or "") when undecided for want of rungs


def _check_section(N: int, d: int) -> None:
    """ValueError unless N >= 1 and the N-block section has at most 2**12 rows:
    its storage grows as (N d)^2 and its eigensolve as (N d)^3."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N * d > 2 ** 12:
        raise ValueError(f"a section of {N * d} rows is above the cap of {2 ** 12} rows")


def finite_section(p: JacobiParams, N: int) -> FiniteSection:
    """Dense Hermitian truncation with diagonal blocks B_0..B_{N-1}."""
    _check_section(N, p.d)
    d, (a, b), n = p.d, p.stack(N), np.arange(N)
    h = np.zeros((N, d, N, d), dtype=complex)  # h[m, :, n, :] is block (m, n)
    h[n, :, n, :] = b
    h[n[:-1], :, n[1:], :] = a[:-1]
    h[n[1:], :, n[:-1], :] = a[:-1].conj().transpose(0, 2, 1)
    return FiniteSection(N, h.reshape(N * d, N * d))


def _banded_shifted(p: JacobiParams, z: complex, N: int) -> np.ndarray:
    """(H - zI) in scipy solve_banded storage; bandwidth 2d-1 on each side.

    Entry (r, c) of H - zI sits at ab[bw + r - c, c].
    """
    d, (a, b) = p.d, p.stack(N)
    bw = 2 * d - 1
    ab = np.zeros((2 * bw + 1, N * d), dtype=complex)
    i, j = np.indices((d, d))
    col = np.arange(N)[:, None, None] * d + j  # column of entry (i, j) in block column n
    ab[bw + i - j, col] = b - z * np.eye(d)
    ab[bw + i - j - d, col[1:]] = a[:-1]
    ab[bw + i - j + d, col[:-1]] = a[:-1].conj().transpose(0, 2, 1)
    return ab


def _herglotz_min_eig(z, w: np.ndarray):
    """Smallest eigenvalue of sign(Im z) * Im W, the Herglotz margin; per z for an array z."""
    ev = np.linalg.eigvalsh((w - np.swapaxes(w.conj(), -1, -2)) / 2j)
    margin = np.where(np.imag(z) >= 0, ev[..., 0], -ev[..., -1])
    return float(margin) if np.ndim(z) == 0 else margin


def weyl_resolvent(p: JacobiParams, z: complex, N: int) -> WeylSample:
    """W = top-left d x d block of (H - zI)^{-1} via a banded factorization.

    For real z the value is defined whenever z is away from the section
    spectrum; no invertibility of W is claimed there.
    """
    w = _resolvent_columns(p, z, N)[0]
    return WeylSample(z, w, "resolvent", N,
                      {"herglotz_min_eig": _herglotz_min_eig(z, w)})


def weyl_schur(p: JacobiParams, z, N: int) -> WeylSample:
    """W = G_0, the top-left block of the resolvent of the N-block section.

    Two routes, the same value to rounding (see README, Numerical notes):

    - the backward Schur sweep, G_{N-1} = (B_{N-1} - zI)^{-1},
      G_k = (B_k - zI - A_k G_{k+1} A_k*)^{-1}, over all N blocks;
    - doubling (``_doubled``), taken per z where the family has a period L,
      N >= M blocks (M = DOUBLING_PERIODS * L) and
      N |Im z| >= DOUBLING_GATE * max ||A_n||: O(M + log N) steps, and only
      M blocks are stored.

    Everywhere else, and for every family without a period, the sweep is the
    route.  An array z gives W as a z.shape + (d, d) stack, each entry
    bit-identical to the call at that z alone; each route makes one pass for
    all the z it takes.  N above HORIZON_CAP raises before any block is read.
    A singular pivot or doubling solve at any z raises, and so does a
    non-finite W at any z (ArithmeticError: the sweep overflowed, or z was not
    finite), with no numpy warning.
    """
    check_cap(N)
    zi, fast = np.multiply.outer(z, np.eye(p.d, dtype=complex)), _doubles(p, z, N)
    if not fast.any():
        g = _sweep(*p.stack(N), zi)
    else:
        g = np.empty_like(zi)
        g[fast] = _doubled(p, zi[fast], N)
        if not fast.all():
            g[~fast] = _sweep(*p.stack(N), zi[~fast])
    if not np.all(np.isfinite(g)):
        raise ArithmeticError("W is not finite: the Schur sweep overflowed")
    return WeylSample(z, g, "schur", N,
                      {"herglotz_min_eig": _herglotz_min_eig(z, g)})


def _sweep(a: np.ndarray, b: np.ndarray, zi: np.ndarray, ends: bool = False):
    """G_0 of the section with diagonal blocks b and couplings a (len(b) - 1 of
    them are read) by the backward Schur sweep, for the stack zi of zI.

    With ``ends``, also the corner blocks R_{0,n-1} and R_{n-1,0} of the
    section's resolvent R, as running products of the pivots G_k:
    R^(k)_{k,n-1} = -G_k A_k R^(k+1)_{k+1,n-1}, and alike on the other side.
    """
    k = len(b) - 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # W is checked once, by the caller
            g = np.linalg.inv(b[k] - zi)
            top = bottom = g
            for k in range(len(b) - 2, -1, -1):
                g = np.linalg.inv(b[k] - zi - a[k] @ g @ a[k].conj().T)
                if ends:
                    top, bottom = -g @ a[k] @ top, -bottom @ a[k].conj().T @ g
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular Schur pivot at block {k}: z too close to the section spectrum"
        ) from exc
    return (g, top, bottom) if ends else g


def _doubles(p: JacobiParams, z, N: int) -> np.ndarray:
    """Per z, whether ``weyl_schur`` doubles: the family has a period L, N is at
    least M = DOUBLING_PERIODS * L blocks (so the map is applied at least once),
    z is finite and N |Im z| >= DOUBLING_GATE * s with s = max ||A_n||, so the
    section is many decay lengths long and the doubled W stays within rounding
    of the sweep's (README, Numerical notes)."""
    L = p.period
    if L is None or N < DOUBLING_PERIODS * L:
        return np.zeros(np.shape(z), dtype=bool)
    s = np.linalg.norm(p.stack(L)[0], 2, axis=(1, 2)).max()
    with np.errstate(over="ignore", invalid="ignore"):
        return np.isfinite(z) & (N * np.abs(np.imag(z)) >= DOUBLING_GATE * s)


def _doubled(p: JacobiParams, zi: np.ndarray, N: int) -> np.ndarray:
    """W of the N-block section of a family of period L, for the stack zi of zI.

    M backward steps, M = DOUBLING_PERIODS * L, are one map
    Phi(G) = alpha + beta G (I - gamma G)^{-1} delta from G_M to G_0, with
    (alpha, beta, gamma, delta) = (R_00, R_{0,M-1} A, A* R_{M-1,M-1} A, A* R_{M-1,0})
    for R the resolvent of the M-block section and A = A_{M-1}.  The corners come
    from short sweeps: R_00 and the off-diagonal corners from one, R_{M-1,M-1}
    from the sweep of the reversed section.  With N = q M + r, W = Phi^q(G_r),
    G_r the sweep over the first r blocks (0 if r = 0); binary powering takes
    about 2 log2 q compositions.
    """
    M = DOUBLING_PERIODS * p.period
    q, r = divmod(N, M)
    a, b = p.stack(M)
    g, top, bottom = _sweep(a, b, zi, ends=True)
    last = _sweep(a[-2::-1].conj().transpose(0, 2, 1), b[::-1], zi)
    ah = a[-1].conj().T
    phi, size = (g, top @ a[-1], ah @ last @ a[-1], ah @ bottom), M
    w, done = (_sweep(a[:r], b[:r], zi) if r else np.zeros_like(zi),), r
    while True:
        if q & 1:
            done += size
            w = _compose(phi, w, done)
        q >>= 1
        if not q:
            return w[0]
        size *= 2
        phi = _compose(phi, phi, size)


def _compose(f: tuple, g: tuple, n: int) -> tuple:
    """f o g for maps G -> alpha + beta G (I - gamma G)^{-1} delta given as
    (alpha, beta, gamma, delta) stacks; a g of (alpha,) alone is the constant
    map alpha, and so is f o g then.  n is the number of blocks of the section
    f o g stands for, named if a solve is singular.

    With K = I - gamma_f alpha_g: alpha = alpha_f + beta_f alpha_g K^{-1} delta_f,
    beta = beta_f (I - alpha_g gamma_f)^{-1} beta_g,
    gamma = gamma_g + delta_g K^{-1} gamma_f beta_g, delta = delta_g K^{-1} delta_f.
    """
    a1, b1, c1, d1 = f
    a2, d = g[0], g[0].shape[-1]
    eye = np.eye(d)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # W is checked once, by weyl_schur
            if len(g) == 1:
                return (a1 + b1 @ a2 @ np.linalg.solve(eye - c1 @ a2, d1),)
            _, b2, c2, d2 = g
            x = np.linalg.solve(eye - c1 @ a2, np.concatenate([d1, c1 @ b2], axis=-1))
            return (a1 + b1 @ a2 @ x[..., :d], b1 @ np.linalg.solve(eye - a2 @ c1, b2),
                    c2 + d2 @ x[..., d:], d2 @ x[..., :d])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular doubling solve at {n} blocks: z too close to the section spectrum"
        ) from exc


def _resolvent_columns(p: JacobiParams, z: complex, N: int) -> np.ndarray:
    """First d columns of (H - zI)^{-1} as an (N, d, d) block stack."""
    import scipy.linalg  # its only user: the import costs more than most commands

    d = p.d
    ab = _banded_shifted(p, z, N)
    rhs = np.zeros((N * d, d), dtype=complex)
    rhs[:d] = np.eye(d)
    bw = 2 * d - 1
    x = scipy.linalg.solve_banded((bw, bw), ab, rhs)
    return x.reshape(N, d, d)


def weyl_solution(p: JacobiParams, z: complex, w: np.ndarray, n_max: int) -> MgevSolution:
    """The square-summable matrix solution U with (U_{-1}, U_0) = (I, W).

    Evaluated through the resolvent columns of an enlarged section rather
    than by running the recurrence from (I, W): forward iteration leaks
    rounding into the non-square-summable direction and destroys the tail.
    U_0 agrees with the supplied w up to truncation error: the section reaches
    at least ``default_n_rule(|Im z|)`` blocks past n_max (its cap error bounds
    the cost), since near the spectrum the columns decay at a rate of order |Im z|.
    """
    if z.imag == 0:
        raise ValueError("the l2 solution needs Im z != 0")
    try:
        pad = max(25, n_max // 2, default_n_rule(abs(z.imag)))
    except ValueError:
        raise ValueError(f"Im z = {z.imag!r} needs a section above the cap of "
                         f"{HORIZON_CAP} blocks") from None
    blocks = _resolvent_columns(p, z, n_max + 1 + pad)
    eye = np.eye(p.d, dtype=complex)
    arr = np.concatenate([eye[None], blocks[:n_max + 1]])
    return MgevSolution(z, BlockMatSeq(arr, start=-1))


def energy_identity_gap(p: JacobiParams, z: complex, N: int, v) -> dict:
    """Check <Im W v, v>/Im z against the squared l2 norm of U(z) v.

    Both sides are evaluated on the same N-block section, where the identity
    is exact: Im W / Im z = X* X for X the first d resolvent columns.  W comes
    from ``weyl_schur``; where that doubles (a periodic family), W is within
    the doubled route's bound of the section's, so the gap checks that route
    too.  Also evaluates the trace bound sum_n ||U_n||^2 <= tr(Im W)/Im z
    (operator norms over the same window).
    """
    if z.imag == 0:
        raise ValueError("energy identity needs Im z != 0")
    v = np.asarray(v, dtype=complex)
    w = weyl_schur(p, z, N).W
    im_w = (w - w.conj().T) / 2j
    lhs = float((np.vdot(v, im_w @ v)).real / z.imag)
    blocks = _resolvent_columns(p, z, N)  # U_0 .. U_{N-1} of the section
    uv = blocks @ v
    rhs = float(np.sum(np.abs(uv) ** 2))
    op_sq = sum(np.linalg.norm(m, 2) ** 2 for m in blocks)
    trace_bound_ok = bool(op_sq <= (np.trace(im_w).real / z.imag) * (1 + 1e-8) + 1e-12)
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs),
            "trace_bound_ok": trace_bound_ok,
            "w_bound_ok": bool(np.linalg.norm(w @ v) ** 2 <= rhs * (1 + 1e-8) + 1e-12)}


def default_n_rule(eps: float, C: float = DEFAULT_N_RULE_C) -> int:
    """Truncation size N(eps) = ceil(C/eps); ValueError if it exceeds
    HORIZON_CAP, which is an integer, so ceil(C/eps) > cap iff C/eps > cap."""
    n = float(C) / float(eps)
    if n > HORIZON_CAP:
        raise ValueError(f"eps = {float(eps)!r} needs N above the cap of {HORIZON_CAP} blocks")
    return max(1, math.ceil(n))


def _check_ladder(eps_ladder) -> np.ndarray:
    """The eps ladder as a float array; ValueError unless it is non-empty,
    finite, positive and strictly decreasing."""
    ladder = np.asarray(eps_ladder, dtype=float)
    if (ladder.ndim != 1 or not len(ladder) or not np.all((ladder > 0) & (ladder < np.inf))
            or not np.all(np.diff(ladder) < 0)):
        raise ValueError("eps ladder must be non-empty, finite, positive and strictly decreasing")
    return ladder


def _classify(ws: list[np.ndarray], tr_im: list[float]) -> dict:
    """Per-lambda decision from the ladder of W values (eps decreasing)."""
    n = len(ws)
    # singular candidate: trace blow-up across the last three rungs
    if n >= 4 and tr_im[-1] > 1e3 and all(
            tr_im[k + 1] >= 2.0 * tr_im[k] for k in range(n - 4, n - 1)):
        return {"label": "sing_candidate", "rank": None, "density": None}
    diffs = [np.linalg.norm(ws[k + 1] - ws[k], 2) for k in range(n - 1)]
    scale = max(1.0, np.linalg.norm(ws[-1], 2))
    tail = diffs[-3:] if len(diffs) >= 3 else diffs
    cauchy = all(
        tail[k + 1] <= 0.9 * tail[k] or tail[k + 1] < 1e-10 * scale
        for k in range(len(tail) - 1)
    )
    if not cauchy:
        return {"label": "undecided", "rank": None, "density": None}
    # vanishing Im W along the ladder => off the a.c. support
    j0 = max(0, n - 3)
    vanishing = (all(tr_im[k + 1] < tr_im[k] for k in range(j0, n - 1))
                 and tr_im[-1] <= 0.5 * tr_im[j0])
    if vanishing:
        return {"label": "outside", "rank": 0, "density": None}
    im_w = (ws[-1] - ws[-1].conj().T) / 2j
    sv = np.linalg.svd(im_w, compute_uv=False)
    thr = max(1e-6, RANK_REL * (sv[0] if len(sv) else 0.0))
    rank = int(np.sum(sv > thr))
    if rank >= 1:
        return {"label": f"ac", "rank": rank, "density": im_w / math.pi}
    return {"label": "outside", "rank": 0, "density": None}


def boundary_scan(p: JacobiParams, lambda_grid, eps_ladder,
                  n_rule=default_n_rule) -> BoundaryScan:
    """Scan Im W(lambda + i eps) down an eps ladder and classify each lambda.

    Each rung is one Schur sweep over the whole lambda grid, redone one lambda
    at a time if it raises.  A failed (lambda, eps) is recorded as a row with
    its error message rather than raised, and its lambda as undecided with the
    first such message; rows are in grid order, deterministic.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    eps_ladder = _check_ladder(eps_ladder)
    rungs = []  # per eps: the grid's stack of W, or None where the sweep raised
    for eps in eps_ladder if len(lambda_grid) else ():
        try:
            rungs.append(weyl_schur(p, np.array([complex(lam, eps) for lam in lambda_grid]),
                                    n_rule(eps)).W)
        except NUMERICAL_ERRORS:
            rungs.append(None)
    rows = []
    classification = []
    for i, lam in enumerate(lambda_grid):
        ws, tr_im, errors = [], [], []
        for eps, rung in zip(eps_ladder, rungs):
            try:
                w = weyl_schur(p, complex(lam, eps), n_rule(eps)).W if rung is None else rung[i]
            except NUMERICAL_ERRORS as exc:
                errors.append(str(exc))
                rows.append({"lambda": float(lam), "eps": float(eps),
                             "W": None, "tr_im": math.nan, "error": errors[-1]})
                continue
            im_w = (w - w.conj().T) / 2j
            t = float(np.trace(im_w).real)
            ws.append(w)
            tr_im.append(t)
            rows.append({"lambda": float(lam), "eps": float(eps),
                         "W": w, "tr_im": t, "error": ""})
        if errors or len(ws) < 2:
            classification.append({"label": "undecided", "rank": None, "density": None,
                                   "error": errors[0] if errors else ""})
        else:
            classification.append(_classify(ws, tr_im))
    return BoundaryScan(lambda_grid, eps_ladder, rows, classification)
