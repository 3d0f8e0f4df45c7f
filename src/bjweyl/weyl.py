"""The matrix Weyl function by two routes, energy identities and boundary
scans.

Both routes evaluate the top-left d x d block of the resolvent of the
N-block finite section: ``weyl_resolvent`` through a banded LU solve of
(H - zI) X = E, ``weyl_schur`` through the backward block Schur sweep, one
sweep for every z and its own N.  They agree to rounding at equal N, which
the test suite enforces as an exact algebraic identity.  ``boundary_scan``
reads the W of the half-line operator on a family with a period
(``_half_line``, no N), and sweeps one without a period at N = n_rule(eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockcore import (HORIZON_CAP, NUMERICAL_ERRORS, BlockMatSeq, JacobiParams,
                        check_cap, scaled_eye)
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
RANK_REL = 1e-3  # _decide's rank: singular values of Im W above this share of the largest
DOUBLING_PERIODS = 4  # _half_line's base map: the section of M = 4 periods
HALF_LINE_TOL = 1e-15  # _half_line stops where alpha moved by at most this share of max |alpha|
HALF_LINE_BLOCKS = 2 ** 22  # _half_line's reach; free at eps = 4.8e-5 converges within it
NOT_FINITE = "W is not finite: the Schur sweep overflowed"


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
    """ValueError unless N passes ``_check_n`` (an integer, a float is not cast,
    in 1..HORIZON_CAP) and the N-block section has at most 2**12 rows:
    ``quadrature_measure``'s bidiagonal SVD holds about 5 (N d)^2 doubles, and
    ``finite_section`` (N d)^2 complex."""
    _check_n(N)
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


def weyl_schur(p: JacobiParams, z, N) -> WeylSample:
    """W = G_0, the top-left block of the resolvent of the N-block section, by
    the backward Schur sweep G_{N-1} = (B_{N-1} - zI)^{-1},
    G_k = (B_k - zI - A_k G_{k+1} A_k*)^{-1}.

    z may be an array, and N an int or an integer array broadcast against it:
    W is then a stack of the broadcast shape + (d, d), each entry bit-identical
    to the call at its own (z, N) alone, from one sweep over the largest N.
    N above HORIZON_CAP anywhere raises before any block is read, and so does
    N < 1 or a non-integer N.  A singular pivot at any z raises, and so does a
    non-finite W at any z (ArithmeticError: the sweep overflowed, or z was not
    finite), with no numpy warning.
    """
    w = _schur(p, z, N)
    if not (np.isfinite(w).all() and np.isfinite(z).all()):  # at z = inf, W = 0 is a limit
        raise ArithmeticError(NOT_FINITE)
    z = z if np.shape(z) == w.shape[:-2] else np.broadcast_to(z, w.shape[:-2])
    return WeylSample(z, w, "schur", N, {"herglotz_min_eig": _herglotz_min_eig(z, w)})


def _check_n(N) -> None:
    """ValueError unless N is an int or an integer array (a float is not cast) of block
    counts in 1..HORIZON_CAP: the checks ``_schur``, the banded solve and the section
    make before any block is read."""
    if (n := np.asarray(N)).dtype.kind not in "iu":
        raise ValueError(f"N must be an integer, got {n.tolist()!r}")
    check_cap(int(np.max(n, initial=1)))
    if np.min(n, initial=1) < 1:
        raise ValueError("N must be >= 1")


def _schur(p: JacobiParams, z, N):
    """The W stack of ``weyl_schur``, which ``boundary_scan`` calls for the W
    alone: perfbench's tracer records a ``weyl_schur`` call's N as one number,
    which a scan's N per rung is not."""
    _check_n(N)
    zb, nb = np.broadcast_arrays(z, N)
    zi = scaled_eye(zb, p.d)
    zf, n = zi.reshape(-1, p.d, p.d), nb.ravel()
    order = np.argsort(-n, kind="stable")
    g = np.empty_like(zf)
    g[order] = _sweep(*p.stack(int(n.max(initial=0))), zf[order], n[order])
    return g.reshape(zi.shape)


def _sweep(a: np.ndarray, b: np.ndarray, zi: np.ndarray, n=None, ends: bool = False):
    """G_0 of the section with diagonal blocks b and couplings a (len(b) - 1 of
    them are read) by the backward Schur sweep, for the stack zi of zI.

    Every z is swept over all len(b) blocks, or, with n (one block count per z,
    in decreasing order, for an (m, d, d) stack zi), over its own first n
    blocks: one backward pass over the largest n in which each z joins at its
    block n - 1, so the live z are a prefix of the stack, and a z with n = 0
    gets G = 0.  Each G_0 is bit-identical to the sweep of that z alone.

    With ``ends``, also the corner blocks R_{0,n-1} and R_{n-1,0} of the
    section's resolvent R, as running products of the pivots G_k:
    R^(k)_{k,n-1} = -G_k A_k R^(k+1)_{k+1,n-1}, and alike on the other side.
    """
    counts = [len(b)] * len(zi) if n is None else n.tolist()
    joins = {c - 1: i + 1 for i, c in enumerate(counts) if c}  # block k -> live z after it
    g = top = bottom = zi[:0]
    live = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # W is checked once, by the caller
            for k in range(max(joins, default=-1), -1, -1):
                if live:
                    g = np.linalg.inv(b[k] - zl - a[k] @ g @ a[k].conj().T)
                    if ends:
                        top, bottom = -g @ a[k] @ top, -bottom @ a[k].conj().T @ g
                if k in joins:  # the z whose section ends at block k join
                    new = np.linalg.inv(b[k] - zi[live:joins[k]])
                    g = np.concatenate([g, new]) if live else new
                    top = bottom = g
                    live = joins[k]
                    zl = zi[:live]
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular Schur pivot at block {k}: z too close to the section spectrum"
        ) from exc
    if live < len(zi):
        g = np.concatenate([g, np.zeros_like(zi[live:])])
    return (g, top, bottom) if ends else g


def _half_line(p: JacobiParams, zi: np.ndarray) -> tuple:
    """W(z) of the half-line operator of a family with a period L, for the
    (m, d, d) stack zi of zI, and a per-z mask of where it converged.

    M backward steps, M = DOUBLING_PERIODS * L, are one map
    Phi(G) = alpha + beta G (I - gamma G)^{-1} delta from G_M to G_0, with
    (alpha, beta, gamma, delta) = (R_00, R_{0,M-1} A, A* R_{M-1,M-1} A, A* R_{M-1,0})
    for R the resolvent of the M-block section and A = A_{M-1}.  The corners come
    from short sweeps: R_00 and the off-diagonal corners from one, R_{M-1,M-1}
    from the sweep of the reversed section.  After k squarings Phi is the map of
    the M 2^k-block section, and alpha its W; beta and delta decay, and alpha
    converges to the half-line W.  A z leaves the stacks at the first squaring
    that moved its alpha by at most HALF_LINE_TOL of alpha's largest entry, so
    each W is bit-identical to the call at its z alone.  A z still moving once
    the map stands for HALF_LINE_BLOCKS blocks is not converged: past that reach
    (about eps >= 3e-5 max |A_n| in a band) rounding, about 1e-16 per block, and
    sections near resonance can make alpha settle on a wrong W.  A non-finite
    alpha leaves at once, for the caller to flag.
    """
    M = DOUBLING_PERIODS * p.period
    a, b = p.stack(M)
    converged = np.zeros(len(zi), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks W
        g, top, bottom = _sweep(a, b, zi, ends=True)
        last = _sweep(a[-2::-1].conj().transpose(0, 2, 1), b[::-1], zi)
        ah = a[-1].conj().T
        phi = (g, top @ a[-1], ah @ last @ a[-1], ah @ bottom)
        w, live = g.copy(), np.arange(len(zi))
        for k in range(1, (HALF_LINE_BLOCKS // M).bit_length()):
            if not len(live):
                break
            alpha, phi = phi[0], _compose(phi, phi, M << k)
            w[live] = phi[0]
            moved = np.abs(phi[0] - alpha).max(axis=(1, 2))
            done = moved <= HALF_LINE_TOL * np.abs(phi[0]).max(axis=(1, 2))
            converged[live[done]] = True
            keep = ~done & np.isfinite(moved)
            live, phi = live[keep], tuple(x[keep] for x in phi)
    return w, converged


def _compose(f: tuple, g: tuple, n: int) -> tuple:
    """f o g for maps G -> alpha + beta G (I - gamma G)^{-1} delta given as
    (alpha, beta, gamma, delta) stacks.  n is the number of blocks of the
    section f o g stands for, named if a solve is singular.

    With K = I - gamma_f alpha_g: alpha = alpha_f + beta_f alpha_g K^{-1} delta_f,
    beta = beta_f (I - alpha_g gamma_f)^{-1} beta_g,
    gamma = gamma_g + delta_g K^{-1} gamma_f beta_g, delta = delta_g K^{-1} delta_f.
    """
    (a1, b1, c1, d1), (a2, b2, c2, d2) = f, g
    eye = np.eye(d := a2.shape[-1])
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # W is checked once, by the caller
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

    _check_n(N)
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
    is exact: Im W / Im z = X* X for X the first d resolvent columns, with W
    from ``weyl_schur``'s sweep and X from the banded solve, so the gap checks
    the one route against the other.  Also evaluates the trace bound
    sum_n ||U_n||^2 <= tr(Im W)/Im z (operator norms over the same window).
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


def _ladder_stats(w: np.ndarray) -> tuple:
    """What ``_decide`` reads, for ladders of W stacked along axis 0 (eps
    decreasing), each statistic from one stacked call: tr Im W per rung, the
    rung-to-rung gaps ||W_{k+1} - W_k||_2, and at the last rung ||W||_2, the
    singular values of Im W (decreasing) and Im W itself."""
    im_w = (w - np.swapaxes(w.conj(), -1, -2)) / 2j
    return (np.trace(im_w, axis1=-2, axis2=-1).real,
            np.linalg.norm(w[1:] - w[:-1], 2, axis=(-2, -1)),
            np.linalg.norm(w[-1], 2, axis=(-2, -1)),
            np.linalg.svd(im_w[-1], compute_uv=False), im_w[-1])


def _decide(tr_im, diffs, w_norm, sv, im_w) -> dict:
    """One lambda's label from its ladder statistics (``_ladder_stats``)."""
    n = len(tr_im)
    # singular candidate: trace blow-up across the last three rungs
    if n >= 4 and tr_im[-1] > 1e3 and all(
            tr_im[k + 1] >= 2.0 * tr_im[k] for k in range(n - 4, n - 1)):
        return {"label": "sing_candidate", "rank": None, "density": None}
    scale = max(1.0, w_norm)
    tail = diffs[-3:]
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
    thr = max(1e-6, RANK_REL * (sv[0] if len(sv) else 0.0))
    rank = int(np.sum(sv > thr))
    if rank >= 1:
        return {"label": "ac", "rank": rank, "density": im_w / math.pi}
    return {"label": "outside", "rank": 0, "density": None}


def boundary_scan(p: JacobiParams, lambda_grid, eps_ladder,
                  n_rule=default_n_rule) -> BoundaryScan:
    """Scan Im W(lambda + i eps) down an eps ladder and classify each lambda.

    On a family with a period, W is the half-line's, from one ``_half_line``
    call for the whole grid; n_rule is not called, and a point that did not
    converge is its row error.  Without a period, each rung is checked on its
    own first (N = n_rule(eps) an integer in 1..HORIZON_CAP, and the blocks its
    sweep reads), then one ``_schur`` call gives W on the rungs that passed.
    A point whose W or z is not finite is its row error, and an error of the
    call itself (a bad block, a singular pivot or composition solve, ruled out
    at Im z > 0 in exact arithmetic) every called point's.  The labels read
    ``_ladder_stats`` of the whole grid.  A failed point is a row with its
    error message rather than raised, and its lambda undecided with the first
    such message; rows are in grid order, deterministic.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    eps_ladder = _check_ladder(eps_ladder)
    z = np.empty((len(eps_ladder), len(lambda_grid)), dtype=complex)  # z[rung, lambda]
    z.real, z.imag = lambda_grid, eps_ladder[:, None]
    w = np.zeros(z.shape + (p.d, p.d), dtype=complex)
    errors, failed = np.full(z.shape, "", dtype=object), np.zeros(z.shape, dtype=bool)
    try:
        if p.period is None:
            rungs, ns = [], []  # the rungs that passed their checks, and their N
            for r, eps in enumerate(eps_ladder if len(lambda_grid) else ()):
                try:
                    n = n_rule(eps)
                    _check_n(n)
                    p.stack(n)
                except NUMERICAL_ERRORS as exc:
                    errors[r], failed[r] = str(exc), True
                else:
                    rungs.append(r)
                    ns.append(n)
            wr, converged = _schur(p, z[rungs], np.array(ns, dtype=int)[:, None]), np.True_
        else:
            rungs = list(range(len(eps_ladder)))
            wr, converged = _half_line(p, scaled_eye(z.ravel(), p.d))
            wr, converged = wr.reshape(w.shape), converged.reshape(z.shape)
    except NUMERICAL_ERRORS as exc:
        errors[rungs], failed[rungs] = str(exc), True
    else:  # a NaN left in the stack would fail _ladder_stats' SVD
        finite = np.isfinite(wr).all(axis=(-2, -1)) & np.isfinite(z[rungs])
        errors[rungs] = np.where(finite, "", NOT_FINITE)
        for r, i in zip(*np.nonzero(finite & ~converged)):  # the half-line's: rungs are all
            errors[r, i] = (f"W did not converge at z = {complex(z[r, i])!r} "
                            f"within {HALF_LINE_BLOCKS} blocks")
        failed[rungs] = errors[rungs] != ""
        w[rungs] = np.where(~failed[rungs][..., None, None], wr, 0)
    tr_im, diffs, w_norm, sv, im_w = _ladder_stats(w)
    rows = [{"lambda": float(lam), "eps": float(eps), "W": None if failed[r, i] else w[r, i],
             "tr_im": math.nan if failed[r, i] else float(tr_im[r, i]), "error": errors[r, i]}
            for i, lam in enumerate(lambda_grid) for r, eps in enumerate(eps_ladder)]
    classification = []
    for i in range(len(lambda_grid)):
        messages = errors[failed[:, i], i]  # of the failed rungs, in ladder order
        if len(messages) or len(eps_ladder) < 2:
            classification.append({"label": "undecided", "rank": None, "density": None,
                                   "error": messages[0] if len(messages) else ""})
        else:
            classification.append(_decide(tr_im[:, i], diffs[:, i], w_norm[i], sv[i], im_w[i]))
    return BoundaryScan(lambda_grid, eps_ladder, rows, classification)
