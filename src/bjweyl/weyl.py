"""The matrix Weyl function by two routes, energy identities and boundary
scans.

Both routes evaluate the top-left d x d block of the resolvent of the
N-block finite section: ``weyl_resolvent`` through a banded LU solve of
(H - zI) X = E, ``weyl_schur`` through the backward block Schur-complement
recursion.  They agree to rounding at equal N, which the test suite enforces
as an exact algebraic identity.

``weyl_schur`` itself takes one of two routes per (z, N).  The sweep runs the
recursion over all N blocks.  On a family with a period L (``p.period``), the
recursion over M = 4 L blocks is one linear-fractional map, and doubling
raises it to the power q = N // M in about 2 log2 q compositions (the
structure-preserving doubling algorithm).  Doubling is taken only where
N |Im z| >= 20 max ||A_n|| and N >= M, where it stays within 1e-12 relative
of the sweep (README, Numerical notes); everywhere else, and for every family
without a period, the sweep is the route.  N may differ from z to z: one call
makes one sweep and one doubling for all of them, so ``boundary_scan`` gets
its whole (lambda, eps) grid from one call.
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
DOUBLING_PERIODS = 4  # the doubled route's base map: the section of M = 4 periods
DOUBLING_GATE = 20.0  # doubled only where N |Im z| >= DOUBLING_GATE * max ||A_n||
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
    """W = G_0, the top-left block of the resolvent of the N-block section.

    Two routes, the same value to rounding (see README, Numerical notes):

    - the backward Schur sweep, G_{N-1} = (B_{N-1} - zI)^{-1},
      G_k = (B_k - zI - A_k G_{k+1} A_k*)^{-1}, over all N blocks;
    - doubling (``_doubled``), taken per z where the family has a period L,
      N >= M blocks (M = DOUBLING_PERIODS * L) and
      N |Im z| >= DOUBLING_GATE * max ||A_n||: O(M + log N) steps, and only
      M blocks are stored.

    Everywhere else, and for every family without a period, the sweep is the
    route.  z may be an array, and N an int or an integer array broadcast
    against it: W is then a stack of the broadcast shape + (d, d), each entry
    bit-identical to the call at its own (z, N) alone.  The call makes one
    sweep, over the largest N, for every z (a doubled z is swept over its
    N mod M remainder), and one doubling for the doubled z.  N above
    HORIZON_CAP anywhere raises before any block is read, and so does N < 1
    or a non-integer N.
    A singular pivot or doubling solve at any z raises, and so does a
    non-finite W at any z (ArithmeticError: the sweep overflowed, or z was not
    finite), with no numpy warning.
    """
    w, finite = _schur(p, z, N)
    if not finite.all():
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


def _schur(p: JacobiParams, z, N) -> tuple:
    """The W stack of ``weyl_schur`` and a per-z mask of where W and z are
    finite (at z = inf, W = 0 is a limit): ``weyl_schur`` raises from it, and
    ``boundary_scan``, which calls this, records it per point.  The scan reads
    W only, and perfbench's tracer records a ``weyl_schur`` call's N as one
    number, which a scan's N per rung is not."""
    _check_n(N)
    zb, nb = np.broadcast_arrays(z, N)
    zi, fast = scaled_eye(zb, p.d), _doubles(p, zb, nb)
    zf, n, fast = zi.reshape(-1, p.d, p.d), nb.ravel(), fast.ravel()
    length = n.copy()  # of each z's sweep: a doubled z is swept over N mod M
    if fast.any():
        length[fast] %= DOUBLING_PERIODS * p.period
    order = np.argsort(-length, kind="stable")
    g = np.empty_like(zf)
    g[order] = _sweep(*p.stack(int(length.max(initial=0))), zf[order], length[order])
    if fast.any():
        g[fast] = _doubled(p, zf[fast], n[fast], g[fast])
    return g.reshape(zi.shape), np.isfinite(g).all(axis=(1, 2)).reshape(zb.shape) & np.isfinite(zb)


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
    g, live = zi[:0], 0
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


def _doubles(p: JacobiParams, z, N) -> np.ndarray:
    """Per (z, N), broadcast, whether ``weyl_schur`` doubles: the family has a
    period L, N is at least M = DOUBLING_PERIODS * L blocks (so the map is
    applied at least once), z is finite and N |Im z| >= DOUBLING_GATE * s with
    s = max ||A_n||, so the section is many decay lengths long and the doubled
    W stays within rounding of the sweep's (README, Numerical notes)."""
    L, n = p.period, np.asarray(N)
    if L is None or np.all(n < DOUBLING_PERIODS * L):
        return np.zeros(np.broadcast_shapes(np.shape(z), n.shape), dtype=bool)
    s = np.linalg.norm(p.stack(L)[0], 2, axis=(1, 2)).max()
    with np.errstate(over="ignore", invalid="ignore"):
        return ((n >= DOUBLING_PERIODS * L) & np.isfinite(z)
                & (n * np.abs(np.imag(z)) >= DOUBLING_GATE * s))


def _doubled(p: JacobiParams, zi: np.ndarray, n: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W of the n-block sections of a family of period L, for the (m, d, d)
    stack zi of zI and one block count n >= M per z.

    M backward steps, M = DOUBLING_PERIODS * L, are one map
    Phi(G) = alpha + beta G (I - gamma G)^{-1} delta from G_M to G_0, with
    (alpha, beta, gamma, delta) = (R_00, R_{0,M-1} A, A* R_{M-1,M-1} A, A* R_{M-1,0})
    for R the resolvent of the M-block section and A = A_{M-1}.  The corners come
    from short sweeps: R_00 and the off-diagonal corners from one, R_{M-1,M-1}
    from the sweep of the reversed section.  With n = q M + r, W = Phi^q(G_r),
    where w holds each z's G_r, the sweep over its first r blocks (0 if r = 0).
    The map is built once and powered bit by bit: a z composes only where its
    own q has the bit set, and its map is squared only while q has bits left
    (the z sorted by q, so those are a prefix), so each z meets the
    compositions, about 2 log2 q, of its call alone.
    """
    M = DOUBLING_PERIODS * p.period
    q, done = np.divmod(n, M)  # done: the blocks each z's w stands for
    order = np.argsort(-q, kind="stable")
    zi, q, done, w = zi[order], q[order].tolist(), done[order], w[order]
    a, b = p.stack(M)
    g, top, bottom = _sweep(a, b, zi, ends=True)
    last = _sweep(a[-2::-1].conj().transpose(0, 2, 1), b[::-1], zi)
    ah = a[-1].conj().T
    phi, size = (g, top @ a[-1], ah @ last @ a[-1], ah @ bottom), M
    while True:
        hit = [i for i, qi in enumerate(q) if qi & 1]
        if hit:
            if len(hit) == len(q):  # every live z: the stacks as they are, no gathers
                hit = slice(len(q))
            done[hit] += size
            w[hit] = _compose(tuple(x[hit] for x in phi), (w[hit],), done[hit])[0]
        q = [qi >> 1 for qi in q if qi >> 1]  # still a prefix
        if not q:
            break
        size *= 2
        phi = tuple(x[:len(q)] for x in phi)
        phi = _compose(phi, phi, size)
    out = np.empty_like(w)
    out[order] = w
    return out


def _compose(f: tuple, g: tuple, n) -> tuple:
    """f o g for maps G -> alpha + beta G (I - gamma G)^{-1} delta given as
    (alpha, beta, gamma, delta) stacks; a g of (alpha,) alone is the constant
    map alpha, and so is f o g then.  n is the number of blocks of the section
    f o g stands for, an int or one per z, named if a solve is singular (for
    the first such z).

    With K = I - gamma_f alpha_g: alpha = alpha_f + beta_f alpha_g K^{-1} delta_f,
    beta = beta_f (I - alpha_g gamma_f)^{-1} beta_g,
    gamma = gamma_g + delta_g K^{-1} gamma_f beta_g, delta = delta_g K^{-1} delta_f.
    """
    a1, b1, c1, d1 = f
    a2, d = g[0], g[0].shape[-1]
    eye = np.eye(d)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # W is checked once, by _schur
            if len(g) == 1:
                return (a1 + b1 @ a2 @ np.linalg.solve(eye - c1 @ a2, d1),)
            _, b2, c2, d2 = g
            x = np.linalg.solve(eye - c1 @ a2, np.concatenate([d1, c1 @ b2], axis=-1))
            return (a1 + b1 @ a2 @ x[..., :d], b1 @ np.linalg.solve(eye - a2 @ c1, b2),
                    c2 + d2 @ x[..., d:], d2 @ x[..., :d])
    except np.linalg.LinAlgError as exc:
        if np.ndim(n):  # z by z, so the message names the first failing z's own n
            for i, ni in enumerate(n):
                _compose(tuple(x[i:i + 1] for x in f), tuple(x[i:i + 1] for x in g), int(ni))
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

    Each rung is checked on its own first: its N = n_rule(eps), N an integer in
    1..HORIZON_CAP and the blocks its sweep reads (of a family with a period,
    the first period).  Then one ``_schur`` call (``weyl_schur``'s W stack),
    one N per rung, gives W on the grid of the rungs that passed; a (lambda,
    eps) whose W or z is not finite is read off its mask, and an error of the
    call itself (a singular pivot or doubling solve, ruled out at Im z > 0 in
    exact arithmetic) is recorded at every called point.  The labels read
    ``_ladder_stats`` of the whole grid.  A failed (lambda, eps) is a row with
    its error message rather than raised, and its lambda undecided with the
    first such message; rows are in grid order, deterministic.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    eps_ladder = _check_ladder(eps_ladder)
    z = np.empty((len(eps_ladder), len(lambda_grid)), dtype=complex)  # z[rung, lambda]
    z.real, z.imag = lambda_grid, eps_ladder[:, None]
    w = np.zeros(z.shape + (p.d, p.d), dtype=complex)
    errors, failed = np.full(z.shape, "", dtype=object), np.zeros(z.shape, dtype=bool)
    ns = {}  # rung -> N, for the rungs that passed their checks
    for r, eps in enumerate(eps_ladder if len(lambda_grid) else ()):
        try:
            n = n_rule(eps)
            _check_n(n)
            p.stack(min(n, p.period or n))
            ns[r] = n
        except NUMERICAL_ERRORS as exc:
            errors[r], failed[r] = str(exc), True
    rungs = list(ns)
    try:
        wr, finite = _schur(p, z[rungs], np.array(list(ns.values()), dtype=int)[:, None])
    except NUMERICAL_ERRORS as exc:
        errors[rungs], failed[rungs] = str(exc), True
    else:  # a NaN left in the stack would fail _ladder_stats' SVD
        w[rungs] = np.where(finite[..., None, None], wr, 0)
        errors[rungs], failed[rungs] = np.where(finite, "", NOT_FINITE), ~finite
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
