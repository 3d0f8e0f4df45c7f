"""The matrix Weyl function by two routes, energy identities and boundary
scans.

Both routes evaluate the top-left d x d block of the resolvent of the
N-block finite section: ``weyl_resolvent`` through a banded LU solve of
(H - zI) X = E, ``weyl_schur`` through the backward block Schur-complement
recursion.  They agree to rounding at equal N, which the test suite enforces
as an exact algebraic identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockcore import HORIZON_CAP, NUMERICAL_ERRORS, BlockMatSeq, JacobiParams
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
    """W = G_0 from the backward Schur-complement recursion.

    G_{N-1} = (B_{N-1} - zI)^{-1}, G_k = (B_k - zI - A_k G_{k+1} A_k*)^{-1};
    equal to the resolvent route at the same N up to rounding.  An array z is
    one sweep for all its values: W is a z.shape + (d, d) stack, each entry
    bit-identical to the call at that z alone.  A singular pivot at any z
    raises, and so does a non-finite W at any z (ArithmeticError: the sweep
    overflowed, or z was not finite), with no numpy warning.
    """
    zi, (a, b) = np.multiply.outer(z, np.eye(p.d, dtype=complex)), p.stack(N)
    k = N - 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
            g = np.linalg.inv(b[k] - zi)
            for k in range(N - 2, -1, -1):
                g = np.linalg.inv(b[k] - zi - a[k] @ g @ a[k].conj().T)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular Schur pivot at block {k}: z too close to the section spectrum"
        ) from exc
    if not np.all(np.isfinite(g)):
        raise ArithmeticError("W is not finite: the Schur sweep overflowed")
    return WeylSample(z, g, "schur", N,
                      {"herglotz_min_eig": _herglotz_min_eig(z, g)})


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
    is exact: Im W / Im z = X* X for X the first d resolvent columns.  Also
    evaluates the trace bound sum_n ||U_n||^2 <= tr(Im W)/Im z (operator
    norms over the same window).
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
    positive and strictly decreasing."""
    ladder = np.asarray(eps_ladder, dtype=float)
    if (ladder.ndim != 1 or not len(ladder) or not np.all(ladder > 0)
            or not np.all(np.diff(ladder) < 0)):
        raise ValueError("eps ladder must be non-empty, positive and strictly decreasing")
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
