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
import scipy.linalg

from .blockcore import BlockMatSeq, JacobiParams
from .solutions import MgevSolution, solve_forward

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
    classification: list  # one dict per lambda: {"label", "rank", "density"}


def finite_section(p: JacobiParams, N: int) -> FiniteSection:
    """Dense Hermitian truncation with diagonal blocks B_0..B_{N-1}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    d = p.d
    h = np.zeros((N * d, N * d), dtype=complex)
    for n in range(N):
        h[n * d:(n + 1) * d, n * d:(n + 1) * d] = p.B(n)
        if n + 1 < N:
            a = p.A(n)
            h[n * d:(n + 1) * d, (n + 1) * d:(n + 2) * d] = a
            h[(n + 1) * d:(n + 2) * d, n * d:(n + 1) * d] = a.conj().T
    return FiniteSection(N, h)


def _banded_shifted(p: JacobiParams, z: complex, N: int) -> np.ndarray:
    """(H - zI) in scipy solve_banded storage; bandwidth 2d-1 on each side.

    Entry (r, c) of H - zI sits at ab[bw + r - c, c].
    """
    d = p.d
    bw = 2 * d - 1
    ab = np.zeros((2 * bw + 1, N * d), dtype=complex)
    i, j = np.indices((d, d))
    for n in range(N):
        ab[bw + i - j, n * d + j] = p.B(n) - z * np.eye(d)
        if n + 1 < N:
            a = p.A(n)
            ab[bw + i - j - d, (n + 1) * d + j] = a
            ab[bw + i - j + d, n * d + j] = a.conj().T
    return ab


def _herglotz_min_eig(z: complex, w: np.ndarray) -> float:
    """Smallest eigenvalue of sign(Im z) * Im W, the Herglotz margin."""
    im_w = (w - w.conj().T) / 2j
    ev = np.linalg.eigvalsh(im_w)
    return float(ev[0] if z.imag >= 0 else -ev[-1])


def weyl_resolvent(p: JacobiParams, z: complex, N: int) -> WeylSample:
    """W = top-left d x d block of (H - zI)^{-1} via a banded factorization.

    For real z the value is defined whenever z is away from the section
    spectrum; no invertibility of W is claimed there.
    """
    w = _resolvent_columns(p, z, N)[0]
    return WeylSample(z, w, "resolvent", N,
                      {"herglotz_min_eig": _herglotz_min_eig(z, w)})


def weyl_schur(p: JacobiParams, z: complex, N: int) -> WeylSample:
    """W = G_0 from the backward Schur-complement recursion.

    G_{N-1} = (B_{N-1} - zI)^{-1}, G_k = (B_k - zI - A_k G_{k+1} A_k*)^{-1};
    equal to the resolvent route at the same N up to rounding.
    """
    d = p.d
    eye = np.eye(d, dtype=complex)
    g = np.linalg.inv(p.B(N - 1) - z * eye)
    for k in range(N - 2, -1, -1):
        a = p.A(k)
        pivot = p.B(k) - z * eye - a @ g @ a.conj().T
        try:
            g = np.linalg.inv(pivot)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"singular Schur pivot at block {k}: z too close to the section spectrum"
            ) from exc
    return WeylSample(z, g, "schur", N,
                      {"herglotz_min_eig": _herglotz_min_eig(z, g)})


def _resolvent_columns(p: JacobiParams, z: complex, N: int) -> np.ndarray:
    """First d columns of (H - zI)^{-1} as an (N, d, d) block stack."""
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
    U_0 agrees with the supplied w up to truncation error.
    """
    if z.imag == 0:
        raise ValueError("the l2 solution needs Im z != 0")
    pad = max(25, n_max // 2)
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


def default_n_rule(eps: float, C: float = 50.0) -> int:
    """Truncation size N(eps) = ceil(C/eps)."""
    return max(1, math.ceil(C / eps))


def _check_ladder(eps_ladder) -> np.ndarray:
    """The eps ladder as a float array; ValueError unless it is non-empty,
    positive and strictly decreasing."""
    ladder = np.asarray(eps_ladder, dtype=float)
    if (ladder.ndim != 1 or not len(ladder) or not np.all(ladder > 0)
            or not np.all(np.diff(ladder) < 0)):
        raise ValueError("eps ladder must be non-empty, positive and strictly decreasing")
    return ladder


def _classify(ws: list[np.ndarray], tr_im: list[float], rank_rel: float = 1e-3) -> dict:
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
    thr = max(1e-6, rank_rel * (sv[0] if len(sv) else 0.0))
    rank = int(np.sum(sv > thr))
    if rank >= 1:
        return {"label": f"ac", "rank": rank, "density": im_w / math.pi}
    return {"label": "outside", "rank": 0, "density": None}


def boundary_scan(p: JacobiParams, lambda_grid, eps_ladder,
                  n_rule=default_n_rule) -> BoundaryScan:
    """Scan Im W(lambda + i eps) down an eps ladder and classify each lambda.

    Per-lambda failures are recorded as undecided rather than raised; results
    are assembled in grid order so the output is deterministic.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    eps_ladder = _check_ladder(eps_ladder)
    rows = []
    classification = []
    for lam in lambda_grid:
        ws, tr_im = [], []
        failed = False
        for eps in eps_ladder:
            try:
                sample = weyl_schur(p, complex(lam, eps), n_rule(eps))
            except np.linalg.LinAlgError:
                failed = True
                rows.append({"lambda": float(lam), "eps": float(eps),
                             "W": None, "tr_im": math.nan, "error": "singular"})
                continue
            im_w = (sample.W - sample.W.conj().T) / 2j
            t = float(np.trace(im_w).real)
            ws.append(sample.W)
            tr_im.append(t)
            rows.append({"lambda": float(lam), "eps": float(eps),
                         "W": sample.W, "tr_im": t, "error": ""})
        if failed or len(ws) < 2:
            classification.append({"label": "undecided", "rank": None, "density": None})
        else:
            classification.append(_classify(ws, tr_im))
    return BoundaryScan(lambda_grid, eps_ladder, rows, classification)


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
    from .subordinacy import _sel_chain

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
