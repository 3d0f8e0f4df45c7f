"""One-step and n-step transfer matrices, structured inverses and the
Liouville-Ostrogradsky identities.

The n-th one-step transfer matrix (2d x 2d, with the A_{-1} = -I convention
at n = 0) propagates consecutive solution pairs; the accumulated product
carries the P/Q polynomials in its blocks.  Its inverse has a closed form in
terms of the product at the conjugate spectral parameter, which is what
``transfer_nstep`` uses (never a numeric inversion).
"""

from __future__ import annotations

import numpy as np

from .blockcore import JacobiParams, _finite
from .solutions import _a_prev_adj, compute_PQ

__all__ = [
    "transfer_step",
    "transfer_nstep",
    "omega_identity_residual",
    "lo_residual",
]


def _step(p: JacobiParams, z: complex, n: int) -> np.ndarray:
    """T_n(z) = [[0, I], [-A_n^{-1} A_{n-1}*, A_n^{-1}(zI - B_n)]]."""
    (a, b), eye = p.stack(n + 1), np.eye(p.d, dtype=complex)
    return np.block([[np.zeros_like(eye), eye],
                     [-np.linalg.solve(a[n], _a_prev_adj(a, n)),
                      np.linalg.solve(a[n], z * eye - b[n])]])


def _omega(d: int) -> np.ndarray:
    """Omega = [[0, I], [-I, 0]], 2d x 2d."""
    return np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(d)).astype(complex)


def _chain(step, p: JacobiParams, z: complex, n: int):
    """Yield the running products S_0, S_1 S_0, ..., S_{n-1} ... S_0 of S_k = step(p, z, k)."""
    r = None
    p.stack(n)  # the chain's blocks enter the store, checked, in one slab
    for k in range(n):
        r = step(p, z, k) if r is None else step(p, z, k) @ r
        yield r


def transfer_step(p: JacobiParams, z: complex, n: int) -> dict:
    """T_n(z) and its closed-form inverse.

    T = [[0, I], [-A_n^{-1} A_{n-1}*, A_n^{-1}(zI - B_n)]],
    T^{-1} = [[(A_{n-1}*)^{-1}(zI - B_n), -(A_{n-1}*)^{-1} A_n], [I, 0]].
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    (a, b), eye = p.stack(n + 1), np.eye(p.d, dtype=complex)
    a_prev_inv = np.linalg.inv(_a_prev_adj(a, n))
    t_inv = np.block([[a_prev_inv @ (z * eye - b[n]), -a_prev_inv @ a[n]],
                      [eye, np.zeros_like(eye)]])
    return {"T": _step(p, z, n), "T_inv": t_inv}


def transfer_nstep(p: JacobiParams, z: complex, n: int) -> dict:
    """The n-step product R_n(z) = T_{n-1} ... T_0 and its structured inverse.

    The inverse is the closed form in terms of R_n(conj z):

        R_n(z)^{-1} = [[0, I], [-I, 0]] R_n(conj z)* [[0, A_{n-1}], [-A_{n-1}*, 0]].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a_last = p.A(n - 1)
    right = np.block([[np.zeros_like(a_last), a_last], [-a_last.conj().T, np.zeros_like(a_last)]])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        r, rb = (list(_chain(_step, p, w, n))[-1] for w in (z, np.conj(z)))
        r_inv = _omega(p.d) @ rb.conj().T @ right
    return {"R": _finite(r, f"R_n at n={n}"), "R_inv": _finite(r_inv, f"R_n^-1 at n={n}")}


def _tilde_step(p: JacobiParams, z: complex, n: int) -> np.ndarray:
    """K_n T_n(z) K_{n-1}^{-1} = [[0, A_n*], [-A_n^{-1}, A_n^{-1}(zI - B_n)]]."""
    (a, b), eye = p.stack(n + 1), np.eye(p.d, dtype=complex)
    return np.block([[np.zeros_like(eye), a[n].conj().T],
                     [-np.linalg.solve(a[n], eye), np.linalg.solve(a[n], z * eye - b[n])]])


def omega_identity_residual(p: JacobiParams, z: complex, n: int) -> float:
    """Relative residual of the symplectic-type conjugation identity.

    Builds the rescaled chain product at z and at conj z and returns
    ||Omega - R~(conj z)* Omega R~(z)|| scaled by max(1, ||R~(conj z)|| ||R~(z)||);
    the factors grow exponentially in n, so the raw defect is meaningless.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    omega = _omega(p.d)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rt, rtb = (list(_chain(_tilde_step, p, w, n))[-1] for w in (z, np.conj(z)))
        s = _finite(rtb.conj().T @ omega @ rt, f"R~(conj z)* Omega R~(z) at n={n}")
        # an overflow of the scale to inf gives the same scale, max(1, inf)
        scale = max(1.0, float(np.linalg.norm(rtb, 2) * np.linalg.norm(rt, 2)))
    return float(np.linalg.norm(omega - s, 2) / scale)


def lo_residual(p: JacobiParams, w: complex, k: int) -> dict:
    """Relative Liouville-Ostrogradsky residuals at index k.

    r1: || Q_k(w) P_k(conj w)* - P_k(w) Q_k(conj w)* ||, k >= 0;
    r2: || Q_k(w) P_{k-1}(conj w)* - P_k(w) Q_{k-1}(conj w)* - A_{k-1}^{-1} ||, k >= 1;
    both scaled by max(1, product of the factor norms) since P and Q grow
    exponentially in k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n_eval = max(k, 1)
    pq_w = compute_PQ(p, w, n_eval)
    pq_wb = compute_PQ(p, np.conj(w), n_eval)

    def norm(m):
        return float(np.linalg.norm(m, 2))

    qk, pk = pq_w.Q.term(k), pq_w.P.term(k)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        m1 = _finite(qk @ pq_wb.P.term(k).conj().T - pk @ pq_wb.Q.term(k).conj().T,
                     f"the r1 defect at k={k}")
    scale1 = max(1.0, norm(qk) * norm(pq_wb.P.term(k)), norm(pk) * norm(pq_wb.Q.term(k)))
    out = {"r1": float(np.linalg.norm(m1, 2)) / scale1}
    if k >= 1:
        ainv = np.linalg.inv(p.A(k - 1))
        with np.errstate(over="ignore", invalid="ignore"):
            m2 = _finite(qk @ pq_wb.P.term(k - 1).conj().T
                         - pk @ pq_wb.Q.term(k - 1).conj().T - ainv, f"the r2 defect at k={k}")
        scale2 = max(1.0, norm(qk) * norm(pq_wb.P.term(k - 1)),
                     norm(pk) * norm(pq_wb.Q.term(k - 1)), norm(ainv))
        out["r2"] = float(np.linalg.norm(m2, 2)) / scale2
    else:
        out["r2"] = float("nan")
    return out
