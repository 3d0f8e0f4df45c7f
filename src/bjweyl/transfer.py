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

from .blockcore import JacobiParams
from .solutions import compute_PQ

__all__ = [
    "transfer_step",
    "transfer_nstep",
    "omega_identity_residual",
    "lo_residual",
]


def _a_prev_adj(p: JacobiParams, n: int) -> np.ndarray:
    """A_{n-1}* with the a-priori choice A_{-1} = -I."""
    if n == 0:
        return -np.eye(p.d, dtype=complex)
    return p.A(n - 1).conj().T


def transfer_step(p: JacobiParams, z: complex, n: int) -> dict:
    """T_n(z) and its closed-form inverse.

    T = [[0, I], [-A_n^{-1} A_{n-1}*, A_n^{-1}(zI - B_n)]],
    T^{-1} = [[(A_{n-1}*)^{-1}(zI - B_n), -(A_{n-1}*)^{-1} A_n], [I, 0]].
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    d = p.d
    eye = np.eye(d, dtype=complex)
    a_prev = _a_prev_adj(p, n)
    zb = z * eye - p.B(n)
    t = np.zeros((2 * d, 2 * d), dtype=complex)
    t[:d, d:] = eye
    t[d:, :d] = -p.solve_A(n, a_prev)
    t[d:, d:] = p.solve_A(n, zb)
    t_inv = np.zeros((2 * d, 2 * d), dtype=complex)
    a_prev_inv = np.linalg.inv(a_prev)
    t_inv[:d, :d] = a_prev_inv @ zb
    t_inv[:d, d:] = -a_prev_inv @ p.A(n)
    t_inv[d:, :d] = eye
    return {"T": t, "T_inv": t_inv}


def _conjugate_chains(step, z: complex, n: int) -> list[np.ndarray]:
    """step(w, n-1) ... step(w, 0) for w = z and w = conj z, accumulated from the right."""
    out = []
    for w in (z, np.conj(z)):
        r = step(w, 0)
        for k in range(1, n):
            r = step(w, k) @ r
        out.append(r)
    return out


def transfer_nstep(p: JacobiParams, z: complex, n: int) -> dict:
    """The n-step product R_n(z) = T_{n-1} ... T_0 and its structured inverse.

    The inverse is the closed form in terms of R_n(conj z):

        R_n(z)^{-1} = [[0, I], [-I, 0]] R_n(conj z)* [[0, A_{n-1}], [-A_{n-1}*, 0]].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = p.d
    r, rb = _conjugate_chains(lambda w, k: transfer_step(p, w, k)["T"], z, n)
    a_last = p.A(n - 1)
    left = np.zeros((2 * d, 2 * d), dtype=complex)
    left[:d, d:] = np.eye(d)
    left[d:, :d] = -np.eye(d)
    right = np.zeros((2 * d, 2 * d), dtype=complex)
    right[:d, d:] = a_last
    right[d:, :d] = -a_last.conj().T
    r_inv = left @ rb.conj().T @ right
    return {"R": r, "R_inv": r_inv}


def _tilde_step(p: JacobiParams, z: complex, n: int) -> np.ndarray:
    """K_n T_n(z) K_{n-1}^{-1} = [[0, A_n*], [-A_n^{-1}, A_n^{-1}(zI - B_n)]]."""
    d = p.d
    eye = np.eye(d, dtype=complex)
    t = np.zeros((2 * d, 2 * d), dtype=complex)
    t[:d, d:] = p.A(n).conj().T
    t[d:, :d] = -p.solve_A(n, eye)
    t[d:, d:] = p.solve_A(n, z * eye - p.B(n))
    return t


def omega_identity_residual(p: JacobiParams, z: complex, n: int) -> float:
    """Relative residual of the symplectic-type conjugation identity.

    Builds the rescaled chain product at z and at conj z and returns
    ||Omega - R~(conj z)* Omega R~(z)|| scaled by max(1, ||R~(conj z)|| ||R~(z)||);
    the factors grow exponentially in n, so the raw defect is meaningless.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = p.d
    omega = np.zeros((2 * d, 2 * d), dtype=complex)
    omega[:d, d:] = np.eye(d)
    omega[d:, :d] = -np.eye(d)
    rt, rtb = _conjugate_chains(lambda w, k: _tilde_step(p, w, k), z, n)
    s = rtb.conj().T @ omega @ rt
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
    m1 = qk @ pq_wb.P.term(k).conj().T - pk @ pq_wb.Q.term(k).conj().T
    scale1 = max(1.0, norm(qk) * norm(pq_wb.P.term(k)), norm(pk) * norm(pq_wb.Q.term(k)))
    out = {"r1": float(np.linalg.norm(m1, 2)) / scale1}
    if k >= 1:
        ainv = np.linalg.inv(p.A(k - 1))
        m2 = (qk @ pq_wb.P.term(k - 1).conj().T
              - pk @ pq_wb.Q.term(k - 1).conj().T - ainv)
        scale2 = max(1.0, norm(qk) * norm(pq_wb.P.term(k - 1)),
                     norm(pk) * norm(pq_wb.Q.term(k - 1)), norm(ainv))
        out["r2"] = float(np.linalg.norm(m2, 2)) / scale2
    else:
        out["r2"] = float("nan")
    return out
