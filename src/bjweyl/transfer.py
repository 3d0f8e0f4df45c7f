"""One-step and n-step transfer matrices, structured inverses and the
Liouville-Ostrogradsky identities.

The n-th one-step transfer matrix (2d x 2d, with the A_{-1} = -I convention
at n = 0) propagates consecutive solution pairs; the accumulated product
carries the P/Q polynomials in its blocks.  Its inverse has a closed form in
terms of the product at the conjugate spectral parameter, which is what
``transfer_nstep`` uses (never a numeric inversion).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .blockcore import JacobiParams, _finite, scaled_eye
from .solutions import _a_prev_adj, compute_PQ

__all__ = [
    "transfer_step",
    "transfer_nstep",
    "omega_identity_residual",
    "lo_residual",
]


def _step(p: JacobiParams, z, n: int) -> np.ndarray:
    """T_n(z) = [[0, I], [-A_n^{-1} A_{n-1}*, A_n^{-1}(zI - B_n)]]; a z.shape + (2d, 2d)
    stack for an array z, each entry bit-identical to the step at that z alone."""
    (a, b), d = p.stack(n + 1), p.d
    zi = scaled_eye(z, d)
    t = np.zeros(zi.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    t[..., :d, d:] = np.eye(d)
    t[..., d:, :d] = -np.linalg.solve(a[n], _a_prev_adj(a, n))
    t[..., d:, d:] = np.linalg.solve(a[n], zi - b[n])
    return t


def _omega(d: int) -> np.ndarray:
    """Omega = [[0, I], [-I, 0]], 2d x 2d."""
    return np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(d)).astype(complex)


def _chain(p: JacobiParams, z, n: int):
    """Yield the running products R_1 = T_0, R_2 = T_1 T_0, ..., R_n = T_{n-1} ... T_0;
    an array z is one chain for all its values, as in ``_step``."""
    r = None
    p.stack(n)  # the chain's blocks enter the store, checked, in one slab
    for k in range(n):
        r = _step(p, z, k) if r is None else _step(p, z, k) @ r
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

    The inverse is the closed form in terms of R_n(conj z), from one chain at (z, conj z):

        R_n(z)^{-1} = [[0, I], [-I, 0]] R_n(conj z)* [[0, A_{n-1}], [-A_{n-1}*, 0]].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a_last = p.A(n - 1)
    right = np.block([[np.zeros_like(a_last), a_last], [-a_last.conj().T, np.zeros_like(a_last)]])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        r, rb = deque(_chain(p, np.array([z, np.conj(z)]), n), maxlen=1)[0]  # the last R_n
        r_inv = _omega(p.d) @ rb.conj().T @ right
    return {"R": _finite(r, f"R_n at n={n}"), "R_inv": _finite(r_inv, f"R_n^-1 at n={n}")}


def omega_identity_residual(p: JacobiParams, z: complex, n: int) -> float:
    """Relative residual of the symplectic-type conjugation identity.

    R~_n = K_{n-1} R_n K_{-1}^{-1}, the product of the rescaled steps K_k T_k K_{k-1}^{-1}
    (K_m = diag(A_m*, I), K_{-1}^{-1} = diag(-I, I)), is read off one chain at (z, conj z).
    Returns ||Omega - R~(conj z)* Omega R~(z)|| scaled by max(1, ||R~(conj z)|| ||R~(z)||);
    the factors grow exponentially in n, so the raw defect is meaningless.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d, omega = p.d, _omega(p.d)
    a_last_adj, k_first_inv = p.A(n - 1).conj().T, np.repeat([-1.0, 1.0], d)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        r, rb = deque(_chain(p, np.array([z, np.conj(z)]), n), maxlen=1)[0]  # the last R_n
        rt, rtb = (np.vstack([a_last_adj @ m[:d], m[d:]]) * k_first_inv for m in (r, rb))
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

    def defect(j: int, target: np.ndarray, name: str) -> float:
        pj, qj = pq_wb.P.term(j), pq_wb.Q.term(j)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            m = _finite(qk @ pj.conj().T - pk @ qj.conj().T - target, f"the {name} defect at k={k}")
        return norm(m) / max(1.0, norm(qk) * norm(pj), norm(pk) * norm(qj), norm(target))

    # r1 first: its overflow is the one raised when both overflow
    return {"r1": defect(k, np.zeros_like(qk), "r1"),
            "r2": defect(k - 1, np.linalg.inv(p.A(k - 1)), "r2") if k >= 1 else float("nan")}
