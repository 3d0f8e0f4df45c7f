"""Generalized eigenvectors, matrix orthogonal polynomials and the
non-homogeneous solver.

The three-term recurrence

    A_{n-1}* u_{n-1} + B_n u_n + A_n u_{n+1} = z u_n

is solved forward from initial data at (0, 1) or at (-1, 0); the index -1
extension uses the convention A_{-1} = -I.  P and Q are the matrix solutions
with initial data (0, I) and (I, 0) at (-1, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcore import BlockMatSeq, BlockVecSeq, JacobiParams, scaled_eye

__all__ = [
    "GevSolution",
    "MgevSolution",
    "PolyPair",
    "solve_forward",
    "extend_to_minus_one",
    "compute_PQ",
    "decompose",
    "solve_nonhomogeneous",
    "columns_as_gev_check",
    "recurrence_residual",
]


@dataclass(frozen=True)
class GevSolution:
    z: complex
    seq: BlockVecSeq


@dataclass(frozen=True)
class MgevSolution:
    z: complex
    seq: BlockMatSeq


@dataclass(frozen=True)
class PolyPair:
    """First/second kind matrix orthogonal polynomial values P_n(z), Q_n(z)."""

    z: complex
    P: BlockMatSeq  # start -1
    Q: BlockMatSeq
    n_max: int


def _a_prev_adj(a: np.ndarray, n: int) -> np.ndarray:
    """A_{n-1}* from the stacked A blocks, with the a-priori choice A_{-1} = -I."""
    if n == 0:
        return -np.eye(a.shape[-1], dtype=complex)
    return a[n - 1].conj().T


def _steps(p: JacobiParams, z, c_prev: np.ndarray, c_cur: np.ndarray,
           first_n: int, n_max: int) -> np.ndarray:
    """The stacked terms u_{first_n-1}, ..., u_{n_max} of the forward recurrence
    from c_prev/c_cur at indices first_n-1, first_n, unchecked: past the double
    range a term is left inf or nan.

    An array z is one walk for all its values, each step one solve with A_n:
    matrix terms of shape (..., *z.shape, d, d), each bit-identical to the walk
    at that z alone.
    """
    (a, b), zi = p.stack(n_max), scaled_eye(z, p.d)
    out = np.empty((n_max - first_n + 2, *np.broadcast_shapes(c_prev.shape, c_cur.shape)),
                   dtype=complex)
    out[0], out[1] = c_prev, c_cur
    with np.errstate(over="ignore", invalid="ignore"):  # the callers check
        for i, n in enumerate(range(first_n, n_max), 2):
            rhs = (zi - b[n]) @ out[i - 1] - _a_prev_adj(a, n) @ out[i - 2]
            out[i] = np.linalg.solve(a[n], rhs)
    return out


def _first_bad(terms: np.ndarray, first_index: int, series_ndim: int = 0) -> np.ndarray:
    """Per series of a walk's terms (n, *series, *term) from first_index: the index of its
    first non-finite term, or inf."""
    ok = np.isfinite(terms).reshape(*terms.shape[:1 + series_ndim], -1).all(axis=-1)
    index = np.arange(first_index, first_index + len(terms)).reshape(-1, *[1] * series_ndim)
    return np.where(ok, np.inf, index).min(axis=0)


def _check_bad(first_bad: np.ndarray) -> None:
    """A ValueError naming the first non-finite term of the first series that has one."""
    for n in np.ravel(first_bad):
        if n < np.inf:
            raise ValueError(f"recurrence overflows: term at n={int(n)} is not finite")


def _pq_start(d: int, shape: tuple = ()) -> np.ndarray:
    """P and Q at indices -1 and 0, (0, I) and (I, 0): (2 terms, P/Q, *shape, d, d)."""
    start = np.zeros((2, 2, *shape, d, d), dtype=complex)
    start[0, 1] = start[1, 0] = np.eye(d)
    return start


def _pq_pair(p: JacobiParams, z: complex, n_max: int) -> np.ndarray:
    """P and Q at (z, conj z) to n_max in one walk, (n, P/Q, z/conj z, d, d) from index -1;
    an overflow is named as by two ``compute_PQ`` calls: P(z), Q(z), P(conj z), Q(conj z)."""
    terms = _steps(p, np.array([z, np.conj(z)]), *_pq_start(p.d, (2,)), 0, n_max)
    _check_bad(_first_bad(terms, -1, 2).T)
    return terms


def solve_forward(p: JacobiParams, z: complex, init, mode: str = "from01",
                  matrix: bool = False, n_max: int = 1):
    """Unique (m)gev with the given initial data, terms up to index n_max.

    mode "from01": init = (u_0, u_1), result starts at 0.
    mode "from_minus1": init = (u_{-1}, u_0), result starts at -1 and
    satisfies the extended recurrence (A_{-1} = -I) at n = 0.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    d = p.d
    shape = (d, d) if matrix else (d,)
    c_a = np.asarray(init[0], dtype=complex).reshape(shape)
    c_b = np.asarray(init[1], dtype=complex).reshape(shape)
    if mode not in ("from01", "from_minus1"):
        raise ValueError(f"unknown mode {mode!r}")
    start = 0 if mode == "from01" else -1
    arr = _steps(p, z, c_a, c_b, start + 1, n_max)
    _check_bad(_first_bad(arr, start))
    if matrix:
        return MgevSolution(z, BlockMatSeq(arr, start=start))
    return GevSolution(z, BlockVecSeq(arr, start=start))


def extend_to_minus_one(p: JacobiParams, z: complex, u):
    """Prepend the index -1 term (B_0 - zI) u_0 + A_0 u_1; other terms unchanged."""
    seq = u.seq
    if seq.start != 0:
        raise ValueError("solution already starts at -1")
    eye = np.eye(p.d, dtype=complex)
    t_minus1 = (p.B(0) - z * eye) @ seq.term(0) + p.A(0) @ seq.term(1)
    arr = np.concatenate([t_minus1[None], seq.terms])
    if isinstance(u, MgevSolution):
        return MgevSolution(z, BlockMatSeq(arr, start=-1))
    return GevSolution(z, BlockVecSeq(arr, start=-1))


def compute_PQ(p: JacobiParams, z, n_max: int) -> PolyPair:
    """P and Q up to index n_max, from the (-1, 0) initial data (0, I) / (I, 0),
    in one walk; an overflow of P is named before one of Q.  z is one number."""
    if np.ndim(z) != 0:
        raise ValueError(f"compute_PQ takes one z, got an array of shape {np.shape(z)}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    terms = _steps(p, z, *_pq_start(p.d), 0, n_max)  # (n, P/Q, d, d)
    _check_bad(_first_bad(terms, -1, 1))
    return PolyPair(z, *(BlockMatSeq(terms[:, i], start=-1) for i in (0, 1)), n_max)


def decompose(u: MgevSolution) -> tuple[np.ndarray, np.ndarray]:
    """The unique (S, T) with U = P(z) S + Q(z) T; S = U_0, T = U_{-1}."""
    if u.seq.start != -1:
        raise ValueError("decompose expects an extended solution starting at -1")
    return u.seq.term(0).copy(), u.seq.term(-1).copy()


def solve_nonhomogeneous(p: JacobiParams, z: complex, F: BlockMatSeq, n_max: int) -> BlockMatSeq:
    """Closed-form solution of the non-homogeneous matrix recurrence.

    Returns S with S_{-1} = S_0 = 0 and
    A_n S_{n+1} + B_n S_n + A_{n-1}* S_{n-1} = z S_n + F_n for n >= 0, via

        S_n = sum_{k<n} (Q_n(z) P_k(conj z)* - P_n(z) Q_k(conj z)*) F_k
            = Q_n(z) C_n - P_n(z) D_n,

    with C_n, D_n the prefix sums of P_k(conj z)* F_k and Q_k(conj z)* F_k.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if F.start != 0:
        raise ValueError("F must start at index 0")
    pq = _pq_pair(p, z, n_max)  # (n, P/Q, z/conj z, d, d)
    f = np.zeros((n_max, p.d, p.d), dtype=complex)  # F_0..F_{n_max-1}, zero past F's end
    f[:len(F.terms)] = F.terms[:n_max]
    c, dq = (np.cumsum(pq[1:-1, i, 1].conj().transpose(0, 2, 1) @ f, axis=0)
             for i in (0, 1))  # C_1..C_{n_max}, D_1..D_{n_max}
    out = np.zeros((n_max + 2, p.d, p.d), dtype=complex)  # indices -1..n_max
    out[2:] = pq[2:, 1, 0] @ c - pq[2:, 0, 0] @ dq
    return BlockMatSeq(out, start=-1)


def recurrence_residual(p: JacobiParams, z: complex, seq) -> float:
    """Max relative residual of the (extended) recurrence over the stored range.

    The residual at n is scaled by max(1, neighboring term norms) because
    solutions can grow exponentially.
    """
    a, b = p.stack(seq.last_index)
    n = slice(0 if seq.start == -1 else 1, seq.last_index)
    adj = np.concatenate([-np.eye(p.d, dtype=complex)[None], a.conj().transpose(0, 2, 1)])
    t = seq.terms.reshape(len(seq.terms), p.d, -1)  # a vector term as a d x 1 block
    lhs = b[n] @ t[1:-1] + a[n] @ t[2:] + adj[n] @ t[:-2]  # adj[n] = A_{n-1}*, A_{-1} = -I
    res = np.linalg.norm(lhs - z * t[1:-1], axis=(1, 2))
    norm = np.linalg.norm(t, axis=(1, 2))
    scale = np.maximum.reduce([np.ones_like(res), norm[:-2], norm[1:-1], norm[2:]])
    return float(np.max(res / scale, initial=0.0))


def columns_as_gev_check(p: JacobiParams, u: MgevSolution, v=None) -> dict:
    """Verify each column of U, and optionally the contraction U v, solves the
    vector recurrence; returns the max relative residual."""
    worst = 0.0
    for j in range(p.d):
        col = GevSolution(u.z, u.seq.column(j))
        worst = max(worst, recurrence_residual(p, u.z, col.seq))
    if v is not None:
        v = np.asarray(v, dtype=complex)
        contr = BlockVecSeq(u.seq.terms @ v, start=u.seq.start)
        worst = max(worst, recurrence_residual(p, u.z, contr))
    return {"max_residual": worst}
