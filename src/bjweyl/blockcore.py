"""Complex d x d block arithmetic, parameter families and the formal operator.

The central object is :class:`JacobiParams`: the block sequences (A_n), (B_n)
with ``det A_n != 0`` and ``B_n = B_n*``.  Blocks are materialized lazily from
a rule and cached together with an LU factorization of each A_n, since the
recurrence solvers reuse the same factorization across many spectral
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "BlockVecSeq",
    "BlockMatSeq",
    "JacobiParams",
    "ParamsError",
    "validate_params",
    "matrix_functionals",
    "apply_formal",
    "cyclic_block_product",
    "make_family",
    "delta_seq",
]

HERM_TOL = 1e-10
SINGULAR_TOL = 1e-10


class ParamsError(ValueError):
    """Raised when block data violates the invertibility/Hermitianity rules;
    ``violations`` holds the offending pair's records as validate_params reports them."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)


def _as_block(a, d: int) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} block, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("block contains non-finite entries")
    return a


@dataclass(frozen=True)
class _BlockSeq:
    """A finite sequence of terms of one shape starting at index -1 or 0."""

    terms: np.ndarray  # shape (n_terms, d) or (n_terms, d, d)
    start: int = 0
    _term_ndim = 1  # axes of one term; a class constant, not a field

    def __post_init__(self):
        t = np.asarray(self.terms, dtype=complex)
        if t.ndim != 1 + self._term_ndim or len(set(t.shape[1:])) != 1:
            raise ValueError(f"terms must be a (n_terms{', d' * self._term_ndim}) array")
        if self.start not in (-1, 0):
            raise ValueError("start index must be -1 or 0")
        if not np.all(np.isfinite(t)):
            raise ValueError("sequence contains non-finite entries")
        object.__setattr__(self, "terms", t)

    @property
    def d(self) -> int:
        return self.terms.shape[1]

    @property
    def last_index(self) -> int:
        return self.start + len(self.terms) - 1

    def term(self, n: int) -> np.ndarray:
        """Term at logical index n; zero beyond the stored range (l_fin embedding)."""
        i = n - self.start
        if i < 0:
            raise IndexError(f"index {n} below start {self.start}")
        if i >= len(self.terms):
            return np.zeros(self.terms.shape[1:], dtype=complex)
        return self.terms[i]


@dataclass(frozen=True)
class BlockVecSeq(_BlockSeq):
    """A finite sequence of C^d vectors starting at index -1 or 0."""


@dataclass(frozen=True)
class BlockMatSeq(_BlockSeq):
    """A finite sequence of d x d blocks starting at index -1 or 0."""

    _term_ndim = 2

    def column(self, j: int) -> BlockVecSeq:
        return BlockVecSeq(self.terms[:, :, j], start=self.start)


def delta_seq(n: int, v, d: int | None = None) -> BlockVecSeq:
    """The sequence with vector v at position n and zeros elsewhere."""
    v = np.asarray(v, dtype=complex)
    if d is None:
        d = len(v)
    terms = np.zeros((n + 1, d), dtype=complex)
    terms[n] = v
    return BlockVecSeq(terms, start=0)


@dataclass
class JacobiParams:
    """Block Jacobi parameters: a rule producing (A_n, B_n) for n >= 0.

    ``rule(n)`` must return a pair of d x d arrays.  Blocks are cached on
    first access, together with an LU factorization of A_n.
    """

    d: int
    rule: Callable[[int], tuple[np.ndarray, np.ndarray]]
    family_tag: str = "explicit"
    bounded: bool = False  # uniformly bounded blocks => J self-adjoint
    _cache: dict = field(default_factory=dict, repr=False)
    _lu_cache: dict = field(default_factory=dict, repr=False)

    def blocks(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n < 0:
            raise IndexError("block index must be >= 0")
        if n not in self._cache:
            a, b = self.rule(n)
            self._cache[n] = (_as_block(a, self.d), _as_block(b, self.d))
        return self._cache[n]

    def A(self, n: int) -> np.ndarray:
        return self.blocks(n)[0]

    def B(self, n: int) -> np.ndarray:
        return self.blocks(n)[1]

    def solve_A(self, n: int, rhs: np.ndarray) -> np.ndarray:
        """A_n^{-1} rhs via a cached LU factorization."""
        if n not in self._lu_cache:
            self._lu_cache[n] = scipy.linalg.lu_factor(self.A(n))
        return scipy.linalg.lu_solve(self._lu_cache[n], rhs)


def matrix_functionals(a) -> dict:
    """Minimum modulus, Hilbert-Schmidt norm and Hermitian real/imaginary parts.

    minmod is the smallest singular value (0 for singular matrices,
    1/||A^{-1}|| otherwise); re = (A + A*)/2, im = (A - A*)/(2i).
    """
    a = np.asarray(a, dtype=complex)
    sv = np.linalg.svd(a, compute_uv=False)
    return {
        "minmod": float(sv[-1]),
        "hs": float(np.linalg.norm(a, "fro")),
        "re": (a + a.conj().T) / 2,
        "im": (a - a.conj().T) / 2j,
    }


def _pair_violations(a: np.ndarray, b: np.ndarray, n: int) -> list[dict]:
    """Records of det A_n = 0 (numerically) and B_n != B_n* for one block pair."""
    found = []
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= SINGULAR_TOL * max(1.0, sv[0]):
        found.append({"n": n, "kind": "singular_A", "value": float(sv[-1])})
    herm = np.linalg.norm(b - b.conj().T, 2)
    if herm > HERM_TOL * max(1.0, np.linalg.norm(b, 2)):
        found.append({"n": n, "kind": "non_hermitian_B", "value": float(herm)})
    return found


def _check_pair(a: np.ndarray, b: np.ndarray, n: int) -> None:
    found = _pair_violations(a, b, n)
    if found:
        what = "singular A" if found[0]["kind"] == "singular_A" else "non-Hermitian B"
        raise ParamsError(f"{what} at n={n}", found)


def validate_params(p: JacobiParams, n_max: int) -> dict:
    """Check det A_n != 0 and B_n = B_n* for n = 0..n_max.

    Violations are data, not errors: returns ``{"ok": bool, "violations": [...]}``
    where each violation records the index, the kind and the offending scale.
    A family whose rule rejects a pair contributes the records its
    ``ParamsError`` carries; a finite family is checked up to its last block.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    violations = []
    for n in range(n_max + 1):
        try:
            violations += _pair_violations(*p.blocks(n), n)
        except IndexError:
            break
        except ParamsError as exc:
            if not exc.violations:
                raise
            violations += exc.violations
    return {"ok": not violations, "violations": violations}


def apply_formal(p: JacobiParams, u: BlockVecSeq, n_max: int) -> BlockVecSeq:
    """Apply the formal block-tridiagonal operator to a sequence.

    Term 0 is B_0 u_0 + A_0 u_1; term n >= 1 is
    A_{n-1}* u_{n-1} + B_n u_n + A_n u_{n+1}.  Finite sequences are implicitly
    zero-padded beyond their last stored term.
    """
    if u.start != 0:
        raise ValueError("apply_formal expects a sequence starting at 0")
    if u.d != p.d:
        raise ValueError("dimension mismatch between params and sequence")
    out = np.zeros((n_max + 1, p.d), dtype=complex)
    for n in range(n_max + 1):
        acc = p.B(n) @ u.term(n) + p.A(n) @ u.term(n + 1)
        if n >= 1:
            acc = acc + p.A(n - 1).conj().T @ u.term(n - 1)
        out[n] = acc
    return BlockVecSeq(out, start=0)


def cyclic_block_product(p: JacobiParams, k: int) -> np.ndarray:
    """C_k = (A_0 ... A_{k-1})* for k > 0, identity for k = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    prod = np.eye(p.d, dtype=complex)
    for n in range(k):
        prod = prod @ p.A(n)
    return prod.conj().T


# ---------------------------------------------------------------------------
# Built-in parameter families
# ---------------------------------------------------------------------------

def _scalar_rule(values):
    """Interpret a knob as a constant or an explicit list of scalars."""
    if np.isscalar(values):
        c = complex(values)
        return lambda n: c
    vals = [complex(v) for v in values]

    def rule(n):
        if n >= len(vals):
            raise IndexError(f"scalar family materialized beyond its {len(vals)} listed terms")
        return vals[n]

    return rule


def make_family(name: str, d: int, **knobs) -> JacobiParams:
    """Construct a built-in parameter family.

    free:                A_n = I, B_n = 0.
    constant:            fixed blocks (A, B).
    diagonal:            d scalar Jacobi families assembled on the diagonal;
                         knob ``components`` is a list of d dicts {"a": .., "b": ..}
                         (constants or explicit lists).
    periodic_modulated:  period lists ``A_period``/``B_period`` with A_n scaled
                         by (n+1)**growth.
    explicit:            knobs ``A``/``B`` are explicit block lists.
    """
    eye = np.eye(d, dtype=complex)
    zero = np.zeros((d, d), dtype=complex)

    if name == "free":
        return JacobiParams(d, lambda n: (eye, zero), family_tag="free", bounded=True)

    if name == "constant":
        a = _as_block(np.asarray(knobs["A"], dtype=complex), d)
        b = _as_block(np.asarray(knobs["B"], dtype=complex), d)
        _check_pair(a, b, 0)
        return JacobiParams(d, lambda n: (a, b), family_tag="constant", bounded=True)

    if name == "diagonal":
        comps = knobs["components"]
        if len(comps) != d:
            raise ParamsError(f"diagonal family needs {d} scalar components, got {len(comps)}")
        a_rules = [_scalar_rule(c["a"]) for c in comps]
        b_rules = [_scalar_rule(c["b"]) for c in comps]

        def rule(n):
            a = np.diag([r(n) for r in a_rules]).astype(complex)
            b = np.diag([r(n) for r in b_rules]).astype(complex)
            _check_pair(a, b, n)
            return a, b

        bounded = all(np.isscalar(c["a"]) and np.isscalar(c["b"]) for c in comps)
        return JacobiParams(d, rule, family_tag="diagonal", bounded=bounded)

    if name == "periodic_modulated":
        a_period = [_as_block(np.asarray(a, dtype=complex), d) for a in knobs["A_period"]]
        b_period = [_as_block(np.asarray(b, dtype=complex), d) for b in knobs["B_period"]]
        growth = float(knobs.get("growth", 0.0))

        def rule(n):
            a = a_period[n % len(a_period)] * (n + 1) ** growth
            b = b_period[n % len(b_period)]
            _check_pair(a, b, n)
            return a, b

        return JacobiParams(d, rule, family_tag="periodic_modulated", bounded=(growth == 0.0))

    if name == "explicit":
        a_list = [_as_block(np.asarray(a, dtype=complex), d) for a in knobs["A"]]
        b_list = [_as_block(np.asarray(b, dtype=complex), d) for b in knobs["B"]]
        for n, (a, b) in enumerate(zip(a_list, b_list)):
            _check_pair(a, b, n)

        def rule(n):
            if n >= len(a_list) or n >= len(b_list):
                raise IndexError(f"explicit family materialized beyond its {len(a_list)} listed blocks")
            return a_list[n], b_list[n]

        return JacobiParams(d, rule, family_tag="explicit", bounded=True)

    raise ParamsError(f"unknown family {name!r}")

