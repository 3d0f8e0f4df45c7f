"""Complex d x d block arithmetic, parameter families and the formal operator.

The central object is :class:`JacobiParams`: the block sequences (A_n), (B_n)
with ``det A_n != 0`` and ``B_n = B_n*``.  Blocks are materialized lazily from
a rule into one array store, which every family, user rules included, enters
through ``JacobiParams.stack``; each new slab is checked there in one batched
call, and no store grows past ``HORIZON_CAP`` blocks.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "HORIZON_CAP",
    "check_cap",
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
HORIZON_CAP = 2 ** 20  # blocks in one store: the cost bound of every walk along n
# What numerical code raises when it cannot produce a value (LinAlgError and
# ParamsError are ValueErrors); callers that record a failure catch these.
NUMERICAL_ERRORS = (ArithmeticError, ValueError, IndexError)


class ParamsError(ValueError):
    """Raised when block data violates the invertibility/Hermitianity rules."""


def check_cap(N: int) -> None:
    """ValueError if a walk over N blocks would pass HORIZON_CAP."""
    if N > HORIZON_CAP:
        raise ValueError(f"{N} blocks requested, above the cap of {HORIZON_CAP} blocks")


def _as_block(a, d: int, n: int | None = None) -> np.ndarray:
    a, at = np.asarray(a, dtype=complex), "" if n is None else f" at n={n}"
    if a.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} block{at}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"block{at} contains non-finite entries")
    return a


def _finite(m: np.ndarray, what: str) -> np.ndarray:
    """m, computed under ``np.errstate``; an ArithmeticError naming what if it overflowed."""
    if not np.all(np.isfinite(m)):
        raise ArithmeticError(f"overflow: {what} is not finite")
    return m


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

    ``rule(n)`` must return a pair of d x d arrays (``make_family`` passes its
    one rule).  It is called once per index, by ``stack``, which keeps the
    pairs in one array store; ``A(n)``, ``B(n)`` and ``blocks(n)`` are views
    into it.  ``period`` is an L with (A_{n+L}, B_{n+L}) = (A_n, B_n) for every
    n.  Only ``make_family`` sets it, from its own lists; it is None where no
    period is known, and always for a rule given here.
    """

    d: int
    rule: Callable[[int], tuple[np.ndarray, np.ndarray]]
    bounded: bool = False  # uniformly bounded blocks => J self-adjoint
    period: int | None = field(default=None, init=False, compare=False)
    _store: np.ndarray = field(init=False, repr=False, compare=False)  # (2, capacity, d, d)
    _n: int = field(default=0, init=False, repr=False, compare=False)  # indices stored
    _bad: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._store = np.empty((2, 0, self.d, self.d), dtype=complex)

    def stack(self, N: int) -> tuple[np.ndarray, np.ndarray]:
        """(A_0..A_{N-1}, B_0..B_{N-1}) as two (N, d, d) views into the store.

        New indices get one ``rule`` call each, in order, and one batched check;
        a bad block raises for the lowest failing n (``_bad`` records them all).
        The store grows geometrically; N above HORIZON_CAP raises before any call.
        """
        check_cap(N)
        first, d = self._n, self.d
        try:
            if N > first:
                if N > self._store.shape[1]:
                    grown = np.empty((2, min(HORIZON_CAP, max(N, 2 * first)), d, d), dtype=complex)
                    grown[:, :first] = self._store[:, :first]
                    self._store = grown
                with np.errstate(over="ignore", invalid="ignore"):  # overflow: a non-finite block
                    for n in range(first, N):
                        self._store[:, n] = [_as_block(x, d, n) for x in self.rule(n)]
                        self._n = n + 1
        finally:  # pairs stored before a failure are kept and checked; the lowest bad n wins
            if self._n > first:
                self._bad += _violations(*self._store[:, first:self._n], first)
            if self._bad and (v := self._bad[0])["n"] < N:
                what = "singular A" if v["kind"] == "singular_A" else "non-Hermitian B"
                raise ParamsError(f"{what} at n={v['n']}")
        return self._store[0, :max(N, 0)], self._store[1, :max(N, 0)]

    def blocks(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return self.A(n), self.B(n)

    def A(self, n: int) -> np.ndarray:
        return self.stack(n + 1)[0][n]

    def B(self, n: int) -> np.ndarray:
        return self.stack(n + 1)[1][n]

    def solve_A(self, n: int, rhs: np.ndarray) -> np.ndarray:
        """A_n^{-1} rhs."""
        return np.linalg.solve(self.A(n), rhs)


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


def _violations(a: np.ndarray, b: np.ndarray, first: int) -> list[dict]:
    """Records of det A_n = 0 (numerically) and B_n != B_n* for the stacked
    blocks A_n = a[n - first], B_n = b[n - first], in index order, from one
    batched SVD and one batched norm."""
    sv = np.linalg.svd(a, compute_uv=False)
    herm = np.linalg.norm(b - b.conj().transpose(0, 2, 1), 2, axis=(1, 2))
    singular = sv[:, -1] <= SINGULAR_TOL * np.maximum(1.0, sv[:, 0])
    skew = herm > HERM_TOL * np.maximum(1.0, np.linalg.norm(b, 2, axis=(1, 2)))
    return [{"n": first + int(k), "kind": kind, "value": float(value[k])}
            for k in np.flatnonzero(singular | skew)
            for kind, hit, value in (("singular_A", singular, sv[:, -1]),
                                     ("non_hermitian_B", skew, herm)) if hit[k]]


def validate_params(p: JacobiParams, n_max: int) -> dict:
    """Check det A_n != 0 and B_n = B_n* for n = 0..n_max.

    Violations are data, not errors: returns ``{"ok": bool, "violations": [...]}``
    where each violation records the index, the kind and the offending scale,
    as the store found them; a finite family is checked up to its last block.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    with contextlib.suppress(ParamsError, IndexError):  # reported below; a finite family ends
        p.stack(n_max + 1)
    violations = [v for v in p._bad if v["n"] <= n_max]
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
    a, b = p.stack(n_max + 1)
    t = np.zeros((n_max + 2, p.d, 1), dtype=complex)
    t[:len(u.terms), :, 0] = u.terms[:n_max + 2]  # u_0..u_{n_max+1}, as d x 1 blocks
    out = b @ t[:-1] + a @ t[1:]
    out[1:] += a[:-1].conj().transpose(0, 2, 1) @ t[:-2]
    return BlockVecSeq(out[..., 0], start=0)


def cyclic_block_product(p: JacobiParams, k: int) -> np.ndarray:
    """C_k = (A_0 ... A_{k-1})* for k > 0, identity for k = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    prod = np.eye(p.d, dtype=complex)
    for a in p.stack(k)[0]:
        prod = prod @ a
    return prod.conj().T


# ---------------------------------------------------------------------------
# Built-in parameter families
# ---------------------------------------------------------------------------

FAMILY_KNOBS = {  # the knobs each built-in family reads, besides "name" and "d"
    "free": set(),
    "constant": {"A", "B"},
    "diagonal": {"components"},
    "periodic_modulated": {"A_period", "B_period", "growth"},
    "explicit": {"A", "B"},
}


def make_family(name: str, d: int, **knobs) -> JacobiParams:
    """Construct a built-in parameter family.

    Every family is a pair of block lists behind one rule,
    (A_n, B_n) = (a_list[n % len(a_list)] * (n+1)**growth, b_list[n % len(b_list)]);
    a finite family raises IndexError past its last listed block instead.

    free:                A_n = I, B_n = 0.
    constant:            fixed blocks (A, B).
    diagonal:            d scalar Jacobi families assembled on the diagonal;
                         knob ``components`` is a list of d dicts {"a": .., "b": ..}
                         (constants or explicit lists).  Scalars repeat; with a
                         list, the family ends after the shortest list's K terms.
    periodic_modulated:  period lists ``A_period``/``B_period`` with A_n scaled
                         by (n+1)**growth.
    explicit:            knobs ``A``/``B`` are explicit block lists, equally long.
    d < 1 and an empty period or block list raise ParamsError here; ``constant``
    and ``explicit`` blocks are checked here too.  ``period`` is the lcm of the
    two list lengths where the lists repeat unscaled (``free``, ``constant``,
    scalar ``diagonal``, ``periodic_modulated`` with growth 0), else None.
    """
    if d < 1:
        raise ParamsError(f"d must be >= 1, got {d}")
    if name not in FAMILY_KNOBS:
        raise ParamsError(f"unknown family {name!r}")
    growth, end, bounded = 0.0, None, True  # end: the IndexError text of a finite family

    if name == "free":
        a_list, b_list = np.eye(d, dtype=complex)[None], np.zeros((1, d, d), dtype=complex)
    elif name == "constant":
        a_list, b_list = [_as_block(knobs["A"], d)], [_as_block(knobs["B"], d)]
    elif name == "diagonal":
        comps = knobs["components"]
        if len(comps) != d:
            raise ParamsError(f"diagonal family needs {d} scalar components, got {len(comps)}")
        sides = [[complex(c[k]) if np.isscalar(c[k]) else [complex(v) for v in c[k]]
                  for c in comps] for k in ("a", "b")]
        lists = [v for side in sides for v in side if isinstance(v, list)]
        K, bounded = min(map(len, lists), default=1), not lists
        end = f"scalar family materialized beyond its {K} listed terms" if lists else None
        a_list, b_list = blocks = np.zeros((2, K, d, d), dtype=complex)
        blocks[:, :, range(d), range(d)] = np.array(  # the diagonals of all 2K blocks at once
            [[v[:K] if isinstance(v, list) else [v] * K for v in side] for side in sides],
            dtype=complex).transpose(0, 2, 1)
    elif name == "periodic_modulated":
        a_list, b_list = ([_as_block(x, d) for x in knobs[k]] for k in ("A_period", "B_period"))
        growth = float(knobs.get("growth", 0.0))
        if not a_list or not b_list:
            raise ParamsError("A_period and B_period must be non-empty")
        bounded = growth == 0.0
    else:  # explicit
        a_list, b_list = ([_as_block(x, d) for x in knobs[k]] for k in ("A", "B"))
        if not a_list or len(a_list) != len(b_list):
            raise ParamsError(f"explicit family needs as many A as B blocks and at least one, "
                              f"got {len(a_list)} and {len(b_list)}")
        end = f"explicit family materialized beyond its {len(a_list)} listed blocks"

    def rule(n):  # an overflowing scale gives a non-finite block, named by the store
        if end is not None and n >= len(a_list):
            raise IndexError(end)
        return a_list[n % len(a_list)] * np.float64(n + 1) ** growth, b_list[n % len(b_list)]

    p = JacobiParams(d, rule, bounded=bounded)
    if end is None and growth == 0.0:
        p.period = int(np.lcm(len(a_list), len(b_list)))
    if name in ("constant", "explicit"):
        p.stack(len(a_list))  # a bad pair fails here, as the family is built
    return p
