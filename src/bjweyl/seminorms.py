"""Interpolated seminorm families for vector and matrix block sequences.

The squared seminorm over [n1, t] is the affine interpolation (in t) of its
integer-node partial sums, with one of three per-term functionals: the C^d
norm, the matrix operator norm, or the matrix minimum modulus.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .blockcore import BlockMatSeq, BlockVecSeq

__all__ = ["SeminormKind", "affine_interp", "seminorm", "seminorm_nodes", "quotient_brackets"]


class SeminormKind(str, Enum):
    vector_norm = "vector_norm"
    matrix_norm = "matrix_norm"
    matrix_minmod = "matrix_minmod"


def affine_interp(f, t: float, start: int = 0) -> float:
    """Piecewise-affine interpolation of the sequence f (indexed from start).

    Agrees with f at integers; for non-integers interpolates linearly on the
    surrounding unit segment.
    """
    if t < start:
        raise ValueError(f"t={t} below start index {start}")
    i = math.floor(t) - start
    frac = t - math.floor(t)
    if frac == 0.0:
        return float(f[i])
    if i + 1 >= len(f):
        raise ValueError("t beyond the interpolable range of f")
    return float(f[i]) + frac * (float(f[i + 1]) - float(f[i]))


def _term_sq(x, kind: SeminormKind) -> np.float64:
    # numpy scalars: an overflowing square is inf, not an OverflowError
    if kind is SeminormKind.vector_norm:
        return np.vdot(x, x).real
    if kind is SeminormKind.matrix_norm:
        return np.linalg.norm(x, 2) ** 2
    if kind is SeminormKind.matrix_minmod:
        return np.linalg.svd(x, compute_uv=False)[-1] ** 2
    raise ValueError(kind)


def seminorm_nodes(x: BlockVecSeq | BlockMatSeq, kind: SeminormKind, n1: int, n2: int) -> np.ndarray:
    """Squared partial sums at integer nodes n1..n2 (cumulative term functionals).

    A partial sum beyond the double range is ``inf``.
    """
    if (x.terms.ndim == 2) != (kind is SeminormKind.vector_norm):
        raise ValueError("vector_norm applies to vector sequences, the matrix "
                         "variants to matrix sequences")
    with np.errstate(over="ignore"):
        sq = np.array([_term_sq(x.term(k), kind) for k in range(n1, n2 + 1)])
        return np.cumsum(sq)


def seminorm(x: BlockVecSeq | BlockMatSeq, kind: SeminormKind, n1: int, t: float) -> float:
    """Interpolated seminorm of x over [n1, t]; t = math.inf sums the full stored tail.

    Squared sums past the double range are redone on the terms times 2**-shift
    (exact in binary, largest entry in [1/2, 1)); the root is scaled back.
    """
    if n1 < x.start:
        raise ValueError(f"n1={n1} below start index {x.start}")
    if t < n1:
        raise ValueError(f"t={t} below n1={n1}")
    n2 = x.last_index if math.isinf(t) else math.floor(t) + 1
    nodes, shift = seminorm_nodes(x, kind, n1, n2), 0
    if not np.isfinite(nodes[-1]):
        shift = math.frexp(float(np.max(np.abs(x.terms[n1 - x.start:n2 - x.start + 1]))))[1]
        nodes = seminorm_nodes(type(x)(x.terms * math.ldexp(1.0, -shift), start=x.start),
                               kind, n1, n2)
    sq = float(nodes[-1]) if math.isinf(t) else affine_interp(nodes, t, start=n1)
    return math.ldexp(math.sqrt(sq), shift)


def quotient_brackets(
    x, y, kind: SeminormKind, n1: int, t: float
) -> dict:
    """Seminorm quotient at t together with integer-node brackets.

    The quotient of the two squared seminorms is monotone on each unit
    segment, so the value at t is bracketed by the node ratios at floor(t)
    and floor(t)+1.
    """
    n = math.floor(t)
    denom_n = seminorm(y, kind, n1, n)
    if denom_n == 0.0:
        raise ZeroDivisionError(f"seminorm of denominator vanishes at node {n}")
    value = seminorm(x, kind, n1, t) / seminorm(y, kind, n1, t)
    ratios = {}
    for node in (n, n + 1):
        denom = seminorm(y, kind, n1, node)
        ratios[node] = seminorm(x, kind, n1, node) / denom if denom > 0 else math.inf
    lo, hi = (n, n + 1) if ratios[n] <= ratios[n + 1] else (n + 1, n)
    return {"value": value, "lower_node": lo, "upper_node": hi,
            "lower": ratios[lo], "upper": ratios[hi]}
