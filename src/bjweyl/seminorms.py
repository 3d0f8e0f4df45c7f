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

__all__ = ["SeminormKind", "affine_interp", "seminorm", "seminorm_nodes", "squared_terms",
           "quotient_brackets"]


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


def _check_kind(kind: SeminormKind, vectors: bool) -> None:
    if vectors != (kind is SeminormKind.vector_norm):
        raise ValueError("vector_norm applies to vector sequences, the matrix "
                         "variants to matrix sequences")


def squared_terms(t: np.ndarray, kind: SeminormKind) -> np.ndarray:
    """The squared term functional of each term of the stack t, in one batched
    call: (..., d) vectors for vector_norm, (..., d, d) blocks otherwise.  Past
    the double range a square is ``inf``; no term may be non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is SeminormKind.vector_norm:
            return (t.conj()[..., None, :] @ t[..., :, None])[..., 0, 0].real
        # float_power squares with C pow, elementwise, as scalar ** 2 does
        sv = np.linalg.svd(t, compute_uv=False)
        return np.float_power(sv[..., 0] if kind is SeminormKind.matrix_norm else sv[..., -1], 2)


def seminorm_nodes(x: BlockVecSeq | BlockMatSeq, kind: SeminormKind, n1: int, n2: int) -> np.ndarray:
    """Squared partial sums at integer nodes n1..n2 (cumulative term functionals).

    The terms are evaluated in one batched call and are zero beyond the
    stored range.  A partial sum beyond the double range is ``inf``.
    """
    _check_kind(kind, x.terms.ndim == 2)
    if n1 < x.start:
        raise IndexError(f"index {n1} below start {x.start}")
    sq = squared_terms(x.terms[n1 - x.start:n2 - x.start + 1], kind)
    with np.errstate(over="ignore"):
        return np.cumsum(np.concatenate([sq, np.zeros(max(0, n2 - n1 + 1 - len(sq)))]))


def _seminorm_to(x: BlockVecSeq | BlockMatSeq, kind: SeminormKind, n1: int, t: float):
    """s -> the seminorm of x over [n1, s], for n1 <= s <= t, from one node array.

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

    def at(s: float) -> float:
        sq = float(nodes[-1]) if math.isinf(s) else affine_interp(nodes, s, start=n1)
        return math.ldexp(math.sqrt(sq), shift)

    return at


def seminorm(x: BlockVecSeq | BlockMatSeq, kind: SeminormKind, n1: int, t: float) -> float:
    """Interpolated seminorm of x over [n1, t]; t = math.inf sums the full stored tail.

    A squared sum beyond the double range still gives a finite seminorm.
    """
    return _seminorm_to(x, kind, n1, t)(t)


def quotient_brackets(
    x, y, kind: SeminormKind, n1: int, t: float
) -> dict:
    """Seminorm quotient at t together with integer-node brackets.

    The quotient of the two squared seminorms is monotone on each unit
    segment, so the value at t is bracketed by the node ratios at floor(t)
    and floor(t)+1.  One node array per sequence serves all three.
    """
    n = math.floor(t)
    num, den = _seminorm_to(x, kind, n1, t), _seminorm_to(y, kind, n1, t)
    if den(n) == 0.0:
        raise ZeroDivisionError(f"seminorm of denominator vanishes at node {n}")
    value = num(t) / den(t)
    ratios = {}
    for node in (n, n + 1):
        ratios[node] = num(node) / den(node) if den(node) > 0 else math.inf
    lo, hi = (n, n + 1) if ratios[n] <= ratios[n + 1] else (n + 1, n)
    return {"value": value, "lower_node": lo, "upper_node": hi,
            "lower": ratios[lo], "upper": ratios[hi]}
