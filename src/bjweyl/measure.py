"""Discrete matrix measures: quadrature from finite sections, trace views,
Cauchy transforms and decomposition against a discrete reference.

Only atomic measures are stored.  Atoms carry positive-semidefinite d x d
weights, are kept sorted by location, and locations within
1e-12 * max(1, |lambda|) of each other merge by weight addition (eigensolver
jitter would otherwise split multiplicities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcore import JacobiParams
from .weyl import finite_section

__all__ = [
    "DiscreteMatrixMeasure",
    "TraceDensityView",
    "quadrature_measure",
    "trace_views",
    "cauchy_transform",
    "density_integral",
    "decompose_vs_reference",
    "diagonal_compose",
]

MERGE_TOL = 1e-12
PSD_TOL = 1e-10


def _not_psd(w: np.ndarray):
    """Whether a (d, d) matrix, or each of a (K, d, d) stack, fails to be PSD:
    its Hermitian defect or most negative eigenvalue passes PSD_TOL times
    max(1, largest eigenvalue) (1 where that is NaN)."""
    wh = np.swapaxes(w.conj(), -1, -2)
    ev = np.linalg.eigvalsh((w + wh) / 2)
    scale = np.fmax(1.0, ev[..., -1])
    return ((np.linalg.norm(w - wh, 2, axis=(-2, -1)) > PSD_TOL * scale)
            | (ev[..., 0] < -PSD_TOL * scale))


def _coincide(lam: float, x) -> bool:
    """Whether x lies within MERGE_TOL * max(1, |lam|) of the location lam."""
    return abs(lam - x) <= MERGE_TOL * max(1.0, abs(lam))


def _merge(pairs, d: int):
    """Sort by location and merge near-coincident atoms."""
    pairs = sorted(pairs, key=lambda a: a[0])
    out: list[tuple[float, np.ndarray]] = []
    for lam, w in pairs:
        w = np.asarray(w, dtype=complex)
        if w.shape != (d, d):
            raise ValueError(f"weight shape {w.shape}, expected ({d}, {d})")
        if out and _coincide(lam, out[-1][0]):
            out[-1] = (out[-1][0], out[-1][1] + w)
        else:
            out.append((float(lam), w.copy()))
    return out


@dataclass(frozen=True)
class DiscreteMatrixMeasure:
    """Atoms (lambda_k, W_k) with W_k PSD, sorted, duplicates merged."""

    atoms: tuple
    d: int

    @staticmethod
    def from_pairs(pairs, d: int) -> "DiscreteMatrixMeasure":
        merged = _merge(pairs, d)
        bad = _not_psd(np.array([w for _, w in merged]).reshape(len(merged), d, d))
        if bad.any():
            raise ValueError(f"atom at {merged[np.argmax(bad)][0]} has a non-PSD weight")
        return DiscreteMatrixMeasure(tuple(merged), d)

    def total_mass(self) -> np.ndarray:
        out = np.zeros((self.d, self.d), dtype=complex)
        for _, w in self.atoms:
            out += w
        return out

    def restrict(self, keep) -> "DiscreteMatrixMeasure":
        """Sub-measure on a subset of atom indices."""
        pairs = [self.atoms[i] for i in sorted(set(keep))]
        return DiscreteMatrixMeasure(tuple(pairs), self.d)


@dataclass(frozen=True)
class TraceDensityView:
    """Per-atom trace t_k and normalized density D_k = W_k / t_k."""

    atoms: tuple  # (lambda_k, t_k, D_k)
    dropped: int  # zero-trace atoms removed (they are the zero measure)


def quadrature_measure(p: JacobiParams, N: int) -> DiscreteMatrixMeasure:
    """Atomic spectral approximation from the N-block section.

    Atoms sit at section eigenvalues; the weight is the outer product of the
    first d-block of the unit eigenvector.  Total mass is the identity.
    """
    evals, evecs = np.linalg.eigh(finite_section(p, N).H)
    top = evecs[:p.d].T  # row k: the first d-block of eigenvector k
    weights = top[:, :, None] * top.conj()[:, None, :]
    return DiscreteMatrixMeasure.from_pairs(zip(map(float, evals), weights), p.d)


def trace_views(m: DiscreteMatrixMeasure) -> TraceDensityView:
    out = []
    dropped = 0
    for lam, w in m.atoms:
        t = float(np.trace(w).real)
        if t <= 0.0:
            dropped += 1
            continue
        out.append((lam, t, w / t))
    return TraceDensityView(tuple(out), dropped)


def cauchy_transform(m: DiscreteMatrixMeasure, z: complex) -> np.ndarray:
    """Sum of W_k / (lambda_k - z); z must stay clear of every atom."""
    out = np.zeros((m.d, m.d), dtype=complex)
    for lam, w in m.atoms:
        if _coincide(lam, z):
            raise ValueError(f"z = {z} collides with the atom at {lam}")
        out += w / (lam - z)
    return out


def density_integral(nu, H) -> DiscreteMatrixMeasure:
    """The matrix measure H d(nu) for a discrete scalar reference.

    nu: list of (location, mass >= 0); H: matching list of PSD matrices.
    """
    if len(nu) != len(H):
        raise ValueError("reference and density lists differ in length")
    d = None
    pairs = []
    for (lam, mass), hk in zip(nu, H):
        hk = np.asarray(hk, dtype=complex)
        if d is None:
            d = hk.shape[0]
        if _not_psd(hk):
            raise ValueError(f"density at {lam} is not PSD")
        if mass < 0:
            raise ValueError(f"negative reference mass at {lam}")
        pairs.append((float(lam), hk * mass))
    if d is None:
        raise ValueError("empty reference")
    return DiscreteMatrixMeasure.from_pairs(pairs, d)


def decompose_vs_reference(m: DiscreteMatrixMeasure, nu) -> dict:
    """Split m into the part carried by the reference atoms and the rest.

    nu: list of (location, mass) or plain locations.  The two parts add back
    to m atom-by-atom and their traces partition the trace measure.
    """
    locations = [x[0] if isinstance(x, (tuple, list)) else float(x) for x in nu]
    ac, sing = [], []
    for lam, w in m.atoms:
        (ac if any(_coincide(lam, x) for x in locations) else sing).append((lam, w))
    return {
        "ac_part": DiscreteMatrixMeasure(tuple(ac), m.d),
        "sing_part": DiscreteMatrixMeasure(tuple(sing), m.d),
    }


def diagonal_compose(scalar_measures) -> DiscreteMatrixMeasure:
    """Assemble d scalar discrete measures into a diagonal matrix measure.

    Component i becomes the (i, i) marginal; atoms sit at the union of the
    scalar atom locations.
    """
    d = len(scalar_measures)
    pairs = []
    for i, sm in enumerate(scalar_measures):
        for lam, mass in sm:
            if mass < 0:
                raise ValueError(f"negative scalar mass at {lam}")
            w = np.zeros((d, d), dtype=complex)
            w[i, i] = mass
            pairs.append((float(lam), w))
    return DiscreteMatrixMeasure.from_pairs(pairs, d)
