"""Discrete matrix measures: quadrature from finite sections, trace views,
Cauchy transforms and decomposition against a discrete reference.

A section's quadrature needs only the first d rows of its eigenvectors;
``quadrature_measure`` forms those rows alone, from the section's band: one
bidiagonal reduction (LAPACK zgbbrd) that carries only those rows, then a
divide-and-conquer bidiagonal SVD (dbdsdc).  Both come from
scipy.linalg.cython_lapack through ctypes.

Only atomic measures are stored.  Atoms carry positive-semidefinite d x d
weights, are kept sorted by location, and locations within
1e-12 * max(1, |lambda|) of each other merge by weight addition (eigensolver
jitter would otherwise split multiplicities).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .blockcore import JacobiParams
from .weyl import _banded_shifted, _check_section

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


def _lapack_ok(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} returned info = {info}")


@functools.cache
def _lapack_routine(name: str, nargs: int):
    """The LAPACK routine ``name`` that scipy.linalg.cython_lapack exports, as a
    ctypes function of ``nargs`` addresses (Fortran passes every argument by
    reference)."""
    import ctypes

    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__[name]
    # own prototypes: setting restype on ctypes.pythonapi's would change them for every caller
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


def _lapack(name: str, *args) -> int:
    """Call LAPACK's ``name`` and return its ``info``, the trailing argument it
    appends.  An array is passed as its buffer (2-D ones in Fortran order), an
    int as a C int and bytes as a character."""
    import ctypes

    if any(isinstance(a, np.ndarray) and not a.flags.f_contiguous for a in args):
        raise ValueError(f"{name}: every array must be in Fortran order")
    info = ctypes.c_int(0)
    # every buffer stays referenced here until the call returns
    held = [a if isinstance(a, np.ndarray) else
            ctypes.create_string_buffer(a) if isinstance(a, bytes) else ctypes.c_int(a)
            for a in args] + [info]
    _lapack_routine(name, len(held))(
        *(a.ctypes.data if isinstance(a, np.ndarray) else ctypes.addressof(a) for a in held))
    return info.value


def quadrature_measure(p: JacobiParams, N: int) -> DiscreteMatrixMeasure:
    """Atomic spectral approximation from the N-block section.

    Atoms sit at section eigenvalues; the weight is the outer product of the
    first d-block of the unit eigenvector.  Total mass is the identity.

    Only those d rows of the eigenvectors are formed (Golub-Welsch), and the
    section is never dense.  Its band (2d - 1 off-diagonals on each side) is
    shifted to M = H + sigma I with sigma = ||H||_inf, so M is PSD: its
    singular values are the eigenvalues plus sigma, and its left singular
    vectors are H's eigenvectors.  zgbbrd reduces M to a real bidiagonal
    B = Q* M P, applying Q* to the first d unit vectors E alone, in
    O((N d)^2 d); dbdsdc (divide and conquer) gives B = U S V^T, and the
    first d-blocks are the rows of conj(U^T Q* E).  The atoms agree with a
    dense ``eigh`` of H to 1e-13 * max(1, |lambda|) in location and to
    1e-12 + eps ||H|| / gap in weight, the gap being the distance to the
    nearest other eigenvalue; a near-degenerate pair's summed weight agrees
    to 1e-12.
    """
    _check_section(N, p.d)  # first: it checks the section cap before anything is allocated
    d, n, bw = p.d, N * p.d, 2 * p.d - 1
    # entry (r, c) of H at ab[bw + r - c, c]: LAPACK's band storage with kl = ku = bw
    ab = _banded_shifted(p, 0, N)
    sigma = np.abs(ab).sum(axis=0).max()  # the largest column sum of |H|
    ab[bw] += sigma
    ab = np.asfortranarray(ab)
    s, e = np.empty(n), np.empty(max(n - 1, 1))
    c = np.asfortranarray(np.eye(n, d, dtype=complex))  # E, overwritten by Q* E
    no_vectors = np.empty(1, dtype=complex)  # Q and P^H, not formed
    _lapack_ok(_lapack("zgbbrd", b"N", n, n, d, bw, bw, ab, 2 * bw + 1, s, e,
                       no_vectors, 1, no_vectors, 1, c, n,
                       np.empty(n, dtype=complex), np.empty(n)), "zgbbrd")
    u, vt = np.empty((n, n), order="F"), np.empty((n, n), order="F")
    _lapack_ok(_lapack("dbdsdc", b"U", b"I", n, s, e, u, n, vt, n,
                       np.empty(1), np.empty(1, dtype=np.intc),
                       np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=np.intc)), "dbdsdc")
    # row k: the first d-block of eigenvector k, conj(U^T Q* E), by one real product
    x = u.T @ np.hstack([c.real, c.imag])
    top = x[:, :d] - 1j * x[:, d:]
    weights = top[:, :, None] * top.conj()[:, None, :]
    return DiscreteMatrixMeasure.from_pairs(zip(map(float, s - sigma), weights), d)


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
