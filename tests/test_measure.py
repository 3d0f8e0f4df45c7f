import csv
import tracemalloc

import numpy as np
import pytest

from bjweyl import measure
from bjweyl.blockcore import make_family
from bjweyl.cli import parse_config, run
from bjweyl.measure import (
    DiscreteMatrixMeasure,
    cauchy_transform,
    decompose_vs_reference,
    density_integral,
    diagonal_compose,
    quadrature_measure,
    trace_views,
)
from bjweyl.weyl import finite_section, weyl_resolvent
from conftest import random_bounded_params


def test_single_block_quadrature():
    p = make_family("free", 1)
    m = quadrature_measure(p, 1)
    assert len(m.atoms) == 1
    lam, w = m.atoms[0]
    assert lam == 0.0
    np.testing.assert_allclose(w, [[1.0]])


def test_a_section_above_the_cap_raises_before_any_block():
    p = make_family("free", 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="a section of 1000000 rows is above the cap"):
            quadrature_measure(p, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p._n == 0  # no block was materialized
    assert peak < 1 << 20


def test_total_mass_identity(rng):
    for d in (1, 2, 3):
        p = random_bounded_params(rng, d)
        m = quadrature_measure(p, 20)
        np.testing.assert_allclose(m.total_mass(), np.eye(d), atol=1e-10)


def test_first_moment_is_B0(rng):
    p = random_bounded_params(rng, 2)
    m = quadrature_measure(p, 25)
    moment = sum(lam * w for lam, w in m.atoms)
    np.testing.assert_allclose(moment, p.B(0), atol=1e-9)


def test_cauchy_equals_resolvent(rng):
    p = random_bounded_params(rng, 2)
    z = 0.7 + 1.1j
    m = quadrature_measure(p, 30)
    np.testing.assert_allclose(cauchy_transform(m, z),
                               weyl_resolvent(p, z, 30).W, atol=1e-11)


def test_cauchy_symmetry_and_collision():
    m = DiscreteMatrixMeasure.from_pairs([(0.0, np.eye(1))], 1)
    np.testing.assert_allclose(cauchy_transform(m, 2j), [[0.5j]], atol=1e-15)
    z = 1.0 + 1.0j
    np.testing.assert_allclose(cauchy_transform(m, np.conj(z)),
                               cauchy_transform(m, z).conj().T, atol=1e-15)
    with pytest.raises(ValueError, match="collides"):
        cauchy_transform(m, 0.0)


def test_atoms_merge_and_sort():
    m = DiscreteMatrixMeasure.from_pairs(
        [(1.0, np.eye(1)), (-1.0, 2 * np.eye(1)), (1.0 + 1e-14, np.eye(1))], 1)
    assert len(m.atoms) == 2
    assert m.atoms[0][0] == -1.0
    np.testing.assert_allclose(m.atoms[1][1], [[2.0]])


def test_rejects_non_psd_weight():
    with pytest.raises(ValueError, match="non-PSD"):
        DiscreteMatrixMeasure.from_pairs([(0.0, -np.eye(2))], 2)


def test_trace_views(rng):
    w = np.diag([2.0, 3.0]).astype(complex)
    m = DiscreteMatrixMeasure.from_pairs(
        [(0.0, w), (1.0, np.zeros((2, 2)))], 2)
    view = trace_views(m)
    assert view.dropped == 1
    lam, t, dens = view.atoms[0]
    assert t == pytest.approx(5.0)
    np.testing.assert_allclose(dens, np.diag([0.4, 0.6]))
    ev = np.linalg.eigvalsh(dens)
    assert ev.min() >= -1e-14 and ev.max() <= 1 + 1e-14
    assert np.trace(dens).real == pytest.approx(1.0)


def test_trace_density_bounds_random(rng):
    p = random_bounded_params(rng, 3)
    view = trace_views(quadrature_measure(p, 15))
    for _, t, dens in view.atoms:
        assert t >= 0
        ev = np.linalg.eigvalsh(dens)
        assert ev.min() >= -1e-12
        assert ev.max() <= 1 + 1e-12


def test_density_integral():
    nu = [(0.0, 0.5), (1.0, 0.5)]
    H = [np.eye(2), np.eye(2)]
    m = density_integral(nu, H)
    for _, w in m.atoms:
        np.testing.assert_allclose(w, 0.5 * np.eye(2))
    with pytest.raises(ValueError, match="not PSD"):
        density_integral(nu, [np.eye(2), -np.eye(2)])


def test_decompose_vs_reference_partitions():
    m = DiscreteMatrixMeasure.from_pairs(
        [(0.0, np.eye(2)), (1.0, 2 * np.eye(2)), (2.0, 3 * np.eye(2))], 2)
    out = decompose_vs_reference(m, [(0.0, 1.0), (2.0, 1.0)])
    ac, sing = out["ac_part"], out["sing_part"]
    assert [a[0] for a in ac.atoms] == [0.0, 2.0]
    assert [a[0] for a in sing.atoms] == [1.0]
    total = ac.total_mass() + sing.total_mass()
    np.testing.assert_allclose(total, m.total_mass())
    # trace of each part is the corresponding part of the trace measure
    tr_parts = (np.trace(ac.total_mass()) + np.trace(sing.total_mass())).real
    assert tr_parts == pytest.approx(np.trace(m.total_mass()).real)


def test_decompose_degenerate_references():
    m = DiscreteMatrixMeasure.from_pairs([(0.0, np.eye(1)), (1.0, np.eye(1))], 1)
    all_shared = decompose_vs_reference(m, [0.0, 1.0])
    assert len(all_shared["sing_part"].atoms) == 0
    none_shared = decompose_vs_reference(m, [5.0])
    assert len(none_shared["ac_part"].atoms) == 0


def test_diagonal_compose_cases():
    m = diagonal_compose([[(0.0, 1.0)], [(0.0, 1.0)]])
    assert len(m.atoms) == 1
    np.testing.assert_allclose(m.atoms[0][1], np.eye(2))
    m2 = diagonal_compose([[(0.0, 1.0)], [(1.0, 1.0)]])
    np.testing.assert_allclose(m2.atoms[0][1], np.diag([1.0, 0.0]))
    np.testing.assert_allclose(m2.atoms[1][1], np.diag([0.0, 1.0]))


def test_subset_sandwich(rng):
    # any union of atoms has 0 <= M(omega) <= tr_M(omega) * I
    p = random_bounded_params(rng, 2)
    m = quadrature_measure(p, 12)
    idx = np.arange(len(m.atoms))
    for _ in range(10):
        keep = idx[rng.random(len(idx)) < 0.5]
        sub = m.restrict(keep)
        mass = sub.total_mass()
        tr = np.trace(mass).real
        ev = np.linalg.eigvalsh((mass + mass.conj().T) / 2)
        assert ev.min() >= -1e-12
        assert ev.max() <= tr + 1e-12


def test_one_psd_check_names_the_first_failing_item():
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    small = -0.5e-10 * np.eye(2)  # within the tolerance of a zero weight
    with pytest.raises(ValueError, match=r"^atom at 1.0 has a non-PSD weight$"):
        DiscreteMatrixMeasure.from_pairs(
            [(2.0, -np.eye(2)), (1.0, skew), (0.0, np.eye(2)), (3.0, small)], 2)
    assert len(DiscreteMatrixMeasure.from_pairs([(0.0, small), (1.0, 3 * np.eye(2))], 2).atoms) == 2
    assert DiscreteMatrixMeasure.from_pairs([], 2).atoms == ()
    # per item in order, the PSD check before the mass check
    with pytest.raises(ValueError, match=r"^density at 0.0 is not PSD$"):
        density_integral([(0.0, -1.0), (1.0, 1.0)], [skew, np.eye(2)])
    with pytest.raises(ValueError, match=r"^negative reference mass at 0.0$"):
        density_integral([(0.0, -1.0), (1.0, 1.0)], [np.eye(2), -np.eye(2)])
    with pytest.raises(ValueError, match=r"^density at 1.0 is not PSD$"):
        density_integral([(0.0, 1.0), (1.0, 1.0)], [small, -np.eye(2)])


def _eigh_measure(p, N):
    """The oracle: all N d eigenvectors of the section from a dense eigh."""
    evals, evecs = np.linalg.eigh(finite_section(p, N).H)
    top = evecs[:p.d].T
    return DiscreteMatrixMeasure.from_pairs(
        zip(map(float, evals), top[:, :, None] * top.conj()[:, None, :]), p.d)


def _assert_agrees_with_eigh(m, p, N):
    want = _eigh_measure(p, N)
    assert len(m.atoms) == len(want.atoms)
    for (x, w), (y, v) in zip(m.atoms, want.atoms):
        assert abs(x - y) <= 1e-13 * max(1.0, abs(y))
        assert np.max(np.abs(w - v)) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_sections_match_eigh_with_unit_mass(d):
    rng = np.random.default_rng(1300 + d)
    for N in (1, 2, 17, 60):  # N = 1 with d = 1: a 1 x 1 section, no reflector at all
        p = random_bounded_params(rng, d)
        m = quadrature_measure(p, N)
        _assert_agrees_with_eigh(m, p, N)
        assert np.max(np.abs(m.total_mass() - np.eye(d))) <= 1e-12


@pytest.mark.parametrize("p", [
    make_family("free", 2), make_family("free", 3),
    make_family("diagonal", 2, components=[{"a": 1.0, "b": 0.3}] * 2),
    make_family("diagonal", 3, components=[{"a": [1.0, 0.7, 1.4, 0.9] * 10,
                                            "b": [0.2, -0.5, 0.0, 0.8] * 10}] * 3),
], ids=["free_d2", "free_d3", "diagonal_equal_d2", "diagonal_equal_lists_d3"])
def test_degenerate_spectra_merge_like_eigh(p):
    """Equal components make every section eigenvalue d-fold, so T splits into d blocks."""
    for N in (1, 5, 40):
        m = quadrature_measure(p, N)
        _assert_agrees_with_eigh(m, p, N)
        assert len(m.atoms) == N


@pytest.mark.parametrize("routine", ["zgbbrd", "dbdsdc"])
def test_a_failed_lapack_call_is_a_named_error_and_a_row_error(monkeypatch, tmp_path, routine):
    real = measure._lapack

    def fails(name, *args):
        return -7 if name == routine else real(name, *args)

    monkeypatch.setattr(measure, "_lapack", fails)
    message = f"LAPACK {routine} returned info = -7"
    with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
        quadrature_measure(make_family("free", 2), 5)
    out = tmp_path / "rows.csv"
    cfg = parse_config({"family": {"name": "free", "d": 2}, "command": "cauchy-check", "N": 8,
                        "z": [0.0, 1.0], "out": str(out)})
    assert run(cfg) == 2
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [(r["N"], r["gap"], r["error"]) for r in rows] == [(n, "", message) for n in "248"]


def test_the_lapack_helper_takes_only_fortran_ordered_arrays():
    with pytest.raises(ValueError, match="^dbdsdc: every array must be in Fortran order$"):
        measure._lapack("dbdsdc", b"U", b"I", 2, np.empty((2, 3)))


def _section_family(cycle: int):
    """The section benchmark's family at seed 0: explicit, d = 3, 300 blocks,
    drawn block by block as A = U diag(s) V*, B = (G + G*) / 2."""
    rng, d = np.random.default_rng([0, cycle]), 3

    def unitary():
        return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]

    a, b = [], []
    for _ in range(300):
        a.append(unitary() @ np.diag(rng.uniform(0.5, 2.0, d)) @ unitary().conj().T)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b.append((g + g.conj().T) / 2)
    return make_family("explicit", d, A=a, B=b)


@pytest.mark.parametrize("cycle", [*range(8), None],
                         ids=[f"section_cycle{c}" for c in range(8)] + ["free_d1_N900"])
def test_benchmark_sections_agree_with_eigh_within_their_conditioning(cycle):
    """Weights are as accurate as the eigenvectors' conditioning eps ||H|| / gap
    allows; inside a near-degenerate pair only the pair's sum is well defined."""
    p, N = (make_family("free", 1), 900) if cycle is None else (_section_family(cycle), 300)
    h = finite_section(p, N).H
    evals, evecs = np.linalg.eigh(h)
    top = evecs[:p.d].T
    m = quadrature_measure(p, N)
    assert len(m.atoms) == len(evals)  # no eigenvalues close enough to merge
    x = np.array([lam for lam, _ in m.atoms])
    w = np.array([wk for _, wk in m.atoms])
    v = top[:, :, None] * top.conj()[:, None, :]
    assert np.all(np.abs(x - evals) <= 1e-13 * np.maximum(1.0, np.abs(evals)))
    gaps = np.diff(np.r_[-np.inf, evals, np.inf])
    gap = np.minimum(gaps[:-1], gaps[1:])
    err = np.abs(w - v).max(axis=(1, 2))
    assert np.all(err <= 1e-12 + np.finfo(float).eps * np.linalg.norm(h, 2) / gap)
    near = np.flatnonzero(np.diff(evals) < 1e-4)  # pairs (k, k + 1)
    assert np.all(np.abs((w[near] + w[near + 1]) - (v[near] + v[near + 1])) <= 1e-12)
