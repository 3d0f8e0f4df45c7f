import tracemalloc

import numpy as np
import pytest

from bjweyl.blockcore import make_family
from bjweyl.measure import (
    DiscreteMatrixMeasure,
    cauchy_transform,
    decompose_vs_reference,
    density_integral,
    diagonal_compose,
    quadrature_measure,
    trace_views,
)
from bjweyl.weyl import weyl_resolvent
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
