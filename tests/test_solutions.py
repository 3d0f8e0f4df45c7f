import numpy as np
import pytest

from bjweyl.blockcore import BlockMatSeq, make_family
from bjweyl.solutions import (
    columns_as_gev_check,
    compute_PQ,
    decompose,
    extend_to_minus_one,
    recurrence_residual,
    solve_forward,
    solve_nonhomogeneous,
)
from conftest import random_bounded_params


def test_PQ_initial_data():
    p = make_family("free", 2)
    pq = compute_PQ(p, 1.0 + 0.5j, 4)
    np.testing.assert_array_equal(pq.P.term(-1), np.zeros((2, 2)))
    np.testing.assert_array_equal(pq.P.term(0), np.eye(2))
    np.testing.assert_array_equal(pq.Q.term(-1), np.eye(2))
    np.testing.assert_array_equal(pq.Q.term(0), np.zeros((2, 2)))


def test_free_P_are_chebyshev_second_kind():
    # d=1, A=1, B=0: P_{n+1} = z P_n - P_{n-1}, so P_n(2cos t) = U_n(cos t)
    p = make_family("free", 1)
    z = 2 * np.cos(0.7)
    pq = compute_PQ(p, z, 6)
    expect = np.sin((np.arange(8)) * 0.7) / np.sin(0.7)  # U_{n-1} at index n
    got = [pq.P.term(n)[0, 0].real for n in range(-1, 7)]
    np.testing.assert_allclose(got, expect[: len(got)], atol=1e-12)


def test_first_step_closed_form(rng):
    p = random_bounded_params(rng, 2)
    z = 0.3 - 1.1j
    pq = compute_PQ(p, z, 2)
    a0inv = np.linalg.inv(p.A(0))
    np.testing.assert_allclose(pq.P.term(1), a0inv @ (z * np.eye(2) - p.B(0)),
                               atol=1e-12)
    np.testing.assert_allclose(pq.Q.term(1), a0inv, atol=1e-12)


def test_solve_forward_satisfies_recurrence(rng):
    p = random_bounded_params(rng, 3)
    z = 1.2 + 0.4j
    u = solve_forward(p, z, (rng.standard_normal(3), rng.standard_normal(3)),
                      mode="from01", n_max=20)
    assert recurrence_residual(p, z, u.seq) < 1e-12


def test_extend_to_minus_one_closes_the_recurrence(rng):
    p = random_bounded_params(rng, 2)
    z = -0.5 + 0.9j
    u = solve_forward(p, z, (rng.standard_normal(2), rng.standard_normal(2)),
                      mode="from01", n_max=10)
    ext = extend_to_minus_one(p, z, u)
    assert ext.seq.start == -1
    assert recurrence_residual(p, z, ext.seq) < 1e-12
    with pytest.raises(ValueError):
        extend_to_minus_one(p, z, ext)


def test_decompose_reconstructs(rng):
    p = random_bounded_params(rng, 2)
    z = 0.7 + 0.3j
    s0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    t0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = solve_forward(p, z, (t0, s0), mode="from_minus1", matrix=True, n_max=12)
    s, t = decompose(u)
    np.testing.assert_allclose(s, s0, atol=1e-13)
    np.testing.assert_allclose(t, t0, atol=1e-13)
    pq = compute_PQ(p, z, 12)
    for n in range(-1, 13):
        expect = pq.P.term(n) @ s0 + pq.Q.term(n) @ t0
        scale = max(1.0, np.linalg.norm(expect))
        assert np.linalg.norm(u.seq.term(n) - expect) / scale < 1e-11


def direct_nonhomogeneous(p, z, F, n_max):
    d = p.d
    eye = np.eye(d, dtype=complex)
    out = np.zeros((n_max + 2, d, d), dtype=complex)  # indices -1..n_max
    for n in range(n_max):
        rhs = (z * eye - p.B(n)) @ out[n + 1] + F.term(n)
        if n == 0:
            rhs = rhs + out[0]
        else:
            rhs = rhs - p.A(n - 1).conj().T @ out[n]
        out[n + 2] = p.solve_A(n, rhs)
    return out


def test_nonhomogeneous_closed_form_vs_recursion(rng):
    p = random_bounded_params(rng, 2)
    z = 0.2 + 0.8j
    n_max = 15
    F = BlockMatSeq(rng.standard_normal((n_max, 2, 2))
                    + 1j * rng.standard_normal((n_max, 2, 2)))
    closed = solve_nonhomogeneous(p, z, F, n_max)
    direct = direct_nonhomogeneous(p, z, F, n_max)
    for n in range(-1, n_max + 1):
        scale = 1.0 + np.linalg.norm(direct[n + 1])
        assert np.linalg.norm(closed.term(n) - direct[n + 1]) / scale < 1e-10


def _solve_nonhomogeneous_two_walks(p, z, F, n_max):
    """solve_nonhomogeneous with P/Q from two compute_PQ walks, at z and at conj z."""
    pq_z, pq_zb = compute_PQ(p, z, n_max), compute_PQ(p, np.conj(z), n_max)
    f = np.zeros((n_max, p.d, p.d), dtype=complex)
    f[:len(F.terms)] = F.terms[:n_max]
    c, dq = (np.cumsum(x.terms[1:-1].conj().transpose(0, 2, 1) @ f, axis=0)
             for x in (pq_zb.P, pq_zb.Q))
    out = np.zeros((n_max + 2, p.d, p.d), dtype=complex)
    out[2:] = pq_z.Q.terms[2:] @ c - pq_z.P.terms[2:] @ dq
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_nonhomogeneous_pair_walk_is_the_two_walk_form(d):
    rng = np.random.default_rng(2400 + d)
    p = random_bounded_params(rng, d, n_blocks=40)
    for z in (0.2 + 0.8j, -1.1, 0.4 - 0.3j):
        for n_max, length in ((1, 1), (7, 3), (39, 45)):
            F = BlockMatSeq(rng.standard_normal((length, d, d))
                            + 1j * rng.standard_normal((length, d, d)))
            assert np.array_equal(solve_nonhomogeneous(p, z, F, n_max).terms,
                                  _solve_nonhomogeneous_two_walks(p, z, F, n_max))


def test_columns_as_gev_check(rng):
    p = random_bounded_params(rng, 2)
    z = 1.0 + 1.0j
    u = solve_forward(p, z, (np.eye(2), np.zeros((2, 2))),
                      mode="from_minus1", matrix=True, n_max=15)
    out = columns_as_gev_check(p, u, v=rng.standard_normal(2))
    assert out["max_residual"] < 1e-12
