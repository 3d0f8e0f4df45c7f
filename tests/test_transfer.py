import math
import re
import warnings

import numpy as np
import pytest

from bjweyl.blockcore import make_family
from bjweyl.solutions import compute_PQ, solve_forward
from bjweyl.transfer import (
    lo_residual,
    omega_identity_residual,
    transfer_nstep,
    transfer_step,
)
from conftest import random_bounded_params, traced_peak


def test_step_propagates_solution_pairs(rng):
    p = random_bounded_params(rng, 2)
    z = 0.4 + 0.6j
    u = solve_forward(p, z, (rng.standard_normal(2), rng.standard_normal(2)),
                      mode="from_minus1", n_max=8)
    for n in range(6):
        t = transfer_step(p, z, n)["T"]
        cur = np.concatenate([u.seq.term(n - 1), u.seq.term(n)])
        nxt = np.concatenate([u.seq.term(n), u.seq.term(n + 1)])
        np.testing.assert_allclose(t @ cur, nxt, atol=1e-10)


def test_step_inverse_exact(rng):
    p = random_bounded_params(rng, 3)
    for n in (0, 1, 5):
        out = transfer_step(p, 1.0 - 0.7j, n)
        np.testing.assert_allclose(out["T"] @ out["T_inv"], np.eye(6), atol=1e-12)
        np.testing.assert_allclose(out["T_inv"] @ out["T"], np.eye(6), atol=1e-12)


def test_nstep_carries_polynomials(rng):
    p = random_bounded_params(rng, 2)
    z = -0.2 + 1.1j
    n = 7
    r = transfer_nstep(p, z, n)["R"]
    pq = compute_PQ(p, z, n)
    d = 2
    np.testing.assert_allclose(r[:d, :d], pq.Q.term(n - 1), atol=1e-10)
    np.testing.assert_allclose(r[:d, d:], pq.P.term(n - 1), atol=1e-10)
    np.testing.assert_allclose(r[d:, :d], pq.Q.term(n), atol=1e-10)
    np.testing.assert_allclose(r[d:, d:], pq.P.term(n), atol=1e-10)


def test_nstep_structured_inverse(rng):
    p = random_bounded_params(rng, 2)
    z = 0.9 + 0.5j
    for n in (1, 4, 12):
        out = transfer_nstep(p, z, n)
        defect = np.linalg.norm(out["R"] @ out["R_inv"] - np.eye(4), 2)
        scale = max(1.0, np.linalg.norm(out["R"], 2) * np.linalg.norm(out["R_inv"], 2))
        assert defect / scale < 1e-13


def test_omega_identity(rng):
    p = random_bounded_params(rng, 2)
    for z in (0.3 + 0.4j, 2.0 + 0.0j):
        assert omega_identity_residual(p, z, 10) < 1e-12


def test_lo_residuals(rng):
    p = random_bounded_params(rng, 3)
    w = 1.5 - 2.0j
    out0 = lo_residual(p, w, 0)
    assert out0["r1"] == 0.0
    assert math.isnan(out0["r2"])
    for k in (1, 5, 20):
        out = lo_residual(p, w, k)
        assert out["r1"] < 1e-12
        assert out["r2"] < 1e-12


def test_free_transfer_is_companion():
    p = make_family("free", 1)
    t = transfer_step(p, 0.5, 3)["T"]
    np.testing.assert_allclose(t, [[0, 1], [-1, 0.5]], atol=1e-15)


def test_nstep_requires_positive_n(rng):
    p = random_bounded_params(rng, 1)
    with pytest.raises(ValueError):
        transfer_nstep(p, 1j, 0)


@pytest.mark.parametrize("n", [1, 4, 12])
def test_nstep_is_the_product_of_the_steps(rng, n):
    p = random_bounded_params(rng, 2)
    z = 0.3 + 0.8j
    r = transfer_step(p, z, 0)["T"]
    for k in range(1, n):
        r = transfer_step(p, z, k)["T"] @ r
    rb = transfer_step(p, np.conj(z), 0)["T"]  # the product at conj z, for the inverse
    for k in range(1, n):
        rb = transfer_step(p, np.conj(z), k)["T"] @ rb
    a = p.A(n - 1)
    right = np.block([[np.zeros_like(a), a], [-a.conj().T, np.zeros_like(a)]])
    omega = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(2)).astype(complex)
    nstep = transfer_nstep(p, z, n)
    assert np.array_equal(nstep["R"], r)
    assert np.array_equal(nstep["R_inv"], omega @ rb.conj().T @ right)


@pytest.mark.parametrize("call, k, what", [
    (transfer_nstep, 220, "R_n at n=220"),
    (lo_residual, 106, "the r1 defect at k=106"),
])
def test_an_overflow_names_the_quantity_and_its_index(call, k, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=re.escape(f"overflow: {what} is not finite")):
            call(make_family("free", 1), 30.0, k)


@pytest.mark.parametrize("call", [transfer_nstep, omega_identity_residual])
def test_the_n_step_chain_memory_does_not_grow_with_n(call):
    p = make_family("free", 2)
    p.stack(2 ** 13)  # the blocks are stored before tracing, so the peak is the chain's own
    peaks = [traced_peak(call, p, 0.3 + 0.01j, n)[1] for n in (2 ** 10, 2 ** 13)]
    # the products of both chains over 7 * 2^10 more steps alone would be 3.7 MB
    assert peaks[1] < peaks[0] + 2 ** 16


def _rescaled_product(p, z, n):
    """R~_n = T~_{n-1} ... T~_0, T~_k = [[0, A_k*], [-A_k^{-1}, A_k^{-1}(zI - B_k)]],
    multiplied out step by step."""
    eye = np.eye(p.d, dtype=complex)
    r = np.eye(2 * p.d, dtype=complex)
    for k in range(n):
        a, b = p.A(k), p.B(k)
        r = np.block([[np.zeros_like(eye), a.conj().T],
                      [-np.linalg.solve(a, eye), np.linalg.solve(a, z * eye - b)]]) @ r
    return r


@pytest.mark.parametrize("d", [1, 2, 3])
def test_omega_residual_matches_the_rescaled_step_product(d):
    rng = np.random.default_rng(400 + d)
    p = random_bounded_params(rng, d, n_blocks=50)
    omega = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(d))
    for z in (0.7, -1.3 + 0.4j, 0.2 - 0.9j, 2.5 + 1e-3j):
        for n in (1, 2, 3, 7, 20, 50):
            rt, rtb = _rescaled_product(p, z, n), _rescaled_product(p, np.conj(z), n)
            scale = max(1.0, np.linalg.norm(rtb, 2) * np.linalg.norm(rt, 2))
            want = np.linalg.norm(omega - rtb.conj().T @ omega @ rt, 2) / scale
            assert abs(omega_identity_residual(p, z, n) - want) <= 1e-15, (z, n)


def _lo_residual_two_blocks(p, w, k):
    """lo_residual with r1 and r2 written out separately."""
    n_eval = max(k, 1)
    pq_w, pq_wb = compute_PQ(p, w, n_eval), compute_PQ(p, np.conj(w), n_eval)

    def norm(m):
        return float(np.linalg.norm(m, 2))

    qk, pk = pq_w.Q.term(k), pq_w.P.term(k)
    m1 = qk @ pq_wb.P.term(k).conj().T - pk @ pq_wb.Q.term(k).conj().T
    scale1 = max(1.0, norm(qk) * norm(pq_wb.P.term(k)), norm(pk) * norm(pq_wb.Q.term(k)))
    out = {"r1": norm(m1) / scale1, "r2": float("nan")}
    if k >= 1:
        ainv = np.linalg.inv(p.A(k - 1))
        m2 = qk @ pq_wb.P.term(k - 1).conj().T - pk @ pq_wb.Q.term(k - 1).conj().T - ainv
        scale2 = max(1.0, norm(qk) * norm(pq_wb.P.term(k - 1)),
                     norm(pk) * norm(pq_wb.Q.term(k - 1)), norm(ainv))
        out["r2"] = norm(m2) / scale2
    return out


def test_lo_residual_matches_the_two_block_form():
    rng = np.random.default_rng(77)
    for case in range(40):
        d = int(rng.integers(1, 4))
        p = random_bounded_params(rng, d, n_blocks=31)
        w = complex(rng.uniform(-3, 3), rng.choice([-1, 0, 1]) * rng.uniform(0, 2))
        k = 0 if case < 4 else int(rng.integers(0, 31))
        got, want = lo_residual(p, w, k), _lo_residual_two_blocks(p, w, k)
        assert list(got) == ["r1", "r2"]
        assert got["r1"] == want["r1"], (d, w, k)
        assert got["r2"] == want["r2"] or (k == 0 and math.isnan(got["r2"])), (d, w, k)


@pytest.mark.parametrize("family, w, k", [
    (make_family("free", 2), 30.0 + 5.0j, 260),
    # B_0 = w makes P_1(w) = 0: Q(w) overflows at n = 87, before P(w) at n = 90
    (make_family("periodic_modulated", 1, A_period=[[[1.0]]],
                 B_period=[[[1e10]], [[0.0]], [[0.0]]]), 1e10, 88),
    (make_family("periodic_modulated", 1, A_period=[[[1.0]]],
                 B_period=[[[1e10]], [[0.0]], [[0.0]]]), 1e10, 95),
])
def test_lo_residual_names_an_overflow_as_two_compute_pq_walks(family, w, k):
    # the walk at (w, conj w) names the first of P(w), Q(w), P(conj w), Q(conj w) to overflow
    with pytest.raises(ValueError) as want:
        compute_PQ(family, w, k)
        compute_PQ(family, np.conj(w), k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            lo_residual(family, w, k)
