import math

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
from conftest import random_bounded_params


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
    assert np.array_equal(transfer_nstep(p, z, n)["R"], r)
