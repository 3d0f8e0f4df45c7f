"""The slab forms of the library loops against the per-index loops they replaced.

Each reference below is the earlier loop, kept here verbatim in its arithmetic:
one ``p.A(n)``/``p.B(n)``/``.term(n)`` call per index.
"""

import numpy as np
import pytest

from bjweyl.blockcore import (BlockMatSeq, BlockVecSeq, apply_formal, cyclic_block_product,
                              make_family)
from bjweyl.measure import DiscreteMatrixMeasure, quadrature_measure
from bjweyl.solutions import (_a_prev_adj, compute_PQ, recurrence_residual, solve_forward,
                              solve_nonhomogeneous)
from bjweyl.weyl import finite_section
from conftest import random_bounded_params


def _apply_formal_loop(p, u, n_max):
    out = np.zeros((n_max + 1, p.d), dtype=complex)
    for n in range(n_max + 1):
        acc = p.B(n) @ u.term(n) + p.A(n) @ u.term(n + 1)
        if n >= 1:
            acc = acc + p.A(n - 1).conj().T @ u.term(n - 1)
        out[n] = acc
    return out


def _cyclic_block_product_loop(p, k):
    prod = np.eye(p.d, dtype=complex)
    for n in range(k):
        prod = prod @ p.A(n)
    return prod.conj().T


def _quadrature_measure_loop(p, N):
    evals, evecs = np.linalg.eigh(finite_section(p, N).H)
    pairs = []
    for k in range(len(evals)):
        top = evecs[:p.d, k]
        pairs.append((float(evals[k]), np.outer(top, top.conj())))
    return DiscreteMatrixMeasure.from_pairs(pairs, p.d)


def _recurrence_residual_loop(p, z, seq):
    first = 0 if seq.start == -1 else 1
    worst, (a, b) = 0.0, p.stack(seq.last_index)
    for n in range(first, seq.last_index):
        lhs = (b[n] @ seq.term(n) + a[n] @ seq.term(n + 1)
               + _a_prev_adj(a, n) @ seq.term(n - 1))
        res = np.linalg.norm(lhs - z * seq.term(n))
        scale = max(1.0, *(np.linalg.norm(seq.term(m)) for m in (n - 1, n, n + 1)))
        worst = max(worst, res / scale)
    return worst


def _solve_nonhomogeneous_loop(p, z, F, n_max):
    pq_z, pq_zb = compute_PQ(p, z, n_max), compute_PQ(p, np.conj(z), n_max)
    out = np.zeros((n_max + 2, p.d, p.d), dtype=complex)
    for n in range(1, n_max + 1):
        qn, pn = pq_z.Q.term(n), pq_z.P.term(n)
        acc = np.zeros((p.d, p.d), dtype=complex)
        for k in range(n):
            kern = qn @ pq_zb.P.term(k).conj().T - pn @ pq_zb.Q.term(k).conj().T
            acc += kern @ F.term(k)
        out[n + 1] = acc
    return out


def _kernel_scale(p, z, F, n_max, s):
    """Criterion 3's termwise scale: 1 + |S_n| + sum_k (|Q_n||P_k| + |P_n||Q_k|) |F_k|,
    with P_k, Q_k at conj z."""
    pn, qn, pb, qb = (np.linalg.norm(x.terms, 2, axis=(1, 2))  # indices -1..n_max
                      for pq in (compute_PQ(p, z, n_max), compute_PQ(p, np.conj(z), n_max))
                      for x in (pq.P, pq.Q))
    fn = np.linalg.norm(F.terms[:n_max], 2, axis=(1, 2))
    scale = 1.0 + np.linalg.norm(s, axis=(1, 2))
    for n in range(1, n_max + 1):
        scale[n + 1] += np.sum((qn[n + 1] * pb[1:n + 1] + pn[n + 1] * qb[1:n + 1]) * fn[:n])
    return scale


@pytest.mark.parametrize("d", [1, 2, 3])
def test_slab_forms_match_the_loops(d):
    rng = np.random.default_rng(1200 + d)
    for case in range(12):
        p = random_bounded_params(rng, d, n_blocks=48)
        n_max, length = int(rng.integers(0, 40)), int(rng.integers(1, 46))
        u = BlockVecSeq(rng.standard_normal((length, d)) + 1j * rng.standard_normal((length, d)))
        assert np.array_equal(apply_formal(p, u, n_max).terms, _apply_formal_loop(p, u, n_max))
        k = int(rng.integers(0, 40))
        assert np.array_equal(cyclic_block_product(p, k), _cyclic_block_product_loop(p, k))
        N = int(rng.integers(1, 12))
        got, want = quadrature_measure(p, N), _quadrature_measure_loop(p, N)
        assert len(got.atoms) == len(want.atoms)
        for (x, w), (y, v) in zip(got.atoms, want.atoms):
            assert x == y and np.array_equal(w, v)

        z = complex(rng.uniform(-1.5, 1.5), 0.0 if case % 2 else rng.uniform(-0.5, 0.5))
        n = int(rng.integers(1, 40))
        for seq in (solve_forward(p, z, rng.standard_normal((2, d)), n_max=n).seq,
                    solve_forward(p, z, rng.standard_normal((2, d, d)), "from_minus1",
                                  matrix=True, n_max=n).seq):
            assert abs(recurrence_residual(p, z, seq)
                       - _recurrence_residual_loop(p, z, seq)) <= 1e-15

        F = BlockMatSeq(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
        got, want = solve_nonhomogeneous(p, z, F, n).terms, _solve_nonhomogeneous_loop(p, z, F, n)
        gap = np.linalg.norm(got - want, axis=(1, 2)) / _kernel_scale(p, z, F, n, want)
        assert np.max(gap) <= 1e-15


def test_compute_PQ_takes_one_z():
    with pytest.raises(ValueError, match="terms must be"):
        compute_PQ(make_family("free", 2), np.array([0.5, 1.0]), 4)
