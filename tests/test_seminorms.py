import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from bjweyl.blockcore import BlockMatSeq, BlockVecSeq, make_family
from bjweyl.seminorms import SeminormKind, affine_interp, quotient_brackets, seminorm
from bjweyl.solutions import compute_PQ


def vec_seq(rng, n, d, start=0):
    return BlockVecSeq(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)),
                       start=start)


def mat_seq(rng, n, d):
    return BlockMatSeq(rng.standard_normal((n, d, d))
                       + 1j * rng.standard_normal((n, d, d)))


def test_affine_interp_hits_nodes():
    f = [1.0, 4.0, 9.0]
    assert affine_interp(f, 1.0) == 4.0
    assert affine_interp(f, 1.5) == 6.5
    with pytest.raises(ValueError):
        affine_interp(f, 2.5)


def test_vector_seminorm_matches_direct_sum(rng):
    x = vec_seq(rng, 8, 3)
    direct = math.sqrt(sum(np.vdot(x.term(k), x.term(k)).real for k in range(5)))
    assert seminorm(x, SeminormKind.vector_norm, 0, 4) == pytest.approx(direct)


def test_squared_seminorm_affine_on_segment(rng):
    x = vec_seq(rng, 8, 2)
    a = seminorm(x, SeminormKind.vector_norm, 0, 3) ** 2
    b = seminorm(x, SeminormKind.vector_norm, 0, 4) ** 2
    mid = seminorm(x, SeminormKind.vector_norm, 0, 3.25) ** 2
    assert mid == pytest.approx(a + 0.25 * (b - a))


def test_matrix_variants_order(rng):
    # minmod of each term is at most its operator norm
    x = mat_seq(rng, 6, 3)
    lo = seminorm(x, SeminormKind.matrix_minmod, 0, 5)
    hi = seminorm(x, SeminormKind.matrix_norm, 0, 5)
    assert lo <= hi + 1e-14


def test_matrix_kind_rejects_vector_input(rng):
    x = vec_seq(rng, 4, 2)
    with pytest.raises(ValueError):
        seminorm(x, SeminormKind.matrix_norm, 0, 2)


def test_infinite_upper_limit_sums_tail(rng):
    x = vec_seq(rng, 5, 2)
    assert seminorm(x, SeminormKind.vector_norm, 0, math.inf) == pytest.approx(
        seminorm(x, SeminormKind.vector_norm, 0, 4))


def test_quotient_brackets_contain_value(rng):
    for _ in range(20):
        x = vec_seq(rng, 10, 2)
        y = vec_seq(rng, 10, 2)
        t = rng.uniform(1.0, 8.0)
        out = quotient_brackets(x, y, SeminormKind.vector_norm, 0, t)
        assert out["lower"] - 1e-12 <= out["value"] <= out["upper"] + 1e-12


def test_quotient_monotone_within_segment(rng):
    # the bracketing rests on per-segment monotonicity of the ratio
    x = vec_seq(rng, 6, 2)
    y = vec_seq(rng, 6, 2)
    vals = [quotient_brackets(x, y, SeminormKind.vector_norm, 0, 2.0 + s)["value"]
            for s in (0.1, 0.4, 0.7, 0.9)]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)


def test_start_minus_one_sequences(rng):
    x = vec_seq(rng, 6, 2, start=-1)
    val = seminorm(x, SeminormKind.vector_norm, 0, 3)
    direct = math.sqrt(sum(np.vdot(x.term(k), x.term(k)).real for k in range(4)))
    assert val == pytest.approx(direct)
    with pytest.raises(ValueError):
        seminorm(x, SeminormKind.vector_norm, -2, 3)


def test_vector_kind_rejects_matrix_input(rng):
    x = mat_seq(rng, 4, 2)
    with pytest.raises(ValueError):
        seminorm(x, SeminormKind.vector_norm, 0, 2)


def _exact_sqrt(frac: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        return (Decimal(frac.numerator) / Decimal(frac.denominator)).sqrt()


def test_seminorms_whose_squares_pass_the_double_range():
    # The free family's P_n(3), Q_n(3) are integers, and from n ~ 370 on their
    # squares exceed the largest double: integer sums give the exact seminorms.
    n_max, t = 400, 390.5
    p, q = [0, 1], [1, 0]  # indices -1, 0; A_{-1} = -I makes Q_1 = +1
    for n in range(n_max):
        p.append(3 * p[-1] - (p[-2] if n else -p[-2]))
        q.append(3 * q[-1] - (q[-2] if n else -q[-2]))
    sums_p = list(itertools.accumulate(v * v for v in p[1:]))
    sums_q = list(itertools.accumulate(v * v for v in q[1:]))

    def at(sums, s):  # squared seminorm over [0, s]
        k = math.floor(s)
        return Fraction(sums[k]) + Fraction(s - k) * (sums[k + 1] - sums[k])

    tail = float(_exact_sqrt(Fraction(sums_p[-1])))
    assert tail == pytest.approx(1.962671506160946e167, rel=1e-15)
    node_ratios = [float(_exact_sqrt(Fraction(sums_p[k], sums_q[k]))) for k in (390, 391)]
    expect = {"seminorm_t": float(_exact_sqrt(at(sums_p, t))), "tail": tail,
              "value": float(_exact_sqrt(at(sums_p, t) / at(sums_q, t))),
              "lower": min(node_ratios), "upper": max(node_ratios)}

    pq = compute_PQ(make_family("free", 1), 3.0, n_max)
    for kind in SeminormKind:
        x, y = (pq.P.column(0), pq.Q.column(0)) if kind is SeminormKind.vector_norm else (pq.P, pq.Q)
        qb = quotient_brackets(x, y, kind, 0, t)
        got = {"seminorm_t": seminorm(x, kind, 0, t), "tail": seminorm(x, kind, 0, math.inf),
               "value": qb["value"], "lower": qb["lower"], "upper": qb["upper"]}
        for key, value in expect.items():
            assert got[key] == pytest.approx(value, rel=1e-13), (kind, key)
