import math
import warnings

import numpy as np
import pytest

from bjweyl.blockcore import make_family
from bjweyl.seminorms import SeminormKind, seminorm
from bjweyl.solutions import compute_PQ, solve_forward
from bjweyl.subordinacy import (
    HorizonExhausted,
    _pq_sq_nodes,
    jl_function,
    nonsub_diagnostic,
    solution_gram,
    spectral_consequence_report,
)
from conftest import random_bounded_params


def test_jl_defining_residual():
    p = make_family("free", 1)
    for eps in (0.1, 0.02, 0.005):
        s = jl_function(p, 0.0, eps)
        assert s.residual < 1e-8


def test_jl_strictly_decreasing_in_eps():
    p = make_family("free", 1)
    eps_grid = np.geomspace(0.2, 0.002, 20)
    ells = [jl_function(p, 0.3, e).ell for e in eps_grid]
    assert all(b > a for a, b in zip(ells, ells[1:]))  # eps shrinks, ell grows


def test_jl_matches_dense_scan():
    p = make_family("free", 1)
    eps = 0.01
    s = jl_function(p, 0.0, eps)
    target = 1.0 / (2 * eps)
    horizon = int(s.ell) + 4
    pq = compute_PQ(p, 0.0, horizon)
    grid = np.arange(0.0, horizon, 0.01)
    vals = [seminorm(pq.P, SeminormKind.matrix_norm, 0, t)
            * seminorm(pq.Q, SeminormKind.matrix_norm, 0, t) for t in grid]
    crossing = grid[np.searchsorted(vals, target)]
    assert abs(s.ell - crossing) <= 0.01 + 1e-9


def test_jl_minmod_variant_runs():
    p = make_family("free", 1)
    s = jl_function(p, 0.0, 0.05, SeminormKind.matrix_minmod)
    assert s.ell > 0 and s.residual < 1e-8


def test_jl_horizon_exhaustion():
    # far outside the spectrum Q decays, pushing ell beyond any finite horizon
    # for tiny eps is fine, but a huge target with a capped horizon must raise
    p = make_family("free", 1)
    import bjweyl.subordinacy as sub
    old = sub.HORIZON_CAP
    sub.HORIZON_CAP = 128
    try:
        with pytest.raises(HorizonExhausted):
            jl_function(p, 0.0, 1e-6)
    finally:
        sub.HORIZON_CAP = old


def test_gram_realizes_solution_seminorms(rng):
    p = random_bounded_params(rng, 2)
    lam = 0.4
    traj = solution_gram(p, lam, [3.0, 7.5, 12.0])
    for t, g, _ in traj.nodes:
        for _ in range(5):
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            u = solve_forward(p, lam, (c[:2], c[2:]), mode="from_minus1",
                              n_max=int(math.floor(t)) + 2)
            direct = seminorm(u.seq, SeminormKind.vector_norm, 0, t) ** 2
            quad = float((c.conj() @ g @ c).real)
            assert abs(quad - direct) < 1e-9 * (1 + quad)


def test_gram_zero_horizon_rank():
    p = make_family("free", 2)
    traj = solution_gram(p, 0.0, [0.0])
    g = traj.nodes[0][1]
    assert np.linalg.matrix_rank(g, tol=1e-10) == 2  # only u_0 contributes


def test_gram_monotone_in_t(rng):
    p = random_bounded_params(rng, 2)
    traj = solution_gram(p, -0.3, [2.0, 5.0, 9.0])
    for (_, g1, _), (_, g2, _) in zip(traj.nodes, traj.nodes[1:]):
        ev = np.linalg.eigvalsh(g2 - g1)
        assert ev.min() >= -1e-10


def test_quadratic_form_ratio_bracketed_by_nodes(rng):
    # per unit segment the ratio of two quadratic forms is monotone,
    # so interior values sit between the integer-node ratios
    p = random_bounded_params(rng, 2)
    lam = 0.1
    for _ in range(10):
        c1 = rng.standard_normal(4)
        c2 = rng.standard_normal(4)
        n = int(rng.integers(1, 8))
        frac = rng.uniform(0.1, 0.9)
        g = solution_gram(p, lam, [float(n), n + frac, float(n + 1)])
        r = [float((c1 @ gi @ c1).real) / float((c2 @ gi @ c2).real)
             for _, gi, _ in g.nodes]
        assert min(r[0], r[2]) - 1e-10 <= r[1] <= max(r[0], r[2]) + 1e-10


def test_nonsub_free_inside_spectrum():
    p = make_family("free", 1)
    out = nonsub_diagnostic(p, 0.0, np.linspace(0.5, 100, 40))
    assert out["verdict"] == "nonsubordinate_evidence"
    assert max(c for _, c in out["cond_trajectory"]) <= 1e3


def test_nonsub_free_outside_spectrum():
    p = make_family("free", 1)
    out = nonsub_diagnostic(p, 3.0, np.linspace(0.8, 16, 20))
    assert out["verdict"] == "subordinate_evidence"
    oracle = math.log((3 + math.sqrt(5)) / 2)
    assert abs(out["growth_rate_per_step"] - oracle) < 0.05 * oracle


def test_report_gating():
    p = make_family("free", 1)
    good = nonsub_diagnostic(p, 0.0, np.linspace(0.5, 64, 32))
    rep = spectral_consequence_report(p, 0.0, good)
    assert rep["claim"] is not None
    assert rep["l2_dim_estimate"] == 0
    assert rep["consistent"]

    bad = nonsub_diagnostic(p, 3.0, np.linspace(0.8, 16, 20))
    assert spectral_consequence_report(p, 3.0, bad)["claim"] is None


def test_report_requires_bounded_flag():
    p = make_family("periodic_modulated", 1,
                    A_period=[[[1.0]]], B_period=[[[0.0]]], growth=0.1)
    assert not p.bounded
    diag = {"verdict": "nonsubordinate_evidence", "cap": 1e3,
            "cond_trajectory": [(1.0, 1.0)]}
    rep = spectral_consequence_report(p, 0.0, diag)
    assert rep["claim"] is None
    assert "bounded" in rep["reason"]


# --- the closed-form length function --------------------------------------

ULP = float(np.finfo(float).eps)  # the spacing of doubles at 1


def _jl_oracle(p, lam, eps, kind):
    """ell at 50 digits from the same float nodes: the first node whose product
    reaches 1/(2 eps) and the exact root of the quadratic on the segment before it."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    pn, qn = (list(map(mp.mpf, x)) for x in _pq_sq_nodes(p, lam, 64, kind))
    t2 = (1 / (2 * mp.mpf(eps))) ** 2
    m = next(i for i in range(len(pn)) if pn[i] * qn[i] >= t2)
    dp, dq = pn[m] - pn[m - 1], qn[m] - qn[m - 1]
    a, b, c = dp * dq, pn[m - 1] * dq + qn[m - 1] * dp, t2 - pn[m - 1] * qn[m - 1]
    return m - 1 + 2 * c / (b + mp.sqrt(b * b + 4 * a * c))


def test_jl_matches_a_50_digit_root_of_the_same_quadratic(rng):
    # worst of 36 000 samples (d = 1-3, lam in [-3, 3], eps 0.3/0.1/0.03, both
    # kinds): |ell - oracle| = 13.6 ulp * max(1, ell); pinned at 45 ulp
    worst = 0.0
    for d in (1, 2, 3):
        for _ in range(3):
            p = random_bounded_params(rng, d)
            for lam in rng.uniform(-3.0, 3.0, 3):
                for eps in (0.3, 0.1, 0.03):
                    for kind in (SeminormKind.matrix_norm, SeminormKind.matrix_minmod):
                        s = jl_function(p, float(lam), eps, kind)
                        if s.ell >= 63:  # past the nodes the oracle reads
                            continue
                        exact = _jl_oracle(p, float(lam), eps, kind)
                        worst = max(worst, float(abs(s.ell - exact)) / max(1.0, s.ell))
                        assert s.residual <= 2 * ULP
    assert worst <= 45 * ULP


@pytest.mark.parametrize("family, lam, eps", [
    (make_family("free", 1), 0.3, 0.005),
    (make_family("periodic_modulated", 2, growth=0.0,
                 A_period=[[[1.0, 0.3], [0.0, 0.8]], [[1.2, 0.0], [0.1, 0.9]]],
                 B_period=[[[0.5, 0.2], [0.2, -0.4]], [[0.0, 0.0], [0.0, 0.0]]]), -1.0, 1e-3),
])
def test_jl_does_not_depend_on_the_first_horizon(monkeypatch, family, lam, eps):
    import bjweyl.subordinacy as sub

    # 100 is not a power of two: a root that depended on the bracket
    # [0, horizon] would differ there, since brackets [0, 2^k] are nested
    samples = []
    for start in (64, 100, 1024):
        monkeypatch.setattr(sub, "HORIZON_START", start)
        samples.append(jl_function(family, lam, eps))
    assert samples[0].ell > 100  # the walks from 64 and 100 double at least once
    assert samples[0] == samples[1] == samples[2]


@pytest.mark.parametrize("lam, eps, lo, hi", [
    (0.0, 10.0, 0.0, 1.0),  # T = 0.05: the crossing is on [0, 1], where Q_0 = 0
    (0.0, 0.5, 1.0, 1.0),  # free at 0: ||P||^2 = 1, 1, 2, 2, ... and ||Q||^2 = 0, 1, 1, 2, ...
    (0.0, 0.1, 9.0, 9.0),  # node 9: 5 * 5 = T^2
    (30.0, 1e-305, 103.0, 104.0),  # the product of the squared nodes passes the double range
])
def test_jl_residual_is_at_most_two_ulp(lam, eps, lo, hi):
    s = jl_function(make_family("free", 1), lam, eps)
    assert s.residual <= 2 * ULP
    assert lo - math.ulp(hi) <= s.ell <= hi + math.ulp(hi)


def test_jl_a_non_finite_node_on_the_crossing_segment_raises():
    # at lam = 30 the squared seminorm of P passes the double range at t = 105,
    # where the node product first reaches 1/(2 * 1e-308)
    with pytest.raises(ArithmeticError, match=r"squared seminorm at t=105 is not finite"):
        jl_function(make_family("free", 1), 30.0, 1e-308)


def test_gram_condition_of_entries_near_the_double_range():
    # G + G* would overflow; the halves do not, and the spread saturates
    import bjweyl.subordinacy as sub

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sub._cond(np.array([[1e308, 0.0], [0.0, 1.0]])) == sub.COND_SATURATION
