import math
import warnings

import numpy as np
import pytest

from bjweyl.blockcore import JacobiParams, make_family
from bjweyl.seminorms import SeminormKind, seminorm, seminorm_nodes
from bjweyl.solutions import compute_PQ, solve_forward
from bjweyl.subordinacy import (
    HorizonExhausted,
    JLSample,
    _pq_sq_nodes,
    gram_nodes,
    jl_function,
    nonsub_diagnostic,
    solution_gram,
    spectral_consequence_report,
)
from bjweyl.transfer import transfer_step
from conftest import random_bounded_params, traced_peak


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
    pq = compute_PQ(p, lam, 64)
    pn, qn = (list(map(mp.mpf, seminorm_nodes(x, kind, 0, 64))) for x in (pq.P, pq.Q))
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


# --- one walk per call over an array of lambda ------------------------------

def _same_outcome(x, y):
    """Equal samples, trajectories or dicts, or exceptions of one type and text."""
    if isinstance(x, Exception) or isinstance(y, Exception):
        return type(x) is type(y) and str(x) == str(y)
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_outcome(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same_outcome(a, b) for a, b in zip(x, y))
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return x == y or (x != x and y != y)  # NaN growth rates on both sides


def _alone(f, *args):
    try:
        return f(*args)
    except (ArithmeticError, ValueError, IndexError, HorizonExhausted) as exc:
        return exc


def _random_periodic_family(rng, d, period=3):
    """A random period-3 perturbation of the free family: bands near [-2, 2], where
    ell grows like 1/eps, and gaps outside."""
    def noise():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    a = [np.eye(d) + 0.2 * noise() for _ in range(period)]
    b = [0.15 * (h + h.conj().T) for h in (noise() for _ in range(period))]
    return make_family("periodic_modulated", d, A_period=a, B_period=b, growth=0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_jl_on_a_lambda_grid_equals_the_calls_one_pair_at_a_time(rng, d):
    # [-4, 4] holds band and gap points; eps = 1e-3 walks past 64 in the bands
    p = _random_periodic_family(rng, d)
    lams, ladder = np.linspace(-4.0, 4.0, 9), [0.3, 0.05, 0.01, 1e-3]
    for kind in (SeminormKind.matrix_norm, SeminormKind.matrix_minmod):
        grid = jl_function(p, lams, ladder, kind)
        alone = [[_alone(jl_function, p, lam, eps, kind) for eps in ladder] for lam in lams]
        assert all(isinstance(s, JLSample) for row in grid for s in row)
        assert _same_outcome(grid, alone)
        assert max(s.ell for row in grid for s in row) > 64
        # each crossing segment holds the nodes of compute_PQ and seminorm_nodes at lam alone
        targets = [1 / (2 * eps) for eps in ladder]
        for lam, row in zip(lams, _pq_sq_nodes(p, lams, 2 ** 20, kind, targets)):
            pq = compute_PQ(p, float(lam), max(m for m, *_ in row))
            pn, qn = (seminorm_nodes(x, kind, 0, pq.n_max) for x in (pq.P, pq.Q))
            for target, (m, *segment) in zip(targets, row):
                assert m == np.searchsorted(np.sqrt(pn) * np.sqrt(qn), target)
                assert segment == [pn[m - 1], pn[m], qn[m - 1], qn[m]]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gram_nodes_on_an_array_of_z_equal_the_scalar_calls(rng, d):
    p = _random_periodic_family(rng, d)
    lams, ts = np.linspace(-3.5, 3.5, 8), [0.0, 0.5, 3.0, 17.25, 64.0, 99.5]
    grid = gram_nodes(p, lams, ts)
    for i, lam in enumerate(lams):
        alone = gram_nodes(p, float(lam), ts)
        assert all(np.array_equal(grid[t][i], alone[t]) for t in ts)
    trajs = nonsub_diagnostic(p, lams, np.linspace(2.0, 120.0, 12))
    assert _same_outcome(trajs, [nonsub_diagnostic(p, lam, np.linspace(2.0, 120.0, 12))
                                 for lam in lams])


def test_an_overflowing_lambda_leaves_its_neighbours_unchanged():
    # B_5 = 1e307: at lam = 3, P_6 = (3 - 1e307) P_5 is not finite while every
    # node before it is, so eps whose target lies past node 5 fail at n = 6
    p = make_family("diagonal", 1, components=[{"a": 1.0, "b": [0.0] * 5 + [1e307] + [0.0] * 194}])
    ladder = [0.1, 1e-4, 1e-10]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = jl_function(p, [-0.5, 3.0, 0.7], ladder)
        plain = jl_function(p, [-0.5, 0.7], ladder)
        grams = nonsub_diagnostic(p, [-0.5, 3.0, 0.7], np.linspace(10.0, 150.0, 8))
    assert _same_outcome([mixed[0], mixed[2]], plain)
    assert [type(s) for s in mixed[1]] == [JLSample, JLSample, ValueError]
    assert str(mixed[1][2]) == "recurrence overflows: term at n=6 is not finite"
    assert _same_outcome(mixed[1], [_alone(jl_function, p, 3.0, eps) for eps in ladder])
    assert _same_outcome(grams, [_alone(nonsub_diagnostic, p, lam, np.linspace(10.0, 150.0, 8))
                                 for lam in (-0.5, 3.0, 0.7)])
    assert all(isinstance(g, ArithmeticError) for g in grams)  # B_5 enters every Gram


def test_a_far_lambda_needs_only_the_nodes_before_its_overflow():
    # P_n(1e6) overflows at n = 52, but the product passes 1/(2 eps) at node 1
    s = jl_function(make_family("free", 1), 1e6, 0.1)
    assert 0.0 < s.ell < 1.0 and s.residual <= 2 * ULP


def test_a_rule_that_raises_gives_each_pair_its_own_outcome(rng, monkeypatch):
    # the walk past 96 blocks raises; pairs whose target is reached before keep their values
    import bjweyl.subordinacy as sub

    base = _random_periodic_family(rng, 2)

    def rule(n):
        if n >= 96:
            raise ValueError(f"no block at n={n}")
        return base.rule(n)

    p = JacobiParams(2, rule)
    lams, ladder = np.linspace(-3.0, 3.0, 7), [0.5, 0.05, 1e-3]
    walks, walk = [], sub._pq_sq_nodes
    monkeypatch.setattr(sub, "_pq_sq_nodes", lambda *args: walks.append(args) or walk(*args))
    grid = jl_function(p, lams, ladder)
    assert len(walks) == 1  # no pair is redone alone
    alone = [[_alone(jl_function, p, lam, eps) for eps in ladder] for lam in lams]
    assert _same_outcome(grid, alone)
    errors = [str(s) for row in grid for s in row if isinstance(s, Exception)]
    assert errors and set(errors) == {"no block at n=96"}
    assert any(isinstance(s, JLSample) for row in grid for s in row)
    ts = np.linspace(10.0, 120.0, 4)  # G_t at t = 120 needs 121 blocks
    assert _same_outcome(nonsub_diagnostic(p, lams, ts),
                         [_alone(nonsub_diagnostic, p, lam, ts) for lam in lams])


def test_jl_makes_one_walk_to_the_cap(monkeypatch):
    # a = 1e308: Q_n stays near 1e-308 and the product never reaches a target
    import bjweyl.solutions as sol
    import bjweyl.subordinacy as sub

    cap, steps = 2 ** 12, []
    walk = sol._steps

    def counted(p, z, c_prev, c_cur, first_n, n_max):
        steps.append(n_max - first_n)
        return walk(p, z, c_prev, c_cur, first_n, n_max)

    monkeypatch.setattr(sub, "HORIZON_CAP", cap)
    monkeypatch.setattr(sol, "_steps", counted)
    monkeypatch.setattr(sub, "_steps", counted)
    p = make_family("diagonal", 1, components=[{"a": 1e308, "b": 0.0}])
    ladder = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    grid = jl_function(p, np.linspace(-2.0, 2.0, 9), ladder)
    assert sum(steps) <= cap
    for row in grid:
        assert [str(s) for s in row] == [
            f"seminorm product below {1 / (2 * eps):.6g} up to t = {cap}" for eps in ladder]
        assert all(isinstance(s, HorizonExhausted) for s in row)


def test_jl_memory_does_not_grow_with_the_horizon(monkeypatch):
    # a = 1e308: no target is ever reached, so every lam walks to the cap; the
    # blocks are stored before tracing, so the peak is the walk's own
    import tracemalloc

    import bjweyl.subordinacy as sub

    p = make_family("diagonal", 1, components=[{"a": 1e308, "b": 0.0}])
    p.stack(2 ** 12)
    lams, peaks = np.linspace(-2.0, 2.0, 33), []
    monkeypatch.setattr(sub, "WALK_SLAB", 2 ** 8)
    for cap in (2 ** 10, 2 ** 12):  # past 2^9 every extension is WALK_SLAB long
        monkeypatch.setattr(sub, "HORIZON_CAP", cap)
        tracemalloc.start()
        try:
            grid = jl_function(p, lams, [0.1, 1e-3])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(isinstance(s, HorizonExhausted) for row in grid for s in row)
    # the nodes of 33 lams over 3 * 2^10 more steps alone would be 1.6 MB
    assert peaks[1] < peaks[0] + 2 ** 18


@pytest.mark.parametrize("eps", [0.0, -0.1, math.inf, -math.inf, math.nan])
def test_jl_rejects_an_eps_that_is_not_positive_and_finite(eps):
    p = make_family("free", 1)
    with pytest.raises(ValueError, match="eps must be positive"):
        jl_function(p, 0.0, eps)
    with pytest.raises(ValueError, match="eps must be positive"):
        jl_function(p, [0.0, 1.0], [0.1, eps])


# --- what the walks hold --------------------------------------------------------

def _gram_oracle(p, z, ts):
    """G_t at one z from np.cumsum over every term (Sel R_k)*(Sel R_k), R_k multiplied
    out of transfer_step."""
    d, top = p.d, max(math.floor(t) + 1 for t in ts)
    rows, r = [np.eye(2 * d, dtype=complex)[d:]], None
    for k in range(top):
        step = transfer_step(p, z, k)["T"]
        r = step if r is None else step @ r
        rows.append(r[d:])
    terms = np.array([c.conj().T @ c for c in rows])
    cum = np.cumsum(terms, axis=0)
    return {t: cum[math.floor(t)] + (t - math.floor(t)) * terms[math.floor(t) + 1]
            if t % 1 else cum[int(t)] for t in ts}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gram_nodes_are_the_cumulative_sums_bit_for_bit(rng, d):
    p = random_bounded_params(rng, d)
    ts = [3.0, 0.0, 2.5, 7.75, 3.0, 0.25, 1.0, 12.0, 6.999999999999999, 40]  # unsorted, a repeat
    zs = np.array([0.7, -1.3 + 0.4j, 2.5 + 1e-3j, 0.2 - 0.9j])
    grid = gram_nodes(p, zs, ts)
    assert list(grid) == list(dict.fromkeys(ts))
    for i, z in enumerate(zs):
        oracle, alone = _gram_oracle(p, z, ts), gram_nodes(p, z, ts)
        assert list(alone) == list(grid)
        for t in ts:
            assert alone[t].tobytes() == oracle[t].tobytes()
            assert grid[t][i].tobytes() == oracle[t].tobytes()


def test_gram_memory_does_not_grow_with_t():
    # free d = 2 stays bounded on [-2, 2]; the blocks are stored before tracing,
    # so the peak is the walk's own
    p = make_family("free", 2)
    p.stack(2 ** 13 + 1)
    lams, peaks = np.linspace(-2.0, 2.0, 9), []
    for t in (2 ** 10, 2 ** 13):
        grams, peak = traced_peak(gram_nodes, p, lams, np.linspace(t / 4, t, 4))
        assert all(np.isfinite(g).all() for g in grams.values())
        peaks.append(peak)
    # the terms of 9 lams over 7 * 2^10 more steps alone would be 16 MB
    assert peaks[1] < peaks[0] + 2 ** 16


def test_jl_holds_about_one_extension(monkeypatch):
    # a = 1e308: no target is ever reached, so every lam walks to the cap in
    # WALK_SLAB-long extensions from 2^10 on
    import bjweyl.subordinacy as sub

    p = make_family("diagonal", 2, components=[{"a": 1e308, "b": 0.0}] * 2)
    p.stack(2 ** 12)
    lams = np.linspace(-2.0, 2.0, 9)
    monkeypatch.setattr(sub, "WALK_SLAB", 2 ** 10)
    monkeypatch.setattr(sub, "HORIZON_CAP", 2 ** 12)
    grid, peak = traced_peak(jl_function, p, lams, [0.1, 1e-3])
    assert all(isinstance(s, HorizonExhausted) for row in grid for s in row)
    # one extension: WALK_SLAB + 2 terms of (P, Q) at 9 lams, 2 x 2 complex blocks; its
    # singular values and their squares add a quarter and an eighth of it
    extension = (2 ** 10 + 2) * 2 * len(lams) * 4 * 16
    assert peak < 1.5 * extension
