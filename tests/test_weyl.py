import math
import warnings

import numpy as np
import pytest

import bjweyl.weyl
from bjweyl import transfer
from bjweyl.blockcore import HORIZON_CAP, JacobiParams, ParamsError, make_family
from bjweyl.solutions import columns_as_gev_check, compute_PQ, decompose
from bjweyl.weyl import (
    RANK_REL,
    boundary_scan,
    default_n_rule,
    energy_identity_gap,
    finite_section,
    gev_l2_dimension,
    weyl_resolvent,
    weyl_schur,
    weyl_solution,
)
from bjweyl.subordinacy import gram_nodes
from conftest import random_bounded_params

FREE_W_2I = 1j * (math.sqrt(2.0) - 1.0)


def test_finite_section_free_d1():
    p = make_family("free", 1)
    h = finite_section(p, 3).H
    np.testing.assert_array_equal(h.real, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_finite_section_hermitian(rng):
    p = random_bounded_params(rng, 3)
    h = finite_section(p, 8).H
    assert np.linalg.norm(h - h.conj().T) < 1e-12


def test_single_block_section_inverse(rng):
    p = random_bounded_params(rng, 2)
    z = 0.4 + 1.3j
    expect = np.linalg.inv(p.B(0) - z * np.eye(2))
    np.testing.assert_allclose(weyl_resolvent(p, z, 1).W, expect, atol=1e-12)
    np.testing.assert_allclose(weyl_schur(p, z, 1).W, expect, atol=1e-12)


def test_free_closed_form():
    p = make_family("free", 1)
    w = weyl_schur(p, 2j, 200).W[0, 0]
    assert abs(w - FREE_W_2I) < 1e-6


def test_route_agreement(rng):
    for d in (1, 2, 3):
        p = random_bounded_params(rng, d)
        z = rng.uniform(-2, 2) + 1j * rng.uniform(0.5, 2)
        a = weyl_schur(p, z, 40).W
        b = weyl_resolvent(p, z, 40).W
        assert np.linalg.norm(a - b, 2) < 1e-11


def test_schur_converges_in_N():
    p = make_family("free", 1)
    errs = [abs(weyl_schur(p, 2j, n).W[0, 0] - FREE_W_2I) for n in (5, 10, 20, 40)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_herglotz_and_symmetry(rng):
    p = random_bounded_params(rng, 2)
    z = 0.3 + 0.8j
    up = weyl_schur(p, z, 40)
    dn = weyl_schur(p, np.conj(z), 40)
    assert up.diagnostics["herglotz_min_eig"] > 0
    assert dn.diagnostics["herglotz_min_eig"] > 0  # sign-adjusted below the axis
    assert np.linalg.norm(dn.W - up.W.conj().T, 2) < 1e-10
    assert abs(np.linalg.det(up.W)) > 0


def test_weyl_solution_shape_and_tail():
    p = make_family("free", 1)
    w = weyl_schur(p, 2j, 200).W
    u = weyl_solution(p, 2j, w, 60)
    s, t = decompose(u)
    np.testing.assert_allclose(t, np.eye(1), atol=1e-12)
    np.testing.assert_allclose(s, w, atol=1e-10)
    assert abs(u.seq.term(50)[0, 0]) < 1e-8
    assert columns_as_gev_check(p, u)["max_residual"] < 1e-9


def test_weyl_solution_tail_decays(rng):
    p = random_bounded_params(rng, 2)
    z = 0.1 + 1.5j
    w = weyl_schur(p, z, 60).W
    u = weyl_solution(p, z, w, 40)
    head = sum(np.linalg.norm(u.seq.term(k), 2) ** 2 for k in range(0, 10))
    tail = sum(np.linalg.norm(u.seq.term(k), 2) ** 2 for k in range(30, 41))
    assert tail < 1e-6 * head


def test_energy_identity_exact_on_section(rng):
    p = random_bounded_params(rng, 2)
    z = 0.5 + 2.0j
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    out = energy_identity_gap(p, z, 50, v)
    assert out["gap"] < 1e-12
    assert out["trace_bound_ok"]
    assert out["w_bound_ok"]


def test_energy_identity_free_oracle():
    p = make_family("free", 1)
    out = energy_identity_gap(p, 2j, 200, [1.0])
    assert out["lhs"] == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-6)
    assert out["gap"] < 1e-6


def test_boundary_scan_free():
    p = make_family("free", 1)
    scan = boundary_scan(p, [0.0, 3.0], [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    inside, outside = scan.classification
    assert inside["label"] == "ac"
    assert inside["rank"] == 1
    assert abs(inside["density"][0, 0].real - 1 / math.pi) < 0.02 / math.pi
    assert outside["label"] == "outside"


def test_boundary_scan_diagonal_rank_two():
    p = make_family("diagonal", 2,
                    components=[{"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.0}])
    scan = boundary_scan(p, [0.0], [1e-1, 3e-2, 1e-2, 3e-3])
    assert scan.classification[0]["label"] == "ac"
    assert scan.classification[0]["rank"] == 2


def test_boundary_scan_records_rungs_past_a_short_family():
    p = make_family("explicit", 1, A=[[[1.0]]] * 3, B=[[[0.0]]] * 3)
    # N(1.0) = 3 fits the three listed blocks, N(0.5) = 6 does not
    scan = boundary_scan(p, [-0.5, 0.5], [1.0, 0.5], n_rule=lambda eps: round(3 / eps))
    assert [r["error"] == "" for r in scan.rows] == [True, False, True, False]
    assert all("beyond its 3 listed blocks" in r["error"] and r["W"] is None
               for r in scan.rows[1::2])
    assert [c["label"] for c in scan.classification] == ["undecided", "undecided"]


def test_singular_last_schur_pivot_names_its_block():
    p = make_family("constant", 1, A=[[1.0]], B=[[0.0]])
    with pytest.raises(np.linalg.LinAlgError, match="block 0"):
        weyl_schur(p, 0j, 1)


def test_boundary_scan_rejects_bad_ladder():
    p = make_family("free", 1)
    with pytest.raises(ValueError):
        boundary_scan(p, [0.0], [1e-3, 1e-2])


def test_default_n_rule():
    assert default_n_rule(1e-2) == 5000
    assert default_n_rule(10.0) == 5


def test_gev_l2_dimension_free():
    p = make_family("free", 1)
    assert gev_l2_dimension(p, 2j, 32)["dim_estimate"] == 1
    assert gev_l2_dimension(p, 0j, 32)["dim_estimate"] == 0


def test_gev_l2_dimension_diagonal():
    p = make_family("diagonal", 2,
                    components=[{"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.5}])
    out = gev_l2_dimension(p, 2j, 32)
    assert out["dim_estimate"] == 2  # = d, the upper bound off the real axis


def test_weyl_schur_checks_the_blocks_of_a_user_rule():
    # before the store checked every family, this returned W = 0.667i
    p = JacobiParams(1, lambda n: (np.zeros((1, 1)) if n == 2 else np.eye(1), np.zeros((1, 1))))
    with pytest.raises(ParamsError, match="^singular A at n=2$"):
        weyl_schur(p, 1j, 5)


def test_walks_above_the_block_cap_raise_before_calling_the_rule():
    calls = []
    p = JacobiParams(1, lambda n: calls.append(n) or (np.eye(1), np.zeros((1, 1))))
    with pytest.raises(ValueError, match=f"above the cap of {HORIZON_CAP} blocks"):
        weyl_schur(p, 0.1j, HORIZON_CAP + 1)
    with pytest.raises(ValueError, match=f"above the cap of {HORIZON_CAP} blocks"):
        gram_nodes(p, 0.1, [float(HORIZON_CAP)])
    scan = boundary_scan(p, [0.0], [1e-300])
    assert "above the cap" in scan.rows[0]["error"]
    assert calls == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_array_z_schur_equals_the_scalar_calls(rng, d):
    p = random_bounded_params(rng, d)
    z = rng.uniform(-3, 3, 8) + 1j * np.array([0.5, -0.3, 0.01, -0.01, 1.0, -2.0, 0.2, -0.7])
    for zs in (z, z.reshape(2, 4)):
        batch = weyl_schur(p, zs, 40)
        assert batch.W.shape == zs.shape + (d, d)
        for idx in np.ndindex(zs.shape):
            one = weyl_schur(p, complex(zs[idx]), 40)
            assert np.array_equal(batch.W[idx], one.W)
            assert type(one.diagnostics["herglotz_min_eig"]) is float
            assert batch.diagnostics["herglotz_min_eig"][idx] == one.diagnostics["herglotz_min_eig"]


def test_array_z_schur_raises_the_scalar_message_at_a_singular_pivot():
    p = make_family("free", 1)  # z = 1 is an eigenvalue of the 2-block section
    with pytest.raises(np.linalg.LinAlgError) as scalar:
        weyl_schur(p, 1 + 0j, 2)
    with pytest.raises(np.linalg.LinAlgError) as batch:
        weyl_schur(p, np.array([2j, 1 + 0j, 0.5 - 1j]), 2)
    assert str(batch.value) == str(scalar.value) == (
        "singular Schur pivot at block 0: z too close to the section spectrum")


def _classify(ws: list, tr_im: list) -> dict:
    """One lambda's label from its ladder of W values (eps decreasing), a W at a
    time: the scan's decision rules before they read stacked statistics."""
    n = len(ws)
    if n >= 4 and tr_im[-1] > 1e3 and all(
            tr_im[k + 1] >= 2.0 * tr_im[k] for k in range(n - 4, n - 1)):
        return {"label": "sing_candidate", "rank": None, "density": None}
    diffs = [np.linalg.norm(ws[k + 1] - ws[k], 2) for k in range(n - 1)]
    scale = max(1.0, np.linalg.norm(ws[-1], 2))
    tail = diffs[-3:] if len(diffs) >= 3 else diffs
    cauchy = all(
        tail[k + 1] <= 0.9 * tail[k] or tail[k + 1] < 1e-10 * scale
        for k in range(len(tail) - 1)
    )
    if not cauchy:
        return {"label": "undecided", "rank": None, "density": None}
    j0 = max(0, n - 3)
    vanishing = (all(tr_im[k + 1] < tr_im[k] for k in range(j0, n - 1))
                 and tr_im[-1] <= 0.5 * tr_im[j0])
    if vanishing:
        return {"label": "outside", "rank": 0, "density": None}
    im_w = (ws[-1] - ws[-1].conj().T) / 2j
    sv = np.linalg.svd(im_w, compute_uv=False)
    thr = max(1e-6, RANK_REL * (sv[0] if len(sv) else 0.0))
    rank = int(np.sum(sv > thr))
    if rank >= 1:
        return {"label": "ac", "rank": rank, "density": im_w / math.pi}
    return {"label": "outside", "rank": 0, "density": None}


def _scan_one_call_per_sample(p, lambda_grid, eps_ladder, n_rule):
    """boundary_scan's rows and classification from one scalar weyl_schur call
    per (lambda, eps)."""
    rows, classification = [], []
    for lam in lambda_grid:
        ws, tr_im, errors = [], [], []
        for eps in eps_ladder:
            try:
                w = weyl_schur(p, complex(lam, eps), n_rule(eps)).W
            except (ArithmeticError, ValueError, IndexError) as exc:
                errors.append(str(exc))
                rows.append((lam, eps, None, math.nan, str(exc)))
                continue
            ws.append(w)
            tr_im.append(float(np.trace((w - w.conj().T) / 2j).real))
            rows.append((lam, eps, w, tr_im[-1], ""))
        if errors or len(ws) < 2:
            classification.append({"label": "undecided", "rank": None, "density": None,
                                   "error": errors[0] if errors else ""})
        else:
            classification.append(_classify(ws, tr_im))
    return rows, classification


def _same(x, y):
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and np.array_equal(x, y)
    return x == y or (x != x and y != y)  # NaN tr_im on both sides


_README = [{"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.5}]


_LABELS = {"sing_candidate": ["sing_candidate"], "undecided_a20": ["undecided"] * 2,
           "outside_rank_0": ["outside"]}


@pytest.mark.parametrize("case", ["short_explicit", "random_d1", "random_d2", "random_d3",
                                  "free", "constant_a5", "readme_diagonal", "zero_rung",
                                  "periodic_bad_block", "sing_candidate", "undecided_a20",
                                  "outside_rank_0"])
def test_boundary_scan_equals_one_schur_call_per_sample(rng, monkeypatch, case):
    grid, ladder, n_rule, failed = np.linspace(-2, 2, 9), [0.1, 0.03, 0.01, 0.003], \
        default_n_rule, set()  # failed: the rungs that fail their own check
    if case == "short_explicit":  # the deepest two rungs need more than the 3 listed blocks
        p = make_family("explicit", 1, A=[[[1.0]]] * 3, B=[[[0.0]]] * 3)
        grid, ladder, n_rule = np.linspace(-2, 2, 5), [1.0, 0.5, 0.25], lambda eps: round(3 / eps)
        failed = {1, 2}
    elif case.startswith("random"):  # 96 random blocks: N = 80 fits, the last rung's N = 200 does not
        p = random_bounded_params(rng, int(case[-1]))
        grid, ladder = np.linspace(-3, 3, 7), [0.5, 0.2, 0.1, 0.05, 0.02]
        n_rule, failed = lambda eps: math.ceil(4 / eps), {4}
    elif case == "free":  # both routes in one scan: N = 2 < M and N |Im z| = 10 are swept
        p, ladder = make_family("free", 1), [5.0, 1.0, 0.3, 0.1, 0.03]
        n_rule = lambda eps: math.ceil((10 if eps > 0.5 else 50) / eps)
    elif case == "constant_a5":  # N |Im z| = 50 is below the gate's 20 ||A|| = 100: swept
        p, grid = make_family("constant", 1, A=[[5.0]], B=[[0.0]]), np.linspace(-12, 12, 9)
    elif case == "zero_rung":  # N = 0 fails the second rung's check, and only that rung
        p = make_family("diagonal", 2, components=_README)
        n_rule, failed = lambda eps: 0 if eps == 0.03 else default_n_rule(eps), {1}
    elif case == "periodic_bad_block":  # B_2 is not Hermitian: N = 1 and 2 read only B_0, B_1
        eye, zero = np.eye(2), np.zeros((2, 2))
        p = make_family("periodic_modulated", 2, A_period=[eye] * 3,
                        B_period=[zero, zero, np.triu(np.ones((2, 2)), 1)])
        grid, ladder, failed = np.linspace(-1, 1, 3), [50.0, 30.0, 1.0], {2}
    elif case == "sing_candidate":  # B_0 = 5I: an eigenvalue at 5.2, tr Im W 19.2 to 1920
        p = JacobiParams(2, lambda n: (np.eye(2), 5.0 * np.eye(2) if n == 0 else np.zeros((2, 2))))
        grid, ladder = np.array([5.2]), [0.1, 0.03, 0.01, 0.003, 0.001]
        n_rule = lambda eps: math.ceil(5 / eps)
    elif case == "undecided_a20":  # N(eps) is short for a = 20: W does not contract
        p, grid = make_family("constant", 1, A=[[20.0]], B=[[0.0]]), np.array([0.0, 10.0])
    elif case == "outside_rank_0":  # tr Im W 1.03e-8, then 9.28e-9: no vanishing, no rank
        p, grid, ladder = make_family("free", 1), np.array([10.0]), [1e-6, 9e-7]
        n_rule = lambda eps: 50
    else:
        p = make_family("diagonal", 2, components=_README)
    z_ladder = np.array(ladder)[:, None] * 1j + grid
    routes = {bool(x) for r, eps in enumerate(ladder) if r not in failed
              for x in bjweyl.weyl._doubles(p, z_ladder[r], n_rule(eps))}
    assert routes == {"free": {True, False}, "constant_a5": {False},
                      "readme_diagonal": {True}}.get(case, routes)
    rows, classification = _scan_one_call_per_sample(p, grid, ladder, n_rule)
    calls = []  # the scan's calls of the W stack behind weyl_schur
    sweep = bjweyl.weyl._schur
    monkeypatch.setattr(bjweyl.weyl, "_schur", lambda *a: calls.append(a[1]) or sweep(*a))
    scan = boundary_scan(p, grid, ladder, n_rule=n_rule)
    got = [(r["lambda"], r["eps"], r["W"], r["tr_im"], r["error"]) for r in scan.rows]
    assert len(got) == len(rows) == len(grid) * len(ladder)
    assert all(_same(x, y) for g, r in zip(got, rows) for x, y in zip(g, r))
    assert [c.keys() for c in scan.classification] == [c.keys() for c in classification]
    assert all(_same(c[k], e[k]) for c, e in zip(scan.classification, classification) for k in c)
    # one call, over the rungs that passed their check; only the failed rungs have errors
    assert [np.shape(z) for z in calls] == [(len(ladder) - len(failed), len(grid))]
    assert {k % len(ladder) for k, r in enumerate(rows) if r[4]} == failed
    if case in _LABELS:
        assert [c["label"] for c in classification] == _LABELS[case]


def test_a_failed_schur_call_is_every_called_point_s_error(monkeypatch):
    message = "singular Schur pivot at block 3: z too close to the section spectrum"
    calls = []

    def singular(p, z, N):
        calls.append(np.shape(z))
        raise np.linalg.LinAlgError(message)

    monkeypatch.setattr(bjweyl.weyl, "_schur", singular)
    scan = boundary_scan(make_family("free", 1), [-1.0, 0.0, 1.0], [0.5, 0.2, 0.1],
                         n_rule=lambda eps: 0 if eps == 0.2 else 10)
    assert calls == [(2, 3)]  # rungs 0 and 2; rung 1 failed its own check
    assert [r["error"] for r in scan.rows] == [message, "N must be >= 1", message] * 3
    assert all(r["W"] is None and math.isnan(r["tr_im"]) for r in scan.rows)
    assert scan.classification == [{"label": "undecided", "rank": None, "density": None,
                                     "error": message}] * 3


def test_library_scan_past_the_cap_names_it_without_a_numpy_warning():
    message = f"eps = 1e-320 needs N above the cap of {HORIZON_CAP} blocks"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = boundary_scan(make_family("free", 1), [0.0], [1e-320])
        with pytest.raises(ValueError, match=f"^{message}$"):
            default_n_rule(1e-320)
    assert scan.rows[0]["error"] == scan.classification[0]["error"] == message
    assert default_n_rule(50.0 / HORIZON_CAP) == HORIZON_CAP


def test_a_non_finite_sweep_raises_for_its_z_only_without_a_numpy_warning():
    message = "W is not finite: the Schur sweep overflowed"
    p = make_family("free", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=f"^{message}$"):
            weyl_schur(p, np.array([2j, complex(math.nan, 1.0)]), 30)
        scan = boundary_scan(p, [0.0, math.nan, 0.5], [0.5, 0.2, 0.1])
    per_lambda = boundary_scan(p, [0.0, 0.5], [0.5, 0.2, 0.1])
    assert [r["error"] for r in scan.rows] == [""] * 3 + [message] * 3 + [""] * 3
    assert scan.classification[1] == {"label": "undecided", "rank": None, "density": None,
                                      "error": message}
    for i, j in ((0, 0), (2, 1)):
        assert scan.classification[i]["label"] == per_lambda.classification[j]["label"]
        assert all(np.array_equal(a["W"], b["W"])
                   for a, b in zip(scan.rows[3 * i:3 * i + 3], per_lambda.rows[3 * j:3 * j + 3]))


_NON_FINITE = [complex(math.inf, 0.1), complex(-math.inf, 0.1), complex(0.5, math.inf),
               complex(0.5, -math.inf), complex(math.nan, 0.1), complex(0.5, math.nan)]


@pytest.mark.parametrize("z", _NON_FINITE)
@pytest.mark.parametrize("family", ["free", "explicit"])  # with a period, and without
def test_a_non_finite_z_is_a_located_error_at_every_zi_without_a_numpy_warning(z, family):
    p = (make_family("free", 1) if family == "free"
         else make_family("explicit", 1, A=[[[1.0]]] * 300, B=[[[0.0]]] * 300))
    message = "W is not finite: the Schur sweep overflowed"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zs in (z, np.array([2j, z, 0.5 + 0.5j])):
            with pytest.raises(ArithmeticError, match=f"^{message}$"):
                weyl_schur(p, zs, 50)
        # zI for the transfer step and the P/Q walk comes from the same helper
        with pytest.raises(ValueError, match="^recurrence overflows: term at n=1 is not finite$"):
            compute_PQ(p, z, 5)
        assert not np.all(np.isfinite(transfer._step(p, np.array([1j, z]), 0)[1]))
        if z.imag == 0.1:  # a lambda of the scan
            scan = boundary_scan(p, [0.0, z.real], [0.5, 0.2])
    if z.imag == 0.1:
        assert [r["error"] for r in scan.rows] == ["", "", message, message]
        assert scan.classification[1]["error"] == message


def _family(rng, name):
    if name == "periodic":  # L = 3, d = 2: M = 12
        a, b = random_bounded_params(rng, 2, n_blocks=3).stack(3)
        return make_family("periodic_modulated", 2, A_period=list(a), B_period=list(b))
    if name == "readme_diagonal":
        return make_family("diagonal", 2, components=[{"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.5}])
    if name == "constant_a5":
        return make_family("constant", 1, A=[[5.0]], B=[[0.0]])
    if name == "explicit":
        a, b = random_bounded_params(rng, 2, n_blocks=1100).stack(1100)
        return make_family("explicit", 2, A=list(a), B=list(b))
    return random_bounded_params(rng, 2, n_blocks=1100)  # a user rule


@pytest.mark.parametrize("name", ["periodic", "readme_diagonal", "constant_a5", "explicit",
                                  "user_rule"])
def test_array_n_is_bit_identical_to_the_scalar_call_at_each_z_and_n(rng, name):
    p = _family(rng, name)
    M = bjweyl.weyl.DOUBLING_PERIODS * (p.period or 1)
    # below M, M, multiples of M (no remainder), remainders, and a long section
    ns = np.array([1, 3, M - 1, M, 2 * M, 8 * M, 8 * M + 5, 97, 1000])
    z = (rng.uniform(-3, 3, (4, 1)) + 1j * np.array([[1e-3], [0.05], [0.5], [2.0]]))
    if name == "constant_a5":  # the default rule's rungs, all below the gate of 20 ||A||
        ladder = np.array([1.0, 0.3, 0.1, 0.03])
        ns = np.array([default_n_rule(e) for e in ladder])[:, None]
        z = rng.uniform(-12, 12, 5) + 1j * ladder[:, None]
    fast = bjweyl.weyl._doubles(p, *np.broadcast_arrays(z, ns))
    if p.period is None or name == "constant_a5":
        assert not fast.any()
    else:  # N |Im z| on both sides of the gate, and N on both sides of M, in one call
        assert fast.any() and not fast.all()
    batch = weyl_schur(p, z, ns)
    assert batch.W.shape == fast.shape + (p.d, p.d)
    zb, nb = np.broadcast_arrays(z, ns)
    for idx in np.ndindex(fast.shape):
        one = weyl_schur(p, complex(zb[idx]), int(nb[idx]))
        assert np.array_equal(batch.W[idx], one.W)
        assert batch.diagnostics["herglotz_min_eig"][idx] == one.diagnostics["herglotz_min_eig"]


@pytest.mark.parametrize("name", ["periodic", "explicit"])
def test_an_empty_z_gives_an_empty_stack(rng, name):
    p = _family(rng, name)
    for z, ns in ((np.array([], dtype=complex), 50),
                  (np.zeros((0, 3), dtype=complex), np.array([5, 50, 1000]))):
        s = weyl_schur(p, z, ns)
        assert s.W.shape == z.shape + (p.d, p.d)
        assert np.shape(s.diagnostics["herglotz_min_eig"]) == z.shape


def test_an_array_n_above_the_cap_anywhere_raises_before_calling_the_rule():
    calls = []
    p = JacobiParams(1, lambda n: calls.append(n) or (np.eye(1), np.zeros((1, 1))))
    for ns in ([10, HORIZON_CAP + 1, 20], [[HORIZON_CAP + 7], [5]]):
        with pytest.raises(ValueError, match=f"^{max(np.ravel(ns))} blocks requested, above the "
                                             f"cap of {HORIZON_CAP} blocks$"):
            weyl_schur(p, 0.1j, np.array(ns))
    with pytest.raises(ValueError, match="^N must be >= 1$"):
        weyl_schur(p, np.array([0.1j, 1j]), np.array([4, 0]))
    assert calls == []


def test_weyl_solution_pads_for_small_im_z():
    # near the spectrum the resolvent columns decay at a rate of order Im z,
    # so a pad fixed by n_max truncates U_0 away from W
    p = make_family("free", 1)
    z = 0.3 + 0.01j
    w = weyl_schur(p, z, 4 * default_n_rule(z.imag)).W
    u = weyl_solution(p, z, w, 40)
    assert np.abs(u.seq.term(0) - w).max() < 1e-12


def test_weyl_solution_names_im_z_when_the_pad_passes_the_cap():
    p = make_family("free", 1)
    with pytest.raises(ValueError, match=rf"^Im z = 1e-05 needs a section above the cap of "
                                         rf"{HORIZON_CAP} blocks$"):
        weyl_solution(p, 0.3 + 1e-5j, np.eye(1), 40)
