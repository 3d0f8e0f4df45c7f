"""The half-line W of periodic families (``_half_line``, the limit that doubling
converges to) and the sweep that ``weyl_schur`` is: which route a scan takes,
how close the half-line W stays to closed forms, the Floquet oracle and long
sweeps, and how each fails."""

import json
import math
import warnings

import numpy as np
import pytest

import bjweyl.weyl as weyl
from bjweyl.blockcore import HORIZON_CAP, JacobiParams, make_family, scaled_eye
from bjweyl.cli import main
from bjweyl.weyl import boundary_scan, weyl_resolvent, weyl_schur
from conftest import random_bounded_params

BOUND = 1e-12  # half-line W against a closed form or a long sweep, and the sweep against
# the resolvent: relative in norm
README = [{"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.5}]
NOT_FINITE = "W is not finite: the Schur sweep overflowed"
# Floquet oracle against the half-line W, pinned from the worst case over 40 seeds of
# the families below (L 1, 2, 3, 5; d 1-3; 15 lambda): 2.5e-13 at eps = 0.1; at 1e-3
# 5.3e-11, and 1.5e-8 at one lambda where the 4-block section is near an eigenvalue
# (the squaring carries the rounding of its first maps, whose corners reach 290)
FLOQUET_BOUND = {0.1: 1e-12, 1e-3: 1e-7}


def _swept(p, z, N):
    """W by the backward sweep alone."""
    return weyl._sweep(*p.stack(N), np.multiply.outer(z, np.eye(p.d, dtype=complex)))


def _half(p, z):
    """_half_line's W and converged mask for an array z, in z's shape."""
    w, converged = weyl._half_line(p, scaled_eye(np.ravel(z), p.d))
    return w.reshape(np.shape(z) + (p.d, p.d)), converged.reshape(np.shape(z))


def _rel(w, ref):
    return np.max(np.linalg.norm(w - ref, 2, axis=(-2, -1))
                  / np.linalg.norm(ref, 2, axis=(-2, -1)))


def _scalar_m(z, a, b):
    """W of the scalar family A_n = a, B_n = b: the root of a^2 m^2 + (z - b) m + 1 = 0
    with |a m| < 1."""
    s = np.sqrt((z - b) ** 2 - 4 * a * a + 0j)
    m1, m2 = (b - z + s) / (2 * a * a), (b - z - s) / (2 * a * a)
    return np.where(np.abs(a * m1) < 1, m1, m2)


def _floquet_w(p, z):
    """W(z) of the half-line from the d decaying eigenvectors of the one-period
    monodromy matrix: they give (U_0, U_1) of the square-summable solution, and
    W = G_0 = (B_0 - z + A_0 U_1 U_0^{-1})^{-1}."""
    L, d, eye = p.period, p.d, np.eye(p.d)
    a, b = p.stack(L)
    mono = np.eye(2 * d, dtype=complex)
    for n in range(1, L + 1):  # (U_{n-1}, U_n) -> (U_n, U_{n+1})
        a_inv = np.linalg.inv(a[n % L])
        mono = np.block([[np.zeros((d, d)), eye],
                         [-a_inv @ a[n - 1].conj().T, a_inv @ (z * eye - b[n % L])]]) @ mono
    mu, v = np.linalg.eig(mono)
    u = v[:, np.argsort(np.abs(mu))[:d]]
    return np.linalg.inv(b[0] - z * eye + a[0] @ u[d:] @ np.linalg.inv(u[:d]))


def _periodic(rng, L, d):
    a, b = random_bounded_params(rng, d, n_blocks=L).stack(L)
    return make_family("periodic_modulated", d, A_period=list(a), B_period=list(b))


def _spy(monkeypatch):
    """Record the z of each _half_line call and the N of each _schur call."""
    calls = {"half_line": [], "schur": []}
    half, schur = weyl._half_line, weyl._schur
    monkeypatch.setattr(weyl, "_half_line",
                        lambda p, zi: calls["half_line"].append(len(zi)) or half(p, zi))
    monkeypatch.setattr(weyl, "_schur",
                        lambda p, z, N: calls["schur"].append(np.shape(N)) or schur(p, z, N))
    return calls


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_rung_of_a_scan_like_ladder_is_doubled(rng, monkeypatch, d):
    # one _half_line call squares every (lambda, eps); no N, so the rule is not called
    comps = [{"a": float(rng.uniform(0.5, 1.5)), "b": float(rng.uniform(-1, 1))}
             for _ in range(d)]
    p = make_family("diagonal", d, components=comps)
    grid, ladder = np.linspace(-2.5, 2.5, 21), [1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001]
    calls, rule = _spy(monkeypatch), []
    scan = boundary_scan(p, grid, ladder, n_rule=lambda eps: rule.append(eps) or 1)
    assert calls == {"half_line": [21 * 7], "schur": []} and rule == []
    assert not any(r["error"] for r in scan.rows)


@pytest.mark.parametrize("p", [
    JacobiParams(1, lambda n: (np.eye(1), np.zeros((1, 1)))),
    make_family("explicit", 1, A=[[[1.0]]] * 900, B=[[[0.0]]] * 900),
    make_family("periodic_modulated", 1, A_period=[[[1.0]]], B_period=[[[0.0]]], growth=0.01),
    make_family("diagonal", 1, components=[{"a": [1.0] * 900, "b": 0.0}]),
], ids=["user_rule", "explicit", "growth", "diagonal_list"])
def test_a_family_without_a_period_is_swept(monkeypatch, p):
    z = np.linspace(-2, 2, 5) + 0.5j
    assert np.array_equal(weyl_schur(p, z, 800).W, _swept(p, z, 800))
    calls = _spy(monkeypatch)
    scan = boundary_scan(p, z.real, [0.5, 0.1], n_rule=lambda eps: round(80 / eps))
    assert calls == {"half_line": [], "schur": [(2, 1)]}
    assert np.array_equal(scan.rows[1]["W"], _swept(p, np.array([-2 + 0.1j]), 800)[0])


@pytest.mark.parametrize("z, N", [(1 + 1e-9j, 100), (1 + 1e-9j, 10 ** 4), (0.5 + 10j, 3),
                                  (0.5 + 0.3j, 33), (complex(0.5, math.nan), 400), (0.5, 400)])
def test_short_sections_and_near_axis_points_are_swept(z, N):
    # weyl_schur is the sweep at every (z, N), also on a family with a period
    p = make_family("free", 1)
    if np.isfinite(z):
        assert np.array_equal(weyl_schur(p, z, N).W, _swept(p, z, N))
    else:
        with pytest.raises(ArithmeticError, match=f"^{NOT_FINITE}$"):
            weyl_schur(p, z, N)


def test_the_overflowing_scale_of_a_1e308_coupling_is_swept():
    p = make_family("diagonal", 1, components=[{"a": 1e308, "b": 0.0}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=f"^{NOT_FINITE}$"):
            weyl_schur(p, 0.5 + 0.1j, 500)
        w, converged = _half(p, np.array([0.5 + 0.1j, -1 + 0.03j]))
        scan = boundary_scan(p, [-1.0, 1.0], [0.1, 0.03])
    assert not np.isfinite(w).all(axis=(1, 2)).any() and not converged.any()
    assert [r["error"] for r in scan.rows] == [NOT_FINITE] * 4


def test_a_periodic_family_above_the_block_cap_raises_the_cap_error_before_any_block():
    p = make_family("free", 1)
    with pytest.raises(ValueError, match=f"^{HORIZON_CAP + 1} blocks requested, above the cap of "
                                         f"{HORIZON_CAP} blocks$"):
        weyl_schur(p, np.array([1j, 0.3 + 0.1j]), HORIZON_CAP + 1)
    assert p._n == 0


@pytest.mark.parametrize("L, d", [(1, 1), (2, 2), (3, 3), (5, 2)])
def test_array_z_is_bit_identical_to_the_scalar_calls_on_both_routes(rng, L, d):
    p = _periodic(rng, L, d)
    N = 997
    z = rng.uniform(-3, 3, 8) + 1j * np.array([0.5, -0.3, 1e-3, -1e-3, 1.0, -2.0, 0.2, 1e-9])
    for zs in (z, z.reshape(2, 4), z[::3]):
        batch = weyl_schur(p, zs, N)
        w, converged = _half(p, zs)
        for idx in np.ndindex(zs.shape):
            one = weyl_schur(p, complex(zs[idx]), N)
            assert np.array_equal(batch.W[idx], one.W)
            assert batch.diagnostics["herglotz_min_eig"][idx] == one.diagnostics["herglotz_min_eig"]
            w_one, converged_one = _half(p, np.array([zs[idx]]))
            assert np.array_equal(w[idx], w_one[0]) and converged[idx] == converged_one[0]


def test_a_singular_composition_solve_is_a_located_error_without_a_numpy_warning():
    one, zero = np.ones((2, 1, 1), dtype=complex), np.zeros((2, 1, 1), dtype=complex)
    f = (one, one, one, one)  # gamma_f alpha_g = 1: I - gamma_f alpha_g is singular
    message = "singular doubling solve at {} blocks: z too close to the section spectrum"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=f"^{message.format(48)}$"):
            weyl._compose(f, (one, zero, zero, zero), 48)
        # an eigenvalue of the 8-block free section, met at the first squaring of the
        # 4-block map, whatever else is in the stack
        z = complex(2 * math.cos(math.pi / 9), 0.0)
        for zs in (np.array([z]), np.array([2j, z])):
            with pytest.raises(np.linalg.LinAlgError, match=f"^{message.format(8)}$"):
                _half(make_family("free", 1), zs)


@pytest.mark.parametrize("eps", [1.0, 0.1, 1e-2, 1e-3, 1e-4])
def test_doubled_w_matches_the_closed_forms_of_free_and_diagonal(eps):
    lam = np.concatenate([np.linspace(-2.5, 3.0, 221), [0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 2.5]])
    z = lam + 1j * eps
    free, diag = make_family("free", 1), make_family("diagonal", 2, components=README)
    w, converged = _half(free, z)
    assert converged.all()
    assert _rel(w[:, 0, 0, None, None], _scalar_m(z, 1.0, 0.0)[:, None, None]) <= BOUND
    want = np.zeros((len(z), 2, 2), dtype=complex)
    want[:, 0, 0], want[:, 1, 1] = _scalar_m(z, 1.0, 0.0), _scalar_m(z, 1.0, 0.5)
    w, converged = _half(diag, z)
    assert converged.all() and _rel(w, want) <= BOUND


@pytest.mark.parametrize("a", [1.0, 5.0, 20.0, 100.0])
def test_constant_families_read_their_closed_form_and_ac_rank_1(a):
    # N(eps) = 50/eps ignores ||A||, the half-line has no N.  Rounding grows like ||A||/eps:
    # BOUND up to ||A||/eps = 1e4 (free down to eps = 1e-4), in proportion past it (a = 100
    # at 0.003: 3.3e-12, measured 1.7e-12; a 2^20-block sweep is off by 4.6e-12 there)
    p = make_family("constant", 1, A=[[a]], B=[[0.0]])
    scan = boundary_scan(p, [0.0, a / 2], [0.1, 0.01, 0.003])
    for r in scan.rows:
        z = complex(r["lambda"], r["eps"])
        assert not r["error"]
        bound = BOUND * max(1.0, a / (1e4 * r["eps"]))
        assert abs(r["W"][0, 0] / _scalar_m(z, a, 0.0) - 1) <= bound
    assert [(c["label"], c["rank"]) for c in scan.classification] == [("ac", 1)] * 2


@pytest.mark.parametrize("L", [1, 2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_periodic_families_match_the_floquet_w(rng, L, d):
    p = _periodic(rng, L, d)
    s = max(np.linalg.norm(a, 2) for a in p.stack(L)[0])
    spread = 2 * s + max(np.linalg.norm(b, 2) for b in p.stack(L)[1])
    lam = np.linspace(-1.1 * spread, 1.1 * spread, 15)
    for eps, bound in FLOQUET_BOUND.items():
        w, converged = _half(p, lam + 1j * eps)
        assert converged.all()
        assert _rel(w, np.array([_floquet_w(p, x) for x in lam + 1j * eps])) <= bound


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_periodic_families_match_the_sweep_and_the_resolvent(rng, L, d):
    p = _periodic(rng, L, d)
    s = max(np.linalg.norm(a, 2) for a in p.stack(L)[0])
    spread = 2 * s + max(np.linalg.norm(b, 2) for b in p.stack(L)[1])
    lam = np.linspace(-1.1 * spread, 1.1 * spread, 15)
    # N |Im z| / max ||A_n|| and N: the sweep against the resolvent at every N, and the
    # half-line against sections long enough to reach it
    for ratio, N in ((20, 2000), (50, 601), (400, 120), (20, 4 * L), (20, 4 * L + 3)):
        z = lam + 1j * ratio * s / N
        w = weyl_schur(p, z, N).W
        assert np.array_equal(w, _swept(p, z, N))
        assert _rel(w, np.array([weyl_resolvent(p, x, N).W for x in z])) <= BOUND
        if ratio >= 50:  # measured within 8.9e-15 of the sweep at ratio 50 and 100
            assert _rel(_half(p, z)[0], w) <= BOUND


def test_the_weyl_command_route_diff_on_free_at_5000_blocks(tmp_path):
    cfg, out = tmp_path / "c.json", tmp_path / "w.json"
    cfg.write_text(json.dumps({"family": {"name": "free", "d": 1}, "command": "weyl",
                               "N": 5000, "z": [0.3, 0.01], "format": "json"}))
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert not row["error"] and float(row["route_diff"]) <= 1e-10


def test_a_scan_reads_the_labels_of_the_sweep():
    # the half-line W against the sweep at N(eps) of a period-less copy of the family
    p, grid, ladder = make_family("diagonal", 2, components=README), np.linspace(-2, 2, 41), \
        [0.1, 0.03, 0.01, 0.003]
    half = boundary_scan(p, grid, ladder)
    swept = boundary_scan(JacobiParams(p.d, p.rule), grid, ladder)
    assert [c["label"] for c in half.classification] == [c["label"] for c in swept.classification]
    assert [c["rank"] for c in half.classification] == [c["rank"] for c in swept.classification]
    assert max(_rel(a["W"], b["W"]) for a, b in zip(half.rows, swept.rows)) <= BOUND


def test_a_point_that_does_not_converge_is_a_named_row_error(tmp_path, capsys):
    # eps far below the reach of 2^22 blocks: lambda = 0.5 inside the band does not
    # converge; lambda = 3 outside it does, in a few squarings
    p, message = make_family("free", 1), "W did not converge at z = (0.5+{}j) within 4194304 blocks"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = boundary_scan(p, [0.5, 3.0], [1e-20, 1e-21])
        assert list(_half(p, np.array([0.5 + 1e-20j, 3 + 1e-20j]))[1]) == [False, True]
        # the CLI's floor on eps is the ladder check at n_rule_C, which a tiny C lowers
        cfg, out = tmp_path / "c.json", tmp_path / "s.csv"
        cfg.write_text(json.dumps({"family": {"name": "free", "d": 1}, "command": "weyl-scan",
                                   "lambda": {"min": 0.5, "max": 3.0, "steps": 2},
                                   "eps_ladder": [1e-20, 1e-21], "n_rule_C": 1e-300}))
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert [r["error"] for r in scan.rows] == [message.format("1e-20"), message.format("1e-21"),
                                               "", ""]
    assert scan.classification[0] == {"label": "undecided", "rank": None, "density": None,
                                      "error": message.format("1e-20")}
    assert capsys.readouterr().err == ""
    assert message.format("1e-20") in out.read_text()


def test_an_eps_below_rounding_is_a_row_error_and_no_wrong_w(tmp_path, capsys):
    # At lambda = 0 the 4-block map of free is the identity up to O(eps).  Rounding alone
    # damps it by about 1e-16 per block, so with no bound on the blocks alpha settles,
    # after 2^60 blocks, on 4.5e-285i at eps = 1e-300, where W = i.  At 1e-320 the first
    # pivot overflows.  lambda = 3 lies outside the band: W converges at every eps.
    p, ladder = make_family("free", 1), [1e-10, 1e-300, 1e-320]
    stalled = "W did not converge at z = {}j within 4194304 blocks"
    errors = [stalled.format("1e-10"), stalled.format("1e-300"), NOT_FINITE]
    cfg, out = tmp_path / "c.json", tmp_path / "s.csv"
    cfg.write_text(json.dumps({"family": {"name": "free", "d": 1}, "command": "weyl-scan",
                               "lambda": {"min": 0.0, "max": 3.0, "steps": 2},
                               "eps_ladder": ladder, "n_rule_C": 1e-320, "format": "json"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = boundary_scan(p, [0.0, 3.0], ladder)
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [r["error"] for r in scan.rows] == errors + [""] * 3
    assert all(r["W"] is None for r in scan.rows[:3])
    for r in scan.rows[3:]:
        z = complex(r["lambda"], r["eps"])
        assert abs(r["W"][0, 0] / _scalar_m(z, 1.0, 0.0) - 1) <= BOUND
    assert scan.classification[0]["label"] == "undecided"
    assert scan.classification[0]["error"] == errors[0]
    rows = [r for r in json.loads(out.read_text())["rows"] if r["eps"]]
    assert [r["error"] for r in rows] == errors + [""] * 3
    assert all(r["re_W_0_0"] == r["im_W_0_0"] == r["tr_im"] == "" for r in rows[:3])


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
def test_below_the_reach_only_points_off_the_spectrum_converge_and_match_floquet(eps):
    # Near a resonance of one of the squared sections the rounding of a squaring grows
    # like 1/eps^2.  With no bound on the blocks this family (seed 5, L = 1, d = 2)
    # converged at every lambda, 6.7e-7 off the Floquet W at 1e-8 and 1.8 off at 1e-10,
    # at a W with Im W < 0.  Within 2^22 blocks only the lambda off the spectrum converge.
    p = _periodic(np.random.default_rng(5), 1, 2)
    s = max(np.linalg.norm(a, 2) for a in p.stack(1)[0])
    spread = 2 * s + max(np.linalg.norm(b, 2) for b in p.stack(1)[1])
    z = np.linspace(-1.1 * spread, 1.1 * spread, 15) + 1j * eps
    w, converged = _half(p, z)
    assert converged.any() and not converged.all()
    assert _rel(w[converged], np.array([_floquet_w(p, x) for x in z[converged]])) <= BOUND
