"""weyl_schur's doubled route on periodic families: where it is taken, how close
it stays to the sweep, the resolvent and closed forms, and how it fails."""

import json
import math
import warnings

import numpy as np
import pytest

import bjweyl.weyl as weyl
from bjweyl.blockcore import HORIZON_CAP, JacobiParams, make_family
from bjweyl.cli import main
from bjweyl.weyl import boundary_scan, default_n_rule, weyl_resolvent, weyl_schur
from conftest import random_bounded_params

BOUND = 1e-12  # doubled W against the sweep, the resolvent or a closed form, relative in norm
README = [{"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.5}]


def _swept(p, z, N):
    """W by the backward sweep alone, whatever the family."""
    return weyl._sweep(*p.stack(N), np.multiply.outer(z, np.eye(p.d, dtype=complex)))


def _rel(w, ref):
    return np.max(np.linalg.norm(w - ref, 2, axis=(-2, -1))
                  / np.linalg.norm(ref, 2, axis=(-2, -1)))


def _scalar_m(z, a, b):
    """W of the scalar family A_n = a, B_n = b: the root of a^2 m^2 + (z - b) m + 1 = 0
    with |a m| < 1."""
    s = np.sqrt((z - b) ** 2 - 4 * a * a + 0j)
    m1, m2 = (b - z + s) / (2 * a * a), (b - z - s) / (2 * a * a)
    return np.where(np.abs(a * m1) < 1, m1, m2)


def _periodic(rng, L, d):
    a, b = random_bounded_params(rng, d, n_blocks=L).stack(L)
    return make_family("periodic_modulated", d, A_period=list(a), B_period=list(b))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_rung_of_a_scan_like_ladder_is_doubled(rng, d):
    comps = [{"a": float(rng.uniform(0.5, 1.5)), "b": float(rng.uniform(-1, 1))}
             for _ in range(d)]
    p = make_family("diagonal", d, components=comps)
    grid = np.linspace(-2.5, 2.5, 21)
    for eps in (1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
        assert weyl._doubles(p, grid + 1j * eps, default_n_rule(eps)).all()


@pytest.mark.parametrize("p", [
    JacobiParams(1, lambda n: (np.eye(1), np.zeros((1, 1)))),
    make_family("explicit", 1, A=[[[1.0]]] * 900, B=[[[0.0]]] * 900),
    make_family("periodic_modulated", 1, A_period=[[[1.0]]], B_period=[[[0.0]]], growth=0.01),
    make_family("diagonal", 1, components=[{"a": [1.0] * 900, "b": 0.0}]),
], ids=["user_rule", "explicit", "growth", "diagonal_list"])
def test_a_family_without_a_period_is_swept(p):
    z = np.linspace(-2, 2, 5) + 0.5j
    assert not weyl._doubles(p, z, 800).any()
    assert np.array_equal(weyl_schur(p, z, 800).W, _swept(p, z, 800))


@pytest.mark.parametrize("z, N", [(1 + 1e-9j, 100), (1 + 1e-9j, 10 ** 4), (0.5 + 10j, 3),
                                  (0.5 + 0.3j, 33), (complex(0.5, math.nan), 400), (0.5, 400)])
def test_short_sections_and_near_axis_points_are_swept(z, N):
    # N |Im z| below DOUBLING_GATE * max ||A_n||, N below M = 4 blocks, or z not finite
    # (where both routes fail alike: the sweep's message is kept)
    p = make_family("free", 1)
    assert not weyl._doubles(p, z, N)
    if np.isfinite(z):
        assert np.array_equal(weyl_schur(p, z, N).W, _swept(p, z, N))
    else:
        with pytest.raises(ArithmeticError, match="^W is not finite: the Schur sweep overflowed$"):
            weyl_schur(p, z, N)


def test_the_overflowing_scale_of_a_1e308_coupling_is_swept():
    p = make_family("diagonal", 1, components=[{"a": 1e308, "b": 0.0}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not weyl._doubles(p, np.array([1j, 1e300j]), 10 ** 4).any()
        with pytest.raises(ArithmeticError, match="^W is not finite: the Schur sweep overflowed$"):
            weyl_schur(p, 0.5 + 0.1j, 500)


def test_a_periodic_family_above_the_block_cap_raises_the_cap_error_before_any_block():
    p = make_family("free", 1)
    with pytest.raises(ValueError, match=f"^{HORIZON_CAP + 1} blocks requested, above the cap of "
                                         f"{HORIZON_CAP} blocks$"):
        weyl_schur(p, np.array([1j, 0.3 + 0.1j]), HORIZON_CAP + 1)
    assert p._n == 0
    assert weyl._doubles(p, 1j, HORIZON_CAP).all()  # the cap, not the gate, refused it


@pytest.mark.parametrize("L, d", [(1, 1), (2, 2), (3, 3), (5, 2)])
def test_array_z_is_bit_identical_to_the_scalar_calls_on_both_routes(rng, L, d):
    p = _periodic(rng, L, d)
    N = 997
    z = rng.uniform(-3, 3, 8) + 1j * np.array([0.5, -0.3, 1e-3, -1e-3, 1.0, -2.0, 0.2, 1e-9])
    fast = weyl._doubles(p, z, N)
    assert fast.any() and not fast.all()
    for zs in (z, z.reshape(2, 4), z[fast], z[~fast]):
        batch = weyl_schur(p, zs, N)
        for idx in np.ndindex(zs.shape):
            one = weyl_schur(p, complex(zs[idx]), N)
            assert np.array_equal(batch.W[idx], one.W)
            assert batch.diagnostics["herglotz_min_eig"][idx] == one.diagnostics["herglotz_min_eig"]


def test_a_singular_composition_solve_is_a_located_error_without_a_numpy_warning(monkeypatch):
    one, zero = np.ones((2, 1, 1), dtype=complex), np.zeros((2, 1, 1), dtype=complex)
    f = (one, one, one, one)  # gamma_f alpha_g = 1: I - gamma_f alpha_g is singular
    message = "singular doubling solve at {} blocks: z too close to the section spectrum"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in ((one,), (one, zero, zero, zero)):
            with pytest.raises(np.linalg.LinAlgError, match=f"^{message.format(48)}$"):
                weyl._compose(f, g, 48)
        # without the gate: the 32-block free section has the eigenvalue 1
        monkeypatch.setattr(weyl, "DOUBLING_GATE", 0.0)
        with pytest.raises(np.linalg.LinAlgError, match=f"^{message.format(32)}$"):
            weyl_schur(make_family("free", 1), np.array([2j, 1 + 1e-9j]), 100)
        # an eigenvalue of the 11-block section, met composing the remainder's 3 blocks
        # with 8; in a batch with another N the message names that z's own section
        z = complex(2 * math.cos(5 * math.pi / 12), 0.0)
        for zs, ns in ((z, 11), (np.array([2j, z]), np.array([40, 11]))):
            with pytest.raises(np.linalg.LinAlgError, match=f"^{message.format(11)}$"):
                weyl_schur(make_family("free", 1), zs, ns)


@pytest.mark.parametrize("eps", [1.0, 0.1, 1e-2, 1e-3, 1e-4])
def test_doubled_w_matches_the_closed_forms_of_free_and_diagonal(eps):
    lam = np.concatenate([np.linspace(-2.5, 3.0, 221), [0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 2.5]])
    z, N = lam + 1j * eps, default_n_rule(eps)
    free, diag = make_family("free", 1), make_family("diagonal", 2, components=README)
    assert weyl._doubles(free, z, N).all() and weyl._doubles(diag, z, N).all()
    assert _rel(weyl_schur(free, z, N).W[:, 0, 0, None, None],
                _scalar_m(z, 1.0, 0.0)[:, None, None]) <= BOUND
    want = np.zeros((len(z), 2, 2), dtype=complex)
    want[:, 0, 0], want[:, 1, 1] = _scalar_m(z, 1.0, 0.0), _scalar_m(z, 1.0, 0.5)
    assert _rel(weyl_schur(diag, z, N).W, want) <= BOUND


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_periodic_families_match_the_sweep_and_the_resolvent(rng, L, d):
    p = _periodic(rng, L, d)
    s = max(np.linalg.norm(a, 2) for a in p.stack(L)[0])
    spread = 2 * s + max(np.linalg.norm(b, 2) for b in p.stack(L)[1])
    lam = np.linspace(-1.1 * spread, 1.1 * spread, 15)
    # N |Im z| / max ||A_n|| and N, down to one application of the M-block map
    for ratio, N in ((20, 2000), (50, 601), (400, 120), (20, 4 * L), (20, 4 * L + 3)):
        z = lam + 1j * ratio * s / N
        w = weyl_schur(p, z, N).W
        assert weyl._doubles(p, z, N).all()
        assert _rel(w, _swept(p, z, N)) <= BOUND
        assert _rel(w, np.array([weyl_resolvent(p, x, N).W for x in z])) <= BOUND


def test_the_weyl_command_route_diff_on_free_at_5000_blocks(tmp_path):
    cfg, out = tmp_path / "c.json", tmp_path / "w.json"
    cfg.write_text(json.dumps({"family": {"name": "free", "d": 1}, "command": "weyl",
                               "N": 5000, "z": [0.3, 0.01], "format": "json"}))
    assert weyl._doubles(make_family("free", 1), 0.3 + 0.01j, 5000)
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert not row["error"] and float(row["route_diff"]) <= 1e-10


def test_a_scan_reads_the_labels_of_the_sweep(monkeypatch):
    p, grid, ladder = make_family("diagonal", 2, components=README), np.linspace(-2, 2, 41), \
        [0.1, 0.03, 0.01, 0.003]
    doubled = boundary_scan(p, grid, ladder)
    monkeypatch.setattr(weyl, "DOUBLING_GATE", math.inf)
    swept = boundary_scan(p, grid, ladder)
    assert [c["label"] for c in doubled.classification] == [c["label"] for c in swept.classification]
    assert [c["rank"] for c in doubled.classification] == [c["rank"] for c in swept.classification]
    assert max(_rel(a["W"], b["W"]) for a, b in zip(doubled.rows, swept.rows)) <= BOUND
