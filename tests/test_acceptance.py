"""Acceptance gate: one test per criterion, each at its stated tolerance.

Each test prints a single pass line on success; tolerances here are pinned
and must not be loosened without a matching note in the project history.
"""

import json
import math
import time

import numpy as np
import pytest

from bjweyl.blockcore import (
    apply_formal,
    cyclic_block_product,
    delta_seq,
    make_family,
)
from bjweyl.cli import main as cli_main
from bjweyl.measure import (
    DiscreteMatrixMeasure,
    cauchy_transform,
    decompose_vs_reference,
    density_integral,
    quadrature_measure,
    trace_views,
)
from bjweyl.seminorms import SeminormKind, seminorm
from bjweyl.solutions import compute_PQ, solve_nonhomogeneous
from bjweyl.subordinacy import gev_l2_dimension, jl_function, nonsub_diagnostic
from bjweyl.transfer import (
    lo_residual,
    omega_identity_residual,
    transfer_nstep,
    transfer_step,
)
from bjweyl.weyl import (
    boundary_scan,
    energy_identity_gap,
    weyl_resolvent,
    weyl_schur,
)
from conftest import random_bounded_params
from test_solutions import direct_nonhomogeneous


def _report(n, text):
    print(f"[criterion {n:02d}] PASS: {text}")


def _instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 4))
        yield rng, d, random_bounded_params(rng, d, n_blocks=52)


def test_criterion_01_liouville_ostrogradsky():
    t0 = time.time()
    worst = 0.0
    for rng, d, p in _instances(101, 200):
        w = complex(*rng.uniform(-3.5, 3.5, 2))
        if abs(w) > 5:
            w *= 5 / abs(w)
        k = int(rng.integers(0, 51))
        out = lo_residual(p, w, k)
        worst = max(worst, out["r1"], out["r2"] if k >= 1 else 0.0)
    assert worst < 1e-9
    assert time.time() - t0 < 10
    _report(1, f"200 instances, worst relative residual {worst:.2e} < 1e-9")


def test_criterion_02_structured_inverses():
    worst_t = worst_r = worst_o = 0.0
    for rng, d, p in _instances(102, 200):
        z = complex(*rng.uniform(-3.5, 3.5, 2))
        k = int(rng.integers(1, 51))
        step = transfer_step(p, z, k - 1)
        worst_t = max(worst_t, np.linalg.norm(
            step["T"] @ step["T_inv"] - np.eye(2 * d), 2))
        out = transfer_nstep(p, z, k)
        scale = max(1.0, np.linalg.norm(out["R"], 2)
                    * np.linalg.norm(out["R_inv"], 2))
        worst_r = max(worst_r, np.linalg.norm(
            out["R"] @ out["R_inv"] - np.eye(2 * d), 2) / scale)
        worst_o = max(worst_o, omega_identity_residual(p, z, k))
    assert worst_t < 1e-8
    assert worst_r < 1e-8
    assert worst_o < 1e-8
    _report(2, f"one-step {worst_t:.2e}, n-step {worst_r:.2e}, "
               f"omega {worst_o:.2e}, all < 1e-8")


def test_criterion_03_nonhomogeneous_solver():
    worst = 0.0
    for rng, d, p in _instances(103, 100):
        # real z in the spectral bulk: the P/Q kernel then grows polynomially
        # and the closed-form sum stays clear of catastrophic cancellation
        z = complex(rng.uniform(-1.5, 1.5), 0.0)
        n_max = int(rng.integers(5, 31))
        from bjweyl.blockcore import BlockMatSeq
        F = BlockMatSeq(rng.standard_normal((n_max, d, d))
                        + 1j * rng.standard_normal((n_max, d, d)))
        closed = solve_nonhomogeneous(p, z, F, n_max)
        direct = direct_nonhomogeneous(p, z, F, n_max)
        # termwise relative to the kernel-sum magnitude: random products
        # have positive Lyapunov exponent, so the two routes can only agree
        # up to the cancellation inherent in the closed form
        pq = compute_PQ(p, z, n_max)
        pnorm = [np.linalg.norm(pq.P.term(n), 2) for n in range(-1, n_max + 1)]
        qnorm = [np.linalg.norm(pq.Q.term(n), 2) for n in range(-1, n_max + 1)]
        fnorm = [np.linalg.norm(F.term(k), 2) for k in range(n_max)]
        for n in range(-1, n_max + 1):
            scale = 1.0 + np.linalg.norm(direct[n + 1])
            if n >= 1:
                scale += sum((qnorm[n + 1] * pnorm[k + 1]
                              + pnorm[n + 1] * qnorm[k + 1]) * fnorm[k]
                             for k in range(n))
            rel = np.linalg.norm(closed.term(n) - direct[n + 1]) / scale
            worst = max(worst, rel)
    assert worst < 1e-9
    _report(3, f"100 instances n<=30, worst termwise gap {worst:.2e} < 1e-9")


def test_criterion_04_route_agreement():
    worst = 0.0
    for rng, d, p in _instances(104, 100):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.5))
        N = int(rng.integers(5, 50))
        diff = np.linalg.norm(weyl_schur(p, z, N).W
                              - weyl_resolvent(p, z, N).W, 2)
        worst = max(worst, diff)
    assert worst < 1e-10
    _report(4, f"100 instances, worst route difference {worst:.2e} < 1e-10")


def test_criterion_05_finite_section_spectral_identity():
    worst = 0.0
    for rng, d, p in _instances(105, 100):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.5))
        N = int(rng.integers(5, 31))
        m = quadrature_measure(p, N)
        diff = np.linalg.norm(cauchy_transform(m, z)
                              - weyl_resolvent(p, z, N).W, 2)
        worst = max(worst, diff)
    assert worst < 1e-11
    _report(5, f"100 instances, worst identity gap {worst:.2e} < 1e-11")


def test_criterion_06_free_jacobi_closed_form():
    p = make_family("free", 1)
    w = weyl_schur(p, 2j, 200).W[0, 0]
    w_err = abs(w - 1j * (math.sqrt(2) - 1))
    assert w_err < 1e-6
    gap = energy_identity_gap(p, 2j, 200, [1.0])["gap"]
    assert gap < 1e-6
    scan = boundary_scan(p, [0.0], [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    cls = scan.classification[0]
    assert cls["label"] == "ac"
    dens = cls["density"][0, 0].real
    d_err = abs(dens - 1 / math.pi) * math.pi
    assert d_err < 0.02
    _report(6, f"W err {w_err:.2e}, energy gap {gap:.2e}, "
               f"density off by {100 * d_err:.3f}% of 1/pi")


def test_criterion_07_herglotz_suite():
    worst_sym = 0.0
    for rng, d, p in _instances(107, 100):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.5))
        N = int(rng.integers(10, 40))
        up = weyl_schur(p, z, N)
        dn = weyl_schur(p, np.conj(z), N)
        assert up.diagnostics["herglotz_min_eig"] > 0
        im_dn = (dn.W - dn.W.conj().T) / 2j
        assert np.linalg.eigvalsh(im_dn)[-1] < 0
        worst_sym = max(worst_sym, np.linalg.norm(dn.W - up.W.conj().T, 2))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        assert energy_identity_gap(p, z, N, v)["trace_bound_ok"]
    assert worst_sym < 1e-10
    _report(7, f"100 instances, signs correct, worst conjugate-symmetry "
               f"defect {worst_sym:.2e} < 1e-10")


def test_criterion_08_diagonal_family():
    p2 = make_family("diagonal", 2,
                     components=[{"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.0}])
    p1 = make_family("free", 1)
    z = 0.4 + 1.2j
    N = 40
    w2 = weyl_resolvent(p2, z, N).W
    w1 = weyl_resolvent(p1, z, N).W[0, 0]
    off_w = max(abs(w2[0, 1]), abs(w2[1, 0]))
    assert off_w < 1e-11
    diag_err = max(abs(w2[0, 0] - w1), abs(w2[1, 1] - w1))
    assert diag_err < 1e-9
    m2 = quadrature_measure(p2, 25)
    m1 = quadrature_measure(p1, 25)
    off_q = max(max(abs(w[0, 1]), abs(w[1, 0])) for _, w in m2.atoms)
    assert off_q < 1e-11
    # per-component marginals agree with the scalar pipeline
    assert len(m2.atoms) == len(m1.atoms)
    atom_err = max(max(abs(l2 - l1), abs(w2_[0, 0] - w1_[0, 0]),
                       abs(w2_[1, 1] - w1_[0, 0]))
                   for (l2, w2_), (l1, w1_) in zip(m2.atoms, m1.atoms))
    assert atom_err < 1e-9
    _report(8, f"off-diagonals {max(off_w, off_q):.2e} < 1e-11, "
               f"scalar-pipeline match {max(diag_err, atom_err):.2e} < 1e-9")


def test_criterion_09_length_function():
    p = make_family("free", 1)
    eps_grid = np.geomspace(0.2, 0.002, 20)
    ells = []
    worst_res = 0.0
    for eps in eps_grid:
        s = jl_function(p, 0.0, float(eps))
        worst_res = max(worst_res, s.residual)
        ells.append(s.ell)
    assert worst_res < 1e-8
    assert all(b > a for a, b in zip(ells, ells[1:]))
    # dense-scan oracle at eps = 0.01
    s = jl_function(p, 0.0, 0.01)
    pq = compute_PQ(p, 0.0, int(s.ell) + 4)
    grid = np.arange(0.0, int(s.ell) + 3, 0.01)
    vals = [seminorm(pq.P, SeminormKind.matrix_norm, 0, t)
            * seminorm(pq.Q, SeminormKind.matrix_norm, 0, t) for t in grid]
    crossing = grid[np.searchsorted(vals, 50.0)]
    assert abs(s.ell - crossing) <= 0.01 + 1e-9
    _report(9, f"residuals {worst_res:.2e} < 1e-8, strictly monotone, "
               f"dense-scan gap {abs(s.ell - crossing):.3f} <= grid step")


def test_criterion_10_nonsubordinacy():
    p = make_family("free", 1)
    inside = nonsub_diagnostic(p, 0.0, np.linspace(0.5, 100, 40))
    assert inside["verdict"] == "nonsubordinate_evidence"
    assert gev_l2_dimension(p, 0j, 32)["dim_estimate"] == 0
    outside = nonsub_diagnostic(p, 3.0, np.linspace(0.8, 16, 20))
    assert outside["verdict"] == "subordinate_evidence"
    oracle = math.log((3 + math.sqrt(5)) / 2)
    rel = abs(outside["growth_rate_per_step"] - oracle) / oracle
    assert rel < 0.05
    _report(10, f"lam=0 nonsubordinate with l2 dim 0; lam=3 subordinate, "
                f"growth rate off by {100 * rel:.2f}% < 5%")


def test_criterion_11_atomic_measure_suite():
    rng = np.random.default_rng(111)
    p = random_bounded_params(rng, 2)
    m = quadrature_measure(p, 15)
    view = trace_views(m)
    for _, t, dens in view.atoms:
        ev = np.linalg.eigvalsh(dens)
        assert ev.min() >= -1e-12 and ev.max() <= 1 + 1e-12
    # random atom subsets: 0 <= M(omega) <= tr_M(omega) * I
    idx = np.arange(len(m.atoms))
    for _ in range(20):
        keep = idx[rng.random(len(idx)) < 0.5]
        mass = m.restrict(keep).total_mass()
        tr = np.trace(mass).real
        ev = np.linalg.eigvalsh((mass + mass.conj().T) / 2)
        assert ev.min() >= -1e-12 and ev.max() <= tr + 1e-12
    # fixture with a prescribed density on a discrete support
    nu = [(float(k), 0.25) for k in range(4)]
    F = [np.diag([1.0, 0.0]), np.diag([2.0, 1.0]),
         np.zeros((2, 2)), np.diag([0.0, 3.0])]
    fm = density_integral(nu, F)
    parts = decompose_vs_reference(fm, nu)
    assert len(parts["sing_part"].atoms) == 0
    total = (parts["ac_part"].total_mass() + parts["sing_part"].total_mass())
    np.testing.assert_allclose(total, fm.total_mass(), atol=1e-14)
    # minimal support of the trace part: dropping any atom where the
    # density is nonzero loses trace mass, the zero-density atom is free
    support = [lam for (lam, _), f in zip(nu, F) if np.trace(f).real > 0]
    full_tr = np.trace(fm.total_mass()).real
    for lam in support:
        reduced = decompose_vs_reference(fm, [x for x in support if x != lam])
        assert np.trace(reduced["ac_part"].total_mass()).real < full_tr - 1e-12
    assert trace_views(fm).dropped == 1
    _report(11, "trace densities in [0,1], subset sandwich, fixture "
                "decomposition and minimal support all hold")


def test_criterion_12_cyclicity():
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        p = random_bounded_params(rng, d, n_blocks=16)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        k = int(rng.integers(1, 11))
        u = delta_seq(0, v, d)
        for _ in range(k):
            u = apply_formal(p, u, 12)
        expect = cyclic_block_product(p, k) @ v
        scale = max(1.0, np.linalg.norm(expect))
        worst = max(worst, np.linalg.norm(u.term(k) - expect) / scale)
        for j in range(k + 1, 13):
            worst = max(worst, np.linalg.norm(u.term(j)))
    assert worst < 1e-10
    _report(12, f"20 instances k<=10, worst block defect {worst:.2e} < 1e-10")


def test_criterion_13_cli_determinism(tmp_path):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({
        "family": {"name": "free", "d": 1},
        "command": "weyl-scan", "N": 30,
        "lambda": {"min": -1.5, "max": 1.5, "steps": 7},
        "eps_ladder": [0.1, 0.03, 0.01],
        "seed": 7,
    }))
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli_main(["--config", str(config), "--out", str(out1)]) == 0
    assert cli_main(["--config", str(config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    mcfg = tmp_path / "m.json"
    mcfg.write_text(json.dumps({"family": {"name": "free", "d": 1},
                                "command": "measure", "N": 40}))
    atoms = tmp_path / "atoms.csv"
    assert cli_main(["--config", str(mcfg), "--out", str(atoms)]) == 0
    ccfg = tmp_path / "c.json"
    ccfg.write_text(json.dumps({"family": {"name": "free", "d": 1},
                                "command": "cauchy-check", "N": 40,
                                "z": [0.0, 2.0], "measure_in": str(atoms)}))
    gaps = tmp_path / "gaps.csv"
    assert cli_main(["--config", str(ccfg), "--out", str(gaps)]) == 0
    lines = gaps.read_text().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert float(row["gap"]) < 1e-9
    _report(13, f"byte-identical reruns; round-trip gap {row['gap']} < 1e-9")
