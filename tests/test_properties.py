"""Property tests of the paper's identities on random bounded families.

Each property is checked at d = 1..3 and at Im z of both signs, on families
from ``random_bounded_params``.  The tolerances were pinned from the worst
case over 3 000 random samples of the same distribution (d = 1..3,
|Re z| <= 4, 1e-2 <= |Im z| <= 10**0.5, N and k up to 64 and 24):
  route agreement   4.6e-14  -> pinned 1e-12
  energy identity   4.3e-14  -> pinned 1e-12
  LO r1 / r2        1.6e-14 / 1.2e-14 -> pinned 1e-12
  Herglotz margin   >= (1 - 1.0e-13) |Im z| s_min(W)^2 -> pinned (1 - 1e-10)
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bjweyl.transfer import lo_residual
from bjweyl.weyl import energy_identity_gap, weyl_resolvent, weyl_schur
from conftest import random_bounded_params

TOL = 1e-12
HERGLOTZ_SLACK = 1e-10


@st.composite
def _cases(draw, d, sign):
    """(params, z, N) with a random bounded family of 64 d x d blocks, sign(Im z) = sign."""
    p = random_bounded_params(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), d, 64)
    im = sign * 10 ** draw(st.floats(-2.0, 0.5))
    return p, complex(draw(st.floats(-4.0, 4.0)), im), draw(st.integers(1, 64))


_settings = settings(derandomize=True, max_examples=8, deadline=None)  # per (d, sign)
_d = pytest.mark.parametrize("d", [1, 2, 3])
_sign = pytest.mark.parametrize("sign", [1.0, -1.0])


@_d
@_sign
@_settings
@given(data=st.data())
def test_schur_and_resolvent_routes_agree(d, sign, data):
    p, z, N = data.draw(_cases(d, sign))
    w = weyl_schur(p, z, N).W
    gap = np.linalg.norm(w - weyl_resolvent(p, z, N).W, 2)
    assert gap <= TOL * max(1.0, np.linalg.norm(w, 2))


@_d
@_sign
@_settings
@given(data=st.data())
def test_herglotz_margin_is_bounded_below_by_the_first_solution_term(d, sign, data):
    # Im W / Im z = sum_n U_n* U_n >= U_0* U_0 = W* W, so the sign-adjusted
    # margin is at least |Im z| times the squared smallest singular value of W
    p, z, N = data.draw(_cases(d, sign))
    s = weyl_schur(p, z, N)
    floor = abs(z.imag) * np.linalg.svd(s.W, compute_uv=False)[-1] ** 2
    assert s.diagnostics["herglotz_min_eig"] >= (1 - HERGLOTZ_SLACK) * floor > 0


@_d
@_sign
@_settings
@given(data=st.data())
def test_finite_section_energy_identity(d, sign, data):
    p, z, N = data.draw(_cases(d, sign))
    v = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).standard_normal(d) + 0j
    out = energy_identity_gap(p, z, N, v)
    assert out["gap"] <= TOL * max(out["lhs"], out["rhs"])
    assert out["trace_bound_ok"] and out["w_bound_ok"]


@_d
@_sign
@_settings
@given(data=st.data())
def test_liouville_ostrogradsky_residuals(d, sign, data):
    p, z, _ = data.draw(_cases(d, sign))
    out = lo_residual(p, z, data.draw(st.integers(1, 24)))
    assert out["r1"] <= TOL and out["r2"] <= TOL
