import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bjweyl.blockcore import (
    BlockVecSeq,
    JacobiParams,
    ParamsError,
    _violations,
    apply_formal,
    cyclic_block_product,
    delta_seq,
    make_family,
    matrix_functionals,
    validate_params,
)
from conftest import random_bounded_params, traced_peak


def test_free_family_blocks():
    p = make_family("free", 1)
    assert p.A(0) == np.eye(1)
    assert p.B(7) == np.zeros((1, 1))
    assert p.bounded


def test_constant_family_rejects_singular_A():
    with pytest.raises(ParamsError, match="singular A"):
        make_family("constant", 2, A=np.zeros((2, 2)), B=np.eye(2))


def test_constant_family_rejects_non_hermitian_B():
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ParamsError, match="non-Hermitian B"):
        make_family("constant", 2, A=np.eye(2), B=b)


def test_diagonal_family_assembles_scalar_parts():
    p = make_family("diagonal", 2,
                    components=[{"a": 1.0, "b": 0.0}, {"a": 2.0, "b": 0.5}])
    np.testing.assert_allclose(p.A(3), np.diag([1.0, 2.0]))
    np.testing.assert_allclose(p.B(3), np.diag([0.0, 0.5]))


def test_periodic_modulated_growth():
    p = make_family("periodic_modulated", 1,
                    A_period=[[[1.0]]], B_period=[[[0.0]]], growth=0.5)
    np.testing.assert_allclose(p.A(3), [[2.0]])
    assert not p.bounded


def test_explicit_family_is_finite():
    p = make_family("explicit", 1, A=[[[1.0]]], B=[[[0.0]]])
    p.blocks(0)
    with pytest.raises(IndexError):
        p.blocks(1)


def test_validate_params_flags_bad_blocks():
    def rule(n):
        if n == 2:
            return np.zeros((1, 1)), np.zeros((1, 1))
        return np.eye(1), np.eye(1) * 1j  # B not Hermitian
    p = JacobiParams(1, rule)
    out = validate_params(p, 3)
    assert not out["ok"]
    kinds = {(v["n"], v["kind"]) for v in out["violations"]}
    assert (2, "singular_A") in kinds
    assert (0, "non_hermitian_B") in kinds


def test_validate_params_ok_random(rng):
    p = random_bounded_params(rng, 3)
    assert validate_params(p, 20)["ok"]


def test_matrix_functionals(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    f = matrix_functionals(a)
    sv = np.linalg.svd(a, compute_uv=False)
    assert f["minmod"] == pytest.approx(sv[-1])
    assert f["hs"] == pytest.approx(np.sqrt((np.abs(a) ** 2).sum()))
    np.testing.assert_allclose(f["re"] + 1j * f["im"], a, atol=1e-14)
    # minmod is the reciprocal of the inverse norm for invertible input
    assert f["minmod"] == pytest.approx(1.0 / np.linalg.norm(np.linalg.inv(a), 2))


def test_sequence_zero_padding():
    s = delta_seq(2, [1.0, 0.0], d=2)
    assert np.all(s.term(5) == 0)
    with pytest.raises(IndexError):
        s.term(-1)


def test_sequence_rejects_nonfinite():
    with pytest.raises(ValueError):
        BlockVecSeq(np.array([[np.nan]]), start=0)


def test_apply_formal_free_shift():
    # free operator acts as the two-sided shift restricted to n >= 0
    p = make_family("free", 1)
    u = delta_seq(3, [1.0], d=1)
    ju = apply_formal(p, u, 5)
    np.testing.assert_allclose(ju.terms[:, 0], [0, 0, 1, 0, 1, 0])


def test_cyclic_block_product(rng):
    p = random_bounded_params(rng, 2)
    assert np.array_equal(cyclic_block_product(p, 0), np.eye(2))
    expect = (p.A(0) @ p.A(1) @ p.A(2)).conj().T
    np.testing.assert_allclose(cyclic_block_product(p, 3), expect, atol=1e-13)


def test_lu_solve_matches_direct(rng):
    p = random_bounded_params(rng, 3)
    rhs = rng.standard_normal((3, 3))
    np.testing.assert_allclose(p.solve_A(4, rhs),
                               np.linalg.solve(p.A(4), rhs), atol=1e-12)


def _pair(n, d, bad=None):
    """A valid pair at index n, or one broken as ``bad`` names."""
    a = np.eye(d) * (1.0 + n / 7) + np.triu(np.full((d, d), 0.25), 1)
    h = np.triu(np.full((d, d), 0.3j), 1)
    b = np.diag(np.arange(d) - n / 5).astype(complex) + h + h.conj().T
    if bad in ("singular_A", "both"):
        a[:, 0] = 0.0
    if bad in ("non_hermitian_B", "both"):
        b = b + 0.5j * np.eye(d)
    return a, b


def _oracle(a, b, n):
    """The records of one pair, checked on its own."""
    found = []
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 1e-10 * max(1.0, sv[0]):
        found.append({"n": n, "kind": "singular_A", "value": float(sv[-1])})
    herm = np.linalg.norm(b - b.conj().T, 2)
    if herm > 1e-10 * max(1.0, np.linalg.norm(b, 2)):
        found.append({"n": n, "kind": "non_hermitian_B", "value": float(herm)})
    return found


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), n_max=st.integers(0, 40), N=st.integers(0, 41),
       bad=st.dictionaries(st.integers(0, 40),
                           st.sampled_from(["singular_A", "non_hermitian_B", "both"]),
                           max_size=4))
def test_store_checks_each_block_once_against_a_per_block_oracle(d, n_max, N, bad):
    calls = []

    def rule(n):
        calls.append(n)
        return _pair(n, d, bad.get(n))

    oracle = [v for n in range(n_max + 1) for v in _oracle(*_pair(n, d, bad.get(n)), n)]
    assert validate_params(JacobiParams(d, rule), n_max)["violations"] == oracle
    calls.clear()
    p = JacobiParams(d, rule)
    lowest = min((n for n in bad if n < N), default=None)
    if lowest is None:
        a, b = p.stack(N)
        assert a.shape == b.shape == (N, d, d)
        assert all(np.array_equal(a[n], _pair(n, d)[0]) and np.array_equal(b[n], _pair(n, d)[1])
                   for n in range(N))
    else:
        what = "non-Hermitian B" if bad[lowest] == "non_hermitian_B" else "singular A"
        with pytest.raises(ParamsError, match=f"^{what} at n={lowest}$"):
            p.stack(N)
    assert calls == list(range(N))


def test_store_grows_in_slabs_and_calls_the_rule_once_per_index(rng):
    source = random_bounded_params(rng, 2)
    calls = []
    p = JacobiParams(2, lambda n: calls.append(n) or source.rule(n))
    p.stack(3)
    p.stack(10)
    a25 = p.A(25)
    a, b = JacobiParams(2, source.rule).stack(26)
    assert calls == list(range(26))
    assert np.array_equal(a25, a[25])
    assert np.array_equal(p.stack(26)[0], a) and np.array_equal(p.stack(26)[1], b)
    assert calls == list(range(26))


def test_the_check_of_a_long_slab_runs_in_pieces_with_the_records_of_one_call():
    bad = {0: "both", 2 ** 14 - 1: "singular_A", 2 ** 14: "non_hermitian_B",
           2 ** 15 + 7: "both", 39_999: "singular_A"}
    p = JacobiParams(2, lambda n: _pair(n % 40, 2, bad.get(n)))
    with pytest.raises(ParamsError, match="^singular A at n=0$"):
        p.stack(40_000)
    assert p._bad == _violations(*p._store[:, :40_000], 0)  # every pair was kept and checked
    assert [v["n"] for v in p._bad] == [0, 0, 2 ** 14 - 1, 2 ** 14, 2 ** 15 + 7, 2 ** 15 + 7,
                                       39_999]


def test_the_store_check_holds_temporaries_well_below_the_store():
    p = make_family("free", 2)
    _, peak = traced_peak(p.stack, 2 ** 16)
    store = p._store.nbytes  # 8 MiB; the check of one 2**16-block slab held 9.1 MiB more
    assert peak - store < store / 2, (peak, store)


def test_a_misshapen_or_non_finite_block_names_its_index():
    def rule(bad_n, a_bad):
        return lambda n: (a_bad if n == bad_n else np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^block at n=2 contains non-finite entries$"):
        JacobiParams(2, rule(2, np.full((2, 2), np.nan))).stack(5)
    with pytest.raises(ValueError, match=r"^expected a 2x2 block at n=3, got shape \(3, 3\)$"):
        JacobiParams(2, rule(3, np.eye(3))).stack(5)


def _scalar_oracle(values):
    """A scalar knob at index n, as the per-family rules computed it: a constant,
    or a list that raises past its end."""
    if np.isscalar(values):
        return lambda n: complex(values)
    vals = [complex(v) for v in values]

    def rule(n):
        if n >= len(vals):
            raise IndexError(f"scalar family materialized beyond its {len(vals)} listed terms")
        return vals[n]
    return rule


def _family_oracle(name, d, knobs):
    """The per-index rule of each built-in family, written out one family at a time."""
    if name == "free":
        return lambda n: (np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex))
    if name == "constant":
        return lambda n: (np.asarray(knobs["A"], dtype=complex), np.asarray(knobs["B"], dtype=complex))
    if name == "diagonal":
        a = [_scalar_oracle(c["a"]) for c in knobs["components"]]
        b = [_scalar_oracle(c["b"]) for c in knobs["components"]]
        return lambda n: (np.diag([r(n) for r in a]).astype(complex),
                          np.diag([r(n) for r in b]).astype(complex))
    if name == "periodic_modulated":
        ap = [np.asarray(x, dtype=complex) for x in knobs["A_period"]]
        bp = [np.asarray(x, dtype=complex) for x in knobs["B_period"]]
        g = float(knobs.get("growth", 0.0))
        return lambda n: (ap[n % len(ap)] * np.float64(n + 1) ** g, bp[n % len(bp)])
    K = len(knobs["A"])

    def explicit(n):
        if n >= K:
            raise IndexError(f"explicit family materialized beyond its {K} listed blocks")
        return np.asarray(knobs["A"][n], dtype=complex), np.asarray(knobs["B"][n], dtype=complex)
    return explicit


_PERIOD = [[[1.0, 0.3 + 0.2j], [0.1j, 1.2]], [[0.8, 0.0], [0.1, -1.0]], [[2.0, 0.5], [0.0, 1.0]]]
_HERM = [[[0.0, 0.5 - 0.1j], [0.5 + 0.1j, 1.0]], [[0.2, 0.0], [0.0, -0.3]]]
# (name, d, knobs, number of listed blocks or None for a family without end)
_FAMILIES = {
    "free_d1": ("free", 1, {}, None),
    "free_d3": ("free", 3, {}, None),
    "constant": ("constant", 2, {"A": _PERIOD[0], "B": _HERM[0]}, None),
    "diagonal_scalar": ("diagonal", 2, {"components": [{"a": 1.0, "b": 0.0},
                                                       {"a": 2.5, "b": -0.5}]}, None),
    "diagonal_lists": ("diagonal", 2, {"components": [
        {"a": [1.0 + k / 10 for k in range(12)], "b": [k / 3 for k in range(12)]},
        {"a": [2.0 - k / 20 for k in range(12)], "b": [-k / 7 for k in range(12)]}]}, 12),
    "diagonal_mixed": ("diagonal", 3, {"components": [
        {"a": [1.0 + k / 10 for k in range(9)], "b": 0.25},
        {"a": 1.5, "b": [k / 4 for k in range(7)]},
        {"a": 0.5, "b": -1.0}]}, 7),
    "diagonal_empty": ("diagonal", 1, {"components": [{"a": [], "b": 0.0}]}, 0),
    "periodic_growth_0": ("periodic_modulated", 2, {"A_period": _PERIOD, "B_period": _HERM,
                                                    "growth": 0.0}, None),
    "periodic_growth_half": ("periodic_modulated", 2, {"A_period": _PERIOD, "B_period": _HERM,
                                                       "growth": 0.5}, None),
    "explicit": ("explicit", 2, {"A": _PERIOD + _PERIOD[::-1], "B": _HERM * 3}, 6),
}


@pytest.mark.parametrize("name, d, knobs, K", _FAMILIES.values(), ids=_FAMILIES)
def test_every_family_stacks_the_blocks_of_its_per_index_rule(name, d, knobs, K):
    oracle = _family_oracle(name, d, knobs)
    N = 20 if K is None else K  # past every period; a finite family up to its end
    for got, want in zip(make_family(name, d, **knobs).stack(N),
                         np.array([oracle(n) for n in range(N)]).reshape(N, 2, d, d).swapaxes(0, 1)):
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()  # signed zeros too
    if K is not None:
        with pytest.raises(IndexError) as expected:
            oracle(K)
        with pytest.raises(IndexError, match=f"^{expected.value}$"):
            make_family(name, d, **knobs).stack(K + 1)


_PERIODS = {"free_d1": 1, "free_d3": 1, "constant": 1, "diagonal_scalar": 1,
            "periodic_growth_0": 6, "diagonal_lists": None, "diagonal_mixed": None,
            "diagonal_empty": None, "periodic_growth_half": None, "explicit": None}
_MORE_PERIODIC = {  # list lengths (A, B) and growth of further periodic_modulated families
    "lengths_1_1": (1, 1, 0.0), "lengths_2_3": (2, 3, 0.0), "lengths_4_2": (4, 2, 0.0),
    "lengths_5_5": (5, 5, 0.0), "lengths_3_1": (3, 1, 0.0),
    "lengths_2_2_growth_-0.5": (2, 2, -0.5), "lengths_1_1_growth_1e-9": (1, 1, 1e-9)}


def _repeats(p, L, periods=3):
    a, b = p.stack(periods * L)
    return all(np.array_equal(x.reshape(periods, L, *x.shape[1:]), np.broadcast_to(
        x[:L], (periods, *x[:L].shape))) for x in (a, b))


@pytest.mark.parametrize("key", _FAMILIES)
def test_period_is_set_for_exactly_the_families_whose_blocks_repeat(key):
    name, d, knobs, K = _FAMILIES[key]
    p = make_family(name, d, **knobs)
    assert p.period == _PERIODS[key]
    if p.period is not None:
        assert K is None and _repeats(p, p.period)


@pytest.mark.parametrize("key", _MORE_PERIODIC)
def test_a_periodic_modulated_period_is_the_lcm_of_its_list_lengths(rng, key):
    na, nb, growth = _MORE_PERIODIC[key]
    p = make_family("periodic_modulated", 2, growth=growth,
                    A_period=[np.eye(2) + 0.3 * rng.standard_normal((2, 2)) for _ in range(na)],
                    B_period=[np.diag(rng.standard_normal(2)) for _ in range(nb)])
    if growth:
        assert p.period is None and not _repeats(p, np.lcm(na, nb))
    else:
        assert p.period == np.lcm(na, nb) and _repeats(p, p.period)


def test_a_user_rule_has_no_period_and_cannot_declare_one(rng):
    assert JacobiParams(1, lambda n: (np.eye(1), np.zeros((1, 1)))).period is None
    assert random_bounded_params(rng, 2).period is None
    with pytest.raises(TypeError, match="period"):
        JacobiParams(1, lambda n: (np.eye(1), np.zeros((1, 1))), period=3)
