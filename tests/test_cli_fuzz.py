"""Fuzzed configs: whatever the family knobs and command, ``main`` ends in
rows (0), a config error (1) or all-error rows (2), and never raises."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from bjweyl.cli import COMMANDS, main

_scalar = st.sampled_from([0.0, -1.0, 1.0, 2.5, "nan"])
_block = st.one_of(_scalar, st.lists(st.lists(_scalar, max_size=3), max_size=3))
_blocks = st.lists(_block, max_size=3)
_dim = st.integers(0, 3)
_family = st.one_of(
    st.fixed_dictionaries({"name": st.just("free"), "d": _dim}),
    st.fixed_dictionaries({"name": st.just("constant"), "d": _dim, "A": _block, "B": _block}),
    st.fixed_dictionaries({"name": st.just("diagonal"), "components": st.lists(
        st.fixed_dictionaries({"a": st.one_of(_scalar, st.lists(_scalar, max_size=4)),
                               "b": _scalar}), max_size=3)}),
    st.fixed_dictionaries({"name": st.just("periodic_modulated"), "d": _dim,
                           "A_period": _blocks, "B_period": _blocks,
                           "growth": st.sampled_from([0.0, -1.0, 2.0, 400.0, "nan"])}),
    st.fixed_dictionaries({"name": st.just("explicit"), "d": _dim, "A": _blocks, "B": _blocks}),
)
_small = st.integers(1, 5)
_config = st.fixed_dictionaries({
    "family": _family,
    "command": st.sampled_from(COMMANDS),
    "format": st.sampled_from(["csv", "json"]),
    "z": st.sampled_from([[0.3, 0.5], [0.0, 0.0], [1.0, 0.0]]),
    "N": _small, "n_max": _small, "k_max": _small,
    "lambda": st.fixed_dictionaries({"min": st.just(-1.0), "max": st.just(1.0),
                                     "steps": st.integers(1, 3)}),
    "t_grid": st.fixed_dictionaries({"max": st.just(8.0), "steps": st.integers(1, 4)}),
    "eps_ladder": st.just([1.0, 0.5]),
    "n_rule_C": st.just(5.0),
})


@settings(max_examples=150, deadline=10_000, derandomize=True)
@given(config=_config)
def test_fuzzed_config_ends_in_an_exit_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2)
