import tracemalloc

import numpy as np
import pytest

from bjweyl.blockcore import JacobiParams


def random_bounded_params(rng, d: int, n_blocks: int = 96) -> JacobiParams:
    """Random valid bounded family: A_n with singular values in [0.5, 2],
    Hermitian B_n with operator norm O(1)."""
    blocks = []
    for _ in range(n_blocks):
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        a = u @ np.diag(rng.uniform(0.5, 2.0, d)) @ v.conj().T
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append((a, (h + h.conj().T) / 2))
    return JacobiParams(d, lambda n: blocks[n], bounded=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def traced_peak(f, *args):
    """f(*args) and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
