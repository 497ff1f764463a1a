"""Parity between the compiled kernels and the pure-Python fallback.

The two implementations must agree bitwise: construction positions are
compared with array_equal, not approx. Box counting has only the numpy
kernel; test_box_count.py checks it against the slow reference.
"""

import numpy as np
import pytest

from cantordim import available_backends, lacunarity_bounds, stage_one_offsets

BACKENDS = available_backends()

needs_both = pytest.mark.skipif(
    len(BACKENDS) < 2,
    reason="compiled kernel cantordim._kernels is not built (it needs Cython: "
    "python setup.py build_ext --inplace), so its parity with the numpy kernel is unverified",
)


def _cases(rng, count=25):
    for _ in range(count):
        n = int(rng.integers(2, 9))
        gamma = float(rng.uniform(0.04, 1.0 / n - 1e-3))
        eps = (
            float(rng.uniform(0, 1)) * lacunarity_bounds(n, gamma).eps_max if n >= 4 else 0.0
        )
        stage = int(rng.integers(0, 6))
        yield n, gamma, eps, stage


@needs_both
def test_prefractal_starts_bitwise_identical(rng):
    py, cc = BACKENDS["python"], BACKENDS["compiled"]
    for n, gamma, eps, stage in _cases(rng):
        offs = np.asarray(stage_one_offsets(n, gamma, eps))
        a = py.prefractal_starts(offs, gamma, stage)
        b = cc.prefractal_starts(offs, gamma, stage)
        assert a.shape == b.shape == (n**stage,)
        assert np.array_equal(a, b)


def test_selected_backend_is_exposed():
    import cantordim

    assert cantordim.BACKEND in BACKENDS
