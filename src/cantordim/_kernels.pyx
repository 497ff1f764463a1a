# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled interval construction.

Must stay float-op-for-float-op identical to prefractal_starts in
_kernels_py.py; the test suite compares the two backends bitwise. Box
counting has only the numpy kernel.
"""

import numpy as np

BACKEND_NAME = "compiled"


def prefractal_starts(object offsets_in, double gamma, int stage):
    """Left endpoints of all n**stage intervals, most-significant digit first."""
    offsets_arr = np.ascontiguousarray(offsets_in, dtype=np.float64)
    cdef double[::1] offsets = offsets_arr
    cdef Py_ssize_t n = offsets.shape[0]
    total_py = int(n) ** int(stage)
    out_arr = np.zeros(total_py, dtype=np.float64)
    cdef double[::1] out = out_arr
    contrib_arr = np.empty(n, dtype=np.float64)
    cdef double[::1] contrib = contrib_arr
    cdef double pw = 1.0
    cdef double base
    cdef Py_ssize_t level, size, i, j
    if stage == 0:
        return out_arr  # single zero: the initiator start
    size = 1
    for level in range(stage):
        for j in range(n):
            contrib[j] = offsets[j] * pw
        # expand in place, descending so unread prefix values survive
        for i in range(size - 1, -1, -1):
            base = out[i]
            for j in range(n - 1, -1, -1):
                out[i * n + j] = base + contrib[j]
        size *= n
        pw *= gamma
    return out_arr
