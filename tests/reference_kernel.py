"""The seed's numpy box_count, kept unchanged as the slow reference.

It runs about 40 numpy passes over all m intervals at every box size. The
kernels must return exactly its counts; see test_box_count.py.
"""

import numpy as np


def box_count(starts, ends, delta, eta):
    """Occupied cells of the grid [k*delta, (k+1)*delta) over sorted intervals.

    A cell is occupied when its overlap with an interval exceeds eta*delta;
    intervals thinner than the snap band are assigned their midpoint cell.
    """
    m = len(starts)
    if m == 0:
        return 0
    snap = eta * delta
    a = starts + snap
    b = ends - snap
    klo = np.floor(a / delta).astype(np.int64)
    klo = np.where((klo + 1.0) * delta <= a, klo + 1, klo)
    klo = np.where(klo * delta > a, klo - 1, klo)
    khi = np.floor(b / delta).astype(np.int64)
    khi = np.where(khi * delta >= b, khi - 1, khi)
    khi = np.where((khi + 1.0) * delta < b, khi + 1, khi)
    thin = khi < klo
    if thin.any():
        mid = np.floor(((starts + ends) * 0.5) / delta).astype(np.int64)
        klo = np.where(thin, mid, klo)
        khi = np.where(thin, mid, khi)
    total = int(khi[0] - klo[0] + 1)
    if m > 1:
        prev_hi = np.maximum.accumulate(khi)[:-1]
        lo_eff = np.maximum(klo[1:], prev_hi + 1)
        total += int(np.maximum(0, khi[1:] - lo_eff + 1).sum())
    return total
