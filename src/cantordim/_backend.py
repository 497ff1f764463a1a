"""Backend selection: compiled kernels when available, numpy fallback otherwise.

Set CANTORDIM_BACKEND=python (or =compiled) to force a choice; forcing
"compiled" raises if the extension is missing rather than degrading silently.
The choice covers interval construction; box counting always runs the numpy
kernel.
"""

import os

from . import _kernels_py

_forced = os.environ.get("CANTORDIM_BACKEND", "").strip().lower()

if _forced == "python":
    _impl = _kernels_py
elif _forced == "compiled":
    from . import _kernels as _impl  # ImportError here is intentional
else:
    try:
        from . import _kernels as _impl
    except ImportError:
        _impl = _kernels_py

BACKEND = _impl.BACKEND_NAME
prefractal_starts = _impl.prefractal_starts
box_count = _kernels_py.box_count
set_layout = _kernels_py.set_layout


def available_backends():
    """Name -> kernel module for every importable backend (for tests/benchmarks)."""
    found = {"python": _kernels_py}
    try:
        from . import _kernels
    except ImportError:
        pass
    else:
        found["compiled"] = _kernels
    return found
