"""The one kernel: the numpy module that ``cantordim.BACKEND`` names.

Its box counts are checked against the slow reference in test_box_count.py.
"""

import cantordim
from cantordim import _kernels_py


def test_selected_backend_is_exposed():
    assert cantordim.available_backends() == {cantordim.BACKEND: _kernels_py}
    assert cantordim.BACKEND == "python"
