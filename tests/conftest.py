import numpy as np
import pytest

import cantordim


def kernel_line():
    importable = sorted(cantordim.available_backends())
    line = (
        f"cantordim kernels under test: construction {cantordim.BACKEND}, box counting python "
        f"(importable: {', '.join(importable)})"
    )
    if "compiled" not in importable:
        line += "; the compiled kernel is not built and its parity test skips"
    return line


def pytest_report_header(config):
    return kernel_line()


def pytest_terminal_summary(terminalreporter):
    # the header is hidden under -q; the summary is not
    terminalreporter.write_line(kernel_line())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
