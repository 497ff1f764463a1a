import numpy as np
import pytest

import cantordim


def kernel_line():
    return f"cantordim kernel under test: {cantordim.BACKEND} (numpy), the only kernel"


def pytest_report_header(config):
    return kernel_line()


def pytest_terminal_summary(terminalreporter):
    # the header is hidden under -q; the summary is not
    terminalreporter.write_line(kernel_line())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
