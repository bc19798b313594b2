"""Shared fixtures plus the acceptance-criteria summary hook.

Tests marked ``criterion(num, label)`` feed one line each into a final
"acceptance criteria" section so the ten top-level checks read as a
single pass/fail table regardless of how verbose the run was.
"""

import numpy as np
import pytest

from entlab.spectrum import tensor_power_spectrum

_CRITERIA = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, label): ties a test to one acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    mark = item.get_closest_marker("criterion")
    if mark is None:
        return
    num, label = mark.args
    if hasattr(report, "wasxfail"):
        # strict xfail: a documented honest failure, analyzed in the test body
        status = "FAIL (expected, documented)" if report.skipped else "XPASS (unexpected)"
    elif report.passed:
        status = "PASS"
    elif report.failed:
        status = "FAIL"
    else:
        status = "SKIP"
    _CRITERIA[(int(num), str(label))] = status


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for (num, label), status in sorted(_CRITERIA.items()):
        terminalreporter.write_line(f"{num:>2}. {label:<54} {status}")


P_QUARTER = np.array([0.75, 0.25])


@pytest.fixture(scope="session")
def quarter_spectra():
    """Class spectra of the (3/4, 1/4) base on the shared n grid.

    Built once; several scaling criteria walk the same four powers.
    """
    return {n: tensor_power_spectrum(P_QUARTER, n) for n in (64, 256, 1024, 4096)}
