"""The acceptance criteria of ``heatjets.acceptance``, one test each.

Each test prints a single CRITERION line (PASS or FAIL) and enforces its
runtime budget.  ``heatinv verify`` runs the same registry.
"""

import time

import pytest

from conftest import emit

from heatjets.acceptance import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=lambda c: f"{c.number}-{c.name}")
def test_criterion(criterion):
    number, name, budget, check = criterion
    start = time.perf_counter()
    try:
        detail = check()
    except BaseException:
        emit(f"CRITERION {number} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if detail is None and elapsed >= budget:
        detail = f"budget {budget}s exceeded: {elapsed:.2f}s"
    if detail is not None:
        emit(f"CRITERION {number} [{name}]: FAIL")
        pytest.fail(detail)
    emit(f"CRITERION {number} [{name}]: PASS ({elapsed:.2f}s / {budget}s)")
