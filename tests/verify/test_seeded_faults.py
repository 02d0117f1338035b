"""Seeded faults: the parity invariants must catch a 1 % batch-kernel error.

The fault scales what ``share_weighted_sums`` returns to
:mod:`repro.models.variable_load` by 1.01 — in the best-effort kernel
(called without ``kmax``), the reservation kernel (called with it) or
both.  The scalar kernels never call it, so only the batch paths are
wrong.  Each check must then fail on its residual, not by crashing.
"""

import math

import pytest

from repro.experiments.params import DEFAULT_CONFIG
from repro.models import variable_load
from repro.verify import invariants  # noqa: F401 - populates the registry
from repro.verify.registry import REGISTRY

CHECKED = ("P1", "P2", "P3", "P6")
_TRUE_SUMS = variable_load.share_weighted_sums


def _faulty_sums(kernel: str):
    def sums(*args, **kwargs):
        values = _TRUE_SUMS(*args, **kwargs)
        in_reservation = kwargs.get("kmax") is not None
        if kernel == "both" or (kernel == "reservation") == in_reservation:
            return values * 1.01
        return values

    return sums


def _outcomes():
    return {inv_id: REGISTRY.get(inv_id).evaluate(DEFAULT_CONFIG) for inv_id in CHECKED}


@pytest.mark.parametrize(
    "kernel, caught",
    [
        ("both", {"P1", "P2", "P3", "P6"}),
        # P6 inverts the batch B kernel; its R~ is the scalar fixed point
        ("best_effort", {"P1", "P3", "P6"}),
        ("reservation", {"P2", "P3"}),
    ],
)
def test_one_percent_batch_fault_is_caught(monkeypatch, kernel, caught):
    monkeypatch.setattr(variable_load, "share_weighted_sums", _faulty_sums(kernel))
    outcomes = _outcomes()
    failed = {inv_id for inv_id, outcome in outcomes.items() if not outcome.passed}
    assert failed == caught
    for inv_id in caught:
        assert math.isfinite(outcomes[inv_id].residual), outcomes[inv_id].detail
