"""Marks acceptance test 8, the minutes-long end-to-end training run, as
``slow``, so ``python -m pytest -m "not slow"`` gives a quick loop; and
makes parameter stores that no longer match their model."""

import numpy as np
import pytest

from pepseq.params import ParameterStore

SLOW = {"test_end_to_end_overfit_recovers_training_peptides"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in SLOW:
            item.add_marker(pytest.mark.slow)


MISMATCHES = {"missing": "at/out.b", "misshaped": "at/out.b", "extra": "at/extra"}


def mismatched_store(store: ParameterStore, edit: str) -> ParameterStore:
    """A copy of ``store`` with the array ``MISMATCHES[edit]`` dropped
    ("missing"), one element short ("misshaped") or added ("extra")."""
    target = MISMATCHES[edit]
    out = ParameterStore()
    for key, t in store.items():
        if key != target:
            out.add(*key.split("/", 1), t.values)
        elif edit == "misshaped":
            out.add(*key.split("/", 1), t.values[:-1])
    if edit == "extra":
        out.add(*target.split("/", 1), np.zeros(3))
    return out
