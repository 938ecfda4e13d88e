"""Marks acceptance test 8, the minutes-long end-to-end training run, as
``slow``, so ``python -m pytest -m "not slow"`` gives a quick loop."""

import pytest

SLOW = {"test_end_to_end_overfit_recovers_training_peptides"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in SLOW:
            item.add_marker(pytest.mark.slow)
