"""Fixtures shared by the test modules."""

import pytest

from subcrit import exact


def _clear_plans():
    exact._frontier_plan.cache_clear()
    exact._spin_steps.cache_clear()


@pytest.fixture
def fresh_plans():
    """Empty the exact engines' caches (percolation plans, spin-sweep
    bookkeeping) before and after the test, so that nothing built under a
    patched sweep order or budget serves another test, and no large plan
    outlives its test.  The value is the function that empties them, for
    a test that patches midway."""
    _clear_plans()
    yield _clear_plans
    _clear_plans()
