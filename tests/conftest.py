"""Fault injections shared by the negative controls."""

import pytest

from supertorus import exterior as ex


@pytest.fixture
def negated_raising(monkeypatch):
    """Negate the raising operator, which is what a negated derivative by
    every theta generator makes of it: a sign fault that the exponential and
    sl2 checks must catch.  Lowering is untouched."""
    raising = ex.raising
    monkeypatch.setattr(ex, "raising", lambda f: -raising(f))
