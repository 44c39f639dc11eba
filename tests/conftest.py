"""Fault injections shared by the negative controls."""

import inspect

import pytest

from supertorus import exterior as ex
from supertorus import matchings as ma


@pytest.fixture
def negated_raising(monkeypatch):
    """Negate the raising operator, which is what a negated derivative by
    every theta generator makes of it: a sign fault that the exponential and
    sl2 checks must catch.  Lowering is untouched."""
    raising = ex.raising
    monkeypatch.setattr(ex, "raising", lambda f: -raising(f))


@pytest.fixture
def oldest_arc_first(monkeypatch):
    """The bijection's mask core with one change: a B element closes the
    oldest open arc instead of the newest.  The fault comes from the core's
    own source, so every other line of it, its checks too, stays."""
    source = inspect.getsource(ma._matching_from_masks)
    mutated = source.replace("opened.pop()", "opened.pop(0)")
    assert mutated != source
    namespace = dict(vars(ma))
    exec(compile(mutated, ma.__file__, "exec"), namespace)
    monkeypatch.setattr(ma, "_matching_from_masks", namespace["_matching_from_masks"])
