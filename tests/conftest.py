"""Fault injections shared by the negative controls."""

import pytest

from supertorus import exterior as ex


@pytest.fixture
def flipped_theta_derivative(monkeypatch):
    """Negate every derivative by a theta generator, a sign fault that the
    exponential and sl2 checks must catch."""
    derivative = ex.derivative

    def flipped(f, g):
        d = derivative(f, g)
        return -d if g.kind == "theta" else d

    monkeypatch.setattr(ex, "derivative", flipped)
