"""Shared fixtures."""

from __future__ import annotations

from fractions import Fraction

import pytest

from unival.duality import kinematic_matrix, pairing_matrix


@pytest.fixture
def fresh_matrix_caches():
    caches = (pairing_matrix, kinematic_matrix)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


@pytest.fixture
def fraction_constructions(monkeypatch):
    """Records the arguments of every ``Fraction`` built until the test undoes its monkeypatches."""
    real_new = Fraction.__new__
    calls = []

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return calls
