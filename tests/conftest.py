"""Shared fixtures."""

from __future__ import annotations

import pytest

from unival.duality import kinematic_matrix, pairing_matrix
from unival.kinematics import _product_pairing_unit


@pytest.fixture
def fresh_matrix_caches():
    caches = (pairing_matrix, kinematic_matrix, _product_pairing_unit)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()
