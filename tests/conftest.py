"""Shared fixtures."""

from __future__ import annotations

import pytest

from unival.duality import kinematic_matrix, pairing_matrix


@pytest.fixture
def fresh_matrix_caches():
    pairing_matrix.cache_clear()
    kinematic_matrix.cache_clear()
    yield
    pairing_matrix.cache_clear()
    kinematic_matrix.cache_clear()
