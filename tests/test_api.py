"""The public API: the names ``from unival import *`` brings in."""

from __future__ import annotations

import unival


def test_all_is_sorted_unique_and_resolves():
    names = unival.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(unival, name)] == []
    namespace: dict[str, object] = {}
    exec("from unival import *", namespace)
    assert set(names) <= set(namespace)
