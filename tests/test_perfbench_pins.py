"""The benchmark's pins on the package: what ``perfbench/tracer.py`` wraps and reads.

The tracer is loaded from its source, read-only, so a change that removes
or moves a traced function or a cached one fails here rather than when the
benchmark runs.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer() -> dict:
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def _resolves(module_name: str, attribute: str) -> bool:
    module = importlib.import_module(module_name)
    if "." in attribute:  # a method, looked up where the tracer replaces it
        cls_name, method = attribute.split(".")
        owner = getattr(module, cls_name, None)
        return isinstance(owner, type) and method in vars(owner)
    return hasattr(module, attribute)


def test_every_traced_target_resolves(tracer):
    targets = tracer["TARGETS"]
    assert targets
    assert [target for target in targets if not _resolves(*target[1:])] == []


def test_every_cached_function_has_cache_info(tracer):
    cached = tracer["CACHED"]
    assert cached
    lacking = [
        name
        for name, (module_name, attribute) in cached.items()
        if not hasattr(getattr(importlib.import_module(module_name), attribute, None), "cache_info")
    ]
    assert lacking == []
