"""The benchmark's outputs, recomputed in process.

``perfbench/expected.json`` holds the SHA-256 digests that the benchmark's
correctness gate checks: the stdout of ``check --n-max 12`` and
``positivity --n-max 20`` per format, and the session output per seed.  The
session worker (``perfbench/session_worker.py``) is loaded from its source,
read-only, so its ``make_inputs``, ``run_job`` and ``digest`` are the ones
the benchmark runs.  A byte drift shows here rather than only in a benchmark
run, and a session job is held to building no ``Fraction``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import unival
import unival.emit
from unival.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SESSION_N = 32


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads((PERFBENCH / "expected.json").read_text())


@pytest.fixture(scope="module")
def session_worker() -> dict:
    path = PERFBENCH / "session_worker.py"
    namespace = {"__name__": "session_worker"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    assert namespace["N"] == SESSION_N
    return namespace


@pytest.fixture(scope="module")
def session_algebra():
    """The session set-up: the algebra and the unit kinematic tensor at n = 32."""
    alg = unival.build_algebra(SESSION_N)
    unival.kinematic_unit(SESSION_N)
    return alg


def _stdout_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "workload, args, fmt",
    [
        ("suite", ["check", "--n-max", "12"], "plain"),
        ("suite", ["check", "--n-max", "12"], "json"),
        ("scan", ["positivity", "--n-max", "20"], "plain"),
        ("scan", ["positivity", "--n-max", "20"], "json"),
        ("scan", ["positivity", "--n-max", "20"], "csv"),
    ],
)
def test_cli_digests_match_the_benchmark_record(expected, workload, args, fmt):
    assert _stdout_digest([*args, "--format", fmt]) == expected[workload][fmt]


@pytest.mark.parametrize("seed", range(10))
def test_session_digests_match_the_benchmark_record(expected, session_worker, session_algebra, seed):
    out, tensors = session_worker["run_job"](unival, session_algebra, session_worker["make_inputs"](seed))
    assert session_worker["digest"](out) == expected["session"][str(seed)]
    assert all(session_worker["tensor_is_symmetric"](tensor) for tensor in tensors)


def test_session_job_builds_no_fraction(monkeypatch, session_worker, session_algebra, fraction_constructions):
    # The module-scoped set-up runs before the function-scoped counter starts.
    session_worker["run_job"](unival, session_algebra, session_worker["make_inputs"](1))
    monkeypatch.undo()
    assert len(fraction_constructions) == 0, fraction_constructions[:5]
