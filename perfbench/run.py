"""Benchmark of the unival engine.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {scan,suite,session} --seed N \
        --seconds S --trace {0,1}

Workloads, each a closed loop with one job in flight:

  scan     ``unival positivity --n-max 20`` in a fresh interpreter per job:
           many algebra constructions, few queries each.
  suite    ``unival check --n-max 12`` in a fresh interpreter per job: the
           identity suite, which touches every layer.
  session  one library process at n = 32 that has built the algebra and the
           unit kinematic tensor, then runs seeded batches of parsing,
           reductions, products and kinematic tensors, all formatted.

The seed picks the output format of scan and suite jobs and the batch of a
session job.  Every job's output is checked: scan and suite stdout against
SHA-256 digests recorded in ``expected.json``, session output by an exact
tensor symmetry invariant, by equal digests across the jobs of a run, and
by the recorded digest when the seed has one.  A failed job counts in
``failed``; it does not stop the run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s`` (median of the run's fresh set-ups), ``wall_s`` (median seconds
per job), both scaled to a reference host speed (see CALIBRATION), and
``peak_rss_mb``.  With ``--trace 1`` jobs alternate between untraced and
traced (see ``tracer.py``) and the last line carries the per-layer metrics
instead.  The line before it holds the run's details: provenance, sample
counts, raw quartiles, the timeline of raw times and the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from cli_job import TRACE_PREFIX  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

CLI_WORKLOADS = {
    "scan": (["positivity", "--n-max", "20"], ("plain", "json", "csv")),
    "suite": (["check", "--n-max", "12"], ("plain", "json")),
}
WORKLOADS = (*CLI_WORKLOADS, "session")
SUITE_ENTRIES = 24
SESSION_SETUPS = 5
JOB_TIMEOUT_S = 150
# Children cache bytecode, as an installed package does, whatever the caller's setting.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for span in SPAN_NAMES:
        if span == "algebra.construct":
            units["algebra.build.constructed"] = "count"
            continue
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({
        "algebra.table_terms": "count",
        "algebra.table_bits": "bits",
        "duality.pairing.hit_ratio": "ratio",
        "duality.kinematic_matrix.hit_ratio": "ratio",
        "emit.bytes": "bytes",
        "untraced_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


# ---------------------------------------------------------------------------
# provenance


def _loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((src / "unival").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(src: Path) -> dict:
    return {
        "git_commit": _git_commit(ROOT),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": _loadavg(),
    }


# ---------------------------------------------------------------------------
# processes


def spawn(cmd: list[str], timeout: float = JOB_TIMEOUT_S):
    """Run cmd to completion; return (exit code, stdout, stderr, wall s, peak RSS KiB).

    Reads both pipes until the child closes them, then reaps it with wait4
    so the child's own maximum resident set is known.  A child past the
    timeout is killed and reported with exit code None.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=CHILD_ENV)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            for key, _ in sel.select(timeout=None if timed_out else remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    code = None if timed_out else proc.returncode
    return code, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), wall, usage.ru_maxrss


# Host speed on a shared machine swings by up to 2x, for seconds or for
# minutes at a time, and moves every timing taken in that stretch alike.  Each
# run therefore also times CALIBRATION, a fixed stdlib workload in a fresh
# interpreter that shares no code with unival, before every set-up and every
# untraced job and once at the end.  Each set-up and job time is scaled to the
# speed at which CALIBRATION takes CALIBRATION_REF_S:
#     time * CALIBRATION_REF_S / mean(calibration just before, just after).
# A change to unival moves the job times and leaves the calibration alone.
# 0.12 s is the median calibration of a quiet 2-core Intel Xeon with
# CPython 3.11, so there the scaled figures read as plain seconds.
CALIBRATION_REF_S = 0.12
CALIBRATION = """
from fractions import Fraction
import random
rng = random.Random(5)
data = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(12000)]
table = dict(enumerate(data))
acc = Fraction(0)
for k in range(8000):
    acc += table[rng.randrange(12000)] * data[rng.randrange(12000)]
    if k % 64 == 0:
        acc = Fraction(acc.numerator % 10**12, acc.denominator % 10**9 + 1)
"""


def calibrate() -> float:
    """Seconds for the calibration process: a gauge of host speed right now."""
    code, _, err, wall, _ = spawn([sys.executable, "-c", CALIBRATION])
    if code != 0:
        raise RuntimeError(f"calibration failed: {err.decode(errors='replace')[-500:]}")
    return wall


def import_setup(src: Path) -> float:
    """Seconds for a fresh interpreter to start and import unival."""
    code, _, err, wall, _ = spawn([sys.executable, "-c",
                                   f"import sys; sys.path.insert(0, {str(src)!r}); import unival"])
    if code != 0:
        raise RuntimeError(f"importing unival failed: {err.decode(errors='replace')[-500:]}")
    return wall


# ---------------------------------------------------------------------------
# scan and suite: CLI jobs


def cli_format(workload: str, seed: int) -> str:
    formats = CLI_WORKLOADS[workload][1]
    return formats[seed % len(formats)]


def cli_gate(workload: str, fmt: str, code, stdout: bytes, expected: dict) -> str | None:
    """None when the job's output is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if workload == "suite":
        text = stdout.decode("utf-8", errors="replace")
        if fmt == "json":
            report = json.loads(text)
            passed = sum(entry["passed"] for entry in report["entries"])
            total = len(report["entries"])
        else:
            lines = text.splitlines()
            passed = sum(line.startswith("PASS") for line in lines)
            total = len(lines) - 1
        if (passed, total) != (SUITE_ENTRIES, SUITE_ENTRIES):
            return f"suite reports {passed}/{total} PASS, expected {SUITE_ENTRIES}/{SUITE_ENTRIES}"
    got = hashlib.sha256(stdout).hexdigest()
    want = expected[workload][fmt]
    if got != want:
        return f"stdout digest {got[:16]} != recorded {want[:16]}"
    return None


def cli_job(workload: str, fmt: str, traced: bool, expected: dict, src: Path = SRC) -> dict:
    args = [*CLI_WORKLOADS[workload][0], "--format", fmt]
    cmd = [sys.executable, str(HERE / "cli_job.py"), str(src)]
    cmd += ["--trace"] if traced else []
    code, out, err, wall, rss_kib = spawn(cmd + ["--", *args])
    try:
        error = cli_gate(workload, fmt, code, out, expected)
    except (ValueError, KeyError) as exc:
        error = f"unreadable output: {exc}"
    trace = None
    stderr = err.decode(errors="replace").splitlines()
    if traced and error is None:
        lines = [line for line in stderr if line.startswith(TRACE_PREFIX)]
        if len(lines) == 1:
            trace = json.loads(lines[0][len(TRACE_PREFIX):])
        else:
            error = "no trace report"
    if error is not None and stderr:
        error += f" ({stderr[-1][:200]})"
    return {"wall": wall, "rss_mb": rss_kib / 1024, "error": error, "trace": trace}


def run_cli(workload: str, seed: int, seconds: float, trace: bool, src: Path = SRC) -> dict:
    expected = load_expected()
    fmt = cli_format(workload, seed)
    import_setup(src)  # untimed: compiles bytecode and warms the file cache
    timeline: list = []

    def job(traced: bool) -> dict:
        if not traced:
            timeline.append(("calibration", calibrate()))
            timeline.append(("setup", import_setup(src)))
        return _timed(timeline, traced, cli_job(workload, fmt, traced, expected, src))

    jobs = _closed_loop(job, seconds, trace)
    timeline.append(("calibration", calibrate()))
    return {"timeline": timeline, "jobs": jobs, "format": fmt, "peak_rss_mb": None}


# ---------------------------------------------------------------------------
# session: one library process


class SessionWorker:
    """A session_worker.py process; set-up time is spawn to its ``ready`` line."""

    def __init__(self, src: Path):
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "session_worker.py"), str(src)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=CHILD_ENV)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise RuntimeError("session worker did not start")

    def job(self, seed: int, traced: bool) -> dict:
        self.proc.stdin.write(f"job {seed} {int(traced)}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("session worker exited")
        return json.loads(line)

    def close(self) -> float:
        """Stop the worker and return its peak resident set in MB."""
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024


def session_job(worker: SessionWorker, seed: int, traced: bool, digests: list) -> dict:
    """One job, checked; ``digests`` holds the recorded digest or the run's first."""
    try:
        reply = worker.job(seed, traced)
    except (OSError, RuntimeError, ValueError) as exc:
        return {"wall": None, "error": f"session worker failed: {exc}", "trace": None}
    error = reply["error"]
    if error is None:
        if not reply["symmetric"]:
            error = "kinematic tensor block (dl,dr) is not the transpose of (dr,dl)"
        elif digests and reply["digest"] != digests[0]:
            error = f"output digest {reply['digest'][:16]} != expected {digests[0][:16]}"
        elif not digests:
            digests.append(reply["digest"])
    return {"wall": reply["elapsed"], "error": error, "trace": reply["trace"]}


def run_session(seed: int, seconds: float, trace: bool, src: Path = SRC) -> dict:
    recorded = load_expected()["session"].get(str(seed))
    digests = [recorded] if recorded else []
    import_setup(src)  # untimed: compiles bytecode and warms the file cache
    timeline: list = []
    for _ in range(SESSION_SETUPS - 1):
        timeline.append(("calibration", calibrate()))
        spare = SessionWorker(src)
        timeline.append(("setup", spare.setup_s))
        spare.close()
    timeline.append(("calibration", calibrate()))
    worker = SessionWorker(src)
    timeline.append(("setup", worker.setup_s))

    def job(traced: bool) -> dict:
        if not traced:
            timeline.append(("calibration", calibrate()))
        return _timed(timeline, traced, session_job(worker, seed, traced, digests))

    try:
        session_job(worker, seed, False, digests)  # untimed warm-up
        jobs = _closed_loop(job, seconds, trace)
        timeline.append(("calibration", calibrate()))
    finally:
        rss = worker.close()
    return {"timeline": timeline, "jobs": jobs, "format": None, "peak_rss_mb": rss}


# ---------------------------------------------------------------------------
# measurement and metrics


def _closed_loop(job, seconds: float, trace: bool) -> list[dict]:
    """Jobs back to back until the time is up; with trace, every other one traced."""
    jobs: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(jobs) < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and len(jobs) % 2 == 1
        result = job(traced)
        result["traced"] = traced
        jobs.append(result)
    return jobs


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v, "min": v, "max": v}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def _timed(timeline: list, traced: bool, result: dict) -> dict:
    """Enter an untraced, correct job's wall time in the run's timeline."""
    if not traced and result["error"] is None:
        timeline.append(("job", result["wall"]))
    return result


def samples(timeline: list, kind: str) -> list[float]:
    return [seconds for k, seconds in timeline if k == kind]


def at_reference_speed(timeline: list, kind: str) -> list[float]:
    """Each sample of ``kind`` scaled by the calibrations just before and after it."""
    scaled = []
    for i, (k, seconds) in enumerate(timeline):
        if k != kind:
            continue
        before = next((s for k2, s in reversed(timeline[:i]) if k2 == "calibration"), None)
        after = next((s for k2, s in timeline[i + 1:] if k2 == "calibration"), None)
        gauge = [s for s in (before, after) if s is not None]
        scaled.append(seconds * CALIBRATION_REF_S / statistics.mean(gauge))
    return scaled


def end_to_end(run: dict) -> dict:
    """Median set-up and median untraced job at the reference host speed, and
    the peak resident set.  A run without a correct job reports wall_s 0."""
    timeline = run["timeline"]
    rss = run["peak_rss_mb"]
    if rss is None:
        rss = statistics.median(j["rss_mb"] for j in run["jobs"] if not j["traced"])
    jobs = at_reference_speed(timeline, "job") or [0.0]
    return {"setup_s": statistics.median(at_reference_speed(timeline, "setup")),
            "wall_s": statistics.median(jobs), "peak_rss_mb": rss}


def per_layer(run: dict) -> dict:
    """Per-layer metrics: self times and traced wall are means per traced job,
    counts are those of one job (every traced job of a run does the same work)."""
    traced = [j for j in run["jobs"] if j["traced"] and j["trace"] is not None]
    plain = [j for j in run["jobs"] if not j["traced"] and j["error"] is None]
    if not traced or not plain:
        return {name: 0.0 for name in per_layer_units()}
    count = len(traced)
    first = traced[0]["trace"]
    metrics: dict[str, float] = {}
    for span in SPAN_NAMES:
        mean_self = sum(j["trace"]["self_s"][span] for j in traced) / count
        if span == "algebra.construct":
            metrics["algebra.build.constructed"] = first["calls"][span]
            metrics["algebra.build.self_s"] += mean_self
            continue
        metrics[f"{span}.calls"] = first["calls"][span]
        metrics[f"{span}.self_s"] = mean_self
    metrics["algebra.table_terms"] = first["table_terms"]
    metrics["algebra.table_bits"] = first["table_bits"]
    for span in ("duality.pairing", "duality.kinematic_matrix"):
        cache = first["cache"][span]
        lookups = cache["hits"] + cache["misses"]
        metrics[f"{span}.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    metrics["emit.bytes"] = first["emit_bytes"]
    traced_wall = sum(j["wall"] for j in traced) / count
    layer_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    metrics["untraced_s"] = traced_wall - layer_total
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - sum(j["wall"] for j in plain) / len(plain)
    return {name: metrics[name] for name in per_layer_units()}


def counters_repeat(run: dict) -> bool:
    """Whether every traced job of the run reported identical exact counters."""
    keys = ("calls", "cache", "emit_bytes", "table_terms", "table_bits")
    traced = [j["trace"] for j in run["jobs"] if j["traced"] and j["trace"] is not None]
    return all({k: t[k] for k in keys} == {k: traced[0][k] for k in keys} for t in traced)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, src: Path = SRC) -> dict:
    if workload == "session":
        return run_session(seed, seconds, trace, src)
    return run_cli(workload, seed, seconds, trace, src)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unival" / "__init__.py").is_file():
        print(f"error: no unival package under {SRC}", file=sys.stderr)
        return 2

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "provenance": provenance(SRC)}
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    details["provenance"]["loadavg_after"] = _loadavg()

    jobs = run["jobs"]
    failed = [j for j in jobs if j["error"] is not None]
    plain_walls = samples(run["timeline"], "job")
    details.update({
        "format": run["format"],
        "jobs": len(jobs),
        "wall_samples": len(plain_walls),
        "wall_s": _quartiles(plain_walls),
        "setup_s": _quartiles(samples(run["timeline"], "setup")),
        "timeline": run["timeline"],
        "error_rate": len(failed) / len(jobs),
        "errors": sorted({j["error"] for j in failed})[:5],
    })
    if args.trace:
        details["counters_repeat"] = counters_repeat(run)
        metrics, units = per_layer(run), per_layer_units()
    else:
        metrics, units = end_to_end(run), END_TO_END_UNITS
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
