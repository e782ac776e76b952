"""Outside-in tracer for the unival package.

The tracer wraps public functions and methods of the package's modules at
every place they are bound: a function is replaced in each ``unival.*``
module that imported it (``kinematics`` holds its own reference to
``kinematic_matrix``, ``cli`` its own ``poly_parse``), a method is replaced
on its class.  Nothing under ``src/`` is edited; ``uninstall`` puts every
original object back.

Each call records a span.  Spans are aggregated in memory per
(span name, parent span name) as a call count and an inclusive duration;
self time is derived from those aggregates afterwards, so a layer's self
time is its inclusive time minus the inclusive time of the spans it
caused directly.  ``report`` returns everything as one JSON-ready dict,
which the caller writes out once, when the traced work has ended.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute).  A dotted attribute is a method on a class.
# Several targets may share one span name; their calls and times add up.
TARGETS = (
    ("cli", "unival.cli", "run"),
    ("suite", "unival.suite", "run_suite"),
    ("algebra.build", "unival.algebra", "build_algebra"),
    ("algebra.construct", "unival.algebra", "UnitaryAlgebra.__init__"),
    ("algebra.normal_form", "unival.algebra", "UnitaryAlgebra.normal_form"),
    ("algebra.normal_form", "unival.algebra", "SOAlgebra.normal_form"),
    ("poly.mul", "unival.poly", "GradedPoly.__mul__"),
    ("poly.parse", "unival.poly", "poly_parse"),
    ("duality.pairing", "unival.duality", "pairing_matrix"),
    ("duality.kinematic_matrix", "unival.duality", "kinematic_matrix"),
    ("exact.inverse", "unival.exact", "ExactMatrix.inverse"),
    ("exact.det", "unival.exact", "ExactMatrix.det"),
    ("exact.positive_definite", "unival.exact", "is_positive_definite"),
    ("exact.solve_in_span", "unival.exact", "solve_in_span"),
    ("exact.matmul", "unival.exact", "ExactMatrix.__matmul__"),
    ("kinematics.kinematic_of", "unival.kinematics", "kinematic_of"),
    ("kinematics.map", "unival.kinematics", "TensorElement.map_left"),
    ("kinematics.map", "unival.kinematics", "TensorElement.map_right"),
    ("kinematics.identity_checks", "unival.kinematics", "annihilator_congruence_holds"),
    ("kinematics.identity_checks", "unival.kinematics", "step_up_identity_holds"),
    ("emit.format", "unival.emit", "format_basis"),
    ("emit.format", "unival.emit", "format_matrix"),
    ("emit.format", "unival.emit", "format_poly"),
    ("emit.format", "unival.emit", "format_positivity"),
    ("emit.format", "unival.emit", "format_report"),
    ("emit.format", "unival.emit", "format_tensor"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# lru caches whose hit ratio is reported, by span name of the cached function.
CACHED = {"duality.pairing": ("unival.duality", "pairing_matrix"),
          "duality.kinematic_matrix": ("unival.duality", "kinematic_matrix")}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "unival" or name.startswith("unival."))]


def self_times(aggregate) -> dict[str, float]:
    """Self time per span name from {(name, parent): [calls, inclusive_s]}."""
    inclusive: dict[str, float] = defaultdict(float)
    children: dict[str, float] = defaultdict(float)
    for (name, parent), (_, seconds) in aggregate.items():
        inclusive[name] += seconds
        if parent is not None:
            children[parent] += seconds
    return {name: inclusive[name] - children[name] for name in inclusive}


class Tracer:
    """Wraps the package's layer boundaries; one instance per traced stretch."""

    def __init__(self):
        self.aggregate: dict[tuple[str, str | None], list] = {}
        self.emit_bytes = 0
        self.constructed: list = []
        self._stack: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cache_before: dict[str, tuple[int, int]] = {}

    def install(self) -> "Tracer":
        import unival  # noqa: F401  (loads every module that holds a target)
        import unival.cli  # noqa: F401

        modules = _package_modules()
        for name, module_name, attribute in TARGETS:
            module = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._replace(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
        for name, (module_name, attribute) in CACHED.items():
            info = self._cached(module_name, attribute).cache_info()
            self._cache_before[name] = (info.hits, info.misses)
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _cached(self, module_name: str, attribute: str):
        """The lru-cached function itself, even while its bindings are wrapped."""
        current = getattr(sys.modules[module_name], attribute)
        return getattr(current, "__wrapped_target__", current)

    def _replace(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        stack = self._stack
        aggregate = self.aggregate
        clock = time.perf_counter
        count_bytes = name == "emit.format"
        record_instance = name == "algebra.construct"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry = aggregate.get((name, parent))
                if entry is None:
                    aggregate[(name, parent)] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
            if count_bytes:
                self.emit_bytes += len(result.encode("utf-8"))
            if record_instance:
                self.constructed.append(args[0])
            return result

        wrapper.__wrapped_target__ = fn
        return wrapper

    def report(self) -> dict:
        """Calls, self time and exact counters of everything traced so far."""
        calls: dict[str, int] = defaultdict(int)
        for (name, _), (n, _) in self.aggregate.items():
            calls[name] += n
        selfs = self_times(self.aggregate)
        hits = {}
        for name, (module_name, attribute) in CACHED.items():
            info = self._cached(module_name, attribute).cache_info()
            before_hits, before_misses = self._cache_before.get(name, (0, 0))
            hits[name] = (info.hits - before_hits, info.misses - before_misses)
        table_terms, table_bits = _table_size(self.constructed)
        return {
            "calls": {name: calls.get(name, 0) for name in SPAN_NAMES},
            "self_s": {name: selfs.get(name, 0.0) for name in SPAN_NAMES},
            "root_s": sum(s for (_, parent), (_, s) in self.aggregate.items() if parent is None),
            "aggregate": [[name, parent, n, s] for (name, parent), (n, s) in sorted(
                self.aggregate.items(), key=lambda item: (item[0][0], item[0][1] or ""))],
            "cache": {name: {"hits": h, "misses": m} for name, (h, m) in hits.items()},
            "emit_bytes": self.emit_bytes,
            "table_terms": table_terms,
            "table_bits": table_bits,
        }


def _table_size(algebras) -> tuple[int, int]:
    """Terms and numerator-plus-denominator bits of every reduction table entry.

    Reads the tables through the public ``reduction_of`` over every
    non-basis monomial of degrees n+1 .. 2n+2, the degrees construction
    eliminates.
    """
    terms = bits = 0
    for alg in algebras:
        n = alg.n
        for d in range(n + 1, 2 * n + 3):
            basis = set(alg.basis(d))
            for p in range(d // 2 + 1):
                mono = (p, d - 2 * p)
                if mono in basis:
                    continue
                for c in alg.reduction_of(mono).terms.values():
                    terms += 1
                    bits += c.numerator.bit_length() + c.denominator.bit_length()
    return terms, bits
