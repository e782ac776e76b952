"""Library-session worker: one algebra at n = 32, many queries against it.

Usage: python3 session_worker.py SRC_DIR

Set-up imports ``unival`` from SRC_DIR, builds ``build_algebra(32)`` and
``kinematic_unit(32)``, then prints ``ready``.  Each following stdin line
``job SEED TRACED`` (TRACED 0 or 1) runs one job on the batch of that seed
and answers with one JSON line.  The worker exits at end of input.

A job parses and reduces REDUCTIONS polynomials, parses FACTORS elements and
forms PRODUCTS products of them, and builds one kinematic tensor per entry
of TENSOR_DEGREES; every result is formatted through ``unival.emit``.  Only
the job itself is timed.  Its output digest and the tensor symmetry
invariant are computed after the clock stops.
"""

import hashlib
import json
import random
import sys
import time

N = 32
REDUCTIONS = 150
FACTORS = 60
PRODUCTS = 1000
TENSOR_DEGREES = (1, 3)
TENSOR_FORMATS = ("plain", "json", "latex")


def _coefficient(rng: random.Random) -> str:
    return f"{rng.randint(1, 19)}/{rng.randint(1, 9)}"


def _text(rng: random.Random, monomials) -> str:
    terms = []
    for p, q in monomials:
        sign = "-" if rng.random() < 0.5 else "+"
        terms.append(f"{sign} {_coefficient(rng)}*s^{p}*t^{q}")
    return " ".join(terms)


def make_inputs(seed: int) -> dict:
    """The job's batch as polynomial text; the same seed gives the same batch."""
    rng = random.Random(seed)

    def random_monomials(count: int, max_degree: int):
        out = []
        for _ in range(count):
            d = rng.randint(0, max_degree)
            p = rng.randint(0, d // 2)
            out.append((p, d - 2 * p))
        return out

    def homogeneous(d: int):
        return [(p, d - 2 * p) for p in range(d // 2 + 1)]

    return {
        # up to degree 2n+4, so some terms vanish and most need the tables
        "reduce": [_text(rng, random_monomials(6, 2 * N + 4)) for _ in range(REDUCTIONS)],
        "factors": [_text(rng, random_monomials(3, N)) for _ in range(FACTORS)],
        "pairs": [(rng.randrange(FACTORS), rng.randrange(FACTORS)) for _ in range(PRODUCTS)],
        "phi": [_text(rng, homogeneous(d)) for d in TENSOR_DEGREES],
    }


def run_job(unival, alg, inputs: dict) -> tuple[list[str], list]:
    emit = unival.emit
    out = []
    for text in inputs["reduce"]:
        out.append(emit.format_poly(alg.normal_form(unival.poly_parse(text)).poly, "plain"))
    factors = [alg.normal_form(unival.poly_parse(text)) for text in inputs["factors"]]
    for i, j in inputs["pairs"]:
        out.append(emit.format_poly((factors[i] * factors[j]).poly, "plain"))
    tensors = []
    for text in inputs["phi"]:
        tensor = unival.kinematic_of(N, alg.normal_form(unival.poly_parse(text)))
        tensors.append(tensor)
        out.extend(emit.format_tensor(tensor, fmt) for fmt in TENSOR_FORMATS)
    return out, tensors


def tensor_is_symmetric(tensor) -> bool:
    """Exact invariant: block (dl, dr) is the transpose of block (dr, dl)."""
    blocks = tensor.blocks
    return all((dr, dl) in blocks and blocks[(dr, dl)] == m.transpose()
               for (dl, dr), m in blocks.items())


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    import unival
    import unival.emit

    alg = unival.build_algebra(N)
    unival.kinematic_unit(N)
    print("ready", flush=True)

    from tracer import Tracer

    batches: dict[str, dict] = {}
    for line in sys.stdin:
        _, seed, flag = line.split()
        if seed not in batches:
            batches[seed] = make_inputs(int(seed))
        inputs, traced = batches[seed], flag == "1"
        reply = {"elapsed": None, "digest": None, "symmetric": None, "trace": None, "error": None}
        tracer = Tracer().install() if traced else None
        try:
            start = time.perf_counter()
            out, tensors = run_job(unival, alg, inputs)
            reply["elapsed"] = time.perf_counter() - start
        except Exception as exc:  # a failed job is reported, and the worker keeps serving
            reply["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.uninstall()
        if reply["error"] is None:
            reply["digest"] = digest(out)
            reply["symmetric"] = all(tensor_is_symmetric(t) for t in tensors)
            if tracer is not None:
                reply["trace"] = tracer.report()
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
