"""Command-line surface: outputs, formats, determinism, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unival
from unival import ExactMatrix, algebra, cli, kinematic_matrix, kinematics, poly_parse
from unival.cli import run


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_plain(capsys):
    code, out, _ = _capture(capsys, ["basis", "--n", "3", "--degree", "4"])
    assert code == 0
    assert out == "t^4, s*t^2\n"


def test_basis_degree_out_of_range_exits_1(capsys):
    for n, degree in ((2, 5), (3, -1), (3, 7)):
        code, out, err = _capture(capsys, ["basis", "--n", str(n), "--degree", str(degree)])
        assert (code, out) == (1, "")
        assert err == f"error: degree must lie in 0..{2 * n}, got {degree}\n"
    code, out, _ = _capture(capsys, ["basis", "--n", "3", "--degree", "6"])
    assert (code, out) == (0, "t^6\n")


def test_basis_builds_no_algebra(capsys, monkeypatch):
    """The range checks fire, and the basis prints, before any model could be built."""

    def forbidden(n):
        raise AssertionError(f"basis built the algebra for n={n}")

    monkeypatch.setattr(cli, "build_algebra", forbidden)
    monkeypatch.setattr(algebra, "build_algebra", forbidden)
    monkeypatch.setattr(algebra, "UnitaryAlgebra", forbidden)
    cases = {
        ("0", "0"): (1, "", "error: complex dimension n must be >= 1\n"),
        ("-3", "1"): (1, "", "error: complex dimension n must be >= 1\n"),
        ("100000", "200001"): (1, "", "error: degree must lie in 0..200000, got 200001\n"),
        ("100000", "-1"): (1, "", "error: degree must lie in 0..200000, got -1\n"),
        ("100000", "3"): (0, "t^3, s*t\n", ""),
    }
    for (n, degree), expected in cases.items():
        assert _capture(capsys, ["basis", "--n", n, "--degree", degree]) == expected, (n, degree)


def test_text_is_parsed_before_any_model_is_built(capsys, monkeypatch):
    """A dimension error comes first, then a malformed text; neither builds a model, however large n is."""

    def forbidden(n):
        raise AssertionError(f"a model was built for n={n} before the text was parsed")

    for module, names in ((cli, ("build_algebra", "SOAlgebra")), (algebra, ("build_algebra", "UnitaryAlgebra"))):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
    caret = "error: position 2: expected an exponent after '^', found end of input\n"
    cases = {
        ("reduce", "--n", "0", "t"): "error: complex dimension n must be >= 1\n",
        ("reduce", "--n", "0", "s^"): "error: complex dimension n must be >= 1\n",
        ("reduce", "--n", "100000", "s^"): caret,
        ("mul", "--n", "100000", "s", "s^"): caret,
        ("mul", "--n", "100000", "s^", "1/0"): caret,
        ("kinematic", "--n", "100000", "--phi", "s^"): caret,
        ("kinematic", "--n", "-1", "--phi", "s^"): "error: complex dimension n must be >= 1\n",
        ("kinematic", "--so", "100000", "--phi", "s^"): caret,
        ("kinematic", "--so", "0", "--phi", "s^"): "error: real dimension n must be >= 1\n",
    }
    for argv, err in cases.items():
        assert _capture(capsys, list(argv)) == (1, "", err), argv


def test_basis_below_first_relation(capsys):
    code, out, _ = _capture(capsys, ["basis", "--n", "4", "--degree", "2"])
    assert code == 0
    assert out == "t^2, s\n"


def test_reduce_examples(capsys):
    code, out, _ = _capture(capsys, ["reduce", "--n", "2", "s^2"])
    assert (code, out) == (0, "1/6*t^4\n")
    code, out, _ = _capture(capsys, ["reduce", "--n", "1", "t^3"])
    assert (code, out) == (0, "0\n")
    # -3*s*t reduces to -t^3, cancelling the t^3 term
    code, out, _ = _capture(capsys, ["reduce", "--n", "2", "s - 1/2*t^2 + t^3 - 3*s*t"])
    assert code == 0
    assert poly_parse(out.strip()) == poly_parse("s - 1/2*t^2")


def test_mul(capsys):
    code, out, _ = _capture(capsys, ["mul", "--n", "2", "s", "s"])
    assert (code, out) == (0, "1/6*t^4\n")


def test_matrix_json_round_trip(capsys):
    code, out, _ = _capture(capsys, ["matrix", "--n", "2", "--k", "1", "--which", "Q", "--format", "json"])
    assert code == 0
    assert ExactMatrix(json.loads(out)) == kinematic_matrix(2, 1)
    assert json.loads(out) == [["3", "-6"], ["-6", "18"]]


def test_matrix_latex(capsys):
    code, out, _ = _capture(capsys, ["matrix", "--n", "3", "--k", "1", "--which", "P", "--format", "latex"])
    assert code == 0
    assert out == "\\begin{bmatrix}\n1 & \\frac{3}{10} \\\\\n\\frac{3}{10} & \\frac{1}{10}\n\\end{bmatrix}\n"


def test_matrix_annihilator_change(capsys):
    code, out, _ = _capture(capsys, ["matrix", "--n", "3", "--k", "1", "--which", "A"])
    assert code == 0
    assert out.splitlines() == ["1    0", "3  -10"]


def test_matrix_companion_json(capsys):
    code, out, _ = _capture(capsys, ["matrix", "--n", "3", "--k", "1", "--which", "companion", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"n": 3, "k": 1, "a": ["1/2", "-2"]}


def test_kinematic_unit_blocks(capsys):
    code, out, _ = _capture(capsys, ["kinematic", "--n", "1", "--phi", "1"])
    assert code == 0
    assert out.splitlines() == ["(0,2): 1(x)t^2", "(1,1): t(x)t", "(2,0): t^2(x)1"]


def test_kinematic_middle_block_is_kinematic_matrix(capsys):
    code, out, _ = _capture(capsys, ["kinematic", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    middle = next(b for b in payload["blocks"] if b["degrees"] == [2, 2])
    assert ExactMatrix(middle["matrix"]) == kinematic_matrix(2, 1)
    assert middle["row_basis"] == ["t^2", "s"]


def test_kinematic_orthogonal_mode(capsys):
    code, out, _ = _capture(capsys, ["kinematic", "--so", "4", "--phi", "t"])
    assert code == 0
    assert out.splitlines() == [
        "(1,4): t(x)t^4",
        "(2,3): t^2(x)t^3",
        "(3,2): t^3(x)t^2",
        "(4,1): t^4(x)t",
    ]


def test_son(capsys):
    code, out, _ = _capture(capsys, ["son", "--n", "2", "--k", "0"])
    assert code == 0
    assert out.splitlines() == ["(0,2): 1(x)t^2", "(1,1): t(x)t", "(2,0): t^2(x)1"]


def test_positivity_csv(capsys):
    code, out, _ = _capture(capsys, ["positivity", "--n-max", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == [
        "n,k,positive_definite",
        "1,0,true",
        "2,0,true",
        "2,1,true",
    ]


def test_check_passes(capsys):
    code, out, _ = _capture(capsys, ["check", "--n-max", "2"])
    assert code == 0
    assert "0 failed" in out
    assert out.count("PASS") == 24


def test_check_json(capsys):
    code, out, _ = _capture(capsys, ["check", "--n-max", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert len(payload["entries"]) == 24


def test_outputs_are_deterministic(capsys):
    argv = ["kinematic", "--n", "3", "--format", "json"]
    _, first, _ = _capture(capsys, argv)
    _, second, _ = _capture(capsys, argv)
    assert first == second


def test_parse_error_exit_code(capsys):
    code, out, err = _capture(capsys, ["reduce", "--n", "2", "s^2*q"])
    assert code == 1
    assert not out
    assert "unexpected character 'q'" in err


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: this interpreter sets no limit


@pytest.mark.skipif(not INT_DIGITS, reason="the interpreter has no int-string limit")
def test_oversized_number_is_a_parse_error(capsys):
    """A digit run that int() would refuse is a ParseError at its first digit, not int()'s ValueError."""
    code, out, err = _capture(capsys, ["reduce", "--n", "2", "1" * (INT_DIGITS + 1)])
    assert (code, out) == (1, "")
    assert err == f"error: position 0: number of {INT_DIGITS + 1} digits exceeds the limit of {INT_DIGITS} digits\n"


@pytest.mark.skipif(not INT_DIGITS, reason="the interpreter has no int-string limit")
@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "--n", "2", "7" * (INT_DIGITS - 300) + "*t", "7" * (INT_DIGITS - 300) + "*t"],
        ["reduce", "--n", "3", "9" * INT_DIGITS + "*s^2"],
        ["kinematic", "--n", "4", "--phi", "9" * INT_DIGITS + "*s"],
        ["kinematic", "--n", "3", "--phi", "9" * INT_DIGITS + "*t", "--format", "json"],
    ],
    ids=["product", "normal-form", "tensor-plain", "tensor-json"],
)
def test_a_result_past_the_int_string_limit_is_refused(capsys, argv):
    """A result integer that str() would refuse is a UnivalError, printed before any byte of stdout."""
    assert _capture(capsys, argv) == (1, "", f"error: a result integer exceeds the limit of {INT_DIGITS} digits\n")
    assert sys.get_int_max_str_digits() == INT_DIGITS


@pytest.mark.skipif(not INT_DIGITS, reason="the interpreter has no int-string limit")
def test_a_result_at_the_int_string_limit_prints(capsys):
    digits = "1" + "0" * (INT_DIGITS - 1)
    assert _capture(capsys, ["mul", "--n", "2", digits + "*t", "t"]) == (0, digits + "*t^2\n", "")


def test_index_error_exit_code(capsys):
    code, _, err = _capture(capsys, ["matrix", "--n", "2", "--k", "3", "--which", "P"])
    assert code == 1
    assert "0 <= 2k <= n" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = _capture(capsys, ["matrix", "--n", "2"])
    assert code == 1
    code, _, _ = _capture(capsys, ["nonsense"])
    assert code == 1
    code, out, err = _capture(capsys, ["mul", "--n", "2", "s"])
    assert (code, out) == (1, "")
    assert "required" in err


def test_orthogonal_errors_are_unchanged(capsys):
    cases = {
        ("son", "--n", "3", "--k", "-1"): "error: power must satisfy 0 <= k <= 3, got -1\n",
        ("son", "--n", "0", "--k", "0"): "error: real dimension n must be >= 1\n",
        ("kinematic", "--so", "3", "--phi", "s"): "error: the orthogonal model is generated by t alone\n",
        ("kinematic", "--n", "2", "--so", "3"): (
            "error: exactly one of --n (unitary) or --so (orthogonal) is required\n"
        ),
    }
    for argv, err in cases.items():
        assert _capture(capsys, list(argv)) == (1, "", err), argv


def test_orthogonal_ceiling_fires_before_any_build(capsys, monkeypatch):
    """Past ``SO_CEILING`` both commands exit 1 naming it; at the ceiling the build is reached."""

    def forbidden(n):
        raise AssertionError(f"built the orthogonal model for n={n}")

    for module in (cli, algebra, kinematics):
        monkeypatch.setattr(module, "SOAlgebra", forbidden)
    above = str(cli.SO_CEILING + 1)
    err = f"error: real dimension must be <= {cli.SO_CEILING} (the orthogonal ceiling), got {above}\n"
    for argv in (["son", "--n", above, "--k", "0"], ["kinematic", "--so", above, "--phi", "t"]):
        assert _capture(capsys, argv) == (1, "", err), argv
    for argv in (["son", "--n", str(cli.SO_CEILING), "--k", "0"], ["kinematic", "--so", str(cli.SO_CEILING)]):
        with pytest.raises(AssertionError, match="built the orthogonal model"):
            run(argv)


def test_kinematic_mode_flags_are_exclusive(capsys):
    code, _, err = _capture(capsys, ["kinematic", "--n", "2", "--so", "4"])
    assert code == 1
    assert "exactly one" in err
    code, _, _ = _capture(capsys, ["kinematic"])
    assert code == 1


_NON_CSV_COMMANDS = [
    ["basis", "--n", "2", "--degree", "2"],
    ["reduce", "--n", "2", "s"],
    ["mul", "--n", "2", "s", "t"],
    ["matrix", "--n", "2", "--k", "1", "--which", "P"],
    ["kinematic", "--n", "2"],
    ["son", "--n", "2", "--k", "0"],
    ["check", "--n-max", "1"],
]


def test_csv_limited_to_positivity(capsys):
    """Each command takes only its own formats: csv is positivity's alone; positivity and check have no latex."""
    cases = [argv + ["--format", "csv"] for argv in _NON_CSV_COMMANDS]
    cases.append(["positivity", "--n-max", "2", "--format", "latex"])
    cases.append(["check", "--n-max", "2", "--format", "latex"])
    for argv in cases:
        code, out, err = _capture(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert "--format" in err and argv[-1] in err, argv


def test_help_exits_zero(capsys):
    code, out, _ = _capture(capsys, ["--help"])
    assert code == 0
    assert "basis" in out


def _package_env() -> dict[str, str]:
    src = str(Path(unival.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("module", ["unival", "unival.cli"])
def test_module_forms_run_the_cli(module):
    done = subprocess.run(
        [sys.executable, "-m", module, "check", "--n-max", "2"],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert sum(line.startswith("PASS") for line in done.stdout.splitlines()) == 24


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        done = subprocess.run(
            [sys.executable, "-m", "unival", "check", "--n-max", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_package_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")
