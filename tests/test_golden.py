"""Golden stdout of the README command-line examples and the verify suites.

Each case runs in-process through ``cli.main`` and must reproduce the
stdout and exit code recorded in ``tests/golden/`` byte for byte.
Regenerate the recordings (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SCALED = '{"kind":"scaled","k":2}'
REGULAR = '{"kind":"regular","ring":"Z"}'

README_EXAMPLES = {
    "normalize": ["normalize", "--family", SCALED, "--expr", "x[3]*x[5]"],
    "rho": ["rho", "--family", SCALED, "--component", "A", "--value", "3"],
    "verify-examples": ["verify", "--suite", "examples"],
    "verify-random-7": ["verify", "--suite", "random", "--seed", "7"],
    "fraction": ["fraction", "--family", REGULAR, "--a0", "2", "--b0", "2", "--expr", "5*x[1]^3"],
    "factor": ["factor", "--family", REGULAR, "--a0", "2", "--b0", "2", "--expr", "5*x[1]^3"],
    "localize-ring": ["localize-ring", "--family", '{"kind":"double","ring":"Q"}'],
    "localize-module": ["localize-module", "--spec", str(GOLDEN / "module.json")],
}

CASES = {
    f"{name}.{fmt}": argv + ["--format", fmt]
    for name, argv in README_EXAMPLES.items()
    for fmt in ("text", "json")
}
CASES["verify-random-4242.text"] = ["verify", "--suite", "random", "--seed", "4242"]


def run_main(argv):
    from trilocal.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, stdout = run_main(CASES[name])
    recorded = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    expected_code, expected_stdout = recorded.split("\n", 1)
    assert code == int(expected_code.removeprefix("exit: "))
    assert stdout == expected_stdout


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        code, stdout = run_main(argv)
        (GOLDEN / f"{name}.out").write_text(f"exit: {code}\n{stdout}", encoding="utf-8")
        print(name, code, file=sys.stderr)
