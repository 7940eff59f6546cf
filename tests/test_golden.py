"""Golden stdout of the README command-line examples, the free families
through the command line, and the verify suites.

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
HNN = '{"kind":"hnn-free","ring":"Q","A_gens":["s","t"]}'
TENSOR = '{"kind":"tensor-free","ring":"Q","A_gens":["s","t"],"B_gens":["u","v"]}'

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

# hnn-free's product both merges (h(s) with h(t,1)) and shifts (h(s,t) before h(t,1))
FREE_FAMILY_EXAMPLES = {
    "normalize-hnn-free": ["normalize", "--family", HNN, "--expr", "(x[h(s)]+x[h(s,t)])*(2*x[h(t,1)]-x[h(1,s)])"],
    "normalize-tensor-free": [
        "normalize", "--family", TENSOR, "--expr", "(x[t(s,u)]-2*x[t(1,v)])*(x[t(t,1)]+1/2*x[t(s,u*v)])",
    ],
    "rho-m-hnn-free": ["rho", "--family", HNN, "--component", "M", "--value", "2*h(s)-3*h(s,t)+h(1)-1/2*h(t,1)"],
    "rho-m-tensor-free": [
        "rho", "--family", TENSOR, "--component", "M", "--value", "3*t(s,u)-t(1,1)+1/2*t(s*t,v)-t(1,u)",
    ],
    "localize-ring-hnn-free": ["localize-ring", "--family", HNN],
}

CASES = {
    f"{name}.{fmt}": argv + ["--format", fmt]
    for name, argv in {**README_EXAMPLES, **FREE_FAMILY_EXAMPLES}.items()
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
