"""Golden stdout of the README command-line examples, the free families
through the command line, and the verify suites.

The cases are ``CASES`` of ``tests/traffic.py``.  Each runs in-process
through ``cli.main`` and must reproduce the stdout and exit code
recorded in ``tests/golden/`` byte for byte.
Regenerate the recordings (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import sys

import pytest

from traffic import CASES, GOLDEN, run_main


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
