"""The narrative demo scripts print their recorded output, and the README
quick start stays runnable.

Each demo's stdout must match ``tests/golden/demos/<stem>.out`` byte for
byte; it is the same under any PYTHONHASHSEED and int_max_str_digits.
Regenerate the recordings (only when an output change is intended) with
``PYTHONPATH=src python tests/test_demos.py``.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


def run_demo(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, str(script)], capture_output=True, env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    assert run_demo(script) == (GOLDEN / f"{script.stem}.out").read_bytes()


def test_demo_directory_is_populated():
    assert len(DEMOS) == 5


@pytest.mark.parametrize(
    "index, values",
    [(0, ["'15*x[1]^2'", "'15/4'"]), (1, ["(1, [], True)"])],
    ids=["normal-forms", "module-localization"],
)
def test_readme_block_shows_its_values(index, values):
    """Each python block of the README runs, and every expression line
    evaluates to the value its comment shows."""
    namespace = {}
    shown = []
    for line in README_BLOCKS[index].splitlines():
        code, _, comment = line.partition("#")
        body = ast.parse(code).body
        if comment and body and isinstance(body[0], ast.Expr):
            assert repr(eval(code, namespace)) == comment.strip(), code
            shown.append(comment.strip())
        else:
            exec(code, namespace)
    assert shown == values


def test_readme_blocks_are_all_run():
    assert len(README_BLOCKS) == 2


if __name__ == "__main__":
    for script in DEMOS:
        (GOLDEN / f"{script.stem}.out").write_bytes(run_demo(script))
        print(script.name, file=sys.stderr)
