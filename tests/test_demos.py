"""The narrative demo scripts and the README quick start stay runnable."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


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
