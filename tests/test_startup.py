"""Start-up cost of a fresh trilocal process.

Every CLI command is a fresh interpreter, so each module that ``import
trilocal.cli`` loads is paid on every command.  trilocal uses none of the
modules below: ``dataclasses`` alone would bring ``inspect``, ``ast``,
``dis`` and ``tokenize`` with it, and ``typing`` is as heavy.
"""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_cli_import_loads_no_unused_module():
    # -I -S: no site packages and no environment, so only the import itself loads modules
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import trilocal.cli; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "trilocal.cli" in loaded
    assert not loaded & set(UNUSED), f"import trilocal.cli loads {sorted(loaded & set(UNUSED))}"
