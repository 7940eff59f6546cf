"""Every function in ``src/trilocal`` is entered by the shipped traffic.

``tests/traffic.py`` runs the golden command lines, the demos and a few
more command lines in a fresh interpreter and lists the functions of
``src/trilocal`` that none of them enters (dunders and single-``raise``
bodies aside).  Each one must be in ``ALLOWLIST`` with the reason it
stays; anything else is code that only tests reach, and gets deleted or
moved to the test that reaches it.  An allowlisted function that the
traffic now enters, or that is gone, is a stale entry and fails too.

The inventory needs ``sys.monitoring``, so the test runs on Python 3.12
and newer.
"""

import json
import os
import subprocess
import sys

import pytest

from traffic import ROOT, SRC, definitions, entered

pytestmark = pytest.mark.skipif(sys.version_info < (3, 12), reason="the inventory needs sys.monitoring")

ALLOWLIST = {
    "families.py:FreeFamily.letter_bim": "the letter homomorphism of the free families (ROADMAP item 20) reads it",
    "linalg.py:Matrix.fmt": "tests/golden/printers.json pins it, and __repr__ prints with it",
    "rings.py:RationalField.size": "the engine reads it, but every nonzero rational is a unit, so it is never called",
    "rings.py:KadicRing.random": "draws the pinned inputs of ring_draws.json, diagonal_forms.json and printers.json",
    "rings.py:PolynomialRing.random": "draws the pinned inputs of ring_draws.json, diagonal_forms.json and printers.json",
    "triangular.py:TriElement.zero": "element API beside one",
    "tring.py:TElement.is_zero": "element API beside is_one",
    "tring.py:Record._fields": "read by __eq__ and __hash__",
    "tring.py:TOps.name": "error messages name the ring by it",
}


def test_traffic_enters_every_function_but_the_allowlisted():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "traffic.py")], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert out.returncode == 0, out.stderr
    idle = json.loads(out.stdout)
    unlisted = [name for name in idle if name not in ALLOWLIST]
    assert not unlisted, f"no command or demo enters {', '.join(unlisted)}"
    stale = [name for name in ALLOWLIST if name not in idle]
    assert not stale, f"allowlisted, but entered or gone: {', '.join(stale)}"


def test_inventory_keys_match_the_definitions():
    # a method the callback sees is keyed as definitions() keys it; one it does not see is left out
    from trilocal.rings import PolynomialRing

    seen = entered(lambda: PolynomialRing("Q").one())
    checked = set(definitions())
    assert ("rings.py", "PolynomialRing.one") in seen & checked
    assert ("rings.py", "PolynomialRing.random") in checked - seen
    assert ("families.py", "RegularFamily._no_letters") not in checked  # a single raise
    assert ("cli.py", "build_parser.<locals>.common") in checked
