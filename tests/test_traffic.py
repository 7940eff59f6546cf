"""Every function in ``src/trilocal`` is entered, and every slot field read,
by the shipped traffic.

``tests/traffic.py`` runs the golden command lines, the demos and a few
more command lines in a fresh interpreter, once, and lists the functions
of ``src/trilocal`` that none of them enters (dunders and single-``raise``
bodies aside) and the ``__slots__`` fields that none of them reads.  Each
one must be in ``ALLOWLIST`` or ``SLOT_ALLOWLIST`` with the reason it
stays; anything else is code or state that only tests reach, and gets
deleted or moved to the test that reaches it.  An allowlisted entry that
the traffic now reaches, or that is gone, is a stale entry and fails too.

Both inventories run on every Python: the function inventory reads
``sys.monitoring`` where there is one (3.12 and newer) and a call-only
tracer below that, and both list the same functions.
"""

import json
import os
import subprocess
import sys

import pytest

from traffic import ROOT, SRC, definitions, entered, read_slots, slot_fields

ALLOWLIST = {
    "families.py:FreeFamily.letter_bim": "the letter homomorphism of the free families (ROADMAP item 20) reads it",
    "linalg.py:Matrix.fmt": "tests/golden/printers.json pins it, and __repr__ prints with it",
    "rings.py:RationalField.size": "the engine reads it, but every nonzero rational is a unit, so it is never called",
    "rings.py:KadicRing.random": "draws the pinned inputs of ring_draws.json, diagonal_forms.json and printers.json",
    "rings.py:PolynomialRing.random": "draws the pinned inputs of ring_draws.json, diagonal_forms.json and printers.json",
    "tring.py:Record._fields": "read by __eq__ and __hash__",
    "tring.py:TOps.name": "error messages name the ring by it",
}

SLOT_ALLOWLIST = {}


@pytest.fixture(scope="module")
def idle():
    """The inventory of one traffic run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "traffic.py")], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def unlisted_and_stale(idle, allowlist):
    return [name for name in idle if name not in allowlist], [name for name in allowlist if name not in idle]


def test_traffic_enters_every_function_but_the_allowlisted(idle):
    unlisted, stale = unlisted_and_stale(idle["functions"], ALLOWLIST)
    assert not unlisted, f"no command or demo enters {', '.join(unlisted)}"
    assert not stale, f"allowlisted, but entered or gone: {', '.join(stale)}"


def test_traffic_reads_every_slot_but_the_allowlisted(idle):
    unlisted, stale = unlisted_and_stale(idle["slots"], SLOT_ALLOWLIST)
    assert not unlisted, f"no command or demo reads {', '.join(unlisted)}"
    assert not stale, f"allowlisted, but read or gone: {', '.join(stale)}"


def test_inventory_keys_match_the_definitions():
    # a function that run() enters is keyed as definitions() keys it, a decorated
    # one by its decorator's line; one it does not enter is left out
    from trilocal.families import RegularFamily
    from trilocal.rings import PolynomialRing

    seen = entered(lambda: (PolynomialRing("Q").one(), RegularFamily("Z").a_one))
    checked = definitions()
    names = lambda keys: {(key[0], checked[key]) for key in keys}
    assert {("rings.py", "PolynomialRing.one"), ("families.py", "BimoduleFamily.a_one")} <= names(seen & checked.keys())
    assert ("rings.py", "PolynomialRing.random") in names(checked.keys() - seen)
    assert ("families.py", "BimoduleFamily.scaled_p_variant") not in names(checked)  # a single raise
    assert ("cli.py", "build_parser.<locals>.common") in names(checked)


def test_slot_watchers_see_reads_only_and_step_aside():
    from trilocal.tring import Budget

    fields = set(slot_fields())
    assert ("tring.py", "Budget", "limit") in fields and ("tring.py", "Budget", "used") in fields

    def run():
        budget = Budget(5)  # writes both fields through the watchers
        del budget.used
        budget.used = 2
        assert type(Budget.limit).__name__ == "member_descriptor"  # a read from the class reads no slot
        assert budget.used == 2  # the one read

    seen = read_slots(run)
    assert ("tring.py", "Budget", "used") in seen and ("tring.py", "Budget", "limit") not in seen
    # every member is back once the run ends, read or not
    assert [type(Budget.__dict__[field]).__name__ for field in Budget.__slots__] == ["member_descriptor"] * 2
