"""The elements each ring draws, as recorded.

``tests/golden/ring_draws.json`` holds, per case, the values that
``ring.random`` returned for 40 draws from ``random.Random(seed)`` and a
sha256 of the generator state after the last one, over ``ZZ``, ``QQ``,
``KadicRing(2)``, ``KadicRing(6)`` and Q[x], at default and at given
sizes.  It was recorded while every draw still went through
``random.Random.randint``.  It also holds, in the same way, the printed
``random_m`` draws of the two-letter hnn-free and tensor-free families,
so that a change of how M is stored keeps every sampled case.  Regenerate it (only when a change of the
drawn elements is intended) with ``PYTHONPATH=src python tests/test_ring_draws.py``.
"""

import hashlib
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from trilocal.families import HnnFreeFamily, TensorFreeFamily
from trilocal.modloc import Presentation
from trilocal.rings import QQ, ZZ, KadicRing, PolynomialRing

GOLDEN_DRAWS = pathlib.Path(__file__).resolve().parent / "golden" / "ring_draws.json"
DRAWS = 40
QX = PolynomialRing("Q")

# name: (ring, positional arguments after rng, keyword arguments)
CASES = {
    "ZZ": (ZZ, (), {}),
    "ZZ size=4": (ZZ, (4,), {}),
    "ZZ size=2**40": (ZZ, (2 ** 40,), {}),
    "QQ": (QQ, (), {}),
    "QQ size=4": (QQ, (4,), {}),
    "Z[1/2]": (KadicRing(2), (), {}),
    "Z[1/2] size=4": (KadicRing(2), (4,), {}),
    "Z[1/6]": (KadicRing(6), (), {}),
    "Z[1/6] size=1000": (KadicRing(6), (1000,), {}),
    "Q[x]": (QX, (), {}),
    "Q[x] size=9": (QX, (9,), {}),
    "Q[x] degree=0": (QX, (), {"degree": 0}),
    "Q[x] size=3 degree=5": (QX, (3,), {"degree": 5}),
}

# name: family whose random_m is drawn, each draw recorded as its fmt_m text
FAMILY_CASES = {
    "hnn-free s,t": HnnFreeFamily("Q", ("s", "t"), "x"),
    "tensor-free s,t|u,v": TensorFreeFamily("Q", ("s", "t"), ("u", "v")),
}


def drawn_value(ring, x):
    """A drawn entry as a Fraction, or a Q[x] entry as its coefficient tuple."""
    if hasattr(x, "coeffs"):
        return tuple(Fraction(c) for c in x.coeffs)
    return Fraction(ring.fmt(x))


def shown(value):
    """A drawn_value as JSON: a Fraction as its text, a tuple as a list of those."""
    return [str(c) for c in value] if isinstance(value, tuple) else str(value)


def state_digest(rng):
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()


def draws(name, seed=11):
    ring, args, kwargs = CASES[name]
    rng = random.Random(seed)
    values = [shown(drawn_value(ring, ring.random(rng, *args, **kwargs))) for _ in range(DRAWS)]
    return {"values": values, "state": state_digest(rng)}


def m_draws(name, seed=11):
    family = FAMILY_CASES[name]
    rng = random.Random(seed)
    values = [family.fmt_m(family.random_m(rng)) for _ in range(DRAWS)]
    return {"values": values, "state": state_digest(rng)}


@pytest.mark.parametrize("name", list(CASES))
def test_draws_as_recorded(name):
    recorded = json.loads(GOLDEN_DRAWS.read_text(encoding="utf-8"))
    assert draws(name) == recorded[name]


@pytest.mark.parametrize("name", list(FAMILY_CASES))
def test_m_draws_as_recorded(name):
    recorded = json.loads(GOLDEN_DRAWS.read_text(encoding="utf-8"))
    assert m_draws(name) == recorded[name]


def random_vector(presentation, rng, size):
    """A random vector of the presentation: one ring.random draw of the
    given size per generator."""
    return [presentation.ring.random(rng, size) for _ in range(presentation.gens)]


@pytest.mark.parametrize("gens", [0, 1, 7])
@pytest.mark.parametrize("ring", [ZZ, QQ, KadicRing(2), KadicRing(6), QX], ids=lambda r: r.name)
def test_random_vector_draws_as_many_as_random(ring, gens):
    """A vector of n entries leaves the generator where n random calls do."""
    for size in (4, 9):
        by_vector, by_entry = random.Random(3), random.Random(3)
        vector = random_vector(Presentation(ring, gens, []), by_vector, size)
        assert vector == [ring.random(by_entry, size) for _ in range(gens)]
        assert by_vector.getstate() == by_entry.getstate()


if __name__ == "__main__":
    records = ",\n".join(
        [f"{json.dumps(name)}: {json.dumps(draws(name))}" for name in CASES]
        + [f"{json.dumps(name)}: {json.dumps(m_draws(name))}" for name in FAMILY_CASES]
    )
    GOLDEN_DRAWS.write_text(f"{{\n{records}\n}}\n", encoding="utf-8")
    print(GOLDEN_DRAWS, file=sys.stderr)
