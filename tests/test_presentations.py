"""Relation rows of the module-localization presentations, as recorded.

``tests/golden/presentations.json`` holds, for seeded random triples
over regular-Z, scaled-2 and double-Q (some with a zero-generator side),
the formatted rows, in order, of ``localized_presentation`` with both
signs and of ``tensor_side_presentation``, the invariants of L and of
N_A, and the rows of the triple's relation images (f composed with each
N_B relation).  Regenerate it (only when a change of output is intended)
with ``PYTHONPATH=src python tests/test_presentations.py``.
"""

import json
import pathlib
import random
import sys

from trilocal.modloc import localized_presentation, tensor_side_presentation
from trilocal.triangular import relation_images
from trilocal.verify import module_families, random_triple

GOLDEN_PRESENTATIONS = pathlib.Path(__file__).resolve().parent / "golden" / "presentations.json"
TRIPLES_PER_FAMILY = 8


def rows_fmt(pres):
    return [[pres.ring.fmt(x) for x in row] for row in pres.rows]


def invariants_fmt(pres):
    factors, rank = pres.invariants()
    return [[pres.ring.fmt(d) for d in factors], rank]


def presentation_outputs():
    """One record per seeded triple: its shape and every recorded view."""
    out = []
    for n, family in enumerate(module_families()):
        rng = random.Random(31 + n)
        for i in range(TRIPLES_PER_FAMILY):
            triple = random_triple(family, rng, max_gens=3, size=6)
            L = localized_presentation(triple)
            out.append({
                "family": family.describe(),
                "index": i,
                "gens": [triple.NA.gens, triple.NB.gens],
                "L": rows_fmt(L),
                "L_flipped": rows_fmt(localized_presentation(triple, g_sign=-1)),
                "tensor_side": rows_fmt(tensor_side_presentation(triple)),
                "L_invariants": invariants_fmt(L),
                "NA_invariants": invariants_fmt(triple.NA),
                "relation_images": [
                    [str(c) for c in vec] for vec in relation_images(triple.f, triple.NB.rows, triple.NA.gens)
                ],
            })
    return out


def test_presentations_as_recorded():
    recorded = json.loads(GOLDEN_PRESENTATIONS.read_text(encoding="utf-8"))
    assert presentation_outputs() == recorded


def test_recording_covers_zero_generator_sides():
    recorded = json.loads(GOLDEN_PRESENTATIONS.read_text(encoding="utf-8"))
    for family in module_families():
        mine = [r for r in recorded if r["family"] == family.describe()]
        assert any(0 in r["gens"] for r in mine), family.describe()
        assert any(r["relation_images"] and min(r["gens"]) > 0 for r in mine), family.describe()


if __name__ == "__main__":
    records = ",\n".join(json.dumps(record) for record in presentation_outputs())
    GOLDEN_PRESENTATIONS.write_text(f"[\n{records}\n]\n", encoding="utf-8")
    print(GOLDEN_PRESENTATIONS, file=sys.stderr)
