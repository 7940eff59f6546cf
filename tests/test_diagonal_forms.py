"""Diagonal forms exactly as recorded: U, D, V and their inverses, each
read back as a dense matrix by ``stored_forms.dense_parts``.

``tests/golden/diagonal_forms.json`` holds the ``fmt()`` of the five
matrices of ``diagonal_form`` for seeded matrices over Z, Q, Z[1/2],
Z[1/6] and Q[x] (zero rows, zero columns, rank-deficient and non-square
ones among them) and for the relation matrices of L and of the tensor
side of module triples shaped like the module-localization benchmark's.
The pivot the engine picks fixes every transform, so any change of
pivot rule or of the order of row and column operations shows here.
Regenerate it (only when a change of results is intended) with
``PYTHONPATH=src python tests/test_diagonal_forms.py``.
"""

import json
import pathlib
import random
import sys

import pytest

from stored_forms import PARTS, dense_parts
from test_hot_path import benchmark_shaped_triple
from trilocal import modloc
from trilocal.families import DoubleFamily, RegularFamily, ScaledFamily
from trilocal.linalg import Matrix, diagonal_form
from trilocal.rings import QQ, ZZ, KadicRing, PolynomialRing

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "diagonal_forms.json"

# ring name -> (ring, entry size for ring.random, largest dimension)
RINGS = {
    "Z": (ZZ, 9, 5),
    "Q": (QQ, 9, 4),
    "Z[1/2]": (KadicRing(2), 9, 4),
    "Z[1/6]": (KadicRing(6), 9, 4),
    "Q[x]": (PolynomialRing("Q"), 4, 3),
}

# family, benchmark shape (gens of N_A, of N_B, relations of N_A, of N_B)
TRIPLES = {
    "Z": (RegularFamily("Z"), (5, 5, 2, 1)),
    "Z[1/2]": (ScaledFamily(2), (2, 2, 1, 1)),
    "Q[x]": (DoubleFamily("Q"), (2, 2, 0, 0)),
}


def seeded_matrices(name):
    """(kind, rows) for one ring: square, wide, tall, a zero row, a zero
    column, and a row that is the sum of two others."""
    ring, size, n = RINGS[name]
    rng = random.Random(f"diagonal-forms {name}")

    def draw(m, k):
        return [[ring.random(rng, size) for _ in range(k)] for _ in range(m)]

    zero_row = draw(n, n)
    zero_row[1] = [ring.zero()] * n
    zero_col = draw(n, n)
    for row in zero_col:
        row[0] = ring.zero()
    deficient = draw(n - 1, n)
    deficient.append([ring.add(x, y) for x, y in zip(deficient[0], deficient[-1])])
    return [
        ("square", draw(n, n)),
        ("wide", draw(n - 1, n + 1)),
        ("tall", draw(n + 1, n - 1)),
        ("zero-row", zero_row),
        ("zero-column", zero_col),
        ("rank-deficient", deficient),
        ("single", draw(1, 1)),
    ]


def cases():
    """{case name: matrix} over every ring, in a fixed order."""
    out = {}
    for name, (ring, _, _) in RINGS.items():
        for kind, rows in seeded_matrices(name):
            out[f"{name} {kind}"] = Matrix(ring, rows)
    for name, (family, shape) in TRIPLES.items():
        for seed in (1, 2, 3):
            module = benchmark_shaped_triple(family, shape, seed)
            for side, pres in (("L", modloc.localized_presentation(module)), ("W", modloc.tensor_side_presentation(module))):
                out[f"{name} triple {seed} {side}"] = Matrix(pres.ring, pres.rows)
    return out


def record(mat):
    parts = dense_parts(diagonal_form(mat))
    return {part: parts[part].fmt() for part in PARTS}


CASES = cases()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_as_recorded(recorded):
    assert list(recorded) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_form_as_recorded(name, recorded):
    assert record(CASES[name]) == recorded[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: record(mat) for name, mat in CASES.items()}, indent=1) + "\n", encoding="utf-8")
    print(GOLDEN, file=sys.stderr)
