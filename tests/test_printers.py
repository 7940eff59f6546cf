"""Printed text of elements, and the printed zero of M parsing back.

``tests/golden/printers.json`` holds what every printer returned for
seeded elements of each shipped family (plus a few variants over the
other coefficient ring and larger alphabets): ``format_element``,
``format_oracle``, ``fmt_m``, ``str`` of polynomials and free-algebra
elements, ``Matrix.fmt``, and ``matrix_text`` (recorded under the row
label ``Matrix2.fmt``).  The inputs include zero, coefficients of +-1
and rational coefficients, the empty word and repeated letters.  Regenerate it (only when a change of output is
intended) with ``PYTHONPATH=src python tests/test_printers.py``.
"""

import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from trilocal.exprs import format_element, format_oracle, parse_bim_element, parse_normal
from trilocal.families import DoubleFamily, HnnFreeFamily, RegularFamily, TensorFreeFamily, shipped_families
from trilocal.linalg import Matrix
from trilocal.matrixloc import matrix_text, rho_matrix
from trilocal.rings import QQ, ZZ, FreeAlgebra, FreeAlgebraElement, KadicRing, Polynomial, PolynomialRing
from trilocal.triangular import TriElement
from trilocal.tring import family_iso, rho, t_mul

GOLDEN_PRINTERS = pathlib.Path(__file__).resolve().parent / "golden" / "printers.json"

EXPRESSIONS = {
    "regular": ["0", "1", "-1", "x[3]*x[5]-2", "-x[7]+x[-4]^2"],
    "double": [
        "0",
        "1",
        "-1",
        "x[(1,2)]",
        "x[(0,1)]^3-1/2*x[(0,1)]+1",
        "-x[(0,1)]*x[(0,-1)]+x[(2/3,1)]-x[(0,1)]",
    ],
    "scaled": ["0", "1", "-1", "x[3]^2-x[4]", "x[1]*x[3]+x[6]", "-x[5]^3"],
    "tensor-free": [
        "0",
        "1",
        "-1",
        "x[t(s,u)]^2-1/2*x[t(1,u*u)]+x[t(s*s,1)]",
        "-x[t(1,1)]+x[t(s,1)]*x[t(1,u)]-3*x[t(s,u)]",
    ],
    "hnn-free": [
        "0",
        "1",
        "-1",
        "x[h(s)]*x[h(s,1)]-x[h(1,s)]^2+2/3",
        "-x[h(s*s)]+x[h(1,1)]*x[h(s,s)]-1/2*x[h(1)]",
    ],
}


def printer_families():
    """The shipped families, then variants over the other coefficient ring
    or with two-letter alphabets."""
    return shipped_families() + [
        RegularFamily("Q"),
        DoubleFamily("Z"),
        TensorFreeFamily("Z", ("s", "t"), ("u",)),
        HnnFreeFamily("Q", ("s", "t"), "y"),
    ]


def family_elements(fam, rng):
    """Normal forms from fixed texts (when they parse over fam) and from
    random bimodule, A and B elements."""
    out = []
    for text in EXPRESSIONS[fam.kind]:
        if fam.ring == "Z" and "/" in text:
            continue
        out.append(parse_normal(fam, text))
    for _ in range(3):
        m = rho(fam, "M", fam.random_m(rng))
        a = rho(fam, "A", fam.a_ring.random(rng))
        b = rho(fam, "B", fam.b_ring.random(rng))
        out += [m, t_mul(t_mul(a, m), b), t_mul(m, m)]
    return out


def family_bimodule_elements(fam, rng):
    out = [fam.zero_m(), fam.p]
    for _ in range(4):
        m = fam.random_m(rng)
        out += [m, fam.scale_m(-1, m)]
        if fam.ring == "Q":
            out.append(fam.scale_m(Fraction(1, 2), m))
    return out


POLYNOMIALS = [
    ("Z", []),
    ("Z", [0]),
    ("Z", [1]),
    ("Z", [-1]),
    ("Z", [0, 1]),
    ("Z", [0, -1]),
    ("Z", [3, 0, 0, -2]),
    ("Z", [-1, 1, 1, -1]),
    ("Q", [Fraction(1, 2), 0, -3]),
    ("Q", [0, Fraction(-1, 3), 1]),
    ("Q", [-2, 1, Fraction(-1, 3), Fraction(5, 7)]),
]

FREE_ALGEBRA_TERMS = [
    ("Z", {}),
    ("Z", {(): 1}),
    ("Z", {(): -1}),
    ("Z", {(0,): 1, (1,): -1}),
    ("Z", {(0, 0): 2, (): -3, (1, 0, 0): -1}),
    ("Q", {(): Fraction(1, 2)}),
    ("Q", {(0, 1): Fraction(-2, 3), (1, 1, 1): 1, (0,): -1}),
]


def matrices():
    k2 = KadicRing(2)
    qx = PolynomialRing("Q")
    return [
        Matrix(ZZ, [[0, 1], [-1, 12]]),
        Matrix(QQ, [[Fraction(1, 2), 0], [-3, 1]]),
        Matrix(k2, [[Fraction(3, 2), k2.zero()], [k2.one(), Fraction(-5, 4)]]),
        Matrix(qx, [[qx.variable(), Polynomial("Q", [Fraction(-1, 2), 0, 1])], [qx.zero(), qx.one()]]),
    ]


def printer_outputs():
    """[printer, family or ring, input index, output] for every input."""
    rows = []
    for n, fam in enumerate(printer_families()):
        rng = random.Random(2024 + n)
        tag = fam.describe()
        for i, e in enumerate(family_elements(fam, rng)):
            rows.append(["format_element", tag, i, format_element(e)])
            rows.append(["format_oracle", tag, i, format_oracle(fam, family_iso(e))])
        for i, m in enumerate(family_bimodule_elements(fam, rng)):
            rows.append(["fmt_m", tag, i, fam.fmt_m(m)])
        for i, r in enumerate([TriElement.one(fam), TriElement(fam, fam.a_ring.zero(), fam.p, fam.b_ring.zero())]):
            rows.append(["Matrix2.fmt", tag, i, matrix_text(rho_matrix(r))])
    for i, (ring, coeffs) in enumerate(POLYNOMIALS):
        rows.append(["Polynomial", ring, i, str(Polynomial(ring, coeffs))])
    rng = random.Random(2023)
    for i in range(4):
        rows.append(["Polynomial", "Q", len(POLYNOMIALS) + i, str(PolynomialRing("Q").random(rng))])
    gens = ("s", "t")
    for i, (ring, terms) in enumerate(FREE_ALGEBRA_TERMS):
        rows.append(["FreeAlgebraElement", ring, i, str(FreeAlgebraElement(ring, gens, terms))])
    for i in range(4):
        rows.append(["FreeAlgebraElement", "Z", len(FREE_ALGEBRA_TERMS) + i, str(FreeAlgebra("Z", gens).random(rng))])
    for i, matrix in enumerate(matrices()):
        rows.append(["Matrix.fmt", matrix.ring.name, i, matrix.fmt()])
    return rows


def test_printers_as_recorded():
    recorded = json.loads(GOLDEN_PRINTERS.read_text(encoding="utf-8"))
    assert printer_outputs() == recorded


@pytest.mark.parametrize("fam", printer_families(), ids=lambda f: f.describe())
def test_printed_bimodule_element_parses_back(fam):
    rng = random.Random(77)
    for m in [fam.zero_m()] + [fam.random_m(rng) for _ in range(30)]:
        assert parse_bim_element(fam, fam.fmt_m(m)) == m


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in printer_outputs())
    GOLDEN_PRINTERS.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
    print(GOLDEN_PRINTERS, file=sys.stderr)
