"""Printed text of elements, and the printed zero of M parsing back.

``tests/golden/printers.json`` holds what every printer returned for
seeded elements of each shipped family (plus a few variants over the
other coefficient ring and larger alphabets): ``format_element``,
``format_oracle``, ``fmt_m``, ``str`` of polynomials and free-algebra
elements, ``Matrix.fmt``, and ``matrix_text`` (recorded under the row
label ``Matrix2.fmt``).  The inputs include zero, coefficients of +-1
and rational coefficients, the empty word and repeated letters.  Regenerate it (only when a change of output is
intended) with ``PYTHONPATH=src python tests/test_printers.py``.

``TestPlainReference`` checks ``format_element`` and ``format_oracle``
against a printer written plainly here, on hand-built words and on
coefficients past Python's digit limit for ``str()``, under the default
limit and under the lowest one Python allows.
"""

import contextlib
import itertools
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from trilocal.exprs import format_element, format_oracle, parse_bim_element, parse_normal
from trilocal.families import (
    DoubleFamily,
    HnnFreeFamily,
    RegularFamily,
    ScaledFamily,
    TensorFreeFamily,
    shipped_families,
)
from trilocal.linalg import Matrix
from trilocal.matrixloc import matrix_text, rho_matrix
from trilocal.rings import (
    QQ,
    ZZ,
    FreeAlgebra,
    FreeAlgebraElement,
    KadicRing,
    Polynomial,
    PolynomialRing,
    scalar_str,
)
from trilocal.triangular import TriElement
from trilocal.tring import TElement, family_iso, rho, t_mul
from test_overlaps import CASES, generators

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
        out += [m, fam.apply(fam.a_ring.from_int(-1), m, fam.b_one)]
        if fam.ring == "Q":
            out.append(fam.apply(fam.a_ring.from_int(Fraction(1, 2)), m, fam.b_one))
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
        Matrix(qx, [[Polynomial("Q", [0, 1]), Polynomial("Q", [Fraction(-1, 2), 0, 1])], [qx.zero(), qx.one()]]),
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


def plain_digits(n):
    """Decimal text of an int, nine digits at a time, whatever the str() limit."""
    if n < 0:
        return "-" + plain_digits(-n)
    chunks = []
    while True:
        n, r = divmod(n, 10**9)
        chunks.append(r)
        if not n:
            break
    return str(chunks[-1]) + "".join(f"{r:09d}" for r in reversed(chunks[:-1]))


def plain_scalar(c):
    if isinstance(c, Fraction):
        return f"{plain_digits(c.numerator)}/{plain_digits(c.denominator)}"
    return plain_digits(c)


def plain_sum(terms, spaced):
    """The sign rule of signed_sum, on (coefficient, body) terms: a bare body
    for a coefficient of 1, a bare sign for -1, and a term joined by its own
    sign to the one before it."""
    plus, minus = (" + ", " - ") if spaced else ("+", "-")
    text = ""
    for c, body in terms:
        mag = -c if c < 0 else c
        piece = plain_scalar(mag) if not body else body if mag == 1 else f"{plain_scalar(mag)}*{body}"
        text += (minus if c < 0 else plus) + piece if text else ("-" if c < 0 else "") + piece
    return text or "0"


def plain_format_element(e):
    """Terms by length, then by the tuple of letter_key; runs of a letter as ^n."""
    fam = e.family
    key = lambda word: (len(word), tuple(map(fam.letter_key, word)))
    terms = []
    for word in sorted(e.terms, key=key):
        runs = [(x, len(list(run))) for x, run in itertools.groupby(word)]
        body = "*".join(f"x[{fam.fmt_m(fam.letter_bim(x))}]" + (f"^{n}" if n > 1 else "") for x, n in runs)
        terms.append((e.terms[word], body))
    return plain_sum(terms, spaced=True)


def plain_format_oracle(value):
    """Words by length, then lexicographically, each letter by its name."""
    words = sorted(value.terms, key=lambda w: (len(w), w))
    return plain_sum([(value.terms[w], "*".join(value.gens[i] for i in w)) for w in words], spaced=False)


@contextlib.contextmanager
def digit_limit(limit):
    """Python's str() digit limit set to limit (None: left as it is)."""
    if limit is None or not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# the four alphabets of the overlap checks, and every family with a finite basis
LETTER_FAMILIES = [fam for fam, _, _ in CASES.values()] + [
    fam for fam in printer_families() + [ScaledFamily(3)] if fam.basis() is not None
]
BIG = 7**6000  # 5,071 digits, past the default limit of 4,300


class TestPlainReference:
    TENSOR = TensorFreeFamily("Q", ("s", "t"), ("u", "v"))
    HNN = HnnFreeFamily("Q", ("s", "t"), "y")

    @classmethod
    def elements(cls):
        """Hand-built term maps in both free families: runs, repeats, constants,
        +-1, negative Fractions and coefficients past 4,300 digits."""
        out = []
        for fam, (a, b, c) in (
            (cls.TENSOR, [((0,), (1,)), ((), (0, 1)), ((1, 0), ())]),
            (cls.HNN, [("a", (1,)), ("m", (0,), ()), ("m", (), (1, 0))]),
        ):
            out += [
                TElement(fam, {(a, a, b, b, b, a): 2, (c, c): -1, (): 5}),
                TElement(fam, {(a, b, a): 1, (b, a, b, c, a): Fraction(-3, 7), (c,): -1, (b,): 1}),
                TElement(fam, {(): -1, (a,): Fraction(-1, 2), (b, c): Fraction(5, 3), (c, b): -4}),
                TElement(fam, {(): BIG, (a, a): -BIG, (b,): Fraction(-BIG, 11**4200), (c, a, c): Fraction(1, BIG)}),
                TElement(fam, {(): Fraction(BIG, 3)}),
            ]
        return out

    @pytest.mark.parametrize("limit", [None, 640], ids=["default-limit", "limit-640"])
    def test_printers_match_the_plain_reference(self, limit):
        families = printer_families()
        cases = self.elements() + [
            e for n, fam in enumerate(families) for e in family_elements(fam, random.Random(2024 + n))
        ]
        with digit_limit(limit):
            for e in cases:
                assert format_element(e) == plain_format_element(e)
                value = family_iso(e)
                if isinstance(value, FreeAlgebraElement):
                    assert format_oracle(e.family, value) == plain_format_oracle(value)

    def test_scalar_text(self):
        for c in (0, 7, -7, BIG, -BIG, Fraction(-3, 7), Fraction(BIG, 11**4200), Fraction(-1, BIG)):
            assert scalar_str(c) == plain_scalar(c)
        assert scalar_str(Fraction(6, 3)) == "2"
        # a bool is an int scalar, and prints as its value
        assert (scalar_str(True), scalar_str(False)) == ("1", "0")

    @pytest.mark.parametrize("fam", LETTER_FAMILIES, ids=lambda f: f.describe())
    def test_letter_text_is_the_letters_bimodule_text(self, fam):
        if fam.basis() is not None:
            letters = {x for m in fam.basis() for _, x in fam.letter_terms(m) if x is not None}
        else:
            bound = next(bound for other, bound, _ in CASES.values() if other is fam)
            letters = {x for g in generators(fam, bound) for word in g.terms for x in word}
        assert letters or fam.kind == "regular"
        for x in letters:
            assert fam.letter_text(x) == fam.fmt_m(fam.letter_bim(x))

if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in printer_outputs())
    GOLDEN_PRINTERS.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
    print(GOLDEN_PRINTERS, file=sys.stderr)
