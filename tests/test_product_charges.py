"""Products pinned by their charge and their printed output.

``tests/golden/product_charges.json`` holds, for each product, the
``Budget.used`` of forming it, its printed normal form and the printed
oracle image of that form.  The products are the thirteen whose charges
``test_hot_path.TestBudgetBoundsProducts`` pins, and 64 products at each
of seeds 1 and 37 drawn the way the normal-forms benchmark draws its
inputs: alternately in hnn-free and tensor-free on two-letter alphabets,
each a product of four sums of distinct letters of fixed kinds.  For the
drawn products the two texts are kept as a digest, the one the benchmark
keeps: a 16-byte blake2b of the normal form, a newline and the oracle
text.

A faster product must charge the same steps and print the same text.
Regenerate the file (only when a change of charges or output is
intended) with ``PYTHONPATH=src python tests/test_product_charges.py``.
"""

import hashlib
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from test_hot_path import HNN_SUM, NORMAL_FORMS_PRODUCTS
from trilocal.exprs import format_element, format_oracle, parse_element
from trilocal.families import DoubleFamily, HnnFreeFamily, ScaledFamily, TensorFreeFamily
from trilocal.tring import DEFAULT_BUDGET, Budget, family_iso, t_mul, t_normalize

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "product_charges.json"
AB, UV = ("s", "t"), ("u", "v")
FAMILIES = {"hnn": lambda: HnnFreeFamily("Q", AB, "x"), "tensor": lambda: TensorFreeFamily("Q", AB, UV)}

# The two-factor products of TestBudgetBoundsProducts, as (family, left, right).
PAIRS = [
    (FAMILIES["hnn"], "(x[h(s,1)]+x[h(t,1)]+2*x[h(1,1)])", "(x[h(s,t)]-x[h(1,t)])"),
    (FAMILIES["tensor"], "(x[t(s,u)]+x[t(t,v)]+3*x[t(s*t,u)])", "(x[t(s,v)]-x[t(t,u)])"),
    (FAMILIES["hnn"], HNN_SUM, "(x[h(s,1)]+x[h(t)]-x[h(1,t)])"),
    (lambda: ScaledFamily(2), "x[3]^60", "x[5]^100"),
    (lambda: DoubleFamily("Q"), "(x[(2,3)]*x[(0,1)]+x[(1,0)]+2)", "(x[(0,1)]^2-x[(3,1)]+x[(1,1)])"),
]

# The benchmark's inputs: per sum, one letter of each kind, each sum's
# letters distinct, each coefficient drawn from COEFFS.
SEEDS = (1, 37)
PRODUCTS_PER_SEED = 64
KINDS = {"hnn": ("a", "m0", "mv", "mv"), "tensor": ("A", "mix", "mix", "B")}
COEFFS = (1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))


def _word(rng, letters, lo, hi):
    return tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _letter(rng, kind):
    """A letter as (A-word, B-word) for tensor-free, ("a", w) or ("m", u, v) for hnn-free."""
    if kind == "a":
        return ("a", _word(rng, AB, 1, 2))
    if kind == "m0":
        return ("m", _word(rng, AB, 0, 2), ())
    if kind == "mv":
        return ("m", _word(rng, AB, 0, 1), _word(rng, AB, 1, 2))
    if kind == "mix":
        return (_word(rng, AB, 1, 2), _word(rng, UV, 1, 2))
    if kind == "A":
        return (_word(rng, AB, 1, 2), ())
    return ((), _word(rng, UV, 1, 2))


def _letter_text(family, letter):
    text = lambda w: "*".join(w) if w else "1"
    if family == "tensor":
        return f"t({text(letter[0])},{text(letter[1])})"
    return f"h({','.join(map(text, letter[1:]))})"


def _sum_text(rng, family):
    seen, out = set(), ""
    for kind in KINDS[family]:
        letter = _letter(rng, kind)
        while letter in seen:
            letter = _letter(rng, kind)
        seen.add(letter)
        coeff = rng.choice(COEFFS)
        body = f"x[{_letter_text(family, letter)}]"
        piece = body if abs(coeff) == 1 else f"{abs(coeff)}*{body}"
        out += "-" + piece if coeff < 0 else ("+" if out else "") + piece
    return f"({out})"


def drawn_products(seed):
    """(family, text) of the seed's products, in the benchmark's order."""
    rng = random.Random(seed)
    out = []
    for i in range(PRODUCTS_PER_SEED):
        family = "hnn" if i % 2 == 0 else "tensor"
        out.append((family, "*".join(_sum_text(rng, family) for _ in range(4))))
    return out


def _printed(e):
    return format_element(e), format_oracle(e.family, family_iso(e))


def _row(product, used, e):
    normal, oracle = _printed(e)
    return {"product": product, "used": used, "normal": normal, "oracle": oracle}


def _normalized(family, text):
    budget = Budget(DEFAULT_BUDGET)
    e = t_normalize(family, parse_element(family, text), budget)
    return e, budget.used


def pinned_rows():
    """{"product", "used", "normal", "oracle"} for each product of TestBudgetBoundsProducts."""
    rows = []
    for make, left, right in PAIRS:
        family = make()
        e1, _ = _normalized(family, left)
        e2, _ = _normalized(family, right)
        budget = Budget(DEFAULT_BUDGET)
        e = t_mul(e1, e2, budget)
        rows.append(_row(f"{family.describe()}: {left}*{right}", budget.used, e))
    for family, text, _ in NORMAL_FORMS_PRODUCTS:
        e, used = _normalized(FAMILIES[family](), text)
        rows.append(_row(f"{family}: {text}", used, e))
    return rows


def drawn_rows(seed):
    """[family, used, digest] for each product the seed draws."""
    families = {name: make() for name, make in FAMILIES.items()}
    rows = []
    for family, text in drawn_products(seed):
        e, used = _normalized(families[family], text)
        normal, oracle = _printed(e)
        rows.append([family, used, hashlib.blake2b(f"{normal}\n{oracle}".encode(), digest_size=16).hexdigest()])
    return rows


def recorded():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_pinned_products_as_recorded():
    assert pinned_rows() == recorded()["pinned"]


@pytest.mark.parametrize("seed", SEEDS)
def test_drawn_products_as_recorded(seed):
    assert drawn_rows(seed) == recorded()["drawn"][str(seed)]


def test_drawn_products_are_the_benchmark_shape():
    families = {name: make() for name, make in FAMILIES.items()}
    for family, text in drawn_products(SEEDS[0])[:4]:
        assert len(_normalized(families[family], text)[0].terms) > 200


if __name__ == "__main__":
    doc = {"pinned": pinned_rows(), "drawn": {str(seed): drawn_rows(seed) for seed in SEEDS}}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(GOLDEN, file=sys.stderr)
