"""The product charge against its reference, outside the engine.

``reference_impls.reference_product`` states the product of two normal
forms and its step charge from the ``tring`` module's rule alone.  Here
``t_mul``'s normal form, its printed text and its ``Budget.used`` must
equal the reference's on derandomized products in all five shipped
families and the two-letter free alphabets: random expressions drawn
like ``verify.random_expression``, powers of one letter of up to 200
letters (where the per-64-letters charge counts), and coefficients past
128 bits (where the per-limb charge counts).

Three negative controls are test doubles of the reference, each with one
fault a product loop could have.  Each must disagree with the engine,
and the check names the first product it disagrees on.
"""

import functools
import math
import random
from fractions import Fraction

from reference_impls import ProductReference, reference_product
from trilocal.exprs import format_element
from trilocal.families import HnnFreeFamily, TensorFreeFamily, shipped_families
from trilocal.tring import Budget, TElement, t_generator, t_mul, t_normalize, t_scale
from trilocal.verify import random_expression

SEED = 22
DRAWS = 24  # random pairs per family
WIDE = (3 ** 90, -(5 ** 60), Fraction(7 ** 50, 2 ** 70))  # 143, 140 and 211 bits


def families():
    """(label, family, a letter's melem or None, a melem whose letter merges or None)."""
    regular, double, tensor, hnn, scaled = shipped_families()
    return [
        ("regular-Z", regular, None, None),
        ("double-Q", double, (0, 1), None),
        ("tensor-free s|u", tensor, {((0,), (0,)): 1}, {((0,), ()): 1}),
        ("hnn-free s", hnn, {("m", (0,), (0,)): 1}, {("a", (0,)): 1}),
        ("scaled-2", scaled, 1, None),
        ("hnn-free s,t", HnnFreeFamily("Q", ("s", "t"), "x"), {("m", (0,), (1,)): 1}, {("a", (1,)): 1}),
        ("tensor-free s,t|u,v", TensorFreeFamily("Q", ("s", "t"), ("u", "v")), {((1,), (0,)): 1}, {((), (1,)): 1}),
    ]


@functools.lru_cache(maxsize=None)
def cases():
    """(name, family, e1, e2) for each product, in a fixed order; the name is
    the family's label and the product's place among the family's."""
    rng = random.Random(SEED)
    out = []
    for label, family, letter, merging in families():
        pairs = [tuple(t_normalize(family, random_expression(family, rng, 2)) for _ in range(2)) for _ in range(DRAWS)]
        for i, c in enumerate(WIDE):
            if family.ring == "Q" or type(c) is int:
                e1, e2 = pairs[i]
                pairs.append((t_scale(e1, c), t_scale(e2, c * c)))
        if letter is not None:
            x = t_generator(family, letter)
            for a, b in ((31, 33), (63, 1), (64, 64), (100, 100), (200, 3)):
                pairs.append((x ** a, x ** b + t_scale(x, 3)))
            if merging is not None:
                y = t_generator(family, merging)
                pairs.append((x ** 40 * y, y * x ** 30 + y))
                pairs.append((x ** 70 * y, t_scale(y * x ** 70, WIDE[0])))
        out += [(f"{label} #{i}", family, e1, e2) for i, (e1, e2) in enumerate(pairs)]
    return out


def first_disagreement(reference):
    """The first product whose normal form, printed form or charge differs
    between t_mul and reference(family, t1, t2), named and printed as
    "name: (e1) * (e2)"; None when there is none."""
    for name, family, e1, e2 in cases():
        terms, used = reference(family, e1.terms, e2.terms)
        budget = Budget(math.inf)
        e = t_mul(e1, e2, budget)
        if (e.terms, format_element(e), budget.used) != (terms, format_element(TElement(family, terms)), used):
            return f"{name}: ({format_element(e1)}) * ({format_element(e2)})"
    return None


def computed_by(cls):
    """reference_product, computed by the test double cls."""
    def product(family, t1, t2):
        ref = cls(family)
        return ref.product(t1, t2), ref.used
    return product


def test_cases_reach_every_rule():
    """The drawn products have words past 64 letters, coefficients past 128
    bits, merges and shifts."""
    longest = max(len(w) for _, _, e1, e2 in cases() for w in (*e1.terms, *e2.terms))
    widest = max(Fraction(c).numerator.bit_length() for _, _, e1, _ in cases() for c in e1.terms.values())
    assert longest >= 200 and widest > 128
    rules = {"merge": 0, "shift": 0}

    class Counting(ProductReference):
        def merge(self, prefix, letter, suffix):
            rules["merge"] += 1
            return super().merge(prefix, letter, suffix)

        def shifted(self, l1, l2):
            shifted = super().shifted(l1, l2)
            rules["shift"] += shifted is not None
            return shifted

    assert first_disagreement(computed_by(Counting)) is None
    assert rules["merge"] > 100 and rules["shift"] > 100


def test_engine_matches_reference():
    assert first_disagreement(reference_product) is None


class LettersPer32(ProductReference):
    """Charges letters per 32, not per 64."""

    @staticmethod
    def pair(b1, n1, b2, n2):
        return (1 + b1 // 64) * (1 + b2 // 64) + (n1 + n2) // 32


class MergeWithoutOwnTick(ProductReference):
    """A merge ticks once, for its letter, and not for the rule itself."""

    def merge(self, prefix, letter, suffix):
        self.used -= 1
        return super().merge(prefix, letter, suffix)


class MergeWithoutSuffixCharge(ProductReference):
    """A merge charges the prefix and its letter, but not the result and the suffix."""

    def merge(self, prefix, letter, suffix):
        self.used += 2 + self.pair(1, len(prefix), 1, 1)
        return self.words(self.words(prefix, (letter,)), suffix)


def test_letters_per_32_fails_by_name():
    assert first_disagreement(computed_by(LettersPer32)) == "double-Q #27: (x[(0,1)]^31) * (3*x[(0,1)] + x[(0,1)]^33)"


def test_merge_without_own_tick_fails_by_name():
    assert first_disagreement(computed_by(MergeWithoutOwnTick)).startswith("tensor-free s|u #1: (x[t(s*s,1)] + ")


def test_merge_without_suffix_charge_fails_by_name():
    assert first_disagreement(computed_by(MergeWithoutSuffixCharge)).startswith("tensor-free s|u #1: (x[t(s*s,1)] + ")
