"""The hot paths: linear-time sums and oracle images, closed-form oracle
images that multiply nothing, a budget that bounds product work,
per-call memos, the free families' seams by key arithmetic against the
reference p-factorization route, the one way a ring object adds, the
scalar operations' results on int, Fraction and bool operands, membership tests
that compute only the diagonal positions that can fail, the coefficient
Fraction constructions of a Q[x] diagonal form, the entry visits of a Z diagonal form,
and negative controls for the exact round-trip checks of the comparison
maps.

``tests/golden/scalar_ops.json`` holds what ``norm_scalar``,
``scalar_add`` and ``scalar_mul`` returned or raised before their
int/Fraction fast paths were added.  A float is not a scalar, and
``scalar_add`` and ``scalar_mul`` no longer convert one, so their rows
with a float operand are recorded but not compared.  Regenerate it (only
when a change of results is intended) with ``PYTHONPATH=src python
tests/test_hot_path.py``.
"""

import gc
import json
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from reference_impls import reference_factor_p, reference_row_member, reference_span_invariants
from test_families import factor_element
from test_linalg import solve_left
from test_modloc import without_row_0
from test_overlaps import CASES, generators
import trilocal.tring as tring
from trilocal import exprs, modloc, rings
from trilocal.errors import AlphabetMismatchError, BudgetExceededError, SchemaError
from trilocal.families import (
    DoubleFamily,
    HnnFreeFamily,
    RegularFamily,
    ScaledFamily,
    TensorFreeFamily,
    family_from_json,
    shipped_families,
)
from trilocal.linalg import Matrix, diagonal_form
from trilocal.fracloc import CentralPair, rational_value_hom
from trilocal.rings import (
    QQ,
    ZZ,
    FreeAlgebra,
    FreeAlgebraElement,
    KadicRing,
    OperatorRing,
    Polynomial,
    norm_scalar,
    scalar_add,
    scalar_mul,
)
from trilocal.triangular import FPModule, TripleModule, relation_images, triple_from_json
from trilocal.tring import (
    Add,
    Budget,
    Const,
    Gen,
    Mul,
    Neg,
    Pow,
    TElement,
    eval_tree,
    family_iso,
    map_terms,
    t_generator,
    t_mul,
    t_normalize,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_SCALARS = GOLDEN / "scalar_ops.json"
OPERANDS = [3, -2, 0, Fraction(1, 2), Fraction(-3, 4), Fraction(4, 2), True, False, 0.5, 0.1]
HNN_SUM = "(x[h(s)]+x[h(s,t)]+2*x[h(1,s*t)]+x[h(t,1)])"
# The first four products of each free family in perfbench's normal-forms
# workload at seed 1, with the Budget.used of normalizing each.
NORMAL_FORMS_PRODUCTS = [
    ("hnn", "(-2*x[h(s)]+2/3*x[h(1,1)]+2/3*x[h(t,s*s)]+2/3*x[h(1,t*s)])*(1/2*x[h(s*s)]+x[h(1,1)]-x[h(1,t)]+2/3*x[h(s,t)])*(-x[h(t)]-2*x[h(s*t,1)]-2*x[h(1,s*s)]-2*x[h(1,t*s)])*(x[h(t*t)]-3/2*x[h(s,1)]+2/3*x[h(s,t*s)]+1/2*x[h(1,t)])", 1120),
    ("hnn", "(3*x[h(s*s)]-x[h(t,1)]+1/2*x[h(s,t)]+x[h(s,s*s)])*(-2*x[h(s*s)]-3/2*x[h(s,1)]-x[h(s,s)]-x[h(s,t)])*(-3/2*x[h(s*s)]+2*x[h(s*t,1)]-3/2*x[h(t,s*t)]+1/2*x[h(s,s)])*(-3/2*x[h(t)]-2*x[h(1,1)]-x[h(1,t*t)]+3*x[h(1,s)])", 1118),
    ("hnn", "(-x[h(t)]-2*x[h(t*t,1)]-x[h(1,t)]+2*x[h(1,s*t)])*(-x[h(s*t)]+x[h(t,1)]+1/2*x[h(s,t*s)]-x[h(1,s)])*(-3/2*x[h(s)]-2*x[h(1,1)]+x[h(1,s)]+2*x[h(t,t*s)])*(3*x[h(s*s)]+3*x[h(1,1)]+3*x[h(t,t)]+1/2*x[h(1,s)])", 1116),
    ("hnn", "(2/3*x[h(s)]-3/2*x[h(1,1)]+2/3*x[h(t,t)]-3/2*x[h(1,s*s)])*(-2*x[h(s*t)]-3/2*x[h(1,1)]+x[h(1,t)]+2/3*x[h(t,s*t)])*(-3/2*x[h(s*s)]-2*x[h(1,1)]+x[h(1,s)]-2*x[h(s,t)])*(x[h(t*t)]+2/3*x[h(1,1)]+2/3*x[h(t,t*t)]+x[h(1,t*s)])", 1120),
    ("tensor", "(x[t(s*t,1)]+x[t(t*s,u)]+2/3*x[t(s,v*v)]+3*x[t(1,u*v)])*(x[t(t,1)]-3/2*x[t(t*s,v*v)]+3*x[t(s*t,u*u)]-2*x[t(1,u)])*(2*x[t(s,1)]-x[t(t,v)]+3*x[t(s*s,v*u)]+3*x[t(1,v)])*(1/2*x[t(t*t,1)]-3/2*x[t(t*s,v)]-x[t(t*s,u*v)]+x[t(1,u*u)])", 972),
    ("tensor", "(-x[t(s,1)]+2*x[t(t*t,v*v)]+1/2*x[t(s*t,u)]+2*x[t(1,v)])*(1/2*x[t(s*s,1)]+2*x[t(t,u)]-2*x[t(t*t,v)]-2*x[t(1,u)])*(2*x[t(s,1)]-3/2*x[t(s*s,u)]+3*x[t(s,u*u)]-3/2*x[t(1,v)])*(1/2*x[t(t*t,1)]+x[t(s,u*u)]+2*x[t(t*t,v*v)]+2/3*x[t(1,v)])", 980),
    ("tensor", "(-2*x[t(s,1)]+2*x[t(s*s,v)]-3/2*x[t(t*t,v*u)]+2/3*x[t(1,u*v)])*(x[t(t,1)]+3*x[t(t,u)]-x[t(t*t,u*u)]+1/2*x[t(1,u*u)])*(1/2*x[t(s*s,1)]-x[t(t*s,v*v)]-2*x[t(s,u*u)]+3*x[t(1,v*v)])*(-3/2*x[t(s*s,1)]+x[t(s,v*u)]+2*x[t(t*t,u*u)]+2*x[t(1,u*v)])", 976),
    ("tensor", "(-3/2*x[t(s*t,1)]+x[t(s*t,v)]-x[t(t*t,u*v)]+3*x[t(1,u*v)])*(2*x[t(t*s,1)]+3*x[t(t,v*v)]+x[t(t*t,v)]+2*x[t(1,u*v)])*(x[t(s*t,1)]-2*x[t(s,v)]-2*x[t(s*s,v)]+1/2*x[t(1,u)])*(-2*x[t(s*s,1)]+2/3*x[t(t*s,v*u)]-3/2*x[t(t*s,u*u)]-2*x[t(1,v*u)])", 976),
]


def outcome(op, *args):
    try:
        r = op(*args)
    except Exception as exc:  # the recorded outcome includes the exception type
        return ["raises", type(exc).__name__]
    return [type(r).__name__, repr(r)]


def scalar_results():
    """[op, i, j, outcome]: norm_scalar of each of OPERANDS (j is None),
    scalar_add and scalar_mul of every ordered pair."""
    rows = [["norm", i, None, outcome(norm_scalar, a)] for i, a in enumerate(OPERANDS)]
    for name, op in (("add", scalar_add), ("mul", scalar_mul)):
        for i, a in enumerate(OPERANDS):
            for j, b in enumerate(OPERANDS):
                rows.append([name, i, j, outcome(op, a, b)])
    return rows


def hnn_power(n):
    fam = HnnFreeFamily("Q", ("s", "t"), "x")
    return fam, t_normalize(fam, exprs.parse_element(fam, "*".join([HNN_SUM] * n)))


class TestScalarOperands:
    def test_results_as_recorded(self):
        recorded = json.loads(GOLDEN_SCALARS.read_text(encoding="utf-8"))
        floats = {i for i, a in enumerate(OPERANDS) if type(a) is float}
        compared = lambda rows: [row for row in rows if row[0] == "norm" or not floats & {row[1], row[2]}]
        assert len(recorded) - len(compared(recorded)) == 72
        assert compared(scalar_results()) == compared(recorded)

    def test_canonical_types(self):
        assert type(scalar_add(Fraction(1, 2), Fraction(1, 2))) is int
        assert type(scalar_mul(Fraction(2, 3), 3)) is int
        assert type(scalar_mul(3, Fraction(1, 6))) is Fraction


class TestBudgetBoundsProducts:
    @pytest.mark.parametrize("fam, left, right", [
        # letters that neither merge nor shift: the product ticks only per pair
        (HnnFreeFamily("Q", ("s", "t"), "x"), "(x[h(s,1)]+x[h(t,1)]+2*x[h(1,1)])", "(x[h(s,t)]-x[h(1,t)])"),
        (TensorFreeFamily("Q", ("s", "t"), ("u", "v")), "(x[t(s,u)]+x[t(t,v)]+3*x[t(s*t,u)])", "(x[t(s,v)]-x[t(t,u)])"),
        # merges and shifts tick as well
        (HnnFreeFamily("Q", ("s", "t"), "x"), HNN_SUM, "(x[h(s,1)]+x[h(t)]-x[h(1,t)])"),
    ])
    def test_used_at_least_word_pairs(self, fam, left, right):
        e1 = t_normalize(fam, exprs.parse_element(fam, left))
        e2 = t_normalize(fam, exprs.parse_element(fam, right))
        budget = Budget(10 ** 6)
        t_mul(e1, e2, budget)
        assert budget.used >= len(e1.terms) * len(e2.terms) > 1

    def test_limit_below_word_pairs_raises(self):
        fam, e = hnn_power(2)
        with pytest.raises(BudgetExceededError):
            t_mul(e, e, Budget(len(e.terms) ** 2 - 1))

    # Budget.used of each product, pinned: a faster product loop must
    # charge exactly these steps, not merely at least |e1|*|e2|.
    @pytest.mark.parametrize("fam, left, right, used", [
        (HnnFreeFamily("Q", ("s", "t"), "x"), "(x[h(s,1)]+x[h(t,1)]+2*x[h(1,1)])", "(x[h(s,t)]-x[h(1,t)])", 6),
        (TensorFreeFamily("Q", ("s", "t"), ("u", "v")), "(x[t(s,u)]+x[t(t,v)]+3*x[t(s*t,u)])", "(x[t(s,v)]-x[t(t,u)])", 6),
        (HnnFreeFamily("Q", ("s", "t"), "x"), HNN_SUM, "(x[h(s,1)]+x[h(t)]-x[h(1,t)])", 44),
        # coefficients of 95 and 233 bits and words of 60 and 100 letters
        (ScaledFamily(2), "x[3]^60", "x[5]^100", 10),
        (DoubleFamily("Q"), "(x[(2,3)]*x[(0,1)]+x[(1,0)]+2)", "(x[(0,1)]^2-x[(3,1)]+x[(1,1)])", 6),
    ])
    def test_product_charges_as_recorded(self, fam, left, right, used):
        e1 = t_normalize(fam, exprs.parse_element(fam, left))
        e2 = t_normalize(fam, exprs.parse_element(fam, right))
        budget = Budget(10 ** 6)
        t_mul(e1, e2, budget)
        assert budget.used == used

    @pytest.mark.parametrize("kind, text, used", NORMAL_FORMS_PRODUCTS)
    def test_normalize_charges_as_recorded(self, kind, text, used):
        fam = HnnFreeFamily("Q", ("s", "t"), "x") if kind == "hnn" else TensorFreeFamily("Q", ("s", "t"), ("u", "v"))
        budget = Budget(10 ** 6)
        assert len(t_normalize(fam, exprs.parse_element(fam, text), budget).terms) == 256
        assert budget.used == used


class TestLinearCounts:
    """Work counted, not timed, per letter of the normal form mapped or
    re-read: from n = 5 to n = 6 it may grow at most 1.5x, where a map
    that copies its running sum for every term grows about 4x."""

    @staticmethod
    def counts(n, monkeypatch):
        """Free-algebra elements built in family_iso, through the public or
        the trusted constructor, and the terms they hold; _refold calls, and
        the terms they add up, in normalizing the re-parsed printed form;
        each per letter of e.  Also the terms the built elements hold and
        the number of terms of e."""
        fam, e = hnn_power(n)
        calls = {"built": 0, "built terms": 0, "refold": 0, "refold terms": 0}
        init, of, refold = FreeAlgebraElement.__init__, FreeAlgebraElement._of, tring._refold
        last = []

        def count(x):
            calls["built"] += 1
            calls["built terms"] += len(x.terms)
            last[:] = [x]
            return x

        def counting_init(self, ring, gens, terms):
            init(self, ring, gens, terms)
            count(self)

        def counting_of(ring, gens, terms):
            return count(of(ring, gens, terms))

        def counting_refold(family, term_maps):
            term_maps = list(term_maps)
            calls["refold"] += 1
            calls["refold terms"] += sum(map(len, term_maps))
            return refold(family, term_maps)

        monkeypatch.setattr(FreeAlgebraElement, "__init__", counting_init)
        monkeypatch.setattr(FreeAlgebraElement, "_of", staticmethod(counting_of))
        image = family_iso(e)
        monkeypatch.undo()
        assert last == [image]  # the constructor that built the image was counted
        tree = exprs.parse_element(fam, exprs.format_element(e))
        monkeypatch.setattr(tring, "_refold", counting_refold)
        again = t_normalize(fam, tree)
        monkeypatch.undo()
        assert again == e
        assert len(image.terms) == len(e.terms) == 4 ** n
        letters = sum(len(word) + 1 for word in e.terms)  # the coefficient and each letter
        return {key: count / letters for key, count in calls.items()}, calls["built terms"], len(e.terms)

    def test_growth_from_n5_to_n6(self, monkeypatch):
        small, built_terms, terms = self.counts(5, monkeypatch)
        assert built_terms >= terms  # the built elements hold each term of e, so the count measures
        large, _, _ = self.counts(6, monkeypatch)
        for key in small:
            assert large[key] <= 1.5 * small[key], (key, small, large)


class TestClosedFormImageCounts:
    """Products counted, not timed, in the scalar families' oracle images:
    the double image puts the coefficient of each word of r letters at
    degree r, and the scaled image of c*g^r is one power, where a map
    letter by letter builds each x^r as x^(r-1)*x."""

    @staticmethod
    def counter(method):
        """method, wrapped to count its calls in calls[0]; and calls."""
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return method(*args)

        return counting, calls

    @pytest.mark.parametrize("n", [250, 500])
    def test_double_image_multiplies_no_polynomials(self, n, monkeypatch):
        fam = DoubleFamily("Q")
        e = TElement(fam, {(fam.letter,) * k: math.comb(n, k) for k in range(n + 1)})  # (1+x[(0,1)])^n
        if n == 250:
            assert t_normalize(fam, exprs.parse_element(fam, f"(1+x[(0,1)])^{n}")) == e
        counting, calls = self.counter(rings.Polynomial.__mul__)
        monkeypatch.setattr(rings.Polynomial, "__mul__", counting)
        image = family_iso(e)
        monkeypatch.undo()
        assert image.coeffs == tuple(math.comb(n, k) for k in range(n + 1))
        assert calls == [0]

    def test_scaled_image_multiplies_no_scalars(self, monkeypatch):
        fam = ScaledFamily(2)
        e = t_normalize(fam, exprs.parse_element(fam, "(1+x[1])^40"))
        counting, calls = self.counter(rings.KadicRing.mul)
        monkeypatch.setattr(rings.KadicRing, "mul", staticmethod(counting))
        image = family_iso(e)
        monkeypatch.undo()
        assert image == Fraction(3 ** 40, 2 ** 40)
        assert calls == [0]


def oracle_product(fam, e1, e2):
    return fam.oracle.mul(family_iso(e1), family_iso(e2))


class TestPerCallMemo:
    @staticmethod
    def interleave(cases):
        """Products in several families, in turns; each checked against a fresh run."""
        results = []
        for _ in range(3):
            for fam, e1, e2 in cases:
                results.append((fam, e1, e2, t_mul(e1, e2)))
        for fam, e1, e2, got in results:
            alone = family_from_json(fam.to_json())
            fresh = t_mul(TElement(alone, dict(e1.terms)), TElement(alone, dict(e2.terms)))
            assert got == fresh
            assert got.family == fam
            assert family_iso(got) == oracle_product(fam, e1, e2)

    def test_scaled_families_share_a_letter(self):
        cases = []
        for fam in (ScaledFamily(2), ScaledFamily(3)):
            g = t_generator(fam, 1)
            cases.append((fam, g + t_generator(fam, 5), g * g + TElement.from_scalar(fam, 7)))
        self.interleave(cases)

    def test_hnn_alphabets_share_letters(self):
        small, large = HnnFreeFamily("Q", ("s", "t"), "x"), HnnFreeFamily("Q", ("s", "t", "r"), "x")
        letter = ("a", (0,))
        assert letter_image(small)(letter) != letter_image(large)(letter)
        cases = []
        for fam in (small, large):
            e = t_normalize(fam, exprs.parse_element(fam, HNN_SUM))
            f = t_normalize(fam, exprs.parse_element(fam, "x[h(t,s)]+x[h(s)]-x[h(1,1)]"))
            cases.append((fam, e, f))
        self.interleave(cases)

    def test_nothing_grows_across_calls(self):
        fam = HnnFreeFamily("Q", ("s", "t"), "x")
        e = t_normalize(fam, exprs.parse_element(fam, HNN_SUM))

        def sizes():
            gc.collect()
            out = {("tring", k): len(v) for k, v in vars(tring).items() if hasattr(v, "__len__")}
            out.update({("family", k): len(v) for k, v in vars(fam).items() if hasattr(v, "__len__")})
            out["family attrs"] = len(vars(fam))
            out["tring attrs"] = len(vars(tring))
            return out

        def letter(i):  # 1,024 distinct letters h(s^a*t^b) and h(t^a,s^b)
            a, b = divmod(i % 512, 16)
            word = "*".join(["s"] * (a + 1) + ["t"] * b)
            return f"x[h({word})]" if i < 512 else f"x[h({word},s)]"

        products = [t_normalize(fam, exprs.parse_element(fam, f"{letter(i)}+{letter(1023 - i)}")) for i in range(1000)]
        t_mul(e, e)
        before = sizes()
        for f in products:
            t_mul(e, f)
            t_mul(f, e)
        assert sizes() == before


def factored_merge(family, l1, l2, factored):
    """The letter l1|l2 merge into by p-factorization: the one key of a*m2
    when the reference factors l1's element as a*p, else of m1*b when it
    factors l2's as p*b, each through family.apply; None when neither.  The
    merged element must be one key with coefficient 1, and not p's key.
    Each factored element is appended to factored."""
    m1, m2 = family.letter_bim(l1), family.letter_bim(l2)
    factored.append(m1)
    left, _ = reference_factor_p(family, m1)
    if left is not None:
        merged = family.apply(factor_element(family.a_ring, left), m2, family.b_one)
    else:
        factored.append(m2)
        _, right = reference_factor_p(family, m2)
        if right is None:
            return None
        merged = family.apply(family.a_one, m1, factor_element(family.b_ring, right))
    ((key, c),) = merged.items()
    assert c == 1 and key != family.p_key, (l1, l2, merged)
    return key


class TestSeamRoutes:
    @pytest.mark.parametrize("name", list(CASES))
    def test_key_arithmetic_decides_as_factor_p(self, name, monkeypatch):
        """Every ordered letter pair of the overlap alphabets: the free family's
        merge by key arithmetic and the route through the reference
        p-factorization and apply give the same rule, with the same ticks
        and letter."""
        family, bound, _ = CASES[name]
        letters = [word[0] for g in generators(family, bound) for word in g.terms]
        pairs = [(l1, l2) for l1 in letters for l2 in letters]
        by_keys = [tring._seam(family, l1, l2) for l1, l2 in pairs]
        factored = []
        monkeypatch.setattr(type(family), "merge_pair", lambda self, l1, l2: factored_merge(self, l1, l2, factored))
        assert [tring._seam(family, l1, l2) for l1, l2 in pairs] == by_keys
        assert len(factored) >= len(pairs)  # each pair was decided through the reference
        merges = [rule for rule in by_keys if rule and rule[1] is not None]
        assert merges and any(not rule for rule in by_keys)
        assert family.kind == "tensor-free" or any(rule and rule[1] is None for rule in by_keys)  # hnn-free shifts


class NoSumRing(OperatorRing):
    """Q with no combination of its own, so it adds through OperatorRing's pairwise one."""

    def from_int(self, n):
        return Fraction(n)


class TestDuckTypedRings:
    @pytest.mark.parametrize("ring", [NoSumRing(), ZZ, HnnFreeFamily("Q", ("s", "t"), "x").oracle, tring.TOps(ScaledFamily(2))])
    def test_empty_sum_raises(self, ring):
        with pytest.raises(ValueError):
            eval_tree(Add(()), ring, None)

    def test_eval_tree_without_sum(self):
        tree = Add((Const(2), Mul((Gen(0), Gen(1))), Neg(Pow(Gen(1), 3)), Const(5)))
        assert eval_tree(tree, NoSumRing(), lambda i: (3, 4)[i]) == 2 + 12 - 64 + 5

    def test_map_terms_without_sum(self):
        fam, e = hnn_power(3)
        e = e + TElement.from_scalar(fam, 7)
        image = lambda letter: len(letter) + sum(map(len, letter[1:]))  # any number per letter
        expected = 0
        for word, coeff in e.terms.items():
            value = coeff
            for letter in word:
                value *= image(letter)
            expected += value
        assert map_terms(e, NoSumRing(), image) == expected
        assert map_terms(TElement.zero(fam), NoSumRing(), image) == 0

    def test_sum_hook_matches_pairwise_fold(self):
        fam, e = hnn_power(2)
        values = [fam.oracle.from_int(c) for c in (1, 2, Fraction(1, 3))] + [letter_image(fam)(w[0]) for w in e.terms if w]
        folded = values[0]
        for v in values[1:]:
            folded = folded + v
        assert fam.oracle.combination((1, v) for v in values) == folded
        # IntegerRing adds through the pairwise combination
        assert eval_tree(Add((Const(4), Const(-4), Const(3))), ZZ, None) == 3


class WithoutHooks(OperatorRing):
    """A ring object's from_int, zero, one, add and mul, without its own
    combination, so map_terms takes OperatorRing's pairwise route through it."""

    def __init__(self, ring):
        self.from_int, self.zero, self.one, self.add, self.mul = ring.from_int, ring.zero, ring.one, ring.add, ring.mul


def pairwise_fold(e, ring, letter):
    """e's image added one term at a time from zero, each coefficient entering through from_int."""
    total = ring.zero()
    for word, coeff in e.terms.items():
        image = ring.from_int(coeff)
        for x in word:
            image = ring.mul(image, letter(x))
        total = ring.add(total, image)
    return total


def letter_image(fam):
    """A letter's image in fam's oracle, as this file states it: x for
    double, the letter's word for the free families and 1/k for scaled;
    regular has no letters."""
    if isinstance(fam, DoubleFamily):
        return lambda letter: Polynomial(fam.ring, [0, 1])
    if isinstance(fam, (HnnFreeFamily, TensorFreeFamily)):
        return lambda letter: fam.oracle.word(fam.oracle_word(letter))
    return fam.oracle_letter if isinstance(fam, ScaledFamily) else None


HOOK_FAMILIES = shipped_families() + [HnnFreeFamily("Q", ("s", "t"), "x"), TensorFreeFamily("Q", ("s", "t"), ("u", "v"))]


def map_targets():
    """(id, source family, the map as trilocal applies it, target ring object,
    letter image) for every ring object trilocal maps T(M,p) into: each
    oracle, Q through rational_value_hom, and T(M,a0*p) through
    CentralPair.induced."""
    targets = [(fam.describe(), fam, family_iso, fam.oracle, letter_image(fam)) for fam in HOOK_FAMILIES]
    for fam in (RegularFamily("Z"), ScaledFamily(2)):
        hom = rational_value_hom(fam)
        letter = lambda x, fam=fam, hom=hom: hom.generator_image(fam.letter_bim(x))
        targets.append((f"rational {fam.describe()}", fam, hom, QQ, letter))
    for pair in (CentralPair(RegularFamily("Z"), 2, 2), CentralPair(ScaledFamily(2), 3, 3)):
        fam, ops = pair.family, tring.TOps(pair.target)
        letter = lambda x, fam=fam, ops=ops, a0=pair.a0: ops.gen(fam.apply(a0, fam.letter_bim(x), fam.b_one))
        targets.append((f"induced {fam.describe()} a0={pair.a0}", fam, pair.induced, ops, letter))
    return targets


MAP_TARGETS = map_targets()


def hook_cases(fam):
    """The zero element, the one (the empty word alone), the lone constant 7,
    and for each of the coefficients +-1, two large ints and (over Q) two
    Fractions, c times a product of two generators plus a generator plus
    the empty word; then the sum of all of them."""
    rng = random.Random(3)
    x = lambda: t_generator(fam, fam.random_m(rng))
    coeffs = [1, -1, 2 ** 200 + 1, -(3 ** 150)] + ([Fraction(1, 3), Fraction(-7, 2)] if fam.ring == "Q" else [])
    cases = [TElement.zero(fam), TElement.one(fam), TElement.from_scalar(fam, 7)]
    cases += [tring.t_scale(t_mul(x(), x()) + x() + TElement.one(fam), c) for c in coeffs]
    return cases + [tring.TOps(fam).combination((1, e) for e in cases)]


class TestCombinationHook:
    @pytest.mark.parametrize("fam, route, ring, letter", [t[1:] for t in MAP_TARGETS], ids=[t[0] for t in MAP_TARGETS])
    def test_hook_equals_the_pairwise_route(self, fam, route, ring, letter):
        """trilocal's map, OperatorRing's pairwise combination on the same
        operations and a fold one term at a time agree on each case, and
        an empty sum raises in the target."""
        overrides = type(ring).combination is not OperatorRing.combination
        assert overrides == isinstance(ring, (FreeAlgebra, tring.TOps))
        cases = hook_cases(fam)
        assert any(() in e.terms for e in cases)
        assert fam.kind == "regular" or any(len(w) > 1 for e in cases for w in e.terms)  # regular has no letters
        for e in cases:
            assert route(e) == map_terms(e, WithoutHooks(ring), letter) == pairwise_fold(e, ring, letter)
        with pytest.raises(ValueError):
            eval_tree(Add(()), ring, None)

    def test_combination_strips_trailing_zeros_once(self):
        qx = DoubleFamily("Q").oracle
        x = Polynomial("Q", [0, 1])
        got = qx.combination([(1, x * x + qx.one()), (Fraction(1, 2), x), (-1, x * x)])
        assert got.coeffs == (1, Fraction(1, 2))
        assert qx.combination([(3, x), (-3, x)]) == qx.zero()

    def test_value_from_another_alphabet_raises(self):
        fam = HnnFreeFamily("Q", ("s", "t"), "x")
        other = FreeAlgebra("Q", ("s", "t", "y"))
        e = t_generator(fam, {("m", (0,), (1,)): 1}) + TElement.from_scalar(fam, 2)
        with pytest.raises(AlphabetMismatchError):
            map_terms(e, fam.oracle, lambda letter: other.generator(0))
        with pytest.raises(AlphabetMismatchError):
            fam.oracle.combination([(1, fam.oracle.one()), (2, other.one())])

    def test_tops_refuses_a_coefficient_outside_its_ring(self):
        # T(M,p) over Z takes a coefficient only through the family's validate_coeff
        ops = tring.TOps(ScaledFamily(2))
        assert ops.combination([(3, ops.one()), (-1, ops.one())]) == TElement.from_scalar(ops.family, 2)
        with pytest.raises(SchemaError):
            ops.combination([(Fraction(1, 2), ops.one())])


def benchmark_shaped_triple(family, shape, seed=1):
    """A random triple shaped like the module-localization benchmark's:
    (gens of N_A, of N_B, relations of N_A, of N_B), entries in [-5, 5],
    and f composed with each N_B relation added as one more N_A relation
    so that f is well defined."""
    gA, gB, a, b = shape
    rng = random.Random(seed)

    def vec(n):
        return [rng.randint(-5, 5) for _ in range(n)]

    relsA = [vec(gA) for _ in range(a)]
    relsB = [vec(gB) for _ in range(b)]
    f = [[vec(gA) for _ in range(gB)] for _ in family.basis()]
    relsA += relation_images(f, relsB, gA)
    tag = family.ring
    return TripleModule(family, FPModule(tag, gA, relsA), FPModule(tag, gB, relsB), f)


def golden_module():
    data = json.loads((GOLDEN / "module.json").read_text(encoding="utf-8"))
    return triple_from_json(family_from_json(data["family"]), data)


MODULES = {
    "Z": lambda: benchmark_shaped_triple(RegularFamily("Z"), (5, 5, 2, 1)),
    "Z[1/2]": lambda: benchmark_shaped_triple(ScaledFamily(2), (2, 2, 1, 1)),
    "Q[x]": lambda: benchmark_shaped_triple(DoubleFamily("Q"), (2, 2, 0, 0)),
    "golden": golden_module,
}

# the failing checks of the negative controls, (name, detail), as the
# verifier reported them when every membership test computed all of v * V
FORWARD = "forward map is well defined (relations land in relations)"
BACKWARD = "backward map is well defined"
KILLS = "forward map kills the defining cokernel generators"
NEGATIVE_CONTROLS = {
    ("Z", "g_sign"): [(FORWARD, "relation 4 escapes the span"), (BACKWARD, "tensor-side relation 18 escapes the span"), (KILLS, "")],
    ("Z", "drop_relation"): [(BACKWARD, "tensor-side relation 0 escapes the span")],
    ("Z[1/2]", "g_sign"): [(FORWARD, "relation 3 escapes the span"), (BACKWARD, "tensor-side relation 10 escapes the span"), (KILLS, "")],
    ("Z[1/2]", "drop_relation"): [(BACKWARD, "tensor-side relation 0 escapes the span")],
    ("Q[x]", "g_sign"): [(FORWARD, "relation 0 escapes the span"), (BACKWARD, "tensor-side relation 4 escapes the span"), (KILLS, "")],
    ("Q[x]", "drop_relation"): [(BACKWARD, "tensor-side relation 4 escapes the span")],
    ("golden", "g_sign"): [(FORWARD, "relation 0 escapes the span"), (BACKWARD, "tensor-side relation 2 escapes the span"), (KILLS, "")],
    ("golden", "drop_relation"): [(BACKWARD, "tensor-side relation 2 escapes the span")],
}


class TestMembershipDecidingColumns:
    """in_row_span computes only the columns of v * V whose diagonal entry
    is zero, missing or not a unit, and answers as solving would, and over
    Z and Z[1/k] as the reference does, which reads no diagonal form."""

    def test_multiplications_bounded_by_deciding_columns(self, monkeypatch):
        module = MODULES["Z"]()
        W = modloc.tensor_side_presentation(module)
        L = modloc.localized_presentation(module)
        alpha, _ = modloc.comparison_maps(module)
        form = W.form()
        assert W.gens == 20 and len(form.checks) == 2
        ring, mul = W.ring, W.ring.mul
        calls = []

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        # members of W, so every deciding column is computed: the images of
        # L's relations, and one dense combination of W's relations, for
        # which all of v * V takes 66 products
        rng = random.Random(5)
        dense = [0] * W.gens
        for row in W.rows:
            c = rng.randint(-3, 3)
            dense = [x + c * y for x, y in zip(dense, row)]
        for v in [modloc.apply_index(alpha, row, ring.zero()) for row in L.rows] + [dense]:
            calls.clear()
            monkeypatch.setattr(ring, "mul", counting)
            assert W.contains(v)
            monkeypatch.undo()
            assert len(calls) <= len(form.checks) * W.gens

    @pytest.mark.parametrize("name", list(MODULES))
    def test_agrees_with_solve_left_on_every_tested_vector(self, name, monkeypatch):
        member = modloc.in_row_span
        tested, invariants = [], {}

        def checked(form, v):
            answer = member(form, v)
            assert answer == (solve_left(form, v) is not None)
            k = 1 if form.ring is ZZ else form.ring.k if isinstance(form.ring, KadicRing) else None
            if k is not None:  # Q[x] has no reference
                if form not in invariants:  # M is reduced once per form
                    invariants[form] = reference_span_invariants(form.source.rows, k)
                assert answer == reference_row_member(form.source.rows, v, k, invariants[form])
            tested.append(answer)
            return answer

        monkeypatch.setattr(modloc, "in_row_span", checked)
        module = MODULES[name]()
        assert modloc.localize_module(module).report.passed
        for control in ("g_sign", "drop_relation"):
            if control == "g_sign":
                rep = modloc.verify_comparison_maps(module, presentation=modloc.localized_presentation(module, g_sign=-1))
            else:
                rep = modloc.verify_comparison_maps(module, presentation=without_row_0(module))
            failed = [(c.name, c.detail) for c in rep.checks if not c.passed]
            assert failed == NEGATIVE_CONTROLS[(name, control)]
        assert True in tested and False in tested


class TestPolynomialKernelCounts:
    """Fraction constructions during one Q[x] diagonal form, its
    self-verification included, on the matrices of L (4x4) and of the
    tensor side (16x8) of a module-localization-shaped double-Q triple.
    A polynomial is int numerators over one common denominator, so its
    arithmetic builds no Fraction; when it stored Fraction coefficients
    the counts were 330 and 362.  Python 3.12 builds arithmetic results
    through Fraction._from_coprime_ints, which bypasses __new__, so both
    are counted."""

    def test_fraction_constructions_as_pinned(self, monkeypatch):
        module = MODULES["Q[x]"]()
        calls = []
        new, coprime = Fraction.__new__, getattr(Fraction, "_from_coprime_ints", None)
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: calls.append(1) or new(cls, *args, **kw))
        if coprime is not None:
            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(lambda cls, n, d: calls.append(1) or coprime(n, d)))
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6) and len(calls) >= 3  # the counter sees both routes
        counts = {}
        for presentation in (modloc.localized_presentation(module), modloc.tensor_side_presentation(module)):
            calls.clear()
            diagonal_form(Matrix(presentation.ring, presentation.rows))
            counts[len(presentation.rows), presentation.gens] = len(calls)
        assert counts == {(4, 4): 0, (16, 8): 0}


class TestSparseKernelVisits:
    """is_zero calls of one diagonal form, its self-verification included,
    on the 33x20 tensor-side matrix of the Z module.  Re-pinned on purpose
    at 3,104, was 8,618: the certificate no longer reads dense transforms
    back as nonzero pairs (it multiplies the stored sparse rows and
    columns, and D is its diagonal), and each elimination sweep lists the
    pivot row's and pivot column's nonzeros once instead of testing every
    entry in every row and column operation.  When every row operation
    walked full rows of U and V^-1 and full columns of U^-1 and V, and
    verify multiplied dense matrices, the count was 17,499."""

    def test_is_zero_calls_as_pinned(self, monkeypatch):
        W = modloc.tensor_side_presentation(MODULES["Z"]())
        ring, is_zero, calls = W.ring, W.ring.is_zero, []
        monkeypatch.setattr(ring, "is_zero", lambda x: calls.append(1) or is_zero(x))
        diagonal_form(Matrix(ring, W.rows))
        assert (len(W.rows), W.gens, len(calls)) == (33, 20, 3104)


BACK_OF_FORTH = "backward of forward is the identity"
FORTH_OF_BACK = "forward of backward is the identity modulo relations"


def corrupted_maps(kind):
    """A comparison_maps whose index lists are wrong in one way.

    On a module with as many N_A as N_B generators:
    "M3": alpha reorders its blocks, sending N_A into u2 (x) N_B and N_B
    into u1 (x) N_A; "swapped": beta reads those two blocks crosswise;
    "dropped": beta drops the u2 (x) N_B block, so N_B reads zero;
    "duplicated": beta reads the u1 (x) N_A block into N_B as well.
    """
    maps = modloc.comparison_maps

    def corrupted(module):
        alpha, beta = maps(module)
        g = module.NA.gens
        assert module.NB.gens == g
        if kind == "M3":
            return alpha[-g:] + alpha[g:-g] + alpha[:g], beta
        return alpha, {"swapped": beta[g:] + beta[:g], "dropped": beta[:g] + [None] * g, "duplicated": beta[:g] * 2}[kind]

    return corrupted


# the checks each control fails; M3 failed the same four when the round
# trips were checked on 100 random elements each
ROUND_TRIP_CONTROLS = {
    "M3": [FORWARD, BACK_OF_FORTH, FORTH_OF_BACK, KILLS],
    "swapped": [BACKWARD, BACK_OF_FORTH, FORTH_OF_BACK],
    "dropped": [BACKWARD, BACK_OF_FORTH, FORTH_OF_BACK],
    "duplicated": [BACKWARD, BACK_OF_FORTH, FORTH_OF_BACK],
}


class TestRoundTripControls:
    """A comparison map given by a wrong index list fails the exact round
    trip by name, at the first generator it moves."""

    @pytest.mark.parametrize("kind", list(ROUND_TRIP_CONTROLS))
    @pytest.mark.parametrize("name", list(MODULES))
    def test_fails_the_round_trip(self, name, kind, monkeypatch):
        module = MODULES[name]()
        monkeypatch.setattr(modloc, "comparison_maps", corrupted_maps(kind))
        failed = {c.name: c.detail for c in modloc.verify_comparison_maps(module).checks if not c.passed}
        assert list(failed) == ROUND_TRIP_CONTROLS[kind]
        # the block swaps move generator 0; a dropped or duplicated N_B
        # block moves the first N_B generator
        moved = 0 if kind in ("M3", "swapped") else module.NA.gens
        assert failed[BACK_OF_FORTH] == f"generator {moved}"

    # alpha's reordered blocks (M3) and beta's crosswise read each name the
    # first relation and the first generator they move
    NAMED_CASES = {
        "alpha": ("M3", ["relation 0 escapes the span", "generator 0", "generator 0", ""]),
        "beta": ("swapped", ["tensor-side relation 0 escapes the span", "generator 0", "generator 0"]),
    }

    @pytest.mark.parametrize("kind", list(NAMED_CASES))
    def test_backward_of_forward_names_its_case(self, kind, monkeypatch):
        control, details = self.NAMED_CASES[kind]
        monkeypatch.setattr(modloc, "comparison_maps", corrupted_maps(control))
        failed = [c for c in modloc.verify_comparison_maps(MODULES["Z"]()).checks if not c.passed]
        assert [c.detail for c in failed] == details

    def test_true_maps_compose_to_the_identity(self):
        module = MODULES["Z"]()
        alpha, beta = modloc.comparison_maps(module)
        assert modloc.apply_index(beta, alpha, None) == list(range(10))
        assert len(alpha) == 20 and alpha.count(None) == 10


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in scalar_results())
    GOLDEN_SCALARS.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
    print(GOLDEN_SCALARS, file=sys.stderr)
