"""Change of p: centrality, the induced map, fractions, factorization."""

import random
from fractions import Fraction

import pytest

from trilocal.errors import UnsupportedFamilyError
from trilocal.families import DoubleFamily, RegularFamily, ScaledFamily, TensorFreeFamily
from trilocal.fracloc import (
    CentralPair,
    LetterHom,
    check_central,
    factor_inverting_hom,
    rational_value_hom,
    two_order_agreement,
)
from trilocal.report import DEFAULT_SEED
from trilocal.rings import OperatorRing
from trilocal.tring import (
    Add,
    Const,
    Gen,
    Mul,
    Neg,
    TElement,
    TOps,
    eval_tree,
    family_iso,
    map_terms,
    t_generator,
    t_mul,
    t_scale,
)
from trilocal.verify import random_telement


class TestCentralPair:
    def test_regular_pair(self):
        pair = CentralPair(RegularFamily("Z"), 2, 2)
        assert pair.certification == "basis"
        assert check_central(pair).passed

    def test_scaled_pair(self):
        pair = CentralPair(ScaledFamily(2), 3, 3)
        assert check_central(pair).passed

    @pytest.mark.parametrize("family", [RegularFamily("Z"), ScaledFamily(2), DoubleFamily("Q")], ids=lambda f: f.kind)
    def test_basis_family_draws_nothing(self, family, monkeypatch):
        # the basis decides centrality, so no random element of M is drawn
        def no_draw(*args):
            raise AssertionError("a family with a basis drew a random element of M")

        monkeypatch.setattr(type(family), "random_m", no_draw)
        pair = CentralPair(family, 2, 2)
        assert pair.certification == "basis"
        rep = check_central(pair)
        assert rep.passed and rep.seed is None and "samples" not in rep.meta

    def test_violating_pair_rejected(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        s = fam.a_ring.generator(0)
        u = fam.b_ring.generator(0)
        with pytest.raises(ValueError):
            CentralPair(fam, s, u)

    def test_scalar_pair_on_free_family_is_sampled_only(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        two_a = fam.a_ring.from_int(2)
        two_b = fam.b_ring.from_int(2)
        pair = CentralPair(fam, two_a, two_b)
        assert pair.certification == "samples-only"
        assert check_central(pair).passed


class NotCentral(CentralPair):
    """A pair whose x_(a0*p) is x_(s (x) 1), which does not commute with x_(1 (x) u)."""

    def x_a0p(self):
        return t_generator(self.family, {((0,), ()): 1})


class WrongInverse(CentralPair):
    """A pair whose x_p, in the target, is twice its true value."""

    def old_p_in_target(self):
        return t_scale(super().old_p_in_target(), 2)


CENTRALITY_CHECKS = [
    "x_(a0*p) commutes with every probe generator",
    "image of x_(a0*p) times x_p is 1",
    "x_p times image of x_(a0*p) is 1",
]


class TestCheckCentralControls:
    """Each check of check_central fails, by name, on a pair built to break it."""

    @pytest.mark.parametrize("check", CENTRALITY_CHECKS, ids=["commutes", "image-times-inverse", "inverse-times-image"])
    def test_broken_pair_fails_the_check(self, check):
        if check == CENTRALITY_CHECKS[0]:
            fam = TensorFreeFamily("Q", ("s",), ("u",))
            pair = NotCentral(fam, fam.a_ring.from_int(2), fam.b_ring.from_int(2))
        else:
            pair = WrongInverse(RegularFamily("Z"), 2, 2)
        results = {c.name: c.passed for c in check_central(pair).checks}
        assert results.get(check) is False, results

    def test_true_pairs_pass_every_check(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        pair = CentralPair(fam, fam.a_ring.from_int(2), fam.b_ring.from_int(2))
        assert [c.passed for c in check_central(pair).checks] == [True]
        results = {c.name: c.passed for c in check_central(CentralPair(RegularFamily("Z"), 2, 2)).checks}
        assert results == dict.fromkeys(CENTRALITY_CHECKS, True)


class TestInducedMap:
    def test_regular_to_dyadic_inclusion(self):
        fam = RegularFamily("Z")
        pair = CentralPair(fam, 2, 2)
        target = pair.target_family()
        assert target == ScaledFamily(2)
        # x_m goes to x_(2m), whose value is 2m/2 = m
        for m in range(-9, 10):
            image = pair.induced(t_generator(fam, m))
            assert family_iso(image) == m

    def test_unital(self):
        pair = CentralPair(ScaledFamily(2), 3, 3)
        assert pair.induced(TElement.one(pair.family)).is_one()

    def test_inverse_identity_exact(self):
        for pair in (CentralPair(RegularFamily("Z"), 2, 2), CentralPair(ScaledFamily(2), 3, 3)):
            image = pair.induced(pair.x_a0p())
            inv = pair.old_p_in_target()
            one = TElement.one(pair.target_family())
            assert t_mul(image, inv) == one
            assert t_mul(inv, image) == one

    def test_ring_morphism_random(self):
        pair = CentralPair(ScaledFamily(2), 3, 3)
        rng = random.Random(3)
        for _ in range(150):
            e1 = random_telement(pair.family, rng)
            e2 = random_telement(pair.family, rng)
            assert pair.induced(t_mul(e1, e2)) == t_mul(pair.induced(e1), pair.induced(e2))
            assert pair.induced(e1 + e2) == pair.induced(e1) + pair.induced(e2)

    def test_unsupported_families(self):
        with pytest.raises(UnsupportedFamilyError):
            CentralPair(DoubleFamily("Q"), 2, 2).target_family()

    def test_trivial_pair_is_identity(self):
        pair = CentralPair(RegularFamily("Z"), 1, 1)
        assert pair.target_family() == RegularFamily("Z")
        e = t_generator(pair.family, 7)
        assert pair.induced(e) == e
        form = pair.fraction_form(e)
        assert form.exponent == 0 and form.numerator == e


class TestFractionForm:
    def setup_method(self):
        self.pair = CentralPair(RegularFamily("Z"), 2, 2)
        self.target = self.pair.target_family()

    def element(self, num, r):
        if r == 0:
            return TElement.from_scalar(self.target, num)
        return TElement(self.target, {(self.target._G,) * r: num})

    def test_five_eighths(self):
        form = self.pair.fraction_form(self.element(5, 3))
        assert family_iso(form.numerator) == 5 and form.exponent == 3

    def test_one(self):
        form = self.pair.fraction_form(TElement.one(self.target))
        assert form.numerator.is_one() and form.exponent == 0

    def test_integer_needs_no_denominator(self):
        form = self.pair.fraction_form(self.element(6, 0))
        assert family_iso(form.numerator) == 6 and form.exponent == 0

    def test_round_trip_random(self):
        rng = random.Random(4)
        for _ in range(200):
            e = random_telement(self.target, rng)
            form = self.pair.fraction_form(e)
            rebuilt = t_mul(
                self.pair.induced(form.numerator), self.pair.old_p_in_target() ** form.exponent
            )
            assert rebuilt == e

    def test_minimality_against_rational_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            e = random_telement(self.target, rng)
            form = self.pair.fraction_form(e)
            value = Fraction(family_iso(e))
            r = 0
            while (value * Fraction(2) ** r).denominator != 1:
                r += 1
            assert form.exponent == r

    def test_scaled_source_membership(self):
        pair = CentralPair(ScaledFamily(2), 3, 3)
        target = pair.target_family()
        assert target == ScaledFamily(6)
        e = t_generator(target, 5)  # value 5/6
        form = pair.fraction_form(e)
        # 5/6 * 3 = 5/2 lies in Z[1/2]: minimal exponent 1
        assert form.exponent == 1
        assert family_iso(form.numerator) == Fraction(5, 2)


class TestFactorization:
    def setup_method(self):
        self.fam = RegularFamily("Z")
        self.pair = CentralPair(self.fam, 2, 2)
        self.hom = rational_value_hom(self.fam)
        self.f_inv = Fraction(1, 2)

    def test_hom_respects_relations(self):
        assert self.hom.respects_relations(samples=100, seed=DEFAULT_SEED)

    def test_letterwise_value(self):
        target = self.pair.target_family()
        e = t_generator(target, 3)  # value 3/2 in the target
        assert factor_inverting_hom(self.pair, self.hom, self.f_inv, e) == Fraction(3, 2)

    def test_one_maps_to_one(self):
        target = self.pair.target_family()
        assert factor_inverting_hom(self.pair, self.hom, self.f_inv, TElement.one(target)) == 1

    def test_factorization_identity_random(self):
        rng = random.Random(6)
        for _ in range(200):
            e = random_telement(self.fam, rng)
            lhs = factor_inverting_hom(self.pair, self.hom, self.f_inv, self.pair.induced(e))
            assert lhs == self.hom.apply(e)

    def test_wrong_inverse_rejected(self):
        target = self.pair.target_family()
        with pytest.raises(ValueError):
            factor_inverting_hom(self.pair, self.hom, Fraction(1, 3), TElement.one(target))

    def test_two_evaluation_orders_random(self):
        rng = random.Random(7)
        target = self.pair.target_family()
        for _ in range(100):
            expr = Mul(tuple(Gen(rng.randint(-6, 6)) for _ in range(rng.randint(1, 3))))
            ok, lhs, rhs = two_order_agreement(self.pair, self.hom, self.f_inv, expr)
            assert ok and lhs == rhs

    def test_factor_through_target_itself(self):
        # with hom = the induced map itself, the factored map fixes letters
        pair = self.pair
        target = pair.target_family()

        class TargetRing(OperatorRing):
            name = "T(M,a0*p)"

            def zero(self):
                return TElement.zero(target)

            def one(self):
                return TElement.one(target)

            def from_int(self, c):
                return TElement.from_scalar(target, c)

            def add(self, a, b):
                return a + b

            def mul(self, a, b):
                return t_mul(a, b)

            def eq(self, a, b):
                return a == b

        hom = LetterHom(
            pair.family,
            TargetRing(),
            lambda m: pair.induced(t_generator(pair.family, m)),
        )
        f_inv = pair.old_p_in_target()
        e = t_generator(target, 3)
        out = factor_inverting_hom(pair, hom, f_inv, e)
        assert out == e


class MarkingRing(OperatorRing):
    """Q whose from_int records, in order, every scalar that enters it."""

    def __init__(self):
        self.entered = []

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        self.entered.append(n)
        return Fraction(n)


class TestScalarsEnterThroughTheTarget:
    """A ring map out of T(M,p) is its generator images: every coefficient
    enters through the target ring's combination, and every constant
    through its from_int.  OperatorRing's pairwise combination takes a
    coefficient other than 1 through from_int."""

    def elements(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        rng = random.Random(8)
        return fam, [random_telement(fam, rng, size=5) for _ in range(30)]

    def test_map_terms_and_letter_hom(self):
        fam, elements = self.elements()
        for e in elements:
            expected = sum(c * 2 ** len(w) for w, c in e.terms.items())
            ring = MarkingRing()
            assert map_terms(e, ring, lambda letter: Fraction(2)) == expected
            assert ring.entered == [c for c in e.terms.values() if c != 1]
            hom = LetterHom(fam, MarkingRing(), lambda m: Fraction(2))
            assert hom.apply(e) == expected
            assert hom.s_ring.entered == [c for c in e.terms.values() if c != 1]

    def test_eval_tree(self):
        ring = MarkingRing()
        tree = Add((Const(3), Mul((Const(-2), Gen(0))), Neg(Const(5))))
        assert eval_tree(tree, ring, lambda i: Fraction(7)) == 3 - 14 - 5
        assert ring.entered == [3, -2, 5]

    def test_induced_map(self, monkeypatch):
        pair = CentralPair(ScaledFamily(2), 3, 3)
        target = pair.target_family()
        rng = random.Random(9)
        elements = [random_telement(pair.family, rng, size=5) for _ in range(30)]
        images = [pair.induced(e) for e in elements]
        # each coefficient of e, in term order, with the image of its word
        expected = [[(c, pair.induced(TElement(pair.family, {w: 1}))) for w, c in e.terms.items()] for e in elements]
        entered = []
        combination = TOps.combination

        def recording(ops, pairs):
            pairs = list(pairs)
            entered.append((ops.family, pairs))
            return combination(ops, pairs)

        monkeypatch.setattr(TOps, "combination", recording)
        for e, image, pairs in zip(elements, images, expected):
            entered.clear()
            assert pair.induced(e) == image
            assert entered == [(target, pairs)]
