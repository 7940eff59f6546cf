"""Normal forms in T(M,p): generator collapse, relations, oracle maps."""

import random
from fractions import Fraction

import pytest

from trilocal.errors import BudgetExceededError, FamilyMismatchError
from trilocal.exprs import parse_normal
from trilocal.families import DoubleFamily, HnnFreeFamily, RegularFamily, ScaledFamily, TensorFreeFamily
from trilocal.rings import QQ, ZZ, FreeAlgebra, OperatorRing, Polynomial
from trilocal.tring import (
    Add,
    DEFAULT_BUDGET,
    UNBOUNDED,
    Budget,
    ChargedRing,
    Const,
    Gen,
    Mul,
    Pow,
    TElement,
    TOps,
    eval_tree,
    family_iso,
    power,
    relation_failure,
    rho,
    t_add,
    t_generator,
    t_mul,
    t_normalize,
    t_scale,
)
from trilocal.verify import random_telement, shipped_families


class TestGeneratorCollapse:
    def test_p_maps_to_one(self):
        for fam in shipped_families():
            assert t_generator(fam, fam.p).is_one()

    def test_scaled_irreducible_letter(self):
        fam = ScaledFamily(2)
        e = t_generator(fam, 3)
        assert family_iso(e) == Fraction(3, 2)

    def test_regular_collapses_to_scalar(self):
        fam = RegularFamily("Z")
        e = t_generator(fam, 5)
        assert e == TElement.from_scalar(fam, 5)

    def test_scaled_multiple_of_p_collapses(self):
        fam = ScaledFamily(2)
        assert t_generator(fam, 4) == TElement.from_scalar(fam, 2)


class TestArithmetic:
    def test_regular_product_of_letters(self):
        fam = RegularFamily("Z")
        prod = t_mul(t_generator(fam, 2), t_generator(fam, 3))
        assert family_iso(prod) == 6

    def test_double_product_against_polynomial_oracle(self):
        fam = DoubleFamily("Q")
        prod = t_mul(t_generator(fam, (2, 3)), t_generator(fam, (0, 1)))
        assert family_iso(prod) == Polynomial("Q", [0, 2, 3])

    def test_unit(self):
        for fam in shipped_families():
            e = random_telement(fam, random.Random(5))
            assert t_mul(e, TElement.one(fam)) == e

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatchError):
            t_mul(TElement.one(ScaledFamily(2)), TElement.one(ScaledFamily(3)))


class TestNormalization:
    def test_rule_a_merges(self):
        # x_(a*p) x_m = x_(a*m) for every family
        rng = random.Random(7)
        for fam in shipped_families():
            for _ in range(50):
                a = fam.a_ring.random(rng)
                m = fam.random_m(rng)
                lhs = t_mul(t_generator(fam, fam.apply(a, fam.p, fam.b_one)), t_generator(fam, m))
                rhs = t_generator(fam, fam.apply(a, m, fam.b_one))
                assert lhs == rhs

    def test_rule_b_merges(self):
        rng = random.Random(8)
        for fam in shipped_families():
            for _ in range(50):
                b = fam.b_ring.random(rng)
                m = fam.random_m(rng)
                lhs = t_mul(t_generator(fam, m), t_generator(fam, fam.apply(fam.a_one, fam.p, b)))
                rhs = t_generator(fam, fam.apply(fam.a_one, m, b))
                assert lhs == rhs

    def test_scaled_power_collapse(self):
        fam = ScaledFamily(2)
        # 4 = 2*p, so the letter at 4 is the scalar 2
        e = t_normalize(fam, Gen(4))
        assert e == TElement.from_scalar(fam, 2)

    def test_idempotent(self):
        rng = random.Random(9)
        for fam in shipped_families():
            for _ in range(100):
                e = random_telement(fam, rng)
                again = t_normalize(fam, e)
                assert e == again

    def test_expression_tree(self):
        fam = ScaledFamily(2)
        tree = Add((Mul((Gen(3), Gen(5))), Const(1)))
        e = t_normalize(fam, tree)
        assert family_iso(e) == Fraction(19, 4)  # 15/4 + 1

    def test_budget_exhaustion_raises(self):
        fam = ScaledFamily(2)
        tree = Mul(tuple(Gen(3) for _ in range(10)))
        with pytest.raises(BudgetExceededError):
            t_normalize(fam, tree, Budget(2))

    def test_pow_node(self):
        fam = DoubleFamily("Q")
        e = t_normalize(fam, Pow(Gen((0, 1)), 3))
        assert family_iso(e) == Polynomial("Q", [0, 0, 0, 1])

    def test_negative_exponent_raises(self):
        # -1 >> 1 == -1, so a square-and-multiply loop on n < 0 never ends
        with pytest.raises(ValueError, match="non-negative"):
            eval_tree(Pow(Const(1), -1), ZZ, None)
        with pytest.raises(ValueError, match="non-negative"):
            t_normalize(ScaledFamily(2), Pow(Gen(3), -2))


class TestPower:
    def test_no_product_with_one(self):
        calls = []

        class Counting(OperatorRing):
            def one(self):
                raise AssertionError("power formed one() for n > 0")

            def mul(self, a, b):
                calls.append((a, b))
                return a * b

        for n, products in [(1, 0), (2, 1), (3, 2), (6, 3), (8, 3), (13, 5)]:
            calls.clear()
            assert power(Counting(), 3, n) == 3 ** n
            assert len(calls) == products

    def test_products_in_square_and_multiply_order(self):
        # each product is written out as text: the squares come first, then
        # each set bit's square multiplies on the left, from the top bit down
        class Bracketing(OperatorRing):
            def mul(self, a, b):
                return f"({a}{b})"

        def recursive(x, n):
            if n < 2:
                return x
            half = recursive(f"({x}{x})", n >> 1)
            return f"({x}{half})" if n & 1 else half

        for n in range(1, 70):
            assert power(Bracketing(), "x", n) == recursive("x", n)

    def test_exponents_past_the_recursion_limit(self):
        # a 1,329-bit exponent and a chain of 2,000 powers need no stack
        assert power(ZZ, 1, 10 ** 400) == 1
        chain = Gen(3)
        for _ in range(2000):
            chain = Pow(chain, 1)
        assert t_normalize(ScaledFamily(2), chain) == t_generator(ScaledFamily(2), 3)
        assert eval_tree(Pow(Pow(Const(2), 3), 2), ZZ, None) == 64


class TestRho:
    def test_rho_m_at_p_is_one(self):
        for fam in shipped_families():
            assert rho(fam, "M", fam.p).is_one()

    def test_scaled_rho_a_is_inclusion(self):
        fam = ScaledFamily(2)
        assert family_iso(rho(fam, "A", 3)) == 3

    def test_tensor_rho_m_is_product_of_images(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        rng = random.Random(10)
        for _ in range(100):
            a = fam.a_ring.random(rng)
            b = fam.b_ring.random(rng)
            lhs = rho(fam, "M", fam.apply(a, fam.p, b))
            rhs = t_mul(rho(fam, "A", a), rho(fam, "B", b))
            assert lhs == rhs

    def test_rho_morphism_laws(self):
        rng = random.Random(11)
        for fam in shipped_families():
            for _ in range(100):
                a1, a2 = fam.a_ring.random(rng), fam.a_ring.random(rng)
                lhs = rho(fam, "A", fam.a_ring.mul(a1, a2))
                rhs = t_mul(rho(fam, "A", a1), rho(fam, "A", a2))
                assert lhs == rhs
                b1, b2 = fam.b_ring.random(rng), fam.b_ring.random(rng)
                lhs = rho(fam, "B", fam.b_ring.mul(b1, b2))
                rhs = t_mul(rho(fam, "B", b1), rho(fam, "B", b2))
                assert lhs == rhs
                m = fam.random_m(rng)
                lhs = rho(fam, "M", fam.apply(a1, m, b1))
                rhs = t_mul(t_mul(rho(fam, "A", a1), rho(fam, "M", m)), rho(fam, "B", b1))
                assert lhs == rhs

    def test_rho_unital(self):
        for fam in shipped_families():
            assert rho(fam, "A", fam.a_one).is_one()
            assert rho(fam, "B", fam.b_one).is_one()


class TestChargedRing:
    """Sums and products in any ring object charge a Budget before they are formed."""

    def test_product_ticks_per_pair_of_terms(self):
        ring = FreeAlgebra("Z", ("s", "t"))
        a = ring.combination((1, x) for x in [ring.generator(0), ring.one()])
        b = ring.combination((1, x) for x in [ring.generator(1), ring.word((0, 1), 2), ring.one()])
        budget = Budget(100)
        assert ChargedRing(ring, budget).mul(a, b) == a * b
        assert budget.used == 6

    def test_scalar_product_ticks_per_pair_of_limbs(self):
        budget = Budget(100)
        # 2^64 and 2^128 have two and three 64-bit limbs
        assert ChargedRing(ZZ, budget).mul(2 ** 64, 2 ** 128) == 2 ** 192
        assert budget.used == 6

    def test_t_product_ticks_by_the_same_rule(self):
        fam = RegularFamily("Z")
        budget = Budget(100)
        product = t_mul(TElement.from_scalar(fam, 2 ** 64), TElement.from_scalar(fam, 2 ** 128), budget)
        assert product == TElement.from_scalar(fam, 2 ** 192)
        assert budget.used == 6

    def test_sum_ticks_per_term(self):
        budget = Budget(100)
        total = ChargedRing(QQ, budget).combination((1, x) for x in [1, Fraction(1, 2), 2 ** 64])
        assert total == 2 ** 64 + Fraction(3, 2)
        assert budget.used == 4

    def test_exhausted_before_the_product_is_formed(self):
        formed = []

        class Recording(OperatorRing):
            def from_int(self, n):
                return n

            def mul(self, a, b):
                formed.append((a, b))
                return a * b

        with pytest.raises(BudgetExceededError):
            ChargedRing(Recording(), Budget(5)).mul(2 ** 200, 2 ** 200)
        assert formed == []


class TestLibraryBudgets:
    """parse_normal keeps the CLI's default bound; the evaluators' default,
    UNBOUNDED, counts and never raises."""

    def test_parse_normal_stops_at_the_default_budget(self):
        with pytest.raises(BudgetExceededError):
            parse_normal(ScaledFamily(2), "x[3]^100000000")

    @pytest.mark.parametrize("route", ["t_mul", "TOps", "t_normalize"])
    def test_unbounded_products_never_raise(self, route):
        fam = RegularFamily("Z")
        n = 2 ** (64 * 1100)  # a square of n charges 1101^2 steps, over DEFAULT_BUDGET
        square = {
            "t_mul": lambda: t_mul(TElement.from_scalar(fam, n), TElement.from_scalar(fam, n)),
            "TOps": lambda: TOps(fam).mul(TElement.from_scalar(fam, n), TElement.from_scalar(fam, n)),
            "t_normalize": lambda: t_normalize(fam, Mul((Const(n), Const(n)))),
        }[route]
        before = UNBOUNDED.used
        assert square() == TElement.from_scalar(fam, n * n)
        assert UNBOUNDED.used - before > DEFAULT_BUDGET


class TestEquality:
    def test_reflexive(self):
        for fam in shipped_families():
            e = random_telement(fam, random.Random(12))
            assert e == e

    def test_scaled_cross_products_equal(self):
        fam = ScaledFamily(2)
        lhs = t_mul(t_generator(fam, 3), t_generator(fam, 3))
        rhs = t_mul(t_generator(fam, 9), t_generator(fam, 1))
        assert lhs == rhs
        assert family_iso(lhs) == Fraction(9, 4)

    def test_double_x_is_not_one(self):
        fam = DoubleFamily("Q")
        assert t_generator(fam, (0, 1)) != TElement.one(fam)

    def test_hnn_shifted_words_equal(self):
        fam = HnnFreeFamily("Q", ("s",), "x")
        lhs = t_mul(
            t_generator(fam, {("m", (), (0,)): 1}),
            t_generator(fam, {("m", (), ()): 1}),
        )
        rhs = t_mul(
            t_generator(fam, {("m", (), ()): 1}),
            t_generator(fam, {("m", (0,), ()): 1}),
        )
        assert lhs == rhs

    @staticmethod
    def term_sum(fam, terms):
        total = TElement.zero(fam)
        for word, c in terms:
            total = t_add(total, TElement(fam, {word: c}))
        return total

    @pytest.mark.parametrize("fam", shipped_families(), ids=lambda f: f.kind)
    def test_equal_elements_hash_alike_whatever_their_term_order(self, fam):
        rng = random.Random(31)
        draws = (random_telement(fam, rng) for _ in range(200))
        a, b = [e for e in draws if len(e.terms) > (fam.basis() is None)][:2]
        pairs = [(t_add(a, b), t_add(b, a))]
        terms = list(t_mul(a, b).terms.items())
        pairs.append((self.term_sum(fam, terms), self.term_sum(fam, reversed(terms))))
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert len({x, y}) == 1
        if fam.basis() is None:  # the free families' sums hold several terms, met in other orders
            assert all(list(x.terms) != list(y.terms) for x, y in pairs)


class TestRingVariants:
    """The non-default base rings stay faithful to their oracles."""

    def test_regular_q(self):
        fam = RegularFamily("Q")
        rng = random.Random(21)
        for _ in range(300):
            e1 = random_telement(fam, rng)
            e2 = random_telement(fam, rng)
            assert family_iso(t_mul(e1, e2)) == fam.oracle.mul(family_iso(e1), family_iso(e2))
            assert (e1 == e2) == (family_iso(e1) == family_iso(e2))

    def test_double_z(self):
        fam = DoubleFamily("Z")
        rng = random.Random(22)
        for _ in range(300):
            e1 = random_telement(fam, rng)
            e2 = random_telement(fam, rng)
            assert family_iso(t_mul(e1, e2)) == family_iso(e1) * family_iso(e2)
            assert (e1 == e2) == (family_iso(e1) == family_iso(e2))

    def test_scaled_composite_base(self):
        fam = ScaledFamily(6)
        rng = random.Random(23)
        for _ in range(300):
            e1 = random_telement(fam, rng)
            e2 = random_telement(fam, rng)
            assert family_iso(t_mul(e1, e2)) == family_iso(e1) * family_iso(e2)
            assert family_iso(t_add(e1, e2)) == family_iso(e1) + family_iso(e2)
            assert (e1 == e2) == (family_iso(e1) == family_iso(e2))


class TestCoefficients:
    def test_integer_families_reject_rationals(self):
        fam = ScaledFamily(2)
        with pytest.raises(ValueError):
            t_scale(TElement.one(fam), Fraction(1, 2))

    def test_rational_families_accept_fractions(self):
        fam = DoubleFamily("Q")
        e = t_scale(t_generator(fam, (0, 1)), Fraction(1, 2))
        assert family_iso(e) == Polynomial("Q", [0, Fraction(1, 2)])

    def test_scaled_sum_across_exponents(self):
        fam = ScaledFamily(2)
        total = t_add(t_generator(fam, 4), t_generator(fam, 3))  # 2 + 3/2
        assert total == t_generator(fam, 7)
        assert len(total.terms) == 1


class TestRelationFailure:
    """The one sampler of the defining relations, on T itself and on Q."""

    def test_normal_forms_satisfy_the_relations(self):
        for fam in shipped_families():
            ring = TOps(fam)
            assert relation_failure(fam, ring, ring.gen, 50, random.Random(3)) is None

    @pytest.mark.parametrize(
        "image, failure",
        [
            (lambda m: Fraction(m, 2) + 1, "relation (id): x_p is not 1"),
            (lambda m: Fraction(m, 2) ** 2, "instance 0: m="),
        ],
        ids=["id", "additive"],
    )
    def test_broken_images_are_reported(self, image, failure):
        fam = ScaledFamily(2)
        found = relation_failure(fam, QQ, image, 50, random.Random(3))
        assert found is not None and found.startswith(failure)

    # A-side and B-side controls: T of tensor-free s | u is the free algebra
    # on s, u with x_(v (x) w) = v*w.  Doubling every term whose A word (or
    # B word) has two or more letters keeps (id), (+) and the other side's
    # relation, and breaks (a) x_(a*p) x_m = x_(a*m) (or (b) x_m x_(p*b) = x_(m*b)).
    @pytest.mark.parametrize("side", [0, 1], ids=["a", "b"])
    def test_one_sided_images_are_reported(self, side):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        oracle = fam.oracle

        def image(m):
            return oracle.combination(
                (1, oracle.word(wa + tuple(1 + j for j in wb), c * (2 if len((wa, wb)[side]) >= 2 else 1)))
                for (wa, wb), c in m.items()
            )

        found = relation_failure(fam, oracle, image, 50, random.Random(3))
        assert found is not None and found.startswith("instance ")

    def test_one_sided_images_without_the_doubling_pass(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        oracle = fam.oracle
        image = lambda m: oracle.combination((1, oracle.word(wa + tuple(1 + j for j in wb), c)) for (wa, wb), c in m.items())
        assert relation_failure(fam, oracle, image, 50, random.Random(3)) is None
