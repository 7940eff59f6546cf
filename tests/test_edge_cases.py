"""Regression cases for the trickier normalization and scale corners."""

import random
from fractions import Fraction

from trilocal.families import HnnFreeFamily, ScaledFamily, TensorFreeFamily
from trilocal.linalg import Matrix, diagonal_form
from trilocal.rings import ZZ, KadicRing
from trilocal.tring import TElement, family_iso, t_generator, t_mul, t_scale


class TestMultiTermMerges:
    def test_tensor_letter_sum_in_left_factor(self):
        # (s + s^2) (x) 1 merges into the next letter and splits into a sum
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        multi = {((0,), ()): 1, ((0, 0), ()): 1}
        e = t_mul(t_generator(fam, multi), t_generator(fam, {((), (0,)): 1}))
        assert str(family_iso(e)) == "s*u+s*s*u"
        assert len(e.terms) == 2

    def test_junction_cascade(self):
        # last letter of the first word and first letter of the second word
        # both merge, and the collapse continues across the junction
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        left = t_mul(t_generator(fam, {((), (0,)): 1}), t_generator(fam, {((0,), ()): 1}))
        right = t_mul(t_generator(fam, {((0,), ()): 1}), t_generator(fam, {((), (0,)): 1}))
        prod = t_mul(left, right)
        assert str(family_iso(prod)) == "u*s*s*u"
        ((word, coeff),) = prod.terms.items()
        assert coeff == 1 and len(word) == 2

    def test_hnn_shift_chain(self):
        fam = HnnFreeFamily("Q", ("s",), "x")
        letters = [
            t_generator(fam, {("m", (), (0,)): 1}),   # x s
            t_generator(fam, {("m", (), (0,)): 1}),   # x s
            t_generator(fam, {("m", (0,), ()): 1}),   # s x
        ]
        left_first = t_mul(t_mul(letters[0], letters[1]), letters[2])
        right_first = t_mul(letters[0], t_mul(letters[1], letters[2]))
        assert left_first == right_first
        assert str(family_iso(left_first)) == "x*s*x*s*s*x"

    def test_hnn_a_letters_absorb_both_sides(self):
        fam = HnnFreeFamily("Q", ("s",), "x")
        s_word = t_generator(fam, {("a", (0,)): 1})
        tens = t_generator(fam, {("m", (), ()): 1})
        assert str(family_iso(t_mul(s_word, tens))) == "s*x"
        assert str(family_iso(t_mul(tens, s_word))) == "x*s"
        assert str(family_iso(t_mul(s_word, s_word))) == "s*s"


class TestScaledSigns:
    def test_negative_coefficients_fold(self):
        fam = ScaledFamily(2)
        e = t_generator(fam, -4)
        assert e == TElement.from_scalar(fam, -2)
        e = t_generator(fam, -3) + t_generator(fam, -5)
        assert e == TElement.from_scalar(fam, -4)

    def test_scale_by_base_power(self):
        fam = ScaledFamily(2)
        e = t_scale(t_generator(fam, 3), 4)  # 4 * 3/2 = 6
        assert e == TElement.from_scalar(fam, 6)

    def test_composite_base_folding(self):
        fam = ScaledFamily(6)
        # 12/6 = 2 but 4/6 stays 4 * (1/6)
        assert t_generator(fam, 12) == TElement.from_scalar(fam, 2)
        assert family_iso(t_generator(fam, 4)) == Fraction(4, 6)


class TestArbitraryPrecision:
    def test_huge_entries_snf(self):
        big = 10 ** 40
        snf = diagonal_form(Matrix(ZZ, [[2 * big, 0], [0, 3 * big]]))
        assert snf.diagonal() == [big, 6 * big]
        assert snf.verify()

    def test_huge_kadic(self):
        ring = KadicRing(2)
        x = Fraction(3 ** 50, 2 ** 200)
        assert ring.exponent(x) == 200
        square = ring.mul(x, x)
        assert square.numerator == 3 ** 100 and ring.exponent(square) == 400

    def test_huge_scaled_elements(self):
        fam = ScaledFamily(2)
        e = t_generator(fam, 3 ** 60)
        prod = t_mul(e, e)
        assert family_iso(prod).numerator == 3 ** 120


class TestZeroHandling:
    def test_zero_generators_vanish(self):
        for fam in (ScaledFamily(2), TensorFreeFamily("Q", ("s",), ("u",))):
            assert not t_generator(fam, fam.zero_m()).terms

    def test_mul_by_zero(self):
        fam = ScaledFamily(2)
        rng = random.Random(1)
        from trilocal.verify import random_telement

        e = random_telement(fam, rng)
        assert t_mul(e, TElement.zero(fam)) == TElement.zero(fam)
        assert not (e + t_scale(e, -1)).terms
