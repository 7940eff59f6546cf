"""Grammar: parsing, printing, and the round trip."""

import random

import pytest

from trilocal.errors import ParseError
from trilocal.exprs import (
    MAX_NESTING,
    format_element,
    format_oracle,
    parse_bim_element,
    parse_element,
    parse_normal,
    parse_ring_element,
)
from trilocal.families import DoubleFamily, HnnFreeFamily, RegularFamily, ScaledFamily, TensorFreeFamily
from trilocal.tring import UNBOUNDED, Add, Const, Gen, Mul, Pow, family_iso
from trilocal.verify import random_telement, shipped_families


class TestParsing:
    def test_product_tree(self):
        fam = ScaledFamily(2)
        tree = parse_element(fam, "x[3]*x[5]")
        assert tree == Mul((Gen(3), Gen(5)))

    def test_sum_with_constant(self):
        fam = DoubleFamily("Q")
        tree = parse_element(fam, "x[(2,3)]*x[(0,1)] + 1")
        assert tree == Add((Mul((Gen((2, 3)), Gen((0, 1)))), Const(1)))

    def test_power_and_parens(self):
        fam = ScaledFamily(2)
        tree = parse_element(fam, "(x[3] + 1)^2")
        assert isinstance(tree, Pow) and tree.exponent == 2

    def test_unbalanced_bracket_offset(self):
        fam = ScaledFamily(2)
        with pytest.raises(ParseError) as err:
            parse_element(fam, "x[3")
        assert err.value.position == 3

    def test_unknown_generator(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        with pytest.raises(ParseError):
            parse_element(fam, "x[t(z,u)]")

    def test_rational_rejected_over_z(self):
        with pytest.raises(ParseError):
            parse_element(ScaledFamily(2), "1/2")

    def test_rational_allowed_over_q(self):
        fam = DoubleFamily("Q")
        tree = parse_element(fam, "1/2*x[(0,1)]")
        e = parse_normal(fam, "1/2*x[(0,1)]")
        assert format_element(e) == "1/2*x[(0,1)]"

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_element(ScaledFamily(2), "x[3] )")

    def test_nesting_limit(self):
        fam = ScaledFamily(2)
        tf = TensorFreeFamily("Q", ("s",), ("u",))
        deep = "(" * MAX_NESTING, ")" * MAX_NESTING
        assert parse_element(fam, "x[3]".join(deep)) == Gen(3)
        assert str(parse_ring_element(tf, "A", "s".join(deep), UNBOUNDED)) == "s"
        with pytest.raises(ParseError):
            parse_element(fam, "(x[3])".join(deep))
        with pytest.raises(ParseError):
            parse_ring_element(tf, "A", "(s)".join(deep), UNBOUNDED)

    @pytest.mark.parametrize("text", ["2+", "(", "3*", "-", "x[3]^"])
    def test_incomplete_input_names_end_of_input(self, text):
        with pytest.raises(ParseError) as err:
            parse_element(ScaledFamily(2), text)
        assert str(err.value).endswith(f"found end of input at offset {len(text)}")

    def test_incomplete_ring_element_names_end_of_input(self):
        with pytest.raises(ParseError) as err:
            parse_ring_element(TensorFreeFamily("Q", ("s",), ("u",)), "A", "s+", UNBOUNDED)
        assert str(err.value).endswith("found end of input at offset 2")

    def test_hnn_two_forms(self):
        fam = HnnFreeFamily("Q", ("s",), "x")
        pure_a = parse_normal(fam, "x[h(s*s)]")
        assert str(family_iso(pure_a)) == "s*s"
        tens = parse_normal(fam, "x[h(s,1)]")
        assert str(family_iso(tens)) == "s*x"


class TestRoundTrip:
    def test_round_trip_random(self):
        rng = random.Random(18)
        for fam in shipped_families():
            for _ in range(100):
                e = random_telement(fam, rng)
                text = format_element(e)
                again = parse_normal(fam, text)
                assert e == again, text

    def test_zero(self):
        fam = ScaledFamily(2)
        e = parse_normal(fam, "x[3] - x[3]")
        assert format_element(e) == "0"
        assert parse_normal(fam, "0").is_zero()


class TestOracleDisplay:
    def test_examples(self):
        fam = ScaledFamily(2)
        assert format_oracle(fam, family_iso(parse_normal(fam, "x[3]*x[5]"))) == "15/4"
        dq = DoubleFamily("Q")
        assert format_oracle(dq, family_iso(parse_normal(dq, "x[(2,3)]*x[(0,1)]"))) == "2x+3x^2"
        rz = RegularFamily("Z")
        assert format_oracle(rz, family_iso(parse_normal(rz, "x[2]*x[3]"))) == "6"


class TestRingElementParsing:
    def test_scalar_families(self):
        fam = RegularFamily("Z")
        assert parse_ring_element(fam, "A", "3", UNBOUNDED) == 3
        assert parse_ring_element(fam, "A", "-(2+3)", UNBOUNDED) == -5
        dq = DoubleFamily("Q")
        assert parse_ring_element(dq, "B", "3/2", UNBOUNDED) == __import__("fractions").Fraction(3, 2)

    def test_free_families(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        a = parse_ring_element(fam, "A", "s*s + 2", UNBOUNDED)
        assert str(a) == "2+s*s"
        b = parse_ring_element(fam, "B", "u^2 - u", UNBOUNDED)
        assert str(b) == "-u+u*u"
        with pytest.raises(ParseError):
            parse_ring_element(fam, "A", "u", UNBOUNDED)  # wrong side

    def test_bim_elements(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        m = parse_bim_element(fam, "t(s,u) + 2*t(1,u)")
        assert m == {((0,), (0,)): 1, ((), (0,)): 2}
        sc = parse_bim_element(ScaledFamily(2), "-6")
        assert sc == -6
        dm = parse_bim_element(DoubleFamily("Q"), "(1/2,3)")
        assert dm == (__import__("fractions").Fraction(1, 2), 3)
