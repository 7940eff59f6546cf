"""Grammar: parsing, printing, and the round trip."""

import random
from fractions import Fraction

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
        assert not parse_normal(fam, "0").terms


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

    def test_bim_sum_adds_each_summand_once(self, monkeypatch):
        """2,000 distinct signed melems, half with a coefficient, make at most
        4,000 add_term calls: each is scaled once and added once, where adding
        them pairwise into a running sum made about 2,000,000."""
        import itertools

        from trilocal import families, rings

        fam = HnnFreeFamily("Q", ("s", "t"), "x")
        words = ["*".join(w) or "1" for n in range(6) for w in itertools.product("st", repeat=n)]
        keys = [f"h({u},{v})" for u in words for v in words][:2000]
        text = "".join(("-" if i % 3 == 0 else "+") + (f"{i % 5 + 2}*" if i % 2 else "") + key for i, key in enumerate(keys))
        calls = []
        add_term = rings.add_term
        counted = lambda *args: calls.append(1) or add_term(*args)
        monkeypatch.setattr(rings, "add_term", counted)
        monkeypatch.setattr(families, "add_term", counted)
        m = parse_bim_element(fam, text)
        assert len(m) == 2000 and len(calls) <= 4000

    @pytest.mark.parametrize("fam,text,expected", [
        pytest.param(RegularFamily("Z"), "-3+5-7", -5, id="regular-Z"),
        pytest.param(RegularFamily("Q"), "-1/2+3-2/3", Fraction(11, 6), id="regular-Q"),
        pytest.param(ScaledFamily(2), "-6+4-1", -3, id="scaled"),
        pytest.param(DoubleFamily("Q"), "-2*(1,1/2)+1/2*(0,3)-(1,0)", (-3, Fraction(1, 2)), id="double-Q"),
        pytest.param(DoubleFamily("Z"), "-(1,-2)+3*(2,1)-(0,1)", (5, 4), id="double-Z"),
        pytest.param(
            TensorFreeFamily("Q", ("s",), ("u", "v")), "-2*t(s,u)+1/2*t(1,v)-t(s,u)+3*t(1,1)",
            {((0,), (0,)): -3, ((), (1,)): Fraction(1, 2), ((), ()): 3}, id="tensor-free-Q",
        ),
        pytest.param(
            TensorFreeFamily("Z", ("s",), ("u",)), "-t(s,u)+3*t(1,u)-2*t(s,u)", {((0,), (0,)): -3, ((), (0,)): 3},
            id="tensor-free-Z",
        ),
        pytest.param(
            HnnFreeFamily("Q", ("s", "t"), "x"), "-1/2*h(s)+2*h(s,t)-h(s)-1/3*h(1,t)",
            {("a", (0,)): Fraction(-3, 2), ("m", (0,), (1,)): 2, ("m", (), (1,)): Fraction(-1, 3)}, id="hnn-free-Q",
        ),
        pytest.param(
            HnnFreeFamily("Z", ("s",), "x"), "-h(s)+4*h(s,s)-0*h(1)", {("a", (0,)): -1, ("m", (0,), (0,)): 4},
            id="hnn-free-Z",
        ),
    ])
    def test_signed_bim_sums(self, fam, text, expected):
        # integer and rational coefficients, a leading and an inner minus: the
        # sum, and for a term map its key order, as the melem scaling gave them
        m = parse_bim_element(fam, text)
        assert m == expected and type(m) is type(expected)
        if isinstance(m, dict):
            assert list(m.items()) == list(expected.items())
