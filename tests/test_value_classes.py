"""The immutable value classes: expression-tree nodes, p-factorizations and
fraction forms.

Each instance equals another of the same class with equal fields and no
instance of another class, equal instances hash alike, the repr names
every field, and a field cannot be assigned or deleted.
"""

import pytest

from trilocal.families import PFactorization, RegularFamily
from trilocal.fracloc import CentralPair, FractionForm
from trilocal.tring import Add, Const, Gen, Mul, Neg, Pow, TElement


def fraction_form():
    pair = CentralPair(RegularFamily("Z"), 2, 2)
    target = pair.target_family()
    return pair.fraction_form(TElement(target, {(target._G,) * 3: 5}))


NODES = [
    Const(2),
    Gen((1, 0)),
    Add((Const(1), Gen(3))),
    Mul((Gen(3), Gen(5))),
    Neg(Gen(3)),
    Pow(Gen(3), 2),
]

REPRS = [
    "Const(value=2)",
    "Gen(element=(1, 0))",
    "Add(items=(Const(value=1), Gen(element=3)))",
    "Mul(items=(Gen(element=3), Gen(element=5)))",
    "Neg(item=Gen(element=3))",
    "Pow(base=Gen(element=3), exponent=2)",
]


class TestEquality:
    def test_equal_fields_equal_nodes(self):
        assert Const(1) == Const(1)
        assert Pow(Gen(3), 2) == Pow(Gen(3), 2)
        assert Add((Mul((Gen((2, 3)), Gen((0, 1)))), Const(1))) == Add((Mul((Gen((2, 3)), Gen((0, 1)))), Const(1)))
        assert PFactorization(2, 2) == PFactorization(left=2, right=2)

    def test_unequal_fields(self):
        assert Const(1) != Const(2)
        assert Pow(Gen(3), 2) != Pow(Gen(3), 3)
        assert Pow(Gen(3), 2) != Pow(Gen(4), 2)
        assert PFactorization(2, None) != PFactorization(None, 2)

    def test_class_takes_part(self):
        assert Const(1) != Gen(1)
        assert Add((Gen(1), Gen(2))) != Mul((Gen(1), Gen(2)))
        assert Neg(Gen(1)) != Gen(1)
        assert not (Add(()) == Mul(()))

    def test_never_equal_to_another_type(self):
        assert Const(1) != 1
        assert Const(1) != (1,)
        assert Gen(3) != "Gen(element=3)"
        assert PFactorization(None, None) != (None, None)

    def test_form_equality(self):
        assert fraction_form() == fraction_form()
        form = fraction_form()
        assert FractionForm(form.numerator, form.exponent) == form
        assert FractionForm(form.numerator, form.exponent + 1) != form


class TestHash:
    def test_equal_nodes_hash_alike(self):
        for node in NODES:
            twin = eval(repr(node), {"Const": Const, "Gen": Gen, "Add": Add, "Mul": Mul, "Neg": Neg, "Pow": Pow})
            assert twin == node and twin is not node
            assert hash(twin) == hash(node)
        assert hash(PFactorization(left=4, right=4)) == hash(PFactorization(4, 4))
        assert hash(fraction_form()) == hash(fraction_form())

    def test_sets_and_dicts(self):
        assert len({Const(1), Const(1), Gen(1), Pow(Gen(1), 1), Pow(Gen(1), 1)}) == 3
        assert {Mul((Gen(3), Gen(5))): "product"}[Mul((Gen(3), Gen(5)))] == "product"


class TestRepr:
    @pytest.mark.parametrize("node,text", list(zip(NODES, REPRS)), ids=REPRS)
    def test_node(self, node, text):
        assert repr(node) == text

    def test_p_factorization(self):
        assert repr(PFactorization(None, None)) == "PFactorization(left=None, right=None)"
        assert repr(PFactorization(left=2, right=2)) == "PFactorization(left=2, right=2)"
        assert repr(PFactorization(left=None, right=3)) == "PFactorization(left=None, right=3)"

    def test_fraction_form(self):
        assert repr(fraction_form()) == "FractionForm(numerator=<T 5>, exponent=3)"


class TestFrozen:
    FIELDS = [
        (Const(2), "value"),
        (Gen(3), "element"),
        (Add((Gen(3),)), "items"),
        (Mul((Gen(3),)), "items"),
        (Neg(Gen(3)), "item"),
        (Pow(Gen(3), 2), "base"),
        (Pow(Gen(3), 2), "exponent"),
        (PFactorization(None, None), "left"),
        (PFactorization(None, None), "right"),
    ]

    @pytest.mark.parametrize("obj,field", FIELDS, ids=[f"{type(o).__name__}.{f}" for o, f in FIELDS])
    def test_field_cannot_be_assigned_or_deleted(self, obj, field):
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, 7)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) == before

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            Const(1).extra = 1

    def test_fraction_form_fields(self):
        form = fraction_form()
        for field in ("numerator", "exponent"):
            with pytest.raises(AttributeError):
                setattr(form, field, 0)
        assert form.exponent == 3 and form.numerator.is_one() is False


class TestFields:
    def test_p_factorization_takes_both_fields(self):
        assert PFactorization(right=3, left=None) == PFactorization(None, 3)
        assert PFactorization(5, None).left == 5 and PFactorization(5, None).right is None
        for args, named in (((), {}), ((5,), {}), ((), {"right": 3})):
            with pytest.raises(TypeError, match="exactly the fields left, right"):
                PFactorization(*args, **named)
