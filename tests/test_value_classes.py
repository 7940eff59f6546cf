"""The immutable value classes: expression-tree nodes and fraction forms.

Each instance equals another of the same class with equal fields and no
instance of another class, equal instances hash alike, the repr names
every field, and a field cannot be assigned or deleted.  The two-field
records, ``Pow`` and ``FractionForm``, are also built from named fields.
"""

import pytest

from trilocal.families import RegularFamily
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
        assert Pow(2, 2) == Pow(base=2, exponent=2)
        assert FractionForm(2, 2) == FractionForm(numerator=2, exponent=2)

    def test_unequal_fields(self):
        assert Const(1) != Const(2)
        assert Pow(Gen(3), 2) != Pow(Gen(3), 3)
        assert Pow(Gen(3), 2) != Pow(Gen(4), 2)
        assert Pow(2, None) != Pow(None, 2)
        assert FractionForm(2, None) != FractionForm(None, 2)

    def test_class_takes_part(self):
        assert Const(1) != Gen(1)
        assert Add((Gen(1), Gen(2))) != Mul((Gen(1), Gen(2)))
        assert Neg(Gen(1)) != Gen(1)
        assert not (Add(()) == Mul(()))

    def test_never_equal_to_another_type(self):
        assert Const(1) != 1
        assert Const(1) != (1,)
        assert Gen(3) != "Gen(element=3)"
        assert Pow(None, None) != (None, None)
        assert FractionForm(None, None) != (None, None)

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
        assert hash(Pow(base=4, exponent=4)) == hash(Pow(4, 4))
        assert hash(FractionForm(numerator=4, exponent=4)) == hash(FractionForm(4, 4))
        assert hash(fraction_form()) == hash(fraction_form())

    def test_sets_and_dicts(self):
        assert len({Const(1), Const(1), Gen(1), Pow(Gen(1), 1), Pow(Gen(1), 1)}) == 3
        assert {Mul((Gen(3), Gen(5))): "product"}[Mul((Gen(3), Gen(5)))] == "product"


class TestRepr:
    @pytest.mark.parametrize("node,text", list(zip(NODES, REPRS)), ids=REPRS)
    def test_node(self, node, text):
        assert repr(node) == text

    def test_two_field_records(self):
        assert repr(Pow(None, None)) == "Pow(base=None, exponent=None)"
        assert repr(Pow(base=2, exponent=2)) == "Pow(base=2, exponent=2)"
        assert repr(FractionForm(numerator=None, exponent=3)) == "FractionForm(numerator=None, exponent=3)"

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
        (FractionForm(None, None), "numerator"),
        (FractionForm(None, None), "exponent"),
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
    def test_two_field_records_take_both_fields(self):
        for cls, first, second in ((Pow, "base", "exponent"), (FractionForm, "numerator", "exponent")):
            assert cls(**{second: 3, first: None}) == cls(None, 3)
            assert getattr(cls(5, None), first) == 5 and getattr(cls(5, None), second) is None
            for args, named in (((), {}), ((5,), {}), ((), {second: 3})):
                with pytest.raises(TypeError, match=f"exactly the fields {first}, {second}"):
                    cls(*args, **named)
