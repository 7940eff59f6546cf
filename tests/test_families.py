"""Bimodule families: axioms, exact p-factorization (by the test
reference), the premise that the scalar families' letters never merge,
descriptors."""

import random
import re

import pytest

from trilocal.errors import AlphabetMismatchError, FamilyMismatchError, SchemaError
from trilocal.families import (
    DoubleFamily,
    HnnFreeFamily,
    RegularFamily,
    ScaledFamily,
    TensorFreeFamily,
    family_from_json,
)
from trilocal.rings import FreeAlgebra, FreeAlgebraElement
from trilocal.verify import shipped_families
from reference_impls import reference_factor_p, reference_factors_reapply
from test_triangular import basis_coords


def factor_element(ring, raw):
    """The element of ring that a raw reference factor stands for: a scalar
    is itself, and a word map is an element of the free algebra ring."""
    return FreeAlgebraElement(ring.base, ring.gens, raw) if isinstance(raw, dict) else raw


@pytest.fixture(params=["regular", "double", "scaled", "tensor-free", "hnn-free"])
def family(request):
    return {f.kind: f for f in shipped_families()}[request.param]


class TestBimoduleAxioms:
    def test_action_axioms_random(self, family):
        rng = random.Random(42)
        fam = family
        for _ in range(300):
            a, a2 = fam.a_ring.random(rng), fam.a_ring.random(rng)
            b, b2 = fam.b_ring.random(rng), fam.b_ring.random(rng)
            m, m2 = fam.random_m(rng), fam.random_m(rng)
            lhs = fam.apply(fam.a_ring.mul(a, a2), m, fam.b_one)
            rhs = fam.apply(a, fam.apply(a2, m, fam.b_one), fam.b_one)
            assert lhs == rhs
            lhs = fam.apply(fam.a_one, m, fam.b_ring.mul(b, b2))
            rhs = fam.apply(fam.a_one, fam.apply(fam.a_one, m, b), b2)
            assert lhs == rhs
            lhs = fam.apply(a, fam.apply(fam.a_one, m, b), fam.b_one)
            rhs = fam.apply(fam.a_one, fam.apply(a, m, fam.b_one), b)
            assert lhs == rhs
            # additivity in the middle slot
            lhs = fam.apply(a, fam.add_m(m, m2), b)
            rhs = fam.add_m(fam.apply(a, m, b), fam.apply(a, m2, b))
            assert lhs == rhs

    def test_factor_soundness_random(self, family):
        rng = random.Random(43)
        for _ in range(300):
            assert reference_factors_reapply(family, family.random_m(rng), factor_element)


class TestFactorizationPerFamily:
    def test_regular_factors_everything(self):
        fam = RegularFamily("Z")
        left, right = reference_factor_p(fam, 7)
        assert left == 7 and right == 7

    def test_scaled_divisibility(self):
        fam = ScaledFamily(2)
        left, right = reference_factor_p(fam, 6)
        assert left == 3 and right == 3
        left, right = reference_factor_p(fam, 3)
        assert left is None and right is None

    def test_scaled_completeness_random(self):
        fam = ScaledFamily(3)
        rng = random.Random(44)
        for _ in range(500):
            m = fam.random_m(rng, 50)
            left, _ = reference_factor_p(fam, m)
            assert (left is not None) == (m % 3 == 0)

    def test_double_split(self):
        fam = DoubleFamily("Q")
        left, right = reference_factor_p(fam, (5, 0))
        assert left == 5 and right == 5
        left, right = reference_factor_p(fam, (0, 5))
        assert left is None and right is None

    def test_tensor_free_pure_sides(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        left, right = reference_factor_p(fam, {((0,), ()): 1})
        assert left is not None and right is None
        left, right = reference_factor_p(fam, {((), (0,)): 1})
        assert left is None and right is not None
        left, right = reference_factor_p(fam, {((0,), (0,)): 1})
        assert left is None and right is None

    def test_hnn_tensor_part_blocks_factors(self):
        fam = HnnFreeFamily("Q", ("s",), "x")
        a_only = {("a", (0,)): 1}
        left, _ = reference_factor_p(fam, a_only)
        assert factor_element(fam.a_ring, left) == fam.a_ring.generator(0)
        mixed = {("a", (0,)): 1, ("m", (), ()): 1}
        left, right = reference_factor_p(fam, mixed)
        assert left is None and right is None

    def test_scaled_commuting_pair(self):
        # any integer commutes with the whole bimodule: a0*m = m*b0
        fam = ScaledFamily(2)
        rng = random.Random(46)
        for _ in range(200):
            a0 = rng.randint(-9, 9)
            m = fam.random_m(rng)
            assert fam.apply(a0, m, 1) == fam.apply(1, m, a0)


SCALAR_FAMILIES = [
    RegularFamily("Z"),
    RegularFamily("Q"),
    DoubleFamily("Z"),
    DoubleFamily("Q"),
    ScaledFamily(2),
    ScaledFamily(3),
    ScaledFamily(6),
]


class KeptMultipleFamily(ScaledFamily):
    """scaled whose letter_terms keeps every nonzero m as m times the letter
    g, where ScaledFamily collapses a multiple of k to the scalar m/k."""

    def letter_terms(self, m):
        return [(m, self._G)] if m else []


class TestScalarLettersNeverMerge:
    """The premise of BimoduleFamily.merge_pair, which is always None: in
    the regular, double and scaled families letter_terms collapses every
    element of A*p and of p*B to a scalar, so no letter of a normal form
    lies in either set and no letter pair merges."""

    @pytest.mark.parametrize("family", SCALAR_FAMILIES, ids=[f.describe() for f in SCALAR_FAMILIES])
    def test_no_letter_lies_in_ap_or_pb(self, family):
        """Every letter term of the basis and of 300 seeded draws: the letter's
        element, and the element the term stands for, factor through p on
        neither side by the reference; merge_pair is None on every letter pair."""
        rng = random.Random(48)
        draws = family.basis() + [family.random_m(rng) for _ in range(300)]
        terms = [(m, c, letter) for m in draws for c, letter in family.letter_terms(m)]
        assert terms
        letters = set()
        for m, c, letter in terms:
            if letter is None:
                continue
            letters.add(letter)
            for element in (family.letter_bim(letter), family.scale_m(c, family.letter_bim(letter))):
                assert reference_factor_p(family, element) == (None, None), (
                    f"{family.describe()}: x[{family.fmt_m(m)}] keeps {family.fmt_m(element)}, "
                    f"which lies in A*p or p*B, as a letter term"
                )
        assert letters or family.kind == "regular"  # regular has no letters
        for l1 in letters:
            for l2 in letters:
                assert family.merge_pair(l1, l2) is None

    def test_kept_multiple_of_k_fails(self):
        message = '{"k": 2, "kind": "scaled"}: x[-12] keeps -12, which lies in A*p or p*B'
        with pytest.raises(AssertionError, match=re.escape(message)):
            self.test_no_letter_lies_in_ap_or_pb(KeptMultipleFamily(2))


class TestScaledFold:
    """ScaledFamily.fold_element writes a term map of g-words, g^r standing
    for k**-r, as one term with the least power of g."""

    def test_single_word_term_folds(self):
        fam = ScaledFamily(2)
        g = fam._G
        assert fam.fold_element({(g, g): 4}) == {(): 1}
        assert fam.fold_element({(g, g, g): 6}) == {(g, g): 3}
        assert fam.fold_element({(g,): 3}) == {(g,): 3}

    def test_empty_and_constant_maps_are_canonical(self):
        fam = ScaledFamily(6)
        assert fam.fold_element({}) == {}
        assert fam.fold_element({(): -5}) == {(): -5}

    def test_sum_over_the_longest_word(self):
        fam = ScaledFamily(2)
        g = fam._G
        assert fam.fold_element({(): 1, (g,): 2}) == {(): 2}
        assert fam.fold_element({(g,): 1, (g, g): 2}) == {(): 1}
        assert fam.fold_element({(): 1, (g, g): 1}) == {(g, g): 5}


class TestDescriptors:
    def test_json_round_trip(self, family):
        again = family_from_json(family.to_json())
        assert again == family

    # describe() of each descriptor as the family classes printed it before
    # they declared their fields once, in params
    PINNED = [
        (RegularFamily("Q"), '{"kind": "regular", "ring": "Q"}'),
        (DoubleFamily("Z"), '{"kind": "double", "ring": "Z"}'),
        (ScaledFamily(6), '{"k": 6, "kind": "scaled"}'),
        (
            TensorFreeFamily("Z", ["s", "t"], ["u"]),
            '{"A_gens": ["s", "t"], "B_gens": ["u"], "kind": "tensor-free", "ring": "Z"}',
        ),
        (HnnFreeFamily("Q", ["s"], "y"), '{"A_gens": ["s"], "kind": "hnn-free", "ring": "Q", "x_name": "y"}'),
    ]

    @pytest.mark.parametrize("fam, described", PINNED, ids=[f.kind for f, _ in PINNED])
    def test_non_default_round_trip(self, fam, described):
        assert fam.describe() == described
        again = family_from_json(fam.to_json())
        assert again == fam and hash(again) == hash(fam)
        assert again.describe() == described

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            family_from_json({"kind": "mystery"})

    def test_scaled_requires_k(self):
        with pytest.raises(SchemaError):
            family_from_json({"kind": "scaled"})
        with pytest.raises(SchemaError):
            family_from_json({"kind": "scaled", "k": 1})

    @pytest.mark.parametrize("data, field", [
        ({"kind": "tensor-free", "ring": "Q", "A_gens": ["s"], "B_gen": ["u", "v"]}, "B_gen"),
        ({"kind": "scaled", "k": 2, "ring": "Q"}, "ring"),
        ({"kind": "regular", "ring": "Z", "k": 2}, "k"),
        ({"kind": "hnn-free", "ring": "Q", "A_gens": ["s"], "xname": "y"}, "xname"),
    ])
    def test_unknown_field_is_rejected(self, data, field):
        # each was ignored: B_gen left the default B alphabet ("u",), and scaled ran over Z
        with pytest.raises(SchemaError) as info:
            family_from_json(data)
        message = str(info.value)
        assert message.startswith(f"unknown field {field!r} in {data['kind']} family descriptor; expected kind, ")
        assert "\n" not in message

    def test_tensor_alphabets_must_be_disjoint(self):
        with pytest.raises(SchemaError):
            family_from_json({"kind": "tensor-free", "A_gens": ["s"], "B_gens": ["s"]})

    def test_hnn_x_name_collision(self):
        with pytest.raises(SchemaError):
            family_from_json({"kind": "hnn-free", "A_gens": ["x"], "x_name": "x"})

    @pytest.mark.parametrize("data, given", [
        ({"kind": "tensor-free", "A_gens": -1}, "A_gens=-1"),
        ({"kind": "hnn-free", "ring": "Q", "A_gens": 3}, "ring='Q', A_gens=3"),
    ])
    def test_constructor_type_error_names_kind_and_fields(self, data, given):
        with pytest.raises(SchemaError) as info:
            family_from_json(data)
        message = str(info.value)
        assert message.startswith(f"{data['kind']} family descriptor with {given} is invalid: ")
        assert "not iterable" in message

    def test_family_mismatch_raises(self):
        with pytest.raises(FamilyMismatchError):
            ScaledFamily(2).check_same(ScaledFamily(3))

    def test_empty_alphabets_allowed(self):
        fam = family_from_json({"kind": "tensor-free", "ring": "Q", "A_gens": [], "B_gens": []})
        assert fam.p == {((), ()): 1}


class TestBasis:
    def test_declared_bases(self):
        assert RegularFamily("Z").basis() == [1]
        assert ScaledFamily(2).basis() == [1]
        assert DoubleFamily("Q").basis() == [(1, 0), (0, 1)]
        assert TensorFreeFamily("Q", ("s",), ("u",)).basis() is None
        assert HnnFreeFamily("Q", ("s",), "x").basis() is None

    def test_basis_coordinates_reconstruct(self):
        rng = random.Random(50)
        for fam in (RegularFamily("Z"), ScaledFamily(2), DoubleFamily("Q")):
            basis = fam.basis()
            for _ in range(100):
                m = fam.random_m(rng)
                coords = basis_coords(fam, m)
                rebuilt = fam.zero_m()
                for c, mu in zip(coords, basis):
                    rebuilt = fam.add_m(rebuilt, fam.scale_m(c, mu))
                assert rebuilt == m


class TestMultiGeneratorFamilies:
    def test_tensor_free_two_generators(self):
        from trilocal.tring import family_iso, t_generator, t_mul

        fam = TensorFreeFamily("Q", ("s", "t"), ("u", "v"))
        rng = random.Random(51)
        oracle = fam.oracle
        for _ in range(200):
            m1, m2 = fam.random_m(rng), fam.random_m(rng)
            e1, e2 = t_generator(fam, m1), t_generator(fam, m2)
            assert family_iso(t_mul(e1, e2)) == oracle.mul(family_iso(e1), family_iso(e2))

    def test_hnn_two_generators(self):
        from trilocal.tring import family_iso, t_generator, t_mul

        fam = HnnFreeFamily("Z", ("s", "t"), "y")
        rng = random.Random(52)
        oracle = fam.oracle
        for _ in range(200):
            m1, m2 = fam.random_m(rng), fam.random_m(rng)
            e1, e2 = t_generator(fam, m1), t_generator(fam, m2)
            assert family_iso(t_mul(e1, e2)) == oracle.mul(family_iso(e1), family_iso(e2))


class TestFreeFamilyInput:
    """An element of M in a free family is a term map over the family's keys,
    checked where it enters; apply takes elements of A and B only."""

    TENSOR = TensorFreeFamily("Q", ("s",), ("u",))
    HNN = HnnFreeFamily("Q", ("s",), "x")
    BAD = [
        (TENSOR, {((5,), ()): 1}),  # A-index outside the alphabet
        (TENSOR, {((-1,), ()): 1}),  # printed as t(s,1), which parses to another element
        (TENSOR, {((), (1,)): 1}),
        (TENSOR, {((0.0,), ()): 1}),
        (TENSOR, {("t", (0,), ()): 1}),
        (TENSOR, [(((0,), ()), 1)]),
        (HNN, {("m", (0,), (5,)): 1}),
        (HNN, {("a", (-1,)): 1}),
        (HNN, {("b", (0,)): 1}),
        (HNN, {("a", (0,), ()): 1}),
        (HNN, {"a": 1}),
        (HNN, ((("a", (0,)), 1),)),
    ]

    @pytest.mark.parametrize("fam,m", BAD, ids=[f"{f.kind}-{m!r}" for f, m in BAD])
    def test_bad_element_is_schema_error(self, fam, m):
        from trilocal.tring import t_generator

        with pytest.raises(SchemaError):
            fam.canon_m(m)
        with pytest.raises(SchemaError):
            t_generator(fam, m)

    OTHER = FreeAlgebra("Q", ("s", "t")).generator(1)
    FOREIGN = {
        "tensor-free-other-A": (TENSOR, OTHER, TENSOR.b_one),
        "tensor-free-other-B": (TENSOR, TENSOR.a_one, OTHER),
        "tensor-free-B-as-A": (TENSOR, TENSOR.b_ring.generator(0), TENSOR.b_one),
        "tensor-free-int-A": (TENSOR, 2, TENSOR.b_one),
        "hnn-free-other-A": (HNN, OTHER, HNN.b_one),
        "hnn-free-oracle-B": (HNN, HNN.a_one, HNN.oracle.generator(1)),
        "hnn-free-int-B": (HNN, HNN.a_one, 2),
    }

    @pytest.mark.parametrize("fam,a,b", FOREIGN.values(), ids=FOREIGN)
    def test_apply_refuses_other_algebras(self, fam, a, b):
        with pytest.raises(AlphabetMismatchError):
            fam.apply(a, fam.p, b)

    @pytest.mark.parametrize("fam", [TENSOR, HNN], ids=["tensor-free", "hnn-free"])
    def test_a_letter_is_a_key_of_m(self, fam):
        rng = random.Random(53)
        for _ in range(50):
            for c, letter in fam.letter_terms(fam.random_m(rng)):
                if letter is not None:
                    assert fam.letter_bim(letter) == {letter: 1}
                    assert fam.canon_m({letter: c}) == {letter: c}
        assert fam.letter_terms(fam.p) == [(1, None)]
