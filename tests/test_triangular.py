"""Triangular ring arithmetic, columns, and module triples."""

import random
import re

import pytest

from trilocal.errors import SchemaError, UnsupportedFamilyError
from trilocal.families import DoubleFamily, RegularFamily, ScaledFamily, TensorFreeFamily
from trilocal.rings import scalar_add, scalar_mul
from trilocal.triangular import (
    FPModule,
    SigmaMorphism,
    TriElement,
    TripleModule,
    act_p,
    act_q,
    column_join,
    column_split,
    random_tri,
    tri_mul,
    triple_from_json,
)
from trilocal.verify import shipped_families


# The R-module action of a triple, the triple -> column module -> triple
# round trip and the JSON writer: the engine reaches a triple only through
# its presentations, so these live with the tests that check them.

def basis_coords(fam, m):
    """Coordinates of m on fam.basis(): m itself in a scalar family, its two
    components in the double family."""
    return list(m) if isinstance(m, tuple) else [m]


def combination(terms, length):
    """The sum of c * v over the (c, v) pairs, a coordinate vector of the given length."""
    out = [0] * length
    for c, vec in terms:
        if c != 0:
            out = [scalar_add(x, scalar_mul(c, y)) for x, y in zip(out, vec)]
    return out


def f_apply(module, m, vecB):
    """Coordinates of f(m (x) n_B) in N_A for n_B with coordinates vecB."""
    coords = basis_coords(module.family, m)
    terms = ((scalar_mul(c, y), module.f[i][j]) for i, c in enumerate(coords) for j, y in enumerate(vecB))
    return combination(terms, module.NA.gens)


def action(module, r, n):
    """(a, m, b) . (n_A, n_B) = (a n_A + f(m (x) n_B), b n_B)."""
    vecA, vecB = n
    out_a = combination([(r.a, vecA), (1, f_apply(module, r.m, vecB))], module.NA.gens)
    return (out_a, combination([(r.b, vecB)], module.NB.gens))


def module_roundtrip(module, rng=None):
    """Convert the triple to a column module and re-extract the triple.

    The corner action (0, mu, 0) applied to a lift (z, e_j) of the j-th
    N_B generator recovers f; the rebuilt triple keeps N_A and N_B.  The
    a = b = 0 corner kills the lift z exactly, which is asserted against
    random lifts when an rng is supplied.
    """
    fam = module.family
    extracted = []
    for mu in fam.basis():
        corner = TriElement(fam, fam.a_ring.zero(), mu, fam.b_ring.zero())
        block = []
        for j in range(module.NB.gens):
            unit_b = [1 if t == j else 0 for t in range(module.NB.gens)]
            image = action(module, corner, ([0] * module.NA.gens, unit_b))
            assert all(c == 0 for c in image[1]), "corner action must land in the N_A part"
            if rng is not None:
                other = action(module, corner, (module.NA.random_vector(rng, 5), unit_b))
                assert other[0] == image[0], "extracted f depends on the lift"
            block.append(image[0])
        extracted.append(block)
    return TripleModule(fam, module.NA, module.NB, extracted)


def entry_json(c):
    return c if isinstance(c, int) else f"{c.numerator}/{c.denominator}"


def triple_to_json(module):
    """The JSON wire format that triple_from_json reads."""
    fam = module.family
    rows = lambda vectors: [[entry_json(c) for c in vec] for vec in vectors]
    return {
        "family": fam.to_json(),
        "NA": {"gens": module.NA.gens, "rels": rows(module.NA.rows)},
        "NB": {"gens": module.NB.gens, "rels": rows(module.NB.rows)},
        "f": {fam.fmt_m(mu): rows(module.f[i]) for i, mu in enumerate(fam.basis())},
    }


def direct_formula(fam, r1, r2):
    """Independent evaluation of the triangular product formula."""
    return (
        fam.a_ring.mul(r1.a, r2.a),
        fam.add_m(fam.apply(r1.a, r2.m, fam.b_one), fam.apply(fam.a_one, r1.m, r2.b)),
        fam.b_ring.mul(r1.b, r2.b),
    )


class TestTriMul:
    def test_integer_example(self):
        fam = RegularFamily("Z")
        r1 = TriElement(fam, 1, 2, 3)
        r2 = TriElement(fam, 4, 5, 6)
        prod = tri_mul(r1, r2)
        # direct formula: (1*4, 1*5 + 2*6, 3*6)
        assert (prod.a, prod.m, prod.b) == (4, 17, 18)

    def test_unit(self):
        rng = random.Random(1)
        for fam in shipped_families():
            r = random_tri(fam, rng, 5)
            assert tri_mul(r, TriElement.one(fam)) == r
            assert tri_mul(TriElement.one(fam), r) == r

    def test_strictly_upper_squares_to_zero(self):
        rng = random.Random(2)
        for fam in shipped_families():
            m1, m2 = fam.random_m(rng), fam.random_m(rng)
            n1 = TriElement(fam, fam.a_ring.zero(), m1, fam.b_ring.zero())
            n2 = TriElement(fam, fam.a_ring.zero(), m2, fam.b_ring.zero())
            assert tri_mul(n1, n2) == TriElement.zero(fam)

    def test_associative_random(self):
        rng = random.Random(3)
        for fam in shipped_families():
            for _ in range(1000):
                r1, r2, r3 = (random_tri(fam, rng, 4) for _ in range(3))
                assert tri_mul(tri_mul(r1, r2), r3) == tri_mul(r1, tri_mul(r2, r3))
                assert tri_mul(r1, r2) == TriElement(fam, *direct_formula(fam, r1, r2))


class TestColumns:
    def test_split_join_round_trip(self):
        rng = random.Random(4)
        for fam in shipped_families():
            r = random_tri(fam, rng, 5)
            a, q = column_split(r)
            assert column_join(fam, a, q) == r

    def test_split_respects_left_multiplication(self):
        rng = random.Random(5)
        for fam in shipped_families():
            for _ in range(100):
                r = random_tri(fam, rng, 4)
                s = random_tri(fam, rng, 4)
                a, q = column_split(s)
                prod = tri_mul(r, s)
                pa, pq = column_split(prod)
                assert pa == act_p(r, a)
                mq = act_q(r, q)
                assert pq[0] == mq[0] and pq[1] == mq[1]

    def test_sigma_image(self):
        for fam in shipped_families():
            m, b = SigmaMorphism(fam).apply(fam.a_one)
            assert m == fam.p
            assert b == fam.b_ring.zero()
            m0, _ = SigmaMorphism(fam).apply(fam.a_ring.zero())
            assert m0 == fam.zero_m()

    def test_sigma_scaled_example(self):
        fam = ScaledFamily(2)
        m, b = SigmaMorphism(fam).apply(3)
        assert (m, b) == (6, 0)


class TestTripleModules:
    def test_action_formula(self):
        fam = RegularFamily("Z")
        # N_A = N_B = Z with f = multiplication by d
        d = 5
        mod = TripleModule(fam, FPModule("Z", 1), FPModule("Z", 1), [[[d]]])
        rng = random.Random(6)
        for _ in range(100):
            a, m, b = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            out = action(mod, TriElement(fam, a, m, b), ([x], [y]))
            assert out == ([a * x + d * m * y], [b * y])

    def test_identity_acts_as_identity(self):
        fam = DoubleFamily("Q")
        mod = TripleModule(fam, FPModule("Q", 2), FPModule("Q", 1), [[[1, 0]], [[0, 1]]])
        rng = random.Random(7)
        n = (mod.NA.random_vector(rng, 5), mod.NB.random_vector(rng, 5))
        assert action(mod, TriElement.one(fam), n) == n

    def test_corner_action(self):
        fam = RegularFamily("Z")
        mod = TripleModule(fam, FPModule("Z", 1), FPModule("Z", 1), [[[3]]])
        out = action(mod, TriElement(fam, 0, 2, 0), ([9], [4]))
        assert out == ([3 * 2 * 4], [0])

    def test_action_is_module_action(self):
        fam = ScaledFamily(2)
        mod = TripleModule(fam, FPModule("Z", 2, [[2, 0]]), FPModule("Z", 1), [[[1, 1]]])
        rng = random.Random(8)
        for _ in range(200):
            r1 = random_tri(fam, rng, 4)
            r2 = random_tri(fam, rng, 4)
            n = (mod.NA.random_vector(rng, 5), mod.NB.random_vector(rng, 5))
            lhs = action(mod, tri_mul(r1, r2), n)
            rhs = action(mod, r1, action(mod, r2, n))
            assert lhs == rhs

    def test_well_definedness_enforced(self):
        fam = RegularFamily("Z")
        # N_B = Z/2 but f sends the generator to an odd multiple: 3 * (2 n) = 6 n
        # must land in the span of N_A relations; with no relations it cannot.
        with pytest.raises(SchemaError):
            TripleModule(fam, FPModule("Z", 1), FPModule("Z", 1, [[2]]), [[[3]]])
        # with the matching relation 6 in N_A it is fine
        TripleModule(fam, FPModule("Z", 1, [[6]]), FPModule("Z", 1, [[2]]), [[[3]]])

    def test_families_without_basis_rejected(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        with pytest.raises(UnsupportedFamilyError):
            TripleModule(fam, FPModule("Q", 1), FPModule("Q", 1), [[[1]]])


class TestRoundTrip:
    def test_zero_sides(self):
        fam = RegularFamily("Z")
        only_a = TripleModule(fam, FPModule("Z", 2, [[2, 0]]), FPModule("Z", 0), [[]])
        back = module_roundtrip(only_a)
        assert back.NA.rows == only_a.NA.rows and back.NB.gens == 0
        only_b = TripleModule(fam, FPModule("Z", 0), FPModule("Z", 1), [[[]]])
        back = module_roundtrip(only_b)
        assert back.NA.gens == 0 and back.NB.gens == 1

    def test_multiplication_triple(self):
        fam = RegularFamily("Z")
        mod = TripleModule(fam, FPModule("Z", 1), FPModule("Z", 1), [[[4]]])
        back = module_roundtrip(mod, rng=random.Random(9))
        assert back.f == mod.f

    def test_lift_independence_checked(self):
        fam = ScaledFamily(2)
        mod = TripleModule(fam, FPModule("Z", 2), FPModule("Z", 2), [[[1, 2], [3, 4]]])
        back = module_roundtrip(mod, rng=random.Random(10))
        assert back.f == mod.f

    def test_keeps_relations_and_f(self):
        fam = DoubleFamily("Q")
        mod = TripleModule(
            fam,
            FPModule("Q", 2, [[1, 2], [6, 4]]),
            FPModule("Q", 2, [[1, -1]]),
            [[[1, 0], [1, 0]], [[0, 3], [0, 3]]],
        )
        back = module_roundtrip(mod, rng=random.Random(11))
        assert back.NA.rows == mod.NA.rows and back.NB.rows == mod.NB.rows
        assert back.f == mod.f


class TestJson:
    def test_round_trip(self):
        fam = DoubleFamily("Q")
        mod = TripleModule(
            fam,
            FPModule("Q", 2, [[1, 2]]),
            FPModule("Q", 1),
            [[[1, 0]], [[0, 1]]],
        )
        doc = triple_to_json(mod)
        again = triple_from_json(fam, doc)
        assert triple_to_json(again) == doc

    def test_schema_errors(self):
        fam = RegularFamily("Z")
        with pytest.raises(SchemaError):
            triple_from_json(fam, {"NA": {"gens": 1}})
        with pytest.raises(SchemaError):
            triple_from_json(fam, {"NA": {"gens": 1}, "NB": {"gens": 1}, "f": {"oops": [[1]]}})
        with pytest.raises(SchemaError):
            triple_from_json(fam, {"NA": {"gens": "x"}, "NB": {"gens": 1}})

    @pytest.mark.parametrize("doc, message", [
        ({"NA": {"gens": 1}, "NB": {"gens": 1}, "fam": {}}, "unknown field 'fam' in module spec; expected family, NA, NB, f"),
        # "relations" for "rels" left N_A free of rank 1 where Z/3 was meant
        ({"NA": {"gens": 1, "relations": [[3]]}, "NB": {"gens": 0}}, "unknown field 'relations' in NA; expected gens, rels"),
        ({"NA": {"gens": 1}, "NB": {"gens": 1, "rel": []}}, "unknown field 'rel' in NB; expected gens, rels"),
    ], ids=["top", "NA", "NB"])
    def test_unknown_field_is_rejected(self, doc, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            triple_from_json(RegularFamily("Z"), doc)

    def test_rational_entries(self):
        fam = DoubleFamily("Q")
        doc = {
            "NA": {"gens": 1, "rels": [["1/2"]]},
            "NB": {"gens": 0, "rels": []},
            "f": {},
        }
        mod = triple_from_json(fam, doc)
        from fractions import Fraction

        assert mod.NA.rows == [[Fraction(1, 2)]]
