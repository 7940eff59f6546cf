"""Hypothesis law tests for the T-ring and the exact kernels."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_linalg import solve_left
from trilocal.families import DoubleFamily, ScaledFamily, shipped_families
from trilocal.linalg import Matrix, diagonal_form, in_row_span
from trilocal.rings import QQ, ZZ, KadicRing, Polynomial, PolynomialRing, norm_scalar
from trilocal.tring import (
    Add,
    Const,
    Gen,
    Mul,
    Neg,
    Pow,
    TElement,
    eval_tree,
    family_iso,
    t_generator,
    t_mul,
    t_normalize,
)

S2 = ScaledFamily(2)
DQ = DoubleFamily("Q")
QX = PolynomialRing("Q")

small_ints = st.integers(min_value=-30, max_value=30)


@st.composite
def scaled_elements(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    out = TElement.zero(S2)
    for _ in range(n):
        out = out + t_generator(S2, draw(small_ints))
    return out


@st.composite
def double_elements(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    out = TElement.zero(DQ)
    for _ in range(n):
        m = (draw(small_ints), draw(small_ints))
        piece = t_generator(DQ, m)
        if draw(st.booleans()):
            piece = t_mul(piece, t_generator(DQ, (0, 1)))
        out = out + piece
    return out


class TestScaledLaws:
    @given(scaled_elements(), scaled_elements(), scaled_elements())
    @settings(max_examples=200)
    def test_associativity(self, a, b, c):
        assert t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c))

    @given(scaled_elements(), scaled_elements(), scaled_elements())
    @settings(max_examples=200)
    def test_distributivity(self, a, b, c):
        lhs = t_mul(a, b + c)
        rhs = t_mul(a, b) + t_mul(a, c)
        assert lhs == rhs

    @given(scaled_elements())
    def test_oracle_injective_on_canonical_forms(self, a):
        value = family_iso(a)
        assert norm_scalar(value) is value and KadicRing(2).exponent(value) is not None
        if not a.terms:
            assert value == 0
        else:
            ((word, coeff),) = a.terms.items()
            assert value == Fraction(coeff, 2 ** len(word))


class TestDoubleLaws:
    @given(double_elements(), double_elements(), double_elements())
    @settings(max_examples=150)
    def test_associativity(self, a, b, c):
        assert t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c))

    @given(double_elements(), double_elements())
    @settings(max_examples=150)
    def test_oracle_homomorphism(self, a, b):
        assert family_iso(t_mul(a, b)) == family_iso(a) * family_iso(b)
        assert family_iso(a + b) == family_iso(a) + family_iso(b)


@st.composite
def trees(draw, fam, size):
    """A random expression tree whose normal form has at most about size terms.

    Products split the size between their factors and a power takes its
    root, so no tree makes a large element in a free-algebra family.
    """
    kinds = ["const", "gen"] + (["add", "mul", "neg", "pow"] if size >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return Const(draw(st.integers(-3, 3)))
    if kind == "gen":
        m = fam.random_m(random.Random(draw(st.integers(0, 2 ** 16))), 3)
        return Gen(m if len(fam.letter_terms(m)) <= size else fam.p)
    if kind == "add":
        items = draw(st.integers(2, 3))
        return Add(tuple(draw(trees(fam, size // items)) for _ in range(items)))
    if kind == "mul":
        first = draw(st.integers(1, size // 2))
        return Mul((draw(trees(fam, first)), draw(trees(fam, size // first))))
    if kind == "neg":
        return Neg(draw(trees(fam, size)))
    n = draw(st.integers(0, 5))
    return Pow(draw(trees(fam, int(size ** (1 / max(n, 1))))), n)


SHIPPED = shipped_families()


@pytest.mark.parametrize("fam", SHIPPED, ids=lambda f: f.kind)
class TestEvaluatorReference:
    """t_normalize against eval_tree in the oracle ring, and ** against repeated t_mul."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_normalize_matches_oracle_evaluation(self, fam, data):
        tree = data.draw(trees(fam, 48))
        via_normal = family_iso(t_normalize(fam, tree))
        via_oracle = eval_tree(tree, fam.oracle, lambda m: family_iso(t_generator(fam, m)))
        assert via_normal == via_oracle

    @given(data=st.data())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_power_matches_repeated_product(self, fam, data):
        e = t_normalize(fam, data.draw(trees(fam, 2)))
        product = TElement.one(fam)
        for n in range(7):
            assert e ** n == product
            product = t_mul(product, e)


class TestSmithProperties:
    @given(st.lists(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4),
                    min_size=1, max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=150, deadline=None)
    def test_snf_certificate(self, rows):
        mat = Matrix(ZZ, rows)
        snf = diagonal_form(mat)
        assert snf.U * mat * snf.V == snf.D
        diag = snf.diagonal()
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0


# ring, a map from two small ints to an element, and a non-unit p (None over a field)
MEMBERSHIP_RINGS = {
    "Z": (ZZ, lambda n, e: n, 2),
    "Z[1/2]": (KadicRing(2), lambda n, e: norm_scalar(Fraction(n, 2 ** e)), 3),
    "Q": (QQ, lambda n, e: Fraction(n, e + 1), None),
    "Q[x]": (QX, lambda n, e: Polynomial("Q", [n, e - 1]), Polynomial("Q", [0, 1])),
}


@st.composite
def membership_cases(draw):
    """(ring, M, members, free-column vector, divisibility vector or None).

    M has a zero column (so the unit vector there lies off every member),
    may have zero rows, duplicated rows and more rows than columns; over a
    ring with a non-unit p one column is scaled by p and p * e_j is a row,
    so e_j + (a member) is torsion in the cokernel but not a member.
    """
    name = draw(st.sampled_from(sorted(MEMBERSHIP_RINGS)))
    ring, elem, p = MEMBERSHIP_RINGS[name]
    entry = st.builds(elem, st.integers(-6, 6), st.integers(0, 2))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(2, 4))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    free = draw(st.integers(0, n - 1))
    torsion = draw(st.integers(0, n - 1).filter(lambda j: j != free))
    for row in rows:
        row[free] = ring.zero()
        if p is not None:
            row[torsion] = ring.mul(p, row[torsion])
    if draw(st.booleans()):
        rows.append([ring.zero()] * n)
    if draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    unit = [[ring.one() if j == k else ring.zero() for j in range(n)] for k in range(n)]
    if p is not None:
        rows.append([ring.mul(p, x) for x in unit[torsion]])
    draw(st.randoms()).shuffle(rows)
    members = [combine(ring, [draw(entry) for _ in rows], rows) for _ in range(2)]
    off_free = [ring.add(a, b) for a, b in zip(members[0], unit[free])]
    off_divisor = [ring.add(a, b) for a, b in zip(members[1], unit[torsion])] if p is not None else None
    return ring, Matrix(ring, rows), members, off_free, off_divisor


def combine(ring, coeffs, rows):
    """The row vector sum_i coeffs[i] * rows[i], entry by entry."""
    out = [ring.zero()] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [ring.add(a, ring.mul(c, b)) for a, b in zip(out, row)]
    return out


class TestMembershipMatchesSolving:
    @given(membership_cases())
    @settings(max_examples=150, deadline=None)
    def test_in_row_span_agrees_with_solve_left(self, case):
        ring, mat, members, off_free, off_divisor = case
        form = diagonal_form(mat)
        for v in members:
            x = solve_left(form, v)
            assert in_row_span(form, v) and x is not None
            assert all(a == b for a, b in zip(combine(ring, x, mat.rows), v))
        for v in (off_free, off_divisor):
            if v is None:
                continue
            assert not in_row_span(form, v)
            assert solve_left(form, v) is None
