"""Exact scalar, k-adic, polynomial and free-algebra arithmetic."""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_impls import _k_free, kadic_exponent
from test_hot_path import HNN_SUM, benchmark_shaped_triple
from trilocal.errors import AlphabetMismatchError, UnsupportedRingError
from trilocal.exprs import parse_element
from trilocal.families import DoubleFamily, HnnFreeFamily
from trilocal.modloc import localize_module
from trilocal.rings import (
    FreeAlgebra,
    FreeAlgebraElement,
    KadicRing,
    Polynomial,
    PolynomialRing,
    QQ,
    ZZ,
    norm_scalar,
    scalar_add,
    kadic_valuation,
    scalar_mul,
    strip_factors_of,
)
from trilocal.tring import family_iso, t_mul, t_normalize

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
scalars = st.one_of(st.integers(min_value=-10**9, max_value=10**9), rationals)


class TestScalars:
    def test_add_half_third(self):
        # cross-multiplication oracle: 1/2 + 1/3 = (1*3 + 1*2) / 6
        expected = Fraction(1 * 3 + 1 * 2, 2 * 3)
        got = scalar_add(Fraction(1, 2), Fraction(1, 3))
        assert got == expected == Fraction(5, 6)

    @given(scalars)
    def test_mul_identity(self, x):
        assert scalar_mul(x, 1) == x

    @given(scalars)
    def test_additive_inverse(self, x):
        assert scalar_add(x, -x) == 0

    @given(scalars, scalars)
    def test_canonical_form(self, x, y):
        z = norm_scalar(Fraction(scalar_add(x, y)))
        if isinstance(z, Fraction):
            assert z.denominator > 1
            # Fraction keeps lowest terms and a positive denominator
            from math import gcd

            assert gcd(z.numerator, z.denominator) == 1
        else:
            assert isinstance(z, int)

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(1000):
            a, b, c = (QQ.random(rng) for _ in range(3))
            assert scalar_mul(scalar_mul(a, b), c) == scalar_mul(a, scalar_mul(b, c))
            assert scalar_mul(a, scalar_add(b, c)) == scalar_add(scalar_mul(a, b), scalar_mul(a, c))
            assert scalar_mul(a, 1) == a

    def test_dispatcher(self):
        assert scalar_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
        assert scalar_mul(6, 7) == 42


def canonical_type(x):
    """The type a canonical scalar of value x has: int, or Fraction when
    its denominator is > 1."""
    return int if Fraction(x).denominator == 1 else Fraction


@pytest.mark.parametrize("ring, params", [(ZZ, (-1,)), (KadicRing(2), (-3,)), (PolynomialRing("Q"), (4, -1))])
def test_empty_range_raises_at_the_draw(ring, params):
    rng = random.Random(1)
    with pytest.raises(ValueError):
        ring.random(rng, *params)


class TestKadic:
    """Z[1/k] stores its elements as canonical scalars; KadicRing decides
    membership, units, unit_normal, exact_div and exponents."""

    def test_normalize_examples(self):
        def canonical(k, num, r):  # num / k**r as an element, and its exponent
            ring = KadicRing(k)
            x = ring.exact_div(num, k ** r)
            return type(x), x, ring.exponent(x)

        assert canonical(2, 4, 1) == (int, 2, 0)
        assert canonical(2, 3, 1) == (Fraction, Fraction(3, 2), 1)
        assert canonical(2, 0, 5) == (int, 0, 0)
        assert canonical(6, 5, 3) == (Fraction, Fraction(5, 216), 3)
        assert canonical(6, 9, 2) == (Fraction, Fraction(1, 4), 2)  # 4 divides 6**2, not 6

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            KadicRing(1)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=0, max_value=12))
    def test_idempotent_and_value_preserving(self, k, num, r):
        ring = KadicRing(k)
        x = ring.exact_div(num, k ** r)
        assert x == Fraction(num, k ** r) and type(x) is canonical_type(x)
        assert norm_scalar(x) is x
        e = ring.exponent(x)
        assert e <= r and (x * k ** e).denominator == 1
        assert e == 0 or (x * k ** (e - 1)).denominator != 1  # the least such exponent

    def test_membership(self):
        two, six = KadicRing(2), KadicRing(6)
        assert two.exponent(Fraction(3, 8)) == 3 and six.exponent(Fraction(1, 12)) == 2
        assert two.exponent(Fraction(1, 6)) is None and six.exponent(Fraction(7, 10)) is None
        assert two.exact_div(Fraction(1, 2), 3) is None  # 1/6
        assert six.exact_div(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 3)

    def test_units(self):
        six = KadicRing(6)
        assert six.is_unit(4)  # 4 = 2^2 divides a power of 6
        assert six.is_unit(Fraction(9, 36))
        assert six.is_unit(-1)
        assert not six.is_unit(Fraction(5, 6))
        assert not KadicRing(2).is_unit(0)
        assert six.unit_normal(Fraction(-10, 3)) == (5, Fraction(-2, 3))
        assert six.unit_normal(12) == (1, 12) and six.unit_normal(0) == (0, 1)

    def test_arith_matches_fractions(self):
        rng = random.Random(11)
        ring = KadicRing(6)
        for _ in range(1000):
            a, b = ring.random(rng), ring.random(rng)
            assert type(a) is canonical_type(a) and ring.exponent(a) <= 2
            for got, value in (
                (ring.add(a, b), Fraction(a) + Fraction(b)),
                (ring.mul(a, b), Fraction(a) * Fraction(b)),
                (ring.sub(a, b), Fraction(a) - Fraction(b)),
            ):
                assert got == value and type(got) is canonical_type(value)

    def test_random_draws(self):
        # the drawn int itself when the drawn exponent is 0, and the same
        # generator calls as two randint draws
        ring = KadicRing(2)
        rng, twin = random.Random(3), random.Random(3)
        for _ in range(200):
            n, e = twin.randint(-9, 9), twin.randint(0, 2)
            x = ring.random(rng)
            assert x == Fraction(n, 2 ** e) and type(x) is canonical_type(x)
        assert rng.getstate() == twin.getstate()

    def test_exact_div(self):
        ring = KadicRing(2)
        q = ring.exact_div(ring.from_int(3), ring.from_int(6))
        assert q == Fraction(1, 2) and type(q) is Fraction
        assert type(ring.exact_div(6, 3)) is int and type(ring.exact_div(Fraction(3, 2), Fraction(3, 4))) is int
        assert ring.exact_div(ring.from_int(5), ring.from_int(3)) is None
        assert ring.exact_div(1, 0) is None

    def test_strip_factors(self):
        assert strip_factors_of(12, 2) == 3
        assert strip_factors_of(-45, 6) == -5
        assert strip_factors_of(0, 5) == 0

    @pytest.mark.parametrize("k", [2, 3, 6, 10, 12])
    def test_valuation_matches_the_gcd_loops(self, k):
        """exponent and strip_factors_of agree with one-gcd-per-step references:
        on random canonical scalars, on u*k**r and u/k**r with r up to a few
        thousand, and on denominators with a prime outside k (7, 11 and 13
        divide no k here), which no power of k clears."""
        ring, rng = KadicRing(k), random.Random(k)

        def agree(x):
            x = Fraction(x)
            want = kadic_exponent(x.denominator, k)
            assert ring.exponent(x) == want and kadic_valuation(x.denominator, k) == want
            n = x.numerator
            assert strip_factors_of(n, k) == (0 if n == 0 else (1 if n > 0 else -1) * _k_free(n, k))

        for _ in range(300):
            agree(ring.random(rng))
            agree(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)))
        for _ in range(25):
            u, r = rng.choice([-1, 1]) * rng.randint(1, 10 ** 12), rng.randint(0, 3000)
            agree(u * k ** r)
            agree(Fraction(u, k ** r))
            q = rng.choice([7, 11, 13])  # a numerator prime to q keeps q in the denominator
            outside = Fraction(u * q + rng.randint(1, q - 1), k ** r * q ** rng.randint(1, 3))
            agree(outside)
            assert ring.exponent(outside) is None


class TestPolynomial:
    def test_mul_examples(self):
        # convolution oracle computed by hand: (2 + 3x) * x
        two_three = Polynomial("Z", [2, 3])
        x = Polynomial("Z", [0, 1])
        assert two_three * x == Polynomial("Z", [0, 2, 3])
        one_plus = Polynomial("Q", [1, 1])
        one_minus = Polynomial("Q", [1, -1])
        assert one_plus * one_minus == Polynomial("Q", [1, 0, -1])

    def test_identity(self):
        p = Polynomial("Q", [Fraction(1, 2), 0, 3])
        assert p * Polynomial("Q", [1]) == p

    def test_leading_invariant(self):
        p = Polynomial("Z", [1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert Polynomial("Z", [0, 0]).is_zero()

    def test_divmod(self):
        ring = PolynomialRing("Q")
        rng = random.Random(3)
        for _ in range(300):
            a = ring.random(rng, degree=4)
            b = ring.random(rng, degree=2)
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert len(r.nums) < len(b.nums)

    def test_unit_normal(self):
        ring = PolynomialRing("Q")
        monic, other = Polynomial("Q", [Fraction(1, 2), 0, 1]), Polynomial("Q", [1, Fraction(-2, 3)])
        assert ring.unit_normal(monic) == (monic, ring.one())
        assert ring.unit_normal(other) == (Polynomial("Q", [Fraction(-3, 2), 1]), Polynomial("Q", [Fraction(-2, 3)]))
        assert ring.unit_normal(ring.zero()) == (ring.zero(), ring.one())

    def test_divmod_needs_field(self):
        with pytest.raises(UnsupportedRingError):
            Polynomial("Z", [1, 1]).divmod(Polynomial("Z", [2]))

    def test_ring_axioms_random(self):
        ring = PolynomialRing("Q")
        rng = random.Random(5)
        for _ in range(1000):
            a, b, c = (ring.random(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


DERANDOMIZED = settings(max_examples=150, derandomize=True, database=None, deadline=None)
# small denominators, so that sums and products often have denominator 1
coeffs_z = st.lists(st.integers(min_value=-6, max_value=6), max_size=5)
coeffs_q = st.lists(st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3, 4])), max_size=5)
polys = st.one_of(
    st.tuples(st.just("Z"), coeffs_z, coeffs_z, st.integers(min_value=-3, max_value=3)),
    st.tuples(st.just("Q"), coeffs_q, coeffs_q, st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from([1, 2]))),
)
# one operand that Polynomial arithmetic takes a short path on (zero, one,
# minus one or another constant), one drawn as above, and which comes first
short_paths = st.one_of(
    st.tuples(st.just("Z"), st.sampled_from([[], [1], [-1], [3], [-2]]), coeffs_z, st.booleans()),
    st.tuples(st.just("Q"), st.sampled_from([[], [1], [-1], [Fraction(1, 2)], [Fraction(-3, 4)], [2]]), coeffs_q, st.booleans()),
)
kadics = st.tuples(st.integers(min_value=-40, max_value=40), st.integers(min_value=0, max_value=3))  # (num, exp)
# free-algebra term maps on two letters, with zero and denominator-1 coefficients among them
free_words = st.lists(st.integers(min_value=0, max_value=1), max_size=2).map(tuple)
free_coeffs_z = st.integers(min_value=-4, max_value=4)
free_coeffs_q = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.sampled_from([1, 2]))
frees = st.one_of(
    st.tuples(st.just("Z"), *[st.dictionaries(free_words, free_coeffs_z, max_size=3)] * 2, free_coeffs_z),
    st.tuples(st.just("Q"), *[st.dictionaries(free_words, free_coeffs_q, max_size=3)] * 2, free_coeffs_q),
)


def dense(p, n):
    return [Fraction(c) for c in p.coeffs] + [Fraction(0)] * (n - len(p.coeffs))


def free_value(terms):
    """A term map as {word: nonzero Fraction}, the reference for free-algebra results."""
    return {w: Fraction(c) for w, c in terms.items() if c != 0}


def free_sum(*maps):
    out = {}
    for terms in maps:
        for w, c in free_value(terms).items():
            out[w] = out.get(w, 0) + c
    return free_value(out)


def free_product(x, y):
    return free_sum(*({w1 + w2: c1 * c2} for w1, c1 in free_value(x).items() for w2, c2 in free_value(y).items()))


def free_as_rebuilt(e):
    """e, checked to be exactly what the public constructor makes of its terms:
    tuple words, no zero coefficient, canonical scalars, in the same order."""
    rebuilt = FreeAlgebraElement(e.ring, e.gens, e.terms)
    assert [(w, type(c), c) for w, c in e.terms.items()] == [(w, type(c), c) for w, c in rebuilt.terms.items()]
    assert all(type(w) is tuple for w in e.terms)
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in e.terms.values())
    assert 0 not in e.terms.values()
    return e


def stored(p):
    """p, checked to hold the stored form: int numerators over one positive
    int denominator, with no factor common to all of them, no trailing zero
    numerator, zero as ((), 1) and denominator 1 over Z."""
    assert type(p.nums) is tuple and all(type(x) is int for x in p.nums)
    assert type(p.den) is int and p.den > 0 and gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.ring == "Q" or p.den == 1
    return p


def as_rebuilt(p):
    """p, checked to hold the stored form and to be exactly what the public
    constructor makes of its coefficients, down to the hash."""
    rebuilt = Polynomial(p.ring, p.coeffs)
    assert (stored(p).nums, p.den) == (stored(rebuilt).nums, rebuilt.den) and hash(p) == hash(rebuilt)
    assert [(type(c), c) for c in p.coeffs] == [(type(c), c) for c in rebuilt.coeffs]
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    return p


class TestArithmeticResultsAreCanonical:
    """Arithmetic builds its results without the public constructor's
    checks; each result must be what the public constructor would build,
    in the stored form of int numerators over one common denominator."""

    @staticmethod
    def check_arithmetic(a, b):
        """a + b, a - b, a * b and, over Q with b nonzero, divmod(a, b) are what
        the Fraction reference gives, coefficient type for type."""
        ring = a.ring
        n = len(a.coeffs) + len(b.coeffs)
        da, db = dense(a, n), dense(b, n)

        def same(got, values):
            want = stored(Polynomial(ring, values))
            assert [(type(x), x) for x in as_rebuilt(got).coeffs] == [(type(x), x) for x in want.coeffs]
            assert got == want and hash(got) == hash(want)

        same(a + b, [x + y for x, y in zip(da, db)])
        same(a - b, [x - y for x, y in zip(da, db)])
        same(a * b, [sum((da[i] * db[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)])
        if ring == "Q" and not b.is_zero():
            q, r = a.divmod(b)
            assert as_rebuilt(q) * b + as_rebuilt(r) == a and len(r.nums) < len(b.nums)
            if len(b.nums) == 1:  # a constant divides exactly
                same(q, [x / db[0] for x in da])
                assert r.coeffs == ()

    @DERANDOMIZED
    @given(polys)
    @example(("Q", [Fraction(1, 2)], [Fraction(1, 2)], Fraction(2)))  # 1/2 + 1/2 and 2 * 1/2 are int
    @example(("Q", [Fraction(1, 2), Fraction(3, 4)], [Fraction(1, 2), Fraction(3, 4)], Fraction(0)))  # a - a is ()
    @example(("Z", [0, 1], [0, -1], 0))  # x + (-x) is ()
    def test_polynomial(self, case):
        ring, xs, ys, c = case
        a, b = Polynomial(ring, xs), Polynomial(ring, ys)
        self.check_arithmetic(a, b)
        da = dense(a, len(a.coeffs))
        assert as_rebuilt(-a) == Polynomial(ring, [-x for x in da])
        assert as_rebuilt(a * Polynomial(ring, [c])) == Polynomial(ring, [c * x for x in da])
        assert (a - a).coeffs == () and (a * Polynomial(ring, [])).coeffs == ()
        alg = PolynomialRing(ring)
        pairs = [(x, p) for x, p in ((c, a), (2, b), (-1, a)) if x != 0]
        want = Polynomial(ring, [])
        for x, p in pairs:
            want = want + p * Polynomial(ring, [x])
        assert as_rebuilt(alg.combination(pairs)) == want
        if ring == "Q":
            rep, unit = alg.unit_normal(a)
            assert as_rebuilt(unit) * as_rebuilt(rep) == a and alg.is_unit(unit)
            assert rep.coeffs[-1:] in ((), (1,))

    @DERANDOMIZED
    @given(polys)
    @example(("Q", [Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2)], Fraction(2)))
    def test_equal_values_hash_alike(self, case):
        ring, xs, ys, c = case
        a, b = Polynomial(ring, xs), Polynomial(ring, ys)
        routes = [
            Polynomial(ring, [Fraction(x) for x in xs] + [0]),
            Polynomial(ring, a.coeffs),
            (a + b) - b,
            b + a - b,
            -(-a),
            a * PolynomialRing(ring).one(),
            PolynomialRing(ring).combination([(1, a), (1, b), (-1, b)]),
        ]
        if c:
            ac = a * Polynomial(ring, [c])
            routes.append(ac * Polynomial(ring, [1 / Fraction(c)]) if ring == "Q" else (ac + a) - ac)
        if ring == "Q" and not b.is_zero():
            routes.append((a * b).divmod(b)[0])
        for x in routes:
            assert x == a and hash(x) == hash(a) and {a: True}[x]

    def test_constructor_refuses_fractions_over_z(self):
        with pytest.raises(UnsupportedRingError):
            Polynomial("Z", [Fraction(1, 2), 1])
        assert Polynomial("Z", [Fraction(4, 2), 1]) == Polynomial("Z", [2, 1])
        assert Polynomial("Q", [Fraction(1, 2), 1]).coeffs == (Fraction(1, 2), 1)

    @DERANDOMIZED
    @given(short_paths)
    @example(("Q", [Fraction(-3, 4)], [0, Fraction(4, 3)], False))  # 4/3 x * -3/4 is -x, and 4/3 x / (-3/4) is -16/9 x
    @example(("Q", [2], [0, Fraction(1, 2)], False))  # 1/2 x * 2 is x, and 1/2 x / 2 is 1/4 x
    def test_polynomial_short_paths(self, case):
        ring, short, xs, short_first = case
        a, b = Polynomial(ring, short), Polynomial(ring, xs)
        self.check_arithmetic(*((a, b) if short_first else (b, a)))

    @pytest.mark.parametrize("a, b", [
        (Polynomial("Q", []), Polynomial("Z", [1, 2])),
        (Polynomial("Z", [1, 2]), Polynomial("Q", [])),
        (Polynomial("Q", [1]), Polynomial("Z", [0, 1])),
        (Polynomial("Z", [0, 1]), Polynomial("Q", [1])),
        (Polynomial("Q", [Fraction(1, 2)]), Polynomial("Z", [3])),
        (Polynomial("Z", []), Polynomial("Q", [])),
        (Polynomial("Q", [1]), 2),
        (Polynomial("Q", []), 0),
    ])
    def test_short_paths_still_refuse_mixed_operands(self, a, b):
        for op in (operator.add, operator.sub, operator.mul, Polynomial.divmod):
            with pytest.raises(UnsupportedRingError):
                op(a, b)

    def test_constant_division_still_refuses(self):
        for a in (Polynomial("Q", [1, 2]), Polynomial("Q", [3]), Polynomial("Q", [])):
            with pytest.raises(ZeroDivisionError):
                a.divmod(Polynomial("Q", []))
        for b in (Polynomial("Z", [1]), Polynomial("Z", [2]), Polynomial("Z", [-1])):
            with pytest.raises(UnsupportedRingError):
                Polynomial("Z", [2, 4]).divmod(b)

    @DERANDOMIZED
    @given(st.sampled_from([2, 6]), kadics, kadics)
    @example(2, (1, 1), (1, 1))  # 1/2 + 1/2 = 1
    @example(6, (2, 1), (3, 1))  # 1/3 * 1/2 = 1/6 and 1/3 - 1/3 = 0
    def test_kadic(self, k, x, y):
        ring = KadicRing(k)
        a, b = (norm_scalar(Fraction(num, k ** e)) for num, e in (x, y))
        for got, value in (
            (ring.add(a, b), Fraction(a) + Fraction(b)),
            (ring.sub(a, b), Fraction(a) - Fraction(b)),
            (ring.neg(a), -Fraction(a)),
            (ring.mul(a, b), Fraction(a) * Fraction(b)),
            (ring.sub(a, a), Fraction(0)),
        ):
            assert got == value and type(got) is canonical_type(value)
            assert ring.exponent(got) is not None

    @DERANDOMIZED
    @given(frees)
    @example(("Q", {(0,): Fraction(1, 2)}, {(0,): Fraction(1, 2)}, Fraction(4, 2)))  # 1/2 + 1/2 and 2 * 1/2 are int
    @example(("Q", {(0,): Fraction(1, 2), (1, 0): 3}, {(0,): Fraction(-1, 2), (1, 0): -3}, Fraction(0)))  # a + (-a) is {}
    @example(("Z", {(): 2, (1,): 0}, {(0, 1): -1}, 0))  # a zero coefficient given to the constructor
    def test_free_algebra(self, case):
        ring, xs, ys, c = case
        alg = FreeAlgebra(ring, ("s", "u"))
        a, b = FreeAlgebraElement(ring, alg.gens, xs), FreeAlgebraElement(ring, alg.gens, ys)
        minus_b = {w: -v for w, v in ys.items()}
        for got, terms in (
            (a + b, free_sum(xs, ys)),
            (a + -b, free_sum(xs, minus_b)),
            (-a, free_sum({w: -v for w, v in xs.items()})),
            (a * b, free_product(xs, ys)),
            (a * alg.from_int(c), free_sum({w: c * v for w, v in xs.items()})),
            (alg.combination((1, x) for x in (a, b, a)), free_sum(xs, ys, xs)),
            (alg.from_int(c), free_sum({(): c})),
            (alg.word([1, 0], c), free_sum({(1, 0): c})),
            (alg.generator(1), {(1,): 1}),
        ):
            assert free_as_rebuilt(got).terms == terms
            assert (got.ring, got.gens) == (ring, alg.gens)
        assert (a + -a).terms == {} and (a * alg.zero()).terms == {}

    def test_shared_zero_and_one_stay_intact(self):
        family = DoubleFamily("Q")
        ring = family.t_ring
        zero, one = ring.zero(), ring.one()
        assert localize_module(benchmark_shaped_triple(family, (2, 2, 0, 0))).report.passed
        assert ring.zero() is zero and ring.one() is one
        assert (zero.coeffs, one.coeffs) == ((), (1,))
        # the free algebras of a free family: its merges read A's one, its image the oracle's
        family = HnnFreeFamily("Q", ("s", "t"), "x")
        shared = [(alg, alg.zero(), alg.one()) for alg in (family.a_ring, family.oracle)]
        e = t_normalize(family, parse_element(family, HNN_SUM))
        assert family_iso(t_mul(e, e)) == family.oracle.mul(family_iso(e), family_iso(e))
        for alg, zero, one in shared:
            assert alg.zero() is zero and alg.one() is one
            assert (zero.terms, one.terms) == ({}, {(): 1})


class TestFreeAlgebra:
    def setup_method(self):
        self.alg = FreeAlgebra("Q", ("s", "u"))

    def test_word_concatenation(self):
        s = self.alg.generator(0)
        u = self.alg.generator(1)
        su = s * u
        assert su == self.alg.word((0, 1))

    def test_distributes(self):
        # hand oracle: (s + u) * s = ss + us
        s = self.alg.generator(0)
        u = self.alg.generator(1)
        got = (s + u) * s
        assert got == self.alg.word((0, 0)) + self.alg.word((1, 0))

    def test_empty_word_identity(self):
        e = self.alg.random(random.Random(1))
        assert self.alg.one() * e == e
        assert e * self.alg.one() == e

    def test_alphabet_mismatch(self):
        other = FreeAlgebra("Q", ("s",))
        with pytest.raises(AlphabetMismatchError):
            self.alg.one() * other.one()

    def test_term_count_bound(self):
        rng = random.Random(9)
        for _ in range(500):
            e1 = self.alg.random(rng, terms=3)
            e2 = self.alg.random(rng, terms=3)
            prod = e1 * e2
            assert len(prod.terms) <= len(e1.terms) * len(e2.terms)

    def test_ring_axioms_random(self):
        rng = random.Random(13)
        for _ in range(1000):
            a, b, c = (self.alg.random(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * self.alg.one() == a

    def test_word_order_is_length_lex(self):
        e = self.alg.word((1,)) + self.alg.word((0, 0)) + self.alg.one()
        assert str(e) == "1+u+s*s"


def test_integer_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(1000):
        a, b, c = (ZZ.random(rng, 10**6) for _ in range(3))
        assert ZZ.mul(ZZ.mul(a, b), c) == ZZ.mul(a, ZZ.mul(b, c))
        assert ZZ.mul(a, ZZ.add(b, c)) == ZZ.add(ZZ.mul(a, b), ZZ.mul(a, c))


QX = PolynomialRing("Q")


@pytest.mark.parametrize("ring, draw", [
    pytest.param(ZZ, lambda rng: ZZ.random(rng, 10**6), id="Z"),
    pytest.param(QQ, lambda rng: QQ.random(rng, 50), id="Q"),
    pytest.param(QX, lambda rng: QX.random(rng, 5, degree=rng.randint(0, 4)), id="Q[x]"),
])
def test_euclidean_division_contract(ring, draw):
    """a = q*b + r with r = 0 or size(r) < size(b), and size is 0 only at 0."""
    rng = random.Random(23)
    assert ring.size(ring.zero()) == 0
    remainders = 0
    for _ in range(400):
        a, b = draw(rng), draw(rng)
        assert (ring.size(a) == 0) == ring.is_zero(a)
        if ring.is_zero(b):
            continue
        q, r = ring.divmod(a, b)
        assert ring.add(ring.mul(q, b), r) == a
        assert ring.is_zero(r) or ring.size(r) < ring.size(b)
        remainders += not ring.is_zero(r)
    assert remainders > 0 or ring is QQ
