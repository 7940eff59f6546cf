"""Exact coefficient and oracle rings.

Every ring here is exact: scalars, the elements of Z, Q and Z[1/k], are
arbitrary-precision ``int`` or ``fractions.Fraction`` in canonical form.
A polynomial stores ``int`` numerators over one positive common
denominator in lowest terms (Collins, J. ACM 14(1), 1967), so its
arithmetic is on ints with one gcd per result; free-algebra elements
store canonical term maps with no zero coefficients.  Elements are
immutable by convention and safe to share between threads, so a
Polynomial result may be one of its operands: a sum with zero, or a
product with one or with zero, returns an operand rather than a copy.

The classes double as the independent oracle rings against which the
rewriting route is cross-validated, so none of them may be replaced by
the rewriting machinery they certify.

Every sum of terms is printed by ``signed_sum``: polynomials,
free-algebra elements, the tensor bimodule elements of ``families`` and
the normal forms of ``exprs``.  A coefficient prints by ``scalar_str``:
one ``str()`` for an exact int or Fraction, and ``int_str``, which
splits a value past Python's digit limit, when ``str()`` refuses.  The
ring objects at the end bundle the operations the linear algebra and
localization layers need; each one states how an integer enters the
ring.  Because elements are immutable, a ring object or a matrix may
hand out one zero or one one many times.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import AlphabetMismatchError, SchemaError, UnsupportedRingError


def _exact(x):
    """A Fraction result as a canonical scalar."""
    return x.numerator if x.denominator == 1 else x


def norm_scalar(x):
    """Canonical scalar: int, or Fraction with denominator > 1."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return x
    raise TypeError(f"not an exact scalar: {x!r}")


def scalar_add(a, b):
    """a + b for canonical scalars: two ints add natively, and otherwise the
    Fraction goes on the left, whose own method is faster than the reflected one."""
    if type(a) is int:
        return a + b if type(b) is int else _exact(b + a)
    return _exact(a + b)


def scalar_mul(a, b):
    """a * b for canonical scalars, on the same terms as scalar_add."""
    if type(a) is int:
        return a * b if type(b) is int else _exact(b * a)
    return _exact(a * b)


def scalar_sub(a, b):
    """a - b for canonical scalars; two ints subtract natively."""
    return a - b if type(a) is int and type(b) is int else scalar_add(a, -b)


def add_term(terms, key, c):
    """Add the nonzero canonical scalar c to terms[key] in place; drop the
    key when the sum is zero.  A new key takes c as it is.

    Only for a term map the caller has just built, never an element's own.
    """
    old = terms.get(key)
    if old is None:
        terms[key] = c
        return
    s = scalar_add(old, c)
    if s == 0:
        del terms[key]
    else:
        terms[key] = s


def term_sum(maps):
    """Sum of term maps {key: nonzero canonical scalar}, as a new term map."""
    terms = {}
    for t in maps:
        for key, c in t.items():
            add_term(terms, key, c)
    return terms


def term_scale(c, terms):
    """The nonzero scalar multiple c*terms of a term map, or {} when c is zero."""
    return {key: scalar_mul(c, v) for key, v in terms.items()} if c != 0 else {}


# str(int) refuses more digits than sys.get_int_max_str_digits() allows (4300
# by default, at least 640, 0 for none; an interpreter without the function
# has none), a guard for parsing.  3 bits per allowed digit stay within it.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def int_str(n):
    """Decimal digits of an int of any size, without lifting Python's limit.

    A value past the limit in force at the call is split at a power of ten
    and converted half by half.
    """
    limit = _max_str_digits()
    if not limit or n.bit_length() <= 3 * limit:
        return str(n)
    if n < 0:
        return "-" + int_str(-n)
    low_digits = n.bit_length() * 3 // 20  # about half of the digits
    high, low = divmod(n, 10 ** low_digits)
    return int_str(high) + int_str(low).zfill(low_digits)


def scalar_str(x):
    """Text of a scalar: n, or n/d for a Fraction.

    An exact int or Fraction prints by one str(), which writes a whole
    Fraction as n, its canonical int.  Past the digit limit str() raises
    ValueError, and the value prints through int_str; so does any other
    scalar, a bool by its int value.
    """
    if type(x) is int or type(x) is Fraction:
        try:
            return str(x)
        except ValueError:
            pass
    x = norm_scalar(x)
    if isinstance(x, int):
        return int_str(int(x))
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


def signed_sum(terms, times="*", spaced=False):
    """Text of a sum of (coefficient, body) terms with nonzero coefficients, in order.

    An empty body is a constant term, printed as its coefficient.  A
    coefficient of 1 is left off and one of -1 printed as a bare sign;
    any other is joined to its body by times.  A term follows the one
    before it with "+", or with its own "-" when it starts with one;
    spaced puts blanks around either.  No terms print as "0".
    """
    plus, minus = (" + ", " - ") if spaced else ("+", "-")
    out = []
    for c, body in terms:
        if not body:
            piece = scalar_str(c)
        elif type(c) is int and c in (1, -1):  # a canonical Fraction is never 1 or -1
            piece = body if c == 1 else "-" + body
        else:
            piece = f"{scalar_str(c)}{times}{body}"
        if not out:
            out.append(piece)
        elif piece.startswith("-"):
            out.append(minus + piece[1:])
        else:
            out.append(plus + piece)
    return "".join(out) if out else "0"


def random_word(rng, gens):
    """A word of at most two letters drawn from gens (empty when gens is)."""
    return tuple(rng.randrange(len(gens)) for _ in range(rng.randint(0, 2))) if gens else ()


def strip_factors_of(n, k):
    """Remove from n every prime factor shared with k; sign is kept.

    strip_factors_of(12, 2) == 3, strip_factors_of(-45, 6) == -5.
    """
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    g = gcd(n, k)
    while g > 1:
        while n % g == 0:
            n //= g
        g = gcd(n, k)
    return sign * n


class Polynomial:
    """Dense polynomial in one central variable over Z or Q.

    Stored as integer numerators over one common denominator: ``nums`` is
    a tuple of ints and ``den`` a positive int with
    ``gcd(den, *nums) == 1``, the last numerator is nonzero, zero is
    ``((), 1)``, and over Z ``den`` is 1.  Arithmetic is integer
    arithmetic on the numerators with one gcd per result.  ``coeffs``
    gives the coefficients as canonical scalars, () for zero.
    """

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring, coeffs):
        if ring not in ("Z", "Q"):
            raise UnsupportedRingError(f"polynomial coefficients must be Z or Q, got {ring}")
        cs = [norm_scalar(c) for c in coeffs]
        if ring == "Z" and any(isinstance(c, Fraction) for c in cs):
            raise UnsupportedRingError(f"polynomial coefficients over Z must be integers, got {list(coeffs)!r}")
        den = lcm(*(c.denominator for c in cs))
        p = Polynomial._of(ring, [c.numerator * (den // c.denominator) for c in cs], den)
        self.ring, self.nums, self.den = ring, p.nums, p.den

    @staticmethod
    def _of(ring, nums, den):
        """The polynomial nums/den of a list of ints and a positive int, such as
        arithmetic on stored forms gives: trailing zeros are stripped and the
        common gcd divided out (zero gets den 1, as gcd(den) is den)."""
        while nums and not nums[-1]:
            nums.pop()
        if den != 1 and (g := gcd(den, *nums)) != 1:
            nums, den = [x // g for x in nums], den // g
        p = object.__new__(Polynomial)
        p.ring, p.nums, p.den = ring, tuple(nums), den
        return p

    @property
    def coeffs(self):
        """The coefficients as canonical scalars, constant term first."""
        den = self.den
        return self.nums if den == 1 else tuple(x // den if x % den == 0 else Fraction(x, den) for x in self.nums)

    def is_zero(self):
        return not self.nums

    def _check(self, other):
        if not isinstance(other, Polynomial) or other.ring != self.ring:
            raise UnsupportedRingError(f"mixed polynomial rings: {self!r} vs {other!r}")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den and self.ring == other.ring

    def __hash__(self):
        return hash((self.ring, self.nums, self.den))

    def _plus(self, other, sign):
        """self + sign * other, both nonzero, over the least common denominator."""
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if da == db:
            ma, mb, den = 1, sign, da
        else:
            g = gcd(da, db)
            ma, mb, den = db // g, sign * (da // g), da // g * db
        cs = (list(a) if ma == 1 else [ma * x for x in a]) + [0] * (len(b) - len(a))
        for i, y in enumerate(b):
            cs[i] += mb * y
        return Polynomial._of(self.ring, cs, den)

    def __add__(self, other):
        self._check(other)
        if not other.nums:
            return self
        if not self.nums:
            return other
        return self._plus(other, 1)

    def __neg__(self):
        return Polynomial._of(self.ring, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        self._check(other)
        if not other.nums:
            return self
        if not self.nums:
            return -other
        return self._plus(other, -1)

    def _times(self, n, d):
        """self * (n/d) for ints n and d > 0."""
        return Polynomial._of(self.ring, [n * x for x in self.nums], self.den * d)

    def __mul__(self, other):
        self._check(other)
        const, p = (other, self) if len(other.nums) <= 1 else (self, other)
        if len(const.nums) <= 1:  # a zero or constant factor needs no convolution
            if not const.nums:
                return const
            n, d = const.nums[0], const.den  # n == d only for the constant one
            return p if n == d else p._times(n, d)
        cs = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, x in enumerate(self.nums):
            if x:
                for k, y in enumerate(other.nums, i):
                    cs[k] += x * y
        return Polynomial._of(self.ring, cs, self.den * other.den)

    def divmod(self, other):
        """Polynomial division; requires Q coefficients and other != 0.

        A constant divides exactly.  Any other divisor goes by pseudo-division
        on the numerators, s * nums == q * other.nums + r for an int s: each
        step multiplies by the divisor's leading numerator over its gcd with
        the numerator that it cancels.
        """
        self._check(other)
        if self.ring != "Q":
            raise UnsupportedRingError("polynomial division needs field coefficients")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other.nums
        if len(b) == 1:  # a constant divides exactly: multiply by its inverse
            return self._times(other.den if b[0] > 0 else -other.den, abs(b[0])), Polynomial._of(self.ring, [], 1)
        rem, lead, top, s = list(self.nums), b[-1], len(b) - 1, 1
        q = [0] * max(0, len(rem) - top)
        for d in reversed(range(len(q))):
            c = rem[d + top]
            if not c:
                continue
            g = gcd(c, lead)
            m, c = lead // g, c // g
            if m != 1:
                rem, q, s = [m * x for x in rem], [m * x for x in q], s * m
            q[d] = c
            for k, y in enumerate(b, d):
                rem[k] -= c * y
        # self = nums/den and other = b/other.den, so self = q/(s*den) * other + r/(s*den)
        sign, den = (1, s * self.den) if s > 0 else (-1, -s * self.den)
        q, rem = [sign * other.den * x for x in q], [sign * x for x in rem]
        return Polynomial._of(self.ring, q, den), Polynomial._of(self.ring, rem, den)

    def __str__(self):
        terms = ((c, "" if d == 0 else "x" if d == 1 else f"x^{d}") for d, c in enumerate(self.coeffs) if c != 0)
        return signed_sum(terms, times="")

    def __repr__(self):
        return f"Polynomial({self.ring!r}, {list(self.coeffs)!r})"


class FreeAlgebraElement:
    """Element of the free algebra over Z or Q on a named alphabet.

    Terms map words (tuples of generator indices) to nonzero canonical
    scalars; the empty word is the identity.
    """

    __slots__ = ("ring", "gens", "terms")

    def __init__(self, ring, gens, terms):
        if ring not in ("Z", "Q"):
            raise UnsupportedRingError(f"free-algebra coefficients must be Z or Q, got {ring}")
        self.ring = ring
        self.gens = tuple(gens)
        clean = {}
        for w, c in terms.items():
            c = norm_scalar(c)
            if c != 0:
                clean[tuple(w)] = c
        self.terms = clean

    @staticmethod
    def _of(ring, gens, terms):
        """The element of a term map {tuple word: nonzero canonical scalar} over
        a checked ring and gens tuple, such as arithmetic on elements gives."""
        e = object.__new__(FreeAlgebraElement)
        e.ring, e.gens, e.terms = ring, gens, terms
        return e

    def _check(self, other):
        """other, once it is known to lie in the same free algebra."""
        if not isinstance(other, FreeAlgebraElement):
            raise AlphabetMismatchError(f"not a free-algebra element: {other!r}")
        if other.ring != self.ring or other.gens != self.gens:
            raise AlphabetMismatchError(
                f"mismatched free algebras: ({self.ring}, {self.gens}) vs ({other.ring}, {other.gens})"
            )
        return other

    def __eq__(self, other):
        if not isinstance(other, FreeAlgebraElement):
            return NotImplemented
        return (self.ring, self.gens, self.terms) == (other.ring, other.gens, other.terms)

    def __hash__(self):
        return hash((self.ring, self.gens, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        return FreeAlgebraElement._of(self.ring, self.gens, term_sum((self.terms, self._check(other).terms)))

    def __neg__(self):
        return FreeAlgebraElement._of(self.ring, self.gens, term_scale(-1, self.terms))

    def __mul__(self, other):
        right = self._check(other).terms.items()
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in right:
                add_term(terms, w1 + w2, c1 if c2 == 1 else scalar_mul(c1, c2))
        return FreeAlgebraElement._of(self.ring, self.gens, terms)

    def __str__(self):
        # by length, then lexicographically: a stable sort by len of the sorted words
        gen, terms = self.gens.__getitem__, self.terms
        return signed_sum((terms[w], "*".join(map(gen, w))) for w in sorted(sorted(terms), key=len))

    def __repr__(self):
        return f"FreeAlgebraElement({self.ring!r}, {self.gens!r}, {self.terms!r})"


# ---------------------------------------------------------------------------
# Ring protocol objects.  A ring object bundles the operations the linear
# algebra and localization layers need, with plain elements (int, Fraction,
# Polynomial) as data.  The rings A and B also expose gens, the generator
# names an A/B expression may use (none for Z and Q).  A ring object adds
# several values one way, by combination; the free algebras and T(M,p)'s
# tring.TOps override it to add into one term map.
# ---------------------------------------------------------------------------

class OperatorRing:
    """Base of the ring objects whose elements carry the ring operators.

    add, neg, sub and mul are the ``operator`` functions themselves, so a
    caller that hoists them calls no Python frame; elements are canonical,
    so equality is ``==``.  A ring object supplies from_int; zero and one
    are its images of 0 and 1.  A ring that draws random elements states
    its distribution once, as random(rng, ...), through rng's own randint
    and choice.
    """

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    fmt = staticmethod(str)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def is_zero(self, a):
        return a == self.zero()

    def combination(self, pairs):
        """Sum of c*v over pairs (nonzero canonical scalar c, element v), or zero()
        for none, added pairwise: a c other than 1 enters through from_int."""
        total = None
        for c, v in pairs:
            v = v if c == 1 else self.mul(self.from_int(c), v)
            total = v if total is None else self.add(total, v)
        return self.zero() if total is None else total


class SubringOfQ(OperatorRing):
    """Base of Z, Q and Z[1/k], whose elements are the canonical scalars:
    an integer enters as itself, zero is the one falsy element, and no
    generator names are needed to write an element."""

    gens = ()
    is_zero = staticmethod(operator.not_)
    fmt = staticmethod(scalar_str)

    def from_int(self, n):
        return n


class IntegerRing(SubringOfQ):
    name = "Z"
    fmt = staticmethod(int_str)
    # the Euclidean size and division with remainder of linalg.diagonal_form
    size = staticmethod(abs)
    divmod = staticmethod(divmod)

    def is_unit(self, a):
        return a in (1, -1)

    def exact_div(self, a, b):
        """a / b if it lies in the ring, else None."""
        if b == 0:
            return None
        q, r = divmod(a, b)
        return q if r == 0 else None

    def unit_normal(self, a):
        """(canonical representative, unit u) with a == u * representative."""
        if a < 0:
            return -a, -1
        return a, 1

    def random(self, rng, size=9):
        return rng.randint(-size, size)


class RationalField(SubringOfQ):
    name = "Q"
    add = staticmethod(scalar_add)
    sub = staticmethod(scalar_sub)
    mul = staticmethod(scalar_mul)

    def is_unit(self, a):
        return a != 0

    def exact_div(self, a, b):
        if b == 0:
            return None
        return norm_scalar(Fraction(a) / Fraction(b))

    def size(self, a):
        return 0 if a == 0 else 1

    def divmod(self, a, b):
        return self.exact_div(a, b), 0

    def unit_normal(self, a):
        if a == 0:
            return 0, 1
        return 1, norm_scalar(Fraction(a))

    def random(self, rng, size=9):
        n = rng.randint(-size, size)
        return norm_scalar(Fraction(n, rng.choice([1, 1, 2, 3])))


class KadicRing(SubringOfQ):
    """Z[1/k], a PID between Z and Q.  Its elements are the canonical
    scalars whose denominator has no prime factor outside k."""

    add = staticmethod(scalar_add)
    sub = staticmethod(scalar_sub)
    mul = staticmethod(scalar_mul)

    def __init__(self, k):
        if k < 2:
            raise ValueError(f"k-adic base must be >= 2, got {k}")
        self.k = k
        self.name = f"Z[1/{k}]"

    def exponent(self, a):
        """The least r >= 0 with a * k**r an integer, for a canonical scalar
        a; None when there is none, so this is also the membership test."""
        r, den = 0, a.denominator
        while den > 1:
            g = gcd(den, self.k)
            if g == 1:
                return None
            den //= g
            r += 1
        return r

    def is_unit(self, a):
        """Units of Z[1/k] are +-(products of primes dividing k)."""
        return a != 0 and abs(strip_factors_of(a.numerator, self.k)) == 1

    def exact_div(self, a, b):
        if not b:
            return None
        if type(a) is int and type(b) is int and a % b == 0:
            return a // b
        q = Fraction(a) / b
        return _exact(q) if self.exponent(q) is not None else None

    def unit_normal(self, a):
        """Canonical: the positive k-free part of the numerator."""
        if not a:
            return 0, 1
        rep = abs(strip_factors_of(a.numerator, self.k))
        return rep, self.exact_div(a, rep)

    def random(self, rng, size=9):
        n, e = rng.randint(-size, size), rng.randint(0, 2)
        return n if e == 0 else _exact(Fraction(n, self.k ** e))


class PolynomialRing(OperatorRing):
    """Q[x] (or Z[x] for display-only purposes); Euclidean when the base is Q."""

    is_zero = staticmethod(Polynomial.is_zero)
    divmod = staticmethod(Polynomial.divmod)

    def __init__(self, base):
        self.base = base
        self.name = f"{base}[x]"
        self._zero, self._one = Polynomial(base, ()), Polynomial(base, (1,))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        """The constant n; an int is stored as it is, and any other scalar goes
        through the public constructor's checks."""
        return Polynomial._of(self.base, [n], 1) if type(n) is int else Polynomial(self.base, [n])

    def is_unit(self, a):
        if self.base == "Q":
            return len(a.nums) == 1
        return a.nums in ((1,), (-1,))

    def exact_div(self, a, b):
        if b.is_zero():
            return None
        q, r = a.divmod(b)
        return q if r.is_zero() else None

    @property
    def size(self):
        """The Euclidean size of Q[x], the degree plus one (0 for zero); reading
        it raises over Z, which has none."""
        if self.base != "Q":
            raise UnsupportedRingError(f"{self.name} has no Euclidean division")
        return lambda a: len(a.nums)

    def unit_normal(self, a):
        """Monic representative (over Q): a's numerators over its leading one."""
        if a.is_zero():
            return self.zero(), self.one()
        lead, den = a.nums[-1], a.den
        if lead == den:  # the leading coefficient is 1
            return a, self.one()
        sign = 1 if lead > 0 else -1
        return Polynomial._of(self.base, [sign * x for x in a.nums], sign * lead), Polynomial._of(self.base, [lead], den)

    def random(self, rng, size=4, degree=2):
        return Polynomial._of(self.base, [rng.randint(-size, size) for _ in range(rng.randint(0, degree) + 1)], 1)


class FreeAlgebra(OperatorRing):
    """C<gens>: the free associative algebra on named generators."""

    def __init__(self, base, gens):
        self.base = base
        self.gens = tuple(gens)
        self.name = f"{base}<{','.join(gens)}>"
        self._zero, self._one = self.from_int(0), self.from_int(1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return FreeAlgebraElement(self.base, self.gens, {(): n})

    def generator(self, i):
        return FreeAlgebraElement._of(self.base, self.gens, {(i,): 1})

    def word(self, letters, c=1):
        return FreeAlgebraElement(self.base, self.gens, {tuple(letters): c})

    def combination(self, pairs):
        """Sum of c*v over pairs (nonzero canonical scalar c, element v), in one term map."""
        check = self._zero._check
        terms = {}
        for c, v in pairs:
            for w, cw in check(v).terms.items():
                add_term(terms, w, c if cw == 1 else scalar_mul(c, cw))
        return FreeAlgebraElement._of(self.base, self.gens, terms)

    def random(self, rng, size=3, terms=2):
        words = ((random_word(rng, self.gens), rng.randint(-size, size)) for _ in range(rng.randint(1, terms)))
        return self.combination((1, self.word(w, c)) for w, c in words)


ZZ = IntegerRing()
QQ = RationalField()


def scalar_ring(tag):
    """ZZ or QQ for the coefficient ring tag "Z" or "Q"; SchemaError for any other."""
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    raise SchemaError(f"coefficient ring must be Z or Q, got {tag!r}")


def checked_scalar(ring, c):
    """c as a canonical scalar of ring, ZZ or QQ: an int, or over QQ a Fraction
    with denominator > 1.  Anything else, bool and float included, is a
    SchemaError; this is the one check of a scalar from outside."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        if c.denominator == 1:
            return c.numerator
        if ring is QQ:
            return c
        raise SchemaError(f"scalars of Z must be integers, got {scalar_str(c)}")
    raise SchemaError(f"not a scalar of {ring.name}: {c!r}")
