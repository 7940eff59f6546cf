"""Exact arithmetic of the benchmark's own, used to check the program.

Nothing here imports trilocal.  Free-algebra elements are dicts from
words (tuples of letter names) to Fractions, polynomials over Q are
tuples of Fractions (constant term first, no trailing zeros), and the
rings Z, Z[1/2] and Q[x] are small domain objects used by the
determinantal-divisor check of module localization.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# Free-algebra words.
# ---------------------------------------------------------------------------


def word_add(acc, word, coeff):
    """Add coeff*word into the term dict acc, dropping zeros."""
    total = acc.get(word, 0) + coeff
    if total:
        acc[word] = total
    else:
        acc.pop(word, None)


def word_mul(left, right):
    out = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            word_add(out, w1 + w2, c1 * c2)
    return out


def word_product(factors):
    """Expand a product of sums of words."""
    out = {(): Fraction(1)}
    for f in factors:
        out = word_mul(out, f)
    return out


_PART = re.compile(r"[+-]?[^+-]+")
_NUMBER = re.compile(r"^\d+(/\d+)?$")


def parse_word_sum(text):
    """Parse a printed free-algebra element such as '1/2-2*v+s*x*t'.

    The printed form is a sum of terms, each an optional rational
    coefficient and a '*'-joined word of letter names.
    """
    text = text.strip()
    if text == "0":
        return {}
    if "".join(_PART.findall(text)) != text:
        raise ValueError(f"not a printed word sum: {text!r}")
    out = {}
    for part in _PART.findall(text):
        sign = -1 if part.startswith("-") else 1
        items = part.lstrip("+-").split("*")
        coeff = Fraction(1)
        if _NUMBER.match(items[0]):
            coeff = Fraction(items[0])
            items = items[1:]
        if coeff == 0 or any(not item.isidentifier() for item in items):
            raise ValueError(f"bad term {part!r} in {text!r}")
        word = tuple(items)
        if word in out:
            raise ValueError(f"repeated word {word!r} in {text!r}")
        out[word] = sign * coeff
    return out


# ---------------------------------------------------------------------------
# Polynomials over Q.
# ---------------------------------------------------------------------------


def poly(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


PX = poly([0, 1])


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_neg(a):
    return tuple(-c for c in a)


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly(out)


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b) and rem:
        c = rem[-1] / b[-1]
        d = len(rem) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            rem[d + i] -= c * y
        rem = list(poly(rem))
    return poly(q), poly(rem)


def poly_monic(a):
    return tuple(c / a[-1] for c in a) if a else ()


def poly_gcd(a, b):
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


_MONO = re.compile(r"^(?P<coef>\d+(/\d+)?)?(?P<x>x(\^(?P<exp>\d+))?)?$")


def parse_poly(text):
    """Parse a printed polynomial in x such as '3/2x^2-x+1'."""
    text = text.strip()
    if text == "0":
        return ()
    if "".join(_PART.findall(text)) != text:
        raise ValueError(f"not a printed polynomial: {text!r}")
    out = {}
    for part in _PART.findall(text):
        sign = -1 if part.startswith("-") else 1
        m = _MONO.match(part.lstrip("+-"))
        if not m or not (m.group("coef") or m.group("x")):
            raise ValueError(f"bad monomial {part!r} in {text!r}")
        coeff = Fraction(m.group("coef") or 1)
        exp = int(m.group("exp") or 1) if m.group("x") else 0
        if exp in out:
            raise ValueError(f"repeated degree in {text!r}")
        out[exp] = sign * coeff
    top = max(out)
    return poly([out.get(i, 0) for i in range(top + 1)])


# ---------------------------------------------------------------------------
# The three rings of module localization, as domains for elimination.
# ---------------------------------------------------------------------------


def _strip_two(n):
    n = abs(n)
    while n and n % 2 == 0:
        n //= 2
    return n


class IntDomain:
    """Z, with entries as ints."""

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        # only called with a unit b = +-1, which is its own inverse
        return a * b

    def integral_rows(self, rows):
        return rows

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact division")
        return q

    def gcd(self, a, b):
        return math.gcd(a, b)

    def canon(self, a):
        """Associate class representative: the absolute value."""
        return abs(a)

    def one(self):
        return 1


class DyadicDomain(IntDomain):
    """Z[1/2], with entries as Fractions whose denominators are powers of 2.

    Units are the signed powers of 2, so associates are compared by the
    odd part of the numerator.
    """

    def is_unit(self, a):
        a = Fraction(a)
        return a != 0 and _strip_two(a.numerator) == 1

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    def integral_rows(self, rows):
        # scaling a row by a power of 2 multiplies minors by a unit
        out = []
        for row in rows:
            den = 1
            for x in row:
                den = max(den, Fraction(x).denominator)
            out.append([int(Fraction(x) * den) for x in row])
        return out

    def canon(self, a):
        return _strip_two(Fraction(a).numerator)


class PolyDomain:
    """Q[x], with entries as coefficient tuples; associates are monic."""

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return len(a) == 1

    def sub(self, a, b):
        return poly_sub(a, b)

    def mul(self, a, b):
        return poly_mul(a, b)

    def div(self, a, b):
        # only called with a unit (nonzero constant) b
        return tuple(c / b[0] for c in a)

    def integral_rows(self, rows):
        return rows

    def exact_div(self, a, b):
        q, r = poly_divmod(a, b)
        if r:
            raise ArithmeticError("inexact division")
        return q

    def gcd(self, a, b):
        return poly_gcd(a, b)

    def canon(self, a):
        return poly_monic(a)

    def one(self):
        return poly([1])


def bareiss_det(dom, m):
    """Fraction-free determinant of a square matrix over an integral domain."""
    n = len(m)
    if n == 0:
        return dom.one()
    a = [list(r) for r in m]
    sign = 1
    prev = dom.one()
    for k in range(n - 1):
        if dom.is_zero(a[k][k]):
            for i in range(k + 1, n):
                if not dom.is_zero(a[i][k]):
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return dom.sub(dom.one(), dom.one())
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = dom.sub(dom.mul(a[i][j], a[k][k]), dom.mul(a[i][k], a[k][j]))
                a[i][j] = dom.exact_div(num, prev)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign > 0 else dom.sub(dom.sub(d, d), d)


def eliminate_unit_pivots(dom, rows):
    """Clear every row and column that holds a unit, one pivot at a time.

    A unit pivot splits the matrix into diag(1, M') up to invertible row
    and column operations, so d_k(M) = d_(k-1)(M') for every k >= 1.
    Returns the number of pivots used and the remaining matrix M'.
    """
    rows = [list(r) for r in rows]
    pivots = 0
    while True:
        found = None
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if not dom.is_zero(x) and dom.is_unit(x):
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            return pivots, rows
        pi, pj = found
        prow = rows[pi]
        rest = []
        for i, row in enumerate(rows):
            if i == pi:
                continue
            if not dom.is_zero(row[pj]):
                c = dom.div(row[pj], prow[pj])
                row = [dom.sub(x, dom.mul(c, y)) for x, y in zip(row, prow)]
            rest.append([x for j, x in enumerate(row) if j != pj])
        rows = rest
        pivots += 1


def determinantal_divisor(dom, rows):
    """(rank, d_rank) of a matrix: d is the gcd of its maximal non-vanishing minors.

    Unit pivots are split off first, then every k x k minor of what
    remains is computed with fraction-free determinants, from the
    largest k down, until one does not vanish.
    """
    pivots, rest = eliminate_unit_pivots(dom, rows)
    rest = dom.integral_rows([r for r in rest if any(not dom.is_zero(x) for x in r)])
    ncols = len(rest[0]) if rest else 0
    for k in range(min(len(rest), ncols), 0, -1):
        d = None
        for ri in itertools.combinations(range(len(rest)), k):
            for ci in itertools.combinations(range(ncols), k):
                minor = bareiss_det(dom, [[rest[i][j] for j in ci] for i in ri])
                if not dom.is_zero(minor):
                    d = minor if d is None else dom.gcd(d, minor)
        if d is not None:
            return pivots + k, dom.canon(d)
    return pivots, dom.canon(dom.one())


def entries_gcd(dom, rows):
    """gcd of all entries, as an associate class representative (0 if none)."""
    d = None
    for row in dom.integral_rows([list(r) for r in rows]):
        for x in row:
            if not dom.is_zero(x):
                d = x if d is None else dom.gcd(d, x)
    return None if d is None else dom.canon(d)
