"""Computable (A,B)-bimodule families with a distinguished element p.

A family bundles the rings A and B, the bimodule M, the element p, and
everything else particular to the family: exact p-factorization,
expansion of a bimodule element into canonical generator letters, the
map to the family's oracle ring, the melem syntax of the expression
grammar, and the rings that present T where modules and fractions are
computed.

Shipped kinds:

* ``regular``    A = B = M = Z or Q, p = 1.
* ``double``     A = B = Z or Q, M = A + A, p = (1, 0).
* ``scaled``     A = B = M = Z, p = k for an integer k >= 2.
* ``tensor-free`` A, B free algebras over a central ring C in disjoint
  alphabets, M = A (x) B, p = 1 (x) 1.
* ``hnn-free``   A = B a free algebra over C, M = A + (A (x) A),
  p = (1, 0).

Factorization is exact and verified, never heuristic: a returned factor
reproduces the element on the nose, and families without a decidable
membership test for A*p simply are not shipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FamilyMismatchError, SchemaError, UnsupportedFamilyError
from .rings import (
    FreeAlgebra,
    FreeAlgebraElement,
    KadicFraction,
    KadicRing,
    Polynomial,
    PolynomialRing,
    QQ,
    ZZ,
    add_term,
    norm_scalar,
    scalar_add,
    scalar_mul,
    scalar_str,
)


@dataclass(frozen=True)
class PFactorization:
    """Exact p-factorization data for a bimodule element m.

    ``left`` is a with m = a*p when m lies in A*p, ``right`` is b with
    m = p*b when m lies in p*B, and ``split`` is (pairs, residual) with
    m = sum(a_i * p * b_i) + residual for families exposing
    M = ApB + complement.
    """

    left: object = None
    right: object = None
    split: object = None


class BimoduleFamily:
    """Shared behaviour; concrete families fill in the hooks."""

    kind = None
    # a melem is a bare literal, so a leading literal in a bimodule sum is
    # the element itself rather than its coefficient
    scalar_melem = False
    # the ring presenting T for module localization, when it has
    # computable canonical diagonal forms
    t_ring = None
    # k with T = Z[1/k] inside Q and x_m = m/k, for fraction forms and the
    # evaluation morphism into Q
    rational_k = None

    # -- identity ---------------------------------------------------------
    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, BimoduleFamily) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def check_same(self, other):
        if self != other:
            raise FamilyMismatchError(f"family mismatch: {self.describe()} vs {other.describe()}")

    def describe(self):
        import json

        return json.dumps(self.to_json(), sort_keys=True)

    # -- hooks with shared defaults ----------------------------------------
    def basis(self):
        """Finite free basis of M, or None when the family has none."""
        return None

    def basis_coords(self, m):
        raise UnsupportedFamilyError(f"{self.kind} has no finite free basis")

    def shift_pair(self, l1, l2):
        """Optional letter-pair rewrite beyond the p-factor merges."""
        return None

    def scale_m(self, c, m):
        """Central scalar multiple of a bimodule element."""
        raise NotImplementedError

    def fold_term(self, coeff, word):
        """Family-specific coefficient/word canonicalization of one term."""
        return coeff, word

    def fold_element(self, terms):
        """Canonical form of a term map of normal words with nonzero
        coefficients, as sums and products build them; default: no change."""
        return terms

    def validate_coeff(self, c):
        c = norm_scalar(c)
        if self.coeff == "Z" and not isinstance(c, int):
            raise ValueError(f"coefficients for {self.kind} must be integers, got {c}")
        return c

    def scaled_p_variant(self, a0):
        raise UnsupportedFamilyError(f"changing p is not supported for {self.kind}")

    def terms_with_value(self, frac):
        """Normal-form terms of the element of T with rational value frac, or None."""
        raise UnsupportedFamilyError(f"fraction forms are not supported for {self.kind}")


class RegularFamily(BimoduleFamily):
    """A = B = M with the multiplication bimodule structure and p = 1."""

    kind = "regular"
    scalar_melem = True

    def __init__(self, ring="Z"):
        if ring not in ("Z", "Q"):
            raise SchemaError(f"regular family ring must be Z or Q, got {ring!r}")
        self.ring = ring
        self.coeff = ring
        self.a_ring = self.b_ring = ZZ if ring == "Z" else QQ
        self.oracle = self.a_ring
        if ring == "Z":
            self.t_ring = self.oracle
            self.rational_k = 1

    def key(self):
        return ("regular", self.ring)

    def to_json(self):
        return {"kind": "regular", "ring": self.ring}

    # bimodule ------------------------------------------------------------
    @property
    def p(self):
        return 1

    def zero_m(self):
        return 0

    def canon_m(self, m):
        m = norm_scalar(m)
        if self.ring == "Z" and not isinstance(m, int):
            raise ValueError(f"bimodule element of regular-Z must be an integer, got {m}")
        return m

    def add_m(self, m1, m2):
        return scalar_add(m1, m2)

    def neg_m(self, m):
        return -m

    def apply(self, a, m, b):
        return scalar_mul(scalar_mul(a, m), b)

    def scale_m(self, c, m):
        return scalar_mul(c, m)

    def eq_m(self, m1, m2):
        return norm_scalar(m1) == norm_scalar(m2)

    def fmt_m(self, m):
        return scalar_str(m)

    def parse_melem(self, p):
        return self.canon_m(p.parse_signed_lit())

    def factor_p(self, m):
        return PFactorization(left=m, right=m, split=(((m, 1),), 0))

    def basis(self):
        return [1]

    def basis_coords(self, m):
        return [m]

    def random_m(self, rng, size=9):
        return self.a_ring.random(rng, size)

    def random_a(self, rng, size=9):
        return self.a_ring.random(rng, size)

    random_b = random_a

    @property
    def a_one(self):
        return 1

    b_one = a_one

    # letters --------------------------------------------------------------
    def letter_terms(self, m):
        m = self.canon_m(m)
        return [(m, None)] if m != 0 else []

    def _no_letters(self, letter):
        raise AssertionError("regular family has no generator letters")

    letter_bim = letter_key = letter_fmt = oracle_letter = _no_letters

    def oracle_scalar(self, c):
        return norm_scalar(c)

    def oracle_a(self, a):
        return norm_scalar(a)

    oracle_b = oracle_a

    def scaled_p_variant(self, a0):
        if self.ring != "Z":
            raise UnsupportedFamilyError("changing p is supported for regular-Z only")
        if not isinstance(a0, int) or a0 < 1:
            raise UnsupportedFamilyError(f"a0 must be a positive integer, got {a0}")
        if a0 == 1:
            return self
        return ScaledFamily(a0)

    def terms_with_value(self, frac):
        if frac.denominator != 1:
            return None
        return {(): int(frac)} if frac else {}


class DoubleFamily(BimoduleFamily):
    """A = B, M = A + A componentwise, p = (1, 0); T is A[x]."""

    kind = "double"

    def __init__(self, ring="Q"):
        if ring not in ("Z", "Q"):
            raise SchemaError(f"double family ring must be Z or Q, got {ring!r}")
        self.ring = ring
        self.coeff = ring
        self.a_ring = self.b_ring = ZZ if ring == "Z" else QQ
        self.oracle = PolynomialRing(ring)
        if ring == "Q":
            self.t_ring = self.oracle

    def key(self):
        return ("double", self.ring)

    def to_json(self):
        return {"kind": "double", "ring": self.ring}

    @property
    def p(self):
        return (1, 0)

    def zero_m(self):
        return (0, 0)

    def canon_m(self, m):
        m1, m2 = m
        m1, m2 = norm_scalar(m1), norm_scalar(m2)
        if self.ring == "Z" and not (isinstance(m1, int) and isinstance(m2, int)):
            raise ValueError(f"bimodule element of double-Z must have integer parts, got {m}")
        return (m1, m2)

    def add_m(self, m1, m2):
        return (scalar_add(m1[0], m2[0]), scalar_add(m1[1], m2[1]))

    def neg_m(self, m):
        return (-m[0], -m[1])

    def apply(self, a, m, b):
        ab = scalar_mul(a, b)
        return (scalar_mul(ab, m[0]), scalar_mul(ab, m[1]))

    def scale_m(self, c, m):
        return (scalar_mul(c, m[0]), scalar_mul(c, m[1]))

    def eq_m(self, m1, m2):
        return self.canon_m(m1) == self.canon_m(m2)

    def fmt_m(self, m):
        return f"({scalar_str(m[0])},{scalar_str(m[1])})"

    def parse_melem(self, p):
        p.expect("(")
        m1 = p.parse_signed_lit()
        p.expect(",")
        m2 = p.parse_signed_lit()
        p.expect(")")
        return self.canon_m((m1, m2))

    def factor_p(self, m):
        m1, m2 = self.canon_m(m)
        left = m1 if m2 == 0 else None
        right = m1 if m2 == 0 else None
        return PFactorization(left=left, right=right, split=(((m1, 1),), (0, m2)))

    def basis(self):
        return [(1, 0), (0, 1)]

    def basis_coords(self, m):
        m1, m2 = self.canon_m(m)
        return [m1, m2]

    def random_m(self, rng, size=9):
        return (self.a_ring.random(rng, size), self.a_ring.random(rng, size))

    def random_a(self, rng, size=9):
        return self.a_ring.random(rng, size)

    random_b = random_a

    @property
    def a_one(self):
        return 1

    b_one = a_one

    _X = ("x",)

    def letter_terms(self, m):
        m1, m2 = self.canon_m(m)
        out = []
        if m1 != 0:
            out.append((m1, None))
        if m2 != 0:
            out.append((m2, self._X))
        return out

    def letter_bim(self, letter):
        return (0, 1)

    def letter_key(self, letter):
        return (0,)

    def letter_fmt(self, letter):
        return "(0,1)"

    def oracle_letter(self, letter):
        return self.oracle.variable()

    def oracle_scalar(self, c):
        return Polynomial(self.ring, [c])

    def oracle_a(self, a):
        return Polynomial(self.ring, [a])

    oracle_b = oracle_a


class ScaledFamily(BimoduleFamily):
    """A = B = M = Z with p = k >= 2; T is Z[1/k]."""

    kind = "scaled"
    scalar_melem = True

    def __init__(self, k):
        if not isinstance(k, int) or k < 2:
            raise SchemaError(f"scaled family needs an integer k >= 2, got {k!r}")
        self.k = k
        self.coeff = "Z"
        self.a_ring = self.b_ring = ZZ
        self.oracle = self.t_ring = KadicRing(k)
        self.rational_k = k

    def key(self):
        return ("scaled", self.k)

    def to_json(self):
        return {"kind": "scaled", "k": self.k}

    @property
    def p(self):
        return self.k

    def zero_m(self):
        return 0

    def canon_m(self, m):
        if not isinstance(m, int):
            raise ValueError(f"bimodule element of scaled must be an integer, got {m!r}")
        return m

    def add_m(self, m1, m2):
        return m1 + m2

    def neg_m(self, m):
        return -m

    def apply(self, a, m, b):
        return a * m * b

    def scale_m(self, c, m):
        return c * m

    def eq_m(self, m1, m2):
        return m1 == m2

    def fmt_m(self, m):
        return scalar_str(m)

    def parse_melem(self, p):
        return self.canon_m(p.parse_signed_lit())

    def factor_p(self, m):
        if m % self.k == 0:
            q = m // self.k
            return PFactorization(left=q, right=q, split=None)
        return PFactorization()

    def basis(self):
        return [1]

    def basis_coords(self, m):
        return [m]

    def random_m(self, rng, size=20):
        return rng.randint(-size, size)

    def random_a(self, rng, size=9):
        return rng.randint(-size, size)

    random_b = random_a

    @property
    def a_one(self):
        return 1

    b_one = a_one

    _G = ("g",)

    def letter_terms(self, m):
        m = self.canon_m(m)
        if m == 0:
            return []
        if m % self.k == 0:
            return [(m // self.k, None)]
        return [(m, self._G)]

    def letter_bim(self, letter):
        return 1

    def letter_key(self, letter):
        return (0,)

    def letter_fmt(self, letter):
        return "1"

    def fold_term(self, coeff, word):
        r = len(word)
        while r > 0 and coeff % self.k == 0:
            coeff //= self.k
            r -= 1
        return coeff, (self._G,) * r

    def fold_element(self, terms):
        # terms of different word length combine in Z[1/k]: bring every
        # term to the maximal exponent and renormalize once
        if not terms:
            return terms
        top = max(len(w) for w in terms)
        num = sum(c * self.k ** (top - len(w)) for w, c in terms.items())
        coeff, word = self.fold_term(num, (self._G,) * top)
        return {word: coeff} if coeff != 0 else {}

    def oracle_letter(self, letter):
        return KadicFraction(self.k, 1, 1)

    def oracle_scalar(self, c):
        return KadicFraction(self.k, c, 0)

    def oracle_a(self, a):
        return KadicFraction(self.k, a, 0)

    oracle_b = oracle_a

    def scaled_p_variant(self, a0):
        if not isinstance(a0, int) or a0 < 1:
            raise UnsupportedFamilyError(f"a0 must be a positive integer, got {a0}")
        if a0 == 1:
            return self
        return ScaledFamily(a0 * self.k)

    def terms_with_value(self, frac):
        value = self.oracle.from_fraction(frac)
        if value is None:
            return None
        return {(self._G,) * value.exp: value.num} if value.num else {}


def _canon_tensor(terms):
    out = {}
    for (wa, wb), c in terms.items():
        c = norm_scalar(c)
        if c != 0:
            out[(tuple(wa), tuple(wb))] = c
    return out


class TensorFreeFamily(BimoduleFamily):
    """A = C<A_gens>, B = C<B_gens>, M = A (x) B over central C, p = 1 (x) 1.

    Bimodule elements are canonical combinations of pure tensors keyed
    by (A-word, B-word); T is the free product, i.e. the free algebra on
    the disjoint union of the alphabets.
    """

    kind = "tensor-free"

    def __init__(self, ring="Q", a_gens=("s",), b_gens=("u",)):
        if ring not in ("Z", "Q"):
            raise SchemaError(f"tensor-free ring must be Z or Q, got {ring!r}")
        a_gens, b_gens = tuple(a_gens), tuple(b_gens)
        if len(set(a_gens)) != len(a_gens) or len(set(b_gens)) != len(b_gens):
            raise SchemaError("generator names must be distinct")
        if set(a_gens) & set(b_gens):
            raise SchemaError("tensor-free alphabets must be disjoint")
        self.ring = ring
        self.coeff = ring
        self.a_gens = a_gens
        self.b_gens = b_gens
        self.a_ring = FreeAlgebra(ring, a_gens)
        self.b_ring = FreeAlgebra(ring, b_gens)
        self.oracle = FreeAlgebra(ring, a_gens + b_gens)

    def key(self):
        return ("tensor-free", self.ring, self.a_gens, self.b_gens)

    def to_json(self):
        return {
            "kind": "tensor-free",
            "ring": self.ring,
            "A_gens": list(self.a_gens),
            "B_gens": list(self.b_gens),
        }

    @property
    def p(self):
        return {((), ()): 1}

    def zero_m(self):
        return {}

    def canon_m(self, m):
        out = _canon_tensor(m)
        if self.ring == "Z" and any(not isinstance(c, int) for c in out.values()):
            raise ValueError("tensor coefficients must be integers for a Z base")
        return out

    def add_m(self, m1, m2):
        out = self.canon_m(m1)
        for key, c in self.canon_m(m2).items():
            add_term(out, key, c)
        return out

    def neg_m(self, m):
        return {key: -c for key, c in self.canon_m(m).items()}

    def apply(self, a, m, b):
        out = {}
        for wa1, c1 in a.terms.items():
            for (wa, wb), c2 in self.canon_m(m).items():
                for wb1, c3 in b.terms.items():
                    add_term(out, (wa1 + wa, wb + wb1), scalar_mul(scalar_mul(c1, c2), c3))
        return out

    def scale_m(self, c, m):
        return {key: scalar_mul(c, v) for key, v in self.canon_m(m).items() if scalar_mul(c, v) != 0}

    def eq_m(self, m1, m2):
        return self.canon_m(m1) == self.canon_m(m2)

    def _word_a(self, w):
        return "*".join(self.a_gens[i] for i in w) if w else "1"

    def _word_b(self, w):
        return "*".join(self.b_gens[i] for i in w) if w else "1"

    def fmt_m(self, m):
        m = self.canon_m(m)
        if not m:
            return "0"
        parts = []
        for (wa, wb) in sorted(m, key=lambda key: (len(key[0]) + len(key[1]), key)):
            c = m[(wa, wb)]
            body = f"t({self._word_a(wa)},{self._word_b(wb)})"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{scalar_str(c)}*{body}")
        out = parts[0]
        for piece in parts[1:]:
            out += piece if piece.startswith("-") else "+" + piece
        return out

    def parse_melem(self, p):
        p.expect_call("t", "tensor-free melem must be t(aword,bword)")
        wa = p.parse_word(self.a_gens, "A")
        p.expect(",")
        wb = p.parse_word(self.b_gens, "B")
        p.expect(")")
        return {(wa, wb): 1}

    def factor_p(self, m):
        m = self.canon_m(m)
        left = right = None
        if all(wb == () for (_, wb) in m):
            left = FreeAlgebraElement(self.ring, self.a_gens, {wa: c for (wa, _), c in m.items()})
        if all(wa == () for (wa, _) in m):
            right = FreeAlgebraElement(self.ring, self.b_gens, {wb: c for (_, wb), c in m.items()})
        pairs = tuple(
            (
                FreeAlgebraElement(self.ring, self.a_gens, {wa: c}),
                FreeAlgebraElement(self.ring, self.b_gens, {wb: 1}),
            )
            for (wa, wb), c in m.items()
        )
        return PFactorization(left=left, right=right, split=(pairs, {}))

    def random_m(self, rng, size=3):
        out = {}
        for _ in range(rng.randint(1, 2)):
            wa = tuple(rng.randrange(len(self.a_gens)) for _ in range(rng.randint(0, 2))) if self.a_gens else ()
            wb = tuple(rng.randrange(len(self.b_gens)) for _ in range(rng.randint(0, 2))) if self.b_gens else ()
            c = rng.randint(-size, size)
            key = (wa, wb)
            out[key] = out.get(key, 0) + c
        return self.canon_m(out)

    def random_a(self, rng, size=3):
        return self.a_ring.random(rng, size)

    def random_b(self, rng, size=3):
        return self.b_ring.random(rng, size)

    @property
    def a_one(self):
        return self.a_ring.one()

    @property
    def b_one(self):
        return self.b_ring.one()

    def letter_terms(self, m):
        out = []
        for (wa, wb), c in self.canon_m(m).items():
            if wa == () and wb == ():
                out.append((c, None))
            else:
                out.append((c, ("t", wa, wb)))
        return out

    def letter_bim(self, letter):
        _, wa, wb = letter
        return {(wa, wb): 1}

    def letter_key(self, letter):
        _, wa, wb = letter
        return (len(wa) + len(wb), wa, wb)

    def letter_fmt(self, letter):
        _, wa, wb = letter
        return f"t({self._word_a(wa)},{self._word_b(wb)})"

    def oracle_letter(self, letter):
        _, wa, wb = letter
        off = len(self.a_gens)
        return self.oracle.word(wa + tuple(off + j for j in wb))

    def oracle_scalar(self, c):
        return FreeAlgebraElement.constant(self.ring, self.oracle.gens, c)

    def oracle_a(self, a):
        return FreeAlgebraElement(self.ring, self.oracle.gens, dict(a.terms))

    def oracle_b(self, b):
        off = len(self.a_gens)
        return FreeAlgebraElement(
            self.ring, self.oracle.gens, {tuple(off + j for j in w): c for w, c in b.terms.items()}
        )


class HnnFreeFamily(BimoduleFamily):
    """A = B = C<A_gens>, M = A + (A (x) A), p = (1, 0); T adds a letter x.

    Bimodule elements are pairs (a, t) with a in A and t a canonical
    combination of pure tensors keyed by (left word, right word).
    """

    kind = "hnn-free"

    def __init__(self, ring="Q", a_gens=("s",), x_name="x"):
        if ring not in ("Z", "Q"):
            raise SchemaError(f"hnn-free ring must be Z or Q, got {ring!r}")
        a_gens = tuple(a_gens)
        if len(set(a_gens)) != len(a_gens):
            raise SchemaError("generator names must be distinct")
        if x_name in a_gens:
            raise SchemaError(f"the new generator name {x_name!r} collides with the alphabet")
        self.ring = ring
        self.coeff = ring
        self.a_gens = a_gens
        self.x_name = x_name
        self.a_ring = self.b_ring = FreeAlgebra(ring, a_gens)
        self.oracle = FreeAlgebra(ring, a_gens + (x_name,))
        self._x_index = len(a_gens)

    def key(self):
        return ("hnn-free", self.ring, self.a_gens, self.x_name)

    def to_json(self):
        return {
            "kind": "hnn-free",
            "ring": self.ring,
            "A_gens": list(self.a_gens),
            "x_name": self.x_name,
        }

    @property
    def p(self):
        return (self.a_ring.one(), {})

    def zero_m(self):
        return (self.a_ring.zero(), {})

    def canon_m(self, m):
        a, t = m
        if not isinstance(a, FreeAlgebraElement):
            raise ValueError(f"first component must be a free-algebra element, got {a!r}")
        out = {}
        for (u, v), c in t.items():
            c = norm_scalar(c)
            if c != 0:
                out[(tuple(u), tuple(v))] = c
        return (a, out)

    def add_m(self, m1, m2):
        a1, t = self.canon_m(m1)
        a2, t2 = self.canon_m(m2)
        for key, c in t2.items():
            add_term(t, key, c)
        return (a1 + a2, t)

    def neg_m(self, m):
        a, t = self.canon_m(m)
        return (-a, {key: -c for key, c in t.items()})

    def apply(self, a, m, b):
        ma, mt = self.canon_m(m)
        t = {}
        for wa1, c1 in a.terms.items():
            for (u, v), c2 in mt.items():
                for wb1, c3 in b.terms.items():
                    add_term(t, (wa1 + u, v + wb1), scalar_mul(scalar_mul(c1, c2), c3))
        return (a * ma * b, t)

    def scale_m(self, c, m):
        a, t = self.canon_m(m)
        return (a.scale(c), {key: scalar_mul(c, v) for key, v in t.items() if scalar_mul(c, v) != 0})

    def eq_m(self, m1, m2):
        return self.canon_m(m1) == self.canon_m(m2)

    def _word(self, w):
        return "*".join(self.a_gens[i] for i in w) if w else "1"

    def fmt_m(self, m):
        a, t = self.canon_m(m)
        parts = []
        for w in sorted(a.terms, key=lambda w: (len(w), w)):
            c = a.terms[w]
            body = f"h({self._word(w)})"
            parts.append(self._signed(c, body))
        for (u, v) in sorted(t, key=lambda key: (len(key[0]) + len(key[1]), key)):
            c = t[(u, v)]
            body = f"h({self._word(u)},{self._word(v)})"
            parts.append(self._signed(c, body))
        if not parts:
            return "0"
        out = parts[0]
        for piece in parts[1:]:
            out += piece if piece.startswith("-") else "+" + piece
        return out

    @staticmethod
    def _signed(c, body):
        if c == 1:
            return body
        if c == -1:
            return f"-{body}"
        return f"{scalar_str(c)}*{body}"

    def parse_melem(self, p):
        p.expect_call("h", "hnn-free melem must be h(word) or h(word,word)")
        w1 = p.parse_word(self.a_gens, "A")
        if p.peek().kind == ",":
            p.next()
            w2 = p.parse_word(self.a_gens, "A")
            p.expect(")")
            return (self.a_ring.zero(), {(w1, w2): 1})
        p.expect(")")
        return (self.a_ring.word(w1), {})

    def factor_p(self, m):
        a, t = self.canon_m(m)
        left = right = None
        if not t:
            left = a
            right = a
        return PFactorization(left=left, right=right, split=(((a, self.b_one),), (self.a_ring.zero(), t)))

    def random_m(self, rng, size=3):
        a = self.a_ring.random(rng, size) if rng.random() < 0.7 else self.a_ring.zero()
        t = {}
        for _ in range(rng.randint(0, 2)):
            u = tuple(rng.randrange(len(self.a_gens)) for _ in range(rng.randint(0, 2))) if self.a_gens else ()
            v = tuple(rng.randrange(len(self.a_gens)) for _ in range(rng.randint(0, 2))) if self.a_gens else ()
            c = rng.randint(-size, size)
            t[(u, v)] = t.get((u, v), 0) + c
        return self.canon_m((a, t))

    def random_a(self, rng, size=3):
        return self.a_ring.random(rng, size)

    random_b = random_a

    @property
    def a_one(self):
        return self.a_ring.one()

    b_one = a_one

    def letter_terms(self, m):
        a, t = self.canon_m(m)
        out = []
        for w, c in a.terms.items():
            out.append((c, None) if w == () else (c, ("a", w)))
        for (u, v), c in t.items():
            out.append((c, ("m", u, v)))
        return out

    def letter_bim(self, letter):
        if letter[0] == "a":
            return (self.a_ring.word(letter[1]), {})
        _, u, v = letter
        return (self.a_ring.zero(), {(u, v): 1})

    def letter_key(self, letter):
        if letter[0] == "a":
            return (0, len(letter[1]), letter[1])
        _, u, v = letter
        return (1, len(u) + len(v), u, v)

    def letter_fmt(self, letter):
        if letter[0] == "a":
            return f"h({self._word(letter[1])})"
        _, u, v = letter
        return f"h({self._word(u)},{self._word(v)})"

    def shift_pair(self, l1, l2):
        # x_{(0,u(x)v)} x_{(0,u'(x)v')} = x_{(0,u(x)1)} x_{(0,vu'(x)v')}:
        # move the right tensor factor of a non-final letter rightward.
        if l1[0] == "m" and l2[0] == "m" and l1[2] != ():
            _, u, v = l1
            _, u2, v2 = l2
            return ("m", u, ()), ("m", v + u2, v2)
        return None

    def oracle_letter(self, letter):
        if letter[0] == "a":
            return self.oracle.word(letter[1])
        _, u, v = letter
        return self.oracle.word(u + (self._x_index,) + v)

    def oracle_scalar(self, c):
        return FreeAlgebraElement.constant(self.ring, self.oracle.gens, c)

    def oracle_a(self, a):
        return FreeAlgebraElement(self.ring, self.oracle.gens, dict(a.terms))

    oracle_b = oracle_a


FAMILY_KINDS = {
    "regular": RegularFamily,
    "double": DoubleFamily,
    "scaled": ScaledFamily,
    "tensor-free": TensorFreeFamily,
    "hnn-free": HnnFreeFamily,
}


def family_from_json(data):
    """Build a family from its JSON descriptor; raises SchemaError."""
    if not isinstance(data, dict):
        raise SchemaError(f"family descriptor must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in FAMILY_KINDS:
        raise SchemaError(f"unknown family kind {kind!r}; expected one of {sorted(FAMILY_KINDS)}")
    try:
        if kind == "regular":
            return RegularFamily(data.get("ring", "Z"))
        if kind == "double":
            return DoubleFamily(data.get("ring", "Q"))
        if kind == "scaled":
            if "k" not in data:
                raise SchemaError("scaled family requires a parameter k >= 2")
            return ScaledFamily(data["k"])
        if kind == "tensor-free":
            return TensorFreeFamily(
                data.get("ring", "Q"),
                data.get("A_gens", ["s"]),
                data.get("B_gens", ["u"]),
            )
        return HnnFreeFamily(
            data.get("ring", "Q"),
            data.get("A_gens", ["s"]),
            data.get("x_name", "x"),
        )
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def shipped_families():
    """The five acceptance instances, in a fixed order."""
    return [
        RegularFamily("Z"),
        DoubleFamily("Q"),
        TensorFreeFamily("Q", ("s",), ("u",)),
        HnnFreeFamily("Q", ("s",), "x"),
        ScaledFamily(2),
    ]


def verify_factorization(family, m):
    """Re-apply every factor returned for m and confirm it reproduces m."""
    f = family.factor_p(m)
    ok = True
    if f.left is not None:
        ok = ok and family.eq_m(family.apply(f.left, family.p, family.b_one), m)
    if f.right is not None:
        ok = ok and family.eq_m(family.apply(family.a_one, family.p, f.right), m)
    if f.split is not None:
        pairs, residual = f.split
        acc = residual
        for a_i, b_i in pairs:
            acc = family.add_m(acc, family.apply(a_i, family.p, b_i))
        ok = ok and family.eq_m(acc, m)
    return ok
