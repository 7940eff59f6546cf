"""Computable (A,B)-bimodule families with a distinguished element p.

A family bundles the rings A and B, the bimodule M, the element p, and
everything else particular to the family: expansion of a bimodule
element into canonical generator letters, the map to the family's
oracle ring, the melem syntax of the expression grammar, and the rings
that present T where modules and fractions are computed.

Shipped kinds:

* ``regular``    A = B = M = Z or Q, p = 1.
* ``double``     A = B = Z or Q, M = A + A, p = (1, 0).
* ``scaled``     A = B = M = Z, p = k for an integer k >= 2.
* ``tensor-free`` A, B free algebras over a central ring C in disjoint
  alphabets, M = A (x) B, p = 1 (x) 1.
* ``hnn-free``   A = B a free algebra over C, M = A + (A (x) A),
  p = (1, 0).

Each decision is stated once.  ``BimoduleFamily`` holds what follows
from the rings alone: the check of the coefficient ring and the units
of A and B; random elements and scalars are the rings' own.  It also
builds a family's JSON descriptor from its ``params``, the one place a
family names its descriptor fields, and a family is its descriptor:
equal descriptors, equal families.  ``ScalarFamily`` adds A = B = Z or
Q and the one generator letter, if any, for regular and double, and
scaled is the regular bimodule Z with p = k.  Tensor-free and hnn-free
share ``FreeFamily``: M is free over C, and an element of M is a term
map over M's basis keys, T's letters; p's key is the constant 1.
``FreeFamily`` states M's operations, the letters, their merges and
their oracle image once, and each free family adds its own keys, how
words act on a key, the words of its keys in A*p and p*B, a letter's
oracle word, a key's text and its melem syntax.  Every sum of terms
prints through ``rings.signed_sum``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlphabetMismatchError, FamilyMismatchError, SchemaError, UnsupportedFamilyError, check_fields
from .exprs import is_identifier
from .rings import (
    FreeAlgebra,
    FreeAlgebraElement,
    KadicRing,
    Polynomial,
    PolynomialRing,
    add_term,
    checked_scalar,
    norm_scalar,
    random_word,
    scalar_mul,
    scalar_ring,
    scalar_str,
    signed_sum,
    term_sum,
)


class BimoduleFamily:
    """Shared behaviour, including all that follows from the rings alone;
    concrete families fill in the hooks.

    A bimodule element enters through ``parse_melem``,
    ``tring.t_generator`` or ``TriElement``, which put it in the canonical
    form of ``canon_m``; ``canon_m`` checks every scalar against the
    coefficient ring.  Every other hook takes canonical elements and
    returns them.
    """

    kind = None
    # the JSON descriptor's fields, each mapped to the attribute that holds
    # it, which is also the constructor's keyword
    params = {}
    # a melem is a bare literal, so a leading literal in a bimodule sum is
    # the element itself rather than its coefficient
    scalar_melem = False
    # the ring presenting T for module localization, when it has
    # computable canonical diagonal forms
    t_ring = None
    # k with T = Z[1/k] inside Q and x_m = m/k, for fraction forms and the
    # evaluation morphism into Q
    rational_k = None

    def __init__(self, ring):
        self.coeff_ring = scalar_ring(ring)
        self.ring = ring

    # -- identity ---------------------------------------------------------
    def to_json(self):
        out = {"kind": self.kind}
        for field, attr in self.params.items():
            value = getattr(self, attr)
            out[field] = list(value) if isinstance(value, tuple) else value
        return out

    # equal descriptor text is equal kind and params: a tuple prints as a list, and k is an int
    def __eq__(self, other):
        return self is other or isinstance(other, BimoduleFamily) and self.describe() == other.describe()

    def __hash__(self):
        return hash(self.describe())

    def check_same(self, other):
        if self is not other and self != other:
            raise FamilyMismatchError(f"family mismatch: {self.describe()} vs {other.describe()}")

    def describe(self):
        import json

        return json.dumps(self.to_json(), sort_keys=True)

    # -- rings ----------------------------------------------------------------
    @property
    def a_one(self):
        return self.a_ring.one()

    @property
    def b_one(self):
        return self.b_ring.one()

    # -- hooks with shared defaults ----------------------------------------
    def basis(self):
        """Finite free basis of M, or None when the family has none."""
        return None

    def merge_pair(self, l1, l2):
        """The letter that l1|l2 merge into, the letter of a*m2 when l1's
        element is a*p or of m1*b when l2's is p*b; None when neither, as in
        every family whose letter_terms collapses A*p and p*B to scalars."""
        return None

    def shift_pair(self, l1, l2):
        """Optional letter-pair rewrite beyond the p-factor merges."""
        return None

    def letter_text(self, letter):
        """The text m of a letter x_m, as a normal form prints it: x[m]."""
        return self.fmt_m(self.letter_bim(letter))

    def fold_element(self, terms):
        """Canonical form of a term map of normal words with nonzero
        coefficients, as sums and products build them; default: no change."""
        return terms

    def validate_coeff(self, c):
        return checked_scalar(self.coeff_ring, c)

    def scaled_p_variant(self, a0):
        raise UnsupportedFamilyError(f"changing p is not supported for {self.kind}")

    def terms_with_value(self, frac):
        """Normal-form terms of the element of T with rational value frac, or None."""
        raise UnsupportedFamilyError(f"fraction forms are not supported for {self.kind}")


class ScalarFamily(BimoduleFamily):
    """A = B = Z or Q, named by that ring; A and B enter the oracle ring as
    its scalars."""

    params = {"ring": "ring"}
    letter = letter_value = None  # the one generator letter, if any, and the element of M it stands for

    def __init__(self, ring):
        super().__init__(ring)
        self.a_ring = self.b_ring = self.coeff_ring

    def letter_bim(self, letter):
        return self.letter_value

    def letter_key(self, letter):
        return (0,)


class RegularFamily(ScalarFamily):
    """A = B = M with the multiplication bimodule structure and p = 1."""

    kind = "regular"
    scalar_melem = True

    def __init__(self, ring="Z"):
        super().__init__(ring)
        self.oracle = self.a_ring
        if ring == "Z":
            self.t_ring = self.oracle
            self.rational_k = 1

    # bimodule ------------------------------------------------------------
    @property
    def p(self):
        return 1

    def zero_m(self):
        return 0

    def canon_m(self, m):
        return checked_scalar(self.coeff_ring, m)

    def add_m(self, *ms):
        return norm_scalar(sum(ms))

    def apply(self, a, m, b):
        return scalar_mul(scalar_mul(a, m), b)

    def fmt_m(self, m):
        return scalar_str(m)

    def parse_melem(self, p):
        return self.canon_m(p.parse_signed_lit())

    def basis(self):
        return [1]

    def random_m(self, rng, size=9):
        return self.a_ring.random(rng, size)

    # letters --------------------------------------------------------------
    def letter_terms(self, m):
        return [(m, None)] if m != 0 else []

    def oracle_image(self, e):
        """With no letters, a normal form is its constant term."""
        return e.terms.get((), 0)

    def scaled_p_variant(self, a0):
        if self.ring != "Z":
            raise UnsupportedFamilyError("changing p is supported for regular-Z only")
        if not isinstance(a0, int) or a0 < 1:
            raise UnsupportedFamilyError(f"a0 must be a positive integer, got {a0}")
        return self if a0 == 1 else ScaledFamily(a0 * self.p)

    def terms_with_value(self, frac):
        if frac.denominator != 1:
            return None
        return {(): int(frac)} if frac else {}


class DoubleFamily(ScalarFamily):
    """A = B, M = A + A componentwise, p = (1, 0); T is A[x]."""

    kind = "double"

    def __init__(self, ring="Q"):
        super().__init__(ring)
        self.oracle = PolynomialRing(ring)
        if ring == "Q":
            self.t_ring = self.oracle

    @property
    def p(self):
        return (1, 0)

    def zero_m(self):
        return (0, 0)

    def canon_m(self, m):
        m1, m2 = m
        return (checked_scalar(self.coeff_ring, m1), checked_scalar(self.coeff_ring, m2))

    def add_m(self, *ms):
        return (norm_scalar(sum(m[0] for m in ms)), norm_scalar(sum(m[1] for m in ms)))

    def apply(self, a, m, b):
        ab = scalar_mul(a, b)
        return (scalar_mul(ab, m[0]), scalar_mul(ab, m[1]))

    def fmt_m(self, m):
        return f"({scalar_str(m[0])},{scalar_str(m[1])})"

    def parse_melem(self, p):
        p.expect("(")
        m1 = p.parse_signed_lit()
        p.expect(",")
        m2 = p.parse_signed_lit()
        p.expect(")")
        return self.canon_m((m1, m2))

    def basis(self):
        return [(1, 0), (0, 1)]

    def random_m(self, rng, size=9):
        return (self.a_ring.random(rng, size), self.a_ring.random(rng, size))

    letter, letter_value = ("x",), (0, 1)

    def letter_terms(self, m):
        m1, m2 = m
        out = []
        if m1 != 0:
            out.append((m1, None))
        if m2 != 0:
            out.append((m2, self.letter))
        return out

    def oracle_image(self, e):
        """The word of r letters maps to x^r, so its coefficient is that of degree r."""
        coeffs = [0] * (max(map(len, e.terms), default=-1) + 1)
        for w, c in e.terms.items():
            coeffs[len(w)] = c
        return Polynomial(self.ring, coeffs)


class ScaledFamily(RegularFamily):
    """A = B = M = Z with p = k >= 2; T is Z[1/k].

    M is the regular bimodule Z, whose operations come from RegularFamily;
    p, the letters, the oracle ring and the fraction forms are k's.
    """

    kind = "scaled"
    params = {"k": "k"}

    def __init__(self, k=None):
        if k is None:
            raise SchemaError("scaled family requires a parameter k >= 2")
        if not isinstance(k, int) or k < 2:
            raise SchemaError(f"scaled family needs an integer k >= 2, got {k!r}")
        super().__init__("Z")
        self.k = k
        self.oracle = self.t_ring = KadicRing(k)
        self.rational_k = k

    @property
    def p(self):
        return self.k

    def random_m(self, rng, size=20):
        return rng.randint(-size, size)

    letter, letter_value = ("g",), 1

    def letter_terms(self, m):
        if m == 0:
            return []
        if m % self.k == 0:
            return [(m // self.k, None)]
        return [(m, self.letter)]

    def fold_element(self, terms):
        # the word g^r stands for k**-r: sum over the denominator of the
        # longest word, then write the value with its least exponent; an
        # empty map or a lone constant term is already canonical
        if not terms or len(terms) == 1 and () in terms:
            return terms
        k = self.k
        r = max(map(len, terms))
        num = sum([c * k ** (r - len(w)) for w, c in terms.items()])
        return self.terms_with_value(Fraction(num, k ** r) if r else num)

    def oracle_letter(self, letter):
        return Fraction(1, self.k)

    def oracle_image(self, e):
        """c * lam**r for the one term c*g^r that fold_element leaves, with lam
        the letter's image; a constant stays an int."""
        if not e.terms:
            return 0
        ((w, c),) = e.terms.items()
        return norm_scalar(c * self.oracle_letter(self.letter) ** len(w)) if w else c

    def terms_with_value(self, frac):
        r = self.oracle.exponent(frac)
        if r is None:
            return None
        return {(self.letter,) * r: frac.numerator * self.k ** r // frac.denominator} if frac else {}


# -- free bimodules -----------------------------------------------------------

def _is_word(w, n):
    """w is a word over n generators: a tuple of indices in range(n)."""
    return type(w) is tuple and all(type(i) is int and 0 <= i < n for i in w)


def _word_text(gens, w):
    return "*".join(gens[i] for i in w) if w else "1"


def _own(ring, x):
    """x, once it is known to be an element of the free algebra ring."""
    if not isinstance(x, FreeAlgebraElement) or (x.ring, x.gens) != (ring.base, ring.gens):
        raise AlphabetMismatchError(f"not an element of {ring.name}: {x!r}")
    return x


def _random_tensor(rng, n, left, right, size):
    """n random pure tensors (u, v) with coefficients in [-size, size], summed."""
    out = {}
    for _ in range(n):
        key = (random_word(rng, left), random_word(rng, right))
        out[key] = out.get(key, 0) + rng.randint(-size, size)
    return {key: c for key, c in out.items() if c != 0}


class FreeFamily(BimoduleFamily):
    """M free over C on a set of keys, each of them a letter of T except p's
    key ``p_key``, whose letter is the constant 1 (x_p = 1).

    An element of M is a term map {key: coefficient}, so its letters are its
    keys.  A family states which keys it has (``is_key``), how a word of A
    and a word of B act on a key (``act``), the word u of a key u*p of A*p
    (``ap_word``) and v of a key p*v of p*B (``pb_word``), the word a
    letter maps to in the oracle (``oracle_word``) and a key's text
    (``key_text``); M's operations, the merges and the oracle map follow
    from these here.
    """

    p_key = None

    @property
    def p(self):
        return {self.p_key: 1}

    def zero_m(self):
        return {}

    def canon_m(self, m):
        if not isinstance(m, dict):
            raise SchemaError(f"an element of M for {self.kind} is a map from keys to scalars, got {m!r}")
        out = {}
        for key, c in m.items():
            if not self.is_key(key):
                raise SchemaError(f"{key!r} is not a key of M for {self.describe()}")
            c = checked_scalar(self.coeff_ring, c)
            if c != 0:
                out[key] = c
        return out

    def add_m(self, *ms):
        return term_sum(ms)

    def apply(self, a, m, b):
        """a * m * b: each word of a and each word of b act on each key of m."""
        act = self.act
        right = _own(self.b_ring, b).terms.items()
        out = {}
        for wa, c1 in _own(self.a_ring, a).terms.items():
            for key, c2 in m.items():
                c12 = scalar_mul(c1, c2)
                for wb, c3 in right:
                    add_term(out, act(wa, key, wb), scalar_mul(c12, c3))
        return out

    def fmt_m(self, m):
        return signed_sum((m[key], self.key_text(key)) for key in sorted(m, key=self.letter_key))

    def letter_terms(self, m):
        p_key = self.p_key
        return [(c, None if key == p_key else key) for key, c in m.items()]

    def letter_bim(self, letter):
        return {letter: 1}

    def letter_text(self, letter):
        return self.key_text(letter)  # fmt_m of {letter: 1}, whose coefficient prints as nothing

    def merge_pair(self, l1, l2):
        """One key, by key arithmetic: x_(u*p) x_k = x_(u*k), x_k x_(p*v) = x_(k*v).

        It is a letter, never p's key: l1 and l2 are letters, so u and v are
        not empty, and a non-empty word acting on a key never yields p's key."""
        wa = self.ap_word(l1)
        if wa is not None:
            return self.act(wa, l2, ())
        wb = self.pb_word(l2)
        return None if wb is None else self.act((), l1, wb)

    def oracle_image(self, e):
        """Each letter maps to one word, so a word maps to the concatenation
        of its letters' words; distinct normal words have distinct images,
        and the image has one term per term of e.  Each distinct letter's
        word is found once per call."""
        word = {x: self.oracle_word(x) for x in {x for w in e.terms for x in w}}.__getitem__
        return FreeAlgebraElement._of(self.ring, self.oracle.gens, {sum(map(word, w), ()): c for w, c in e.terms.items()})


class TensorFreeFamily(FreeFamily):
    """A = C<A_gens>, B = C<B_gens>, M = A (x) B over central C, p = 1 (x) 1.

    The keys of M are the pure tensors (A-word, B-word); T is the free
    product, i.e. the free algebra on the disjoint union of the alphabets.
    """

    kind = "tensor-free"
    params = {"ring": "ring", "A_gens": "a_gens", "B_gens": "b_gens"}
    p_key = ((), ())

    def __init__(self, ring="Q", a_gens=("s",), b_gens=("u",)):
        super().__init__(ring)
        a_gens, b_gens = tuple(a_gens), tuple(b_gens)
        if len(set(a_gens)) != len(a_gens) or len(set(b_gens)) != len(b_gens):
            raise SchemaError("generator names must be distinct")
        if set(a_gens) & set(b_gens):
            raise SchemaError("tensor-free alphabets must be disjoint")
        self.a_gens = a_gens
        self.b_gens = b_gens
        self.a_ring = FreeAlgebra(ring, a_gens)
        self.b_ring = FreeAlgebra(ring, b_gens)
        self.oracle = FreeAlgebra(ring, a_gens + b_gens)

    def is_key(self, key):
        return (
            type(key) is tuple and len(key) == 2
            and _is_word(key[0], len(self.a_gens)) and _is_word(key[1], len(self.b_gens))
        )

    @staticmethod
    def act(wa, key, wb):
        return (wa + key[0], key[1] + wb)

    def key_text(self, key):
        return f"t({_word_text(self.a_gens, key[0])},{_word_text(self.b_gens, key[1])})"

    def parse_melem(self, p):
        p.expect_call("t", "tensor-free melem must be t(aword,bword)")
        wa = p.parse_word(self.a_gens, "A")
        p.expect(",")
        wb = p.parse_word(self.b_gens, "B")
        p.expect(")")
        return {(wa, wb): 1}

    def random_m(self, rng, size=3):
        return _random_tensor(rng, rng.randint(1, 2), self.a_gens, self.b_gens, size)

    def letter_key(self, letter):
        wa, wb = letter
        return (len(wa) + len(wb), wa, wb)

    @staticmethod
    def ap_word(key):
        return key[0] if key[1] == () else None

    @staticmethod
    def pb_word(key):
        return key[1] if key[0] == () else None

    def oracle_word(self, letter):
        wa, wb = letter
        off = len(self.a_gens)
        return wa + tuple(off + j for j in wb)


class HnnFreeFamily(FreeFamily):
    """A = B = C<A_gens>, M = A + (A (x) A), p = (1, 0); T adds a letter x.

    The keys of M are ("a", w) for the word w of the summand A and
    ("m", u, v) for the pure tensor u (x) v of A (x) A; p's key is ("a", ()).
    """

    kind = "hnn-free"
    params = {"ring": "ring", "A_gens": "a_gens", "x_name": "x_name"}
    p_key = ("a", ())

    def __init__(self, ring="Q", a_gens=("s",), x_name="x"):
        super().__init__(ring)
        a_gens = tuple(a_gens)
        if len(set(a_gens)) != len(a_gens):
            raise SchemaError("generator names must be distinct")
        if x_name in a_gens:
            raise SchemaError(f"the new generator name {x_name!r} collides with the alphabet")
        self.a_gens = a_gens
        self.x_name = x_name
        self.a_ring = self.b_ring = FreeAlgebra(ring, a_gens)
        self.oracle = FreeAlgebra(ring, a_gens + (x_name,))
        self._x_index = len(a_gens)

    def is_key(self, key):
        n = len(self.a_gens)
        return type(key) is tuple and (
            len(key) == 2 and key[0] == "a" and _is_word(key[1], n)
            or len(key) == 3 and key[0] == "m" and _is_word(key[1], n) and _is_word(key[2], n)
        )

    @staticmethod
    def act(wa, key, wb):
        if key[0] == "a":
            return ("a", wa + key[1] + wb)
        return ("m", wa + key[1], key[2] + wb)

    def key_text(self, key):
        return f"h({','.join(_word_text(self.a_gens, w) for w in key[1:])})"

    def parse_melem(self, p):
        p.expect_call("h", "hnn-free melem must be h(word) or h(word,word)")
        w1 = p.parse_word(self.a_gens, "A")
        if p.peek().kind == ",":
            p.next()
            w2 = p.parse_word(self.a_gens, "A")
            p.expect(")")
            return {("m", w1, w2): 1}
        p.expect(")")
        return {("a", w1): 1}

    def random_m(self, rng, size=3):
        a = self.a_ring.random(rng, size) if rng.random() < 0.7 else self.a_ring.zero()
        t = _random_tensor(rng, rng.randint(0, 2), self.a_gens, self.a_gens, size)
        return {**{("a", w): c for w, c in a.terms.items()}, **{("m", u, v): c for (u, v), c in t.items()}}

    def letter_key(self, letter):
        if letter[0] == "a":
            return (0, len(letter[1]), letter[1])
        _, u, v = letter
        return (1, len(u) + len(v), u, v)

    def shift_pair(self, l1, l2):
        # x_{(0,u(x)v)} x_{(0,u'(x)v')} = x_{(0,u(x)1)} x_{(0,vu'(x)v')}:
        # move the right tensor factor of a non-final letter rightward.
        if l1[0] == "m" and l2[0] == "m" and l1[2] != ():
            _, u, v = l1
            _, u2, v2 = l2
            return ("m", u, ()), ("m", v + u2, v2)
        return None

    @staticmethod
    def ap_word(key):
        return key[1] if key[0] == "a" else None

    pb_word = ap_word  # ("a", w) = w*p = p*w, and no key ("m", u, v) lies in A*p or p*B

    def oracle_word(self, letter):
        if letter[0] == "a":
            return letter[1]
        _, u, v = letter
        return u + (self._x_index,) + v


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
    if not isinstance(kind, str) or kind not in FAMILY_KINDS:
        raise SchemaError(f"unknown family kind {kind!r}; expected one of {sorted(FAMILY_KINDS)}")
    cls = FAMILY_KINDS[kind]
    check_fields(data, ("kind", *cls.params), f"{kind} family descriptor")
    try:
        for field in ("A_gens", "B_gens", "x_name"):
            if field in cls.params and field in data:
                _check_names(field, data[field])
        return cls(**{attr: data[field] for field, attr in cls.params.items() if field in data})
    except TypeError as exc:
        given = ", ".join(f"{field}={data[field]!r}" for field in cls.params if field in data)
        raise SchemaError(f"{kind} family descriptor with {given} is invalid: {exc}") from exc


def _check_names(field, value):
    """A_gens and B_gens are lists of names and x_name is one name, each one
    identifier of the tokenizer; TypeError otherwise.  A string or an object
    is not a list, though iteration would read its characters or keys."""
    if field != "x_name" and isinstance(value, (str, dict)):
        raise TypeError(f"{field} must be a list of generator names")
    for name in [value] if field == "x_name" else value:
        if not is_identifier(name):
            raise TypeError(f"generator name {name!r} in {field} is not one identifier")


def shipped_families():
    """The five acceptance instances, in a fixed order."""
    return [
        RegularFamily("Z"),
        DoubleFamily("Q"),
        TensorFreeFamily("Q", ("s",), ("u",)),
        HnnFreeFamily("Q", ("s",), "x"),
        ScaledFamily(2),
    ]
