"""The ring T(M,p): canonical linear combinations of generator words.

Elements of T(M,p) are stored as maps from words (tuples of canonical
generator letters) to nonzero coefficients.  Construction and every
arithmetic operation keep the rewriting normal form:

* single letters are expanded through the family's additive
  canonicalization (identity letters vanish, letters in A*p collapse
  to scalars, sums of generators split into separate letters);
* a product of two words decides the seam between them, its last and
  first letter, once per ``t_mul`` call (``_seam``): the pair merges when
  the left letter lies in A*p, or else the right one in p*B, into the
  family's ``merge_pair`` (one key by key arithmetic in the free
  families; never in the others, whose letters lie in neither set); a
  family may shift it (``shift_pair``); otherwise the words
  concatenate.  A merge splices the merged letter's terms between the
  rest of the two words and decides only the two new seams; coefficient
  folding (``fold_element``) finishes the form.  All rules strictly
  shrink a termination measure.

Raw expression trees have one evaluator, ``eval_tree``; ``t_normalize``
runs it over ``TOps``, T(M,p) as a ring object.  The step budget ticks
once per constant, per generator letter, per operand of a sum after the
first, and per pair of words a product multiplies: once per pair of
64-bit limbs of the two coefficients, plus once per 64 letters of the
two words, before the pair is multiplied.  A seam's rule ticks once,
plus once per term of a merged letter, and charges the same per pair for
the word pairs it makes: prefix and merged term, that and the suffix, or
the two shifted words.  So a product of e1 and e2 uses at least
|e1|*|e2|, and a power whose coefficient or word doubles with every
squaring runs out of budget before it builds a huge one.

A ring map out of T(M,p) is fixed by the images of its letters, and
``map_terms`` applies one to a normal form: it hands each coefficient
and its word's image to the target's ``combination``, the one way a
ring object adds, as ``eval_tree`` does a sum's values.  ``family_iso``
is the family's ``oracle_image``, a closed form in every family: the
constant term (regular), the coefficient of each word of r letters at
degree r (double), c/k^r for the one term c*g^r (scaled), and in the
free families, whose letters each map to one word, one term map of the
concatenated words.  Sums and products work on plain term maps, and
build a ``TElement`` only for their result.
"""

from __future__ import annotations

import math
from functools import reduce

from .errors import BudgetExceededError
from .rings import OperatorRing, add_term, scalar_mul, term_scale, term_sum


class Budget:
    """Mutable rewrite-step counter; raises once the limit is crossed."""

    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def tick(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)


DEFAULT_BUDGET = 10 ** 6
UNBOUNDED = Budget(math.inf)  # the default of the evaluators: counts, never raises


class TElement:
    """Normal-form element of T(M,p) for a fixed family."""

    __slots__ = ("family", "terms")

    def __init__(self, family, terms):
        self.family = family
        self.terms = terms  # canonical: built by the module constructors only

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, family):
        return cls(family, {})

    @classmethod
    def one(cls, family):
        return cls(family, {(): 1})

    @classmethod
    def from_scalar(cls, family, c):
        c = family.validate_coeff(c)
        return cls(family, {(): c} if c != 0 else {})

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        self.family.check_same(other.family)
        return TElement(self.family, _refold(self.family, (self.terms, other.terms)))

    def __neg__(self):
        return TElement(self.family, term_scale(-1, self.terms))

    def __mul__(self, other):
        return t_mul(self, other)

    def __pow__(self, n):
        return power(TOps(self.family), self, n)

    def __eq__(self, other):
        if not isinstance(other, TElement):
            return NotImplemented
        return self.family == other.family and self.terms == other.terms

    def __hash__(self):
        return hash((self.family, frozenset(self.terms.items())))

    def is_one(self):
        return self.terms == {(): 1}

    def __repr__(self):
        from .exprs import format_element

        return f"<T {format_element(self)}>"


def _refold(family, term_maps):
    """Canonical sum of the term maps of normal forms: one dict, folded once.

    Adding can create new folds, which family.fold_element makes.
    """
    return family.fold_element(term_sum(term_maps))


def _generator_terms(family, m, budget):
    """Canonical term map of the single-letter word x_m, for a canonical m."""
    terms = {}
    for coeff, letter in family.letter_terms(m):
        budget.tick()
        add_term(terms, () if letter is None else (letter,), coeff)
    return family.fold_element(terms)


def t_generator(family, m, budget=UNBOUNDED):
    """Normal form of the single-letter word x_m; may collapse to a scalar.

    m enters here, so it is put in the family's canonical form first."""
    return TElement(family, _generator_terms(family, family.canon_m(m), budget))


def t_scale(e, c):
    c = e.family.validate_coeff(c)
    return TElement(e.family, e.family.fold_element(term_scale(c, e.terms)))


def _seam(family, left, right):
    """The rule at the seam left|right: a merge is (its ticks, the merged letter's
    terms as ``_sizes`` rows, None), a shift (1, None, (l1, l2)), no rule ()."""
    merged = family.merge_pair(left, right)
    if merged is not None:
        # only the free families merge, and they do not fold: one tick per row
        rows = _sizes(_generator_terms(family, merged, UNBOUNDED))
        return 1 + len(rows), rows, None
    shifted = family.shift_pair(left, right)
    return () if shifted is None else (1, None, shifted)


def _word_mul(family, w1, w2, c, out, budget, seams):
    """Add c times the product of two normal words into out, deciding only
    the seams the module docstring names and charging what it says."""
    rule = seams.get(key := (w1[-1], w2[0])) if w1 and w2 else ()
    if rule is None:
        rule = seams[key] = _seam(family, *key)
    if not rule:
        return add_term(out, w1 + w2, c)
    ticks, rows, shifted = rule
    prefix, suffix = w1[:-1], w2[1:]
    if shifted:
        w1, w2 = prefix + shifted[:1], shifted[1:] + suffix
        budget.tick(ticks + _pair_charge(1, len(w1), 1, len(w2)))
        return _word_mul(family, w1, w2, c, out, budget, seams)
    budget.tick(ticks)  # a merge: prefix times each merged term, each result times suffix
    head = {}
    for g, cg, bg, ng in rows:
        budget.tick(_pair_charge(1, len(prefix), bg, ng))
        _word_mul(family, prefix, g, cg, head, budget, seams)
    for h, ch in family.fold_element(head).items():
        budget.tick(_pair_charge(_bits(ch), len(h), 1, len(suffix)))
        _word_mul(family, h, suffix, c if ch == 1 else scalar_mul(c, ch), out, budget, seams)


def _sizes(terms):
    """(word, coeff, coefficient bits, word length) for each term."""
    return [(w, c, _bits(c), len(w)) for w, c in terms.items()]


def _bits(c):
    return c.bit_length() if type(c) is int else c.numerator.bit_length() + c.denominator.bit_length()


def _pair_charge(b1, n1, b2, n2):
    """The ticks for multiplying two terms with coefficients of b1 and b2
    bits and words of n1 and n2 letters: one per pair of 64-bit limbs of
    the coefficients, plus one per 64 letters of the words."""
    return (1 + (b1 >> 6)) * (1 + (b2 >> 6)) + (n1 + n2 >> 6)


def _mul_terms(family, t1, t2, budget, seams):
    """Canonical product of two term maps; each pair of words is charged
    its ``_pair_charge`` before anything is multiplied."""
    terms = {}
    tick = budget.tick
    right = _sizes(t2)
    for w1, c1 in t1.items():
        b1, n1 = _bits(c1), len(w1)
        for w2, c2, b2, n2 in right:
            tick(_pair_charge(b1, n1, b2, n2))
            _word_mul(family, w1, w2, scalar_mul(c1, c2), terms, budget, seams)
    return family.fold_element(terms)


def t_mul(e1, e2, budget=UNBOUNDED):
    """Product in T(M,p).  Seam decisions are memoized for this call only."""
    e1.family.check_same(e2.family)
    family = e1.family
    return TElement(family, _mul_terms(family, e1.terms, e2.terms, budget, {}))


def rho(family, component, value, budget=UNBOUNDED):
    """Structure maps into T: A and B land via a*p and p*b, M via x_m."""
    if component == "A":
        return t_generator(family, family.apply(value, family.p, family.b_one), budget)
    if component == "B":
        return t_generator(family, family.apply(family.a_one, family.p, value), budget)
    if component == "M":
        return t_generator(family, value, budget)
    raise ValueError(f"component must be A, M or B, got {component!r}")


def relation_failure(family, ring, gen, samples, rng):
    """First defining relation of T(M,p) that the generator images break, or None.

    gen(m) is the image of x_m in the ring object.  (id) x_p = 1 is
    checked once; then each sample draws m, m', a and b from rng and
    checks (+) x_m + x_m' = x_(m+m'), (a) x_(a*p) x_m = x_(a*m) and
    (b) x_m x_(p*b) = x_(m*b).  A failure is described in one line.
    """
    if gen(family.p) != ring.one():
        return "relation (id): x_p is not 1"
    for i in range(samples):
        m1, m2 = family.random_m(rng), family.random_m(rng)
        a, b = family.a_ring.random(rng), family.b_ring.random(rng)
        x1 = gen(m1)
        ap = family.apply(a, family.p, family.b_one)
        pb = family.apply(family.a_one, family.p, b)
        if (
            ring.add(x1, gen(m2)) != gen(family.add_m(m1, m2))
            or ring.mul(gen(ap), x1) != gen(family.apply(a, m1, family.b_one))
            or ring.mul(x1, gen(pb)) != gen(family.apply(family.a_one, m1, b))
        ):
            return f"instance {i}: m={family.fmt_m(m1)} m'={family.fmt_m(m2)}"
    return None


def map_terms(e, ring, letter):
    """Image of a normal form under the ring map given on letters: each
    word's image is the product of its letters' images, and the ring's
    combination adds the terms."""
    return ring.combination(_term_images(e.terms, ring, letter))


def _term_images(terms, ring, letter):
    """(coefficient, word image) for each term, in order: the product of
    the word's letter images, and ring.one() for the empty word.  Each
    distinct letter's image is computed once per call.  The callers, a
    ``fracloc.LetterHom`` on regular-Z or scaled, map normal forms of at
    most one term, so no two words share a product worth keeping.
    """
    images = {}
    for word, coeff in terms.items():
        factors = [images[x] if x in images else images.setdefault(x, letter(x)) for x in word]
        yield coeff, reduce(ring.mul, factors) if factors else ring.one()


def family_iso(e):
    """Image under the family's closed-form isomorphism onto its oracle ring."""
    return e.family.oracle_image(e)


# ---------------------------------------------------------------------------
# Raw expression trees, the input of t_normalize.
# ---------------------------------------------------------------------------

class Record:
    """An immutable value over the fields its class lists in __slots__, as a
    frozen dataclass is: built from one value per field, positional or named,
    equal to a record of its class with equal fields, hashed and printed by them."""

    __slots__ = ()

    def __init__(self, *values, **named):
        if named:
            values += tuple(named.pop(name) for name in self.__slots__[len(values):] if name in named)
        if named or len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes exactly the fields {', '.join(self.__slots__)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Const(Record):
    __slots__ = ("value",)


class Gen(Record):
    __slots__ = ("element",)  # bimodule element m of x_m; in an A/B expression, a generator index


class Add(Record):
    __slots__ = ("items",)


class Mul(Record):
    __slots__ = ("items",)


class Neg(Record):
    __slots__ = ("item",)


class Pow(Record):
    __slots__ = ("base", "exponent")


def power(ring, x, n):
    """x**n in a ring object by square-and-multiply; no product with one() is formed.

    The squares x, x^2, x^4, ... come first; then, from the top bit down,
    each set bit's square multiplies the product on the left.  A loop, so
    an exponent of any size costs no stack.
    """
    if n < 0:
        raise ValueError("exponents must be non-negative")
    if n == 0:
        return ring.one()
    squares = [x]
    while n >> len(squares):
        squares.append(ring.mul(squares[-1], squares[-1]))
    result = squares.pop()
    for i in reversed(range(len(squares))):
        if n >> i & 1:
            result = ring.mul(squares[i], result)
    return result


def eval_tree(expr, ring, gen):
    """Value of an expression tree in a ring object (from_int, combination, mul, neg, one).

    A Const value enters through ring.from_int, and gen maps a Gen element.
    """

    def value(node):
        if isinstance(node, Const):
            return ring.from_int(node.value)
        if isinstance(node, Gen):
            return gen(node.element)
        if isinstance(node, Add):
            if not node.items:
                raise ValueError("sum of no values")
            return ring.combination((1, value(item)) for item in node.items)
        if isinstance(node, Mul):
            return reduce(ring.mul, map(value, node.items))
        if isinstance(node, Neg):
            return ring.neg(value(node.item))
        if isinstance(node, Pow):  # a chain of powers is walked, not recursed
            exponents = []
            while isinstance(node, Pow):
                exponents.append(node.exponent)
                node = node.base
            x = value(node)
            for n in reversed(exponents):
                x = power(ring, x, n)
            return x
        raise TypeError(f"not an expression node: {node!r}")

    return value(expr)


class TOps(OperatorRing):
    """T(M,p) over one family as a ring object, charging a Budget."""

    def __init__(self, family, budget=UNBOUNDED):
        self.family = family
        self.budget = budget

    @property
    def name(self):
        return f"T[{self.family.describe()}]"

    def zero(self):
        return TElement.zero(self.family)

    def one(self):
        return TElement.one(self.family)

    def from_int(self, c):
        self.budget.tick()
        return TElement.from_scalar(self.family, c)

    def gen(self, m):
        return t_generator(self.family, m, self.budget)

    def combination(self, pairs):
        """One term map for all summands c*v, folded once; ticks once per summand after the first."""
        family, maps = self.family, []
        for c, v in pairs:
            family.check_same(v.family)
            if maps:
                self.budget.tick()
            maps.append(v.terms if c == 1 else term_scale(family.validate_coeff(c), v.terms))
        return TElement(family, _refold(family, maps))

    def mul(self, a, b):
        return t_mul(a, b, self.budget)


class ChargedRing:
    """Any ring object, with its combinations and products charged to a Budget before they are formed.

    An element counts as its term map, a scalar (int or Fraction) as one
    constant term.  A product ticks per pair of terms as ``_mul_terms``
    does.  A combination ticks once per term of its values, plus once per
    64 bits of the term's coefficient and 64 letters of its word.
    """

    def __init__(self, ring, budget):
        self.ring = ring
        self.budget = budget
        self.from_int = ring.from_int  # a scalar enters uncharged
        self.one = ring.one
        self.neg = ring.neg

    def combination(self, pairs):
        pairs = list(pairs)
        self.budget.tick(sum(1 + (b >> 6) + (n >> 6) for _, v in pairs for _, _, b, n in _sizes(_terms_of(v))))
        return self.ring.combination(pairs)

    def mul(self, a, b):
        right = _sizes(_terms_of(b))
        for _, _, b1, n1 in _sizes(_terms_of(a)):
            self.budget.tick(sum(_pair_charge(b1, n1, b2, n2) for _, _, b2, n2 in right))
        return self.ring.mul(a, b)


def _terms_of(x):
    """The term map of an element; a scalar is its one constant term."""
    terms = getattr(x, "terms", None)
    return {(): x} if terms is None else terms


def t_normalize(family, expr, budget=UNBOUNDED):
    """Evaluate a raw expression tree to the rewriting fixpoint.

    budget bounds the number of rewrite events; exceeding it raises
    BudgetExceededError (reported distinctly by the CLI).
    """
    ring = TOps(family, budget)
    return eval_tree(expr, ring, ring.gen)
