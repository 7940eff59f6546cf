"""The ring T(M,p): canonical linear combinations of generator words.

An element stores ``nums``, words (tuples of canonical generator letters)
to nonzero ``int`` numerators, over ``den``, a positive ``int`` with
``gcd(den, *nums) == 1`` (1 over Z), as ``rings.Polynomial`` does; the
arithmetic never reads ``terms``, the canonical scalars built on demand.
Construction and every arithmetic operation keep the rewriting normal form:

* single letters are expanded through the family's additive
  canonicalization (identity letters vanish, letters in A*p collapse
  to scalars, sums of generators split into separate letters);
* a product of two words decides the seam between them, its last and
  first letter, once per ``t_mul`` call (``_seam``): the pair merges when
  the left letter lies in A*p, or else the right one in p*B, into the
  family's ``merge_pair``, one letter (one key by key arithmetic in the
  free families; never in the others, whose letters lie in neither set);
  a family may shift it into a pair of letters (``shift_pair``);
  otherwise the words concatenate.  So the product of two normal words
  is one normal word: a merge puts its letter between the rest of the
  two words and decides only the two new seams.  Coefficient folding
  (``fold_element``) finishes the form; only scaled folds, and it is
  over Z, so its numerators are its coefficients.  All rules strictly
  shrink a termination measure.

Raw expression trees have one evaluator, ``eval_tree``; ``t_normalize``
runs it over ``TOps``, T(M,p) as a ring object.  The step budget ticks
once per constant, per generator letter and per operand of a sum after
the first.  A product ticks once per term of its left factor, before
that term is multiplied: for each term of the right factor, once per
pair of 64-bit limbs of the two coefficients in lowest terms (``_bits``),
plus once per 64 letters of the two words.  A shift ticks once and a
merge twice, and each charges the word pairs it makes the same, with
coefficient 1: the two shifted words, or the prefix and the merged
letter, then that word and the suffix.  So a product of e1 and e2 uses
at least |e1|*|e2|, and a power whose coefficient or word doubles with
every squaring runs out of budget before it builds a huge one.

A ring map out of T(M,p) is fixed by the images of its letters, and
``map_terms`` applies one to a normal form: it hands each coefficient
and its word's image to the target's ``combination``, the one way a
ring object adds, as ``eval_tree`` does a sum's values.  ``family_iso``
is the family's ``oracle_image``, a closed form in every family: the
constant term (regular), the numerator of each word of r letters at
degree r (double), c/k^r for the one term c*g^r (scaled), and in the
free families, whose letters each map to one word, one term map of the
concatenated words.  Sums and products work on plain numerator maps,
and build a ``TElement`` only for their result.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import groupby

from .errors import BudgetExceededError
from .rings import OperatorRing, add_term, ratio, stored_form


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
    """Normal-form element of T(M,p) for a fixed family: ``nums`` over ``den``."""

    __slots__ = ("family", "nums", "den")

    def __init__(self, family, terms):
        """The element of a canonical term map {word: nonzero canonical scalar}."""
        self.family = family
        self.nums, self.den = stored_form(terms)

    @staticmethod
    def _of(family, nums, den):
        """The element of nonzero numerators just built over den > 0, their common gcd with den divided out."""
        if den != 1 and (g := math.gcd(den, *nums.values())) != 1:
            nums, den = {w: n // g for w, n in nums.items()}, den // g
        e = object.__new__(TElement)
        e.family, e.nums, e.den = family, nums, den
        return e

    @property
    def terms(self):
        """The term map {word: nonzero canonical scalar}, built on each read."""
        den = self.den
        return dict(self.nums) if den == 1 else {w: ratio(n, den) for w, n in self.nums.items()}

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, family):
        return cls._of(family, {}, 1)

    @classmethod
    def one(cls, family):
        return cls._of(family, {(): 1}, 1)

    @classmethod
    def from_scalar(cls, family, c):
        c = family.validate_coeff(c)
        return cls(family, {(): c} if c != 0 else {})

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        family, d1, d2 = self.family, self.den, other.den
        family.check_same(other.family)
        if d1 == d2:
            return TElement._of(family, _refold(family, (self.nums, other.nums)), d1)
        den = math.lcm(d1, d2)
        return TElement._of(family, _refold(family, (_times(self.nums, den // d1), _times(other.nums, den // d2))), den)

    def __neg__(self):
        return TElement._of(self.family, {w: -n for w, n in self.nums.items()}, self.den)

    def __mul__(self, other):
        return t_mul(self, other)

    def __pow__(self, n):
        return power(TOps(self.family), self, n)

    def __eq__(self, other):
        if not isinstance(other, TElement):
            return NotImplemented
        return self.family == other.family and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.family, self.den, frozenset(self.nums.items())))

    def is_one(self):
        return self.den == 1 and self.nums == {(): 1}

    def __repr__(self):
        from .exprs import format_element

        return f"<T {format_element(self)}>"


def _refold(family, term_maps):
    """Sum of numerator maps over one denominator: one dict, its zeros dropped,
    folded once.  Adding can create new folds, which family.fold_element makes."""
    nums, added = {}, 0
    get = nums.get
    for t in term_maps:
        added += len(t)
        for w, n in t.items():
            nums[w] = get(w, 0) + n
    return family.fold_element(nums if len(nums) == added else _nonzero(nums))


def _nonzero(nums):
    """nums without its zero numerators, which only two terms met on one word leave."""
    return {w: n for w, n in nums.items() if n} if 0 in nums.values() else nums


def _times(nums, m):
    """The numerator map nums times the nonzero int m; nums itself for m = 1."""
    return nums if m == 1 else {w: m * n for w, n in nums.items()}


def _scaled_sum(family, pairs):
    """The sum of c*v over pairs (nonzero canonical scalar c, element v), over the lcm of their denominators."""
    den = math.lcm(*[c.denominator * v.den for c, v in pairs])
    maps = [_times(v.nums, c.numerator * den // (c.denominator * v.den)) for c, v in pairs]
    return TElement._of(family, _refold(family, maps), den)


def t_generator(family, m, budget=UNBOUNDED):
    """Normal form of the single-letter word x_m; may collapse to a scalar.

    m enters here, so it is put in the family's canonical form first."""
    terms = {}
    for coeff, letter in family.letter_terms(family.canon_m(m)):
        budget.tick()
        add_term(terms, () if letter is None else (letter,), coeff)
    return TElement(family, family.fold_element(terms))


def t_scale(e, c):
    c = e.family.validate_coeff(c)
    return _scaled_sum(e.family, ((c, e),)) if c != 0 else TElement.zero(e.family)


def _seam(family, left, right):
    """The rule at the seam left|right: a merge is (2, the merged letter, None),
    a shift (1, None, (l1, l2)), no rule ()."""
    merged = family.merge_pair(left, right)
    if merged is not None:
        return 2, merged, None
    shifted = family.shift_pair(left, right)
    return () if shifted is None else (1, None, shifted)


def _word_mul(family, w1, w2, budget, seams):
    """The normal word of the product of two normal words, deciding only
    the seams the module docstring names and charging what it says."""
    rule = seams.get(key := (w1[-1], w2[0])) if w1 and w2 else ()
    if rule is None:
        rule = seams[key] = _seam(family, *key)
    if not rule:
        return w1 + w2
    ticks, letter, shifted = rule
    prefix, suffix = w1[:-1], w2[1:]
    if shifted:
        w1, w2 = prefix + shifted[:1], shifted[1:] + suffix
        budget.tick(ticks + _pair_charge(1, len(w1), 1, len(w2)))
        return _word_mul(family, w1, w2, budget, seams)
    budget.tick(ticks + _pair_charge(1, len(prefix), 1, 1))  # a merge: prefix times the letter, that times suffix
    head = _word_mul(family, prefix, (letter,), budget, seams)
    budget.tick(_pair_charge(1, len(head), 1, len(suffix)))
    return _word_mul(family, head, suffix, budget, seams)


def _pair_charge(b1, n1, b2, n2):
    """The ticks for multiplying two terms with coefficients of b1 and b2
    bits and words of n1 and n2 letters: one per pair of 64-bit limbs of
    the coefficients, plus one per 64 letters of the words."""
    return (1 + (b1 >> 6)) * (1 + (b2 >> 6)) + (n1 + n2 >> 6)


def _bits(n, d):
    """Bits of n/d in lowest terms: the numerator's, plus the denominator's unless it is 1."""
    g = math.gcd(n, d)
    return (n // g).bit_length() + (0 if d == g else (d // g).bit_length())


def _charges(n1s, d1, n2s, d2):
    """The ticks for multiplying each term of the numerator map n1s over d1
    by all of n2s over d2, the module docstring's charge: 1 per pair where
    no coefficient reaches 64 bits (``_bound`` shows it) and no word pair
    64 letters; else the limbs factor, and the letters count only where
    the left word and the right's longest reach 64 together."""
    top = max(map(len, n2s), default=0)
    if _bound(n1s, d1) < 64 and _bound(n2s, d2) < 64 and max(map(len, n1s), default=0) + top < 64:
        return [len(n2s)] * len(n1s)
    limbs = sum([1 + (_bits(n, d2) >> 6) for n in n2s.values()])
    return [
        (1 + (_bits(n1, d1) >> 6)) * limbs + (sum([len(w1) + len(w2) >> 6 for w2 in n2s]) if len(w1) + top >= 64 else 0)
        for w1, n1 in n1s.items()
    ]


def _bound(nums, den):
    """At least the ``_bits`` of every coefficient of a numerator map over den."""
    return max(map(abs, nums.values()), default=0).bit_length() + den.bit_length()


def _mul_terms(family, e1, e2, budget, seams):
    """Folded numerators of the product of two normal forms over e1.den * e2.den, one int
    product per pair, each term of e1 charged before it is multiplied.  A pair whose seam
    has no rule concatenates here; any other goes through ``_word_mul``."""
    n1s, n2s = e1.nums, e2.nums
    right = list(n2s.items())
    nums = {}
    get = nums.get
    for (w1, n1), ticks in zip(n1s.items(), _charges(n1s, e1.den, n2s, e2.den)):
        budget.tick(ticks)
        for w2, n2 in right:
            w = _word_mul(family, w1, w2, budget, seams) if w1 and w2 and seams.get((w1[-1], w2[0])) != () else w1 + w2
            nums[w] = get(w, 0) + n1 * n2
    return family.fold_element(nums if len(nums) == len(n1s) * len(right) else _nonzero(nums))


def t_mul(e1, e2, budget=UNBOUNDED):
    """Product in T(M,p).  Seam decisions are memoized for this call only."""
    e1.family.check_same(e2.family)
    family = e1.family
    return TElement._of(family, _mul_terms(family, e1, e2, budget, {}), e1.den * e2.den)


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
    the images of the word's runs of one letter, each raised to the run's
    length by one ``power``, and ring.one() for the empty word.  Each
    distinct letter's image is computed once per call.  The callers, a
    ``fracloc.LetterHom`` on regular-Z or scaled, map normal forms of at
    most one term, so no two words share a product worth keeping.
    """
    images = {x: letter(x) for x in {x for word in terms for x in word}}
    for word, coeff in terms.items():
        factors = [power(ring, images[x], len(list(run))) for x, run in groupby(word)]
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
        """One numerator map for all summands c*v, folded once; ticks once per summand after the first."""
        family, checked = self.family, []
        for c, v in pairs:
            family.check_same(v.family)
            if checked:
                self.budget.tick()
            checked.append((c if c == 1 else family.validate_coeff(c), v))
        return _scaled_sum(family, checked)

    def mul(self, a, b):
        return t_mul(a, b, self.budget)


class ChargedRing:
    """Any ring object, with its combinations and products charged to a Budget before they are formed.

    An element counts as its term map, a scalar (int or Fraction) as one
    constant term.  A product ticks per left term as ``_mul_terms``
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
        stored = [stored_form(_terms_of(v)) for _, v in pairs]
        self.budget.tick(sum(1 + (_bits(n, d) >> 6) + (len(w) >> 6) for nums, d in stored for w, n in nums.items()))
        return self.ring.combination(pairs)

    def mul(self, a, b):
        for ticks in _charges(*stored_form(_terms_of(a)), *stored_form(_terms_of(b))):
            self.budget.tick(ticks)
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
