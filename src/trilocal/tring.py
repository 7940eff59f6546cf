"""The ring T(M,p): canonical linear combinations of generator words.

Elements of T(M,p) are stored as maps from words (tuples of canonical
generator letters) to nonzero coefficients.  Construction and every
arithmetic operation keep the rewriting normal form:

* single letters are expanded through the family's additive
  canonicalization (identity letters vanish, letters in A*p collapse
  to scalars, sums of generators split into separate letters);
* an adjacent pair merges when the left letter lies in A*p or the
  right letter lies in p*B, the left rule winning at the leftmost
  position;
* family-specific moves (a letter-pair shift, coefficient folding)
  finish the canonical form where the two merge rules are not enough.

All rules strictly shrink a termination measure.

Raw expression trees have one evaluator, ``eval_tree``; ``t_normalize``
runs it over ``TOps``, T(M,p) as a ring object.  The step budget ticks
once per constant, per generator letter, per sum of two operands and
per merge or shift inside a product.  A ring map out of T(M,p) is fixed
by the images of its letters, and ``map_terms`` applies one to a normal
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce

from .errors import BudgetExceededError
from .rings import OperatorRing, add_term, scalar_mul


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


def _tick(budget, n=1):
    if budget is not None:
        budget.tick(n)


DEFAULT_BUDGET = 10 ** 6


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
        return t_add(self, other)

    def __sub__(self, other):
        return t_add(self, t_neg(other))

    def __neg__(self):
        return t_neg(self)

    def __mul__(self, other):
        return t_mul(self, other)

    def __pow__(self, n):
        return power(TOps(self.family), self, n)

    def scale(self, c):
        return t_scale(self, c)

    def __eq__(self, other):
        if not isinstance(other, TElement):
            return NotImplemented
        return self.family == other.family and self.terms == other.terms

    def __hash__(self):
        return hash((self.family, tuple(sorted(self.terms.items(), key=lambda kv: word_key(self.family, kv[0])))))

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(): 1}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: word_key(self.family, kv[0]))

    def __repr__(self):
        from .exprs import format_element

        return f"<T {format_element(self)}>"


def word_key(family, word):
    return (len(word), tuple(family.letter_key(letter) for letter in word))


def _merge_term(family, terms, word, coeff, budget=None):
    """Fold one (coeff, word) pair into a term map, canonically."""
    coeff, word = family.fold_term(coeff, word)
    if coeff != 0:
        add_term(terms, word, coeff)


def _refold(family, terms):
    """Re-canonicalize a merged term map (sums can create new folds)."""
    out = {}
    for word, coeff in terms.items():
        _merge_term(family, out, word, coeff)
    return family.fold_element(out)


def t_generator(family, m, budget=None):
    """Normal form of the single-letter word x_m; may collapse to a scalar."""
    terms = {}
    for coeff, letter in family.letter_terms(m):
        _tick(budget)
        coeff = family.validate_coeff(coeff)
        word = () if letter is None else (letter,)
        _merge_term(family, terms, word, coeff)
    return TElement(family, _refold(family, terms))


def t_add(e1, e2):
    e1.family.check_same(e2.family)
    terms = dict(e1.terms)
    for word, coeff in e2.terms.items():
        add_term(terms, word, coeff)
    return TElement(e1.family, _refold(e1.family, terms))


def t_neg(e):
    return TElement(e.family, {w: -c for w, c in e.terms.items()})


def t_scale(e, c):
    c = e.family.validate_coeff(c)
    if c == 0:
        return TElement.zero(e.family)
    terms = {}
    for word, coeff in e.terms.items():
        _merge_term(e.family, terms, word, scalar_mul(c, coeff))
    return TElement(e.family, e.family.fold_element(terms))


def _word_mul(family, w1, w2, budget):
    """Product of two normal words as a normal TElement."""
    if not w1 or not w2:
        terms = {}
        _merge_term(family, terms, w1 + w2, 1)
        return TElement(family, terms)
    left, right = w1[-1], w2[0]
    fac = family.factor_p(family.letter_bim(left))
    if fac.left is not None:
        _tick(budget)
        merged = t_generator(family, family.apply(fac.left, family.letter_bim(right), family.b_one), budget)
        head = TElement(family, {w1[:-1]: 1})
        tail = TElement(family, {w2[1:]: 1})
        return t_mul(t_mul(head, merged, budget), tail, budget)
    fac2 = family.factor_p(family.letter_bim(right))
    if fac2.right is not None:
        _tick(budget)
        merged = t_generator(family, family.apply(family.a_one, family.letter_bim(left), fac2.right), budget)
        head = TElement(family, {w1[:-1]: 1})
        tail = TElement(family, {w2[1:]: 1})
        return t_mul(t_mul(head, merged, budget), tail, budget)
    shifted = family.shift_pair(left, right)
    if shifted is not None:
        _tick(budget)
        l1, l2 = shifted
        head = TElement(family, {w1[:-1] + (l1,): 1})
        tail = TElement(family, {(l2,) + w2[1:]: 1})
        return t_mul(head, tail, budget)
    terms = {}
    _merge_term(family, terms, w1 + w2, 1)
    return TElement(family, terms)


def t_mul(e1, e2, budget=None):
    e1.family.check_same(e2.family)
    family = e1.family
    terms = {}
    for w1, c1 in e1.terms.items():
        for w2, c2 in e2.terms.items():
            piece = _word_mul(family, w1, w2, budget)
            c = scalar_mul(c1, c2)
            for word, coeff in piece.terms.items():
                _merge_term(family, terms, word, scalar_mul(c, coeff))
    return TElement(family, _refold(family, terms))


def rho(family, component, value, budget=None):
    """Structure maps into T: A and B land via a*p and p*b, M via x_m."""
    if component == "A":
        return t_generator(family, family.apply(value, family.p, family.b_one), budget)
    if component == "B":
        return t_generator(family, family.apply(family.a_one, family.p, value), budget)
    if component == "M":
        return t_generator(family, value, budget)
    raise ValueError(f"component must be A, M or B, got {component!r}")


class EqResult(Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


def t_eq(e1, e2):
    """Decide equality by comparing normal forms."""
    e1.family.check_same(e2.family)
    return EqResult.EQUAL if e1.terms == e2.terms else EqResult.DISTINCT


def t_eq_exprs(family, expr1, expr2, budget=DEFAULT_BUDGET):
    """Equality of raw expressions; UNKNOWN when the budget runs out."""
    try:
        return t_eq(t_normalize(family, expr1, budget), t_normalize(family, expr2, budget))
    except BudgetExceededError:
        return EqResult.UNKNOWN


def map_terms(e, ring, scalar, letter):
    """Image of a normal form under the ring map given on scalars and letters.

    Each term's coefficient goes through scalar, each letter of its word
    through letter; products and sums are taken in the ring object.
    """
    total = None
    for word, coeff in e.terms.items():
        val = scalar(coeff)
        for x in word:
            val = ring.mul(val, letter(x))
        total = val if total is None else ring.add(total, val)
    return ring.zero() if total is None else total


def family_iso(e):
    """Image under the family's closed-form isomorphism onto its oracle ring."""
    family = e.family
    return map_terms(e, family.oracle, family.oracle_scalar, family.oracle_letter)


# ---------------------------------------------------------------------------
# Raw expression trees, the input of t_normalize.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: object


@dataclass(frozen=True)
class Gen:
    element: object  # bimodule element m of x_m; in an A/B expression, a generator index


@dataclass(frozen=True)
class Add:
    items: tuple


@dataclass(frozen=True)
class Mul:
    items: tuple


@dataclass(frozen=True)
class Neg:
    item: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


def power(ring, x, n):
    """x**n in a ring object by square-and-multiply; no product with one() is formed."""
    if n < 0:
        raise ValueError("exponents must be non-negative")
    if n < 2:
        return x if n else ring.one()
    half = power(ring, ring.mul(x, x), n >> 1)
    return ring.mul(x, half) if n & 1 else half


def eval_tree(expr, ring, const, gen):
    """Value of an expression tree in a ring object (add, mul, neg, one).

    const maps a Const value into the ring and gen a Gen element.
    """

    def value(node):
        if isinstance(node, Const):
            return const(node.value)
        if isinstance(node, Gen):
            return gen(node.element)
        if isinstance(node, Add):
            return reduce(ring.add, map(value, node.items))
        if isinstance(node, Mul):
            return reduce(ring.mul, map(value, node.items))
        if isinstance(node, Neg):
            return ring.neg(value(node.item))
        if isinstance(node, Pow):
            return power(ring, value(node.base), node.exponent)
        raise TypeError(f"not an expression node: {node!r}")

    return value(expr)


class TOps(OperatorRing):
    """T(M,p) over one family as a ring object, charging an optional Budget."""

    def __init__(self, family, budget=None):
        self.family = family
        self.budget = budget

    def zero(self):
        return TElement.zero(self.family)

    def one(self):
        return TElement.one(self.family)

    def const(self, c):
        _tick(self.budget)
        return TElement.from_scalar(self.family, c)

    def gen(self, m):
        return t_generator(self.family, m, self.budget)

    def add(self, a, b):
        _tick(self.budget)
        return t_add(a, b)

    def mul(self, a, b):
        return t_mul(a, b, self.budget)


def t_normalize(family, expr, budget=DEFAULT_BUDGET):
    """Evaluate a raw expression tree to the rewriting fixpoint.

    budget bounds the number of rewrite events; exceeding it raises
    BudgetExceededError (reported distinctly by the CLI).  An element
    already in normal form is returned as it is.
    """
    if isinstance(expr, TElement):
        family.check_same(expr.family)
        return expr
    ring = TOps(family, Budget(budget) if isinstance(budget, int) else budget)
    return eval_tree(expr, ring, ring.const, ring.gen)
