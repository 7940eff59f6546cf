"""Expression grammar: parsing and canonical printing.

Grammar (whitespace is insignificant)::

    expr   := ["-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" nat)*
    atom   := lit | letter | "(" expr ")"
    lit    := nat | nat "/" nat          (rationals only over Q coefficients)

Parentheses nest at most MAX_NESTING (200) deep.  The letter atom
depends on the ring the text denotes::

    T(M,p)             "x[" melem "]"
    A or B             a generator name of that ring (Z and Q have none)

The melem literal is family specific::

    regular / scaled   integer (lit)
    double             "(" lit "," lit ")"
    tensor-free        "t(" word "," word ")"
    hnn-free           "h(" word ")"  or  "h(" word "," word ")"
    word               "1" | ident ("*" ident)*

An element of M is a bare ``0`` (its zero) or a signed sum of melems,
each optionally preceded by ``lit "*"``; for regular and scaled, whose
melem is itself a lit, a bare lit is the melem.  Printing a normal form
or an element of M and re-parsing it yields an equal element.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .errors import ParseError
from .rings import norm_scalar, signed_sum
from .tring import (
    DEFAULT_BUDGET, Add, Budget, ChargedRing, Const, Gen, Mul, Neg, Pow, eval_tree, t_normalize,
)

MAX_NESTING = 200


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def shown(self):
        return "end of input" if self.kind == "eof" else repr(self.value)


_SYMBOLS = "+-*^()[],/"
_DIGITS = "0123456789"  # str.isdigit also accepts digits such as "²", which int() refuses


def _tokenize(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                out.append(_Token("int", int(text[i:j]), i))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ParseError(f"integer literal of {j - i} digits is too long", i) from None
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in _SYMBOLS:
            out.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    out.append(_Token("eof", None, n))
    return out


def is_identifier(name):
    """Whether name is a string that the tokenizer reads as one identifier."""
    try:
        tokens = [(t.kind, t.value) for t in _tokenize(name)] if isinstance(name, str) else []
    except ParseError:
        return False
    return tokens == [("ident", name), ("eof", None)]


class _Parser:
    """Recursive descent over one text.

    gens is None for an element of T(M,p), whose letters are x[melem];
    for an element of A or B it holds the ring's generator names, which
    parse to Gen(index).
    """

    def __init__(self, family, text, gens=None):
        self.family = family
        self.gens = gens
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    # -- token plumbing -----------------------------------------------------
    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.shown()}", tok.pos)
        return tok

    def expect_call(self, name, message):
        """Consume `name(`, the head of a melem like t(...) or h(...)."""
        tok = self.next()
        if tok.kind != "ident" or tok.value != name:
            raise ParseError(message, tok.pos)
        self.expect("(")

    def fail(self, message):
        raise ParseError(message, self.peek().pos)

    # -- grammar -------------------------------------------------------------
    def parse_all(self):
        node = self.parse_expr()
        self.end()
        return node

    def end(self):
        if self.peek().kind != "eof":
            self.fail(f"unexpected trailing input {self.peek().value!r}")

    def parse_expr(self):
        negate = False
        if self.peek().kind == "-":
            self.next()
            negate = True
        node = self.parse_term()
        if negate:
            node = Neg(node)
        items = [node]
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            term = self.parse_term()
            items.append(Neg(term) if op == "-" else term)
        return items[0] if len(items) == 1 else Add(tuple(items))

    def parse_term(self):
        items = [self.parse_factor()]
        while self.peek().kind == "*":
            self.next()
            items.append(self.parse_factor())
        return items[0] if len(items) == 1 else Mul(tuple(items))

    def parse_factor(self):
        node = self.parse_atom()
        while self.peek().kind == "^":
            self.next()
            tok = self.expect("int")
            node = Pow(node, tok.value)
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            return Const(self.parse_lit())
        if tok.kind == "(":
            self.next()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING} levels", tok.pos)
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        if self.gens is not None:
            if tok.kind != "ident":
                self.fail(f"expected a literal, generator or parenthesized expression, found {tok.shown()}")
            if tok.value not in self.gens:
                raise ParseError(f"unknown generator {tok.value!r}", tok.pos)
            self.next()
            return Gen(self.gens.index(tok.value))
        if tok.kind == "ident" and tok.value == "x" and self.tokens[self.i + 1].kind == "[":
            self.next()
            self.next()
            m = self.family.parse_melem(self)
            self.expect("]")
            return Gen(m)
        self.fail(f"expected a literal, x[...] or parenthesized expression, found {tok.shown()}")

    def parse_lit(self):
        tok = self.expect("int")
        value = tok.value
        if self.peek().kind == "/":
            if self.family.ring != "Q":
                raise ParseError("rational literal not allowed over integer coefficients", self.peek().pos)
            self.next()
            den = self.expect("int")
            if den.value == 0:
                raise ParseError("zero denominator", den.pos)
            return norm_scalar(Fraction(value, den.value))
        return value

    def parse_signed_lit(self):
        if self.peek().kind == "-":
            self.next()
            return -self.parse_lit()
        return self.parse_lit()

    def parse_word(self, gens, side):
        tok = self.peek()
        if tok.kind == "int" and tok.value == 1:
            self.next()
            return ()
        letters = []
        while True:
            tok = self.expect("ident")
            if tok.value not in gens:
                raise ParseError(f"unknown {side}-generator {tok.value!r}", tok.pos)
            letters.append(gens.index(tok.value))
            if self.peek().kind == "*":
                # lookahead: a word continues only with another ident
                if self.tokens[self.i + 1].kind == "ident":
                    self.next()
                    continue
            break
        return tuple(letters)


def parse_element(family, text):
    """Parse text into a raw expression tree over the family."""
    return _Parser(family, text).parse_all()


def parse_normal(family, text):
    """Parse and normalize in one step, under a fresh DEFAULT_BUDGET."""
    return t_normalize(family, parse_element(family, text), Budget(DEFAULT_BUDGET))


def format_element(e):
    """Canonical grammar rendering of a normal form; round-trips by parse.

    Terms go by word length, then letter by letter in the order of the
    family's letter_key, which tells every two letters apart.  The distinct
    letters are sorted once per call: a word compares as the tuple of its
    letters' ranks, and a rank prints as x[letter_text]."""
    family = e.family
    letters = sorted({x for word in e.terms for x in word}, key=family.letter_key)
    rank = {x: i for i, x in enumerate(letters)}.__getitem__
    texts = [f"x[{family.letter_text(x)}]" for x in letters]
    # (length, ranks) tells the words apart, so no coefficient is compared
    terms = sorted([(len(w), tuple(map(rank, w)), c) for w, c in e.terms.items()])

    def body(ranks):
        if len(set(ranks)) == len(ranks):
            return "*".join(map(texts.__getitem__, ranks))
        runs = [(r, len(list(run))) for r, run in groupby(ranks)]
        return "*".join(texts[r] + (f"^{n}" if n > 1 else "") for r, n in runs)

    return signed_sum(((c, body(ranks)) for _, ranks, c in terms), spaced=True)


def format_oracle(family, value):
    """Display an oracle-ring value."""
    return family.oracle.fmt(value)


def parse_ring_element(family, component, text, budget):
    """Parse an element of A or B: the grammar with its generator names as
    letters, evaluated under budget."""
    ring = family.a_ring if component == "A" else family.b_ring
    tree = _Parser(family, text, ring.gens).parse_all()
    charged = ChargedRing(ring, budget)
    # Z and Q have no gens, so no Gen node and no generator method to look up
    return eval_tree(tree, charged, lambda i: ring.generator(i))


def parse_bim_element(family, text):
    """Parse a bimodule element: 0, or a signed sum of (c *) melems, c*m being M's action c*m*1."""
    p = _Parser(family, text)
    total = family.zero_m()
    if len(p.tokens) == 2 and p.peek().value == 0:
        return total
    scale = lambda c, m: family.apply(family.a_ring.from_int(c), m, family.b_one)

    def melem_term():
        coeff = 1
        if p.peek().kind == "int" and not family.scalar_melem:
            coeff = p.parse_lit()
            p.expect("*")
        m = family.parse_melem(p)
        return scale(coeff, m) if coeff != 1 else m

    negate = p.peek().kind == "-"
    if negate:
        p.next()
    m = melem_term()
    total = family.add_m(total, scale(-1, m) if negate else m)
    while p.peek().kind in ("+", "-"):
        op = p.next().kind
        m = melem_term()
        total = family.add_m(total, scale(-1, m) if op == "-" else m)
    p.end()
    return total
