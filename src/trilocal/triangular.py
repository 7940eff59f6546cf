"""The triangular matrix ring R, its column modules, and module triples.

R has elements (a, m, b) standing for the matrix with diagonal a, b and
upper corner m; multiplication is (a, m, b)(a', m', b') =
(aa', am' + mb', bb').  The two columns P = (A; 0) and Q = (M; B)
decompose R, and the morphism P -> Q determined by p sends (1; 0) to
(p; 0).

A left module over R is equivalently a triple (N_A, N_B, f) where f
maps M (x) N_B into N_A; the triple is stored with finitely presented
N_A, N_B and f given per bimodule basis element, so the family must
expose a finite free basis for M.  N_A and N_B are ``FPModule``s, the
``modloc.Presentation``s that input over Z or Q is checked into; their
membership tests and invariants are the Presentation's.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import SchemaError, UnsupportedFamilyError, check_fields
from .modloc import Presentation
from .rings import checked_scalar, scalar_add, scalar_mul, scalar_ring

_RATIONAL = re.compile(r"[+-]?[0-9]+/[+-]?[0-9]+")  # int() alone also reads other digits, "1_0" and blanks


class TriElement:
    """Element (a, m, b) of R = (A M; 0 B)."""

    __slots__ = ("family", "a", "m", "b")

    def __init__(self, family, a, m, b):
        self.family = family
        self.a = a
        self.m = family.canon_m(m)
        self.b = b

    @classmethod
    def one(cls, family):
        return cls(family, family.a_ring.one(), family.zero_m(), family.b_ring.one())

    @classmethod
    def zero(cls, family):
        return cls(family, family.a_ring.zero(), family.zero_m(), family.b_ring.zero())

    def __eq__(self, other):
        if not isinstance(other, TriElement):
            return NotImplemented
        return (self.family, self.a, self.m, self.b) == (other.family, other.a, other.m, other.b)

    def fmt(self):
        fam = self.family
        return f"({fam.a_ring.fmt(self.a)}, {fam.fmt_m(self.m)}, {fam.b_ring.fmt(self.b)})"

    def __repr__(self):
        return f"TriElement{self.fmt()}"


def tri_add(r1, r2):
    r1.family.check_same(r2.family)
    fam = r1.family
    return TriElement(
        fam,
        fam.a_ring.add(r1.a, r2.a),
        fam.add_m(r1.m, r2.m),
        fam.b_ring.add(r1.b, r2.b),
    )


def random_tri(family, rng, size):
    a, m, b = family.a_ring.random(rng, size), family.random_m(rng, size), family.b_ring.random(rng, size)
    return TriElement(family, a, m, b)


# ---------------------------------------------------------------------------
# Columns: P = (A; 0) and Q = (M; B), with P + Q = R elementwise.
# ---------------------------------------------------------------------------

class SigmaMorphism:
    """The left-module morphism P -> Q sending (1; 0) to (p; 0)."""

    __slots__ = ("family",)

    def __init__(self, family):
        self.family = family

    def apply(self, a):
        """Image of the P-column element (a; 0): the Q-column (a*p, 0)."""
        fam = self.family
        return (fam.apply(a, fam.p, fam.b_one), fam.b_ring.zero())


def column_split(r):
    """Decompose (a, m, b) into its P-part a and Q-part (m, b)."""
    return r.a, (r.m, r.b)


def column_join(family, a, q):
    return TriElement(family, a, q[0], q[1])


def act_p(r, a):
    """Left action of R on the P-column: r * (a; 0) = (r.a * a; 0)."""
    return r.family.a_ring.mul(r.a, a)


def act_q(r, q):
    """Left action of R on the Q-column: r * (m; b) = (r.a*m + r.m*b; r.b*b)."""
    fam = r.family
    m, b = q
    m_new = fam.add_m(fam.apply(r.a, m, fam.b_one), fam.apply(fam.a_one, r.m, b))
    return (m_new, fam.b_ring.mul(r.b, b))


def tri_mul(r1, r2):
    """r1 * r2, column by column: r1 acting on the P- and Q-parts of r2."""
    r1.family.check_same(r2.family)
    a, q = column_split(r2)
    return column_join(r1.family, act_p(r1, a), act_q(r1, q))


# ---------------------------------------------------------------------------
# Finitely presented modules over Z or Q and module triples.
# ---------------------------------------------------------------------------

class FPModule(Presentation):
    """Finitely presented module over Z or Q, checked as it is read from input."""

    __slots__ = ()

    def __init__(self, tag, gens, rows=()):
        ring = scalar_ring(tag)
        if type(gens) is not int or gens < 0:
            raise SchemaError(f"generator count must be a non-negative integer, got {gens!r}")
        checked = []
        for row in rows:
            if len(row) != gens:
                raise SchemaError(f"relation length {len(row)} != generator count {gens}")
            checked.append([checked_scalar(ring, c) for c in row])
        super().__init__(ring, gens, checked)

    def direct_sum(self, other):
        if other.ring is not self.ring:
            raise SchemaError("direct sum needs a common base ring")
        gens = self.gens + other.gens
        rows = [row + [0] * other.gens for row in self.rows]
        rows += [[0] * self.gens + row for row in other.rows]
        return FPModule(self.ring.name, gens, rows)


def _combination(terms, length):
    """The sum of c * v over the (c, v) pairs, a coordinate vector of the given length."""
    out = [0] * length
    for c, vec in terms:
        if c != 0:
            out = [scalar_add(x, scalar_mul(c, y)) for x, y in zip(out, vec)]
    return out


def relation_images(f, rows, gens):
    """f composed with each N_B relation row s: for every row, then every
    bimodule basis element mu, the N_A vector sum_j s_j f(mu (x) n_j) of
    length gens."""
    return [_combination(zip(s, block), gens) for s in rows for block in f]


class TripleModule:
    """Left R-module as a triple (N_A, N_B, f).

    f is stored per bimodule basis element and per N_B generator as a
    coordinate vector in N_A; well-definedness against the N_B
    relations is checked eagerly at construction.
    """

    __slots__ = ("family", "NA", "NB", "f")

    def __init__(self, family, NA, NB, f):
        basis = family.basis()
        if basis is None:
            raise UnsupportedFamilyError(f"{family.kind} exposes no finite free bimodule basis")
        if NA.ring is not family.coeff_ring or NB.ring is not family.coeff_ring:
            raise SchemaError(f"module base ring must match the family base ({family.ring})")
        f = [[[checked_scalar(family.coeff_ring, c) for c in vec] for vec in block] for block in f]
        if len(f) != len(basis):
            raise SchemaError(f"f must have one block per basis element ({len(basis)}), got {len(f)}")
        for block in f:
            if len(block) != NB.gens:
                raise SchemaError(f"each f block needs {NB.gens} rows (one per N_B generator)")
            for vec in block:
                if len(vec) != NA.gens:
                    raise SchemaError(f"f values must be N_A coordinate vectors of length {NA.gens}")
        self.family = family
        self.NA = NA
        self.NB = NB
        self.f = f
        self._check_well_defined()

    def _check_well_defined(self):
        # f composed with each N_B relation must land in the N_A relation span
        for k, vec in enumerate(relation_images(self.f, self.NB.rows, self.NA.gens)):
            if not self.NA.contains(vec):
                srow = self.NB.rows[k // len(self.f)]
                raise SchemaError(
                    f"f is not well defined: basis element {k % len(self.f)} composed with relation {srow} "
                    "does not land in the N_A relation span"
                )

    def direct_sum(self, other):
        if other.family != self.family:
            raise SchemaError("direct sum needs a common family")
        NA = self.NA.direct_sum(other.NA)
        NB = self.NB.direct_sum(other.NB)
        f = []
        for i in range(len(self.f)):
            block = []
            for j in range(self.NB.gens):
                block.append(self.f[i][j] + [0] * other.NA.gens)
            for j in range(other.NB.gens):
                block.append([0] * self.NA.gens + other.f[i][j])
            f.append(block)
        return TripleModule(self.family, NA, NB, f)


def triple_from_json(family, data):
    """TripleModule from the JSON wire format.

    Schema: {"family": ..., "NA": {"gens": n, "rels": [[..]]},
    "NB": {...}, "f": {"<basis-elt>": [[..], ...]}}.
    """
    if not isinstance(data, dict):
        raise SchemaError("module spec must be a JSON object")
    check_fields(data, ("family", "NA", "NB", "f"), "module spec")
    try:
        na = data["NA"]
        nb = data["NB"]
    except KeyError as exc:
        raise SchemaError(f"module spec is missing {exc.args[0]!r}") from exc

    def parse_entry(c):
        # a "p/q" string is read here; FPModule and TripleModule check every entry as a scalar
        if not isinstance(c, str):
            return c
        if _RATIONAL.fullmatch(c) is None:
            raise SchemaError(f"matrix entry {c!r} is not a rational p/q of ASCII digits")
        num, _, den = c.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"matrix entry {c!r} is not a rational p/q: {exc}") from exc

    def parse_rows(rows, name):
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise SchemaError(f"{name} must be a list of rows, each a list of entries")
        return [[parse_entry(c) for c in row] for row in rows]

    def parse_module(obj, name):
        if not isinstance(obj, dict) or "gens" not in obj:
            raise SchemaError(f"{name} must be an object with 'gens' and optional 'rels'")
        check_fields(obj, ("gens", "rels"), name)
        return FPModule(family.ring, obj["gens"], parse_rows(obj.get("rels", []), f"{name}.rels"))

    NA = parse_module(na, "NA")
    NB = parse_module(nb, "NB")
    basis = family.basis() or ()  # TripleModule rejects a family without one
    f_in = data.get("f", {})
    if not isinstance(f_in, dict):
        raise SchemaError("f must be an object keyed by basis elements")
    f = []
    for mu in basis:
        key = family.fmt_m(mu)
        block = f_in.get(key)
        if block is None:
            block = [[0] * NA.gens for _ in range(NB.gens)]
        else:
            block = parse_rows(block, f"f[{key!r}]")
        f.append(block)
    known = {family.fmt_m(mu) for mu in basis}
    for key in f_in:
        if key not in known:
            raise SchemaError(f"unknown basis element {key!r} in f (expected {sorted(known)})")
    return TripleModule(family, NA, NB, f)

