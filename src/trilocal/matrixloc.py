"""The localization of R as the full 2x2 matrix ring over T(M,p).

The 2x2 matrix ring over T is ``linalg.Matrix`` over the ring object
``tring.TOps``, and a map out of R into it is a ``TriMap``.  Making the
column morphism invertible is certified by exact matrix-unit
identities rather than abstract tensor modules: the image of (0, p, 0)
must be e12, and e12*e21 = e11, e21*e12 = e22 exhibit right
multiplication by e21 as the needed inverse.
"""

from __future__ import annotations

import random

from .exprs import format_element
from .linalg import Matrix
from .report import DEFAULT_SEED, Report
from .tring import TOps, rho
from .triangular import TriElement, random_tri, tri_add, tri_mul


def matrix_unit(family, i, j):
    """Matrix unit e_ij of the 2x2 matrix ring over T(M,p)."""
    ring = TOps(family)
    return Matrix(ring, [[ring.one() if (r, c) == (i, j) else ring.zero() for c in (1, 2)] for r in (1, 2)])


def matrix_text(matrix):
    """[e11, e12; e21, e22], each entry printed as a normal form."""
    return "[" + "; ".join(", ".join(format_element(x) for x in row) for row in matrix.rows) + "]"


class TriMap:
    """A map out of R into the 2x2 matrix ring over T(M,p), fixed by its parts A, M
    and B, each into T(M,p): (a, m, b) goes to the rows (A(a), M(m)) and (0, B(b)).
    TriMap(family) is the engine's map, whose parts are tring.rho; a part passed by
    name, as in TriMap(family, M=f), replaces rho's and makes the map opaque.
    """

    __slots__ = ("family", "parts")

    def __init__(self, family, **parts):
        if not parts.keys() <= {"A", "M", "B"}:
            raise TypeError(f"a TriMap has the parts A, M and B, not {sorted(parts.keys() - {'A', 'M', 'B'})}")
        self.family = family
        self.parts = parts

    def __call__(self, r):
        family, parts = self.family, self.parts
        family.check_same(r.family)
        image = lambda c, v: parts[c](v) if c in parts else rho(family, c, v)
        ring = TOps(family)
        return Matrix(ring, [[image("A", r.a), image("M", r.m)], [ring.zero(), image("B", r.b)]])


def rho_matrix(r):
    """Image of a triangular element under the engine's map."""
    return TriMap(r.family)(r)


def verify_sigma_inverting(f, samples, seed=DEFAULT_SEED):
    """Certify that the TriMap f inverts the column morphism.

    Exact checks: f is unital; f sends (0, p, 0) to e12; e12*e21 = e11 and
    e21*e12 = e22, so right multiplication by e21 inverts the base-changed
    column map; and f sends (1, 0, 0) and (0, 0, 1), which generate P and Q,
    to e11 and e22.  Sampled: f is multiplicative and additive on pairs.
    """
    family = f.family
    rep = Report(f"sigma-inverting [{family.describe()}]", seed=seed, meta={"samples": samples})
    rng = random.Random(seed)

    ok = f(TriElement.one(family)) == Matrix.identity(TOps(family), 2)
    rep.add("unital: image of 1_R is the identity matrix", ok)

    def cases():  # one sampled pair feeds both checks; its witness is built only if one fails
        for _ in range(samples):
            r1, r2 = random_tri(family, rng, size=4), random_tri(family, rng, size=4)
            m1, m2 = f(r1), f(r2)
            holds = (f(tri_mul(r1, r2)) == m1 * m2, f(tri_add(r1, r2)) == m1 + m2)
            witness = None if all(holds) else f"r1={r1.fmt()} r2={r2.fmt()}"
            yield tuple(None if ok else witness for ok in holds)

    rep.first_failures(("multiplicative on sampled pairs", "additive on sampled pairs"), cases())

    e12 = matrix_unit(family, 1, 2)
    got = f(TriElement(family, family.a_ring.zero(), family.p, family.b_ring.zero()))
    rep.add("image of (0, p, 0) is e12", got == e12, "" if got == e12 else f"got {matrix_text(got)}")

    e21 = matrix_unit(family, 2, 1)
    rep.add("e12*e21 = e11", e12 * e21 == matrix_unit(family, 1, 1))
    rep.add("e21*e12 = e22", e21 * e12 == matrix_unit(family, 2, 2))

    # column identification: P = R(1, 0, 0) and Q = R(0, 0, 1), so P lands
    # in column 1 and Q in column 2 when those idempotents map to e11 and e22
    p_image = f(TriElement(family, family.a_one, family.zero_m(), family.b_ring.zero()))
    q_image = f(TriElement(family, family.a_ring.zero(), family.zero_m(), family.b_one))
    rep.add("P lands in column 1, Q in column 2",
            p_image == matrix_unit(family, 1, 1) and q_image == matrix_unit(family, 2, 2))
    return rep
