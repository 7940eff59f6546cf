"""The localization of R as the full 2x2 matrix ring over T(M,p).

The 2x2 matrix ring over T is ``linalg.Matrix`` over the ring object
``tring.TOps``.  The map sends (a, m, b) to the matrix with rows
(a*p-image, m-image) and (0, p*b-image), so P = R(1, 0, 0) and
Q = R(0, 0, 1) land in the first and the second column.  Making the
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


def rho_matrix(r, rho_maps=None):
    """Image of a triangular element in the 2x2 matrix ring over T.

    rho_maps can replace the three structure maps (used by negative
    controls in tests); each entry takes (family, value).
    """
    family = r.family
    ring = TOps(family)
    image = lambda c, v: rho_maps[c](family, v) if rho_maps else rho(family, c, v)
    return Matrix(ring, [[image("A", r.a), image("M", r.m)], [ring.zero(), image("B", r.b)]])


def verify_sigma_inverting(family, samples, seed=DEFAULT_SEED, rho_maps=None):
    """Certify that the matrix map inverts the column morphism.

    Checks, exactly: the map is a unital ring morphism on sampled pairs,
    the image of (0, p, 0) is e12, the matrix-unit identities
    e12*e21 = e11 and e21*e12 = e22 hold, so right multiplication by e21
    inverts the base-changed column map, and the column identification:
    (1, 0, 0) and (0, 0, 1), which generate P and Q, map to e11 and e22.
    """
    rep = Report(f"sigma-inverting [{family.describe()}]", seed=seed, meta={"samples": samples})
    rng = random.Random(seed)
    image = lambda r: rho_matrix(r, rho_maps)

    ok = image(TriElement.one(family)) == Matrix.identity(TOps(family), 2)
    rep.add("unital: image of 1_R is the identity matrix", ok)

    def cases():  # one sampled pair feeds both checks; its witness is built only if one fails
        for _ in range(samples):
            r1, r2 = random_tri(family, rng, size=4), random_tri(family, rng, size=4)
            m1, m2 = image(r1), image(r2)
            holds = (image(tri_mul(r1, r2)) == m1 * m2, image(tri_add(r1, r2)) == m1 + m2)
            witness = None if all(holds) else f"r1={r1.fmt()} r2={r2.fmt()}"
            yield tuple(None if ok else witness for ok in holds)

    rep.first_failures(("multiplicative on sampled pairs", "additive on sampled pairs"), cases())

    corner = TriElement(family, family.a_ring.zero(), family.p, family.b_ring.zero())
    e12 = matrix_unit(family, 1, 2)
    got = image(corner)
    rep.add(
        "image of (0, p, 0) is e12",
        got == e12,
        "" if got == e12 else f"got {matrix_text(got)}",
    )

    e21 = matrix_unit(family, 2, 1)
    rep.add("e12*e21 = e11", e12 * e21 == matrix_unit(family, 1, 1))
    rep.add("e21*e12 = e22", e21 * e12 == matrix_unit(family, 2, 2))

    # column identification: P = R(1, 0, 0) and Q = R(0, 0, 1), so P lands
    # in column 1 and Q in column 2 when those idempotents map to e11 and e22
    p_image = image(TriElement(family, family.a_one, family.zero_m(), family.b_ring.zero()))
    q_image = image(TriElement(family, family.a_ring.zero(), family.zero_m(), family.b_one))
    rep.add("P lands in column 1, Q in column 2",
            p_image == matrix_unit(family, 1, 1) and q_image == matrix_unit(family, 2, 2))
    return rep
