"""The localization of R as the full 2x2 matrix ring over T(M,p).

The map sends (a, m, b) to the matrix with rows (a*p-image, m-image)
and (0, p*b-image); making the column morphism invertible is certified
by exact matrix-unit identities rather than abstract tensor modules:
the image of (0, p, 0) must be e12, and e12*e21 = e11, e21*e12 = e22
exhibit right multiplication by e21 as the needed inverse.
"""

from __future__ import annotations

import random

from .report import Report
from .tring import TElement, rho, t_add, t_eq, t_mul, t_neg, EqResult
from .triangular import TriElement, random_tri, tri_add, tri_mul


class Matrix2:
    """2x2 matrix over T(M,p), entries in normal form."""

    __slots__ = ("family", "e11", "e12", "e21", "e22")

    def __init__(self, family, e11, e12, e21, e22):
        for entry in (e11, e12, e21, e22):
            family.check_same(entry.family)
        self.family = family
        self.e11 = e11
        self.e12 = e12
        self.e21 = e21
        self.e22 = e22

    @classmethod
    def identity(cls, family):
        one, zero = TElement.one(family), TElement.zero(family)
        return cls(family, one, zero, zero, one)

    @classmethod
    def unit(cls, family, i, j):
        """Matrix unit e_ij."""
        entries = [[TElement.zero(family)] * 2 for _ in range(2)]
        entries[i - 1][j - 1] = TElement.one(family)
        return cls(family, entries[0][0], entries[0][1], entries[1][0], entries[1][1])

    def rows(self):
        return [[self.e11, self.e12], [self.e21, self.e22]]

    def __add__(self, other):
        self.family.check_same(other.family)
        return Matrix2(
            self.family,
            t_add(self.e11, other.e11),
            t_add(self.e12, other.e12),
            t_add(self.e21, other.e21),
            t_add(self.e22, other.e22),
        )

    def __neg__(self):
        return Matrix2(self.family, t_neg(self.e11), t_neg(self.e12), t_neg(self.e21), t_neg(self.e22))

    def __mul__(self, other):
        self.family.check_same(other.family)
        a, b = self.rows()
        c, d = other.rows()
        return Matrix2(
            self.family,
            t_add(t_mul(a[0], c[0]), t_mul(a[1], d[0])),
            t_add(t_mul(a[0], c[1]), t_mul(a[1], d[1])),
            t_add(t_mul(b[0], c[0]), t_mul(b[1], d[0])),
            t_add(t_mul(b[0], c[1]), t_mul(b[1], d[1])),
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix2):
            return NotImplemented
        return (
            self.family == other.family
            and all(
                t_eq(x, y) is EqResult.EQUAL
                for x, y in zip(
                    (self.e11, self.e12, self.e21, self.e22),
                    (other.e11, other.e12, other.e21, other.e22),
                )
            )
        )

    def fmt(self):
        from .exprs import format_element

        return (
            f"[{format_element(self.e11)}, {format_element(self.e12)}; "
            f"{format_element(self.e21)}, {format_element(self.e22)}]"
        )

    def __repr__(self):
        return f"Matrix2{self.fmt()}"


def rho_matrix(r, rho_maps=None):
    """Image of a triangular element in the 2x2 matrix ring over T.

    rho_maps can replace the three structure maps (used by negative
    controls in tests); each entry takes (family, value).
    """
    family = r.family
    maps = rho_maps or _default_maps()
    return Matrix2(
        family,
        maps["A"](family, r.a),
        maps["M"](family, r.m),
        TElement.zero(family),
        maps["B"](family, r.b),
    )


def _default_maps():
    return {
        "A": lambda fam, v: rho(fam, "A", v),
        "M": lambda fam, v: rho(fam, "M", v),
        "B": lambda fam, v: rho(fam, "B", v),
    }


def verify_sigma_inverting(family, samples=200, seed=1729, rho_maps=None):
    """Certify that the matrix map inverts the column morphism.

    Checks, exactly: the map is a unital ring morphism on sampled pairs,
    the image of (0, p, 0) is e12, and the matrix-unit identities
    e12*e21 = e11 and e21*e12 = e22 hold, so right multiplication by e21
    inverts the base-changed column map.
    """
    rep = Report(f"sigma-inverting [{family.describe()}]", seed=seed, meta={"samples": samples})
    rng = random.Random(seed)
    image = lambda r: rho_matrix(r, rho_maps)

    ok = image(TriElement.one(family)) == Matrix2.identity(family)
    rep.add("unital: image of 1_R is the identity matrix", ok)

    mul_ok, add_ok = True, True
    witness = ""
    for _ in range(samples):
        r1 = random_tri(family, rng, size=4)
        r2 = random_tri(family, rng, size=4)
        if image(tri_mul(r1, r2)) != image(r1) * image(r2):
            mul_ok = False
            witness = f"r1={r1.fmt()} r2={r2.fmt()}"
            break
        if image(tri_add(r1, r2)) != image(r1) + image(r2):
            add_ok = False
            witness = f"r1={r1.fmt()} r2={r2.fmt()}"
            break
    rep.add("multiplicative on sampled pairs", mul_ok, witness if not mul_ok else "")
    rep.add("additive on sampled pairs", add_ok, witness if not add_ok else "")

    corner = TriElement(family, family.a_ring.zero(), family.p, family.b_ring.zero())
    e12 = Matrix2.unit(family, 1, 2)
    got = image(corner)
    rep.add(
        "image of (0, p, 0) is e12",
        got == e12,
        "" if got == e12 else f"got {got.fmt()}",
    )

    e21 = Matrix2.unit(family, 2, 1)
    e11 = Matrix2.unit(family, 1, 1)
    e22 = Matrix2.unit(family, 2, 2)
    rep.add("e12*e21 = e11", e12 * e21 == e11)
    rep.add("e21*e12 = e22", e21 * e12 == e22)

    # column identification: P-parts land in the first column, Q-parts in
    # the second
    col_ok = True
    for _ in range(20):
        r = random_tri(family, rng, size=4)
        p_img = image(TriElement(family, r.a, family.zero_m(), family.b_ring.zero()))
        q_img = image(TriElement(family, family.a_ring.zero(), r.m, r.b))
        if not (p_img.e12.is_zero() and p_img.e22.is_zero()):
            col_ok = False
        if not (q_img.e11.is_zero() and q_img.e21.is_zero()):
            col_ok = False
    rep.add("P lands in column 1, Q in column 2", col_ok)
    return rep
