"""Replacing p by a0*p: centrality, the induced map, and fraction forms.

For a0 in A and b0 in B with a0*m = m*b0 for every m, the generator
indexed by a0*p is central, and the bimodule map m -> a0*m induces a
ring morphism from T(M,p) to T(M,a0*p) that inverts that generator.
Every element of the target then carries a fraction form: a numerator
from T(M,p) over a power of the inverted generator.

A ring map out of T(M,p) is its generator images, so the induced map
and the factorization through T(M,a0*p) are each one ``LetterHom``.

A central pair exists where T(M,a0*p) has a family, and those instances
keep the image-membership problem decidable: regular-Z (target =
scaled(a0)) and scaled(k) (target = scaled(a0*k)).  Both have a basis of
M, which decides centrality.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import CertificateError, UnsupportedFamilyError
from .report import Report
from .rings import QQ
from .tring import (
    Record,
    TElement,
    TOps,
    eval_tree,
    family_iso,
    map_terms,
    relation_failure,
    rho,
    t_generator,
    t_mul,
    t_normalize,
)


class CentralPair:
    """A pair (a0, b0) with a0*m = m*b0 throughout M; ``target``, the family
    presenting T(M,a0*p); and ``induced``, the LetterHom x_m -> x_{a0*m}
    from T(M,p) into T(M,a0*p).

    The target is built first: a family without one has no central pair.
    Every family with a target has a basis of M, and the basis decides the
    condition for every m, as apply is bilinear: m -> a0*m - m*b0 is
    additive, so Z-linear, and Q-linear over Q.
    """

    __slots__ = ("family", "a0", "target", "induced")

    def __init__(self, family, a0, b0):
        self.target = family.scaled_p_variant(a0)
        self.family = family
        self.a0 = a0
        for m in family.basis():
            if family.apply(a0, m, family.b_one) != family.apply(family.a_one, m, b0):
                raise UnsupportedFamilyError(f"not a central pair: a0*m != m*b0 for m = {family.fmt_m(m)}")
        ops = TOps(self.target)
        self.induced = LetterHom(family, ops, lambda m: ops.gen(family.apply(a0, m, family.b_one)))

    def x_a0p(self):
        """The element of T(M,p) indexed by a0*p."""
        return rho(self.family, "A", self.a0)

    def old_p_in_target(self):
        """x_p viewed inside T(M,a0*p); the inverse of the image of x_{a0*p}."""
        return t_generator(self.target, self.family.p)

    def fraction_form(self, e):
        """Write e in T(M,a0*p) as numerator / x_{a0*p}**r with minimal r.

        Minimality comes from repeated exact division in the oracle
        ring; the reassembled product is checked against e exactly.
        """
        self.target.check_same(e.family)
        frac = Fraction(family_iso(e))
        r = 0
        while True:
            terms = self.family.terms_with_value(frac * self.a0 ** r)
            if terms is not None:
                alpha = TElement(self.family, terms)
                break
            r += 1
        reassembled = t_mul(self.induced(alpha), self.old_p_in_target() ** r)
        if reassembled != e:
            raise CertificateError("fraction reassembly failed")
        return FractionForm(alpha, r)


class FractionForm(Record):
    """numerator in T(M,p), denominator exponent r for x_{a0*p}**r."""

    __slots__ = ("numerator", "exponent")


def check_central(pair):
    """Verify x_(a0*p) commutes with every x_m, and its image inverts x_p.

    Commutation is checked on M's basis, which decides it for every m: each
    basis family's letter_terms writes x_m as a scalar combination of 1 and
    the basis letters, and commuting with x_(a0*p) is linear.
    """
    fam = pair.family
    rep = Report(f"centrality of x_(a0*p) [{fam.describe()}]", meta={"certification": "basis"})
    x0 = pair.x_a0p()
    commutes = lambda xm: t_mul(x0, xm) == t_mul(xm, x0)
    rep.first_failure("x_(a0*p) commutes with every probe generator", (
        f"fails on basis element {fam.fmt_m(m)}" for m in fam.basis() if not commutes(t_generator(fam, m))
    ))
    inv = pair.old_p_in_target()
    image = pair.induced(x0)
    one = TElement.one(pair.target)
    rep.add("image of x_(a0*p) times x_p is 1", t_mul(image, inv) == one)
    rep.add("x_p times image of x_(a0*p) is 1", t_mul(inv, image) == one)
    return rep


# ---------------------------------------------------------------------------
# Homomorphisms out of T(M,p) given on letters, and the factorization
# through T(M,a0*p).
# ---------------------------------------------------------------------------

class LetterHom:
    """Ring morphism T(M,p) -> S determined by generator images.

    generator_image(m) must give the S-image of x_m for a canonical
    bimodule element m; a coefficient enters through s_ring.from_int.
    """

    __slots__ = ("family", "s_ring", "generator_image")

    def __init__(self, family, s_ring, generator_image):
        self.family = family
        self.s_ring = s_ring
        self.generator_image = generator_image

    def __call__(self, e):
        self.family.check_same(e.family)
        return map_terms(e, self.s_ring, lambda letter: self.generator_image(self.family.letter_bim(letter)))

    def respects_relations(self, samples, seed):
        """Sampled check that the letter images satisfy the presentation."""
        fam = self.family
        gen = lambda m: self(t_generator(fam, m))
        return relation_failure(fam, self.s_ring, gen, samples, random.Random(seed)) is None


def _factored(pair, hom, f_inv):
    """The factorization of hom through T(M,a0*p): the LetterHom that sends a
    target generator x_m to f_inv * hom(x_m)."""
    rg = hom.s_ring
    return LetterHom(pair.target, rg, lambda m: rg.mul(f_inv, hom.generator_image(m)))


def factor_inverting_hom(pair, hom, f_inv, e):
    """Evaluate the unique factorization of hom through T(M,a0*p) on e.

    hom must invert the image of x_{a0*p} with the supplied f_inv.
    """
    rg = hom.s_ring
    f_x0 = hom(pair.x_a0p())
    if rg.mul(f_inv, f_x0) != rg.one() or rg.mul(f_x0, f_inv) != rg.one():
        raise ValueError("f_inv is not a two-sided inverse of the image of x_(a0*p)")
    return _factored(pair, hom, f_inv)(e)


def rational_value_hom(family):
    """The evaluation morphism into Q for the Z-based shipped families."""
    k = family.rational_k
    if k is None:
        raise UnsupportedFamilyError(f"no rational evaluation for {family.kind}")
    return LetterHom(family, QQ, lambda m: Fraction(m, k))


def two_order_agreement(pair, hom, f_inv, expr):
    """Evaluate the factored map on a raw expression two independent ways.

    Order one normalizes in T(M,a0*p) first and then maps letterwise;
    order two evaluates the expression tree directly in S.  Agreement
    on random expressions mirrors the uniqueness of the factorization.
    """
    via_normal = factor_inverting_hom(pair, hom, f_inv, t_normalize(pair.target, expr))
    via_tree = eval_tree(expr, hom.s_ring, _factored(pair, hom, f_inv).generator_image)
    return via_normal == via_tree, via_normal, via_tree
