"""Localization of module triples: the cokernel presentation over T.

For a triple (N_A, N_B, f) the localized column is (L; L) where L is
presented over T by the base-changed relations of N_A and N_B together
with one mixed relation per bimodule basis element mu and N_B generator
j:

    f(mu (x) n_j)  -  x_mu * n_j  =  0,

the minus sign coming from the defining map t (x) m -> -t x_m.  The
comparison maps between L and the tensor-side module send generators
to generators, so they act on coordinate vectors as index maps.  Exact
membership tests verify them, so a passing report certifies the
isomorphism on the presented generators.

T must admit canonical diagonal forms, which pins the supported
families to regular-Z (T = Z), scaled (T = Z[1/k]) and double-Q
(T = Q[x]).
"""

from __future__ import annotations

import random

from .errors import UnsupportedFamilyError
from .linalg import Matrix, diagonal_form, in_row_span
from .report import Report
from .tring import family_iso, t_generator


def t_ring_of(family):
    """The computable ring presenting T, or raise for unsupported families."""
    if family.t_ring is None:
        raise UnsupportedFamilyError(
            f"module localization supports regular-Z, scaled and double-Q, not {family.describe()}"
        )
    return family.t_ring


class Presentation:
    """A T-module given by generators and relation rows over the ring."""

    __slots__ = ("ring", "gens", "rows", "_form")

    def __init__(self, ring, gens, rows):
        self.ring = ring
        self.gens = gens
        self.rows = [list(r) for r in rows]
        for r in self.rows:
            if len(r) != gens:
                raise ValueError("relation length does not match generator count")
        self._form = None

    def form(self):
        if self._form is None:
            rows = self.rows if self.rows else [[self.ring.zero()] * self.gens]
            self._form = diagonal_form(Matrix(self.ring, rows))
        return self._form

    def contains(self, vector):
        """Membership of a vector in the relation row span."""
        if self.gens == 0:
            return True
        return in_row_span(self.form(), vector)

    def invariant_factors(self):
        return self.form().invariant_factors()

    def free_rank(self):
        return self.form().free_rank()

    def random_vector(self, rng, size=4):
        return [self.ring.random(rng, size) for _ in range(self.gens)]

    def matrix_fmt(self):
        if not self.rows:
            return "[]"
        return "[" + "; ".join(" ".join(self.ring.fmt(x) for x in row) for row in self.rows) + "]"


def _embedded_row(family, row):
    return [family.oracle_a(c) for c in row]


def _x_mu_values(family):
    return [family_iso(t_generator(family, mu)) for mu in family.basis()]


def localized_presentation(module, g_sign=1):
    """The presentation of L for a module triple; g_sign=-1 is the broken
    variant used as a negative control."""
    family = module.family
    ring = t_ring_of(family)
    gA, gB = module.NA.gens, module.NB.gens
    gens = gA + gB
    zero = ring.zero()
    rows = []
    for row in module.NA.rels:
        rows.append(_embedded_row(family, row) + [zero] * gB)
    for row in module.NB.rels:
        rows.append([zero] * gA + _embedded_row(family, row))
    x_mu = _x_mu_values(family)
    for i in range(len(x_mu)):
        for j in range(gB):
            row = _embedded_row(family, module.f[i][j]) + [zero] * gB
            coef = ring.neg(x_mu[i]) if g_sign > 0 else x_mu[i]
            row[gA + j] = coef
            rows.append(row)
    return Presentation(ring, gens, rows)


def invariant_factors(pres):
    """Invariant factor list and free rank of the presented module."""
    return pres.invariant_factors(), pres.free_rank()


def tensor_side_presentation(module):
    """Presentation of the row-tensor module on four generator blocks.

    Generators, in order: u1 (x) N_A, u1 (x) N_B, u2 (x) N_A,
    u2 (x) N_B.  The relations are derived from the tensor identities
    u * image(x) (x) n = u (x) x * n for x among the corner idempotents
    and the bimodule-basis corners, plus the embedded module relations
    in every block.
    """
    family = module.family
    ring = t_ring_of(family)
    gA, gB = module.NA.gens, module.NB.gens
    gens = 2 * (gA + gB)
    zero = ring.zero()

    def blank():
        return [zero] * gens

    # block offsets
    u1A, u1B, u2A, u2B = 0, gA, gA + gB, gA + gB + gA
    rows = []
    for u_off_A, u_off_B in ((u1A, u1B), (u2A, u2B)):
        for row in module.NA.rels:
            out = blank()
            emb = _embedded_row(family, row)
            for i in range(gA):
                out[u_off_A + i] = emb[i]
            rows.append(out)
        for row in module.NB.rels:
            out = blank()
            emb = _embedded_row(family, row)
            for j in range(gB):
                out[u_off_B + j] = emb[j]
            rows.append(out)
    # the cross blocks die: u1 (x) N_B and u2 (x) N_A are annihilated by
    # the corner idempotents
    for j in range(gB):
        out = blank()
        out[u1B + j] = ring.one()
        rows.append(out)
    for i in range(gA):
        out = blank()
        out[u2A + i] = ring.one()
        rows.append(out)
    x_mu = _x_mu_values(family)
    for t in range(len(x_mu)):
        # u1 with the corner (0, mu, 0) on an N_B generator: the mixed rows
        for j in range(gB):
            out = blank()
            emb = _embedded_row(family, module.f[t][j])
            for i in range(gA):
                out[u1A + i] = emb[i]
            out[u2B + j] = ring.neg(x_mu[t])
            rows.append(out)
        # u1 with the corner on an N_A generator: x_mu kills u2A
        for i in range(gA):
            out = blank()
            out[u2A + i] = x_mu[t]
            rows.append(out)
        # u2 with the corner on an N_B generator lands in the dead block
        for j in range(gB):
            out = blank()
            emb = _embedded_row(family, module.f[t][j])
            for i in range(gA):
                out[u2A + i] = emb[i]
            rows.append(out)
    return Presentation(ring, gens, rows)


def comparison_maps(module, ring):
    """The maps alpha: L -> tensor side and beta: tensor side -> L on vectors.

    Both send generators to generators, so each is an index map: alpha
    puts the N_A coordinates in the u1 (x) N_A block and the N_B
    coordinates in the u2 (x) N_B block, zeros elsewhere; beta reads
    those two blocks back and drops the cross blocks.
    """
    gA, gB = module.NA.gens, module.NB.gens
    pad = [ring.zero()] * (gA + gB)

    def alpha(v):
        return v[:gA] + pad + v[gA:]

    def beta(w):
        return w[:gA] + w[2 * gA + gB:]

    return alpha, beta


def verify_comparison_maps(module, samples=100, seed=1729, g_sign=1, drop_relation=None, presentation=None):
    """Exactly verify the mutually inverse maps between L and the tensor side.

    Both well-definedness directions are membership computations; the
    round trips are checked on the generators and on sampled random
    elements.  g_sign=-1 and drop_relation exist for negative controls.
    presentation is L when the caller already holds it (its diagonal
    form is then reused); by default L is built here.
    """
    L = localized_presentation(module, g_sign=g_sign) if presentation is None else presentation
    if drop_relation is not None:
        rows = [r for idx, r in enumerate(L.rows) if idx != drop_relation]
        L = Presentation(L.ring, L.gens, rows)
    family = module.family
    ring = L.ring
    W = tensor_side_presentation(module)
    alpha, beta = comparison_maps(module, ring)
    rep = Report(
        f"module localization maps [{family.describe()}]",
        seed=seed,
        meta={"samples": samples, "generators": L.gens, "relations": len(L.rows)},
    )

    bad = None
    for idx, row in enumerate(L.rows):
        if not W.contains(alpha(row)):
            bad = idx
            break
    rep.add(
        "forward map is well defined (relations land in relations)",
        bad is None,
        "" if bad is None else f"relation {bad} escapes the span",
    )

    bad = None
    for idx, row in enumerate(W.rows):
        if not L.contains(beta(row)):
            bad = idx
            break
    rep.add(
        "backward map is well defined",
        bad is None,
        "" if bad is None else f"tensor-side relation {bad} escapes the span",
    )

    # round trip L -> W -> L is the identity on the nose
    ok = True
    rng = random.Random(seed)
    for _ in range(samples):
        v = L.random_vector(rng)
        back = beta(alpha(v))
        if any(not ring.eq(x, y) for x, y in zip(v, back)):
            ok = False
            break
    rep.add("backward of forward is the identity", ok)

    # round trip W -> L -> W is the identity modulo the tensor-side relations
    ok = True
    witness = ""
    for g in range(W.gens):
        v = [ring.zero()] * W.gens
        v[g] = ring.one()
        round_ = alpha(beta(v))
        diff = [ring.sub(x, y) for x, y in zip(round_, v)]
        if not W.contains(diff):
            ok = False
            witness = f"generator {g}"
            break
    if ok:
        for _ in range(samples):
            v = W.random_vector(rng)
            round_ = alpha(beta(v))
            diff = [ring.sub(x, y) for x, y in zip(round_, v)]
            if not W.contains(diff):
                ok = False
                witness = "random element"
                break
    rep.add("forward of backward is the identity modulo relations", ok, witness)

    # the forward map kills the defining cokernel relations explicitly
    x_mu = _x_mu_values(family)
    gA, gB = module.NA.gens, module.NB.gens
    ok = True
    for t in range(len(x_mu)):
        for j in range(gB):
            row = _embedded_row(family, module.f[t][j]) + [ring.zero()] * gB
            row[gA + j] = ring.neg(x_mu[t]) if g_sign > 0 else x_mu[t]
            if not W.contains(alpha(row)):
                ok = False
                break
    rep.add("forward map kills the defining cokernel generators", ok)
    return rep


class LocalizedModule:
    """Bundle of the localized presentation plus its verification report.

    The 2x2 matrix ring over T acts on the column (L; L) by matrix
    multiplication; the bundle records the presentation of L, its
    canonical invariants, and the comparison-map report.
    """

    __slots__ = ("module", "presentation", "factors", "rank", "report")

    def __init__(self, module, presentation, factors, rank, report):
        self.module = module
        self.presentation = presentation
        self.factors = factors
        self.rank = rank
        self.report = report

    def factors_fmt(self):
        return [self.presentation.ring.fmt(d) for d in self.factors]

    def to_json(self):
        return {
            "generators": self.presentation.gens,
            "relations": [
                [self.presentation.ring.fmt(x) for x in row] for row in self.presentation.rows
            ],
            "invariant_factors": self.factors_fmt(),
            "free_rank": self.rank,
            "alpha_beta": "pass" if self.report.passed else "fail",
            "column": "(L; L) with the 2x2 matrix ring over T acting by matrix multiplication",
        }


def localize_module(module, samples=100, seed=1729):
    """Full pipeline: presentation, invariants, comparison-map verification."""
    pres = localized_presentation(module)
    factors, rank = invariant_factors(pres)
    rep = verify_comparison_maps(module, samples, seed, presentation=pres)
    return LocalizedModule(module, pres, factors, rank, rep)
