"""Localization of module triples: the cokernel presentation over T.

For a triple (N_A, N_B, f) the localized column is (L; L) where L is
presented over T by the base-changed relations of N_A and N_B together
with one mixed relation per bimodule basis element mu and N_B generator
j:

    f(mu (x) n_j)  -  x_mu * n_j  =  0,

the minus sign coming from the defining map t (x) m -> -t x_m.  Every
presented module here, the inputs N_A and N_B included, is a
``Presentation``, and every relation row of L and of the tensor side is
placed by one helper.  The comparison maps between L and the
tensor-side module send generators to generators, so each is an index
list, linear by construction.  Exact checks on the generators and
relation rows verify them on every element, so a passing report
certifies the isomorphism without sampling.

T must admit canonical diagonal forms, which pins the supported
families to regular-Z (T = Z), scaled (T = Z[1/k]) and double-Q
(T = Q[x]).
"""

from __future__ import annotations

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
    """A module over a ring, given by its generator count and relation rows.

    This is the one presented-module class: the module inputs N_A and
    N_B (``triangular.FPModule``), L and the tensor side are all
    Presentations.  The diagonal form of the relation matrix is computed
    on first use and kept; membership tests and the invariants read it.
    """

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
        return self.gens == 0 or in_row_span(self.form(), vector)

    def invariants(self):
        """Invariant factor list and free rank of the presented module."""
        form = self.form()
        return form.invariant_factors(), form.free_rank()

    def random_vector(self, rng, size):
        return [self.ring.random(rng, size) for _ in range(self.gens)]


def _x_mu_values(family):
    return [family_iso(t_generator(family, mu)) for mu in family.basis()]


def _placed_rows(ring, gens, vectors, at, diagonal=None):
    """One relation row of length gens per vector: the vector, embedded
    into T, from position at on.  With diagonal = (position, value), row j
    also holds value at position + j; empty vectors then give rows that
    hold that value alone.  Every relation row of L and of the tensor
    side is placed here.
    """
    rows = []
    for j, vec in enumerate(vectors):
        row = [ring.zero()] * gens
        row[at:at + len(vec)] = map(ring.from_int, vec)
        if diagonal is not None:
            row[diagonal[0] + j] = diagonal[1]
        rows.append(row)
    return rows


def _mixed_rows(module, ring, g_sign):
    """The rows f(mu (x) n_j) - x_mu * n_j of L, for each bimodule basis
    element mu and N_B generator j in that order; g_sign=-1 flips the sign
    of x_mu."""
    gA = module.NA.gens
    rows = []
    for vectors, x in zip(module.f, _x_mu_values(module.family)):
        coef = ring.neg(x) if g_sign > 0 else x
        rows += _placed_rows(ring, gA + module.NB.gens, vectors, 0, (gA, coef))
    return rows


def localized_presentation(module, g_sign=1):
    """The presentation of L for a module triple; g_sign=-1 is the broken
    variant used as a negative control."""
    ring = t_ring_of(module.family)
    gA = module.NA.gens
    gens = gA + module.NB.gens
    rows = _placed_rows(ring, gens, module.NA.rows, 0)
    rows += _placed_rows(ring, gens, module.NB.rows, gA)
    return Presentation(ring, gens, rows + _mixed_rows(module, ring, g_sign))


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
    # block offsets
    u1A, u1B, u2A, u2B = 0, gA, gA + gB, gA + gB + gA
    rows = []
    for u_off_A, u_off_B in ((u1A, u1B), (u2A, u2B)):
        rows += _placed_rows(ring, gens, module.NA.rows, u_off_A)
        rows += _placed_rows(ring, gens, module.NB.rows, u_off_B)
    # the cross blocks die: u1 (x) N_B and u2 (x) N_A are annihilated by
    # the corner idempotents
    rows += _placed_rows(ring, gens, [()] * gB, 0, (u1B, ring.one()))
    rows += _placed_rows(ring, gens, [()] * gA, 0, (u2A, ring.one()))
    for vectors, x in zip(module.f, _x_mu_values(family)):
        # u1 with the corner (0, mu, 0) on an N_B generator: the mixed rows
        rows += _placed_rows(ring, gens, vectors, u1A, (u2B, ring.neg(x)))
        # u1 with the corner on an N_A generator: x_mu kills u2A
        rows += _placed_rows(ring, gens, [()] * gA, 0, (u2A, x))
        # u2 with the corner on an N_B generator lands in the dead block
        rows += _placed_rows(ring, gens, vectors, u2A)
    return Presentation(ring, gens, rows)


def apply_index(index, vector, zero):
    """The image of vector under an index list: coordinate i of the image
    reads vector[index[i]], or is zero where index[i] is None."""
    return [zero if i is None else vector[i] for i in index]


def comparison_maps(module):
    """The index lists of alpha: L -> tensor side and beta: tensor side -> L.

    Both send generators to generators: alpha puts the N_A coordinates in
    the u1 (x) N_A block and the N_B coordinates in the u2 (x) N_B block,
    zeros elsewhere; beta reads those two blocks back and drops the cross
    blocks.
    """
    gA, gB = module.NA.gens, module.NB.gens
    alpha = [*range(gA), *[None] * (gA + gB), *range(gA, gA + gB)]
    beta = [*range(gA), *range(2 * gA + gB, 2 * (gA + gB))]
    return alpha, beta


def verify_comparison_maps(module, presentation=None):
    """Exactly verify the mutually inverse maps between L and the tensor side.

    Both maps are index lists, hence linear, so each check is exact on
    every element: well-definedness tests the relation rows; beta after
    alpha is the identity when the composed index list is; alpha after
    beta is the identity modulo relations when it is on each generator,
    since alpha(beta(v)) - v is linear and the relation span is a
    submodule.  presentation is L, ``localized_presentation(module)``,
    mixed rows last, when the caller already holds it (its diagonal form
    is then reused); by default L is built here.  A negative control
    passes a broken L, such as ``localized_presentation(module, g_sign=-1)``.
    """
    L = localized_presentation(module) if presentation is None else presentation
    ring = L.ring
    W = tensor_side_presentation(module)
    alpha_index, beta_index = comparison_maps(module)
    alpha = lambda v: apply_index(alpha_index, v, ring.zero())
    beta = lambda w: apply_index(beta_index, w, ring.zero())
    rep = Report(
        f"module localization maps [{module.family.describe()}]",
        meta={"generators": L.gens, "relations": len(L.rows)},
    )

    escaping = [idx for idx, row in enumerate(L.rows) if not W.contains(alpha(row))]
    rep.add(
        "forward map is well defined (relations land in relations)",
        not escaping,
        f"relation {escaping[0]} escapes the span" if escaping else "",
    )

    rep.first_failure("backward map is well defined", (
        f"tensor-side relation {idx} escapes the span" for idx, row in enumerate(W.rows) if not L.contains(beta(row))
    ))

    # L -> W -> L is the identity on the nose: beta after alpha, as one
    # index list, reads each generator from itself
    rep.first_failure("backward of forward is the identity", (
        f"generator {g}" for g, source in enumerate(apply_index(beta_index, alpha_index, None)) if source != g
    ))

    # W -> L -> W is the identity modulo the tensor-side relations
    def moved(v):
        return not W.contains([ring.sub(x, y) for x, y in zip(alpha(beta(v)), v)])

    units = ([ring.one() if i == g else ring.zero() for i in range(W.gens)] for g in range(W.gens))
    rep.first_failure("forward of backward is the identity modulo relations", (
        f"generator {g}" for g, v in enumerate(units) if moved(v)
    ))

    # the forward map kills the defining cokernel relations: the mixed rows,
    # which are the last rows of L and which the first check tested
    first_mixed = len(L.rows) - len(module.f) * module.NB.gens
    rep.add("forward map kills the defining cokernel generators", all(idx < first_mixed for idx in escaping))
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


def localize_module(module):
    """Full pipeline: presentation, invariants, comparison-map verification."""
    pres = localized_presentation(module)
    factors, rank = pres.invariants()
    rep = verify_comparison_maps(module, presentation=pres)
    return LocalizedModule(module, pres, factors, rank, rep)
