"""Reproducible verification suites shared by the CLI and the test bed.

Two suite flavors exist: the fixed worked-example fixtures (one per
shipped family plus the change-of-p and module-localization fixtures)
and seeded random property suites.  Identical inputs and seed produce
byte-identical reports.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .exprs import format_element
from .families import shipped_families
from .fracloc import (
    CentralPair,
    check_central,
    factor_inverting_hom,
    rational_value_hom,
    two_order_agreement,
)
from .matrixloc import TriMap, verify_sigma_inverting
from .modloc import Presentation, localize_module, localized_presentation, verify_comparison_maps
from .report import Report
from .rings import Polynomial, random_word
from .tring import (
    Add,
    Const,
    Gen,
    Mul,
    TElement,
    TOps,
    family_iso,
    relation_failure,
    rho,
    t_generator,
    t_mul,
    t_scale,
)
from .triangular import FPModule, TripleModule, relation_images


def random_telement(family, rng, size=3):
    """Small random normal-form element, built from generator products."""
    out = TElement.zero(family)
    for _ in range(rng.randint(1, 2)):
        piece = TElement.one(family)
        for _ in range(rng.randint(0, 2)):
            piece = t_mul(piece, t_generator(family, family.random_m(rng, size)))
        coeff = rng.randint(-size, size)
        if family.ring == "Q" and rng.random() < 0.3:
            coeff = Fraction(coeff, rng.choice([2, 3]))
        out = out + t_scale(piece, coeff)
    return out


def random_expression(family, rng, depth):
    """Random raw expression tree over the family, at most depth levels deep."""
    size = 3  # of its constants and generators
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Const(rng.randint(-size, size))
        return Gen(family.random_m(rng, size))
    children = tuple(random_expression(family, rng, depth - 1) for _ in range(rng.randint(2, 3)))
    return Mul(children) if rng.random() < 0.5 else Add(children)


def presentation_soundness(family, n, seed):
    """The defining relations hold after normalization, on random data."""
    rep = Report(f"presentation soundness [{family.describe()}]", seed=seed, meta={"instances": n})
    ring = TOps(family)
    failure = relation_failure(family, ring, ring.gen, n, random.Random(seed))
    rep.add("relations (+), (a), (b), (id) normalize to equalities", failure is None, failure or "")
    return rep


def oracle_faithfulness(family, n, seed):
    """family_iso is a ring isomorphism onto the oracle on random pairs."""
    rng = random.Random(seed)
    rep = Report(f"oracle faithfulness [{family.describe()}]", seed=seed, meta={"pairs": n})
    oracle = family.oracle
    equal_pairs = []

    def cases():  # one pair feeds both checks: (homomorphism detail, equality detail)
        for i in range(n):
            e1 = random_telement(family, rng)
            if i % 10 == 0:
                # a deliberately equal pair reached through different syntax
                probe = t_generator(family, family.random_m(rng))
                e2 = e1 + probe + t_scale(probe, -1)
            else:
                e2 = random_telement(family, rng)
            v1, v2 = family_iso(e1), family_iso(e2)
            hom = None
            if family_iso(t_mul(e1, e2)) != oracle.mul(v1, v2):
                hom = f"pair {i} fails on the product"
            elif family_iso(e1 + e2) != oracle.add(v1, v2):
                hom = f"pair {i} fails on the sum"
            same = e1 == e2
            if same:
                equal_pairs.append(i)
            yield hom, (f"pair {i}: {format_element(e1)} vs {format_element(e2)}" if same != (v1 == v2) else None)

    _, eq = rep.first_failures((
        "homomorphism identities exact on all pairs",
        "equality of normal forms agrees with oracle equality on all pairs",
    ), cases())
    if eq.passed:
        eq.detail = f"equal-branch hits: {len(equal_pairs)}"
    return rep


def change_of_p_configs():
    rz, _, _, _, s2 = shipped_families()
    return [(rz, 2, 2), (s2, 3, 3)]


def change_of_p_suite(family, a0, b0, fraction_samples, factor_samples, seed):
    """Centrality, inverse identity, fraction forms, and factorization."""
    pair = CentralPair(family, a0, b0)
    rep = Report(f"change of p [{family.describe()}, a0={a0}]", seed=seed, meta={"fraction_samples": fraction_samples})
    # a central pair's family has a basis, which decides centrality: no probe is drawn
    rep.extend(check_central(pair))

    target = pair.target
    rng = random.Random(seed + 1)
    k_src = family.rational_k

    def fraction_failure(i):
        e = random_telement(target, rng, size=5)
        form = pair.fraction_form(e)
        # independent minimal-exponent oracle over plain rationals
        value = Fraction(family_iso(e))
        r_oracle = 0
        while not _denominator_only(value * Fraction(a0) ** r_oracle, k_src):
            r_oracle += 1
        if form.exponent != r_oracle:
            return f"sample {i}: {format_element(e)} got r={form.exponent} expected {r_oracle}"
        return None

    rep.first_failure(
        "fraction form round-trips with the minimal exponent", map(fraction_failure, range(fraction_samples))
    )

    hom = rational_value_hom(family)
    rep.add("letter images satisfy the presentation", hom.respects_relations(samples=100, seed=seed))
    f_inv = Fraction(1, a0)
    rng = random.Random(seed + 2)
    rep.first_failure("factorization composed with the induced map recovers the original", (
        f"sample {i}: {format_element(e)}"
        for i, e in enumerate(random_telement(family, rng, size=5) for _ in range(factor_samples))
        if factor_inverting_hom(pair, hom, f_inv, pair.induced(e)) != hom(e)
    ))
    rng = random.Random(seed + 3)
    rep.first_failure("two evaluation orders agree", (
        f"sample {i}"
        for i in range(factor_samples)
        if not two_order_agreement(pair, hom, f_inv, random_expression(target, rng, depth=2))[0]
    ))
    return rep


def _denominator_only(frac, k):
    """True when the denominator's primes all divide k (k=1: denominator 1)."""
    den = frac.denominator
    if k == 1:
        return den == 1
    while den != 1:
        g = gcd(den, k)
        if g == 1:
            return False
        while den % g == 0:
            den //= g
    return True


def module_families():
    rz, dq, _, _, s2 = shipped_families()
    return [rz, s2, dq]


def random_triple(family, rng, max_gens=4, size=10):
    """Random well-formed triple; ill-posed f is repaired by extra relations."""
    tag = family.ring
    gA = rng.randint(0, max_gens)
    gB = rng.randint(0, max_gens)
    rowsA = [[rng.randint(-size, size) for _ in range(gA)] for _ in range(rng.randint(0, 2))] if gA else []
    rowsB = [[rng.randint(-size, size) for _ in range(gB)] for _ in range(rng.randint(0, 2))] if gB else []
    nbasis = len(family.basis())
    f = [[[rng.randint(-size, size) for _ in range(gA)] for _ in range(gB)] for _ in range(nbasis)]
    # f composed with an N_B relation may escape the N_A relation span;
    # absorb the image vectors as additional N_A relations.
    NA = FPModule(tag, gA, rowsA + relation_images(f, rowsB, gA))
    return TripleModule(family, NA, FPModule(tag, gB, rowsB), f)


def module_localization_suite(family, modules, seed):
    rep = Report(f"module localization [{family.describe()}]", seed=seed, meta={"modules": modules})
    rng = random.Random(seed)
    rep.first_failure("comparison maps verified on random triples", (
        f"module {i}" for i in range(modules) if not verify_comparison_maps(random_triple(family, rng)).passed
    ))

    # additivity: the localization of a direct sum matches the direct sum
    # of the localizations, compared through canonical forms
    def additive(t1, t2):
        both = localized_presentation(t1.direct_sum(t2))
        f_sum, r_sum = both.invariants()
        f1, r1 = localized_presentation(t1).invariants()
        f2, r2 = localized_presentation(t2).invariants()
        return _canonical_chain(both.ring, f_sum) == _canonical_chain(both.ring, f1 + f2) and r_sum == r1 + r2

    rng = random.Random(seed + 99)
    rep.first_failure("localization is additive across direct sums", (
        f"pair {i}"
        for i in range(5)
        if not additive(random_triple(family, rng, max_gens=2, size=5), random_triple(family, rng, max_gens=2, size=5))
    ))
    return rep


def _canonical_chain(ring, factors):
    """Canonical invariant chain of a diagonal with the given entries."""
    n = len(factors)
    rows = [[factors[i] if i == j else ring.zero() for j in range(n)] for i in range(n)]
    return tuple(ring.fmt(d) for d in Presentation(ring, n, rows).invariants()[0])


def _sigma_map(family, negative_control):
    """The engine's map out of R, or for a negative control the opaque map
    whose M part is rho's plus 1, so that x_p no longer maps to 1."""
    if negative_control:
        return TriMap(family, M=lambda m: rho(family, "M", m) + TElement.one(family))
    return TriMap(family)


# ---------------------------------------------------------------------------
# Fixed worked-example fixtures.
# ---------------------------------------------------------------------------

def example_suite(seed, negative_control):
    samples = 60
    rep = Report("worked examples", seed=seed, meta={"samples": samples})
    rng = random.Random(seed)
    rz, dq, tf, hf, s2 = shipped_families()

    # identity-bimodule family: T is the base ring and every map is identity
    ok = all(
        family_iso(rho(rz, comp, v)) == v
        for comp in ("A", "M", "B")
        for v in (rng.randint(-9, 9) for _ in range(samples))
    )
    rep.add("regular-Z: structure maps act as the identity on the base ring", ok)
    rep.add("regular-Z: generator at p collapses to 1", t_generator(rz, 1).is_one())

    # doubled bimodule: T is the polynomial ring
    maps_to = lambda e, coeffs: family_iso(e) == Polynomial("Q", coeffs)
    rep.add("double-Q: generator at (1,0) is 1", t_generator(dq, (1, 0)).is_one())
    rep.add("double-Q: generator at (0,1) maps to x", maps_to(t_generator(dq, (0, 1)), [0, 1]))
    rep.add("double-Q: x_(2,3) maps to 2+3x", maps_to(t_generator(dq, (2, 3)), [2, 3]))
    rep.add(
        "double-Q: x_(2,3)*x_(0,1) maps to 2x+3x^2",
        maps_to(t_mul(t_generator(dq, (2, 3)), t_generator(dq, (0, 1))), [0, 2, 3]),
    )

    # free product: the generator of a pure tensor is the product of images
    ok = all(
        t_generator(tf, tf.apply(a, tf.p, b)) == t_mul(rho(tf, "A", a), rho(tf, "B", b))
        for a, b in ((tf.a_ring.random(rng), tf.b_ring.random(rng)) for _ in range(samples))
    )
    rep.add("tensor-free-Q: image of a (x) b equals image(a) * image(b)", ok)
    rep.add("tensor-free-Q: generator at 1 (x) 1 collapses to 1", t_generator(tf, tf.p).is_one())

    # stable-letter family: second summand tensors surround the new letter
    rep.add("hnn-free-Q: generator at (1, 0) collapses to 1", t_generator(hf, hf.p).is_one())
    ok = all(
        family_iso(t_generator(hf, {("m", u, v): 1})) == hf.oracle.word(u + (hf._x_index,) + v)
        for u, v in ((random_word(rng, hf.a_gens), random_word(rng, hf.a_gens)) for _ in range(samples))
    )
    rep.add("hnn-free-Q: tensor letters map to u x v words", ok)
    ok = all(rho(hf, "A", a) == rho(hf, "B", a) for a in (hf.a_ring.random(rng) for _ in range(samples // 2)))
    rep.add("hnn-free-Q: both base maps agree on A = B", ok)

    # halving family: T is the 2-adic fraction ring
    ok = all(
        str(family_iso(t_generator(s2, n))) == str(Fraction(n, 2))
        for n in range(-12, 13)
    )
    rep.add("scaled-2: generator at n has value n/2", ok)
    nine_quarters = t_mul(t_generator(s2, 3), t_generator(s2, 3))
    alt = t_mul(t_generator(s2, 9), t_generator(s2, 1))
    rep.add("scaled-2: x_3*x_3 equals x_9*x_1 (both 9/4)", nine_quarters == alt)
    rep.add("scaled-2: generator at p collapses to 1", t_generator(s2, 2).is_one())

    # matrix localization certificates for every family
    for family in shipped_families():
        sub = verify_sigma_inverting(_sigma_map(family, negative_control), samples=samples, seed=seed)
        rep.add(
            f"matrix localization certificate [{family.kind}]",
            sub.passed,
            "" if sub.passed else next(c.name for c in sub.checks if not c.passed),
        )

    # change-of-p fixtures
    for family, a0, b0 in change_of_p_configs():
        pair = CentralPair(family, a0, b0)
        sub = check_central(pair)
        rep.add(f"central pair certified [{family.kind}, a0={a0}]", sub.passed)
    rzpair = CentralPair(rz, 2, 2)
    tgt = rzpair.target

    def fraction_is(e, numerator, exponent):
        form = rzpair.fraction_form(e)
        return format_element(form.numerator) == numerator and form.exponent == exponent

    rep.add("fraction form of 5/8 is 5 over the cube", fraction_is(TElement(tgt, {(tgt.letter,) * 3: 5}), "5", 3))
    rep.add("fraction form of 1 is (1, 0)", fraction_is(TElement.one(tgt), "1", 0))
    rep.add("fraction form of 6 needs no denominator", fraction_is(TElement.from_scalar(tgt, 6), "6", 0))

    # module localization fixtures over the three supported rings
    d2 = TripleModule(rz, FPModule("Z", 1), FPModule("Z", 1), [[[2]]])
    loc = localize_module(d2)
    rep.add(
        "doubling module localizes to a free rank-1 module",
        loc.rank == 1 and not loc.factors and loc.report.passed,
    )
    torsion = TripleModule(rz, FPModule("Z", 1, [[3]]), FPModule("Z", 0), [[]])
    loct = localize_module(torsion)
    rep.add("three-torsion module keeps invariant factor 3", loct.factors_fmt() == ["3"] and loct.report.passed)
    only_a = TripleModule(rz, FPModule("Z", 2, [[2, 0]]), FPModule("Z", 0), [[]])
    loca = localize_module(only_a)
    base_factors, base_rank = only_a.NA.invariants()
    rep.add(
        "module with trivial N_B base-changes its presentation unchanged",
        loca.factors_fmt() == [str(d) for d in base_factors] and loca.rank == base_rank,
    )
    kill = TripleModule(rz, FPModule("Z", 0), FPModule("Z", 1), [[[]]])
    lock = localize_module(kill)
    rep.add("module with zero N_A localizes to zero", lock.rank == 0 and not lock.factors)
    column_q = TripleModule(rz, FPModule("Z", 1), FPModule("Z", 1), [[[1]]])
    locq = localize_module(column_q)
    rep.add("the Q-column triple localizes to free rank 1", locq.rank == 1 and not locq.factors)
    flipped = verify_comparison_maps(d2, presentation=localized_presentation(d2, g_sign=-1))
    rep.add("sign-flipped defining map is detected", not flipped.passed)
    return rep


def random_suite(seed, negative_control):
    """Seeded random property run across every family; CLI `verify --suite random`."""
    instances, pairs, sigma_samples, modules = 200, 200, 100, 4
    rep = Report("random property suites", seed=seed, meta={
        "instances": instances,
        "pairs": pairs,
        "sigma_samples": sigma_samples,
        "modules": modules,
    })
    for family in shipped_families():
        rep.extend(presentation_soundness(family, n=instances, seed=seed))
        rep.extend(oracle_faithfulness(family, n=pairs, seed=seed))
        sub = verify_sigma_inverting(_sigma_map(family, negative_control), samples=sigma_samples, seed=seed)
        rep.add(f"sigma-inverting [{family.kind}]", sub.passed)
    for family, a0, b0 in change_of_p_configs():
        sub = change_of_p_suite(family, a0, b0, fraction_samples=pairs // 2, factor_samples=pairs // 2, seed=seed)
        rep.add(f"change of p [{family.kind}, a0={a0}]", sub.passed)
    for family in module_families():
        sub = module_localization_suite(family, modules=modules, seed=seed)
        rep.add(f"module localization [{family.kind}]", sub.passed)
    return rep
