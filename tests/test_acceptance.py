"""Acceptance criteria.

Each test implements one numbered criterion at its stated sample count
and time budget and prints a PASS line on success; the suite is the
release gate for the package.
"""

import json
import random
import re
import time
from fractions import Fraction

import pytest

from reference_impls import reference_det, reference_snf_diagonal
from stored_forms import dense_parts
from test_cli import DOUBLE, SCALED, run_cli
from trilocal.exprs import format_element, parse_normal
from trilocal.families import HnnFreeFamily, RegularFamily, ScaledFamily, TensorFreeFamily
from trilocal.fracloc import (
    CentralPair,
    check_central,
    factor_inverting_hom,
    rational_value_hom,
    two_order_agreement,
)
from trilocal.linalg import Matrix, diagonal_form
from trilocal.matrixloc import TriMap, matrix_unit, verify_sigma_inverting
from trilocal.modloc import localize_module, localized_presentation, verify_comparison_maps
from trilocal.rings import ZZ
from trilocal.tring import (
    Gen,
    Mul,
    TElement,
    family_iso,
    rho,
    t_mul,
)
from trilocal.triangular import FPModule, TriElement, TripleModule
from trilocal.verify import (
    module_families,
    oracle_faithfulness,
    presentation_soundness,
    change_of_p_configs,
    random_telement,
    random_triple,
    shipped_families,
)

SEED = 20240 + 405


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_presentation_soundness():
    start = time.monotonic()
    for family in shipped_families():
        rep = presentation_soundness(family, n=1000, seed=SEED)
        assert rep.passed, rep.render_text()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"presentation soundness took {elapsed:.1f}s"
    report(1, f"5 families x 1000 relation instances, zero failures, {elapsed:.1f}s")


def test_criterion_2_oracle_faithfulness():
    start = time.monotonic()
    for family in shipped_families():
        rep = oracle_faithfulness(family, n=1000, seed=SEED)
        assert rep.passed, rep.render_text()
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"oracle faithfulness took {elapsed:.1f}s"
    report(2, f"5 families x 1000 pairs, isomorphism exact, {elapsed:.1f}s")


# Two-letter alphabets, where the order of letters in a word shows; kept
# apart from shipped_families() so the verify suites' output stays as it is.
TWO_LETTER_FAMILIES = [HnnFreeFamily("Q", ("s", "t"), "x"), TensorFreeFamily("Q", ("s", "t"), ("u", "v"))]


@pytest.mark.parametrize("family", TWO_LETTER_FAMILIES, ids=lambda f: f.kind)
def test_criteria_1_and_2_on_two_letter_alphabets(family):
    for suite in (presentation_soundness, oracle_faithfulness):
        rep = suite(family, n=1000, seed=SEED)
        assert rep.passed, rep.render_text()


class ReversedShiftFamily(HnnFreeFamily):
    """hnn-free whose shift joins the moved tensor factor on the wrong side
    (u2 v instead of v u2): a wrong rewriting system."""

    kind = "hnn-free-reversed-shift"

    def shift_pair(self, l1, l2):
        if l1[0] == "m" and l2[0] == "m" and l1[2] != ():
            return ("m", l1[1], ()), ("m", l2[1] + l1[2], l2[2])
        return None


def test_oracle_faithfulness_fails_on_a_wrong_shift():
    rep = oracle_faithfulness(ReversedShiftFamily("Q", ("s", "t"), "x"), n=1000, seed=SEED)
    failed = [c for c in rep.checks if not c.passed]
    assert failed and all(re.match(r"pair \d+", c.detail) for c in failed), rep.render_text()


class LetterZeroFamily(ScaledFamily):
    """scaled-2 whose oracle sends the letter to 0: neither additive on
    g + g = 1 nor injective on the words g^r."""

    kind = "scaled-letter-zero"

    def oracle_letter(self, letter):
        return 0


def test_oracle_faithfulness_reports_both_failing_checks():
    # the homomorphism check fails first (pair 1); the equality check must
    # still read on until its own failure
    rep = oracle_faithfulness(LetterZeroFamily(2), n=60, seed=1729)
    assert [(c.passed, c.detail) for c in rep.checks] == [
        (False, "pair 1 fails on the sum"),
        (False, "pair 14: -33*x[1]^2 vs 0"),
    ]


def test_criterion_3_matrix_localization():
    for family in shipped_families():
        f = TriMap(family)
        rep = verify_sigma_inverting(f, samples=1000, seed=SEED)
        assert rep.passed, rep.render_text()
        corner = TriElement(family, family.a_ring.zero(), family.p, family.b_ring.zero())
        assert f(corner) == matrix_unit(family, 1, 2)
    # negative control: a structure map that forgets the collapse at p
    fam = RegularFamily("Z")
    corrupt = TriMap(fam, M=lambda m: rho(fam, "M", m) + TElement.one(fam))
    bad = verify_sigma_inverting(corrupt, samples=50, seed=SEED)
    assert not bad.passed
    report(3, "5 families x 1000 pairs certified; corrupted map detected")


def test_criterion_4_change_of_p_suite():
    for family, a0, b0 in change_of_p_configs():
        pair = CentralPair(family, a0, b0)
        cen = check_central(pair)
        assert cen.passed, cen.render_text()
        target = pair.target
        image = pair.induced(pair.x_a0p)
        inv = pair.old_p_in_target
        one = TElement.one(target)
        assert t_mul(image, inv) == one
        assert t_mul(inv, image) == one

        k_src = family.k if isinstance(family, ScaledFamily) else 1
        rng = random.Random(SEED)
        for _ in range(500):
            e = random_telement(target, rng, size=5)
            form = pair.fraction_form(e)
            rebuilt = t_mul(pair.induced(form.numerator), inv ** form.exponent)
            assert rebuilt == e
            value = Fraction(family_iso(e))
            r = 0
            while not _k_denominator(value * Fraction(a0) ** r, k_src):
                r += 1
            assert form.exponent == r

        hom = rational_value_hom(family)
        assert hom.respects_relations(samples=200, seed=SEED)
        g = factor_inverting_hom(pair, hom, Fraction(1, a0))
        rng = random.Random(SEED + 1)
        for _ in range(500):
            e = random_telement(family, rng, size=5)
            assert g(pair.induced(e)) == hom(e)
        rng = random.Random(SEED + 2)
        for _ in range(500):
            expr = Mul(tuple(Gen(family.random_m(rng)) for _ in range(rng.randint(1, 3))))
            assert two_order_agreement(g, expr)
    report(4, "both change-of-p configs: centrality, fractions (500), factorization (500)")


def _k_denominator(frac, k):
    from math import gcd

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


def test_criterion_5_module_localization():
    start = time.monotonic()
    for family in module_families():
        rng = random.Random(SEED)
        for _ in range(20):
            triple = random_triple(family, rng, max_gens=4, size=10)
            rep = verify_comparison_maps(triple)
            assert rep.passed, rep.render_text()
    rz = RegularFamily("Z")
    d2 = TripleModule(rz, FPModule("Z", 1), FPModule("Z", 1), [[[2]]])
    loc = localize_module(d2)
    assert loc.rank == 1 and not loc.factors and loc.report.passed
    torsion = TripleModule(rz, FPModule("Z", 1, [[3]]), FPModule("Z", 0), [[]])
    loct = localize_module(torsion)
    assert loct.factors_fmt() == ["3"] and loct.report.passed
    flipped = verify_comparison_maps(d2, presentation=localized_presentation(d2, g_sign=-1))
    assert not flipped.passed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"module localization took {elapsed:.1f}s"
    report(5, f"3 rings x 20 random triples, maps checked exactly; fixtures exact, {elapsed:.1f}s")


def test_criterion_6_smith_euclidean_kernel():
    rng = random.Random(SEED)
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(m)]
        mat = Matrix(ZZ, rows)
        snf = diagonal_form(mat)
        assert snf.U * mat * snf.V == dense_parts(snf)["D"]
        assert abs(reference_det(snf.U.rows)) == 1
        assert abs(reference_det(snf.V.rows)) == 1
        diag = snf.diagonal()
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0
        assert all(d >= 0 for d in diag)
    rng = random.Random(SEED + 1)
    for _ in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        assert diagonal_form(Matrix(ZZ, rows)).diagonal() == reference_snf_diagonal(rows)
    report(6, "1000 matrices up to 6x6 verified; 300 cross-checked against the naive reference")


def test_criterion_7_cli_contract():
    # grammar round trip on 500 printed normal forms
    rng = random.Random(SEED)
    count = 0
    for family in shipped_families():
        for _ in range(100):
            e = random_telement(family, rng)
            text = format_element(e)
            again = parse_normal(family, text)
            assert e == again, text
            count += 1
    assert count == 500

    # each exit code exercised through the real process boundary
    ok = run_cli("normalize", "--family", SCALED, "--expr", "x[3]*x[5]")
    assert ok.returncode == 0
    fail = run_cli("verify", "--suite", "examples", "--negative-control")
    assert fail.returncode == 1
    parse_err = run_cli("normalize", "--family", SCALED, "--expr", "x[3")
    assert parse_err.returncode == 2
    budget = run_cli("normalize", "--family", SCALED, "--expr", "x[3]*x[5]*x[7]", "--budget", "1")
    assert budget.returncode == 3

    # byte-identical reports for identical seeds
    a = run_cli("verify", "--suite", "random", "--seed", "4242")
    b = run_cli("verify", "--suite", "random", "--seed", "4242")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout

    doc = json.loads(run_cli("normalize", "--family", DOUBLE, "--expr", "x[(2,3)]*x[(0,1)]",
                             "--format", "json").stdout)
    assert doc["oracle"] == "2x+3x^2"
    report(7, "500 round trips; exit codes 0/1/2/3; byte-identical seeded reports")
