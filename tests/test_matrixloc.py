"""The 2x2 matrix realization of the localization."""

import random
from fractions import Fraction

import pytest

from trilocal.families import RegularFamily, ScaledFamily, TensorFreeFamily
from trilocal.linalg import Matrix
from trilocal.matrixloc import TriMap, matrix_unit, verify_sigma_inverting
from trilocal.rings import FreeAlgebraElement
from trilocal.tring import TElement, TOps, family_iso, rho
from trilocal.triangular import TriElement, random_tri, tri_mul
from trilocal.verify import shipped_families


class TestMatrixUnits:
    def test_unit_products(self):
        for fam in shipped_families():
            e11 = matrix_unit(fam, 1, 1)
            e12 = matrix_unit(fam, 1, 2)
            e21 = matrix_unit(fam, 2, 1)
            e22 = matrix_unit(fam, 2, 2)
            assert e12 * e21 == e11
            assert e21 * e12 == e22

    def test_identity_neutral(self):
        rng = random.Random(1)
        for fam in shipped_families():
            x = TriMap(fam)(random_tri(fam, rng, 5))
            assert x * Matrix.identity(TOps(fam), 2) == x


class TestRhoMatrix:
    def test_identity_maps_to_identity(self):
        for fam in shipped_families():
            assert TriMap(fam)(TriElement.one(fam)) == Matrix.identity(TOps(fam), 2)

    def test_corner_p_is_e12(self):
        for fam in shipped_families():
            corner = TriElement(fam, fam.a_ring.zero(), fam.p, fam.b_ring.zero())
            assert TriMap(fam)(corner) == matrix_unit(fam, 1, 2)

    def test_scaled_entries(self):
        fam = ScaledFamily(2)
        img = TriMap(fam)(TriElement(fam, 3, 5, 7))
        (e11, e12), (e21, e22) = img.rows
        assert family_iso(e11) == 3
        assert family_iso(e12) == Fraction(5, 2)
        assert family_iso(e22) == 7
        assert not e21.terms

    def test_morphism_random(self):
        rng = random.Random(2)
        for fam in shipped_families():
            f = TriMap(fam)
            for _ in range(100):
                r1, r2 = random_tri(fam, rng, 4), random_tri(fam, rng, 4)
                assert f(tri_mul(r1, r2)) == f(r1) * f(r2)


class TestVerifier:
    def test_all_families_pass(self):
        for fam in shipped_families():
            rep = verify_sigma_inverting(TriMap(fam), samples=60, seed=7)
            assert rep.passed, rep.render_text()

    def test_corrupted_rho_fails_with_witness(self):
        # drop the collapse of the distinguished generator: x_p no longer 1
        fam = RegularFamily("Z")
        corrupt = TriMap(fam, M=lambda m: rho(fam, "M", m) + TElement.one(fam))
        rep = verify_sigma_inverting(corrupt, samples=30, seed=7)
        assert not rep.passed
        failing = [c for c in rep.checks if not c.passed]
        assert any("e12" in c.name or "unital" in c.name for c in failing)

    def test_corrupted_rho_fails_both_sampled_checks_on_one_pair(self):
        # M + 1 breaks multiplicativity and additivity on the same sampled
        # pair; each sampled check reports its own failure
        fam = RegularFamily("Z")
        corrupt = TriMap(fam, M=lambda m: rho(fam, "M", m) + TElement.one(fam))
        rep = verify_sigma_inverting(corrupt, samples=60)
        sampled = {c.name: (c.passed, c.detail) for c in rep.checks if "sampled" in c.name}
        witness = "r1=(-4, 2, 4) r2=(3, -2, -4)"
        assert sampled == {
            "multiplicative on sampled pairs": (False, witness),
            "additive on sampled pairs": (False, witness),
        }

    def test_unknown_part_is_refused(self):
        fam = RegularFamily("Z")
        with pytest.raises(TypeError, match="not \\['m'\\]"):
            TriMap(fam, m=lambda m: rho(fam, "M", m))

    def test_report_is_deterministic(self):
        a = verify_sigma_inverting(TriMap(ScaledFamily(2)), samples=40, seed=11).render_json()
        b = verify_sigma_inverting(TriMap(ScaledFamily(2)), samples=40, seed=11).render_json()
        assert a == b


def _failing(f, seed=7):
    rep = verify_sigma_inverting(f, samples=200, seed=seed)
    return [c.name for c in rep.checks if not c.passed]


def _short_words(fam):
    """An A part that is Q-linear and unital, but drops every A-word longer than one letter."""
    return lambda v: rho(fam, "A", FreeAlgebraElement(v.ring, v.gens, {w: c for w, c in v.terms.items() if len(w) <= 1}))


def _swap_5_7(fam):
    """An A part that is completely multiplicative and unital, but not
    additive: the primes 5 and 7 trade places in n's factorization.  The
    sampled entries lie in [-4, 4], so it is the identity on them and on
    their products."""

    def part(n):
        e5 = e7 = 0
        while n and n % 5 == 0:
            n, e5 = n // 5, e5 + 1
        while n and n % 7 == 0:
            n, e7 = n // 7, e7 + 1
        return rho(fam, "A", n * 7**e5 * 5**e7)

    return part


class TestSampledCheckControls:
    """Each sampled check of verify_sigma_inverting fails alone under a map built to break it."""

    def test_multiplicative_check_fails_alone(self):
        fam = TensorFreeFamily("Q", ("s",), ("u",))
        assert _failing(TriMap(fam, A=_short_words(fam))) == ["multiplicative on sampled pairs"]

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_additive_check_fails_alone(self, seed):
        fam = RegularFamily("Z")
        assert _failing(TriMap(fam, A=_swap_5_7(fam)), seed) == ["additive on sampled pairs"]

    @pytest.mark.parametrize("component", "AMB")
    def test_column_split_fails_only_beside_unital_or_corner(self, component):
        # The images of (1, 0, 0) and (0, 0, 1) hold M(0) and B(0), and A(0)
        # and M(0), beside their unit entries: the corner check reads A(0)
        # and B(0), the unital check M(0).
        fam = RegularFamily("Z")
        failing = _failing(TriMap(fam, **{component: lambda v: TElement.one(fam) if v == 0 else rho(fam, component, v)}))
        assert "P lands in column 1, Q in column 2" in failing
        assert {"unital: image of 1_R is the identity matrix", "image of (0, p, 0) is e12"} & set(failing)

    def test_true_maps_pass_every_check(self):
        for fam in (TensorFreeFamily("Q", ("s",), ("u",)), RegularFamily("Z")):
            assert _failing(TriMap(fam)) == []
