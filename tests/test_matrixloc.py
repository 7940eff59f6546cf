"""The 2x2 matrix realization of the localization."""

import random
from fractions import Fraction

from trilocal.families import RegularFamily, ScaledFamily
from trilocal.linalg import Matrix
from trilocal.matrixloc import matrix_unit, rho_matrix, verify_sigma_inverting
from trilocal.tring import TElement, TOps, family_iso, rho, t_add
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
            x = rho_matrix(random_tri(fam, rng))
            assert x * Matrix.identity(TOps(fam), 2) == x


class TestRhoMatrix:
    def test_identity_maps_to_identity(self):
        for fam in shipped_families():
            assert rho_matrix(TriElement.one(fam)) == Matrix.identity(TOps(fam), 2)

    def test_corner_p_is_e12(self):
        for fam in shipped_families():
            corner = TriElement(fam, fam.a_ring.zero(), fam.p, fam.b_ring.zero())
            assert rho_matrix(corner) == matrix_unit(fam, 1, 2)

    def test_scaled_entries(self):
        fam = ScaledFamily(2)
        img = rho_matrix(TriElement(fam, 3, 5, 7))
        (e11, e12), (e21, e22) = img.rows
        assert family_iso(e11) == 3
        assert family_iso(e12) == Fraction(5, 2)
        assert family_iso(e22) == 7
        assert e21.is_zero()

    def test_morphism_random(self):
        rng = random.Random(2)
        for fam in shipped_families():
            for _ in range(100):
                r1, r2 = random_tri(fam, rng, 4), random_tri(fam, rng, 4)
                assert rho_matrix(tri_mul(r1, r2)) == rho_matrix(r1) * rho_matrix(r2)


class TestVerifier:
    def test_all_families_pass(self):
        for fam in shipped_families():
            rep = verify_sigma_inverting(fam, samples=60, seed=7)
            assert rep.passed, rep.render_text()

    def test_corrupted_rho_fails_with_witness(self):
        # drop the collapse of the distinguished generator: x_p no longer 1
        corrupt = {
            "A": lambda fam, v: rho(fam, "A", v),
            "M": lambda fam, v: t_add(rho(fam, "M", v), TElement.one(fam)),
            "B": lambda fam, v: rho(fam, "B", v),
        }
        rep = verify_sigma_inverting(RegularFamily("Z"), samples=30, seed=7, rho_maps=corrupt)
        assert not rep.passed
        failing = [c for c in rep.checks if not c.passed]
        assert any("e12" in c.name or "unital" in c.name for c in failing)

    def test_report_is_deterministic(self):
        a = verify_sigma_inverting(ScaledFamily(2), samples=40, seed=11).render_json()
        b = verify_sigma_inverting(ScaledFamily(2), samples=40, seed=11).render_json()
        assert a == b
