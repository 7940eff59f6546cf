"""Module localization: the cokernel presentation and comparison maps."""

import random

import pytest

from trilocal.errors import UnsupportedFamilyError
from trilocal.families import DoubleFamily, RegularFamily, ScaledFamily, TensorFreeFamily
from trilocal import modloc
from trilocal.linalg import Matrix, diagonal_form
from trilocal.modloc import (
    Presentation,
    localize_module,
    localized_presentation,
    t_ring_of,
    tensor_side_presentation,
    verify_comparison_maps,
)
from trilocal.rings import ZZ
from trilocal.triangular import FPModule, TripleModule
from trilocal.verify import module_families, random_triple


def without_row_0(module):
    """L with its relation 0 dropped: a negative control."""
    L = localized_presentation(module)
    return Presentation(L.ring, L.gens, L.rows[1:])


def d_module(fam, d):
    tag = "Z" if fam.ring == "Z" else "Q"
    nbasis = len(fam.basis())
    f = [[[d]]] + [[[0]]] * (nbasis - 1)
    return TripleModule(fam, FPModule(tag, 1), FPModule(tag, 1), f)


class TestPresentation:
    def test_d2_relations(self):
        fam = RegularFamily("Z")
        pres = localized_presentation(d_module(fam, 2))
        assert pres.gens == 2
        assert pres.rows == [[2, -1]]
        # Smith oracle: the cokernel of [2, -1] is free of rank 1
        snf = diagonal_form(Matrix(ZZ, pres.rows))
        assert snf.diagonal() == [1]
        factors, rank = pres.invariants()
        assert factors == [] and rank == 1

    def test_nb_zero_keeps_base_presentation(self):
        fam = RegularFamily("Z")
        mod = TripleModule(fam, FPModule("Z", 2, [[2, 0], [0, 3]]), FPModule("Z", 0), [[]])
        pres = localized_presentation(mod)
        assert pres.gens == 2
        assert pres.rows == [[2, 0], [0, 3]]
        factors, rank = pres.invariants()
        base_factors, base_rank = mod.NA.invariants()
        assert [str(d) for d in factors] == [str(d) for d in base_factors]
        assert rank == base_rank

    def test_na_zero_dies(self):
        fam = RegularFamily("Z")
        mod = TripleModule(fam, FPModule("Z", 0), FPModule("Z", 1), [[[]]])
        pres = localized_presentation(mod)
        factors, rank = pres.invariants()
        assert factors == [] and rank == 0

    def test_torsion_preserved(self):
        fam = RegularFamily("Z")
        mod = TripleModule(fam, FPModule("Z", 1, [[3]]), FPModule("Z", 0), [[]])
        loc = localize_module(mod)
        assert loc.factors_fmt() == ["3"] and loc.rank == 0

    def test_scaled_unit_relation(self):
        fam = ScaledFamily(2)
        pres = localized_presentation(d_module(fam, 2))
        factors, rank = pres.invariants()
        assert factors == [] and rank == 1

    def test_double_mixed_relations(self):
        fam = DoubleFamily("Q")
        mod = TripleModule(fam, FPModule("Q", 1), FPModule("Q", 1), [[[1]], [[0]]])
        pres = localized_presentation(mod)
        # rows: [1, -1] and [0, -x]; the cokernel is Q[x]/(x)
        factors, rank = pres.invariants()
        assert [str(d) for d in factors] == ["x"] and rank == 0

    def test_q_column_is_free_rank_one(self):
        fam = RegularFamily("Z")
        loc = localize_module(d_module(fam, 1))
        assert loc.rank == 1 and not loc.factors

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            t_ring_of(TensorFreeFamily("Q", ("s",), ("u",)))
        with pytest.raises(UnsupportedFamilyError):
            t_ring_of(RegularFamily("Q"))
        with pytest.raises(UnsupportedFamilyError):
            t_ring_of(DoubleFamily("Z"))


class TestComparisonMaps:
    def test_d2_passes(self):
        fam = RegularFamily("Z")
        rep = verify_comparison_maps(d_module(fam, 2))
        assert rep.passed, rep.render_text()

    def test_zero_module_passes_vacuously(self):
        fam = RegularFamily("Z")
        mod = TripleModule(fam, FPModule("Z", 0), FPModule("Z", 0), [[]])
        rep = verify_comparison_maps(mod)
        assert rep.passed

    def test_sign_flip_detected(self):
        mod = d_module(RegularFamily("Z"), 2)
        rep = verify_comparison_maps(mod, presentation=localized_presentation(mod, g_sign=-1))
        assert not rep.passed

    def test_dropped_relation_detected(self):
        fam = RegularFamily("Z")
        mod = d_module(fam, 2)
        rep = verify_comparison_maps(mod, presentation=without_row_0(mod))
        assert not rep.passed

    def test_mixed_rows_tested_once(self, monkeypatch):
        # the first check tests every row of L, its mixed rows among them;
        # the last check reuses those answers instead of testing them again
        mod = d_module(DoubleFamily("Q"), 3)
        ring = t_ring_of(mod.family)
        alpha, _ = modloc.comparison_maps(mod)
        tested = []
        contains = modloc.Presentation.contains
        monkeypatch.setattr(modloc.Presentation, "contains", lambda pres, v: tested.append(v) or contains(pres, v))
        assert verify_comparison_maps(mod).passed
        mixed = modloc._mixed_rows(mod, ring, 1)
        assert len(mixed) == 2
        assert [tested.count(modloc.apply_index(alpha, row, ring.zero())) for row in mixed] == [1, 1]

    @pytest.mark.parametrize("escaping", [0, 1])
    def test_escaping_mixed_row_fails_last_check(self, monkeypatch, escaping):
        # one mixed row of L escapes W while W still lies inside L: both the
        # forward check and the last check must fail, the others must pass
        mod = d_module(DoubleFamily("Q"), 3)
        ring = t_ring_of(mod.family)
        alpha, _ = modloc.comparison_maps(mod)
        target = modloc.apply_index(alpha, modloc._mixed_rows(mod, ring, 1)[escaping], ring.zero())
        contains = modloc.Presentation.contains
        monkeypatch.setattr(
            modloc.Presentation, "contains", lambda pres, v: v != target and contains(pres, v)
        )
        rep = verify_comparison_maps(mod)
        verdicts = {c.name: c.passed for c in rep.checks}
        assert verdicts == {
            "forward map is well defined (relations land in relations)": False,
            "backward map is well defined": True,
            "backward of forward is the identity": True,
            "forward of backward is the identity modulo relations": True,
            "forward map kills the defining cokernel generators": False,
        }

    def test_random_triples_all_families(self):
        for fam in module_families():
            rng = random.Random(97)
            for _ in range(5):
                mod = random_triple(fam, rng, max_gens=3, size=6)
                rep = verify_comparison_maps(mod)
                assert rep.passed, rep.render_text()

    def test_tensor_side_contains_l_relations(self):
        fam = ScaledFamily(2)
        mod = d_module(fam, 3)
        W = tensor_side_presentation(mod)
        assert W.gens == 4


class TestAdditivity:
    def test_direct_sum_factors_merge(self):
        fam = RegularFamily("Z")
        m1 = TripleModule(fam, FPModule("Z", 1, [[4]]), FPModule("Z", 0), [[]])
        m2 = TripleModule(fam, FPModule("Z", 1, [[6]]), FPModule("Z", 0), [[]])
        both = m1.direct_sum(m2)
        pres = localized_presentation(both)
        factors, rank = pres.invariants()
        # canonical chain of diag(4, 6) is (2, 12)
        assert [str(d) for d in factors] == ["2", "12"] and rank == 0

    def test_direct_sum_rank_adds(self):
        fam = ScaledFamily(2)
        rng = random.Random(3)
        for _ in range(5):
            t1 = random_triple(fam, rng, max_gens=2, size=5)
            t2 = random_triple(fam, rng, max_gens=2, size=5)
            r_both = localized_presentation(t1.direct_sum(t2)).invariants()[1]
            r1 = localized_presentation(t1).invariants()[1]
            r2 = localized_presentation(t2).invariants()[1]
            assert r_both == r1 + r2


class TestBundle:
    def test_localize_module_bundle(self):
        fam = RegularFamily("Z")
        loc = localize_module(d_module(fam, 2))
        doc = loc.to_json()
        assert doc["free_rank"] == 1
        assert doc["invariant_factors"] == []
        assert doc["alpha_beta"] == "pass"
        assert doc["generators"] == 2


class TestOneReductionOfL:
    def test_localize_module_reduces_twice(self, monkeypatch):
        # one diagonal form for L and one for the tensor side
        calls = []

        def counting(mat):
            calls.append((mat.nrows, mat.ncols))
            return diagonal_form(mat)

        monkeypatch.setattr(modloc, "diagonal_form", counting)
        for fam in module_families():
            calls.clear()
            loc = localize_module(d_module(fam, 2))
            assert loc.report.passed
            assert len(calls) == 2, calls

    @pytest.mark.parametrize("fam", module_families(), ids=lambda f: f.describe())
    def test_negative_controls_still_fail(self, fam):
        mod = d_module(fam, 2)
        assert not verify_comparison_maps(mod, presentation=localized_presentation(mod, g_sign=-1)).passed
        assert not verify_comparison_maps(mod, presentation=without_row_0(mod)).passed
