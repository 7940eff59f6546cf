"""Each output check of the benchmark rejects a corrupted output.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import wl_cli_session as cs  # noqa: E402
import wl_module_localization as ml  # noqa: E402
import wl_normal_forms as nf  # noqa: E402
from independent import IntDomain, determinantal_divisor, entries_gcd, parse_poly, parse_word_sum  # noqa: E402

import trilocal.tring as tring  # noqa: E402


# -- independent arithmetic ------------------------------------------------------

def test_parsers_read_the_printed_forms():
    assert parse_word_sum("1/2-2*v+s*x*t") == {(): Fraction(1, 2), ("v",): -2, ("s", "x", "t"): 1}
    assert parse_poly("-20/13+218/39x+x^3") == (Fraction(-20, 13), Fraction(218, 39), 0, 1)
    with pytest.raises(ValueError):
        parse_word_sum("2*s+2*s")


def test_determinantal_divisor_of_a_known_matrix():
    # minors: 2*8 - 4*6 = -8; the entries have gcd 2
    assert determinantal_divisor(IntDomain(), [[2, 4], [6, 8]]) == (2, 8)
    assert entries_gcd(IntDomain(), [[2, 4], [6, 8]]) == 2
    # a unit pivot is split off: d_2 of [[1, 3], [5, 7]] is |7 - 15| = 8
    assert determinantal_divisor(IntDomain(), [[1, 3], [5, 7]]) == (2, 8)


# -- normal-forms ------------------------------------------------------------------

@pytest.fixture(scope="module")
def normal_forms():
    wl = nf.Workload(3, 1, ROOT, None)
    outs = {i: wl.run(i) for i in (0, 1)}  # one hnn-free, one tensor-free product
    return wl, outs


@pytest.mark.parametrize("i", [0, 1])
def test_normal_form_checks_pass_on_program_output(normal_forms, i):
    wl, outs = normal_forms
    normal, oracle, element, _ = outs[i]
    product = wl.products[i]
    assert nf.check_product(wl.families[product.kind], product, normal, oracle, element) == []


@pytest.mark.parametrize("i", [0, 1])
def test_oracle_check_rejects_a_changed_coefficient(normal_forms, i):
    wl, outs = normal_forms
    normal, oracle, element, _ = outs[i]
    product = wl.products[i]
    terms = parse_word_sum(oracle)
    word = next(iter(terms))
    bad = oracle + ("+" if terms[word] > 0 else "-") + "*".join(word or ("1",))
    problems = nf.check_product(wl.families[product.kind], product, normal, bad, element)
    assert any("oracle image" in p for p in problems)


def test_bracketing_check_rejects_reordered_terms(normal_forms):
    wl, outs = normal_forms
    normal, oracle, element, _ = outs[0]
    parts = re.split(r" (?=[+-] )", normal)  # the first term, then signed terms
    bad = " ".join([parts[0], parts[2], parts[1]] + parts[3:])  # an equal element, printed differently
    problems = nf.check_product(wl.families["hnn"], wl.products[0], bad, oracle, element)
    assert problems and all("bracketing" in p for p in problems)


def test_reparse_check_rejects_another_element(normal_forms):
    wl, outs = normal_forms
    normal, oracle, element, _ = outs[0]
    problems = nf.check_product(wl.families["hnn"], wl.products[0], normal, oracle, tring.t_scale(element, 2))
    assert problems and all("re-parses" in p for p in problems)


def test_repeat_check_rejects_a_changed_repeat(normal_forms):
    wl, outs = normal_forms
    normal, oracle, element, used = outs[0]
    kept = wl.keep(0, outs[0])
    changed = wl.keep(0, (normal + " + 1", oracle, element, used))
    assert wl.check([(0, kept), (0, kept)]) == []
    assert wl.check([(0, kept), (0, changed)]) == ["product 0: a repeated run printed different output"]


# -- module-localization --------------------------------------------------------------

def localize(triple):
    return ml.Workload.keep(0, ml.modloc.localize_module(triple.module()))


def test_module_checks_reject_corrupted_output():
    # N_A = Z^2 / (2, 6): invariant factors 2 and 6, no free part
    triple = ml.Triple(ml.Ring("z"), 2, 0, [[2, 0], [0, 6]], [], [[]])
    factors, free_rank, passed, gens = localize(triple)
    assert (factors, free_rank, passed) == (["2", "6"], 0, True)
    assert ml.check_localization(triple, factors, free_rank, passed, gens) == []
    # same product, but the first factor is not the gcd of the entries
    problems = ml.check_localization(triple, ["3", "4"], free_rank, passed, gens)
    assert problems and all("first invariant factor" in p for p in problems)
    problems = ml.check_localization(triple, ["2", "3"], free_rank, passed, gens)
    assert problems and all("product of invariant factors" in p for p in problems)
    problems = ml.check_localization(triple, factors, 1, passed, gens)
    assert problems and all("free rank" in p for p in problems)
    problems = ml.check_localization(triple, factors, free_rank, False, gens)
    assert problems and all("comparison-map" in p for p in problems)
    problems = ml.check_localization(triple, factors, free_rank, passed, gens + 1)
    assert problems and all("generators" in p for p in problems)


def test_module_repeat_check_rejects_a_changed_repeat():
    wl = ml.Workload(2, 1, ROOT, None)
    out = localize(wl.triples[0])
    factors, free_rank, passed, gens = out
    assert wl.check([(0, out), (0, out)]) == []
    problems = wl.check([(0, out), (0, (factors + ["7"], free_rank, passed, gens))])
    assert problems == ["triple 0: a repeated run gave different output"]


@pytest.mark.parametrize("suffix", ["z1_2", "qx"])
def test_module_checks_on_random_triples(suffix):
    import random

    rng = random.Random(5)
    ring = ml.Ring(suffix)
    triple = ml.random_triple(rng, ring)
    factors, free_rank, passed, gens = localize(triple)
    assert factors, "the fixed seed gives a non-trivial factor"
    assert ml.check_localization(triple, factors, free_rank, passed, gens) == []
    if suffix == "z1_2":
        # equal up to a unit of Z[1/2] passes, a factor 3 does not
        assert ml.check_localization(triple, [str(2 * int(factors[0]))] + factors[1:], free_rank, passed, gens) == []
        bad = [str(3 * int(factors[0]))] + factors[1:]
    else:
        bad = ["x+1"] + factors[1:]  # another monic polynomial
    problems = ml.check_localization(triple, bad, free_rank, passed, gens)
    assert any("product of invariant factors" in p for p in problems)


# -- cli-session -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_session(tmp_path_factory):
    wl = cs.Workload(4, 1, ROOT, str(tmp_path_factory.mktemp("specs")))
    outs = [(i, wl.run_in_process(i)) for i in range(len(wl.commands))]
    return wl, outs


def _with_field(out, **fields):
    doc = json.loads(out[1])
    doc.update(fields)
    return out[0], json.dumps(doc).encode(), out[2]


def _index(wl, sub, family=None):
    for i, c in enumerate(wl.commands):
        if c.subcommand == sub and (family is None or family in c.argv[2]):
            return i
    raise LookupError(sub)


def test_cli_checks_pass_and_cover_every_subcommand(cli_session):
    wl, outs = cli_session
    assert {c.subcommand for c in wl.commands} == set(cs.SUBCOMMANDS)
    assert wl.check(outs) == []
    assert wl.check(outs + outs) == []  # identical repeats pass


def test_cli_checks_reject_exit_code_changed_repeat_and_non_json(cli_session):
    wl, outs = cli_session
    i, out = outs[0]
    assert wl.check([(i, (1, out[1], 0))]) == ["normalize: exit code 1"]
    assert wl.check([(i, out), (i, (0, out[1] + b" ", 0))]) == ["normalize: a repeated run printed different output"]
    assert wl.check([(i, (0, out[1][:-2], 0))]) == ["normalize: stdout is not one JSON document"]


@pytest.mark.parametrize("sub,family,fields,message", [
    ("normalize", "hnn-free", {"oracle": "s"}, "field 'oracle'"),
    ("normalize", "scaled", {"oracle": "1/3"}, "field 'oracle'"),
    ("rho", "tensor-free", {"oracle": "u"}, "field 'oracle'"),
    ("fraction", "regular", {"value": "1/3"}, "field 'value'"),
    ("factor", "scaled", {"factored_value": "7"}, "field 'factored_value'"),
    ("factor", "regular", {"checks": "fail"}, "field 'checks'"),
    ("localize-ring", "double", {"certificate": "fail"}, "field 'certificate'"),
    ("localize-module", None, {"invariant_factors": ["7"]}, "product of invariant factors"),
    ("verify", None, {"pass": False}, "does not pass"),
])
def test_cli_checks_reject_corrupted_fields(cli_session, sub, family, fields, message):
    wl, outs = cli_session
    i = _index(wl, sub, family)
    problems = wl.check([(i, _with_field(outs[i][1], **fields))])
    assert any(message in p for p in problems)


@pytest.mark.parametrize("family,a0", [("regular", 2), ("scaled", 3)])
def test_fraction_check_rejects_a_non_minimal_exponent(cli_session, family, a0):
    wl, outs = cli_session
    i = _index(wl, "fraction", family)
    doc = json.loads(outs[i][1][1])
    r = doc["denominator_exponent"]
    # numerator * a0 over a0^(r+1) has the same value, with a larger exponent
    numerator = f"{a0}*{doc['numerator']}" if family == "scaled" else str(a0 * int(doc["numerator"]))
    problems = wl.check([(i, _with_field(outs[i][1], numerator=numerator, denominator_exponent=r + 1))])
    assert problems and all("not minimal" in p for p in problems)
