"""The functions the benchmark traces still exist and are still reached.

perfbench/tracing.py measures layers by rebinding chosen functions and
methods of trilocal, from outside the library.  A target that is renamed
away, or that the program stops calling through a module attribute,
makes its metric read 0 without any error.  These tests read the
targets out of perfbench/wl_*.py (they never edit those files) and check
both ways of losing a metric.
"""

import contextlib
import importlib
import io
import pathlib
import re
import sys

import pytest

from trilocal import cli, exprs, fracloc, linalg, modloc, tring
from trilocal.families import DoubleFamily, HnnFreeFamily, RegularFamily, ScaledFamily
from trilocal.triangular import FPModule, TripleModule

ROOT = pathlib.Path(__file__).resolve().parents[1]
WRAP = re.compile(r'wrap_(?:function|method)\(\s*([\w.]+)\s*,\s*"(\w+)"')
ALIAS = re.compile(r"^import trilocal\.(\w+) as (\w+)$", re.M)


def wrap_targets():
    """(workload file, trilocal module, attribute path to the owner, attribute)."""
    out = []
    for path in sorted((ROOT / "perfbench").glob("wl_*.py")):
        text = path.read_text(encoding="utf-8")
        modules = {alias: name for name, alias in ALIAS.findall(text)}
        for owner, attr in WRAP.findall(text):
            head, *rest = owner.split(".")
            out.append((path.name, modules.get(head, head), tuple(rest), attr))
    return out


TARGETS = wrap_targets()


def test_targets_found():
    names = {f"{mod}.{'.'.join(rest + (attr,))}" for _, mod, rest, attr in TARGETS}
    assert {
        "tring.t_normalize",
        "tring.family_iso",
        "tring.t_mul",
        "fracloc.factor_inverting_hom",
        "fracloc.CentralPair.fraction_form",
        "modloc.verify_comparison_maps",
        "modloc.in_row_span",
        "modloc.diagonal_form",
        "linalg.DiagonalForm.verify",
    } <= names


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t[0]}:{t[1]}.{'.'.join(t[2] + (t[3],))}")
def test_target_resolves(target):
    _, mod, rest, attr = target
    owner = importlib.import_module(f"trilocal.{mod}")
    for name in rest:
        owner = getattr(owner, name)
    assert callable(getattr(owner, attr))


def count_calls(monkeypatch, owner, attr):
    """Count calls the way the tracer sees them.

    A method is replaced on its class; a function is rebound on every
    trilocal module attribute that holds it, as perfbench/tracing.py does.
    """
    original = getattr(owner, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, attr, counting)
        return calls
    for name, module in list(sys.modules.items()):
        if name == "trilocal" or name.startswith("trilocal."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_normal_forms_reach_targets(monkeypatch):
    normalize = count_calls(monkeypatch, tring, "t_normalize")
    iso = count_calls(monkeypatch, tring, "family_iso")
    mul = count_calls(monkeypatch, tring, "t_mul")
    family = HnnFreeFamily("Q", ("s", "t"), "x")
    tree = exprs.parse_element(family, "(x[h(s)]+2*x[h(s,t)])*(x[h(t,1)]-x[h(1,s)])")
    element = tring.t_normalize(family, tree, tring.Budget(tring.DEFAULT_BUDGET))
    exprs.format_oracle(family, tring.family_iso(element))
    assert len(normalize) == 1 and len(iso) == 1
    # no letters merge in x[3]*x[5] over Z[1/2], so only the evaluator's
    # own product can reach t_mul
    mul.clear()
    tring.t_normalize(ScaledFamily(2), exprs.parse_element(ScaledFamily(2), "x[3]*x[5]"))
    assert len(mul) == 1


def test_cli_session_reaches_targets(monkeypatch):
    form = count_calls(monkeypatch, fracloc.CentralPair, "fraction_form")
    factor = count_calls(monkeypatch, fracloc, "factor_inverting_hom")
    iso = count_calls(monkeypatch, tring, "family_iso")
    mul = count_calls(monkeypatch, tring, "t_mul")
    regular = '{"kind":"regular","ring":"Z"}'
    for command in ("fraction", "factor"):
        argv = [command, "--family", regular, "--a0", "2", "--b0", "2", "--expr", "5*x[1]^3"]
        assert quiet_main(argv) == 0
    assert len(form) == 1 and len(factor) == 1
    assert iso and mul


def test_module_localization_reaches_verifier(monkeypatch):
    verifier = count_calls(monkeypatch, modloc, "verify_comparison_maps")
    reduce = count_calls(monkeypatch, modloc, "diagonal_form")
    certify = count_calls(monkeypatch, linalg.DiagonalForm, "verify")
    membership = count_calls(monkeypatch, modloc, "in_row_span")
    modules = [
        TripleModule(RegularFamily("Z"), FPModule("Z", 1), FPModule("Z", 1), [[[2]]]),
        TripleModule(ScaledFamily(2), FPModule("Z", 1), FPModule("Z", 1), [[[3]]]),
        TripleModule(DoubleFamily("Q"), FPModule("Q", 1), FPModule("Q", 1), [[[1]], [[2]]]),
    ]
    for module in modules:
        for calls in (verifier, reduce, certify, membership):
            calls.clear()
        assert modloc.localize_module(module).report.passed
        assert len(verifier) == 1
        # L and the tensor side are each reduced and certified once, over
        # Z, Z[1/2] (reduced through Z) and Q[x], and the membership tests
        # reach in_row_span
        assert len(reduce) == len(certify) == 2, module.family.describe()
        assert membership
