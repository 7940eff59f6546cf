"""Command-line interface.

Subcommands: normalize, rho, verify, fraction, factor, localize-ring,
localize-module.  Exit codes: 0 success, 1 failed verification or certificate,
2 bad input (any other TrilocalError, a malformed command line included),
3 step-budget exhaustion.  Any other exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import BudgetExceededError, CertificateError, SchemaError, TrilocalError
from .exprs import format_element, format_oracle, parse_bim_element, parse_element, parse_ring_element
from .families import family_from_json
from .fracloc import CentralPair, factor_inverting_hom, rational_value_hom
from .matrixloc import TriMap, matrix_text, verify_sigma_inverting
from .modloc import localize_module
from .report import DEFAULT_SEED, render_doc
from .tring import DEFAULT_BUDGET, Budget, family_iso, rho, t_normalize
from .triangular import TriElement, triple_from_json
from .verify import example_suite, random_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


def _load_json(what, text=None, path=None):
    """The JSON document text, or the one in the file at path; every failure
    to read or decode it is a SchemaError naming what."""
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, non-UTF-8 bytes, an integer of too many digits
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{what} nests too deeply") from None


def _load_family(spec):
    if spec is None:
        raise SchemaError("--family is required for this command")
    if spec.startswith("@"):
        return family_from_json(_load_json("family file", path=spec[1:]))
    return family_from_json(_load_json("--family", text=spec))


def _emit(doc, fmt):
    print(render_doc(doc, fmt))


def cmd_normalize(args):
    family = _load_family(args.family)
    tree = parse_element(family, args.expr)
    element = t_normalize(family, tree, args.budget)
    _emit(
        {
            "family": family.describe(),
            "input": args.expr,
            "normal_form": format_element(element),
            "oracle": format_oracle(family, family_iso(element)),
        },
        args.format,
    )
    return EXIT_OK


def cmd_rho(args):
    family = _load_family(args.family)
    if args.component == "M":
        value = parse_bim_element(family, args.value)
        shown = family.fmt_m(value)
    else:
        value = parse_ring_element(family, args.component, args.value, args.budget)
        ring = family.a_ring if args.component == "A" else family.b_ring
        shown = ring.fmt(value)
    image = rho(family, args.component, value, args.budget)
    _emit(
        {
            "family": family.describe(),
            "component": args.component,
            "value": shown,
            "normal_form": format_element(image),
            "oracle": format_oracle(family, family_iso(image)),
        },
        args.format,
    )
    return EXIT_OK


def cmd_verify(args):
    suite = example_suite if args.suite == "examples" else random_suite
    report = suite(seed=args.seed, negative_control=args.negative_control)
    print(report.render(args.format))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _change_of_p_input(args):
    """The family, the central pair (a0, b0) and the normal form of --expr in
    the pair's target family."""
    family = _load_family(args.family)
    pair = CentralPair(family, args.a0, args.b0)
    return family, pair, t_normalize(pair.target, parse_element(pair.target, args.expr), args.budget)


def cmd_fraction(args):
    family, pair, element = _change_of_p_input(args)
    form = pair.fraction_form(element)
    _emit(
        {
            "family": family.describe(),
            "target_family": pair.target.describe(),
            "input": args.expr,
            "value": format_oracle(pair.target, family_iso(element)),
            "numerator": format_element(form.numerator),
            "denominator_exponent": form.exponent,
        },
        args.format,
    )
    return EXIT_OK


def cmd_factor(args):
    family, pair, element = _change_of_p_input(args)
    hom = rational_value_hom(family)
    passed = hom.respects_relations(samples=50, seed=args.seed)
    value = factor_inverting_hom(pair, hom, Fraction(1, args.a0))(element)
    _emit(
        {
            "family": family.describe(),
            "target_family": pair.target.describe(),
            "input": args.expr,
            "factored_value": hom.s_ring.fmt(value),
            "checks": "pass" if passed else "fail",
        },
        args.format,
    )
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_localize_ring(args):
    family = _load_family(args.family)
    f = TriMap(family)
    report = verify_sigma_inverting(f, samples=200, seed=args.seed)
    corner = TriElement(family, family.a_ring.zero(), family.p, family.b_ring.zero())
    doc = {
        "family": family.describe(),
        "image_of_identity": matrix_text(f(TriElement.one(family))),
        "image_of_corner_p": matrix_text(f(corner)),
        "certificate": "pass" if report.passed else "fail",
    }
    _emit(doc, args.format)
    if args.format == "text":
        print(report.render(args.format))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_localize_module(args):
    data = _load_json("module spec", path=args.spec)
    if not isinstance(data, dict):
        raise SchemaError("module spec must be a JSON object")
    if args.family is not None:
        family = _load_family(args.family)
    else:
        if "family" not in data:
            raise SchemaError("module spec must carry a 'family' descriptor")
        family = family_from_json(data["family"])
    triple = triple_from_json(family, data)
    localized = localize_module(triple)
    doc = localized.to_json()
    doc["family"] = family.describe()
    _emit(doc, args.format)
    if args.format == "text":
        print(localized.report.render(args.format))
    return EXIT_OK if localized.report.passed else EXIT_VERIFY


class _ArgumentParser(argparse.ArgumentParser):
    """A malformed command line is bad input: one error: line, exit 2."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


def build_parser():
    parser = _ArgumentParser(
        prog="trilocal",
        description="Exact universal localization of triangular 2x2 matrix rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=True, expr=False):
        if family:
            p.add_argument("--family", help="family descriptor: inline JSON or @path")
        if expr:
            p.add_argument("--expr", required=True, help="element expression in the published grammar")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for sampled checks")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="rewrite-step budget")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("normalize", help="normalize an expression and show its oracle value")
    common(p, expr=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("rho", help="image of an A, M or B element in T(M,p)")
    common(p)
    p.add_argument("--component", choices=("A", "M", "B"), required=True)
    p.add_argument("--value", required=True, help="element text (scalar, word expression, or melem sum)")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("verify", help="run the worked-example or random property suites")
    common(p, family=False)
    p.add_argument("--suite", choices=("examples", "random"), default="examples")
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="check a corrupted map out of R, to prove the suite can fail (self-test)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fraction", help="fraction form over T(M,a0*p)")
    common(p, expr=True)
    p.add_argument("--a0", type=int, required=True)
    p.add_argument("--b0", type=int, required=True)
    p.set_defaults(func=cmd_fraction)

    p = sub.add_parser("factor", help="evaluate the factorization through T(M,a0*p)")
    common(p, expr=True)
    p.add_argument("--a0", type=int, required=True)
    p.add_argument("--b0", type=int, required=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("localize-ring", help="certify the 2x2 matrix localization")
    common(p)
    p.set_defaults(func=cmd_localize_ring)

    p = sub.add_parser("localize-module", help="localize a module triple from a JSON spec")
    common(p)
    p.add_argument("--spec", required=True, help="path to the TripleModule JSON document")
    p.set_defaults(func=cmd_localize_module)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.budget < 0:  # every subcommand takes --budget
            raise SchemaError(f"--budget must be a non-negative integer, got {args.budget}")
        args.budget = Budget(args.budget)  # one count for the whole command
        return args.func(args)
    except TrilocalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceededError):
            return EXIT_BUDGET
        return EXIT_VERIFY if isinstance(exc, CertificateError) else EXIT_PARSE
    except SystemExit as exc:  # argparse exits 0 once it has printed --help; error() raises instead
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
