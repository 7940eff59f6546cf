"""Workload cli-session: a fixed script of fresh `python -m trilocal` processes.

The script covers all seven subcommands on fixed mid-size inputs, with
`--format json` throughout; `localize-ring` runs for every family.
Seventeen of its 26 commands are light (about 130 ms, mostly start-up)
and nine heavy (160-400 ms), so that the median falls inside the light
group rather than on the edge between the two.
`verify --suite random` (about 2 s) is left out to keep costs
comparable.  Commands run one at a time, so at most one command process
exists; each is spawned by a small launcher process (launcher.py),
which reports the command's own peak memory.  Interpreter start and `import trilocal` are about half of
each command, so this is the only workload that sees start-up cost,
and the only one that reaches `cli`, `matrixloc`, `fracloc`, `verify`
and `report`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

from independent import parse_poly, parse_word_sum, poly, poly_add, poly_mul, word_add
from calibration import SPAWN
from tracing import calibrated_layers, per_call_ms
from wl_module_localization import Ring, check_localization, random_triple
from wl_normal_forms import Product, random_sum

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")

import trilocal.cli as cli
import trilocal.fracloc as fracloc
import trilocal.matrixloc as matrixloc
import trilocal.report as report
import trilocal.tring as tring
import trilocal.verify as verify

MIN_ROUNDS = 3  # every command repeats, and there are at least 40 operations
TRACE_ROUNDS = 1
ROUND_SECONDS = 4.5
# each command is a fresh process, so the calibration kernel is one too: on the
# reference machine the loop kernel widened the spread of command times
# (pass medians over 24% of their median, raw 13%, bare-interpreter 3.5%)
KERNEL = SPAWN

AB, UV = ("s", "t"), ("u", "v")
FAMILIES = {
    "regular": {"kind": "regular", "ring": "Z"},
    "double": {"kind": "double", "ring": "Q"},
    "scaled": {"kind": "scaled", "k": 2},
    "tensor-free": {"kind": "tensor-free", "ring": "Q", "A_gens": list(AB), "B_gens": list(UV)},
    "hnn-free": {"kind": "hnn-free", "ring": "Q", "A_gens": list(AB), "x_name": "x"},
}
IDENTITY, CORNER = "[1, 0; 0, 1]", "[0, 1; 0, 0]"
# module specs per ring: (generators of N_A, of N_B, relations of N_A, of N_B)
SPEC_SHAPES = {"z": (3, 3, 2, 1), "z1_2": (2, 2, 1, 1), "qx": (2, 2, 0, 0)}


def _family(name):
    return json.dumps(FAMILIES[name], separators=(",", ":"))


class Command:
    def __init__(self, argv, expect):
        self.argv = argv
        self.expect = expect  # parsed JSON stdout -> list of problems

    @property
    def subcommand(self):
        return self.argv[0]


def _field(doc, key, want, parse=lambda s: s):
    try:
        got = parse(doc[key])
    except (KeyError, ValueError, ZeroDivisionError, TypeError):
        return [f"field {key!r} missing or unreadable"]
    return [] if got == want else [f"field {key!r} is {doc[key]!r}"]


def _scaled_sum(rng, k_letters, terms):
    """A sum of products c * x[m]^e over a scaled family, with its value."""
    parts, value = [], Fraction(0)
    for _ in range(terms):
        c, m, e = rng.randint(1, 9), rng.randint(1, 15), rng.randint(1, 3)
        parts.append(f"{c}*x[{m}]^{e}")
        value += c * Fraction(m, k_letters) ** e
    return "+".join(parts), value


def _scaled_value(text, k):
    """Value of a printed scaled-family normal form, with x[m] -> m/k."""
    total = Fraction(0)
    for sign, term in re.findall(r"(^-?|[+-] )([^+-]+)", text.strip()):
        value = Fraction(1)
        for item in term.strip().split("*"):
            m = re.fullmatch(r"x\[(\d+)\](?:\^(\d+))?", item)
            value *= Fraction(int(m.group(1)), k) ** int(m.group(2) or 1) if m else Fraction(item)
        total += -value if sign.strip() == "-" else value
    return total


def _in_integers(q):
    return q.denominator == 1


def _in_dyadic(q):
    d = q.denominator
    return d & (d - 1) == 0


def _fraction_check(value, a0, k, in_source):
    """Expectations for `fraction`: value = numerator * a0^-r with r minimal."""

    def expect(doc):
        problems = _field(doc, "value", value, Fraction)
        try:
            r = int(doc["denominator_exponent"])
            numerator = _scaled_value(doc["numerator"], k)
        except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError):
            return problems + ["numerator or exponent missing or unreadable"]
        if numerator / Fraction(a0) ** r != value:
            problems.append(f"numerator {doc['numerator']!r} over {a0}^{r} is not the value")
        if r < 0 or not in_source(value * a0 ** r) or (r > 0 and in_source(value * a0 ** (r - 1))):
            problems.append(f"denominator exponent {r} is not minimal")
        return problems

    return expect


def _oracle_words(terms):
    return lambda doc: _field(doc, "oracle", terms, parse_word_sum)


def _ring_certificate(doc):
    return (_field(doc, "certificate", "pass") + _field(doc, "image_of_identity", IDENTITY)
            + _field(doc, "image_of_corner_p", CORNER))


def _examples_pass(doc):
    ok = doc.get("pass") is True and all(c.get("pass") is True for c in doc.get("checks", []))
    return [] if ok and doc.get("checks") else ["the worked-example report does not pass"]


def _module_check(triple):
    def expect(doc):
        try:
            out = (doc["invariant_factors"], doc["free_rank"], doc["alpha_beta"] == "pass", doc["generators"])
        except (KeyError, TypeError):
            return ["module localization fields missing"]
        return check_localization(triple, *out)

    return expect


def _spec(triple):
    r = triple.ring
    key = [r.family.fmt_m(mu) for mu in r.family.basis()]
    return {
        "family": r.family.to_json(),
        "NA": {"gens": triple.gA, "rels": triple.relsA},
        "NB": {"gens": triple.gB, "rels": triple.relsB},
        "f": {key[mu]: triple.f[mu] for mu in range(len(key))},
    }


def _word_sum_text(rng, letters, terms):
    """A sum of c * word over the given letters, with its word-sum value."""
    value, parts = {}, []
    for _ in range(terms):
        c, w = rng.randint(1, 9), tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        parts.append(f"{c}*{'*'.join(w)}" if w else str(c))
        word_add(value, w, Fraction(c))
    return "+".join(parts), value


def _double_sum(rng, terms):
    """A sum of c * x[(a,b)] over double-Q, with its value: x_(a,b) -> a + b x."""
    parts, value = [], ()
    for _ in range(terms):
        c, a, b = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        parts.append(f"{c}*x[({a},{b})]")
        value = poly_add(value, poly_mul(poly([c]), poly([a, b])))
    return "(" + "+".join(parts) + ")", value


def build_commands(seed, spec_dir):
    """The fixed script, with inputs drawn from the seed."""
    rng = random.Random(seed)
    cmds = []
    sample_seed = str(rng.randrange(10 ** 6))

    for kind, kinds in (("hnn", ("a", "m0", "mv")), ("tensor", ("A", "mix", "B"))):
        product = Product(kind, [random_sum(rng, kinds) for _ in range(3)])
        family = "hnn-free" if kind == "hnn" else "tensor-free"
        cmds.append(Command(["normalize", "--family", _family(family), "--expr", product.text()],
                            _oracle_words(product.oracle_terms())))
    for family, k in (("scaled", 2), ("regular", 1)):
        text, value = _scaled_sum(rng, k, 3)
        m = rng.randint(1, 15)
        text, value = f"({text})*x[{m}]^2", value * Fraction(m, k) ** 2
        cmds.append(Command(["normalize", "--family", _family(family), "--expr", text],
                            lambda doc, v=value: _field(doc, "oracle", v, Fraction)))
    (t1, v1), (t2, v2) = _double_sum(rng, 2), _double_sum(rng, 2)
    cmds.append(Command(["normalize", "--family", _family("double"), "--expr", f"{t1}*{t2}"],
                        lambda doc, v=poly_mul(v1, v2): _field(doc, "oracle", v, parse_poly)))

    # values go as --value=TEXT, since a TEXT that starts with '-' would read as an option
    for family, component in (("scaled", "A"), ("regular", "B")):
        n = rng.randint(-99, 99)
        cmds.append(Command(["rho", "--family", _family(family), "--component", component, f"--value={n}"],
                            lambda doc, n=n: _field(doc, "oracle", Fraction(n), Fraction)))
    a, b = rng.randint(-9, 9), rng.randint(-9, 9)
    cmds.append(Command(["rho", "--family", _family("double"), "--component", "M", f"--value=({a},{b})"],
                        lambda doc, v=poly([a, b]): _field(doc, "oracle", v, parse_poly)))
    element = Product("hnn", [random_sum(rng, ("a", "m0", "mv"))])
    cmds.append(Command(["rho", "--family", _family("hnn-free"), "--component", "M",
                         "--value=" + element.sum_text(element.factors[0], generators=False)[1:-1]],
                        _oracle_words(element.oracle_terms())))
    text, value = _word_sum_text(rng, AB, 3)
    cmds.append(Command(["rho", "--family", _family("hnn-free"), "--component", "A", "--value=" + text],
                        _oracle_words(value)))
    text, value = _word_sum_text(rng, UV, 3)
    cmds.append(Command(["rho", "--family", _family("tensor-free"), "--component", "B", "--value=" + text],
                        _oracle_words(value)))

    # change of p: regular-Z with a0 = 2 and 3 (T = Z), scaled-2 with a0 = 3 (T = Z[1/2])
    for family, a0, k_src, in_source in (("regular", 2, 1, _in_integers), ("regular", 3, 1, _in_integers),
                                         ("scaled", 3, 2, _in_dyadic)):
        k_target = a0 * k_src
        text, value = _scaled_sum(rng, k_target, 3)
        base = ["--family", _family(family), "--a0", str(a0), "--b0", str(a0), "--expr", text, "--seed", sample_seed]
        cmds.append(Command(["fraction"] + base, _fraction_check(value, a0, k_src, in_source)))
        cmds.append(Command(["factor"] + base,
                            lambda doc, v=value: _field(doc, "factored_value", v, Fraction) + _field(doc, "checks", "pass")))

    for family in FAMILIES:
        cmds.append(Command(["localize-ring", "--family", _family(family), "--seed", sample_seed], _ring_certificate))

    for suffix, shape in SPEC_SHAPES.items():
        ring = Ring(suffix)
        triple = random_triple(rng, ring, shape)
        path = os.path.join(spec_dir, f"module-{suffix}-{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_spec(triple), fh)
        cmds.append(Command(["localize-module", "--spec", path, "--seed", sample_seed], _module_check(triple)))

    cmds.append(Command(["verify", "--suite", "examples", "--seed", sample_seed], _examples_pass))
    for c in cmds:
        c.argv += ["--format", "json"]
    return cmds


class Workload:
    def __init__(self, seed, rounds, root, out_dir):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.commands = build_commands(seed, out_dir)
        self.rounds = rounds
        self.stderr_path = os.path.join(out_dir, f"cli-stderr-{seed}.txt")
        self.stdout_path = os.path.join(out_dir, f"cli-stdout-{seed}.txt")
        open(self.stderr_path, "wb").close()
        self.launcher = None

    def operations(self):
        """The fixed script, once per round."""
        return [i for _ in range(self.rounds) for i in range(len(self.commands))]

    def run(self, i):
        """One fresh process; returns (exit code, stdout, peak RSS in KiB)."""
        argv = [sys.executable, "-m", "trilocal"] + self.commands[i].argv
        self.launcher.stdin.write(json.dumps(argv) + "\n")
        self.launcher.stdin.flush()
        code, rss_kib = map(int, self.launcher.stdout.readline().split())
        with open(self.stdout_path, "rb") as fh:
            return code, fh.read(), rss_kib

    @staticmethod
    def keep(i, out):
        return out

    def run_in_process(self, i):
        """cli.main(argv) in this process, for the traced run."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.commands[i].argv)
        return code, buf.getvalue().encode(), 0

    def warm_up(self):
        self.run_in_process(0)
        self.launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", LAUNCHER, self.stdout_path, self.stderr_path],
            cwd=self.root, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        """Stop the launcher and wait for it to end."""
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.launcher.wait()
            self.launcher.stdout.close()
            self.launcher = None

    def peak_rss_kib(self, results):
        return max(out[2] for _, out in results)

    def check(self, results):
        problems = []
        first = {}
        for i, (code, out, _) in results:
            argv = self.commands[i].subcommand
            if code != 0:
                problems.append(f"{argv}: exit code {code}")
                continue
            if i in first:
                if out != first[i]:
                    problems.append(f"{argv}: a repeated run printed different output")
                continue
            first[i] = out
            try:
                doc = json.loads(out)
            except ValueError:
                problems.append(f"{argv}: stdout is not one JSON document")
                continue
            problems += [f"{argv}: {p}" for p in self.commands[i].expect(doc)]
        return problems


SUBCOMMANDS = ("normalize", "rho", "verify", "fraction", "factor", "localize-ring", "localize-module")


def instrument(tracer):
    tracer.wrap_function(cli, "main", "cli.main")
    tracer.wrap_function(matrixloc, "verify_sigma_inverting", "matrixloc.certify")
    tracer.wrap_method(fracloc.CentralPair, "fraction_form", "fracloc.fraction_form")
    tracer.wrap_function(fracloc, "factor_inverting_hom", "fracloc.factor")
    tracer.wrap_function(verify, "example_suite", "verify.examples")
    tracer.wrap_method(report.Report, "render", "report.render")
    tracer.wrap_function(tring, "t_mul", "tring.mul_calls", count_only=True)


def layer_metrics(wl, ops, traced, tracer):
    """Per-call means: each command's cli.main, and each layer function it reaches."""
    rows = calibrated_layers(tracer, traced)
    out = {}
    for sub in SUBCOMMANDS:
        sel = [(k, layers) for k, layers in rows if wl.commands[ops[k]].subcommand == sub]
        out["cli.main_ms." + sub] = (per_call_ms(sel, "cli.main"), "ms")
    for span in ("matrixloc.certify", "fracloc.fraction_form", "fracloc.factor", "verify.examples", "report.render"):
        out[span + "_ms"] = (per_call_ms(rows, span), "ms")
    out["tring.mul_calls.cli"] = (sum(tracer.counts[(k, "tring.mul_calls")] for k, _ in rows) / len(rows), "count")
    return out
