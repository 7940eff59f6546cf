"""Workload normal-forms: what `trilocal normalize` does, in-process.

Each operation parses a product of four multi-term sums over Q in the
hnn-free or the tensor-free family (two-letter alphabets), normalizes
it, prints the normal form and prints its oracle image.  The rewriting
engine, the parser and printer, and the free-algebra oracle do nearly
all the work; the linear-algebra kernel does none.

Sums draw distinct letters of fixed kinds, so every product has close
to 4^4 = 256 terms and operations cost about the same.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from independent import parse_word_sum, word_add, word_product
from calibration import LOOP
from tracing import calibrated_layers, mean_ms

import trilocal.exprs as exprs
import trilocal.tring as tring
from trilocal.families import HnnFreeFamily, TensorFreeFamily

DISTINCT = 64  # products per round, alternating the two families
MIN_ROUNDS = 1
TRACE_ROUNDS = 1
ROUND_SECONDS = 3.8  # calibrated seconds of one round of operations
KERNEL = LOOP  # calibration of the operations and the set-up probes
FACTORS = 4
HNN_KINDS = ("a", "m0", "mv", "mv")
TENSOR_KINDS = ("A", "mix", "mix", "B")
COEFFS = (1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))
AB = ("s", "t")
UV = ("u", "v")


def _word(rng, letters, lo, hi):
    return tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _wtext(word):
    return "*".join(word) if word else "1"


class Product:
    """One input: a product of sums, kept as data the benchmark owns."""

    def __init__(self, kind, factors):
        self.kind = kind  # "hnn" or "tensor"
        self.factors = factors  # [[(coeff, letter), ...], ...]

    @staticmethod
    def melem_text(kind, letter):
        if kind == "hnn":
            if letter[0] == "a":
                return f"h({_wtext(letter[1])})"
            return f"h({_wtext(letter[1])},{_wtext(letter[2])})"
        return f"t({_wtext(letter[0])},{_wtext(letter[1])})"

    def sum_text(self, terms, generators=True):
        """A sum of generators x[m], or with generators=False of bimodule elements m."""
        out = ""
        for coeff, letter in terms:
            body = self.melem_text(self.kind, letter)
            if generators:
                body = f"x[{body}]"
            mag = abs(coeff)
            piece = body if mag == 1 else f"{mag}*{body}"
            if coeff < 0:
                out += "-" + piece
            else:
                out += ("+" if out else "") + piece
        return "(" + out + ")"

    def text(self):
        return "*".join(self.sum_text(t) for t in self.factors)

    def rebracketed(self):
        """The same product nested to the right: F1*(F2*(F3*F4))."""
        sums = [self.sum_text(t) for t in self.factors]
        out = sums[-1]
        for s in reversed(sums[:-1]):
            out = f"{s}*({out})"
        return out

    def oracle_terms(self):
        """Expected oracle image, by the benchmark's own word arithmetic.

        hnn-free: x_(a) -> a and x_(0, u (x) v) -> u x v with a fresh x;
        tensor-free: x_(a (x) b) -> a b in the free product.
        """
        factors = []
        for terms in self.factors:
            acc = {}
            for coeff, letter in terms:
                if self.kind == "hnn":
                    word = letter[1] if letter[0] == "a" else letter[1] + ("x",) + letter[2]
                else:
                    word = letter[0] + letter[1]
                word_add(acc, word, Fraction(coeff))
            factors.append(acc)
        return word_product(factors)


def _letter(rng, kind):
    if kind == "a":
        return ("a", _word(rng, AB, 1, 2))
    if kind == "m0":
        return ("m", _word(rng, AB, 0, 2), ())
    if kind == "mv":
        return ("m", _word(rng, AB, 0, 1), _word(rng, AB, 1, 2))
    if kind == "mix":
        return (_word(rng, AB, 1, 2), _word(rng, UV, 1, 2))
    if kind == "A":
        return (_word(rng, AB, 1, 2), ())
    return ((), _word(rng, UV, 1, 2))


def random_sum(rng, kinds):
    seen = set()
    terms = []
    for kind in kinds:
        letter = _letter(rng, kind)
        while letter in seen:
            letter = _letter(rng, kind)
        seen.add(letter)
        terms.append((rng.choice(COEFFS), letter))
    return terms


def make_products(rng, count):
    out = []
    for i in range(count):
        kind, kinds = ("hnn", HNN_KINDS) if i % 2 == 0 else ("tensor", TENSOR_KINDS)
        out.append(Product(kind, [random_sum(rng, kinds) for _ in range(FACTORS)]))
    return out


class Workload:
    def __init__(self, seed, rounds, root, out_dir):
        self.families = {
            "hnn": HnnFreeFamily("Q", AB, "x"),
            "tensor": TensorFreeFamily("Q", AB, UV),
        }
        self.products = make_products(random.Random(seed), DISTINCT)
        self.texts = [p.text() for p in self.products]
        self.rounds = rounds

    def operations(self):
        """The fixed list: every product once per round, in the same order."""
        return [i for _ in range(self.rounds) for i in range(DISTINCT)]

    def run(self, i):
        family = self.families[self.products[i].kind]
        tree = exprs.parse_element(family, self.texts[i])
        budget = tring.Budget(tring.DEFAULT_BUDGET)
        element = tring.t_normalize(family, tree, budget)
        normal = exprs.format_element(element)
        oracle = exprs.format_oracle(family, tring.family_iso(element))
        return normal, oracle, element, budget.used

    @staticmethod
    def keep(i, out):
        """A digest of the printed output, and the budget used.

        No printed form or element is held, so the peak resident set
        counts the program's memory, and it does not grow with rounds."""
        normal, oracle, _, used = out
        return digest(normal, oracle), used

    def warm_up(self):
        self.run(0)
        self.run(1)

    def check(self, results):
        """Problems found in [(op, kept output)]; an empty list means correct.

        Each product is run once more, and its output is checked and
        compared with the digest of every kept run of it."""
        problems = []
        runs = {}
        for i, (kept, _) in results:
            runs.setdefault(i, []).append(kept)
        for i, kept in runs.items():
            normal, oracle, element, _ = self.run(i)
            if any(d != digest(normal, oracle) for d in kept):
                problems.append(f"product {i}: a repeated run printed different output")
            product = self.products[i]
            problems += check_product(self.families[product.kind], product, normal, oracle, element)
        return problems


def digest(normal, oracle):
    return hashlib.blake2b(f"{normal}\n{oracle}".encode(), digest_size=16).digest()


def check_product(family, product, normal, oracle, element):
    problems = []
    try:
        got = parse_word_sum(oracle)
    except ValueError as exc:
        got = exc
    if got != product.oracle_terms():
        problems.append(f"{product.text()}: oracle image {oracle[:60]!r}... differs from the expected word sum")
    other = exprs.format_element(tring.t_normalize(family, exprs.parse_element(family, product.rebracketed())))
    if other != normal:
        problems.append(f"{product.text()}: another bracketing prints another normal form")
    # re-parse term by term and add up with the benchmark's own sum: a
    # whole-sum t_normalize costs time quadratic in the number of terms
    try:
        tree = exprs.parse_element(family, normal)
    except ValueError:  # trilocal's ParseError
        return problems + [f"{product.text()}: the printed normal form does not parse"]
    reparsed = {}
    for item in tree.items if isinstance(tree, tring.Add) else (tree,):
        for word, coeff in tring.t_normalize(family, item).terms.items():
            word_add(reparsed, word, coeff)
    if reparsed != element.terms:
        problems.append(f"{product.text()}: the printed normal form re-parses to another element")
    return problems


def instrument(tracer):
    tracer.wrap_function(exprs, "parse_element", "exprs.parse")
    tracer.wrap_function(tring, "t_normalize", "tring.normalize")
    tracer.wrap_function(exprs, "format_element", "exprs.format")
    tracer.wrap_function(tring, "family_iso", "rings.oracle")
    tracer.wrap_function(exprs, "format_oracle", "rings.oracle")
    tracer.wrap_function(tring, "t_mul", "tring.mul_calls", count_only=True)


def layer_metrics(wl, ops, traced, tracer):
    rows = calibrated_layers(tracer, traced)
    n = len(rows)
    return {
        "exprs.parse_ms": (mean_ms(rows, "exprs.parse"), "ms"),
        "tring.normalize_ms": (mean_ms(rows, "tring.normalize"), "ms"),
        "exprs.format_ms": (mean_ms(rows, "exprs.format"), "ms"),
        "rings.oracle_ms": (mean_ms(rows, "rings.oracle"), "ms"),
        "tring.mul_calls": (sum(tracer.counts[(k, "tring.mul_calls")] for k, _ in rows) / n, "count"),
        "tring.budget_used": (sum(out[1] for _, out in traced.kept) / n, "count"),
    }
