"""Workload module-localization: `modloc.localize_module` in-process.

Each operation localizes one random module triple of fixed size, in
equal numbers over the three rings that support it: Z (regular-Z),
Z[1/2] (scaled, k=2) and Q[x] (double-Q).  The linear-algebra kernel
(diagonal forms, their self-certification, membership tests) and the
comparison-map verifier do nearly all the work; the rewriting engine
only builds a few generators.  Generator counts differ per ring so that
operations cost within a few-fold of each other.
"""

from __future__ import annotations

import random
from fractions import Fraction

from independent import PX, DyadicDomain, IntDomain, PolyDomain, determinantal_divisor, entries_gcd, parse_poly, poly
from calibration import LOOP
from tracing import calibrated_layers, mean_ms, transform_bits

import trilocal.linalg as linalg
import trilocal.modloc as modloc
from trilocal.families import DoubleFamily, RegularFamily, ScaledFamily
from trilocal.triangular import FPModule, TripleModule

MIN_ROUNDS = 14  # at least 42 operations, so that the tail percentile exists
TRACE_ROUNDS = 4
ROUND_SECONDS = 0.5
KERNEL = LOOP  # calibration of the operations and the set-up probes
ENTRY_SIZE = 5

# ring suffix -> (generators of N_A, of N_B, relations of N_A, of N_B).  Over
# Q[x] the base ring Q is a field, so any relation of N_A or N_B would
# only cut a generator and make L trivial; without them L is
# Q[x]^2 / (f_(0,1) - x f_(1,0)), whose invariant factor is a quadratic.
# On the reference machine the rings cost about 80, 130 and 280 ms
# calibrated: little overlap, so the median lies inside the Z[1/2] group
# and the tail inside the Q[x] group.
SHAPES = {"z": (5, 5, 2, 1), "z1_2": (2, 2, 1, 1), "qx": (2, 2, 0, 0)}
RINGS = tuple(SHAPES)


class Ring:
    """What the benchmark knows of T for one family, independently."""

    def __init__(self, suffix):
        self.suffix = suffix
        if suffix == "z":
            self.family, self.domain, self.tag = RegularFamily("Z"), IntDomain(), "Z"
            self.x_mu = [1]  # p = 1, so x_1 = 1
        elif suffix == "z1_2":
            self.family, self.domain, self.tag = ScaledFamily(2), DyadicDomain(), "Z"
            self.x_mu = [Fraction(1, 2)]  # x_m = m/2
        else:
            self.family, self.domain, self.tag = DoubleFamily("Q"), PolyDomain(), "Q"
            self.x_mu = [poly([1]), PX]  # x_(1,0) = 1, x_(0,1) = x

    def embed(self, c):
        return poly([c]) if self.suffix == "qx" else c

    def neg(self, x):
        return tuple(-c for c in x) if self.suffix == "qx" else -x

    def parse_factor(self, text):
        if self.suffix == "qx":
            return parse_poly(text)
        return self.domain.canon(Fraction(text))


class Triple:
    """Input data: relations of N_A (repaired so f is well defined), of N_B, and f."""

    def __init__(self, ring, gA, gB, relsA, relsB, f):
        self.ring, self.gA, self.gB = ring, gA, gB
        self.relsA, self.relsB, self.f = relsA, relsB, f

    def module(self):
        r = self.ring
        return TripleModule(r.family, FPModule(r.tag, self.gA, self.relsA), FPModule(r.tag, self.gB, self.relsB), self.f)

    def presentation(self):
        """Relation matrix of L over T, built from the paper's description.

        Rows: the N_A relations, the N_B relations, and per bimodule basis
        element mu and N_B generator j the mixed relation
        f(mu (x) n_j) - x_mu * n_j.
        """
        r = self.ring
        zero = r.embed(0)
        rows = [[r.embed(c) for c in row] + [zero] * self.gB for row in self.relsA]
        rows += [[zero] * self.gA + [r.embed(c) for c in row] for row in self.relsB]
        for mu, x in enumerate(r.x_mu):
            for j in range(self.gB):
                row = [r.embed(c) for c in self.f[mu][j]] + [zero] * self.gB
                row[self.gA + j] = r.neg(x)
                rows.append(row)
        return rows


def random_triple(rng, ring, shape=None):
    gA, gB, a, b = shape or SHAPES[ring.suffix]
    nbasis = len(ring.x_mu)

    def vec(n):
        return [rng.randint(-ENTRY_SIZE, ENTRY_SIZE) for _ in range(n)]

    relsA = [vec(gA) for _ in range(a)]
    relsB = [vec(gB) for _ in range(b)]
    f = [[vec(gA) for _ in range(gB)] for _ in range(nbasis)]
    # f composed with an N_B relation must land in the N_A relation span:
    # add each such image as one more N_A relation
    for s in relsB:
        for mu in range(nbasis):
            relsA.append([sum(s[j] * f[mu][j][c] for j in range(gB)) for c in range(gA)])
    return Triple(ring, gA, gB, relsA, relsB, f)


class Workload:
    def __init__(self, seed, rounds, root, out_dir):
        rng = random.Random(seed)
        rings = [Ring(s) for s in RINGS]
        self.triples = [random_triple(rng, ring) for _ in range(rounds) for ring in rings]
        self.modules = [t.module() for t in self.triples]
        warm_rng = random.Random(seed ^ 0x5EED)
        self.warm = [random_triple(warm_rng, ring).module() for ring in rings]

    def operations(self):
        """Every triple once; one per ring in turn."""
        return list(range(len(self.triples)))

    def ring_of(self, i):
        return self.triples[i].ring.suffix

    def run(self, i):
        return modloc.localize_module(self.modules[i])

    @staticmethod
    def keep(i, loc):
        return loc.factors_fmt(), loc.rank, loc.report.passed, loc.presentation.gens

    def warm_up(self):
        for module in self.warm:
            modloc.localize_module(module)

    def check(self, results):
        problems = []
        first = {}
        for i, out in results:
            if i in first:
                if out != first[i]:
                    problems.append(f"triple {i}: a repeated run gave different output")
                continue
            first[i] = out
            problems += check_localization(self.triples[i], *out)
        return problems


def check_localization(triple, factors, free_rank, maps_pass, gens):
    """Compare a localization with the benchmark's own determinantal divisors."""
    ring, dom = triple.ring, triple.ring.domain
    where = f"{ring.suffix} triple {triple.gA}+{triple.gB}"
    problems = []
    if not maps_pass:
        problems.append(f"{where}: the comparison-map report fails")
    rows = triple.presentation()
    if gens != triple.gA + triple.gB:
        problems.append(f"{where}: {gens} generators, expected {triple.gA + triple.gB}")
    rank, d = determinantal_divisor(dom, rows)
    if free_rank != triple.gA + triple.gB - rank:
        problems.append(f"{where}: free rank {free_rank}, expected {triple.gA + triple.gB - rank}")
    try:
        parsed = [ring.parse_factor(t) for t in factors]
    except (ValueError, ZeroDivisionError):
        return problems + [f"{where}: unreadable invariant factors {factors}"]
    product = dom.canon(dom.one())
    for p in parsed:
        product = dom.canon(dom.mul(product, p))
    if product != d:
        problems.append(f"{where}: product of invariant factors {factors} is not the gcd of the maximal minors")
    # the first diagonal entry is the gcd of all entries; it is a unit
    # unless every one of the rank diagonal entries is a listed factor
    g = entries_gcd(dom, rows)
    first = parsed[0] if parsed and len(parsed) == rank else dom.canon(dom.one())
    if rank and first != g:
        problems.append(f"{where}: first invariant factor is not the gcd of the entries")
    return problems


def instrument(tracer):
    tracer.wrap_function(modloc, "localized_presentation", "modloc.present")
    tracer.wrap_function(modloc, "tensor_side_presentation", "modloc.present")
    tracer.wrap_function(modloc, "diagonal_form", "linalg.diagonal_form", on_result=transform_bits)
    tracer.wrap_method(linalg.DiagonalForm, "verify", "linalg.certify")
    tracer.wrap_function(modloc, "in_row_span", "linalg.in_row_span")
    tracer.wrap_function(modloc, "verify_comparison_maps", "modloc.verify_maps")


def layer_metrics(wl, ops, traced, tracer):
    rows = calibrated_layers(tracer, traced)
    out = {}
    for suffix in ("",) + tuple("." + r for r in RINGS):
        sel = [(k, layers) for k, layers in rows if not suffix or "." + wl.ring_of(ops[k]) == suffix]
        calls = sum(layers["linalg.in_row_span"][2] for _, layers in sel if "linalg.in_row_span" in layers)
        bits = max(tracer.maxima[(k, "linalg.transform_bits_max")] for k, _ in sel)
        out.update({
            "modloc.present_ms" + suffix: (mean_ms(sel, "modloc.present"), "ms"),
            "linalg.diagonal_form_ms" + suffix: (mean_ms(sel, "linalg.diagonal_form"), "ms"),
            "linalg.certify_ms" + suffix: (mean_ms(sel, "linalg.certify"), "ms"),
            "linalg.in_row_span_ms" + suffix: (mean_ms(sel, "linalg.in_row_span"), "ms"),
            "linalg.in_row_span_calls" + suffix: (calls / len(sel), "count"),
            "modloc.verify_maps_self_ms" + suffix: (mean_ms(sel, "modloc.verify_maps", part=1), "ms"),
            "linalg.transform_bits_max" + suffix: (bits, "bits"),
        })
    return out
