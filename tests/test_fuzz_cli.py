"""Fuzzing the CLI in-process: every input ends in a documented exit code.

Each example runs ``trilocal.cli.main`` on one generated command line:
``normalize``, ``rho`` (A, M and B), ``fraction`` and ``factor`` under
``--budget 2000``, or ``localize-module`` on a spec with at most two
generators per side.  Expressions are built from the grammar's atoms
and operators, or are soups of its tokens, or are wrapped in
parentheses about ``MAX_NESTING`` deep, raised through a chain of about
1,000 ``^1`` or raised to an exponent of hundreds of digits.  Family
descriptors and module specs have the right fields, some holding a
wrong value, and now and then one field more, or one renamed, by a
misspelling.  So most inputs get past the first check and reach the
engine.

Every run must return 0, 1, 2 or 3 without raising (a ``RecursionError``
fails the test as any traceback does), and a nonzero exit prints exactly
one ``error:`` line on stderr.  ``verify``,
``localize-ring`` and larger module specs stay out: the budget does not
yet bound their linear algebra.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from trilocal.cli import main
from trilocal.exprs import MAX_NESTING
from trilocal.families import shipped_families

BUDGET = "2000"

# a wrong value for any field of a descriptor or spec; no large generator
# count, whose linear algebra the budget does not bound yet
JUNK = st.sampled_from([True, False, None, 1.5, -1, 0, "R", "", [], {}, ["s", "s"], [1], "1/0"])


def weighted(*strategies):
    """One of the strategies, each equally likely; repeat one to weight it.

    st.one_of would merge sampled_from strategies into one list, which
    weights them by their number of values instead.
    """
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


def field(good):
    """The good value three times in four, a wrong one otherwise."""
    return weighted(good, good, good, JUNK)


# ways to misspell a field name; each changes the name
MISSPELL = st.sampled_from([lambda name: name + "s", lambda name: name[:-1], lambda name: "_" + name])


def with_misspelled_field(obj):
    """obj with one more field, a misspelling of one it has, holding that field's value."""
    return st.tuples(st.sampled_from(sorted(obj)), MISSPELL).map(lambda t: {**obj, t[1](t[0]): obj[t[0]]})


RING = field(st.sampled_from(["Z", "Q"]))
DESCRIPTORS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("regular"), "ring": RING}),
    st.fixed_dictionaries({"kind": st.just("double"), "ring": RING}),
    st.fixed_dictionaries({"kind": st.just("scaled"), "k": field(st.integers(2, 6))}),
    st.fixed_dictionaries(
        {
            "kind": st.just("tensor-free"),
            "ring": RING,
            "A_gens": field(st.sampled_from([["s"], ["s", "t"]])),
            "B_gens": field(st.sampled_from([["u"], ["u", "v"]])),
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("hnn-free"),
            "ring": RING,
            "A_gens": field(st.sampled_from([["s"], ["s", "t"]])),
            "x_name": field(st.just("x")),
        }
    ),
    st.fixed_dictionaries({"kind": JUNK}),
)
FAMILIES = weighted(DESCRIPTORS, DESCRIPTORS, DESCRIPTORS, DESCRIPTORS.flatmap(with_misspelled_field))
# a shipped family's descriptor one time in four, so that deep expressions reach the engine
SHIPPED = st.sampled_from([json.dumps(family.to_json()) for family in shipped_families()])
FAMILY_JSON = FAMILIES.map(json.dumps)
FAMILY_TEXT = weighted(
    SHIPPED, FAMILY_JSON, FAMILY_JSON, FAMILY_JSON.flatmap(lambda text: st.integers(0, len(text)).map(lambda n: text[:n]))
)

MELEMS = st.sampled_from(
    [
        "0", "1", "2", "-3", "1/2", "(1,0)", "(0,1)", "(2,1/2)", "(-1,3)",
        "t(s,u)", "t(1,1)", "t(s*t,u)", "t(1,v)", "h(s)", "h(1)", "h(s,t)", "h(1,s*t)", "h(t,1)",
    ]
)
LITERALS = st.sampled_from(["0", "1", "2", "3", "1/2", "2/3", "12345678901234567890"])
TOKENS = st.sampled_from(
    ["x[", "]", "(", ")", "+", "-", "*", "^", "/", ",", "1", "2", "0", "s", "t", "u", "h(", "t(", "x", " ", "²", "9" * 40]
)


def deep(texts):
    """A text nested in parentheses about MAX_NESTING deep, raised through a
    chain of about 1,000 ^1, or raised to an exponent of hundreds of digits."""
    return st.one_of(
        st.tuples(texts, st.integers(MAX_NESTING - 3, MAX_NESTING + 1)).map(lambda t: "(" * t[1] + t[0] + ")" * t[1]),
        st.tuples(texts, st.integers(950, 1050)).map(lambda t: f"({t[0]})" + "^1" * t[1]),
        st.tuples(texts, st.integers(10 ** 99, 10 ** 400)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


def expressions(atoms):
    """Texts of the expression grammar over atoms, deep forms of them, or soups of its tokens."""
    trees = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
            inner.map(lambda e: f"({e})"),
            st.tuples(inner, st.integers(0, 12)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda e: f"-{e}"),
        ),
        max_leaves=8,
    )
    return weighted(trees, trees, trees, st.lists(TOKENS, max_size=12).map("".join), deep(trees), deep(trees))


T_EXPRS = expressions(st.one_of(LITERALS, MELEMS.map(lambda m: f"x[{m}]")))
AB_EXPRS = expressions(st.one_of(LITERALS, st.sampled_from(["s", "t", "u", "v"])))
M_VALUES = st.one_of(
    st.lists(st.tuples(st.sampled_from(["+", "-"]), st.sampled_from(["", "2*", "1/2*", "-1*"]), MELEMS), min_size=1, max_size=4).map(
        lambda terms: "".join(sign + coeff + m for sign, coeff, m in terms)
    ),
    st.lists(TOKENS, max_size=12).map("".join),
)
SMALL = st.integers(-1, 4).map(str)

COMMANDS = st.one_of(
    st.tuples(st.just("normalize"), FAMILY_TEXT, T_EXPRS).map(lambda t: [t[0], "--family", t[1], f"--expr={t[2]}"]),
    st.tuples(st.sampled_from(["A", "B"]), FAMILY_TEXT, AB_EXPRS).map(
        lambda t: ["rho", "--family", t[1], "--component", t[0], f"--value={t[2]}"]
    ),
    st.tuples(FAMILY_TEXT, M_VALUES).map(lambda t: ["rho", "--family", t[0], "--component", "M", f"--value={t[1]}"]),
    st.tuples(st.sampled_from(["fraction", "factor"]), FAMILY_TEXT, SMALL, SMALL, T_EXPRS).map(
        lambda t: [t[0], "--family", t[1], "--a0", t[2], "--b0", t[3], f"--expr={t[4]}"]
    ),
)


def run(argv):
    """main(argv) in-process: its exit code and what it wrote on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_documented(code, err):
    assert code in (0, 1, 2, 3)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err


FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(COMMANDS, st.sampled_from(["text", "json"]))
def test_expression_commands(argv, fmt):
    assert_documented(*run(argv + ["--budget", BUDGET, "--format", fmt]))


# the families whose modules localize, so that most specs reach the linear algebra
MODULE_FAMILIES = st.sampled_from(
    [{"kind": "regular", "ring": "Z"}, {"kind": "scaled", "k": 2}, {"kind": "double", "ring": "Q"}, {"kind": "double", "ring": "Z"}]
)
ENTRIES = weighted(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "4/2", 10 ** 30, "a/b", "1/0", "3"]), JUNK)


@st.composite
def module_specs(draw):
    """A module spec with at most two generators per side; the shapes mostly fit."""
    g_a, g_b = draw(st.integers(0, 2)), draw(st.integers(0, 2))

    def rows(count, length):
        return [draw(st.lists(ENTRIES, min_size=length, max_size=length)) for _ in range(count)]

    def block():
        # f's rows for one basis element: of the right shape, of another shape, or not rows at all
        return draw(weighted(st.just(rows(g_b, g_a)), st.lists(st.lists(ENTRIES, max_size=3), max_size=3), JUNK))

    na_rels = rows(draw(st.integers(0, 2)), g_a)
    nb_rels = rows(draw(st.integers(0, 2)), g_b)
    keys = draw(st.lists(st.sampled_from(["1", "(1,0)", "(0,1)", "bogus"]), max_size=2, unique=True))
    spec = {
        "family": draw(weighted(MODULE_FAMILIES, MODULE_FAMILIES, FAMILIES)),
        "NA": {"gens": draw(field(st.just(g_a))), "rels": na_rels},
        "NB": {"gens": draw(field(st.just(g_b))), "rels": draw(field(st.just(nb_rels)))},
        "f": {key: block() for key in keys},
    }
    if draw(st.integers(0, 3)) == 0:  # one key of the spec, of N_A or of N_B misspelled
        obj = draw(st.sampled_from([spec, spec["NA"], spec["NB"]]))
        key = draw(st.sampled_from(sorted(obj)))
        obj[draw(MISSPELL)(key)] = obj.pop(key)
    return spec


@settings(FUZZ, max_examples=60)
@given(module_specs(), st.sampled_from(["text", "json"]))
def test_localize_module(tmp_path_factory, spec, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz-spec.json"
    path.write_text(json.dumps(spec))
    assert_documented(*run(["localize-module", "--spec", str(path), "--budget", BUDGET, "--format", fmt]))
