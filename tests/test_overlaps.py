"""Confluence evidence: every overlap of three generators resolves.

The rewriting rules of the free families (a merge of two letters, a
shift between them) act across one seam, so the overlap ambiguities are
the triples u*v*w of generators.  By Bergman's diamond lemma (Adv. Math.
29, 1978) the normal forms are well defined once every such triple
reduces to one form whichever product is formed first.  A generator here
is x_key for every key of M but p's, whose letter is the constant 1,
with words up to a length bound.
"""

from itertools import product

import pytest

from trilocal.exprs import format_element
from trilocal.families import HnnFreeFamily, TensorFreeFamily
from trilocal.tring import t_generator, t_mul


def words(n, bound):
    """Every word over n letters of length at most bound."""
    return [w for length in range(bound + 1) for w in product(range(n), repeat=length)]


def generators(family, bound):
    """x_key for every key of M except p's, each word of length at most bound."""
    if isinstance(family, HnnFreeFamily):
        ws = words(len(family.a_gens), bound)
        keys = [("a", w) for w in ws] + [("m", u, v) for u in ws for v in ws]
    else:
        keys = list(product(words(len(family.a_gens), bound), words(len(family.b_gens), bound)))
    assert all(family.is_key(key) for key in keys)
    return [t_generator(family, {key: 1}) for key in keys if key != family.p_key]


def unresolved(family, bound):
    """The text of each triple u*v*w of generators whose two products differ."""
    return [
        "*".join(map(format_element, (u, v, w)))
        for u, v, w in product(generators(family, bound), repeat=3)
        if t_mul(t_mul(u, v), w) != t_mul(u, t_mul(v, w))
    ]


CASES = {
    "hnn-free s,t": (HnnFreeFamily("Q", ("s", "t"), "x"), 1, 11),
    "hnn-free s": (HnnFreeFamily("Q", ("s",), "x"), 2, 11),
    "tensor-free s|u": (TensorFreeFamily("Q", ("s",), ("u",)), 2, 8),
    "tensor-free s,t|u,v": (TensorFreeFamily("Q", ("s", "t"), ("u", "v")), 1, 8),
}


@pytest.mark.parametrize("name", list(CASES))
def test_every_triple_resolves(name):
    family, bound, letters = CASES[name]
    assert len(generators(family, bound)) == letters
    assert unresolved(family, bound) == []


def test_reversed_shift_fails_on_a_named_triple(monkeypatch):
    # the shift moves v of x_(u (x) v) into the next letter as v*u2; a
    # shift that writes u2*v breaks associativity on some triple
    def reversed_shift(self, l1, l2):
        if l1[0] == "m" and l2[0] == "m" and l1[2] != ():
            return ("m", l1[1], ()), ("m", l2[1] + l1[2], l2[2])
        return None

    monkeypatch.setattr(HnnFreeFamily, "shift_pair", reversed_shift)
    family, bound, _ = CASES["hnn-free s,t"]
    failures = unresolved(family, bound)
    assert len(failures) == 90, failures[:3]
    assert failures[0] == "x[h(1,1)]*x[h(s)]*x[h(t,1)]"
