"""Independent reference implementations used as test oracles.

Deliberately naive: cofactor determinants, a recursive gcd-elimination
Smith reduction without transformation tracking, the determinant-divisor
construction of invariant factors (over Z, over Z[1/k] through Z, and
over Q[x] on dense Fraction lists), row-span membership over Z and
Z[1/k] from the rank and the product of the invariant factors, an
exhaustive unimodular search for 2x2 witnesses, the p-factorization
of a bimodule element in each shipped family kind, the product of
two normal forms of T(M,p) with its step charge, and the k-free part and
k-adic exponent of an integer, one gcd with k per step.  None of this shares
code with the package: it reads a family only through its attributes
and its letter_bim and act.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod


def reference_det(rows):
    """Cofactor-expansion determinant."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * reference_det(minor)
    return total


def reference_snf_diagonal(rows):
    """Diagonal of the Smith form by naive gcd elimination, recursively."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    if m == 0 or n == 0:
        return []

    def nonzero_positions():
        return [(i, j) for i in range(m) for j in range(n) if a[i][j] != 0]

    positions = nonzero_positions()
    if not positions:
        return [0] * min(m, n)
    while True:
        # smallest magnitude nonzero entry to the corner
        i0, j0 = min(positions, key=lambda ij: abs(a[ij[0]][ij[1]]))
        a[0], a[i0] = a[i0], a[0]
        for r in a:
            r[0], r[j0] = r[j0], r[0]
        pivot = a[0][0]
        dirty = False
        for i in range(1, m):
            q = a[i][0] // pivot
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            if a[i][0] != 0:
                dirty = True
        for j in range(1, n):
            q = a[0][j] // pivot
            if q:
                for i in range(m):
                    a[i][j] -= q * a[i][0]
            if a[0][j] != 0:
                dirty = True
        if dirty:
            positions = nonzero_positions()
            continue
        bad = None
        for i in range(1, m):
            for j in range(1, n):
                if a[i][j] % pivot != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is None:
            break
        a[0] = [x + y for x, y in zip(a[0], a[bad])]
        positions = nonzero_positions()
    rest = reference_snf_diagonal([r[1:] for r in a[1:]])
    return [abs(a[0][0])] + rest


def determinant_divisor_diagonal(rows):
    """Invariant factors via gcds of k x k minors; zero-padded diagonal."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    size = min(m, n)
    out = []
    prev = 1
    for k in range(1, size + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, abs(reference_det(minor)))
        if g == 0:
            out += [0] * (size - len(out))
            return out
        out.append(g // prev)
        prev = g
    return out


def unimodular_witness_2x2(mat, target, bound=3):
    """Search U, V with determinant +-1 and |entries| <= bound, U*mat*V == target."""
    def mul(x, y):
        return [
            [x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]],
            [x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]],
        ]

    span = range(-bound, bound + 1)
    candidates = [
        [[a, b], [c, d]]
        for a, b, c, d in product(span, repeat=4)
        if abs(a * d - b * c) == 1
    ]
    for U in candidates:
        UM = mul(U, mat)
        for V in candidates:
            if mul(UM, V) == target:
                return U, V
    return None


def _k_free(n, k):
    """|n| with every prime factor of k divided out (n != 0)."""
    n = abs(n)
    g = gcd(n, k)
    while g > 1:
        n //= g
        g = gcd(n, k)
    return n


def kadic_exponent(den, k):
    """The least r >= 0 with den | k**r for an int den > 0, or None when there
    is none: one gcd with k divided out of den per step, r counting the steps."""
    r = 0
    while den > 1:
        g = gcd(den, k)
        if g == 1:
            return None
        den //= g
        r += 1
    return r


def kadic_invariants(rows, k):
    """Invariant factors (as positive k-free ints) and rank over Z[1/k].

    rows hold Fractions whose denominators are powers of primes of k.
    Clearing denominators scales by a unit of Z[1/k]; the invariant
    factors are then the k-free parts of the integer ones, units dropped.
    """
    den = 1
    for row in rows:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    diagonal = determinant_divisor_diagonal([[int(x * den) for x in row] for row in rows])
    nonzero = [d for d in diagonal if d != 0]
    return [f for f in (_k_free(d, k) for d in nonzero) if f != 1], len(nonzero)


def reference_span_invariants(rows, k):
    """(rank, product of the nonzero invariant factors up to units) of the
    row span of rows over Z (k = 1) or Z[1/k], entries ints or Fractions
    whose denominators divide a power of k.  Clearing denominators scales by
    a unit; over Z[1/k] the product is its k-free part."""
    den = lcm(*(Fraction(x).denominator for row in rows for x in row))
    nonzero = [d for d in reference_snf_diagonal([[int(x * den) for x in row] for row in rows]) if d != 0]
    return len(nonzero), _k_free(prod(nonzero), k)


def reference_row_member(rows, v, k, invariants):
    """Whether v lies in the row span L of rows over Z (k = 1) or Z[1/k],
    given invariants = reference_span_invariants(rows, k).  L + (v) contains
    L with the same saturation when the rank stays, and the product of the
    invariant factors is the index of a span in its saturation, so v is in
    L exactly when appending it keeps both the rank and that product."""
    return reference_span_invariants(rows + [v], k) == invariants


# Dense polynomials over Q: lists of Fractions, lowest degree first, with no
# trailing zeros; [] is zero.

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _poly_trim(out)


def _poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def _poly_divmod(a, b):
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = c
        for i, x in enumerate(b):
            rem[shift + i] -= c * x
        _poly_trim(rem)
    return _poly_trim(quot), rem


def _poly_monic_gcd(a, b):
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def _poly_det(rows):
    """Cofactor-expansion determinant of a square matrix of polynomials."""
    if not rows:
        return [1]
    total = []
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = _poly_det([r[:j] + r[j + 1:] for r in rows[1:]])
            term = _poly_mul(entry, minor)
            total = _poly_add(total, term if j % 2 == 0 else [-c for c in term])
    return total


def poly_invariants(rows):
    """Invariant factors (monic, degree >= 1) and rank over Q[x].

    The j-th determinantal divisor is the monic gcd of all j x j minors,
    and the j-th invariant factor is its quotient by the previous one.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    factors, previous = [], [Fraction(1)]
    for size in range(1, min(m, n) + 1):
        divisor = []
        for rsel in combinations(range(m), size):
            for csel in combinations(range(n), size):
                divisor = _poly_monic_gcd(divisor, _poly_det([[rows[i][j] for j in csel] for i in rsel]))
        if not divisor:
            break
        factors.append(_poly_divmod(divisor, previous)[0])
        previous = divisor
    return [f for f in factors if len(f) > 1], len(factors)


# p-factorization: m = a*p and m = p*b, read off a bimodule element in the
# plain data a family stores it as.  A factor is raw: a scalar, or a map
# from words to coefficients for a free algebra; a caller builds the ring
# element it stands for.

def reference_factor_p(family, m):
    """(left, right): a raw a with m = a*p when m lies in A*p, and a raw b
    with m = p*b when m lies in p*B; either is None otherwise."""
    kind = family.kind
    if kind == "regular":  # p = 1
        return m, m
    if kind == "scaled":  # p = k
        q, r = divmod(m, family.k)
        return (q, q) if r == 0 else (None, None)
    if kind == "double":  # p = (1, 0), and a*(m1, m2)*b = (ab*m1, ab*m2)
        m1, m2 = m
        q = m1 if m2 == 0 else None
        return q, q
    if kind == "tensor-free":  # keys (u, v) stand for u (x) v, and p = 1 (x) 1
        left = {u: c for (u, _), c in m.items()} if all(v == () for _, v in m) else None
        right = {v: c for (_, v), c in m.items()} if all(u == () for u, _ in m) else None
        return left, right
    if kind == "hnn-free":  # keys ("a", w) of A, with p = ("a", ()), and ("m", u, v) of A (x) A
        if any(key[0] == "m" for key in m):
            return None, None
        a = {key[1]: c for key, c in m.items()}
        return a, a
    raise ValueError(f"no reference p-factorization for {kind}")


def reference_factors_reapply(family, m, build):
    """Each factor that reference_factor_p returns for m, built into an element
    of its ring by build(ring, raw), reproduces m when applied to p."""
    left, right = reference_factor_p(family, m)
    return (left is None or family.apply(build(family.a_ring, left), family.p, family.b_one) == m) and (
        right is None or family.apply(family.a_one, family.p, build(family.b_ring, right)) == m
    )


# The product in T(M,p) and its step charge, written from the rule the
# tring module states, with no memo and no splicing.  Words are tuples of
# letters and term maps send words to nonzero scalars, as in the engine.

def _bits(c):
    """Bits of a scalar: of an int, or of a Fraction's numerator and denominator."""
    return c.bit_length() if isinstance(c, int) else c.numerator.bit_length() + c.denominator.bit_length()


class ProductReference:
    """One product of two term maps in a family: ``used`` counts its steps.

    Every pair of terms is charged ``pair`` before its words are multiplied.
    At a seam (the last letter of one word, the first of the next) a merge
    is read off ``reference_factor_p`` and the family's ``act``: the left
    letter's element a*p acts with a on the right letter, or else the right
    one's p*b with b on the left.  hnn-free also shifts the right tensor
    factor of an ("m", u, v) letter into a following ("m", ...) letter.  A
    shift ticks once, plus its two words as a pair; a merge is one letter,
    ticks twice, and charges the prefix and that letter, then the result
    and the suffix, as pairs.  Scaled folds the product into its k-adic
    form.  A test double overrides ``pair`` or ``merge``.
    """

    def __init__(self, family):
        self.family = family
        self.used = 0

    @staticmethod
    def pair(b1, n1, b2, n2):
        """One step per pair of 64-bit limbs of the coefficients, plus one per 64 letters of the words."""
        return (1 + b1 // 64) * (1 + b2 // 64) + (n1 + n2) // 64

    def product(self, t1, t2):
        out = {}
        for w1, c1 in t1.items():
            for w2, c2 in t2.items():
                self.used += self.pair(_bits(c1), len(w1), _bits(c2), len(w2))
                w = self.words(w1, w2)
                out[w] = out.get(w, 0) + Fraction(c1) * c2
        return self.fold({w: c for w, c in out.items() if c != 0})

    def words(self, w1, w2):
        """The normal word of the product of two normal words."""
        if not w1 or not w2:
            return w1 + w2
        prefix, l1, l2, suffix = w1[:-1], w1[-1], w2[0], w2[1:]
        merged = self.merged(l1, l2)
        if merged is not None:
            return self.merge(prefix, merged, suffix)
        shifted = self.shifted(l1, l2)
        if shifted is None:
            return w1 + w2
        w1, w2 = prefix + shifted[:1], shifted[1:] + suffix
        self.used += 1 + self.pair(1, len(w1), 1, len(w2))
        return self.words(w1, w2)

    def merge(self, prefix, letter, suffix):
        self.used += 2 + self.pair(1, len(prefix), 1, 1)
        head = self.words(prefix, (letter,))
        self.used += self.pair(1, len(head), 1, len(suffix))
        return self.words(head, suffix)

    def merged(self, l1, l2):
        """The letter that l1|l2 merge into, or None."""
        family = self.family
        m1, m2 = family.letter_bim(l1), family.letter_bim(l2)
        left, _ = reference_factor_p(family, m1)
        if left is not None:
            m = {family.act(u, key, ()): c * c2 for u, c in left.items() for key, c2 in m2.items()}
        else:
            _, right = reference_factor_p(family, m2)
            if right is None:
                return None
            m = {family.act((), key, v): c * c2 for v, c in right.items() for key, c2 in m1.items()}
        ((key, c),) = m.items()  # a letter acted on by a word is one key
        assert c == 1 and key != family.p_key, (l1, l2, m)
        return key

    def shifted(self, l1, l2):
        """The letter pair that hnn-free's shift rewrites l1|l2 into, or None."""
        if self.family.kind == "hnn-free" and l1[0] == l2[0] == "m" and l1[2] != ():
            return ("m", l1[1], ()), ("m", l1[2] + l2[1], l2[2])
        return None

    def fold(self, terms):
        """Canonical scalars; in scaled, g^r stands for k^-r, and the sum is
        written c*g^r with the least r."""
        if self.family.kind == "scaled" and terms:
            k = self.family.k
            value = sum(Fraction(c, k ** len(w)) for w, c in terms.items())
            r = 0
            while (value * k ** r).denominator != 1:
                r += 1
            terms = {(self.family.letter,) * r: value * k ** r} if value else {}
        return {w: int(c) if c.denominator == 1 else c for w, c in terms.items()}


def reference_product(family, t1, t2):
    """(normal form, steps charged) of the product of two normal-form term maps."""
    ref = ProductReference(family)
    return ref.product(t1, t2), ref.used
