"""Exact matrix normal forms over Z, Z[1/k], Q and Q[x].

``diagonal_form`` returns the transformation matrices U, V together
with explicit inverses built alongside them, and re-verifies
U * M * V = D, U * U^-1 = I and V^-1 * V = I before returning, so a
successful call is its own certificate.  The reduction keeps the four
transforms as sparse rows ({column: nonzero entry}), and products,
the certificate's included, visit only nonzero (column, entry) pairs;
the certificate still checks every clause exactly.
"""

from __future__ import annotations

from .errors import CertificateError, UnsupportedRingError
from .rings import KadicRing, ZZ


class Matrix:
    """Immutable rectangular matrix over one of the exact rings."""

    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring, rows):
        rows = [list(r) for r in rows]
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix rows")
        self.rows = rows

    @staticmethod
    def _of(ring, rows):
        """The matrix of rows, lists of one length that the caller has just
        built and hands over: no copy and no ragged check."""
        m = object.__new__(Matrix)
        m.ring, m.rows, m.nrows, m.ncols = ring, rows, len(rows), len(rows[0]) if rows else 0
        return m

    @classmethod
    def identity(cls, ring, n):
        zero, one = ring.zero(), ring.one()
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def copy_rows(self):
        return [r[:] for r in self.rows]

    def __eq__(self, other):
        # the shape is read off the rows, so equal rows mean equal shapes
        return self.rows == other.rows if isinstance(other, Matrix) else NotImplemented

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} + {other.nrows}x{other.ncols}")
        add = self.ring.add
        return Matrix._of(self.ring, [[add(x, y) for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        zero, width = self.ring.zero(), range(other.ncols)
        product = _product(self.ring, _nonzero(self), _nonzero(other))
        return Matrix._of(self.ring, [[row.get(j, zero) for j in width] for row in product])

    def fmt(self):
        return "[" + "; ".join(" ".join(self.ring.fmt(x) for x in r) for r in self.rows) + "]"

    def __repr__(self):
        return f"Matrix({self.ring.name}, {self.fmt()})"


def _nonzero(mat):
    """Each row of mat as its list of nonzero (column, entry) pairs."""
    is_zero = mat.ring.is_zero
    return [[(j, x) for j, x in enumerate(row) if not is_zero(x)] for row in mat.rows]


def _product(ring, left, right):
    """Rows of left * right, each a dict of its nonzero entries; left and
    right give each row as nonzero (column, entry) pairs, so only the
    entries that a pair reaches are computed."""
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    out = []
    for row in left:
        acc = {}
        for k, a in row:
            for j, b in right[k]:
                acc[j] = add(acc[j], mul(a, b)) if j in acc else mul(a, b)
        out.append({j: x for j, x in acc.items() if not is_zero(x)})
    return out


class DiagonalForm:
    """Result of a diagonalization U * M * V = D, with the inverses of U and V.

    ``checks`` holds (j, nonzero (i, V[i][j]), d_j) for each column j whose
    d_j is not a unit; d_j is None where it is zero or missing.
    """

    __slots__ = ("ring", "source", "U", "D", "V", "U_inv", "V_inv", "checks")

    def __init__(self, ring, source, U, D, V, U_inv, V_inv):
        self.ring = ring
        self.source = source
        self.U = U
        self.D = D
        self.V = V
        self.U_inv = U_inv
        self.V_inv = V_inv
        self.checks = []
        for j in range(V.ncols):
            d = D.rows[j][j] if j < D.nrows else ring.zero()
            if not ring.is_unit(d):  # a unit divides every coordinate
                column = [(i, row[j]) for i, row in enumerate(V.rows) if not ring.is_zero(row[j])]
                self.checks.append((j, column, None if ring.is_zero(d) else d))

    def diagonal(self):
        n = min(self.D.nrows, self.D.ncols)
        return [self.D.rows[i][i] for i in range(n)]

    def rank(self):
        return sum(1 for d in self.diagonal() if not self.ring.is_zero(d))

    def invariant_factors(self):
        """Non-unit, nonzero diagonal entries in canonical form."""
        rg = self.ring
        return [rg.unit_normal(d)[0] for d in self.diagonal() if not (rg.is_zero(d) or rg.is_unit(d))]

    def free_rank(self):
        """Rank of the cokernel R^cols / rowspan(M)."""
        return self.D.ncols - self.rank()

    def verify(self):
        """Recheck U*M*V == D, U*U^-1 == I, V^-1*V == I and the divisibility chain.

        Over a commutative ring a one-sided inverse of a square matrix is
        two-sided, so the two identities prove U and V invertible.  Each
        matrix is read once as its nonzero pairs, and each product is
        compared with D or the identity without forming a dense matrix.
        """
        rg, m, n = self.ring, self.source.nrows, self.source.ncols
        shapes = [(x.nrows, x.ncols) for x in (self.U, self.D, self.V, self.U_inv, self.V_inv)]
        if shapes != [(m, m), (m, n), (n, n), (m, m), (n, n)]:
            return False
        M, U, D, V, Ui, Vi = map(_nonzero, (self.source, self.U, self.D, self.V, self.U_inv, self.V_inv))
        # each product row holds exactly its nonzero entries, so it equals
        # the wanted row's nonzero entries; a wanted entry it lacks fails
        if _product(rg, [row.items() for row in _product(rg, U, M)], V) != [dict(row) for row in D]:
            return False
        identity = [{i: rg.one()} for i in range(max(m, n))]
        if _product(rg, U, Ui) != identity[:m] or _product(rg, Vi, V) != identity[:n]:
            return False
        diag = self.diagonal()
        for x, y in zip(diag, diag[1:]):  # zeros come last, and each entry divides the next
            if not (rg.is_zero(y) if rg.is_zero(x) else rg.exact_div(y, x) is not None):
                return False
        # off-diagonal entries must vanish
        return all(i == j for i, row in enumerate(D) for j, _ in row)


def _euclidean_engine(mat):
    """The diagonalization loop, over a Euclidean ring that states its division:
    the rows of U, D, V, U^-1 and V^-1, of which the caller builds the one
    DiagonalForm that it certifies.

    The ring's size(a) is a nonnegative measure with size(a) == 0 iff
    a == 0; its divmod(a, b) returns (q, r) with a == q*b + r and
    size(r) < size(b) or r == 0.  Every row operation applied to U is
    undone on the columns of U^-1, and every column operation applied to
    V on the rows of V^-1.

    The working matrix a is dense.  The transforms are sparse rows,
    {column: nonzero entry}, each in the orientation its operations act
    on: U and V^-1 by rows, U^-1 and V as the rows of their transposes
    (Uc[k] is column k of U^-1, Vc[k] column k of V).  A transform
    update is then one in-place sum over the nonzeros of its source row,
    and the transforms become dense matrices once, at the end.  The row
    and column operations below are the only places where a and the
    transforms change.

    Pivot rule: the pivot is the first nonzero entry of least size in
    the trailing block, in row-major order.  In Z, Q and Q[x] the units
    are exactly the nonzero elements of least size, so the search stops
    at the first unit it meets, and a unit pivot, which divides every
    entry, needs no check that it divides the trailing block.
    """
    rg = mat.ring
    add, mul, is_zero, is_unit, size, divmod_ = rg.add, rg.mul, rg.is_zero, rg.is_unit, rg.size, rg.divmod
    a = mat.copy_rows()
    m, n = mat.nrows, mat.ncols
    one, zero = rg.one(), rg.zero()
    U, Uc = [{i: one} for i in range(m)], [{i: one} for i in range(m)]
    Vc, Vi = [{i: one} for i in range(n)], [{i: one} for i in range(n)]

    def add_scaled(dst, src, c, left):  # dst += c * src (src * c unless left) in place; a zero sum drops its key
        get = dst.get
        for k, y in src.items():
            p = mul(c, y) if left else mul(y, c)
            x = get(k)
            if x is None:
                dst[k] = p
            elif is_zero(s := add(x, p)):
                del dst[k]
            else:
                dst[k] = s

    # Rows and columns of a before the pivot position t (of the loop below)
    # hold only their diagonal entries, so the operations on a skip them.
    def row_add(i, j, c):  # row_i += c * row_j in a and U; col_j -= col_i * c in U^-1
        a[i][t:] = [x if is_zero(y) else add(x, mul(c, y)) for x, y in zip(a[i][t:], a[j][t:])]
        add_scaled(U[i], U[j], c, True)
        add_scaled(Uc[j], Uc[i], rg.neg(c), False)

    def col_add(j, i, c):  # col_j += col_i * c in a and V; row_i -= c * row_j in V^-1
        for row in a[t:]:
            if not is_zero(row[i]):
                row[j] = add(row[j], mul(row[i], c))
        add_scaled(Vc[j], Vc[i], c, False)
        add_scaled(Vi[i], Vi[j], rg.neg(c), True)

    def row_swap(i, j):
        for rows in (a, U, Uc):
            rows[i], rows[j] = rows[j], rows[i]

    def col_swap(i, j):
        for row in a[t:]:
            row[i], row[j] = row[j], row[i]
        for rows in (Vc, Vi):
            rows[i], rows[j] = rows[j], rows[i]

    def row_scale(i, u, u_inv):  # row_i *= u in a and U; col_i *= u_inv in U^-1
        a[i] = [mul(u, x) for x in a[i]]
        U[i] = {k: mul(u, x) for k, x in U[i].items()}
        Uc[i] = {k: mul(x, u_inv) for k, x in Uc[i].items()}

    def smallest(t):  # the pivot of the trailing block, or None when it is zero
        best, least = None, None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if not is_zero(x):
                    if is_unit(x):
                        return i, j
                    s = size(x)
                    if best is None or s < least:
                        best, least = (i, j), s
        return best

    t = 0
    while t < min(m, n):
        best = smallest(t)
        if best is None:
            break
        while True:
            bi, bj = best
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            clean = True
            for i in range(t + 1, m):
                if is_zero(a[i][t]):
                    continue
                q, r = divmod_(a[i][t], a[t][t])
                row_add(i, t, rg.neg(q))
                if not is_zero(r):
                    clean = False
            for j in range(t + 1, n):
                if is_zero(a[t][j]):
                    continue
                q, r = divmod_(a[t][j], a[t][t])
                col_add(j, t, rg.neg(q))
                if not is_zero(r):
                    clean = False
            if clean:
                if is_unit(a[t][t]):
                    break
                # pivot must divide the whole trailing block for the chain
                bad = next(
                    (
                        i
                        for i in range(t + 1, m)
                        for j in range(t + 1, n)
                        if not is_zero(a[i][j]) and not is_zero(divmod_(a[i][j], a[t][t])[1])
                    ),
                    None,
                )
                if bad is None:
                    break
                row_add(t, bad, one)
            best = smallest(t)
        t += 1

    # canonicalize diagonal entries by unit scaling
    for i in range(min(m, n)):
        if is_zero(a[i][i]):
            continue
        rep, u = rg.unit_normal(a[i][i])
        if u != one:
            row_scale(i, rg.exact_div(one, u), u)

    def dense(rows, transposed):  # a transform's square sparse rows as dense rows
        out = [[zero] * len(rows) for _ in rows]
        for i, row in enumerate(rows):
            for k, x in row.items():
                out[k if transposed else i][i if transposed else k] = x
        return out

    return dense(U, False), a, dense(Vc, True), dense(Uc, True), dense(Vi, False)


def _kadic_reduce(mat):
    """Diagonalize over Z[1/k]: clear denominators, reduce over Z, strip units.

    Z[1/k] goes through Z rather than through a division of its own
    (size the k-free part of the numerator): on the seeded 12x12 matrices
    of tests/test_linalg.py that route let transform entries reach 5,944
    bits over Z[1/2] and 30,278 over Z[1/6], against 888 and 1,187 through
    Z.  The integer form is not certified on its own; the Z[1/k] form
    returned is, and its identities imply the integer ones.
    """
    rg = mat.ring
    e = max((rg.exponent(x) for row in mat.rows for x in row), default=0)
    scale = rg.k ** e
    cleared = Matrix._of(ZZ, [[(x * scale).numerator for x in row] for row in mat.rows])
    U_rows, D_int, V_rows, Ui_rows, Vi_rows = _euclidean_engine(cleared)
    # U * (k^e * mat) * V = D_int, so U * mat * V = D_int / k^e; rescale each
    # row of U (and the matching column of U^-1) so the diagonal becomes the
    # canonical k-free representative.  The integer entries of U, V and
    # their inverses are already elements of Z[1/k].
    D_rows = [[0] * mat.ncols for _ in range(mat.nrows)]
    for i in range(min(mat.nrows, mat.ncols)):
        d_int = D_int[i][i]
        if d_int == 0:
            continue
        rep, u = rg.unit_normal(rg.exact_div(d_int, scale))
        inv = rg.exact_div(1, u)
        U_rows[i] = [x and rg.mul(inv, x) for x in U_rows[i]]  # the integer zeros stay as they are
        for row in Ui_rows:
            row[i] = row[i] and rg.mul(row[i], u)
        D_rows[i][i] = rep
    return DiagonalForm(rg, mat, *(Matrix._of(rg, rows) for rows in (U_rows, D_rows, V_rows, Ui_rows, Vi_rows)))


def diagonal_form(mat):
    """The certified diagonal form of mat over Z, Z[1/k], Q or Q[x].

    Z[1/k] is reduced through Z; any other ring must state its own
    division (size and divmod).  Every form is verified here before it
    is returned, so a successful call is its own certificate.
    """
    rg = mat.ring
    if isinstance(rg, KadicRing):
        out = _kadic_reduce(mat)
    elif hasattr(rg, "divmod"):
        out = DiagonalForm(rg, mat, *(Matrix._of(rg, rows) for rows in _euclidean_engine(mat)))
    else:
        raise UnsupportedRingError(f"diagonal_form does not support {rg.name}")
    if not out.verify():
        raise CertificateError(f"diagonal form over {rg.name} failed self-verification")
    return out


def in_row_span(form, v):
    """Whether v lies in the row span of M: whether each coordinate j of
    v * V is divisible by d_j.  Only the columns in ``form.checks``, whose
    d_j is not a unit, are computed, and x is not solved for.
    """
    rg = form.ring
    add, mul, is_zero = rg.add, rg.mul, rg.is_zero
    if len(v) != form.source.ncols:
        raise ValueError("vector length does not match matrix columns")
    for _, column, d in form.checks:
        w = rg.zero()
        for i, e in column:
            if not is_zero(v[i]):
                w = add(w, mul(v[i], e))
        if not is_zero(w) and (d is None or rg.exact_div(w, d) is None):
            return False
    return True
