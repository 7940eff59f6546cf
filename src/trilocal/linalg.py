"""Exact matrix normal forms over Z, Z[1/k], Q and Q[x].

``diagonal_form`` is the one route into the reduction engine, for every
ring, and the one place that makes the diagonal canonical.  It returns
the transformation matrices U, V together with explicit inverses built
alongside them, and re-verifies them before returning, so a successful
call is its own certificate.  A form holds what the reduction builds: U
and V^-1 by sparse rows, U^-1 and V by sparse columns ({index: nonzero
entry}), and D as its diagonal d.  The certificate multiplies those
directly, over nonzero pairs only: it checks U * M = diag(d) * V^-1,
which with V^-1 * V = I is U * M * V = D, both inverses and the
divisibility chain, every clause exactly.
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
        return _dense(self.ring, _product(self.ring, _nonzero(self), _nonzero(other)), other.ncols)

    def fmt(self):
        return "[" + "; ".join(" ".join(self.ring.fmt(x) for x in r) for r in self.rows) + "]"

    def __repr__(self):
        return f"Matrix({self.ring.name}, {self.fmt()})"


def _nonzero(mat):
    """Each row of mat as a sparse row, the dict {column: nonzero entry}."""
    is_zero = mat.ring.is_zero
    return [{j: x for j, x in enumerate(row) if not is_zero(x)} for row in mat.rows]


def _product(ring, left, right):
    """Sparse rows of left * right, given by their sparse rows: only the
    entries that a pair of nonzero entries reaches are computed, and each
    row keeps only its nonzero sums."""
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    out = []
    for row in left:
        acc = {}
        for k, a in row.items():
            for j, b in right[k].items():
                acc[j] = add(acc[j], mul(a, b)) if j in acc else mul(a, b)
        out.append({j: x for j, x in acc.items() if not is_zero(x)})
    return out


def _transposed(lines, size):
    """Sparse rows from sparse columns or back; size is the other side's length."""
    out = [{} for _ in range(size)]
    for k, line in enumerate(lines):
        for i, x in line.items():
            out[i][k] = x
    return out


def _dense(ring, rows, width):
    """The Matrix of sparse rows, width columns wide."""
    zero = ring.zero()
    return Matrix._of(ring, [[row.get(j, zero) for j in range(width)] for row in rows])


class DiagonalForm:
    """Result of a diagonalization U * M * V = D, with the inverses of U and V.

    Stored as the reduction builds them: U and V^-1 by sparse rows
    (``U_rows``, ``V_inv_rows``), U^-1 and V by sparse columns
    (``U_inv_cols``, ``V_cols``), and ``D``, zero off its diagonal, as the
    list of its diagonal entries.  ``U`` and ``V`` are dense views built on
    access.  ``checks`` holds (j, nonzero (i, V[i][j]), d_j) for each
    column j whose d_j is not a unit; d_j is None where it is zero or
    missing.
    """

    __slots__ = ("ring", "source", "U_rows", "U_inv_cols", "V_cols", "V_inv_rows", "D", "checks")

    def __init__(self, ring, source, U_rows, U_inv_cols, V_cols, V_inv_rows, D):
        self.ring = ring
        self.source = source
        self.U_rows = U_rows
        self.U_inv_cols = U_inv_cols
        self.V_cols = V_cols
        self.V_inv_rows = V_inv_rows
        self.D = D
        self.checks = []
        for j, column in enumerate(V_cols):
            dj = D[j] if j < len(D) else ring.zero()
            if not ring.is_unit(dj):  # a unit divides every coordinate
                self.checks.append((j, list(column.items()), None if ring.is_zero(dj) else dj))

    @property
    def U(self):
        return _dense(self.ring, self.U_rows, len(self.U_rows))

    @property
    def V(self):
        return _dense(self.ring, _transposed(self.V_cols, len(self.V_cols)), len(self.V_cols))

    def diagonal(self):
        return list(self.D)

    def rank(self):
        return sum(1 for d in self.diagonal() if not self.ring.is_zero(d))

    def invariant_factors(self):
        """Non-unit, nonzero diagonal entries, canonical as diagonal_form left them."""
        rg = self.ring
        return [d for d in self.D if not (rg.is_zero(d) or rg.is_unit(d))]

    def free_rank(self):
        """Rank of the cokernel R^cols / rowspan(M)."""
        return self.source.ncols - self.rank()

    def verify(self):
        """Recheck U*M == diag(d)*V^-1, U^-1*U == I, V^-1*V == I and the divisibility chain.

        With V^-1*V = I, U*M*V = diag(d)*V^-1*V = D; and over a commutative
        ring a one-sided inverse of a square matrix is two-sided, so U and
        V are invertible.  An index out of range fails like a wrong shape.
        The products multiply the stored rows (U^-1's and V's columns once
        transposed) and keep only their nonzero sums, so each product row
        must equal the nonzero entries of the wanted row.
        """
        rg, m, n, d = self.ring, self.source.nrows, self.source.ncols, self.D
        U, Ui, V, Vi = self.U_rows, self.U_inv_cols, self.V_cols, self.V_inv_rows
        rows, cols = set(range(m)), set(range(n))
        if [len(U), len(Ui), len(V), len(Vi), len(d)] != [m, m, n, n, min(m, n)] or not all(
            line.keys() <= keys for part, keys in ((U, rows), (Ui, rows), (V, cols), (Vi, cols)) for line in part
        ):
            return False
        mul, is_zero = rg.mul, rg.is_zero
        wanted = [{k: y for k, x in Vi[i].items() if not is_zero(y := mul(di, x))} for i, di in enumerate(d)]
        if _product(rg, U, _nonzero(self.source)) != wanted + [{}] * (m - len(d)):
            return False
        identity = [{i: rg.one()} for i in range(max(m, n))]
        if _product(rg, _transposed(Ui, m), U) != identity[:m] or _product(rg, Vi, _transposed(V, n)) != identity[:n]:
            return False
        # zeros come last, and each entry divides the next
        return all(rg.is_zero(y) if rg.is_zero(x) else rg.exact_div(y, x) is not None for x, y in zip(d, d[1:]))


def _euclidean_engine(mat):
    """The diagonalization loop, over a Euclidean ring that states its division:
    U and V^-1 by sparse rows, U^-1 and V by sparse columns, and D's raw
    diagonal a[i][i], scaled by no unit: diagonal_form makes it canonical
    and builds the one DiagonalForm that it certifies.

    The ring's size(a) is a nonnegative measure with size(a) == 0 iff
    a == 0; its divmod(a, b) returns (q, r) with a == q*b + r and
    size(r) < size(b) or r == 0.  Every row operation applied to U is
    undone on the columns of U^-1, and every column operation applied to
    V on the rows of V^-1.  Every ring here (Z, Q, Q[x]; Z[1/k] goes
    through Z) is commutative, so a factor multiplies from either side.

    The working matrix a is dense.  The transforms are sparse, {index:
    nonzero entry}, each in the orientation its operations act on: U and
    V^-1 by rows, U^-1 and V by columns (Uc[k] is column k of U^-1, Vc[k]
    column k of V), so a transform update is one in-place sum over the
    nonzeros of its source, and the form stores them as they are.  Each
    elimination sweep lists the pivot row's nonzero columns and then the
    pivot column's nonzero rows once, and its operations on a touch only
    those.  The row and column operations below are the only places
    where a and the transforms change.

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
    one = rg.one()
    U, Uc = [{i: one} for i in range(m)], [{i: one} for i in range(m)]
    Vc, Vi = [{i: one} for i in range(n)], [{i: one} for i in range(n)]

    def add_scaled(dst, src, c):  # dst += c * src in place; a zero sum drops its key
        get = dst.get
        for k, y in src.items():
            p = mul(c, y)
            x = get(k)
            if x is None:
                dst[k] = p
            elif is_zero(s := add(x, p)):
                del dst[k]
            else:
                dst[k] = s

    # Rows and columns of a before the pivot position t (of the loop below)
    # hold only their diagonal entries, so no list names them.
    def row_add(i, j, c, cols):  # row_i += c * row_j in a and U; col_j -= col_i * c in U^-1; cols: row_j's nonzeros
        ai, aj = a[i], a[j]
        for k in cols:
            ai[k] = add(ai[k], mul(c, aj[k]))
        add_scaled(U[i], U[j], c)
        add_scaled(Uc[j], Uc[i], rg.neg(c))

    def col_add(j, i, c, rows):  # col_j += col_i * c in a and V; row_i -= c * row_j in V^-1; rows: col_i's nonzeros
        for k in rows:
            row = a[k]
            row[j] = add(row[j], mul(row[i], c))
        add_scaled(Vc[j], Vc[i], c)
        add_scaled(Vi[i], Vi[j], rg.neg(c))

    def row_swap(i, j):
        for rows in (a, U, Uc):
            rows[i], rows[j] = rows[j], rows[i]

    def col_swap(i, j):
        for row in a[t:]:
            row[i], row[j] = row[j], row[i]
        for rows in (Vc, Vi):
            rows[i], rows[j] = rows[j], rows[i]

    def nonzero_columns(i):  # of row i of a, from t on
        row = a[i]
        return [j for j in range(t, n) if not is_zero(row[j])]

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
            pivot, cols, rows = a[t][t], nonzero_columns(t), [t]
            clean = True
            for i in [i for i in range(t + 1, m) if not is_zero(a[i][t])]:
                q, r = divmod_(a[i][t], pivot)
                row_add(i, t, rg.neg(q), cols)
                if not is_zero(r):  # a[i][t] is now r
                    clean = False
                    rows.append(i)
            for j in cols[1:]:
                q, r = divmod_(a[t][j], pivot)
                col_add(j, t, rg.neg(q), rows)
                if not is_zero(r):
                    clean = False
            if clean:
                if is_unit(pivot):
                    break
                # pivot must divide the whole trailing block for the chain
                bad = next(
                    (
                        i
                        for i in range(t + 1, m)
                        for j in range(t + 1, n)
                        if not is_zero(a[i][j]) and not is_zero(divmod_(a[i][j], pivot)[1])
                    ),
                    None,
                )
                if bad is None:
                    break
                row_add(t, bad, one, nonzero_columns(bad))
            best = smallest(t)
        t += 1
    return U, Uc, Vc, Vi, [a[i][i] for i in range(min(m, n))]


def diagonal_form(mat):
    """The certified diagonal form of mat over Z, Z[1/k], Q or Q[x].

    Over Z[1/k], mat times k^e is an integer matrix, reduced over Z, and
    each diagonal entry is divided by k^e; the integer transforms are
    elements of Z[1/k].  Z[1/k] goes through Z rather than through a
    division of its own (size the k-free part of the numerator): on the
    seeded 12x12 matrices of tests/test_linalg.py that route let transform
    entries reach 5,944 bits over Z[1/2] and 30,278 over Z[1/6], against
    888 and 1,187 through Z.  Any other ring must state its own division
    (size and divmod).

    Here alone, over the form's own ring, the diagonal becomes canonical:
    each nonzero d_i = u * r_i, r_i its unit-normal representative, is
    replaced by r_i, row i of U multiplied by u^-1 and column i of U^-1 by
    u.  Every form is verified before it is returned, so a successful call
    is its own certificate.
    """
    rg = mat.ring
    if isinstance(rg, KadicRing):
        scale = rg.k ** max((rg.exponent(x) for row in mat.rows for x in row), default=0)
        cleared = Matrix._of(ZZ, [[(x * scale).numerator for x in row] for row in mat.rows])
        U, Uc, Vc, Vi, d = _euclidean_engine(cleared)
        d = [rg.exact_div(x, scale) for x in d]
    elif hasattr(rg, "divmod"):
        U, Uc, Vc, Vi, d = _euclidean_engine(mat)
    else:
        raise UnsupportedRingError(f"diagonal_form does not support {rg.name}")
    one, mul = rg.one(), rg.mul
    for i, x in enumerate(d):
        if rg.is_zero(x):
            continue
        d[i], u = rg.unit_normal(x)
        if u != one:
            inv = rg.exact_div(one, u)
            U[i] = {k: mul(inv, y) for k, y in U[i].items()}
            Uc[i] = {k: mul(y, u) for k, y in Uc[i].items()}
    out = DiagonalForm(rg, mat, U, Uc, Vc, Vi, d)
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
