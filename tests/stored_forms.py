"""The five dense matrices of a DiagonalForm, and forms stored from dense ones.

A DiagonalForm holds what the reduction builds: U and V^-1 by sparse
rows, U^-1 and V by sparse columns, each {index: nonzero entry}, and D
as its list of diagonal entries; only U and V have dense views of their
own.  ``dense_parts`` reads all five back as dense matrices, for the
golden file and the dense references of the tests.  ``stored_form``
stores five dense matrices, possibly corrupted, the way the reduction
does, so a certificate control can break a dense entry and ask
``verify`` about the form that results.
"""

from trilocal.linalg import DiagonalForm, Matrix

PARTS = ("U", "D", "V", "U_inv", "V_inv")  # stored_form's argument order after ring and source


def dense_parts(form):
    """{name: Matrix} for the names of PARTS, built from what form stores."""
    ring, m, n = form.ring, form.source.nrows, form.source.ncols
    zero = ring.zero()
    D = [[zero] * n for _ in range(m)]
    for i, x in enumerate(form.diagonal()):
        D[i][i] = x
    U_inv = [[column.get(i, zero) for column in form.U_inv_cols] for i in range(m)]
    V_inv = [[row.get(j, zero) for j in range(n)] for row in form.V_inv_rows]
    return {"U": form.U, "D": Matrix(ring, D), "V": form.V, "U_inv": Matrix(ring, U_inv), "V_inv": Matrix(ring, V_inv)}


def stored_form(ring, source, U, D, V, U_inv, V_inv):
    """The DiagonalForm that stores these dense matrices as the reduction
    stores its own: the nonzero entries of U and V^-1 by rows and of U^-1
    and V by columns, and the diagonal of D.  An entry of D off its
    diagonal has no place in the form and is dropped."""
    is_zero = ring.is_zero

    def rows(mat):
        return [{j: x for j, x in enumerate(row) if not is_zero(x)} for row in mat.rows]

    def columns(mat):
        return [{i: row[j] for i, row in enumerate(mat.rows) if not is_zero(row[j])} for j in range(mat.ncols)]

    d = [D.rows[i][i] for i in range(min(D.nrows, D.ncols))]
    return DiagonalForm(ring, source, rows(U), columns(U_inv), columns(V), rows(V_inv), d)
