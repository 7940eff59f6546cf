"""Smith and Euclidean matrix normal forms against naive references."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reference_impls import (
    determinant_divisor_diagonal,
    kadic_invariants,
    poly_invariants,
    reference_det,
    reference_snf_diagonal,
    unimodular_witness_2x2,
)
from stored_forms import PARTS, dense_parts, stored_form
from trilocal import linalg
from trilocal.errors import CertificateError, UnsupportedRingError
from trilocal.families import HnnFreeFamily
from trilocal.linalg import (
    DiagonalForm,
    Matrix,
    diagonal_form,
    in_row_span,
)
from trilocal.rings import KadicRing, Polynomial, PolynomialRing, QQ, ZZ
from trilocal.tring import TOps


def equality_cases():
    """(ring, entries of a 2x2 matrix) over Z, Q[x] and T(M,p)."""
    qx = PolynomialRing("Q")
    t = TOps(HnnFreeFamily("Q", ("s",), "x"))
    x = t.gen({("a", (0,)): 1})
    return [
        (ZZ, [[1, 2], [3, 4]]),
        (qx, [[qx.one(), Polynomial("Q", [0, 1])], [qx.zero(), qx.from_int(3)]]),
        (t, [[t.one(), x], [t.zero(), t.mul(x, x)]]),
    ]


@pytest.mark.parametrize("ring,entries", equality_cases(), ids=["Z", "Q[x]", "T"])
class TestMatrixEquality:
    """Matrix == is the certificate comparison of DiagonalForm.verify and of
    the matrix localization; these are its negative controls."""

    def test_equal_entries_compare_equal(self, ring, entries):
        assert Matrix(ring, entries) == Matrix(ring, [row[:] for row in entries])

    def test_one_differing_entry_compares_unequal(self, ring, entries):
        for i in range(2):
            for j in range(2):
                changed = [row[:] for row in entries]
                changed[i][j] = ring.add(changed[i][j], ring.one())
                assert Matrix(ring, entries) != Matrix(ring, changed), (i, j)
                assert Matrix(ring, changed) != Matrix(ring, entries), (i, j)

    def test_different_shapes_compare_unequal(self, ring, entries):
        square = Matrix(ring, entries)
        wider = Matrix(ring, [row + [ring.zero()] for row in entries])
        taller = Matrix(ring, entries + [[ring.zero(), ring.zero()]])
        for a, b in ((square, wider), (square, taller), (square, Matrix(ring, entries[:1])), (square, Matrix(ring, []))):
            assert a != b and b != a


def random_int_matrix(rng, max_dim=6, bound=100):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return Matrix(ZZ, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


class TestSmith:
    def test_diag_2_3(self):
        # oracle: brute-force unimodular search certifies diag(1, 6)
        target = [[1, 0], [0, 6]]
        witness = unimodular_witness_2x2([[2, 0], [0, 3]], target)
        assert witness is not None
        snf = diagonal_form(Matrix(ZZ, [[2, 0], [0, 3]]))
        assert snf.diagonal() == [1, 6]
        assert snf.verify()

    def test_zero_1x1(self):
        snf = diagonal_form(Matrix(ZZ, [[0]]))
        assert snf.diagonal() == [0]
        assert snf.U.rows == [[1]] and snf.V.rows == [[1]]

    def test_column_d_minus_one(self):
        for d in (0, 1, 2, 5, -7, 12):
            snf = diagonal_form(Matrix(ZZ, [[d], [-1]]))
            assert snf.diagonal() == [1]
            assert snf.verify()

    def test_reference_cross_check_small(self):
        rng = random.Random(101)
        for _ in range(400):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            ours = diagonal_form(Matrix(ZZ, rows)).diagonal()
            assert ours == reference_snf_diagonal(rows)
            assert ours == determinant_divisor_diagonal(rows)

    def test_transform_properties_random(self):
        rng = random.Random(33)
        for _ in range(200):
            mat = random_int_matrix(rng, max_dim=5, bound=30)
            snf = diagonal_form(mat)
            assert snf.U * mat * snf.V == dense_parts(snf)["D"]
            assert abs(reference_det(snf.U.rows)) == 1
            assert abs(reference_det(snf.V.rows)) == 1
            diag = snf.diagonal()
            for i in range(len(diag) - 1):
                assert diag[i + 1] % diag[i] == 0 if diag[i] else diag[i + 1] == 0
                assert diag[i] >= 0


class TestEuclidean:
    def test_kadic_units_stripped(self):
        ring = KadicRing(2)
        mat = Matrix(ring, [[ring.from_int(2), ring.zero()], [ring.zero(), ring.from_int(3)]])
        form = diagonal_form(mat)
        # 2 is a unit in Z[1/2], so the factors are 1 and 3 up to units
        assert [(type(d), d) for d in form.diagonal()] == [(int, 1), (int, 3)]
        assert form.verify()

    def test_kadic_random(self):
        ring = KadicRing(6)
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            mat = Matrix(ring, [[ring.random(rng) for _ in range(n)] for _ in range(m)])
            form = diagonal_form(mat)
            assert form.verify()
            for d in form.diagonal():
                if d != 0:
                    # canonical representative: a positive integer coprime to 6
                    assert type(d) is int and d > 0 and strip(d) == d

    def test_poly_single_variable(self):
        ring = PolynomialRing("Q")
        x = Polynomial("Q", [0, 1])
        form = diagonal_form(Matrix(ring, [[x]]))
        assert form.diagonal() == [x]
        form = diagonal_form(Matrix(ring, [[x, ring.zero()], [ring.zero(), x * x]]))
        assert form.diagonal() == [x, x * x]
        assert form.verify()

    def test_poly_random(self):
        ring = PolynomialRing("Q")
        rng = random.Random(19)
        for _ in range(60):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            mat = Matrix(ring, [[ring.random(rng, degree=2) for _ in range(n)] for _ in range(m)])
            form = diagonal_form(mat)
            assert form.verify()
            for d in form.diagonal():
                if not d.is_zero():
                    assert d.coeffs[-1] == 1  # monic canonical form

    def test_rational_field(self):
        mat = Matrix(QQ, [[Fraction(1, 2), 3], [1, 6]])
        form = diagonal_form(mat)
        assert form.verify()
        assert form.rank() == 1  # second row is twice the first
        full = diagonal_form(Matrix(QQ, [[Fraction(1, 2), 3], [1, 7]]))
        assert full.verify() and full.rank() == 2

    def test_unsupported(self):
        with pytest.raises(UnsupportedRingError):
            diagonal_form(Matrix(PolynomialRing("Z"), [[Polynomial("Z", [1])]]))

    def test_rings_without_division(self):
        family = HnnFreeFamily("Q", ("s",), "x")
        for ring in (family.oracle, TOps(family)):
            for entry in (ring.zero(), ring.one()):
                with pytest.raises(UnsupportedRingError, match="does not support"):
                    diagonal_form(Matrix(ring, [[entry]]))


def small_matrices(ring, rng, count, draw):
    """count matrices of at most 4 x 4 entries from draw(rng); about one in
    three with fewer than 4 rows gets a copy of its first row, so ranks
    fall short too."""
    for _ in range(count):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[draw(rng) for _ in range(n)] for _ in range(m)]
        yield Matrix(ring, rows + [rows[0]] if m < 4 and rng.random() < 0.3 else rows)


class TestIndependentCrossCheck:
    """Invariant factors and free rank over Z[1/k] and Q[x] against the
    determinantal-divisor references of tests/reference_impls.py."""

    @pytest.mark.parametrize("k", [2, 6])
    def test_kadic_matches_determinantal_divisors(self, k):
        ring = KadicRing(k)
        for mat in small_matrices(ring, random.Random(40 + k), 40, lambda rng: ring.random(rng, 12)):
            form = diagonal_form(mat)
            factors, rank = kadic_invariants([[Fraction(x) for x in row] for row in mat.rows], k)
            assert [(type(d), d) for d in form.invariant_factors()] == [(int, f) for f in factors]
            assert form.free_rank() == mat.ncols - rank

    def test_polynomial_matches_determinantal_divisors(self):
        ring = PolynomialRing("Q")
        for mat in small_matrices(ring, random.Random(44), 25, lambda rng: ring.random(rng, 3, degree=2)):
            form = diagonal_form(mat)
            factors, rank = poly_invariants([[[Fraction(c) for c in x.coeffs] for x in row] for row in mat.rows])
            assert [[Fraction(c) for c in d.coeffs] for d in form.invariant_factors()] == factors
            assert form.free_rank() == mat.ncols - rank


def transform_bits(form, k):
    """Largest |num| bits plus exponent times k's bits over U, V, U^-1, V^-1,
    where an entry is num / k**exponent with the least exponent."""
    def bits(x):
        r = form.ring.exponent(x)
        return abs((x * k ** r).numerator).bit_length() + r * k.bit_length()

    parts = dense_parts(form)
    return max(
        bits(x)
        for matrix in (parts["U"], parts["V"], parts["U_inv"], parts["V_inv"])
        for row in matrix.rows
        for x in row
    )


@pytest.mark.parametrize("k", [2, 6])
def test_kadic_transforms_stay_small(k):
    # Z[1/k] reduces through Z: 888 and 1,187 bits here.  A Euclidean
    # engine over Z[1/k] itself reached 5,944 and 30,278.
    ring = KadicRing(k)
    rng = random.Random(1)
    mat = Matrix(ring, [[ring.random(rng, 100) for _ in range(12)] for _ in range(12)])
    assert transform_bits(diagonal_form(mat), k) <= 3000


def test_seeded_polynomial_growth_as_pinned():
    """ROADMAP item 4's seeded Q[x] 6x6 matrix, random.Random(1) with the
    entries PolynomialRing("Q").random(rng) drawn row by row.  Its D, and
    the largest numerator-plus-denominator bit length of a coefficient of
    U or V, read as they did when coefficients were stored as Fractions.
    The transforms reach degree 23, far past the 5-bit entries of the
    benchmark's module-localization workload."""
    ring = PolynomialRing("Q")
    rng = random.Random(1)
    form = diagonal_form(Matrix(ring, [[ring.random(rng) for _ in range(6)] for _ in range(6)]))
    assert dense_parts(form)["D"].fmt() == (
        "[1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; 0 0 0 1 0 0; 0 0 0 0 1 0; 0 0 0 0 0 "
        "-139/28+4787/28x+33717/112x^2-12493/112x^3+285/4x^4-1329/56x^5"
        "-43395/224x^6+3781/224x^7-2421/32x^8+75/112x^9+753/56x^10+x^11]"
    )
    coefficients = (Fraction(c) for m in (form.U, form.V) for row in m.rows for x in row for c in x.coeffs)
    assert max(abs(c.numerator).bit_length() + c.denominator.bit_length() for c in coefficients) == 1928


def strip(n):
    from trilocal.rings import strip_factors_of

    return strip_factors_of(n, 6)


def solve_left(form, v):
    """x with x * M = v, read off the rows of a diagonal form of M, or None
    when v is not in the row span of M.  Since U * M * V = D with U and V
    invertible, x * M = v exactly when x = z * U with z * D = v * V.
    """
    rg = form.ring
    add, mul, is_zero = rg.add, rg.mul, rg.is_zero
    r, n = form.source.nrows, form.source.ncols
    assert len(v) == n, "vector length does not match matrix columns"
    w = [rg.zero()] * n
    for c, row in zip(v, form.V.rows):
        if is_zero(c):
            continue
        for j, e in enumerate(row):
            if not is_zero(e):
                w[j] = add(w[j], mul(c, e))
    z = [rg.zero()] * r
    diag = form.diagonal()
    for i in range(n):
        if is_zero(w[i]):
            continue
        d = diag[i] if i < len(diag) else rg.zero()
        q = rg.exact_div(w[i], d)  # None when d is zero or does not divide
        if q is None:
            return None
        z[i] = q
    x = [rg.zero()] * r
    for c, row in zip(z, form.U.rows):
        if not is_zero(c):
            x = [add(a, mul(c, e)) for a, e in zip(x, row)]
    return x


class TestSolver:
    def test_row_span_membership(self):
        form = diagonal_form(Matrix(ZZ, [[2, 0], [0, 3]]))
        assert in_row_span(form, [4, 3])
        assert not in_row_span(form, [1, 0])

    def test_solution_reproduces_vector(self):
        rng = random.Random(77)
        for _ in range(200):
            mat = random_int_matrix(rng, max_dim=4, bound=9)
            form = diagonal_form(mat)
            coeffs = [rng.randint(-4, 4) for _ in range(mat.nrows)]
            v = [sum(c * mat.rows[i][j] for i, c in enumerate(coeffs)) for j in range(mat.ncols)]
            x = solve_left(form, v)
            assert x is not None
            recombined = [
                sum(x[i] * mat.rows[i][j] for i in range(mat.nrows)) for j in range(mat.ncols)
            ]
            assert recombined == v


def certificate_cases():
    """A matrix to reduce and a non-unit of its ring, per ring family; 0 over Q."""
    k2 = KadicRing(2)
    qx = PolynomialRing("Q")
    x, c = Polynomial("Q", [0, 1]), qx.from_int
    ints = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    return [
        pytest.param(Matrix(ZZ, ints), 2, id="Z"),
        pytest.param(Matrix(k2, [[k2.from_int(x) for x in r] for r in ints]), k2.from_int(3), id="Z[1/2]"),
        pytest.param(Matrix(QQ, [[Fraction(1, 2), 3, 1], [1, 6, 2], [0, 1, Fraction(-2, 3)]]), 0, id="Q"),
        pytest.param(Matrix(qx, [[x, c(1), c(2)], [x + c(1), x * x, c(3)], [c(1), c(2), x]]), x, id="Q[x]"),
    ]


@pytest.mark.parametrize("mat, non_unit", certificate_cases())
class TestCertificateNegativeControls:
    def test_perturbed_inverse_entry_fails(self, mat, non_unit):
        form = diagonal_form(mat)
        ring = mat.ring
        assert form.verify()
        parts = dense_parts(form)
        for attr in ("U_inv", "V_inv"):
            for i, j in ((0, 0), (1, 2), (2, 1)):
                rows = parts[attr].copy_rows()
                rows[i][j] = ring.add(rows[i][j], ring.one())
                broken = stored_form(ring, mat, **{**parts, attr: Matrix(ring, rows)})
                assert not broken.verify(), (attr, i, j)

    def test_non_invertible_transform_fails(self, mat, non_unit):
        # on M = I, U = s*I (or V = s*I) with D = s*I and claimed inverse I
        # satisfies every identity but U * U^-1 = I (or V^-1 * V = I)
        ring = mat.ring
        assert not ring.is_unit(non_unit)
        one = Matrix.identity(ring, 2)
        scaled = Matrix(ring, [[non_unit, ring.zero()], [ring.zero(), non_unit]])
        assert stored_form(ring, one, one, one, one, one, one).verify()
        assert not stored_form(ring, one, scaled, scaled, one, one, one).verify()
        assert not stored_form(ring, one, one, scaled, scaled, one, one).verify()


def chain_cases():
    """Per ring, a scrambled 4 x 4 matrix whose diagonal form is
    diag(1, a, a*a, 0) for a non-unit a."""
    k2, qx = KadicRing(2), PolynomialRing("Q")

    def scrambled(ring, a):
        zero, one = ring.zero(), ring.one()
        diag = Matrix(ring, [[one, zero, zero, zero], [zero, a, zero, zero], [zero, zero, ring.mul(a, a), zero], [zero] * 4])
        left = Matrix(ring, [[ring.from_int(x) for x in r] for r in [[1, 0, 0, 0], [2, 1, 0, 0], [-1, 3, 1, 0], [1, 1, -2, 1]]])
        right = Matrix(ring, [[ring.from_int(x) for x in r] for r in [[1, -1, 2, 0], [0, 1, 1, 3], [0, 0, 1, -1], [0, 0, 0, 1]]])
        return left * diag * right

    return [
        pytest.param(scrambled(ZZ, 3), id="Z"),
        pytest.param(scrambled(k2, k2.from_int(3)), id="Z[1/2]"),
        pytest.param(scrambled(qx, Polynomial("Q", [0, 1])), id="Q[x]"),
    ]


def clause_failures(ring, dense):
    """The clauses of DiagonalForm.verify that fail on a form given by its
    dense matrices (FORM_MATRICES), each checked on its own; a product
    whose shapes do not match fails."""
    M, U, D, V, Ui, Vi = (dense[name] for name in FORM_MATRICES)
    m, n = M.nrows, M.ncols
    diag = [D.rows[i][i] for i in range(min(D.nrows, D.ncols))]
    pairs = list(zip(diag, diag[1:]))
    clauses = {
        "shape": lambda: (U.nrows, U.ncols, V.nrows, V.ncols) == (m, m, n, n),
        "U*M*V = D": lambda: U * M * V == D,
        "U*U^-1 = I": lambda: U * Ui == Matrix.identity(ring, m),
        "V^-1*V = I": lambda: Vi * V == Matrix.identity(ring, n),
        "zeros last": lambda: all(ring.is_zero(b) for a, b in pairs if ring.is_zero(a)),
        "each divides the next": lambda: all(ring.exact_div(b, a) is not None for a, b in pairs if not ring.is_zero(a)),
        "off-diagonal zero": lambda: all(ring.is_zero(x) for i, row in enumerate(D.rows) for j, x in enumerate(row) if i != j),
    }

    def holds(check):
        try:
            return check()
        except ValueError:  # shape mismatch
            return False

    return {name for name, check in clauses.items() if not holds(check)}


FORM_MATRICES = ("source",) + PARTS  # stored_form's parameters after ring


def dense(form):
    """{name: dense matrix} of form, for FORM_MATRICES."""
    return {"source": form.source, **dense_parts(form)}


def corrupted(form, clause):
    """The dense matrices of a correct 4 x 4 form, broken so that clause
    fails; only the shape corruption also makes U * M impossible to form."""
    ring, zero = form.ring, form.ring.zero()
    parts = dense(form)
    M, U, D, V, Ui, Vi = (parts[name] for name in FORM_MATRICES)

    def bumped(matrix):  # entry (0, 0) plus one
        rows = matrix.copy_rows()
        rows[0][0] = ring.add(rows[0][0], ring.one())
        return Matrix(ring, rows)

    def swapped(i, j):  # conjugated by the transposition of positions i and j
        perm = list(range(4))
        perm[i], perm[j] = j, i
        P = Matrix(ring, [[ring.one() if perm[r] == c else zero for c in range(4)] for r in range(4)])
        return {**parts, "U": P * U, "D": P * D * P, "V": V * P, "U_inv": Ui * P, "V_inv": P * Vi}

    if clause == "shape":
        # U gains a column and U^-1 a zero row: U * U^-1 is still I.  Stored,
        # the column is one entry past the end of U's first row.
        U_wide = Matrix(ring, [r + [ring.one() if i == 0 else zero] for i, r in enumerate(U.rows)])
        return {**parts, "U": U_wide, "U_inv": Matrix(ring, Ui.rows + [[zero] * 4])}
    if clause == "U*M*V = D":
        return {**parts, "source": bumped(M)}
    if clause == "U*U^-1 = I":
        return {**parts, "U_inv": bumped(Ui)}
    if clause == "V^-1*V = I":
        return {**parts, "V_inv": bumped(Vi)}
    if clause == "zeros last":  # diagonal (1, a, 0, a*a)
        return swapped(2, 3)
    if clause == "each divides the next":  # diagonal (1, a*a, a, 0)
        return swapped(1, 2)
    # an off-diagonal entry in D, with the source it then certifies; the
    # stored form keeps D's diagonal only, so U * M = diag(d) * V^-1 fails
    rows = D.copy_rows()
    rows[0][1] = ring.one()
    D2 = Matrix(ring, rows)
    return {**parts, "source": Ui * D2 * Vi, "D": D2}


VERIFY_CLAUSES = ["shape", "U*M*V = D", "U*U^-1 = I", "V^-1*V = I", "zeros last", "each divides the next", "off-diagonal zero"]


@pytest.mark.parametrize("mat", chain_cases())
@pytest.mark.parametrize("clause", VERIFY_CLAUSES)
def test_verify_rejects_each_broken_clause(mat, clause):
    # verify answers False, not an exception, on the form that stores the
    # broken matrices, and only the clause broken decides it: with that
    # clause removed, verify would pass the form (or, for the shape, fail
    # to form U * M)
    form = diagonal_form(mat)
    assert form.rank() == 3 and clause_failures(mat.ring, dense(form)) == set()
    bad = corrupted(form, clause)
    assert clause_failures(mat.ring, bad) == ({"shape", "U*M*V = D"} if clause == "shape" else {clause})
    assert stored_form(mat.ring, **bad).verify() is False


def sparse_sum(ring, x, y, c):
    """The sparse row x + c * y, zeros dropped."""
    out = dict(x)
    for k, b in y.items():
        out[k] = ring.add(out[k], ring.mul(c, b)) if k in out else ring.mul(c, b)
    return {k: v for k, v in out.items() if not ring.is_zero(v)}


@pytest.mark.parametrize("mat", chain_cases())
def test_engine_leaving_an_off_diagonal_entry_is_refused(mat, monkeypatch):
    # D is stored as its diagonal, so no clause of verify reads an entry
    # off it.  An engine whose V leaves d_0 at (0, 1) of U * M * V, with
    # every other clause kept, must still make diagonal_form raise.
    engine, left = linalg._euclidean_engine, []

    def leaves_one_entry(reduced):
        U, U_inv, V, V_inv, d = engine(reduced)
        ring = reduced.ring
        # column 1 of V plus column 0, row 0 of V^-1 minus row 1: V^-1 is
        # still V's inverse, and U * M * V gains d_0 at (0, 1)
        V[1] = sparse_sum(ring, V[1], V[0], ring.one())
        V_inv[0] = sparse_sum(ring, V_inv[0], V_inv[1], ring.neg(ring.one()))
        parts = dense_parts(DiagonalForm(ring, reduced, U, U_inv, V, V_inv, d))
        reduced_by = parts["U"] * reduced * parts["V"]
        left.append(clause_failures(ring, {"source": reduced, **parts, "D": reduced_by}))
        return U, U_inv, V, V_inv, d

    monkeypatch.setattr(linalg, "_euclidean_engine", leaves_one_entry)
    with pytest.raises(CertificateError, match="failed self-verification"):
        diagonal_form(mat)
    assert left == [{"off-diagonal zero"}]


@pytest.mark.parametrize("mat", chain_cases())
def test_engine_leaving_a_non_canonical_diagonal_is_normalized(mat, monkeypatch):
    # an engine whose form is correct but whose d_0 is scaled by a unit u
    # other than 1 (-1 over Z, 2 over Q[x]), with row 0 of U scaled by u and
    # column 0 of U^-1 by u^-1: diagonal_form still returns a verified form
    # whose nonzero entries are each their own unit-normal representative
    engine, scaled = linalg._euclidean_engine, []

    def leaves_a_unit(reduced):
        U, U_inv, V, V_inv, d = engine(reduced)
        ring = reduced.ring
        u = ring.from_int(-1 if ring is ZZ else 2)
        d[0] = ring.mul(u, d[0])
        U[0] = {k: ring.mul(u, x) for k, x in U[0].items()}
        U_inv[0] = {k: ring.mul(x, ring.exact_div(ring.one(), u)) for k, x in U_inv[0].items()}
        scaled.append(ring.unit_normal(d[0])[0] != d[0])
        return U, U_inv, V, V_inv, d

    monkeypatch.setattr(linalg, "_euclidean_engine", leaves_a_unit)
    form, ring = diagonal_form(mat), mat.ring
    assert scaled == [True] and form.verify()
    assert [ring.unit_normal(x)[0] for x in form.D] == form.D


STORED = ("U_rows", "U_inv_cols", "V_cols", "V_inv_rows")  # DiagonalForm's order after ring and source


@pytest.mark.parametrize("mat", chain_cases())
@pytest.mark.parametrize("part", STORED)
@pytest.mark.parametrize("key", [4, -1], ids=["past-the-end", "negative"])
def test_stored_index_out_of_range_fails(mat, part, key):
    # an index that a dense matrix of the form's shape has no place for:
    # verify answers False instead of raising or reading another entry
    form = diagonal_form(mat)
    assert form.verify()
    lines = {name: [dict(line) for line in getattr(form, name)] for name in STORED}
    lines[part][0][key] = form.ring.one()
    bad = DiagonalForm(form.ring, form.source, *lines.values(), form.D)
    assert bad.verify() is False


@pytest.mark.parametrize("mat", chain_cases())
@pytest.mark.parametrize("part", STORED + ("D",))
@pytest.mark.parametrize("change", ["one-more", "one-fewer"])
def test_stored_part_of_another_length_fails(mat, part, change):
    # a part one line, or one diagonal entry, off the length that M's shape
    # gives: verify answers False.  An empty column more in U^-1 or V, or
    # the last, zero entry of diag(1, a, a*a, 0) left out, would change no
    # product, and a diagonal entry more would index past V^-1
    form = diagonal_form(mat)
    parts = {name: list(getattr(form, name)) for name in STORED + ("D",)}
    if change == "one-more":
        parts[part].append(form.ring.zero() if part == "D" else {})
    else:
        parts[part].pop()
    assert DiagonalForm(form.ring, form.source, *parts.values()).verify() is False


def sparse_cases():
    """Per ring, diag(1, a, 0) for a non-unit a.  Its diagonal form has
    U = V = I, so the certificate's products leave most positions where
    no pair of nonzero entries reaches."""
    k2, qx = KadicRing(2), PolynomialRing("Q")
    cases = [(ZZ, 3, "Z-diag"), (k2, k2.from_int(3), "Z[1/2]-diag"), (qx, Polynomial("Q", [0, 1]), "Q[x]-diag")]
    return [
        pytest.param(Matrix(ring, [[ring.one(), ring.zero(), ring.zero()], [ring.zero(), a, ring.zero()], [ring.zero()] * 3]), id=name)
        for ring, a, name in cases
    ]


def reached(ring, *factors):
    """The positions of the product of factors that a chain of nonzero
    entries, one from each factor, reaches; computed without linalg."""

    def nonzero(mat):
        return {(i, j) for i, row in enumerate(mat.rows) for j, x in enumerate(row) if not ring.is_zero(x)}

    out = nonzero(factors[0])
    for factor in factors[1:]:
        out = {(i, j) for i, k in out for l, j in nonzero(factor) if k == l}
    return out


def with_entry(form, name, i, j, value):
    """The dense matrices of form, with value at (i, j) of matrix name, the
    indices taken modulo its shape."""
    parts = dense(form)
    rows = parts[name].copy_rows()
    rows[i % len(rows)][j % len(rows[0])] = value
    return {**parts, name: Matrix(form.ring, rows)}


class TestSparseCertificate:
    """verify multiplies the stored sparse rows and columns and compares
    the sparse products with diag(d) * V^-1 and the identity; these corrupt
    positions that the nonzero pairs of the true form do not decide, and
    the stored form of each must fail as the dense reference fails."""

    @pytest.mark.parametrize("mat", sparse_cases())
    def test_nonzero_d_entry_that_no_pair_reaches(self, mat):
        form, ring = diagonal_form(mat), mat.ring
        assert (2, 2) not in reached(ring, form.U, form.source, form.V)
        a = form.diagonal()[1]
        bad = with_entry(form, "D", 2, 2, ring.mul(a, a))  # the chain (1, a, a*a) still holds
        assert clause_failures(ring, bad) == {"U*M*V = D"}
        assert stored_form(ring, **bad).verify() is False

    @pytest.mark.parametrize("mat", sparse_cases())
    def test_inverse_entry_in_a_column_that_u_never_meets(self, mat):
        form, ring = diagonal_form(mat), mat.ring
        assert (0, 1) not in reached(ring, form.U, dense(form)["U_inv"])
        bad = with_entry(form, "U_inv", 0, 1, ring.one())
        assert (0, 1) in reached(ring, bad["U"], bad["U_inv"])
        assert clause_failures(ring, bad) == {"U*U^-1 = I"}
        assert stored_form(ring, **bad).verify() is False

    @pytest.mark.parametrize("mat", chain_cases())
    def test_entry_that_sums_to_zero_against_a_nonzero_one(self, mat):
        # diag(1, a, a*a, 0): position (3, 3) of U * M * V is reached, and
        # its pairs cancel; D claims a**3 there, so the chain still holds
        form, ring = diagonal_form(mat), mat.ring
        assert (3, 3) in reached(ring, form.U, form.source, form.V)
        assert ring.is_zero(form.diagonal()[3])
        _, a, a2, _ = form.diagonal()
        bad = with_entry(form, "D", 3, 3, ring.mul(a, a2))
        assert clause_failures(ring, bad) == {"U*M*V = D"}
        assert stored_form(ring, **bad).verify() is False


@pytest.mark.parametrize("mat", chain_cases() + sparse_cases())
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(FORM_MATRICES), i=st.integers(0, 3), j=st.integers(0, 3), c=st.integers(-2, 2), e=st.integers(0, 2))
def test_single_entry_corruptions_agree_with_the_reference(mat, name, i, j, c, e):
    # entry (i, j) of one matrix of the form plus c * a**e, for the non-unit
    # a of its diagonal; c = 0 leaves the form as it was.  The reference
    # reads the dense matrices back from the stored form: an entry of D off
    # its diagonal has no place there (the engine-boundary test above
    # refuses a reduction that leaves one), and every other entry reads
    # back as it was written.
    form, ring = diagonal_form(mat), mat.ring
    delta = ring.from_int(c)
    for _ in range(e):
        delta = ring.mul(delta, form.diagonal()[1])
    rows = dense(form)[name].rows
    old = rows[i % len(rows)][j % len(rows[0])]
    written = with_entry(form, name, i, j, ring.add(old, delta))
    bad = stored_form(ring, **written)
    if name != "D" or i % len(rows) == j % len(rows[0]):
        assert dense(bad) == written
    assert bad.verify() is (clause_failures(ring, dense(bad)) == set())
