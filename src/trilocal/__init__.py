"""trilocal: exact universal localization of triangular 2x2 matrix rings.

Build the ring T(M,p) attached to a triangular matrix ring and a column
morphism, compute normal forms by term rewriting, realize the
localization as the full 2x2 matrix ring over T, rewrite elements after
a change of p as fractions, and localize module triples through an
exact cokernel presentation.  Every route is cross-validated against an
independent oracle ring.
"""

from .errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    CertificateError,
    FamilyMismatchError,
    ParseError,
    SchemaError,
    TrilocalError,
    UnsupportedFamilyError,
    UnsupportedRingError,
)
from .exprs import format_element, format_oracle, parse_element, parse_normal
from .families import (
    BimoduleFamily,
    DoubleFamily,
    FAMILY_KINDS,
    HnnFreeFamily,
    PFactorization,
    RegularFamily,
    ScaledFamily,
    TensorFreeFamily,
    family_from_json,
)
from .fracloc import (
    CentralPair,
    FractionForm,
    LetterHom,
    check_central,
    factor_inverting_hom,
    phi,
    rational_value_hom,
)
from .linalg import (
    DiagonalForm,
    Matrix,
    diagonal_form,
    euclidean_reduce,
    in_row_span,
    int_matrix,
    smith_normal_form,
    solve_left,
)
from .matrixloc import matrix_text, matrix_unit, rho_matrix, verify_sigma_inverting
from .modloc import (
    LocalizedModule,
    Presentation,
    localize_module,
    localized_presentation,
    tensor_side_presentation,
    verify_comparison_maps,
)
from .rings import (
    FreeAlgebra,
    FreeAlgebraElement,
    IntegerRing,
    KadicFraction,
    KadicRing,
    Polynomial,
    PolynomialRing,
    QQ,
    RationalField,
    ZZ,
    norm_scalar,
    scalar_add,
    scalar_mul,
    scalar_neg,
)
from .report import Report
from .triangular import (
    FPModule,
    SigmaMorphism,
    TriElement,
    TripleModule,
    column_join,
    column_split,
    module_roundtrip,
    tri_add,
    tri_mul,
    triple_from_json,
    triple_to_json,
)
from .tring import (
    Add,
    Budget,
    Const,
    DEFAULT_BUDGET,
    EqResult,
    Gen,
    Mul,
    Neg,
    Pow,
    TElement,
    family_iso,
    rho,
    t_add,
    t_eq,
    t_eq_exprs,
    t_generator,
    t_mul,
    t_neg,
    t_normalize,
    t_scale,
)
from .verify import (
    DEFAULT_SEED,
    change_of_p_suite,
    example_suite,
    module_localization_suite,
    oracle_faithfulness,
    presentation_soundness,
    random_suite,
    shipped_families,
)

__version__ = "0.1.0"
