"""trilocal: exact universal localization of triangular 2x2 matrix rings.

Build the ring T(M,p) attached to a triangular matrix ring and a column
morphism, compute normal forms by term rewriting, realize the
localization as the full 2x2 matrix ring over T, rewrite elements after
a change of p as fractions, and localize module triples through an
exact cokernel presentation.  Every route is cross-validated against an
independent oracle ring.

The names below are the documented API, the ones the README and the
demos use; everything else is imported from its own module.
"""

from .exprs import format_element, parse_normal
from .families import DoubleFamily, HnnFreeFamily, RegularFamily, ScaledFamily, TensorFreeFamily
from .fracloc import CentralPair, check_central, factor_inverting_hom, rational_value_hom
from .matrixloc import TriMap, matrix_text, rho_matrix, verify_sigma_inverting
from .modloc import localize_module, verify_comparison_maps
from .triangular import FPModule, SigmaMorphism, TriElement, TripleModule, tri_mul
from .tring import family_iso

__version__ = "0.1.0"
