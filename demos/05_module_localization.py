"""Localizing a module triple: the column (L; L) over T.

A left module over the triangular ring is a triple (N_A, N_B, f); its
localization is presented by the base-changed relations of both sides
plus one mixed relation per bimodule basis element and N_B generator.
The canonical invariants of L and the verified comparison maps tell
the whole story.
"""

from trilocal import (
    DoubleFamily,
    FPModule,
    RegularFamily,
    TripleModule,
    localize_module,
    verify_comparison_maps,
)
from trilocal.modloc import localized_presentation

rz = RegularFamily("Z")

# N_A = N_B = Z with f = multiplication by 2: L is free of rank 1
doubling = TripleModule(rz, FPModule("Z", 1), FPModule("Z", 1), [[[2]]])
loc = localize_module(doubling)
print("doubling module:")
print("  relations:", loc.to_json()["relations"])
print("  invariant factors:", loc.factors_fmt(), " free rank:", loc.rank)
print("  comparison maps:", "pass" if loc.report.passed else "fail")

# torsion survives base change along the identity
torsion = TripleModule(rz, FPModule("Z", 1, [[3]]), FPModule("Z", 0), [[]])
loc = localize_module(torsion)
print("\nthree-torsion module: factors", loc.factors_fmt(), " rank", loc.rank)

# over the doubled family the mixed relation carries the variable x
dq = DoubleFamily("Q")
mixed = TripleModule(dq, FPModule("Q", 1), FPModule("Q", 1), [[[1]], [[0]]])
loc = localize_module(mixed)
print("\npolynomial-ring example: factors", loc.factors_fmt(), " rank", loc.rank)

# the defining minus sign matters: flipping it breaks the verification
rep = verify_comparison_maps(doubling, presentation=localized_presentation(doubling, g_sign=-1))
print("\nsign-flipped control detected:", not rep.passed)
