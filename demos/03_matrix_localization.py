"""Inverting the column morphism: R lands in the 2x2 matrix ring over T.

The map sends (a, m, b) to ((a-image, m-image), (0, b-image)); the
certificate checks it is a unital ring morphism, that the corner
element at p hits the matrix unit e12, and that the matrix-unit
identities realize the inverse of the base-changed column map.
"""

from trilocal import ScaledFamily, TriElement, TriMap, matrix_text, rho_matrix, verify_sigma_inverting

fam = ScaledFamily(2)

print("image of 1_R:", matrix_text(rho_matrix(TriElement.one(fam))))
corner = TriElement(fam, 0, 2, 0)  # the (0, p, 0) corner
print("image of (0, p, 0):", matrix_text(rho_matrix(corner)))
sample = TriElement(fam, 3, 5, 7)
print("image of (3, 5, 7):", matrix_text(rho_matrix(sample)), " (entry values 3, 5/2, 7)")

print()
print(verify_sigma_inverting(TriMap(fam), samples=200).render_text())
