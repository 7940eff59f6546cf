"""Tour of the triangular matrix ring R = (A M; 0 B).

Elements are triples (a, m, b); the two columns P = (A; 0) and
Q = (M; B) decompose R, and a column morphism P -> Q is determined by
where it sends (1; 0), namely a bimodule element p.
"""

from trilocal import RegularFamily, ScaledFamily, SigmaMorphism, TriElement, tri_mul

# A = B = M = Z with p = 1: the simplest triangular ring
fam = RegularFamily("Z")
r1 = TriElement(fam, 1, 2, 3)
r2 = TriElement(fam, 4, 5, 6)
print("r1      =", r1.fmt())
print("r2      =", r2.fmt())
print("r1 * r2 =", tri_mul(r1, r2).fmt())  # (1*4, 1*5 + 2*6, 3*6)

# strictly upper-triangular elements square to zero
n = TriElement(fam, 0, 7, 0)
print("corner^2 =", tri_mul(n, n).fmt())

# the column morphism with p = 2 in the halving family
sfam = ScaledFamily(2)
sigma = SigmaMorphism(sfam)
print("\nimage of (1; 0) under the column morphism:", sigma(1))
print("image of (3; 0):", sigma(3))
