"""Replacing p by a0*p and writing the new ring in fractions.

With a0 = b0 = 2 over the integers, T(M,p) is Z and T(M,2p) is the
dyadic fractions Z[1/2]; the generator indexed by 2p becomes central
and invertible, so every dyadic number is an integer numerator over a
power of it.
"""

from fractions import Fraction

from trilocal import (
    CentralPair,
    RegularFamily,
    check_central,
    factor_inverting_hom,
    family_iso,
    format_element,
    parse_normal,
    rational_value_hom,
)

fam = RegularFamily("Z")
pair = CentralPair(fam, 2, 2)

print(check_central(pair).render_text())

target = pair.target
print("\ntarget family:", target.describe())

for text in ("5*x[1]^3", "6", "1", "3*x[1]"):
    e = parse_normal(target, text)
    form = pair.fraction_form(e)
    print(
        f"value {str(family_iso(e)):>5} = numerator {format_element(form.numerator)}"
        f" over denominator exponent {form.exponent}"
    )

# factor the evaluation morphism Z -> Q through the dyadic ring
hom = rational_value_hom(fam)
e = parse_normal(target, "5*x[1]^3")
print("\nfactored image of 5/8 in Q:", factor_inverting_hom(pair, hom, Fraction(1, 2), e))
src = parse_normal(fam, "7")
print("factorization identity on 7:", factor_inverting_hom(pair, hom, Fraction(1, 2), pair.induced(src)))
