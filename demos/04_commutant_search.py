# %% [markdown]
# Searching for commuting operators
# =================================
#
# Two explicit fourth-order families are known to possess higher-order
# commuting partners: one with a cubic polynomial potential (exact rational
# coefficients) and one with a cosine potential (numeric only).  The library
# finds the partners instead of taking them on faith: the exact solver turns
# [L, X] = 0 into a rational linear system over polynomial coefficients, the
# windowed solver into a least-squares system over free site values.

# %%
from fractions import Fraction

from laxchain import (
    CommutantAnsatz,
    PolynomialBandOperator,
    commutant_solve_exact,
    commutant_solve_windowed,
    flat_operator,
    sharp_operator,
)
from laxchain.spectral import exact_commutator_is_zero

# %% [markdown]
# Warm-up: the commutant of T + T^-1 at bandwidth 1 with constant
# coefficients is three-dimensional, since each constant band commutes on
# its own.

# %%
shift_pair = {1: (Fraction(1),), -1: (Fraction(1),)}
res = commutant_solve_exact(
    PolynomialBandOperator(shift_pair), CommutantAnsatz(band_m=1, degree=0)
)
print("T + T^-1 commutant dimension:", res.dimension)
for sol in res.basis:
    print("  basis element bands:", {j: [str(c) for c in p] for j, p in sol.bands.items()})

# %% [markdown]
# The cubic-potential family: escalate the degree bound until a bandwidth-3
# partner appears.  The identity is always found; L itself needs degree 6
# (its lower band is a degree-6 polynomial); the partner needs degree 9.

# %%
op = sharp_operator((0, 0, 0, 1))
for degree in range(5, 10):
    found = commutant_solve_exact(op, CommutantAnsatz(band_m=3, degree=degree))
    print(f"degree bound {degree}: solution space dimension {found.dimension}")

found = commutant_solve_exact(op, CommutantAnsatz(band_m=3, degree=9))
partner = next(s for s in found.basis if 3 in s.bands or -3 in s.bands)
print("\nbandwidth-3 partner (band: ascending polynomial coefficients):")
for j in sorted(partner.bands, reverse=True):
    print(f"  T^{j:+d}:", [str(c) for c in partner.bands[j]])
print("commutes exactly:", exact_commutator_is_zero(op, partner))

# %% [markdown]
# The cosine-potential family has no honest exact path (cos n is
# transcendental), so the search runs on a window with free site values and
# counts the numerical nullity.  Both families have even bands only, so the
# parity twist diag((-1)^n) commutes as well and doubles the count: the six
# null directions are I, L, the partner, and their three twists.  The gap
# between the null group and the rest of the spectrum is ~1e14.

# %%
flat = flat_operator((0, 1))
win = commutant_solve_windowed(flat, band_m=3, n0=0, n1=39)
print(f"windowed nullity: {win.nullity}")
print(f"singular-value gap: {win.gap:.3e}")
print(f"smallest singular values: {[f'{s:.2e}' for s in win.singular_tail[:7]]}")
print(f"representative residual |[L, X]|: {win.residual:.3e}")
