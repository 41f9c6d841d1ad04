# %% [markdown]
# Exact identity certification
# ============================
#
# Everything the library claims about the integrable chain is checked in
# exact arithmetic: configurations are random rationals, the curve-point
# square root lives in a formal quadratic extension Q(w), and a residual is
# accepted only when every component is literally zero.  This script walks
# one configuration through all the suites that the `laxchain verify` CLI
# runs in bulk.

# %%
from fractions import Fraction

from laxchain import (
    GammaChain,
    SpectralCurve,
    chain_residuals,
    commutator_x_check,
    commutator_y_check,
    crosscheck_window,
    darboux_data,
    exact_wp_jet,
    factorization_check,
    prolong_gamma_jets,
    rank2_solution,
    solve_tail_constants,
)
from laxchain.scalars import format_scalar

curve = SpectralCurve.elliptic(Fraction(1, 3), Fraction(-2), Fraction(5, 7))
chain = GammaChain((Fraction(1), Fraction(2), Fraction(3), Fraction(5)), curve)
z0 = Fraction(9, 2)

print("curve: w^2 = z^3 + (1/3) z^2 - 2 z + 5/7")
print("chain:", [str(g) for g in chain.values], " curve point z0 =", z0)

# %% [markdown]
# The chain carries x-jets along the lattice flow; the curve point carries
# y-jets along the Weierstrass-type ODE.  Both square-root signs are valid;
# every result at -w is the conjugate (w -> -w) of the result at +w, so the
# suites evaluate +w only, as here.

# %%
jets = prolong_gamma_jets(chain, 3)
wp = exact_wp_jet(curve, z0, order=3)
data = darboux_data(jets, wp)

print("factorization residual window is zero:", factorization_check(data).is_zero())

print("band formulas equal the swapped factor product:",
      crosscheck_window(data).is_zero())

print("x-bracket of the transformed operator is zero:",
      commutator_x_check(data).is_zero())

# %% [markdown]
# The chain equations are subtler.  With the oscillating tail g_n switched
# off, the first two residuals vanish identically but the third carries an
# alternating gap 2(-1)^n (s0 z0^2 + k0 z0 + p0)/z0' whose coefficients are
# invariants of the flow.  Solving a 3-point Vandermonde system recovers
# them exactly, and with that tail every residual is zero.

# %%
sol_bare = rank2_solution(data)
r1, r2, r3 = chain_residuals(sol_bare, 0)
print("zero tail:   R1 =", format_scalar(r1), " R2 =", format_scalar(r2))
print("             R3 =", format_scalar(r3), " (the gap)")

constants = solve_tail_constants(chain)
print("solved tail constants: s0 =", constants.s0,
      " k0 =", constants.k0, " p0 =", constants.p0)

sol = rank2_solution(data, constants)
print("solved tail: residuals at every site:",
      [tuple(format_scalar(r) for r in chain_residuals(sol, n)) for n in range(4)])

print("y-bracket with the solved tail is zero:",
      commutator_y_check(data, constants).is_zero())
