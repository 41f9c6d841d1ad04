# %% [markdown]
# The Darboux pipeline, end to end
# ================================
#
# One exact configuration, the full story: factor the fourth-order operator
# at a curve point, swap the factors to get the transformed operator, read
# off the solution family (b, d, f, g), and certify every identity exactly.
# Finish with the eigenfunction recursion.

# %%
from fractions import Fraction

from laxchain import (
    GammaChain,
    SpectralCurve,
    build_l4,
    chain_residuals,
    commutator_x_check,
    commutator_y_check,
    crosscheck_window,
    darboux_data,
    eigenfunction_step,
    exact_wp_jet,
    factorization_check,
    prolong_gamma_jets,
    rank2_solution,
    solve_tail_constants,
    transformed_operator,
)
from laxchain.scalars import Jet, format_scalar

curve = SpectralCurve.elliptic(Fraction(0), Fraction(-1), Fraction(0))
chain = GammaChain((Fraction(3), Fraction(7, 2), Fraction(5), Fraction(8)), curve)
z0 = Fraction(13, 6)

# %% [markdown]
# Step 1: the factorization of L4 - z0 at the curve point.  The residual
# window is exactly zero for any distinct-neighbor chain (this is the
# conserved-curve relation in disguise).

# %%
jets = prolong_gamma_jets(chain, 3)
wp = exact_wp_jet(curve, z0, order=3)
data = darboux_data(jets, wp)
print("factorization residual zero:", factorization_check(data).is_zero())

# %% [markdown]
# Step 2: swap the factors, add z0: the transformed operator.  Its four
# nontrivial bands follow the explicit formulas, which the swapped product
# must reproduce exactly.

# %%
print("cross-check (formulas vs swapped product):", crosscheck_window(data).is_zero())
flat = data.truncated(0, 0)
win = transformed_operator(flat).window(0, 3)
# band values at orders (0, 0) are printed as the nested jets jet(jet(c))
nest = lambda c: c if isinstance(c, int) else Jet((Jet((c,)),))
print("transformed-operator window (site 0 row):")
for j in range(win.hi, win.lo - 1, -1):
    print(f"  T^{j:+d}:", format_scalar(nest(win.coeff(j, 0))))

# %% [markdown]
# Step 3: the solution family.  The tail constants are pinned by the chain
# itself (they are invariants of the flow); with them, the three chain
# equations and both operator brackets hold exactly in Q(w).

# %%
constants = solve_tail_constants(chain)
print("tail constants:", constants.s0, constants.k0, constants.p0)
sol = rank2_solution(data, constants)
for n in range(4):
    print(f"  site {n}: residuals "
          f"{tuple(format_scalar(r) for r in chain_residuals(sol, n))}")
print("x-bracket zero:", commutator_x_check(data).is_zero())
print("y-bracket zero:", commutator_y_check(data, constants).is_zero())

# %% [markdown]
# Step 4: eigenfunctions.  The two-term recursion built from the factor
# coefficients generates exact joint eigenfunctions of the fourth-order
# operator at the curve point.

# %%
sdata = data.truncated(0, 0)
psi = {0: 1, 1: 1}
for n in range(1, 7):
    psi[n + 1] = eigenfunction_step(sdata, psi[n - 1], psi[n], n)
l4 = build_l4(sdata.v_at, sdata.w_site)
checks = [l4.apply(lambda m: psi[m], n) == sdata.z0 * psi[n] for n in range(2, 6)]
print("L4 psi = z0 psi at sites 2..5:", checks)
