# %% [markdown]
# Lattice flows and their integrator
# ==================================
#
# Four flows are available: the lattice equation itself ("dkn"), the coupled
# first flow on (V, W) ("vw"), the second hierarchy flow ("flow2"), and the
# second flow pushed down to the chain ("reduced_t2").  The integrator is
# classical RK4; conserved quantities monitor its quality.

# %%
import math

import numpy as np

from laxchain import (
    GammaChain,
    SpectralCurve,
    VWChain,
    rk4_integrate,
    vn_from_gamma,
    vw_chain_from_gamma,
)

curve = SpectralCurve.elliptic(0.0, -1.0, 0.0)  # w^2 = z^3 - z
chain = GammaChain((-0.82, -0.31, 0.28, 0.77), curve)

traj = rk4_integrate(chain, "dkn", 1e-3, 300)
print("integrated to x =", traj.x_at(traj.steps))
print("final chain:", np.round(traj.states[-1], 6))

# %% [markdown]
# The product of the couplings V_n is a first integral (the log-derivatives
# telescope over a period).  Its drift is pure integrator error.

# %%
def coupling_product(gamma):
    return math.prod(vn_from_gamma(gamma, curve).tolist())

p0 = coupling_product(traj.states[0])
p1 = coupling_product(traj.states[-1])
print(f"coupling product: initial {p0:.12f}, final {p1:.12f}, drift {abs(p1-p0):.3e}")

# %% [markdown]
# Richardson self-convergence: halving the step should divide the error by
# sixteen for a fourth-order scheme.

# %%
ends = []
t_final, h = 0.2, 0.02
for k in (1, 2, 4):
    t = rk4_integrate(chain, "dkn", h / k, int(t_final / h) * k)
    ends.append(t.states[-1])
e1 = np.max(np.abs(ends[0] - ends[1]))
e2 = np.max(np.abs(ends[1] - ends[2]))
print(f"error(h)/error(h/2) = {e1/e2:.2f}  ->  order = {np.log2(e1/e2):.3f}")

# %% [markdown]
# The coupled system evolves (V, W) independently; starting it from the
# couplings induced by a chain keeps the two pictures synchronized (the
# reduction is exact, which the test suite pins down in exact arithmetic).

# %%
vw = vw_chain_from_gamma(GammaChain((-0.82, -0.31, 0.28, 0.77), curve))
vw_float = VWChain(tuple(float(v) for v in vw.v), tuple(float(w) for w in vw.w))
traj_vw = rk4_integrate(vw_float, "vw", 1e-3, 300)
prod0 = np.prod([float(v) for v in traj_vw.chain_at(0).v])
prod1 = np.prod([float(v) for v in traj_vw.chain_at(traj_vw.steps).v])
print(f"coupled-flow coupling product drift: {abs(prod1-prod0):.3e}")

gamma_after = traj.chain_at(300)
vw_after = vw_chain_from_gamma(gamma_after)
diff = max(
    abs(float(a) - b)
    for a, b in zip(vw_after.v, traj_vw.chain_at(300).v[: len(vw_after.v)])
)
print(f"max |V(gamma(x)) - V(x)| after 300 steps: {diff:.3e}")
