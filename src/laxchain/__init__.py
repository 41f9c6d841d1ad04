"""laxchain: integrable lattice chains, commuting difference operators,
and exact Darboux-transform verification on elliptic spectral curves.

The package splits into scalar kernels (exact rationals, quadratic
extensions, jets, fraction-free series), a banded difference-operator
algebra, the lattice flows and their integrators, spectral-polynomial
machinery with commutant searches, bounded-branch Weierstrass integration,
and the Darboux residual suites.  Everything algebraic is generic in the scalar: the same formulas
run exactly over Q(w) for identity certification and over floats for
simulation.
"""

from .curves import SpectralCurve
from .darboux import (
    ChainSolution,
    DarbouxData,
    SolutionConstants,
    chain_residuals,
    commutator_x_check,
    commutator_y_check,
    crosscheck_window,
    darboux_data,
    eigenfunction_step,
    factorization_check,
    rank2_solution,
    solve_tail_constants,
    transformed_operator,
)
from .elliptic import (
    BoundedBranch,
    exact_wp_jet,
    wp_init_bounded,
    wp_integrate,
    wp_trajectory,
)
from .errors import (
    AccuracyError,
    AnsatzError,
    ConfigError,
    DegenerateConfigurationError,
    DegreeError,
    LaxchainError,
    PoleError,
    UnsupportedCurveError,
)
from .flows import (
    FLOWS,
    GammaChain,
    Trajectory,
    VWChain,
    chain_vw_rhs,
    dkn_rhs,
    flow2_rhs,
    prolong_gamma_jets,
    q_flow_rhs,
    reduced_flow2_gamma,
    rk4_integrate,
    vn_from_gamma,
    vw_chain_from_gamma,
    wn_from_gamma,
)
from .operators import (
    DifferenceOperator,
    OperatorWindow,
    build_l4,
    commutator,
    compose,
    lax_residual,
)
from .scalars import (
    Fraction,
    Jet,
    QuadExt,
    Series,
    format_scalar,
    is_rational_square,
    rational,
    scalar_abs,
    scalar_value,
)
from .spectral import (
    CommutantAnsatz,
    ExactCommutantResult,
    PolynomialBandOperator,
    QPolynomial,
    WindowedCommutantResult,
    commutant_solve_exact,
    commutant_solve_windowed,
    flat_operator,
    propagate_q,
    q_conserved_value,
    q_recurrence_residual,
    sharp_operator,
)

__version__ = "0.1.0"
