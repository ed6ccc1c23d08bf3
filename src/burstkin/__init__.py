"""Bursty birth-death kinetics, discrete and continuous.

Stationary laws (exact recurrences, closed-form families, analytic
densities), master-equation evolution, event-driven simulation of the
jump chains, the discretized transition operator with its fixed point,
rate recovery from a stationary density, mode censuses, and ergodicity
margins, plus a batch CLI over all of it.
"""

from .continuous import (
    ExposureHistogram,
    GridDensity,
    KernelGrid,
    ModeReportContinuous,
    PdmpTrajectory,
    Potential,
    count_modes_continuous,
    default_grid,
    density_from_fixed_point,
    ergodicity_scan,
    geometric_grid,
    kernel_fixed_point,
    kernel_grid,
    kernel_matrix,
    phi_from_density_analytic,
    phi_from_density_grid,
    simulate_pdmp,
    stationary_density,
)
from .discrete import (
    GeneralizedHypergeometricFamily,
    HypergeometricFamily,
    JumpChainResult,
    MasterTrace,
    ModeReportDiscrete,
    NegativeBinomialFamily,
    Pmf,
    count_modes_discrete,
    evolve_master,
    master_rhs_truncated,
    mean_identity_residual,
    named_family_params,
    simulate_jump_chain,
    stationary_pmf_general,
    stationary_pmf_geometric,
)
from .errors import (
    BurstkinError,
    ConfigError,
    DomainError,
    GridMismatch,
    GridTooNarrow,
    ModelError,
    NoConvergence,
    NotIntegrable,
    NotNormalizable,
    NumericalBlowup,
    NumericError,
    ParseError,
    RangeError,
    TailNotConverged,
    ToleranceNotMet,
    ValidationError,
    WindowTooSmall,
)
from .models import (
    ConstantRate,
    ContinuousBurstModel,
    DiscreteBurstModel,
    ExponentialBurstKernel,
    FiniteSupportNu,
    GaussianExpNu,
    GeometricBurst,
    HillRate,
    LinearDecay,
    LinearRate,
    PowerTailNu,
    QuadraticRate,
    SeparableBurstKernel,
    TabulatedBurst,
    TabulatedDecay,
    TabulatedRate,
    TruncatedLinearRate,
)
from .numerics import (
    expm,
    l1_distance,
    make_rng,
    trapezoid,
    tv_distance,
)

__version__ = "0.1.0"
