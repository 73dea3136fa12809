"""Decoupling constants, admissible exponent regions, and determinant bounds
for finite centered Gaussian vectors given by their covariance matrix."""

from .bounds import (
    BoundsReport,
    DominanceProfile,
    TausskyVerdict,
    cornerstone_bound,
    dominance_profile,
    ostrowski_lower_bound,
    taussky_test,
)
from .covgen import (
    AR1,
    CovFamily,
    Diagonal,
    Equicorrelated,
    RandomSPD,
    Scaled,
    Toeplitz,
    family_from_json,
    generate,
)
from .decouple import (
    AdmissibleRegion,
    DecouplingReport,
    GaussianVector,
    Interval,
    SimDiag,
    admissible_region,
    analyze,
    b_matrix,
    beta_bar,
    correlation_eigs_oracle,
    decoupling_coefficient,
    det_identity_residual,
    from_covariance,
    least_beta_bar,
    optimal_beta_bar,
    q_new,
    q_old,
    region_of,
    shifted_matrix,
    simultaneous_diagonalization,
    variance_ratio,
)
from .errors import (
    DegenerateBeta,
    GaussdecError,
    InvalidParameter,
    NonConvergence,
    NonPositiveVariance,
    NotAdmissibleClassical,
    NotApplicable,
    NotInRegion,
    NotPositiveDefinite,
    NotSymmetric,
)
from .matcore import (
    Spectrum,
    cholesky,
    jacobi_eigen,
    lu_det,
    sym_eigen,
    sym_eigvals,
)
from .verify import (
    Indicator,
    PolyGauss,
    TestFunction,
    VerificationResult,
    bl_bound,
    bl_ratio,
    check_inequality,
    marginal_pnorm,
    mc_expectation,
    parse_test_functions,
)

__version__ = "0.1.0"
