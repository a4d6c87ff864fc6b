"""Dependence testing between row-shuffled databases.

Detectors (scan/GLRT, sum, count, exact mixture oracle), likelihood-kernel
spectra and second-moment impossibility bounds, Chernoff exponents, and a
seeded Monte-Carlo risk harness.
"""

from .errors import (
    CapacityError,
    DegenerateModelError,
    DetectionError,
    DomainError,
    InvariantViolationError,
    ValidationError,
)
from .models import (
    BernoulliModel,
    DatabasePair,
    DiscreteJointModel,
    GaussianModel,
    JointModel,
    llr,
    make_bernoulli,
    pair_llr,
    pair_llr_matrix,
    pearson_rho,
    sample_alt,
    sample_null,
)
from .spectral import (
    SpectralProfile,
    eigenvalues,
    gaussian_profile,
    kernel_matrix,
    poisson_moment_bound,
    poisson_surrogate_moment,
    risk_lower_bound_from_moment,
    second_moment_exact,
    strong_lb_fixed_d_threshold,
    weak_lb_statistic,
)
from .exponents import (
    ExponentResult,
    LLRAtoms,
    centered_kernel,
    chernoff_exponent,
    kl_divergences,
    llr_atoms,
    psi_p,
    psi_q,
    var_q_centered_kernel,
)
from .detectors import (
    CountTestPlan,
    Verdict,
    count_test,
    glrt,
    make_count_plan,
    np_oracle,
    sum_test,
)
from .experiments import (
    RiskEstimate,
    SweepGrid,
    TrialPlan,
    bound_report,
    estimate_risk,
    exact_tv_small,
    sweep,
)

__version__ = "0.1.0"
