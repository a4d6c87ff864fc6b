"""Spectrum of the likelihood kernel and second-moment machinery.

The likelihood kernel (joint law divided by the product of marginals) is a
self-adjoint operator whose eigenvalues control how distinguishable the two
hypotheses are.  This module computes those eigenvalues (exactly for discrete
models, by geometric truncation for the Gaussian family), the impossibility
statistics built from them, and the exact second moment of the
permutation-mixture likelihood ratio under the null (the cycle index of S_n,
by the exponential-formula recurrence), together with its Poisson-surrogate
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    DegenerateModelError,
    DomainError,
    InvariantViolationError,
    ValidationError,
)
from .models import DiscreteJointModel, _frozen_array

# The second-moment recurrence costs n (n + L) steps for L eigenvalues; on a
# 2-vCPU machine 1.0e8 took 0.31 s (rho = 0.5, n = 10^4), 3.76e8 0.84 s
# (rho = 0.999, n = 10^4), and 4.0e8 1.16 s (rho = 0.5, n = 19,979) and
# 0.64 s (rho = 0.99999, n = 144).
MOMENT_MAX_WORK = 4 * 10**8

TOP_EIGENVALUE_TOL = 1e-10

GAUSSIAN_TRUNCATION_TOL = 1e-12
# 2^22 eigenvalues: rho = 0.99999 needs 2.76 M, rho = 0.999999 needs 27.6 M.
SPECTRUM_MAX_BYTES = 1 << 25


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Eigenvalues of the likelihood kernel, sorted by decreasing value.

    The top eigenvalue is always 1 (the constant function is invariant); it
    is validated within 1e-10 and snapped exactly.  Signed values are kept,
    and every statistic downstream consumes even powers only, so the sign
    convention cannot leak into any output.  ``tail`` bounds the part of
    sum_{i>=1} lam_i^2 / (1 - lam_i^2) that a truncated spectrum leaves out
    (0 for an exact one).
    """

    eigenvalues: np.ndarray
    tail: float = 0.0

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64).copy()
        if lam.ndim != 1 or lam.size < 1:
            raise ValidationError("eigenvalues must be a nonempty 1-D sequence")
        lam = np.sort(lam)[::-1]
        if abs(lam[0] - 1.0) > TOP_EIGENVALUE_TOL:
            raise InvariantViolationError(
                f"top eigenvalue must be 1 within {TOP_EIGENVALUE_TOL:g}, "
                f"got {lam[0]!r}"
            )
        if np.abs(lam).max() > 1.0 + TOP_EIGENVALUE_TOL:
            raise InvariantViolationError(
                "eigenvalues must lie in [-1, 1] (within 1e-10)"
            )
        lam[0] = 1.0
        object.__setattr__(self, "eigenvalues", _frozen_array(lam))

    @property
    def subdominant(self) -> np.ndarray:
        """All eigenvalues except the single top entry equal to 1."""
        return self.eigenvalues[1:]


def kernel_matrix(model: DiscreteJointModel) -> np.ndarray:
    """Row-stochastic transition matrix M[x, y] = joint[x, y] / q(x)."""
    model.require_positive_marginal("kernel_matrix")
    return model.joint / model.marginal[:, None]


def eigenvalues(model: DiscreteJointModel) -> SpectralProfile:
    """Exact kernel spectrum of a discrete model.

    Computed on the symmetric conjugate D^{-1/2} J D^{-1/2} (D = diag(q)),
    which shares the spectrum of the row-stochastic kernel but is symmetric,
    so the eigenvalues are provably real and the solver is stable.
    """
    model.require_positive_marginal("eigenvalues")
    inv_sqrt_q = 1.0 / np.sqrt(model.marginal)
    sym = model.joint * np.outer(inv_sqrt_q, inv_sqrt_q)
    lam = np.linalg.eigvalsh(sym)
    return SpectralProfile(eigenvalues=lam)


def gaussian_profile(rho: float) -> SpectralProfile:
    """Geometric spectrum {rho^l} of the Gaussian likelihood kernel,
    truncated once |rho^l| drops below ``GAUSSIAN_TRUNCATION_TOL``.  With L
    powers kept, the dropped terms of the weak statistic are bounded by
    ``tail`` = rho^{2L} / ((1 - rho^2)(1 - rho^{2L}))."""
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise DomainError(f"gaussian spectrum requires |rho| < 1, got {rho!r}")
    if rho == 0.0:
        return SpectralProfile(eigenvalues=np.array([1.0]))
    tol = GAUSSIAN_TRUNCATION_TOL
    size = math.ceil(math.log(tol) / math.log(abs(rho))) + 1
    if size * 8 > SPECTRUM_MAX_BYTES:
        raise CapacityError(
            f"the gaussian spectrum at rho = {rho!r} needs {size} eigenvalues "
            f"({size * 8} bytes), above the {SPECTRUM_MAX_BYTES}-byte budget"
        )
    r2 = rho * rho
    r2l = r2**size
    tail = r2l / ((1.0 - r2) * (1.0 - r2l))
    if tail >= tol:
        raise InvariantViolationError(f"truncation tail {tail:g} is not below {tol:g}")
    return SpectralProfile(
        eigenvalues=rho ** np.arange(size, dtype=np.float64), tail=tail
    )


def weak_lb_statistic(profile: SpectralProfile) -> float:
    """The series sum_{i>=1} lam_i^2 / (1 - lam_i^2).

    Weak detection is impossible whenever this is vanishing relative to 1/d;
    the caller compares d times this value against 1.  The profile's
    truncation ``tail`` is added.
    """
    sub = profile.subdominant
    if sub.size and np.abs(sub).max() >= 1.0:
        raise DomainError(
            "profile has a subdominant eigenvalue of modulus 1; the series diverges"
        )
    s2 = sub * sub
    return float(np.sum(s2 / (1.0 - s2))) + profile.tail


def strong_lb_fixed_d_threshold(profile: SpectralProfile) -> float:
    """Feature-count threshold below which strong detection fails for fixed d.

    Returns -log(lam_1^2) / log(sum_i lam_i^2) where lam_1^2 is the largest
    squared subdominant eigenvalue (squares make the value independent of
    sign conventions).  Any integer d strictly below the returned value is in
    the impossible regime.
    """
    sub = profile.subdominant
    lam1_sq = float(np.max(sub * sub)) if sub.size else 0.0
    if lam1_sq == 0.0:
        raise DegenerateModelError(
            "all subdominant eigenvalues vanish (independent model); "
            "the fixed-d threshold is undefined"
        )
    total_sq = 1.0 + float(np.sum(sub * sub))
    return -math.log(lam1_sq) / math.log(total_sq)


# ---------------------------------------------------------------------------
# The exact second moment
# ---------------------------------------------------------------------------


def _power_sums(profile: SpectralProfile, n: int) -> np.ndarray:
    """g_k = sum_i lam_i^{2k} for k = 1..n, including the top eigenvalue."""
    sub_sq = profile.subdominant ** 2
    g = np.empty(n)
    acc = sub_sq.copy()
    for k in range(n):
        g[k] = 1.0 + float(acc.sum())
        acc *= sub_sq
    return g


def second_moment_exact(profile: SpectralProfile, n: int, d: int) -> float:
    """Exact null second moment of the permutation-mixture likelihood ratio.

    Equals the expectation over a uniform permutation of S_n of
    prod_k a_k^{N_k}, where N_k counts its k-cycles, a_k = g_k^d and g_k is
    the sum of 2k-th eigenvalue powers.  That expectation is the cycle index
    h_n of S_n, computed by the exponential-formula recurrence
    h_m = (1/m) sum_{k=1..m} a_k h_{m-k}, h_0 = 1, in log space: every term
    is positive, so nothing cancels.  n (n + L) time for L eigenvalues and
    O(n + L) memory, refused above ``MOMENT_MAX_WORK`` before any work.
    Returns ``inf`` when the value exceeds the double range.  Always >= 1,
    with equality exactly under independence.
    """
    if n < 1 or d < 1:
        raise ValidationError(f"n and d must be >= 1, got n={n}, d={d}")
    work = n * (n + profile.eigenvalues.size)
    if work > MOMENT_MAX_WORK:
        raise CapacityError(
            f"the second-moment recurrence at n={n} over "
            f"{profile.eigenvalues.size} eigenvalues needs {work} steps, above "
            f"the budget of {MOMENT_MAX_WORK}"
        )
    log_a = d * np.log(_power_sums(profile, n))
    if log_a.max() == 0.0:
        # independence: every cycle factor is exactly 1
        return 1.0
    log_h = np.zeros(n + 1)
    for m in range(1, n + 1):
        terms = log_a[:m] + log_h[m - 1 :: -1]
        top = float(terms.max())
        log_h[m] = top + math.log(float(np.exp(terms - top).sum()) / m)
    log_total = float(log_h[n])
    if not log_total < math.log(np.finfo(np.float64).max):
        return math.inf
    return max(1.0, math.exp(log_total))


def poisson_surrogate_moment(profile: SpectralProfile, m: int, d: int) -> float:
    """Second-moment surrogate with independent Poisson(1/k) cycle counts.

    Exact value of E exp(d * sum_{k<=m} P_k log g_k):
    prod_{k=1..m} exp((g_k^d - 1) / k).  Nondecreasing in m; for d = 1 it
    increases to exp(-sum_{i>=1} log(1 - lam_i^2)).
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    log_g = np.log(_power_sums(profile, m))
    exponent = 0.0
    for k in range(1, m + 1):
        dlg = d * log_g[k - 1]
        if dlg > 700.0:
            return math.inf
        exponent += math.expm1(dlg) / k
    if exponent > 700.0:
        return math.inf
    return math.exp(exponent)


def poisson_moment_bound(profile: SpectralProfile, d: int) -> float:
    """Closed-form upper bound on the null second moment.

    exp[d S + (sum_i lam_i^2)^{d-2} (d S)^2] with
    S = sum_{i>=1} lam_i^2 / (1 - lam_i^2); the total in the middle factor
    includes the top eigenvalue.
    """
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    s = weak_lb_statistic(profile)
    sub = profile.subdominant
    total_sq = 1.0 + float(np.sum(sub * sub))
    exponent = d * s + total_sq ** (d - 2) * (d * s) ** 2
    if exponent > 700.0:
        return math.inf
    return math.exp(exponent)


def risk_lower_bound_from_moment(second_moment: float) -> float:
    """Risk floor implied by a null second moment: 1 - sqrt(moment - 1) / 2,
    clamped to [0, 1].  A moment below 1 signals a broken computation."""
    if second_moment < 1.0 - 1e-12:
        raise InvariantViolationError(
            f"second moment must be >= 1, got {second_moment!r}"
        )
    if math.isinf(second_moment):
        return 0.0
    gap = max(0.0, second_moment - 1.0)
    return min(1.0, max(0.0, 1.0 - 0.5 * math.sqrt(gap)))
