"""Log-MGFs of the log-likelihood ratio, Chernoff exponents, divergences,
and the centered kernel used by the sum test.

``psi_q`` and ``psi_p`` are the cumulant generating functions of the
single-letter log-likelihood ratio under the independence law and the joint
law; they satisfy psi_q(0) = psi_q(1) = 0 and psi_p(lam) = psi_q(lam + 1).
The exponents E_Q, E_P are their Legendre transforms, computed by one
golden-section search on [0, 1] (the objective lam * theta - psi(lam) is
concave) and shared by the two sides through E_P(theta) = E_Q(theta) - theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError
from .models import DiscreteJointModel, GaussianModel, JointModel, _frozen_array, llr

ATOM_MERGE_TOL = 1e-12
GOLDEN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LLRAtoms:
    """The exact law of the log-likelihood ratio of a discrete model: one
    atom per distinct value, with its probability under the independence law
    (q) and under the joint law (p = q * exp(value))."""

    values: np.ndarray
    q_probs: np.ndarray
    p_probs: np.ndarray

    def __len__(self) -> int:
        return self.values.size


class Divergences(NamedTuple):
    kl_pq: float
    kl_qp: float
    skl: float


@dataclass(frozen=True, eq=False)
class ExponentResult:
    theta: float
    value: float
    argmax_lambda: float
    iterations: int


@lru_cache(maxsize=64)
def llr_atoms(model: DiscreteJointModel) -> LLRAtoms:
    """Atoms of the log-likelihood ratio, merged when values agree within
    1e-12 (keeps downstream convolutions compact without moving mass)."""
    if not isinstance(model, DiscreteJointModel):
        raise ValidationError("llr_atoms is defined for discrete models")
    model.require_mutual_continuity("llr_atoms")
    q = model.marginal
    qq = np.outer(q, q)
    mask = qq > 0
    values = model.llr_table[mask]
    q_mass = qq[mask]
    p_mass = model.joint[mask]
    order = np.argsort(values, kind="stable")
    values, q_mass, p_mass = values[order], q_mass[order], p_mass[order]
    merged_v, merged_q, merged_p = [], [], []
    for v, qm, pm in zip(values, q_mass, p_mass):
        if merged_v and v - merged_v[-1] <= ATOM_MERGE_TOL:
            merged_q[-1] += qm
            merged_p[-1] += pm
        else:
            merged_v.append(float(v))
            merged_q.append(float(qm))
            merged_p.append(float(pm))
    return LLRAtoms(
        values=_frozen_array(merged_v),
        q_probs=_frozen_array(merged_q),
        p_probs=_frozen_array(merged_p),
    )


def _logsumexp(values: np.ndarray) -> float:
    top = float(np.max(values))
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.sum(np.exp(values - top))))


def _gaussian_lambda_walls(rho: float) -> tuple[float, float]:
    # psi_q(lam) is finite iff |1 - lam| < 1 / |rho|
    half_width = 1.0 / abs(rho)
    return 1.0 - half_width, 1.0 + half_width


def psi_q(model: JointModel, lam: float) -> float:
    """log E_Q exp(lam * LLR): exact atom sum for discrete models, closed
    form for the Gaussian family.

    The Gaussian form is
    -((lam - 1) / 2) log(1 - rho^2) - (1/2) log(1 - (1 - lam)^2 rho^2),
    valid for |1 - lam| < 1/|rho|; it satisfies psi_q(0) = psi_q(1) = 0 and
    is pinned against Gauss-Hermite quadrature in the test suite.
    """
    lam = float(lam)
    if isinstance(model, GaussianModel):
        rho = model.rho
        lo, hi = _gaussian_lambda_walls(rho)
        if not lo < lam < hi:
            raise DomainError(
                f"the moment generating function diverges: lambda must lie in "
                f"({lo:g}, {hi:g}) for rho={rho:g}, got {lam!r}"
            )
        c = 1.0 - rho * rho
        u = 1.0 - lam
        return -0.5 * (lam - 1.0) * math.log(c) - 0.5 * math.log(1.0 - u * u * rho * rho)
    atoms = llr_atoms(model)
    return _logsumexp(np.log(atoms.q_probs) + lam * atoms.values)


def psi_p(model: JointModel, lam: float) -> float:
    """log E_P exp(lam * LLR), computed through the tilt identity
    psi_p(lam) = psi_q(lam + 1)."""
    return psi_q(model, lam + 1.0)


def kl_divergences(model: JointModel) -> Divergences:
    """(KL(P||Q), KL(Q||P), symmetric KL).  Exact sums for discrete models,
    closed forms for the Gaussian family."""
    if isinstance(model, GaussianModel):
        rho = model.rho
        c = 1.0 - rho * rho
        kl_pq = -0.5 * math.log(c)
        kl_qp = 0.5 * math.log(c) + rho * rho / c
    else:
        atoms = llr_atoms(model)
        kl_pq = float(atoms.p_probs @ atoms.values)
        kl_qp = float(-(atoms.q_probs @ atoms.values))
    return Divergences(kl_pq=kl_pq, kl_qp=kl_qp, skl=0.5 * (kl_pq + kl_qp))


def _golden_max(f, lo: float, hi: float, tol: float = GOLDEN_TOL):
    """Golden-section maximum of a concave function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while b - a > tol:
        iterations += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x), iterations


def chernoff_exponent(model: JointModel, theta: float, side: str = "Q") -> ExponentResult:
    """Legendre transform sup_lam (lam * theta - psi(lam)) of the chosen
    log-MGF, for theta in the closed interval [-KL(Q||P), KL(P||Q)].

    psi_q is convex with slope -KL(Q||P) at 0 and KL(P||Q) at 1, so for such
    theta the concave side-Q objective peaks in [0, 1], which lies inside the
    Gaussian integrability walls; one golden-section search there finds it.
    Side P follows from psi_p(lam) = psi_q(lam + 1): E_P(theta) = E_Q(theta)
    - theta, attained one below the side-Q maximiser.
    """
    theta = float(theta)
    if side not in ("Q", "P"):
        raise ValidationError(f"side must be 'Q' or 'P', got {side!r}")
    div = kl_divergences(model)
    lo_theta, hi_theta = -div.kl_qp, div.kl_pq
    if not lo_theta - 1e-12 <= theta <= hi_theta + 1e-12:
        raise DomainError(
            f"theta must lie in [{lo_theta:g}, {hi_theta:g}], got {theta!r}"
        )
    theta = min(max(theta, lo_theta), hi_theta)
    objective = lambda lam: lam * theta - psi_q(model, lam)
    x, fx, iterations = _golden_max(objective, 0.0, 1.0)
    if side == "P":
        x, fx = x - 1.0, fx - theta
    return ExponentResult(
        theta=theta, value=max(0.0, fx), argmax_lambda=x, iterations=iterations
    )


# ---------------------------------------------------------------------------
# Centered kernel
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _centered_table(model: DiscreteJointModel) -> np.ndarray:
    """Table of the centered kernel for discrete models: the LLR with both
    marginal-conditional means and KL(Q||P) subtracted, so its mean under the
    independence law is exactly zero."""
    model.require_mutual_continuity("centered_kernel")
    model.require_positive_marginal("centered_kernel")
    q = model.marginal
    table = model.llr_table
    col_mean = q @ table  # E_{A ~ q}[llr(A, y)], indexed by y
    row_mean = table @ q  # E_{B ~ q}[llr(x, B)], indexed by x
    kl_qp = kl_divergences(model).kl_qp
    return _frozen_array(table - col_mean[None, :] - row_mean[:, None] - kl_qp)


def centered_kernel(model: JointModel, x, y) -> float:
    """Centered log-likelihood ratio; the sum test thresholds its grand sum.

    For the Gaussian family the centering collapses to
    rho / (1 - rho^2) * x * y.
    """
    llr(model, x, y)  # the observation contract, and the support
    if isinstance(model, GaussianModel):
        rho = model.rho
        return rho / (1.0 - rho * rho) * float(x) * float(y)
    return float(_centered_table(model)[int(x), int(y)])


def var_q_centered_kernel(model: JointModel) -> float:
    """Exact variance of the centered kernel under the independence law."""
    if isinstance(model, GaussianModel):
        rho = model.rho
        c = 1.0 - rho * rho
        return rho * rho / (c * c)
    table = _centered_table(model)
    q = model.marginal
    return float(q @ (table * table) @ q)
