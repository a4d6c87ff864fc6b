"""Generative models for matched database rows, and seeded samplers.

A model describes the law of one matched coordinate pair ``(X, Y)``: a joint
distribution with equal symmetric marginals, together with the independence
law obtained as the product of those marginals.  Two families are supported:

* :class:`DiscreteJointModel`, an ``m x m`` symmetric probability matrix over
  index-coded symbols ``0..m-1`` (with :class:`BernoulliModel` as the
  parametric 2x2 special case), and
* :class:`GaussianModel`, standard bivariate normal with correlation ``rho``.

On top of the model the module checks data against it (:func:`observations`),
evaluates the single-letter log-likelihood ratio of the joint law against
independence and its sum over a feature row, and samples ``n x d``
observation matrices under the independent (null) and row-permuted dependent
(alternative) hypotheses, deterministically in a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from . import rng as rngmod
from .errors import DegenerateModelError, DomainError, ValidationError

PROB_TOL = 1e-12
SYMMETRY_TOL = 1e-12


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DiscreteJointModel:
    """Symmetric joint law over a finite alphabet with equal marginals.

    ``joint[x, y]`` is the probability of the matched pair ``(x, y)``; the
    shared marginal is the vector of row sums.  Construction validates
    nonnegativity, normalisation, and symmetry.  Zero marginal entries and
    broken mutual absolute continuity are tolerated here (some parameter
    corners produce them) but rejected by every operation that needs the
    likelihood ratio to be finite on the whole product support.
    """

    joint: np.ndarray

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=np.float64)
        if joint.ndim != 2 or joint.shape[0] != joint.shape[1] or joint.shape[0] < 1:
            raise ValidationError(
                f"joint must be a square matrix, got shape {joint.shape}"
            )
        if np.any(joint < 0) or not np.all(np.isfinite(joint)):
            raise ValidationError("joint entries must be finite and >= 0")
        total = float(joint.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(
                f"joint must sum to 1 within {PROB_TOL:g}, got {total!r}"
            )
        asym = float(np.abs(joint - joint.T).max())
        if asym > SYMMETRY_TOL:
            raise ValidationError(
                f"joint must be symmetric within {SYMMETRY_TOL:g}; "
                f"max |joint - joint.T| = {asym:g}"
            )
        object.__setattr__(self, "joint", _frozen_array(joint))

    @property
    def alphabet_size(self) -> int:
        return self.joint.shape[0]

    @cached_property
    def marginal(self) -> np.ndarray:
        """Shared marginal q: row sums of the joint (equal to column sums)."""
        return _frozen_array(self.joint.sum(axis=1))

    @cached_property
    def positive_marginal(self) -> bool:
        return bool(np.all(self.marginal > 0))

    @cached_property
    def mutually_absolutely_continuous(self) -> bool:
        """True when joint > 0 exactly where the product marginal is > 0."""
        q = self.marginal
        return bool(np.array_equal(self.joint > 0, np.outer(q, q) > 0))

    @cached_property
    def is_independent(self) -> bool:
        q = self.marginal
        return bool(np.abs(self.joint - np.outer(q, q)).max() <= 1e-14)

    @cached_property
    def llr_table(self) -> np.ndarray:
        """log joint[x,y] - log(q[x] q[y]); -inf outside the joint support."""
        q = self.marginal
        prod = np.outer(q, q)
        table = np.full_like(self.joint, -np.inf)
        mask = self.joint > 0
        # cells with joint > 0 but zero marginal mass cannot occur
        table[mask] = np.log(self.joint[mask]) - np.log(prod[mask])
        return _frozen_array(table)

    @cached_property
    def marginal_cdf(self) -> np.ndarray:
        """CDF of the marginal q, its last entry exactly 1, for drawing
        symbols by inversion."""
        cdf = np.cumsum(self.marginal)
        cdf[-1] = 1.0
        return _frozen_array(cdf)

    @cached_property
    def conditional_cdf(self) -> np.ndarray:
        """Row-wise CDF of Y given X = x; rows with q(x) = 0 are never drawn
        (their joint rows are all zero, so the division guard is enough)."""
        q = self.marginal
        safe_q = np.where(q > 0, q, 1.0)
        cdf = np.cumsum(self.joint / safe_q[:, None], axis=1)
        cdf[q > 0, -1] = 1.0
        return _frozen_array(cdf)

    def require_mutual_continuity(self, operation: str) -> None:
        if not self.mutually_absolutely_continuous:
            raise DegenerateModelError(
                f"{operation} requires mutual absolute continuity between the "
                "joint law and the product of marginals; this model has a zero "
                "joint cell with positive marginal mass"
            )

    def require_positive_marginal(self, operation: str) -> None:
        if not self.positive_marginal:
            raise DegenerateModelError(
                f"{operation} requires a strictly positive marginal; entry "
                f"{int(np.argmin(self.marginal))} of q is zero"
            )


@dataclass(frozen=True, eq=False)
class BernoulliModel(DiscreteJointModel):
    """2x2 model: X ~ Bernoulli(tau * p) and Y | X=1 ~ Bernoulli(tau),
    Y | X=0 ~ Bernoulli(tau p (1 - tau) / (1 - tau p)).  Symbols are 0/1."""

    tau: float = 0.0
    p: float = 0.5


def make_bernoulli(tau: float, p: float) -> BernoulliModel:
    """Build the correlated-Bernoulli joint law for parameters (tau, p).

    The corners tau in {0, 1} are accepted (they satisfy the construction)
    but yield degenerate models that likelihood-ratio based operations
    reject.
    """
    tau = float(tau)
    p = float(p)
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"tau must lie in [0, 1], got {tau!r}")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie in the open interval (0, 1), got {p!r}")
    # P(X=1, Y=1) = tau*p * tau, off-diagonals tau*p*(1-tau), remainder on (0,0).
    j11 = tau * tau * p
    j10 = tau * p * (1.0 - tau)
    j00 = 1.0 - 2.0 * tau * p + tau * tau * p
    joint = np.array([[j00, j10], [j10, j11]])
    return BernoulliModel(joint=joint, tau=tau, p=p)


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Standard bivariate normal pair with correlation rho, |rho| < 1.

    The likelihood kernel against independence is the Mehler kernel; its
    logarithm is evaluated in closed form by :func:`llr`.
    """

    rho: float

    def __post_init__(self):
        rho = float(self.rho)
        if not math.isfinite(rho) or not -1.0 < rho < 1.0:
            raise ValidationError(f"rho must satisfy |rho| < 1, got {rho!r}")
        if rho == 0.0:
            raise ValidationError("rho must be nonzero (rho = 0 is the null law)")
        object.__setattr__(self, "rho", rho)


JointModel = Union[DiscreteJointModel, GaussianModel]


@dataclass(frozen=True, eq=False)
class DatabasePair:
    """Two n x d observation matrices, plus the hidden row permutation when
    the pair was generated under the dependent hypothesis."""

    x: np.ndarray
    y: np.ndarray
    hidden_sigma: Optional[np.ndarray] = None

    def __post_init__(self):
        x = np.asarray(self.x)
        y = np.asarray(self.y)
        if x.ndim != 2 or y.ndim != 2 or x.shape != y.shape:
            raise ValidationError(
                f"x and y must be matrices of equal shape, got {x.shape} and {y.shape}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.hidden_sigma is not None:
            sigma = validate_permutation(self.hidden_sigma, x.shape[0])
            object.__setattr__(self, "hidden_sigma", sigma)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def validate_permutation(sigma, n: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.shape != (n,) or not np.array_equal(np.sort(sigma), np.arange(n)):
        raise ValidationError(f"sigma must be a permutation of 0..{n - 1}")
    sigma.setflags(write=False)
    return sigma


# ---------------------------------------------------------------------------
# Correlation and likelihood ratios
# ---------------------------------------------------------------------------


def pearson_rho(model: DiscreteJointModel) -> float:
    """Pearson correlation of the index-coded pair under the joint law.

    For :class:`BernoulliModel` this equals tau (1 - p) / (1 - tau p).
    """
    if not isinstance(model, DiscreteJointModel):
        raise ValidationError("pearson_rho is defined for discrete models")
    q = model.marginal
    values = np.arange(model.alphabet_size, dtype=np.float64)
    mean = float(q @ values)
    var = float(q @ values**2) - mean * mean
    if var <= 0.0:
        raise DegenerateModelError(
            "marginal has zero variance; correlation is undefined"
        )
    exy = float(values @ model.joint @ values)
    return (exy - mean * mean) / var


def observations(model: JointModel, values) -> np.ndarray:
    """The model's observations as an array: finite float64 for the Gaussian
    family, int64 symbols in ``0..m-1`` for a discrete model.  Anything else
    raises :class:`DomainError`, with one message per fault; every entry
    point that reads data checks it here."""
    values = np.asarray(values)
    if isinstance(model, GaussianModel):
        values = values.astype(np.float64, copy=False)
        if not np.all(np.isfinite(values)):
            raise DomainError("gaussian observations must be finite")
        return values
    if values.dtype.kind == "f" and not np.all(
        np.isfinite(values) & (np.trunc(values) == values)
    ):
        raise DomainError("discrete observations must be integers")
    symbols = values.astype(np.int64, copy=False)
    m = model.alphabet_size
    if symbols.size and (symbols.min() < 0 or symbols.max() >= m):
        raise DomainError(f"observations must be symbols in 0..{m - 1}")
    return symbols


def _gaussian_llr(rho: float, d, xx, yy, xy):
    """Gaussian row-pair LLR over d features, from the squared norms ``xx``,
    ``yy`` of the two rows and their inner product ``xy``, which an array
    ``xy`` is overwritten with.  The result is built in place on ``xx +
    yy``, in the operation order of ``-rho^2 (xx + yy) + 2 rho xy``, over
    2c, plus the constant, so it has the same bits as that expression."""
    c = 1.0 - rho * rho
    t = xx + yy
    t *= -rho * rho
    xy *= 2.0 * rho
    t += xy
    t /= 2.0 * c
    t += -0.5 * d * math.log(c)
    return t


def llr(model: JointModel, x, y) -> float:
    """Single-letter log-likelihood ratio log P(x, y) / (q(x) q(y))."""
    return pair_llr(model, [x], [y])


def pair_llr(model: JointModel, x_row, y_row) -> float:
    """Row-level log-likelihood ratio: the sum of llr over the d features."""
    x_row = observations(model, x_row)
    y_row = observations(model, y_row)
    if x_row.ndim != 1 or y_row.ndim != 1 or x_row.shape != y_row.shape:
        raise ValidationError(
            f"rows must be 1-D and of equal length, got shapes "
            f"{x_row.shape} and {y_row.shape}"
        )
    if x_row.size < 1:
        raise ValidationError("rows must have at least one feature")
    if isinstance(model, GaussianModel):
        xx, yy, xy = x_row @ x_row, y_row @ y_row, x_row @ y_row
        return float(_gaussian_llr(model.rho, x_row.size, xx, yy, xy))
    values = model.llr_table[x_row, y_row]
    if not np.all(np.isfinite(values)):
        raise DomainError("row pair hits a zero-probability cell of the joint law")
    return float(values.sum())


def pair_llr_matrix(model: JointModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All-pairs matrix C[i, j] = pair_llr(model, x[i], y[j]) of one pair of
    databases, or of each pair of a stack: x and y of shape ``(..., n, d)``
    give ``(..., n, n)``, each matrix bit for bit that of its pair alone.

    Evaluated with dense linear algebra: one BLAS product a pair for the
    Gaussian quadratic form.  A discrete matrix is ``sum_ab table[a, b]
    N_ab`` over the co-occurrence counts ``N_ab[i, j]`` of the feature
    pairs ``(a, b)`` of rows x[i] and y[j]: the (m - 1)^2 counts with a, b
    < m - 1 are one-hot BLAS products, the rest follow from the rows'
    symbol counts (``N_{a,m-1} = cx_a - sum_b N_ab`` and ``N_{m-1,b} = cy_b
    - sum_a N_ab``), and the terms are added in row-major (a, b) order.
    Every count is an integer of at most d, exact in float64, so the matrix
    has the bits of the m^2 products summed in that order.  A Bernoulli pair
    takes one product; at its peak the call holds m + 3 arrays of the
    result's shape.
    """
    if isinstance(model, DiscreteJointModel):
        model.require_mutual_continuity("pair_llr_matrix")
        model.require_positive_marginal("pair_llr_matrix")
    x = observations(model, x)
    y = observations(model, y)
    if (
        x.ndim < 2
        or x.ndim != y.ndim
        or x.shape[:-2] != y.shape[:-2]
        or x.shape[-1] != y.shape[-1]
    ):
        raise ValidationError(
            "x and y must be matrices, or stacks of them of one lead shape, "
            "with the same feature count"
        )
    y_t = np.swapaxes(y, -1, -2)
    if isinstance(model, GaussianModel):
        rx = np.einsum("...ij,...ij->...i", x, x)
        ry = np.einsum("...ij,...ij->...i", y, y)
        return _gaussian_llr(
            model.rho, x.shape[-1], rx[..., :, None], ry[..., None, :], x @ y_t
        )
    table = model.llr_table
    last = model.alphabet_size - 1
    x_hot = [(x == a).astype(np.float64) for a in range(last)]
    y_hot = [(y_t == b).astype(np.float64) for b in range(last)]
    # the rows' symbol counts, the last symbol's by difference
    cx = [xa.sum(axis=-1)[..., :, None] for xa in x_hot]
    cy = [yb.sum(axis=-2)[..., None, :] for yb in y_hot]
    cx.append(x.shape[-1] - sum(cx, 0.0))
    # N_{last,b} = cy_b - sum_a N_ab, completed as the products arrive
    last_row = list(cy)
    out = np.zeros(x.shape[:-1] + y.shape[-2:-1])
    for a in range(last + 1):
        row = cx[a]  # N_{a,last} = cx_a - sum_b N_ab
        for b in range(last):
            count = x_hot[a] @ y_hot[b] if a < last else last_row[b]
            out += table[a, b] * count
            row = row - count
            if a < last:
                last_row[b] = last_row[b] - count
        out += table[a, last] * row
    return out


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _draw_marginal(model: DiscreteJointModel, rng, shape) -> np.ndarray:
    """Symbols by inversion of the marginal CDF: each uniform u counts the
    CDF entries at or below it, as ``searchsorted(cdf, u, side="right")``
    does; the last entry, exactly 1, lies above every u < 1."""
    u = rng.random(shape)
    symbols = np.zeros(shape, np.int64)
    for level in model.marginal_cdf[:-1]:
        symbols += u >= level
    return symbols


def sample_null_rng(
    model: JointModel, n: int, d: int, rng: np.random.Generator
) -> DatabasePair:
    """Sampler core for the independent hypothesis, driven by an explicit
    generator (the risk harness feeds per-trial substreams through here)."""
    _check_dims(n, d)
    if isinstance(model, GaussianModel):
        x = rng.standard_normal((n, d))
        y = rng.standard_normal((n, d))
    else:
        x = _draw_marginal(model, rng, (n, d))
        y = _draw_marginal(model, rng, (n, d))
    return DatabasePair(x=x, y=y)


def sample_alt_rng(
    model: JointModel,
    n: int,
    d: int,
    rng: np.random.Generator,
    sigma=None,
) -> DatabasePair:
    """Sampler core for the dependent hypothesis.

    Draws sigma by Fisher-Yates from the same stream when absent, then the
    matched pairs: row i of x pairs with row sigma[i] of y.
    """
    _check_dims(n, d)
    if sigma is None:
        sigma = rngmod.fisher_yates(rng, n)
        sigma.setflags(write=False)
    else:
        sigma = validate_permutation(sigma, n)
    if isinstance(model, GaussianModel):
        rho = model.rho
        x = rng.standard_normal((n, d))
        z = rng.standard_normal((n, d))
        paired = rho * x + math.sqrt(1.0 - rho * rho) * z
    else:
        x = _draw_marginal(model, rng, (n, d))
        u = rng.random((n, d))
        # inversion of the conditional CDF of row x, as for the marginal
        paired = np.zeros((n, d), np.int64)
        for levels in model.conditional_cdf[:, :-1].T:
            paired += levels.take(x) <= u
    y = np.empty_like(paired)
    y[sigma] = paired
    pair = DatabasePair(x=x, y=y)
    # sigma is a permutation already, drawn or checked above
    object.__setattr__(pair, "hidden_sigma", sigma)
    return pair


def sample_null(model: JointModel, n: int, d: int, seed: int) -> DatabasePair:
    """Two independent n x d matrices of i.i.d. marginal draws."""
    return sample_null_rng(model, n, d, rngmod.substream(seed, rngmod.SAMPLE_NULL))


def sample_alt(
    model: JointModel, n: int, d: int, seed: int, sigma=None
) -> DatabasePair:
    """Row-permuted dependent matrices: (x[i], y[sigma[i]]) are i.i.d. joint
    draws across rows and features; sigma is recorded on the result."""
    return sample_alt_rng(
        model, n, d, rngmod.substream(seed, rngmod.SAMPLE_ALT), sigma=sigma
    )


def _check_dims(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValidationError(f"n and d must be >= 1, got n={n}, d={d}")
