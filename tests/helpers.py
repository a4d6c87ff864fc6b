"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the production code paths they check:
quadrature instead of closed forms, factorial enumeration instead of the
assignment solver and the permanent's subset DP, a scalar loop instead of the
solver's row-wise array scan, one matrix at a time instead of the
permanent's stacked subset DP, direct database enumeration instead of cycle
types, a sum over cycle types instead of the cycle-index recurrence, one
bounded draw per swap instead of Fisher-Yates's single array draw,
whole-chunk draws and array expressions instead of the Monte-Carlo pd
kernel's blocks, a recursion over compositions instead of the exact pd's
walk over atoms, and the all-pairs Gaussian LLR matrix written out inline
instead of through the model's shared row-pair formula.
"""

import importlib.util
import itertools
import math
import pathlib
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from dbdetect import rng as rngmod
from dbdetect.detectors import _PERMANENT_CHUNK, _PERMANENT_MIN_EXP
from dbdetect.errors import CapacityError
from dbdetect.exponents import llr_atoms
from dbdetect.models import DiscreteJointModel, GaussianModel, make_bernoulli
from dbdetect.spectral import SpectralProfile

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

DIAG_JOINT = np.array([[0.4, 0.1], [0.1, 0.4]])


def diag_model() -> DiscreteJointModel:
    return DiscreteJointModel(joint=DIAG_JOINT.copy())


def independent_model(q=(0.5, 0.5)) -> DiscreteJointModel:
    q = np.asarray(q, dtype=float)
    return DiscreteJointModel(joint=np.outer(q, q))


def bern55():
    return make_bernoulli(0.5, 0.5)


def gauss(rho=0.6) -> GaussianModel:
    return GaussianModel(rho=rho)


def random_discrete_model(rng: np.random.Generator, m: int) -> DiscreteJointModel:
    """Random strictly positive symmetric joint law on m symbols."""
    upper = rng.uniform(0.05, 1.0, size=(m, m))
    sym = upper + upper.T
    return DiscreteJointModel(joint=sym / sym.sum())


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature oracle for standard-normal expectations
# ---------------------------------------------------------------------------


def gauss_expect_2d(f, nodes: int = 64):
    """E[f(X, Y)] for X, Y independent standard normal, by 2-D Gauss-Hermite
    quadrature (probabilists' weights)."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    return float(np.sum(ww * f(xx, yy)))


# One bad value per fault of the observation contract: the kind of model it
# breaks, the value, and the message every entry point that reads data raises
BAD_OBSERVATIONS = {
    "gaussian-nan": ("gaussian", math.nan, "gaussian observations must be finite"),
    "gaussian-inf": ("gaussian", math.inf, "gaussian observations must be finite"),
    "gaussian-minus-inf": (
        "gaussian", -math.inf, "gaussian observations must be finite"
    ),
    "discrete-half": ("discrete", 0.5, "discrete observations must be integers"),
    "discrete-minus-one": ("discrete", -1, "observations must be symbols in 0..1"),
    "discrete-m": ("discrete", 2, "observations must be symbols in 0..1"),
}


def bad_observation(case: str):
    """(model, bad value, message) of a ``BAD_OBSERVATIONS`` case; the
    discrete cases break ``diag_model()``, whose alphabet is {0, 1}."""
    kind, bad, message = BAD_OBSERVATIONS[case]
    return (gauss(0.6) if kind == "gaussian" else diag_model()), bad, message


def with_bad_entry(bad, shape) -> np.ndarray:
    """Zeros of ``bad``'s dtype (valid data for either family), with
    ``bad`` in the last entry."""
    out = np.zeros(shape, dtype=np.asarray(bad).dtype)
    out.flat[-1] = bad
    return out


def gaussian_pair_llr_matrix(rho: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The all-pairs Gaussian LLR matrix written out inline, in the operation
    order ``pair_llr_matrix`` keeps: its output matches this bit for bit."""
    xf = x.astype(np.float64)
    yf = y.astype(np.float64)
    c = 1.0 - rho * rho
    rx = np.einsum("ij,ij->i", xf, xf)
    ry = np.einsum("ij,ij->i", yf, yf)
    quad = -rho * rho * (rx[:, None] + ry[None, :]) + 2.0 * rho * (xf @ yf.T)
    return -0.5 * x.shape[1] * math.log(c) + quad / (2.0 * c)


def gauss_llr_values(rho, x, y):
    c = 1.0 - rho * rho
    return -0.5 * np.log(c) + (-(x * x + y * y) * rho * rho + 2.0 * rho * x * y) / (
        2.0 * c
    )


def psi_p_gaussian_direct(rho: float, lam: float) -> float:
    """Independent closed form of the Gaussian psi_p, kept for
    cross-validation against the tilt identity:
    -(lam / 2) log(1 - rho^2) - (1/2) log(1 - lam^2 rho^2)."""
    if not abs(lam) < 1.0 / abs(rho):
        raise ValueError(f"|lam| must be below 1/|rho| = {1.0 / abs(rho):g}")
    return -0.5 * lam * math.log(1.0 - rho * rho) - 0.5 * math.log(
        1.0 - lam * lam * rho * rho
    )


# ---------------------------------------------------------------------------
# Exact law of the Gaussian sum test
# ---------------------------------------------------------------------------


def chi2_difference_sf(a: float, b: float, t: float, d: int) -> float:
    """P[a A - b B >= t] for A, B independent chi-square with d degrees of
    freedom and a, b > 0.

    Below y0 = max(0, -t / b) every value of B decides the event, so the
    head P[B < y0] is exact; above it, P[A >= (t + b B) / a] is integrated
    by 1-D quadrature over B's survival level w = P[B >= y], from 0 to
    P[B >= y0].  (Integrating from 0 over B's quantile instead drops the
    far tail: it gave exactly 1 at a = b = 0.475, t = -58.2, d = 100.)"""
    from scipy import integrate, stats

    y0 = max(0.0, -t / b)

    def tail(w):
        return stats.chi2.sf((t + b * stats.chi2.isf(w, d)) / a, d)

    body, _ = integrate.quad(
        tail, 0.0, stats.chi2.sf(y0, d), epsabs=1e-16, epsrel=1e-13, limit=200
    )
    return stats.chi2.cdf(y0, d) + body


def sum_test_exact_risk(d: int, rho: float) -> float:
    """Exact fpr + fnr of the Gaussian sum test at its default threshold,
    for 0 <= rho < 1 and any n.

    The statistic is rho/(1-rho^2) * n * sum_k u_k v_k, where u_k, v_k are
    the column sums over sqrt(n): standard normal with correlation 0 under
    the null and rho under the alternative (a row permutation leaves column
    sums unchanged).  The threshold d*n*skl = d*n*rho^2/(2(1-rho^2)) thus
    decides sum_k u_k v_k >= d*rho/2, and u v = (1+rho)/2 A - (1-rho)/2 B
    with A, B independent chi-square(1).
    """
    t = 0.5 * d * rho
    fpr = chi2_difference_sf(0.5, 0.5, t, d)
    fnr = 1.0 - chi2_difference_sf(0.5 * (1.0 + rho), 0.5 * (1.0 - rho), t, d)
    return fpr + fnr


# ---------------------------------------------------------------------------
# Stream oracles
# ---------------------------------------------------------------------------


def scalar_fisher_yates(rng: np.random.Generator, n: int) -> np.ndarray:
    """Fisher-Yates with one scalar bounded draw per swap, i = n-1 down to
    1.  ``rng.fisher_yates`` must return the same permutation and leave the
    generator in the same state."""
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def full_chunk_monte_carlo_pd(
    model: GaussianModel, d: int, tau_count: float, samples: int, seed: int
) -> tuple[float, float]:
    """The Gaussian count-test pd estimate with each chunk's arithmetic as
    one whole-chunk array expression.  ``detectors._monte_carlo_pd`` draws
    the same stream and must return the same ``(pd, stderr)``."""
    rho = model.rho
    c = 1.0 - rho * rho
    rng = rngmod.substream(seed, rngmod.PD_ESTIMATE)
    target = d * tau_count
    const = -0.5 * d * math.log(c)
    hits = 0
    chunk = max(1, min(samples, 4_000_000 // max(d, 1)))
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        a = rng.standard_normal((size, d))
        b = rho * a + math.sqrt(c) * rng.standard_normal((size, d))
        quad = (-(a * a + b * b) * rho * rho + 2.0 * rho * a * b).sum(axis=1)
        totals = const + quad / (2.0 * c)
        hits += int((totals >= target).sum())
        done += size
    pd = hits / samples
    return pd, math.sqrt(pd * (1.0 - pd) / samples)


def recursive_exact_pd(model: DiscreteJointModel, d: int, tau_count: float) -> float:
    """The exact count-test pd by recursion over the compositions of d over
    the distinct LLR atoms, with multinomial weights.  ``detectors._exact_pd``
    walks the same compositions in the same order with arrays and must
    return the same float.  The recursion is as deep as there are atoms, and
    its ``sum`` adds left to right, as the walk does, up to Python 3.11
    (from 3.12 on the builtin compensates floats)."""
    atoms = llr_atoms(model)
    k = len(atoms)
    values = atoms.values
    log_p = np.log(atoms.p_probs)
    target = d * tau_count
    total = 0.0

    counts = [0] * k

    def rec(pos: int, remaining: int, value_acc: float, log_prob_acc: float):
        nonlocal total
        if pos == k - 1:
            value = value_acc + remaining * values[pos]
            if value >= target:
                log_coef = (
                    math.lgamma(d + 1)
                    - sum(math.lgamma(c + 1) for c in counts[: k - 1])
                    - math.lgamma(remaining + 1)
                )
                total += math.exp(log_coef + log_prob_acc + remaining * log_p[pos])
            return
        for c in range(remaining + 1):
            counts[pos] = c
            rec(pos + 1, remaining - c, value_acc + c * values[pos], log_prob_acc + c * log_p[pos])
        counts[pos] = 0

    rec(0, d, 0.0, 0.0)
    return min(1.0, total)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def brute_force_max_assignment(weights: np.ndarray):
    """Factorial enumeration of the maximum-weight perfect assignment."""
    n = weights.shape[0]
    best_value = -math.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        value = sum(weights[i, perm[i]] for i in range(n))
        if value > best_value:
            best_value = value
            best_perm = perm
    return best_perm, best_value


def scalar_sap_min_assignment(cost: np.ndarray) -> np.ndarray:
    """Row-to-column map of a minimum-cost perfect assignment, by the scalar
    shortest-augmenting-path loop (one Dijkstra-style augmentation per row,
    one column at a time).  ``assignment.solve_max`` runs the same method
    with whole-row array operations and must return the same map, ties
    included."""
    c = np.asarray(cost, dtype=np.float64)
    n = c.shape[0]
    inf = np.inf
    u = np.zeros(n + 1)  # row potentials (index n is the virtual row slot)
    v = np.zeros(n + 1)  # column potentials (index n is the virtual column)
    col_to_row = np.full(n + 1, n, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)

    for row in range(n):
        col_to_row[n] = row
        j0 = n
        minv = np.full(n + 1, inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_to_row[j0]
            delta = inf
            j1 = -1
            for j in range(n):
                if used[j]:
                    continue
                cur = c[i0, j] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[col_to_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if col_to_row[j0] == n:
                break
        while j0 != n:
            j1 = way[j0]
            col_to_row[j0] = col_to_row[j1]
            j0 = j1

    row_to_col = np.empty(n, dtype=np.int64)
    row_to_col[col_to_row[:n]] = np.arange(n)
    return row_to_col


def brute_force_second_moment(model: DiscreteJointModel, n: int, d: int) -> float:
    """E under the null of the squared permutation-mixture likelihood ratio,
    by direct enumeration of every database pair: sum over states of
    P1(x, y)^2 / P0(x, y)."""
    m = model.alphabet_size
    q = model.marginal
    rows = np.array(list(itertools.product(range(m), repeat=d)), dtype=np.int64)
    row_q = np.prod(q[rows], axis=1)
    pair_p = np.ones((rows.shape[0], rows.shape[0]))
    for feature in range(d):
        symbols = rows[:, feature]
        pair_p *= model.joint[symbols[:, None], symbols[None, :]]
    configs = np.array(
        list(itertools.product(range(rows.shape[0]), repeat=n)), dtype=np.int64
    )
    p0_side = np.prod(row_q[configs], axis=1)
    perms = list(itertools.permutations(range(n)))
    p1 = np.zeros((configs.shape[0], configs.shape[0]))
    for perm in perms:
        contrib = np.ones_like(p1)
        for i in range(n):
            contrib *= pair_p[configs[:, i][:, None], configs[:, perm[i]][None, :]]
        p1 += contrib
    p1 /= len(perms)
    p0 = p0_side[:, None] * p0_side[None, :]
    mask = p0 > 0
    return float((p1[mask] ** 2 / p0[mask]).sum())


def brute_force_tv(model: DiscreteJointModel, n: int, d: int) -> float:
    """Total variation between null and permutation-mixture laws by direct
    enumeration (independent of the production enumeration code)."""
    m = model.alphabet_size
    q = model.marginal

    symbols = range(m)
    total = 0.0
    perms = list(itertools.permutations(range(n)))
    for x_flat in itertools.product(symbols, repeat=n * d):
        x = np.array(x_flat).reshape(n, d)
        px = float(np.prod(q[x]))
        for y_flat in itertools.product(symbols, repeat=n * d):
            y = np.array(y_flat).reshape(n, d)
            p0 = px * float(np.prod(q[y]))
            p1 = 0.0
            for perm in perms:
                prod = 1.0
                for i in range(n):
                    for ell in range(d):
                        prod *= model.joint[x[i, ell], y[perm[i], ell]]
                p1 += prod
            p1 /= len(perms)
            total += abs(p0 - p1)
    return 0.5 * total


# Integer partitions of n index the cycle types of S_n; ``cycle_types`` lists
# them, and p(60) ~ 1e6 keeps that list in memory and under a few seconds.
PARTITION_CAP = 60


@dataclass(frozen=True, eq=False)
class CycleType:
    """One conjugacy class of S_n: counts[k] permutation cycles of length k,
    and the probability that a uniform permutation has this cycle type,
    1 / prod_k (k^{N_k} N_k!)."""

    counts: Mapping[int, int]
    probability: float

    @property
    def n(self) -> int:
        return sum(k * v for k, v in self.counts.items())


def _iter_partitions(n: int) -> Iterator[dict]:
    """Yield the integer partitions of n as {part: multiplicity} dicts."""

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield []
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - part, part):
                yield [part] + rest

    for parts in rec(n, n):
        counts: dict = {}
        for part in parts:
            counts[part] = counts.get(part, 0) + 1
        yield counts


def _cycle_type_probability(counts: Mapping[int, int]) -> float:
    log_p = 0.0
    for k, nk in counts.items():
        log_p -= nk * math.log(k) + math.lgamma(nk + 1)
    return math.exp(log_p)


def cycle_types(n: int) -> list[CycleType]:
    """All cycle types of S_n with their probabilities (summing to 1)."""
    if not 1 <= n <= PARTITION_CAP:
        raise CapacityError(
            f"cycle-type enumeration supports 1 <= n <= {PARTITION_CAP}, got {n}"
        )
    return [
        CycleType(counts=c, probability=_cycle_type_probability(c))
        for c in _iter_partitions(n)
    ]


def partition_sum_second_moment(profile: SpectralProfile, n: int, d: int) -> float:
    """Null second moment as a streaming log-sum-exp over the cycle types of
    S_n: the expectation of prod_k g_k^{d N_k} under a uniform permutation,
    with g_k the sum of 2k-th eigenvalue powers.  Small n only (p(n) terms)."""
    lam_sq = profile.eigenvalues.astype(np.float64) ** 2
    log_g = [math.log(float(np.sum(lam_sq**k))) for k in range(1, n + 1)]
    running_max = -math.inf
    running_sum = 0.0
    for cycle_type in cycle_types(n):
        term = 0.0
        for k, nk in cycle_type.counts.items():
            term -= nk * math.log(k) + math.lgamma(nk + 1)
            term += d * nk * log_g[k - 1]
        if term <= running_max:
            running_sum += math.exp(term - running_max)
        else:
            running_sum = running_sum * math.exp(running_max - term) + 1.0
            running_max = term
    return max(1.0, math.exp(running_max + math.log(running_sum)))


def per_pair_log_permanent_ratio(c: np.ndarray) -> float:
    """log(perm(exp c) / n!) of one finite square matrix by the subset DP
    over column sets, one matrix at a time, with the same frexp scaling and
    level chunks as ``detectors._log_permanent_ratios``.  The stacked kernel
    runs this DP for a whole stack and must return each of its values bit
    for bit."""
    n = c.shape[0]
    shift = c.max(axis=1)
    log2_a = np.maximum((c - shift[:, None]) / math.log(2.0), _PERMANENT_MIN_EXP)
    a_exp = np.floor(log2_a)
    a_mant = np.exp2(log2_a - a_exp)
    a_exp = a_exp.astype(np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    popcount = np.bitwise_count(masks)
    by_level = np.argsort(popcount, kind="stable")
    level_start = np.concatenate(([0], np.cumsum(np.bincount(popcount))))
    mant = np.zeros(1 << n)
    expo = np.zeros(1 << n, dtype=np.int64)
    mant[0] = 1.0
    bits = np.arange(n, dtype=np.int64)
    for k in range(1, n + 1):
        row_mant, row_exp = a_mant[k - 1], a_exp[k - 1]
        for lo in range(level_start[k], level_start[k + 1], _PERMANENT_CHUNK):
            level = by_level[lo : min(lo + _PERMANENT_CHUNK, level_start[k + 1])]
            cols = np.nonzero((level[:, None] >> bits) & 1)[1].reshape(-1, k)
            src = level[:, None] ^ (1 << cols)
            term_exp = expo[src] + row_exp[cols]
            top = term_exp.max(axis=1)
            total = np.ldexp(mant[src] * row_mant[cols], term_exp - top[:, None])
            level_mant, level_exp = np.frexp(total.sum(axis=1))
            mant[level] = level_mant
            expo[level] = top + level_exp
    fact_mant, fact_exp = math.frexp(float(math.factorial(n)))
    return (
        float(shift.sum())
        + math.log(mant[-1] / fact_mant)
        + (int(expo[-1]) - fact_exp) * math.log(2.0)
    )


def permutation_log_statistic(c: np.ndarray) -> float:
    """log(perm(exp c) / n!) by enumerating all n! row matchings."""
    n = c.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    totals = c[np.arange(n)[None, :], perms].sum(axis=1)
    top = float(totals.max())
    return top + math.log(float(np.exp(totals - top).sum())) - math.lgamma(n + 1)


def dense_exact_tv(model: DiscreteJointModel, n: int, d: int) -> float:
    """Total variation between null and permutation-mixture laws over every
    ordered database pair, with both laws held as dense
    (m^(nd), m^(nd)) arrays."""
    m = model.alphabet_size
    q = model.marginal
    rows = np.array(list(itertools.product(range(m), repeat=d)), dtype=np.int64)
    row_q = np.prod(q[rows], axis=1)
    pair_p = np.ones((rows.shape[0], rows.shape[0]))
    for feature in range(d):
        symbols = rows[:, feature]
        pair_p *= model.joint[symbols[:, None], symbols[None, :]]
    configs = np.array(
        list(itertools.product(range(rows.shape[0]), repeat=n)), dtype=np.int64
    )
    p0_side = np.prod(row_q[configs], axis=1)
    p1 = np.zeros((configs.shape[0], configs.shape[0]))
    for perm in itertools.permutations(range(n)):
        contrib = np.ones_like(p1)
        for i in range(n):
            contrib *= pair_p[configs[:, i][:, None], configs[:, perm[i]][None, :]]
        p1 += contrib
    p1 /= math.factorial(n)
    p0 = p0_side[:, None] * p0_side[None, :]
    return 0.5 * float(np.abs(p0 - p1).sum())


# ---------------------------------------------------------------------------
# The benchmark's worker, loaded from its file
# ---------------------------------------------------------------------------


def load_perfbench_worker():
    """``perfbench/worker.py`` as a fresh module (perfbench is not a
    package).  Its dataclasses look their module up while it runs, and it
    imports ``tracer.py`` by its bare name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", PERFBENCH / "worker.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return module
