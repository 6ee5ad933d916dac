"""Univariate extreme-value machinery.

Provides the generalized Pareto tail fit for threshold excesses, the
kernel-body/GPD-tail mixture marginal, the transform onto standard Laplace
margins used by the dependence model, and the mean-residual-life threshold
diagnostic.

The tail is fitted by maximum likelihood on the excesses with a
derivative-free simplex search over (log scale, shape) and random restarts;
an optional interval-censored variant treats each excess as known only to the
data resolution.  The exceedance rate entering the mixture is 1 minus the
kernel CDF at the threshold (the empirical proportion is kept alongside as a
diagnostic).

The kernel body's CDF is an O(n) sum per value.  The Laplace maps therefore
read log F and log(1 - F) from a table built once per marginal
(:func:`kde.cdf_table`: exact sums at nodes a quarter kernel deviation apart,
septic Hermite pieces between them, within about 1e-10 of the exact sums).
Quantiles in the body invert the table and then take Newton steps on the
exact kernel CDF, so they are exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kde
from .errors import FitError, InsufficientTailError, ValidationError

XI_ZERO = 1e-8  # below this |shape|, use the exponential limit
_BIG = 1e300  # out-of-support penalty; finite so the simplex never differences inf
MIN_EXCEEDANCES = 30
LAPLACE_CLAMP = 700.0
LOG2 = math.log(2.0)
TABLE_START = 8.0  # body table starts this many kernel deviations below the smallest sample
MAX_POLISH = 8  # exact Newton steps per body quantile, at most
POLISH_TOL = 1e-9  # relative step size at which a body quantile is accepted


@dataclass(frozen=True)
class GpdFit:
    """Generalized Pareto tail above `threshold`.

    `exceed_rate` is 1 - F_hat(threshold) under the kernel CDF of the full
    series (the rate used by the mixture); `empirical_rate` is the plain
    exceedance proportion, reported for diagnostics.
    """

    threshold: float
    scale: float
    shape: float
    exceed_rate: float
    n_exceed: int
    converged: bool
    empirical_rate: float
    loglik: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValidationError(f"GPD scale must be positive, got {self.scale}")
        if not 0.0 < self.exceed_rate < 1.0:
            raise ValidationError(f"exceedance rate must be in (0,1), got {self.exceed_rate}")

    @property
    def upper_endpoint(self) -> float:
        """Finite upper endpoint u - scale/shape for negative shapes, else +inf."""
        if self.shape < 0:
            return self.threshold - self.scale / self.shape
        return math.inf


@dataclass(frozen=True)
class MixtureMarginal:
    """Kernel CDF body spliced with a GPD tail at the fit threshold.

    `_table` caches the body's log-CDF table (see :func:`to_laplace`); it is
    built on first use and never serialized.
    """

    body: kde.KdeModel
    gpd: GpdFit

    _table: list = field(default_factory=list, repr=False, compare=False)


def gpd_survival(fit: GpdFit, z):
    """Survival of an excess z > 0: (1 + shape*z/scale)_+^(-1/shape)."""
    z = np.asarray(z, dtype=float)
    if abs(fit.shape) < XI_ZERO:
        out = np.exp(-z / fit.scale)
    else:
        t = np.maximum(1.0 + fit.shape * z / fit.scale, 0.0)
        with np.errstate(divide="ignore"):
            out = np.where(t > 0.0, t ** (-1.0 / fit.shape), 0.0)
    return float(out) if out.ndim == 0 else out


def _gpd_nll(params, y):
    log_psi, xi = params
    if not (math.isfinite(log_psi) and math.isfinite(xi)):
        return _BIG
    psi = math.exp(log_psi)
    n = y.size
    if abs(xi) < XI_ZERO:
        return n * log_psi + float(np.sum(y)) / psi
    t = 1.0 + xi * y / psi
    if np.any(t <= 0.0):
        return _BIG
    return n * log_psi + (1.0 + 1.0 / xi) * float(np.sum(np.log(t)))


def _gpd_censored_nll(params, y, half_width):
    log_psi, xi = params
    if not (math.isfinite(log_psi) and math.isfinite(xi)):
        return _BIG
    psi = math.exp(log_psi)
    lo = np.maximum(y - half_width, 0.0)
    hi = y + half_width
    if abs(xi) < XI_ZERO:
        p = np.exp(-lo / psi) - np.exp(-hi / psi)
    else:
        tlo = np.maximum(1.0 + xi * lo / psi, 0.0)
        thi = np.maximum(1.0 + xi * hi / psi, 0.0)
        with np.errstate(divide="ignore"):
            p = np.where(tlo > 0, tlo ** (-1 / xi), 0.0) - np.where(thi > 0, thi ** (-1 / xi), 0.0)
    if np.any(p <= 0.0):
        return _BIG
    return -float(np.sum(np.log(p)))


def fit_gpd(
    data,
    u: float,
    body: kde.KdeModel | None = None,
    censored_resolution: float | None = None,
    n_restarts: int = 20,
) -> GpdFit:
    """Fit a GPD to the excesses of `data` above threshold `u`.

    Maximizes the excess likelihood by Nelder-Mead over (log scale, shape)
    from a moment-based start plus `n_restarts` seeded perturbations.  When
    `censored_resolution` is given, each excess is treated as interval
    censored to within half that resolution.  The exceedance rate is 1 minus
    the CDF of `body`, the kernel model of `data` (fitted at the default
    bandwidth when not given).

    Raises:
        InsufficientTailError: fewer than 30 exceedances.
        FitError: the optimizer failed to converge from every start.
    """
    from scipy.optimize import minimize

    z = np.asarray(data, dtype=float)
    if z.ndim != 1:
        raise ValidationError("fit_gpd expects a 1-D series")
    y = z[z > u] - u
    if y.size < MIN_EXCEEDANCES:
        raise InsufficientTailError(
            f"{y.size} exceedances of u={u}, need at least {MIN_EXCEEDANCES}"
        )

    if censored_resolution is not None:
        nll = lambda p: _gpd_censored_nll(p, y, censored_resolution / 2.0)
    else:
        nll = lambda p: _gpd_nll(p, y)

    m, v = float(np.mean(y)), float(np.var(y))
    xi0 = float(np.clip(0.5 * (1.0 - m * m / v), -0.9, 0.9)) if v > 0 else 0.0
    psi0 = max(0.5 * m * (m * m / v + 1.0), 1e-8) if v > 0 else m
    starts = [(math.log(psi0), xi0)]
    rng = np.random.default_rng(0)  # fixed: fits must be deterministic
    for _ in range(n_restarts):
        starts.append(
            (
                math.log(psi0) + rng.normal(scale=0.5),
                float(np.clip(xi0 + rng.normal(scale=0.25), -0.95, 1.5)),
            )
        )

    best = None
    any_success = False
    for s in starts:
        res = minimize(
            nll, s, method="Nelder-Mead",
            options={"fatol": 1e-10, "xatol": 1e-8, "maxiter": 2000},
        )
        any_success = any_success or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    if best is None or best.fun >= _BIG:
        raise FitError(f"GPD fit failed: optimizer non-convergence (best={best})")
    if not any_success:
        raise FitError(f"GPD fit did not converge from any start: {best.message}")

    psi = math.exp(best.x[0])
    xi = float(best.x[1])
    if body is None:
        body = kde.fit_kde(z[:, None])
    lam = 1.0 - float(kde.cdf_1d(body, u))
    return GpdFit(
        threshold=float(u),
        scale=psi,
        shape=xi,
        exceed_rate=lam,
        n_exceed=int(y.size),
        converged=bool(best.success),
        empirical_rate=float(y.size) / z.size,
        loglik=-float(best.fun),
    )


def fit_mixture(
    data,
    u: float,
    body_scale: float = 1.0,
    censored_resolution: float | None = None,
) -> MixtureMarginal:
    """Fit the kernel-body / GPD-tail mixture marginal at threshold `u`."""
    z = np.asarray(data, dtype=float)
    body = kde.fit_kde(z[:, None], scale=body_scale)
    gpd = fit_gpd(z, u, body=body, censored_resolution=censored_resolution)
    return MixtureMarginal(body=body, gpd=gpd)


def mixture_cdf(m: MixtureMarginal, z):
    """Mixture CDF: kernel CDF below the threshold, GPD tail above."""
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty(z.shape)
    below = z <= m.gpd.threshold
    if np.any(below):
        out[below] = kde.cdf_1d(m.body, z[below])
    if np.any(~below):
        out[~below] = 1.0 - m.gpd.exceed_rate * gpd_survival(m.gpd, z[~below] - m.gpd.threshold)
    return float(out[0]) if scalar else out


def _body_table(m: MixtureMarginal) -> kde.CdfTable:
    """The body's log-CDF table from TABLE_START kernel deviations below the
    smallest sample to the threshold, built on first use."""
    if not m._table:
        h = math.sqrt(m.body.bandwidth[0, 0])
        lo = float(m.body.samples.min()) - TABLE_START * h
        m._table.append(kde.cdf_table(m.body, lo, max(m.gpd.threshold, lo + h)))
    return m._table[0]


def _body_log_mass(m: MixtureMarginal, z: float, upper: bool) -> float:
    F = float(kde.cdf_1d(m.body, z))
    mass = 1.0 - F if upper else F
    return math.log(mass) if mass > 0.0 else -math.inf


def _body_quantile(m: MixtureMarginal, target: float, upper: bool = False) -> float:
    """Body z with log F(z) = target (log(1 - F(z)) = target when `upper`).

    Inverts the table, then takes Newton steps on the exact kernel CDF with
    the table's slope until a step is below 1e-9 (about 1 exact evaluation
    per quantile: the table is good to about 1e-10, and each step squares
    the error).  Targets below the table's first node are bisected on the
    exact CDF (F is below about 6e-16 / n there).
    """
    table = _body_table(m)
    found = table.invert(target, upper)
    if found is None:
        return _far_body_quantile(m, target, float(table.x[0]))
    z, slope = found
    for _ in range(MAX_POLISH):
        step = (_body_log_mass(m, z, upper) - target) / slope
        z -= step
        if abs(step) <= POLISH_TOL * (1.0 + abs(z)):
            break
    return z


def _far_body_quantile(m: MixtureMarginal, target: float, hi: float) -> float:
    h = math.sqrt(m.body.bandwidth[0, 0])
    width = h
    while _body_log_mass(m, hi - width, False) > target:
        width *= 2.0
        if width > 1e6 * h:
            raise FitError(f"body quantile bracket not found for log F = {target}")
    lo = hi - width
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # to the last bit
        if _body_log_mass(m, mid, False) > target:
            hi = mid
        else:
            lo = mid
    return mid


def _tail_quantile_from_log_survival(m: MixtureMarginal, log_s: float) -> float:
    # survival ratio (S/lambda_u)^(-xi) computed in log space for stability
    g = m.gpd
    ratio = log_s - math.log(g.exceed_rate)
    if abs(g.shape) < XI_ZERO:
        return g.threshold - g.scale * ratio
    return g.threshold + g.scale / g.shape * math.expm1(-g.shape * ratio)


def mixture_quantile(m: MixtureMarginal, p: float) -> float:
    """Inverse of the mixture CDF (table inversion and exact Newton polish in the body)."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile level must be in (0,1), got {p}")
    if p > 1.0 - m.gpd.exceed_rate:
        return _tail_quantile_from_log_survival(m, math.log1p(-p))
    if p < 0.5:
        return _body_quantile(m, math.log(p))
    return _body_quantile(m, math.log1p(-p), upper=True)


def to_laplace(z, m: MixtureMarginal):
    """Transform data values onto standard Laplace margins via the mixture CDF.

    s = log(2 F(z)) on the lower half, -log(2 (1 - F(z))) on the upper half;
    numerically degenerate F values are clamped to +-700.  Above the
    threshold the GPD survival is used directly.  In the body, log F and
    log(1 - F) are read from the marginal's table (:func:`kde.cdf_table`,
    built once per marginal in O(nodes x n)), within about 1e-10 of the
    exact O(n) kernel sums; values below the table's first node, where F is
    below about 6e-16 / n, take the exact kernel CDF.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty(z.shape)
    g = m.gpd
    tail = z > g.threshold
    if np.any(tail):
        # upper tail: survival directly, stable for extreme z
        surv = g.exceed_rate * np.atleast_1d(gpd_survival(g, z[tail] - g.threshold))
        with np.errstate(divide="ignore"):
            out[tail] = -np.log(2.0 * surv)
    if not np.all(tail):
        table = _body_table(m)
        inside = ~tail & (z >= table.x[0])
        log_cdf = table(z[inside])
        upper = log_cdf >= -LOG2
        s_body = LOG2 + log_cdf
        s_body[upper] = -LOG2 - table(z[inside][upper], upper=True)
        out[inside] = s_body
        far = ~tail & ~inside
        if np.any(far):
            with np.errstate(divide="ignore"):
                out[far] = np.log(2.0 * kde.cdf_1d(m.body, z[far]))
    out = np.clip(out, -LAPLACE_CLAMP, LAPLACE_CLAMP)
    return float(out[0]) if scalar else out


def from_laplace(s, m: MixtureMarginal):
    """Inverse of :func:`to_laplace`.

    Upper-tail values map through the GPD quantile; body values invert the
    marginal's table and are polished by Newton steps on the exact kernel
    CDF (see :func:`_body_quantile`), so the result is the exact mixture
    quantile, not the table's.
    """
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(np.clip(s, -LAPLACE_CLAMP, LAPLACE_CLAMP))
    out = np.empty(s.shape)
    log_lam = math.log(m.gpd.exceed_rate)
    for i, si in enumerate(s.tolist()):
        if si >= 0.0:
            log_surv = -si - LOG2  # log(1 - F), exact
            if log_surv < log_lam:
                out[i] = _tail_quantile_from_log_survival(m, log_surv)
            else:
                out[i] = _body_quantile(m, log_surv, upper=True)
        else:
            out[i] = _body_quantile(m, si - LOG2)
    return float(out[0]) if scalar else out


def mean_residual_life(data, thresholds):
    """Mean excess with a normal-approximation 95% CI per threshold.

    Thresholds with fewer than 10 exceedances (including any above the data
    maximum) are excluded.  Returns a list of rows
    (threshold, n_exceed, mean_excess, lo, hi).
    """
    z = np.asarray(data, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.size == 0:
        raise ValidationError("empty threshold grid")
    rows = []
    for u in thresholds:
        y = z[z > u] - u
        if y.size < 10:
            continue
        mean = float(np.mean(y))
        half = 1.96 * float(np.std(y, ddof=1)) / math.sqrt(y.size)
        rows.append((float(u), int(y.size), mean, mean - half, mean + half))
    return rows
