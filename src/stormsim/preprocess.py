"""Box-Cox location-scale preprocessing of vorticity.

Transforms positive vorticities to an approximately stationary residual via
``(omega^lambda - 1)/lambda = mu(nu) + sigma(nu) * W`` with covariate vector
nu = (lon, lat, bearing, speed).  The location and log-scale are linear in
(lon, lat, sin bearing, cos bearing, speed), optionally with quadratic
lon/lat terms kept only when a likelihood-ratio test at 5% supports them.
Bearing enters through sine and cosine so the fit respects its circularity.

The fit maximizes the Gaussian likelihood including the Box-Cox Jacobian,
profiling the regression coefficients (L-BFGS with analytic gradient) inside
a bounded scalar search over lambda.  The fit is only valid inside its
training window; out-of-window points bypass preprocessing entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, InvalidInverseError, ValidationError

LAMBDA_ZERO = 1e-8  # below this |lambda|, use the log branch
DEFAULT_WINDOW = (-60.0, 20.0, 40.0, 80.0)  # lon_min, lon_max, lat_min, lat_max
MIN_POINTS = 1000
# The 95% quantile of chi-squared with 4 degrees of freedom, the 5%
# likelihood-ratio critical value for the 4 quadratic parameters.  For 4 df
# the survival function is exp(-x/2) (1 + x/2); its root at 0.05 is
# 9.48772903678115675..., and the literal is scipy.stats.chi2.ppf(0.95, 4)
# bit for bit (2 ulp below the root), so fits keep their model choice.
CHI2_95_4DF = 9.487729036781154

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PreprocFit:
    """Fitted Box-Cox location-scale model."""

    lam: float
    mu_coef: np.ndarray
    sigma_coef: np.ndarray  # coefficients of log sigma
    quadratic: bool
    col_mean: np.ndarray  # design standardization (training column means)
    col_scale: np.ndarray
    window: tuple[float, float, float, float]
    loglik: float
    n: int
    w_mean: float
    w_sd: float


def in_window(lon, lat, window) -> np.ndarray:
    if isinstance(lon, float) and isinstance(lat, float):  # one point, same comparisons
        return window[0] < lon < window[1] and window[2] < lat < window[3]
    lon = np.asarray(lon, dtype=float)
    lat = np.asarray(lat, dtype=float)
    lon_min, lon_max, lat_min, lat_max = window
    return (lon > lon_min) & (lon < lon_max) & (lat > lat_min) & (lat < lat_max)


def boxcox(omega, lam: float):
    omega = np.asarray(omega, dtype=float)
    if abs(lam) < LAMBDA_ZERO:
        return np.log(omega)
    # expm1 keeps full relative precision as lambda approaches the log branch
    return np.expm1(lam * np.log(omega)) / lam


def _raw_design(lon, lat, bearing, speed, quadratic: bool) -> np.ndarray:
    lon = np.atleast_1d(np.asarray(lon, dtype=float))
    lat = np.atleast_1d(np.asarray(lat, dtype=float))
    bearing = np.atleast_1d(np.asarray(bearing, dtype=float))
    speed = np.atleast_1d(np.asarray(speed, dtype=float))
    cols = [np.ones_like(lon), lon, lat, np.sin(bearing), np.cos(bearing), speed]
    if quadratic:
        cols += [lon**2, lat**2]
    return np.column_stack(cols)


def _standardize(X, col_mean, col_scale):
    return (X - col_mean) / col_scale


def _core_nll_grad(beta, y, X):
    p = X.shape[1]
    mu = X @ beta[:p]
    logs = np.clip(X @ beta[p:], -50.0, 50.0)
    s = np.exp(logs)
    w = (y - mu) / s
    nll = float(np.sum(logs + 0.5 * w * w))
    g_mu = -X.T @ (w / s)
    g_sg = X.T @ (1.0 - w * w)
    return nll, np.concatenate([g_mu, g_sg])


def _fit_core(y, X, start=None):
    from scipy.optimize import minimize

    p = X.shape[1]
    if start is None:
        bmu, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ bmu
        bsg = np.zeros(p)
        bsg[0] = math.log(max(float(np.std(resid)), 1e-8))
        start = np.concatenate([bmu, bsg])
    res = minimize(
        _core_nll_grad, start, args=(y, X), jac=True, method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-9},
    )
    return res


def _fit_lambda_profile(omega, X, bounds=(-2.0, 3.0)):
    from scipy.optimize import minimize_scalar

    log_j = float(np.sum(np.log(omega)))  # Jacobian: (lam - 1) * sum(log omega)
    warm = {"beta": None}

    def profiled_nll(lam):
        y = boxcox(omega, lam)
        res = _fit_core(y, X, start=warm["beta"])
        warm["beta"] = res.x
        return res.fun - (lam - 1.0) * log_j

    scan = minimize_scalar(profiled_nll, bounds=bounds, method="bounded",
                           options={"xatol": 1e-6})
    if not scan.success:
        raise FitError(f"Box-Cox profile search failed: {scan.message}")
    lam = float(scan.x)
    res = _fit_core(boxcox(omega, lam), X, start=warm["beta"])
    if not res.success and res.fun >= 1e290:
        raise FitError(f"location-scale fit failed at lambda={lam}: {res.message}")
    n = omega.size
    loglik = -(res.fun - (lam - 1.0) * log_j) - 0.5 * n * _LOG_2PI
    return lam, res.x, loglik


def fit_preprocess(
    omega,
    lon,
    lat,
    bearing,
    speed,
    window=DEFAULT_WINDOW,
    allow_quadratic: bool = True,
    min_points: int = MIN_POINTS,
) -> PreprocFit:
    """Fit the Box-Cox location-scale model on the in-window points.

    Raises:
        ValidationError: non-positive vorticity, or fewer than `min_points`
            usable in-window points.
        FitError: optimizer failure.
    """
    omega = np.asarray(omega, dtype=float)
    lon = np.asarray(lon, dtype=float)
    lat = np.asarray(lat, dtype=float)
    bearing = np.asarray(bearing, dtype=float)
    speed = np.asarray(speed, dtype=float)
    keep = in_window(lon, lat, window) & np.isfinite(omega) & np.isfinite(bearing) & np.isfinite(speed)
    if np.any(omega[keep] <= 0.0):
        raise ValidationError("vorticity must be positive inside the Box-Cox domain")
    if int(keep.sum()) < min_points:
        raise ValidationError(
            f"{int(keep.sum())} in-window points, need at least {min_points}"
        )
    omega, lon, lat, bearing, speed = (a[keep] for a in (omega, lon, lat, bearing, speed))

    def fit_variant(quadratic: bool):
        X = _raw_design(lon, lat, bearing, speed, quadratic)
        col_mean = X.mean(axis=0)
        col_scale = X.std(axis=0)
        col_mean[0], col_scale[0] = 0.0, 1.0  # keep the intercept column as-is
        col_scale[col_scale == 0.0] = 1.0
        Xs = _standardize(X, col_mean, col_scale)
        lam, beta, loglik = _fit_lambda_profile(omega, Xs)
        return lam, beta, loglik, col_mean, col_scale, Xs

    lam, beta, loglik, col_mean, col_scale, Xs = fit_variant(False)
    quadratic = False
    if allow_quadratic:
        lam_q, beta_q, loglik_q, cm_q, cs_q, Xs_q = fit_variant(True)
        # lon^2 and lat^2 enter both mu and log sigma: 4 extra parameters
        if 2.0 * (loglik_q - loglik) > CHI2_95_4DF:
            lam, beta, loglik, col_mean, col_scale, Xs = lam_q, beta_q, loglik_q, cm_q, cs_q, Xs_q
            quadratic = True

    p = Xs.shape[1]
    mu = Xs @ beta[:p]
    sd = np.exp(np.clip(Xs @ beta[p:], -50.0, 50.0))
    w = (boxcox(omega, lam) - mu) / sd
    return PreprocFit(
        lam=lam,
        mu_coef=beta[:p].copy(),
        sigma_coef=beta[p:].copy(),
        quadratic=quadratic,
        col_mean=col_mean,
        col_scale=col_scale,
        window=tuple(float(v) for v in window),
        loglik=float(loglik),
        n=int(omega.size),
        w_mean=float(np.mean(w)),
        w_sd=float(np.std(w)),
    )


def _mu_sigma(fit: PreprocFit, lon, lat, bearing, speed):
    X = _standardize(_raw_design(lon, lat, bearing, speed, fit.quadratic),
                     fit.col_mean, fit.col_scale)
    mu = X @ fit.mu_coef
    sd = np.exp(np.clip(X @ fit.sigma_coef, -50.0, 50.0))
    return mu, sd


def _mu_sigma_point(fit: PreprocFit, lon: float, lat: float, bearing: float, speed: float):
    """:func:`_mu_sigma` at one point, bit for bit, without building a design."""
    row = [1.0, lon, lat, np.sin(bearing), np.cos(bearing), speed]
    if fit.quadratic:
        row += [lon * lon, lat * lat]
    x = (np.array(row) - fit.col_mean) / fit.col_scale
    return x @ fit.mu_coef, np.exp(min(max(x @ fit.sigma_coef, -50.0), 50.0))


def _is_point(value, nu) -> bool:
    return isinstance(value, float) and all(isinstance(v, float) for v in nu)


def to_residual(omega, nu, fit: PreprocFit):
    """Forward transform: vorticity and covariates (lon, lat, bearing, speed) to W."""
    if _is_point(omega, nu):
        if omega <= 0.0:
            raise ValidationError("vorticity must be positive inside the Box-Cox domain")
        mu, sd = _mu_sigma_point(fit, *nu)
        return float((boxcox(omega, fit.lam) - mu) / sd)
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(omega_arr <= 0.0):
        raise ValidationError("vorticity must be positive inside the Box-Cox domain")
    lon, lat, bearing, speed = nu
    mu, sd = _mu_sigma(fit, lon, lat, bearing, speed)
    w = (boxcox(omega_arr, fit.lam) - mu) / sd
    return float(w[0]) if np.isscalar(omega) or np.asarray(omega).ndim == 0 else w


def from_residual(w, nu, fit: PreprocFit):
    """Inverse transform: W and covariates back to vorticity.

    Raises:
        InvalidInverseError: the implied Box-Cox value lies outside the
            domain (1 + lambda*y <= 0, or a non-finite result).
    """
    point = _is_point(w, nu)
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    lon, lat, bearing, speed = nu
    mu, sd = _mu_sigma_point(fit, *nu) if point else _mu_sigma(fit, lon, lat, bearing, speed)
    y = mu + sd * w_arr
    if abs(fit.lam) < LAMBDA_ZERO:
        if np.any(y > 700.0):
            raise InvalidInverseError("Box-Cox inverse overflows")
        omega = np.exp(y)
    else:
        ly = fit.lam * y
        if np.any(ly <= -1.0):
            raise InvalidInverseError(
                f"inverse outside Box-Cox domain (1 + lambda*y = {1.0 + ly.min():.3g} <= 0)"
            )
        with np.errstate(over="ignore"):
            omega = np.exp(np.log1p(ly) / fit.lam)
    if not np.all(np.isfinite(omega)):
        raise InvalidInverseError("Box-Cox inverse is not finite")
    return float(omega[0]) if np.isscalar(w) or np.asarray(w).ndim == 0 else omega
