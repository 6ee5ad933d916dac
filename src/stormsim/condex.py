"""Conditional-extremes dependence fitting and extremal Markov tail chains.

Given per-storm series on standard Laplace margins, conditioning events are
times t with S_t above a high threshold and k in-storm followers.  For each
lag j the followers are modelled as ``S_{t+j} = alpha_j S_t + S_t^beta_j E_j``
with (alpha_j, beta_j) estimated by a Gaussian pseudo-likelihood profiled
over the residual mean and variance, and the joint residual law G is the
kernel-smoothed distribution of the inverted residual vectors.

Simulation steps an extremal chain: the effective order l is the number of
consecutive threshold excesses immediately before the current time, the new
value anchors on S_{j-l}, and the lag-l residual is drawn from the residual
kernel conditioned on the residuals implied by the intervening values.  The
step is the generator :func:`tail_step`, whose residual draw is a
:func:`kde.draw` request, served like every other kernel draw of a storm.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kde
from .errors import FitError, InsufficientTailError, SingularBandwidthError, ValidationError

log = logging.getLogger(__name__)

MIN_EVENTS = 50
BOUNDARY_TOL = 1e-4


@dataclass(frozen=True)
class CondExFit:
    """Fitted conditional-extremes dependence model of order k."""

    k: int
    u_laplace: float
    alpha: np.ndarray  # (k,) in [-1, 1]
    beta: np.ndarray  # (k,) in [0, 1]
    residual_kde: kde.KdeModel  # samples: the (n_events, k) inverted residual vectors
    n_events: int

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"Markov order k must be at least 1, got {self.k}")
        for name in ("alpha", "beta"):
            if np.shape(getattr(self, name)) != (self.k,):
                raise ValidationError(
                    f"{name} must hold k={self.k} values, got shape {np.shape(getattr(self, name))}"
                )
        if np.any(np.abs(self.alpha) > 1.0 + 1e-12) or np.any((self.beta < -1e-12) | (self.beta > 1.0 + 1e-12)):
            raise ValidationError("alpha/beta outside their boxes")

    @property
    def boundary(self) -> np.ndarray:
        """(k,) bool: alpha at +-1."""
        return np.abs(np.abs(self.alpha) - 1.0) < BOUNDARY_TOL


def collect_events(tracks, k: int, u_laplace: float):
    """Conditioning events: (S_t, followers S_{t+1..t+k}) with S_t > u_laplace.

    Followers must lie inside the same storm and be finite (NaN marks values
    with no Laplace representation, e.g. out-of-window points).
    """
    anchors, followers = [], []
    for s in tracks:
        s = np.asarray(s, dtype=float)
        for t in range(s.size - k):
            window = s[t : t + k + 1]
            if np.all(np.isfinite(window)) and window[0] > u_laplace:
                anchors.append(window[0])
                followers.append(window[1:])
    if anchors:
        return np.array(anchors), np.array(followers)
    return np.empty(0), np.empty((0, k))


def _profiled_nll(params, x, y, log_x):
    alpha, beta = params
    e = (y - alpha * x) / np.exp(beta * log_x)
    v = float(np.var(e))
    if not math.isfinite(v):
        return 1e300
    v = max(v, 1e-300)
    return 0.5 * x.size * math.log(v) + beta * float(np.sum(log_x))


_STARTS = [(0.5, 0.5), (0.9, 0.1), (0.1, 0.9), (-0.5, 0.5), (0.0, 0.0), (0.99, 0.01)]


def _fit_lag(x, y):
    from scipy.optimize import minimize

    log_x = np.log(x)
    best = None
    for s in _STARTS:
        res = minimize(
            _profiled_nll, s, args=(x, y, log_x), method="Nelder-Mead",
            bounds=[(-1.0, 1.0), (0.0, 1.0)],
            options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000},
        )
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not math.isfinite(best.fun):
        raise FitError("conditional-extremes lag fit failed")
    return float(best.x[0]), float(best.x[1])


def fit_condex(
    tracks,
    k: int = 3,
    u_laplace: float = 3.0,
    min_events: int = MIN_EVENTS,
    residual_scale: float = 1.0,
) -> CondExFit:
    """Fit the order-k conditional-extremes model on Laplace-scale tracks.

    Each lag is fitted independently.  Residual vectors are recovered by
    inverting the fitted relation and smoothed by a Gaussian kernel for
    simulation.

    Raises:
        InsufficientTailError: fewer than `min_events` conditioning events.
    """
    if u_laplace <= 0.0:
        raise ValidationError(f"u_laplace must be positive, got {u_laplace}")
    if k < 1:
        raise ValidationError(f"order k must be >= 1, got {k}")
    x, followers = collect_events(tracks, k, u_laplace)
    if x.size < min_events:
        raise InsufficientTailError(
            f"{x.size} conditioning events above u_laplace={u_laplace}, "
            f"need at least {min_events}"
        )

    alpha = np.empty(k)
    beta = np.empty(k)
    for j in range(k):
        alpha[j], beta[j] = _fit_lag(x, followers[:, j])

    residuals = (followers - alpha[None, :] * x[:, None]) / x[:, None] ** beta[None, :]
    try:
        residual_kde = kde.fit_kde(residuals, scale=residual_scale)
    except SingularBandwidthError:
        # degenerate residuals (e.g. exact dependence): jitter the bandwidth
        cov = np.cov(residuals, rowvar=False, ddof=1) if residuals.shape[0] > 1 else np.zeros((k, k))
        cov = np.atleast_2d(cov) + 1e-12 * np.eye(k)
        residual_kde = kde.fit_kde(residuals, scale=residual_scale, cov=cov)

    fit = CondExFit(
        k=k,
        u_laplace=float(u_laplace),
        alpha=alpha,
        beta=beta,
        residual_kde=residual_kde,
        n_events=int(x.size),
    )
    if np.any(fit.boundary):
        log.warning("alpha at boundary for lag(s) %s", (np.flatnonzero(fit.boundary) + 1).tolist())
    return fit


def effective_order(recent, u_laplace: float, k: int) -> int:
    """Number of consecutive excesses immediately preceding the current time.

    `recent` holds the last values oldest-to-newest (NaN counts as below the
    threshold).  Returns 0 when the newest value is not an excess, which
    signals the caller to use the body (kernel) sampler instead.
    """
    recent = np.asarray(recent, dtype=float)
    l = 0
    for v in recent[::-1]:
        if np.isfinite(v) and v > u_laplace:
            l += 1
            if l == k:
                break
        else:
            break
    return l


def tail_step(fit: CondExFit, recent, rng: np.random.Generator):
    """Generator form of :func:`step_tail_chain`: yields its residual draw
    through :func:`kde.draw`."""
    recent = np.asarray(recent, dtype=float)
    l = effective_order(recent, fit.u_laplace, fit.k)
    if l < 1:
        raise ValidationError("no threshold excess in the recent window; use the body sampler")
    s0 = float(recent[-l])
    given = np.array([(float(recent[-l + i]) - fit.alpha[i - 1] * s0) / s0 ** fit.beta[i - 1]
                      for i in range(1, l)])
    e = yield from kde.draw(fit.residual_kde, (tuple(range(l - 1)), (l - 1,)), given, rng)
    return fit.alpha[l - 1] * s0 + s0 ** fit.beta[l - 1] * e


def step_tail_chain(fit: CondExFit, recent, rng: np.random.Generator) -> float:
    """One extremal Markov step: draw S_j given the recent Laplace window.

    The effective order l anchors the step on S_{j-l}; the lag-l residual is
    drawn from the residual kernel conditioned on the l-1 residuals implied
    by the intervening observed values.  If those residuals fall outside the
    kernel support, the residual is drawn from its marginal (see
    :func:`kde.draw`).  The returned value is unconstrained in sign.
    """
    return kde.run_one(tail_step(fit, recent, rng))
