"""Multivariate Gaussian kernel density models with joint and conditional sampling.

A fitted model holds the training tuples and a single bandwidth matrix H.
The density is the average of Gaussian kernels N(z_i, H); conditioning on a
subset of dimensions gives a weighted mixture where tuple i carries weight
proportional to the kernel evaluated at the conditioning values, and the
per-tuple conditional is the usual Gaussian conditional with mean
``z_m^(i) + H_{m,c} H_{c,c}^{-1} (z_c - z_c^(i))`` and covariance
``H_{m,m} - H_{m,c} H_{c,c}^{-1} H_{c,m}``.

Circular dimensions (bearings) use a non-cyclic Gaussian kernel on a training
set replicated at shifts of +/- 2*pi (applied jointly to all circular
dimensions), which makes the density continuous across the +/- pi seam.  Over
one period each shifted copy contributes to exactly one period, so the
average over the replicated set with the original 1/n prefactor is already
normalized.  Kernel sums over a set of dimensions with no circular one use
the original (unreplicated) tuples so that marginal densities are not
overcounted.

All tuple weights are computed in log space with max-subtraction; conditioning
far into the tails is routine during simulation and must not underflow.

The replicated set is a definition, not a stored copy, and every kernel sum
(densities, weights and draws) is evaluated one way.  Each model caches, per
(given, target) pattern, the conditioning columns of its n original tuples
pre-whitened by L / sqrt(2), with L the Cholesky factor of H_{c,c}^{-1}, so
that minus a log kernel is a plain squared distance plus a constant.  The
replica at shift +s is evaluated as the shifted query ``(v - s) L / sqrt(2)``
against that same block (and -s as ``(v + s) L / sqrt(2)``).  The replicas
keep their place in the tuple order [original, +s, -s], so the weights, the
cumulative weights, the selected tuple and the random numbers drawn are
those of the replicated set.  A draw skips a replica outright when the
squared distance from its whitened query to the bounding box of the whitened
block proves that every one of its log weights lies more than 800 below the
best original one: ``exp`` of such a relative log weight is exactly 0.0, so
the skipped tuples add exactly nothing to the cumulative weights either way.

:func:`pick_tuples` serves a group of requests on one sampler at once (the
batch simulation groups the pending draws of its storms by cell model and
pattern): it computes the group's distances, exps and row-wise cumulative
sums as (g, n) arrays, with the arithmetic of a lone request row by row, so
that a pick never depends on its group.  The whitening product stays one
vector-matrix product per request, because a stacked product takes another
BLAS kernel and rounds differently.

Simulation requests its conditional draws through the generator
:func:`draw`; :func:`lockstep`, the one loop that resumes such generators,
serves the requests of many at once through :func:`pick_tuples`, and counts
the draws that fall back to a marginal draw (see :func:`draw`).

scipy is imported inside the functions that call it (``ndtr`` in the CDFs,
``logsumexp`` in the densities and weights), so importing this module, and
a command that never calls them, loads no scipy module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .errors import SingularBandwidthError, UnsupportedConditioningError, ValidationError

TWO_PI = 2.0 * math.pi
_LOG_TINY = math.log(1e-300)
_LOG_2PI = math.log(TWO_PI)

# An n x d float64 matrix that the bundle codec writes packed, as base64 of
# its little-endian bytes with its shape, not as nested JSON lists.
PackedMatrix = Annotated[np.ndarray, "packed float64 matrix"]


@dataclass
class KdeModel:
    """A fitted multivariate Gaussian kernel density model.

    `samples` are the original training tuples (n x d); `bandwidth` is the
    d x d symmetric positive-definite kernel covariance H.  `circular_dims`
    lists dimensions living on [-pi, pi) replicated at +/- 2*pi.
    The model is immutable after fitting; the mutable attribute is a lazily
    built cache only.
    """

    samples: PackedMatrix
    bandwidth: np.ndarray
    circular_dims: tuple[int, ...] = ()

    _samplers: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] == 0:
            raise ValidationError(f"samples must be a non-empty n x d matrix, got {self.samples.shape}")
        d = self.d
        if self.bandwidth.shape != (d, d):
            raise ValidationError(f"bandwidth must be {d} x {d}, got {self.bandwidth.shape}")
        if any(c < 0 or c >= d for c in self.circular_dims):
            raise ValidationError(f"circular_dims {self.circular_dims} out of range for d={d}")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ConditionalDraw:
    """Inspectable pieces of a conditional draw: weights and Gaussian parameters."""

    conditioning: np.ndarray
    weights: np.ndarray  # over the evaluation tuple set, sums to 1
    mean: np.ndarray  # mixture conditional mean, sum_i w_i mu_bar_i
    covariance: np.ndarray  # shared per-tuple conditional covariance


# A replica copy is skipped when every one of its log weights lies more than
# this far (plus a relative rounding slack) below the best original one;
# exp() of anything below about -745.13 is exactly 0.0.
_SKIP_LOG = 800.0
_SKIP_REL = 1e-6


@dataclass(frozen=True, eq=False)
class _Sampler:
    """Cached kernel-sum and conditional-draw data for one (given, target)
    pattern of a model."""

    given: tuple[int, ...]
    target: tuple[int, ...]
    reg: np.ndarray  # (t, c): H_{t,c} H_{c,c}^{-1}
    sigma: np.ndarray  # (t, t) conditional covariance
    chol_sigma: np.ndarray
    shift: np.ndarray | None  # (d,) replica shift; None when nothing is replicated
    whiten: np.ndarray | None  # (c, c) L / sqrt(2), where L @ L.T = H_{c,c}^{-1}
    white: np.ndarray | None  # (c, n): whitened conditioning columns, one row each
    log_norm: float  # -log kernel at zero distance
    lo: list  # whitened bounding box of the block, per conditioning column
    hi: list
    white_shift: list  # the replica shift on the given dims, whitened


def fit_kde(
    samples,
    scale: float = 1.0,
    circular_dims=(),
    cov=None,
    independent_dims=(),
) -> KdeModel:
    """Fit a kernel model with a Scott-rule bandwidth.

    H = scale^2 * n^(-2/(d+4)) * C where C is the sample covariance (or the
    explicit `cov` override, which also permits n = 1).  H keeps the
    cross-covariances of C, so the kernels are oriented along the data; a
    diagonal `cov` gives a diagonal H.  `independent_dims` zeroes the
    cross-covariances between the named dimensions and all others (used e.g.
    to keep a bearing independent of speed and vorticity in a joint kernel).

    Raises:
        SingularBandwidthError: non-positive scale, a zero-variance column,
            or a bandwidth that is not positive definite.
    """
    S = np.ascontiguousarray(np.asarray(samples, dtype=float))
    if S.ndim == 1:
        S = S[:, None]
    if S.ndim != 2 or S.shape[0] == 0:
        raise ValidationError(f"samples must be a non-empty n x d matrix, got shape {S.shape}")
    n, d = S.shape
    if not np.all(np.isfinite(S)):
        raise ValidationError("samples contain non-finite values")
    if scale <= 0.0 or not math.isfinite(scale):
        raise SingularBandwidthError(f"bandwidth scale must be positive, got {scale}")
    circular_dims = tuple(sorted(int(c) for c in circular_dims))

    if cov is None:
        if n < 2:
            raise SingularBandwidthError("need at least 2 samples to estimate a bandwidth")
        cov = np.atleast_2d(np.cov(S, rowvar=False, ddof=1))
    else:
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if cov.shape != (d, d):
            raise ValidationError(f"cov must be {d} x {d}, got {cov.shape}")
    if np.any(np.diag(cov) <= 0.0) or not np.all(np.isfinite(cov)):
        raise SingularBandwidthError("degenerate sample covariance (zero-variance column?)")

    H = scale**2 * n ** (-2.0 / (d + 4)) * cov
    if independent_dims:
        H = H.copy()
        for dim in independent_dims:
            keep = H[dim, dim]
            H[dim, :] = 0.0
            H[:, dim] = 0.0
            H[dim, dim] = keep
    H = 0.5 * (H + H.T)
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise SingularBandwidthError("bandwidth matrix is not positive definite") from exc
    return KdeModel(samples=S, bandwidth=H, circular_dims=circular_dims)


def _as_dims(model: KdeModel, dims) -> tuple[int, ...]:
    out = tuple(int(i) for i in dims)
    if len(set(out)) != len(out) or any(i < 0 or i >= model.d for i in out):
        raise ValidationError(f"bad dimension set {out} for d={model.d}")
    return out


def _split_given(model: KdeModel, given: dict) -> tuple[tuple[int, ...], np.ndarray]:
    dims = _as_dims(model, sorted(given))
    values = np.array([float(given[i]) for i in dims])
    return dims, values


def _log_kernels(model: KdeModel, dims, values) -> np.ndarray:
    """Log Gaussian kernel of `dims` at `values` for each tuple of the
    evaluation set: the rows [original, +shift, -shift] when a circular
    dimension is among `dims`, the originals otherwise (zeros over them when
    `dims` is empty)."""
    s = sampler(model, (dims, ()))
    if not s.given:
        return np.zeros(model.n)
    z = values @ s.whiten
    if s.shift is not None:
        w = np.array(s.white_shift)
        z = np.array([z, z - w, z + w])
    return -_half_sqdist(s.white, np.atleast_2d(z)).ravel() - s.log_norm


def _check_support(logk: np.ndarray, values: np.ndarray) -> None:
    if logk.max() < _LOG_TINY:
        raise UnsupportedConditioningError(
            f"conditioning values {values.tolist()} outside kernel support"
        )


def density(model: KdeModel, z, dims=None) -> float:
    """Joint (or marginal, via `dims`) kernel density at point z.

    For circular dimensions the replicated training set makes this the
    density wrapped onto one period.  Underflows return 0.0.
    """
    if dims is None:
        dims = tuple(range(model.d))
    else:
        dims = _as_dims(model, dims)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (len(dims),):
        raise ValidationError(f"point shape {z.shape} does not match dims {dims}")
    from scipy.special import logsumexp

    logk = _log_kernels(model, dims, z)
    return float(np.exp(logsumexp(logk) - math.log(model.n)))


def cdf_1d(model: KdeModel, z):
    """Kernel CDF of a 1-D non-circular model, vectorized over z."""
    from scipy.special import ndtr

    if model.d != 1 or model.circular_dims:
        raise ValidationError("cdf_1d requires a 1-D non-circular model")
    h = math.sqrt(model.bandwidth[0, 0])
    z = np.asarray(z, dtype=float)
    u = (z[..., None] - model.samples[:, 0]) / h
    return ndtr(u).mean(axis=-1)


# In double precision ndtr(u) is exactly 1.0 for u >= 39 and exactly 0.0 for
# u <= -39, and exp(-u*u/2) is exactly 0.0 there.
_EXACT_U = 39.0
# Table nodes per kernel standard deviation: septic pieces at this spacing
# reproduce the exact log CDF to about 1e-10 (1.0e-10 and 1.0e-11 on the W
# marginals of the 400- and 1,200-storm fixtures).
_NODES_PER_H = 4.0
# Kernel terms evaluated per block of nodes while building a table.
_TABLE_BLOCK = 1 << 16
# c_k for k = 4..7 of a septic from its t-derivatives 0..3 at t = 1, once
# the k < 4 terms (fixed by the derivatives at t = 0) are subtracted: the
# exact inverse of [[perm(k, r) for k in 4..7] for r in 0..3]
_PERM_LOW = np.array([[math.perm(k, r) for k in range(4)] for r in range(4)], dtype=float)
_SOLVE_HIGH = np.array([
    [35.0, -15.0, 5.0 / 2.0, -1.0 / 6.0],
    [-84.0, 39.0, -7.0, 1.0 / 2.0],
    [70.0, -34.0, 13.0 / 2.0, -1.0 / 2.0],
    [-20.0, 10.0, -2.0, 1.0 / 6.0],
])
_POW_SCALE = np.array([1.0, 1.0, 0.5, 1.0 / 6.0])  # 1 / r!


def _log_derivatives(q: np.ndarray, d: np.ndarray) -> list[np.ndarray]:
    """log q and its first three derivatives, from q and q', q'', q''' (rows of d)."""
    g, a, b = d[0] / q, d[1] / q, d[2] / q
    return [np.log(q), g, a - g * g, b - 3.0 * a * g + 2.0 * g**3]


def _septic_pieces(x: np.ndarray, derivs: list[np.ndarray]) -> np.ndarray:
    """Per interval, the coefficients in t = (z - x_i) / (x_{i+1} - x_i) of the
    polynomial matching the value and three derivatives at both ends."""
    dx = np.diff(x)
    scale = np.stack([dx**r for r in range(4)], axis=1)
    left = np.stack([dv[:-1] for dv in derivs], axis=1) * scale
    right = np.stack([dv[1:] for dv in derivs], axis=1) * scale
    low = left * _POW_SCALE
    high = (right - low @ _PERM_LOW.T) @ _SOLVE_HIGH.T
    return np.hstack([low, high])


def _horner(c: list, t: float) -> tuple[float, float]:
    """Value and derivative at t of the polynomial sum_k c[k] t^k."""
    value, slope = c[-1], 0.0
    for ck in reversed(c[:-1]):
        slope = slope * t + value
        value = value * t + ck
    return value, slope


@dataclass(frozen=True)
class CdfTable:
    """log F and log(1 - F) of a 1-D kernel CDF on the nodes ``x``, as
    septic Hermite pieces.

    At every node the kernel CDF, its complement, the density and the
    density's first two derivatives are summed exactly; piece i of each table
    holds the power-series coefficients, in t = (z - x[i]) / (x[i+1] - x[i]),
    of the polynomial that matches the value and first three derivatives of
    the log at both ends.
    """

    x: np.ndarray
    log_cdf: np.ndarray  # exact log F at the nodes
    log_sf: np.ndarray  # exact log(1 - F) at the nodes
    cdf_pieces: np.ndarray  # (len(x) - 1, 8)
    sf_pieces: np.ndarray

    def _pieces(self, upper: bool) -> np.ndarray:
        return self.sf_pieces if upper else self.cdf_pieces

    def __call__(self, z: np.ndarray, upper: bool = False) -> np.ndarray:
        """log F(z) (log(1 - F(z)) when `upper`) for z inside [x[0], x[-1]]."""
        i = np.clip(np.searchsorted(self.x, z, side="right") - 1, 0, self.x.size - 2)
        t = (z - self.x[i]) / (self.x[i + 1] - self.x[i])
        c = self._pieces(upper)[i]
        out = c[:, 7]
        for k in range(6, -1, -1):
            out = out * t + c[:, k]
        return out

    def invert(self, target: float, upper: bool = False) -> tuple[float, float] | None:
        """(z, slope): the table's z with log F(z) = target (log(1 - F(z))
        when `upper`) and the table's d/dz there; None below the first node."""
        nodes = -self.log_sf if upper else self.log_cdf
        goal = -target if upper else target
        if goal < nodes[0]:
            return None
        i = min(int(np.searchsorted(nodes, goal, side="right")) - 1, self.x.size - 2)
        lo, dx = float(self.x[i]), float(self.x[i + 1] - self.x[i])
        c = self._pieces(upper)[i].tolist()
        span = nodes[i + 1] - nodes[i]
        t = min(max((goal - nodes[i]) / span, 0.0), 1.0) if span > 0.0 else 0.0
        for _ in range(50):  # Newton on the piece, kept inside it
            value, slope = _horner(c, t)
            if slope == 0.0:
                break
            t_new = min(max(t - (value - target) / slope, 0.0), 1.0)
            done = abs(t_new - t) <= 1e-15
            t = t_new
            if done:
                break
        return lo + t * dx, _horner(c, t)[1] / dx


def cdf_table(model: KdeModel, lo: float, hi: float) -> CdfTable:
    """Tabulate log F and log(1 - F) of a 1-D kernel model on [lo, hi].

    Nodes are evenly spaced, about a quarter of a kernel standard deviation
    apart.  At each node the kernel sums run over the sorted samples whose
    terms are neither exactly 0 nor exactly 1 (found with ``searchsorted``);
    the terms that are exactly 1 are added as a count.  Below the sample
    median F is summed and 1 - F taken as its complement, above it 1 - F is
    summed, so each log is exact where its argument is small.  Nodes are
    processed in blocks so no temporary exceeds about 64k kernel terms.
    """
    from scipy.special import ndtr

    if model.d != 1 or model.circular_dims:
        raise ValidationError("cdf_table requires a 1-D non-circular model")
    if not lo < hi:
        raise ValidationError(f"table range [{lo}, {hi}] is empty")
    h = math.sqrt(model.bandwidth[0, 0])
    s = np.sort(model.samples[:, 0])
    n = s.size
    x = np.linspace(lo, hi, max(2, math.ceil((hi - lo) / h * _NODES_PER_H) + 1))
    below = x <= s[n // 2]
    mass = np.empty(x.size)  # n F below the median, n (1 - F) above
    kern = np.empty((3, x.size))  # sums of phi, u phi and u^2 phi
    step = max(1, _TABLE_BLOCK // n)
    for i in range(0, x.size, step):
        xs = x[i : i + step]
        a = int(np.searchsorted(s, xs[0] - _EXACT_U * h))
        b = int(np.searchsorted(s, xs[-1] + _EXACT_U * h, side="right"))
        u = (xs[:, None] - s[a:b]) / h
        phi = np.exp(-0.5 * u * u)
        uphi = u * phi
        kern[0, i : i + step] = phi.sum(axis=1)
        kern[1, i : i + step] = uphi.sum(axis=1)
        kern[2, i : i + step] = (uphi * u).sum(axis=1)
        low = below[i : i + step]
        mass[i : i + step] = (
            ndtr(np.where(low[:, None], u, -u)).sum(axis=1) + np.where(low, a, n - b)
        )
    mass /= n
    cdf = np.where(below, mass, 1.0 - mass)
    sf = np.where(below, 1.0 - mass, mass)
    c = 1.0 / (n * h * math.sqrt(TWO_PI))
    dens = np.stack([kern[0] * c, -kern[1] * c / h, (kern[2] - kern[0]) * c / (h * h)])
    cdf_d = _log_derivatives(cdf, dens)
    sf_d = _log_derivatives(sf, -dens)
    return CdfTable(
        x=x, log_cdf=cdf_d[0], log_sf=sf_d[0],
        cdf_pieces=_septic_pieces(x, cdf_d), sf_pieces=_septic_pieces(x, sf_d),
    )


def sample_joint(model: KdeModel, rng: np.random.Generator, size: int | None = None):
    """Draw from the kernel density: uniform tuple, then N(z_i, H); circular dims wrapped."""
    m = 1 if size is None else int(size)
    idx = rng.integers(0, model.n, size=m)
    noise = rng.standard_normal((m, model.d)) @ sampler(model, ((), None)).chol_sigma.T
    out = model.samples[idx] + noise
    _wrap_circular(out, model.circular_dims, tuple(range(model.d)))
    return out[0] if size is None else out


def conditional_weights(model: KdeModel, given: dict) -> tuple[np.ndarray, np.ndarray]:
    """Normalized tuple weights for the given conditioning values.

    Returns (weights, evaluation rows); the rows are the replicated set
    [original, +shift, -shift] when a circular dimension is conditioned on.
    """
    from scipy.special import logsumexp

    dims, values = _split_given(model, given)
    logw = _log_kernels(model, dims, values)
    _check_support(logw, values)
    w = np.exp(logw - logsumexp(logw))
    rows, shift = model.samples, sampler(model, (dims, ())).shift
    if shift is not None:
        rows = np.vstack([rows, rows + shift, rows - shift])
    return w / w.sum(), rows


def conditional_info(model: KdeModel, given: dict, target_dims=None) -> ConditionalDraw:
    """Weights plus mixture conditional mean/covariance for inspection and tests."""
    dims, values = _split_given(model, given)
    target = _target_dims(model, dims, target_dims)
    w, rows = conditional_weights(model, given)
    s = sampler(model, (dims, target))
    mu = rows[:, target] + (values[None, :] - rows[:, dims]) @ s.reg.T
    return ConditionalDraw(
        conditioning=values,
        weights=w,
        mean=w @ mu,
        covariance=s.sigma.copy(),
    )


def _target_dims(model, given_dims, target_dims):
    if target_dims is None:
        return tuple(i for i in range(model.d) if i not in given_dims)
    target = _as_dims(model, target_dims)
    if set(target) & set(given_dims):
        raise ValidationError("target and conditioning dims overlap")
    return target


def _wrap_circular(arr: np.ndarray, circular_dims, dims) -> None:
    for pos, dim in enumerate(dims):
        if dim in circular_dims:
            arr[..., pos] = (arr[..., pos] + math.pi) % TWO_PI - math.pi


def sampler(model: KdeModel, key) -> _Sampler:
    """The sampler for `key` = (given dims, target dims or None for all the
    others), built on first use and cached on the model.  The target may be
    empty: kernel sums over the given dims need no target."""
    s = model._samplers.get(key)
    if s is not None:
        return s
    given_dims, target_dims = key
    dims = _as_dims(model, given_dims)
    target = _target_dims(model, dims, target_dims)
    H = model.bandwidth
    shift = None
    if set(model.circular_dims) & set(dims + target):
        shift = np.zeros(model.d)
        shift[list(model.circular_dims)] = TWO_PI
    whiten = white = None
    lo = hi = white_shift = []
    log_norm = 0.0
    reg = np.zeros((len(target), len(dims)))
    if dims:
        Hcc = H[np.ix_(dims, dims)]
        logdet_cc = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(Hcc)))))
        log_norm = 0.5 * (logdet_cc + len(dims) * _LOG_2PI)
        inv_cc = np.linalg.inv(Hcc)
        reg = H[np.ix_(target, dims)] @ inv_cc
        # half the squared Mahalanobis distance is a squared distance after whitening
        whiten = np.linalg.cholesky(inv_cc) * math.sqrt(0.5)
        white = np.ascontiguousarray((model.samples[:, dims] @ whiten).T)
        lo, hi = white.min(axis=1).tolist(), white.max(axis=1).tolist()
        if shift is not None:
            white_shift = (shift[list(dims)] @ whiten).tolist()
    sigma = H[np.ix_(target, target)] - reg @ H[np.ix_(target, dims)].T
    sigma = 0.5 * (sigma + sigma.T)
    try:
        chol_sigma = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularBandwidthError(
            f"conditional covariance for target dims {target} is singular"
        ) from exc
    s = _Sampler(
        given=dims, target=target, reg=reg, sigma=sigma, chol_sigma=chol_sigma,
        shift=shift, whiten=whiten, white=white, log_norm=log_norm,
        lo=lo, hi=hi, white_shift=white_shift,
    )
    model._samplers[key] = s
    return s


def _half_sqdist(white: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Minus the log kernel (up to `log_norm`) of every tuple of the whitened
    block (c, n) at each whitened query row of z (g, c): a (g, n) array.

    The squares are summed over the columns in order, one query at a time
    (a sum over axis 0 of its (c, n) squares) or column by column for all
    queries at once, whichever takes fewer array operations; the two round
    alike."""
    c = white.shape[0]
    if len(z) < c:
        out = np.empty((len(z), white.shape[1]))
        for zi, row in zip(z, out):
            sq = white - zi[:, None]
            sq *= sq
            np.add.reduce(sq, axis=0, out=row)
        return out
    out = white[0] - z[:, :1]
    out *= out
    for j in range(1, c):
        sq = white[j] - z[:, j : j + 1]
        sq *= sq
        out += sq
    return out


# Requests whose distances are held at once in a grouped pick; bounds its
# temporaries to a few (64, n) arrays.
_GROUP_ROWS = 64


def _replicas(s: _Sampler, z: list, best: float, dist: np.ndarray) -> list:
    """(block, distances) of the replica blocks a request at whitened query z
    must weigh: none when the bounding-box distance of a replica's query
    proves all its log weights more than _SKIP_LOG below the best original."""
    if s.shift is None:
        return []
    if not any(s.white_shift):
        # no circular conditioning dim: the replicas weigh like the originals
        return [(1, dist), (2, dist)]
    kept = []
    for block, sign in ((1, -1.0), (2, 1.0)):
        zr = []
        bound = 0.0  # squared distance from zr to the block's bounding box
        for zj, w, a, b in zip(z, s.white_shift, s.lo, s.hi):
            zj = zj + sign * w
            zr.append(zj)
            gap = a - zj if zj < a else (zj - b if zj > b else 0.0)
            bound += gap * gap
        if not bound - best > _SKIP_LOG + _SKIP_REL * (bound + best):  # NaN: kept
            kept.append((block, _half_sqdist(s.white, np.array([zr]))[0]))
    return kept


def pick_tuples(s: _Sampler, requests, m: int = 1) -> list:
    """Tuple picks for a group of conditional-draw requests on one sampler.

    `requests` holds (values of the sampler's given dims, random generator)
    pairs.  Each request gets (rows, blocks): `m` tuple rows and their
    replica blocks (0 original, 1 at +shift, 2 at -shift; None when every
    pick is an original tuple; scalars when m is 1), selected with
    probability proportional to the kernel weights at its values, or None
    when every weight underflows (the conditioning lies outside the kernel's
    numerical support), in which case its generator is left untouched.

    The original block's distances, their exp and their cumulative sums are
    computed for the whole group at once, row by row with the arithmetic of
    a lone request: a request's picks and random numbers do not depend on
    the group it is drawn in.  Requests that keep a replica block (near the
    +-pi seam) are completed one by one.
    """
    n = s.white.shape[1]
    out = []
    for first in range(0, len(requests), _GROUP_ROWS):
        chunk = requests[first : first + _GROUP_ROWS]
        # per request, as a lone vector-matrix product: a stacked product
        # takes another BLAS kernel and rounds differently
        z = np.array([values @ s.whiten for values, _ in chunk])
        dist = _half_sqdist(s.white, z)
        best = np.minimum.reduce(dist, axis=1)
        low = best.tolist()
        extra = [_replicas(s, zi, bi, di) for zi, bi, di in zip(z.tolist(), low, dist)]
        lone = [i for i, e in enumerate(extra) if not e]
        if len(lone) == len(chunk):
            np.subtract(best[:, None], dist, out=dist)
            cum = dist
        else:
            cum = best[lone][:, None] - dist[lone]
        np.exp(cum, out=cum)
        cums = dict(zip(lone, cum.cumsum(axis=1)))
        for i, (_, rng) in enumerate(chunk):
            e = extra[i]
            if e:
                low[i] = min([low[i]] + [float(d.min()) for _, d in e])
            if -low[i] - s.log_norm < _LOG_TINY:
                out.append(None)
                continue
            c = cums.get(i)
            if c is None:
                c = np.exp(low[i] - np.concatenate([dist[i]] + [d for _, d in e])).cumsum()
            # NaN conditioning values sort past the end, hence the clipping
            if m == 1:  # rng.random() is the double that rng.random(1) holds
                pos = min(int(c.searchsorted(rng.random() * float(c[-1]), side="right")),
                          c.size - 1)
            else:
                pos = np.minimum(c.searchsorted(rng.random(m) * c[-1], side="right"), c.size - 1)
            if not e:
                out.append((pos, None))
            else:
                block, row = divmod(pos, n)
                out.append((row, np.array([0] + [b for b, _ in e])[block]))
    return out


def draw_scalar(model: KdeModel, s: _Sampler, values, picked, rng) -> float:
    """The draw of :func:`draw_picked` for one pick of one target dim given
    conditioning values, bit for bit, as a float: each product is the BLAS
    dot product that the general path's matrix products make for this shape
    (a 1 x 1 product is a plain product)."""
    row, block = picked
    z = model.samples[row]
    if block:
        z = z + (1.0 if block == 1 else -1.0) * s.shift
    x = float(z[s.target[0]] + (values - z.take(s.given)).dot(s.reg[0]))
    x += rng.standard_normal() * float(s.chol_sigma[0, 0])
    if s.target[0] in model.circular_dims:
        x = (x + math.pi) % TWO_PI - math.pi
    return x


def draw_picked(model: KdeModel, s: _Sampler, values, picked, rng) -> np.ndarray:
    """(m, t) draws from the per-tuple Gaussian conditionals of the picked
    (rows, blocks) at conditioning `values`; circular targets wrapped."""
    row, block = np.atleast_1d(picked[0]), picked[1]
    rows = model.samples[row]
    if block is not None:
        block = np.atleast_1d(block)
        # replica rows, with the replicated set's arithmetic
        for b, sign in ((1, 1.0), (2, -1.0)):
            sel = block == b
            if sel.any():
                rows[sel] = rows[sel] + sign * s.shift
    # fancy indexing, as in the replicated set's arithmetic: the layout of the
    # matrix product's operand picks the BLAS kernel, and so the rounding
    mu = rows[:, s.target]
    if s.given:
        mu = mu + (values[None, :] - rows[:, s.given]) @ s.reg.T
    draws = mu + rng.standard_normal((len(row), len(s.target))) @ s.chol_sigma.T
    _wrap_circular(draws, model.circular_dims, s.target)
    return draws


def sample_conditional(
    model: KdeModel,
    given: dict,
    rng: np.random.Generator,
    target_dims=None,
    size: int | None = None,
):
    """Draw target dims conditionally on `given` ({dim: value}).

    Tuple i is selected with probability proportional to the Gaussian kernel
    of the conditioning dims, then the draw comes from the per-tuple Gaussian
    conditional.  Dimensions in neither set are marginalized out.  An empty
    `given` reduces to a marginal draw over `target_dims`.

    Circular target dims are wrapped back to [-pi, pi).  The data each
    (given, target) pattern needs are built on first use and cached on the
    model (see the module docstring).  A draw is a group of one for
    :func:`pick_tuples` followed by :func:`draw_picked`.

    Raises:
        UnsupportedConditioningError: all tuple weights underflow.
    """
    s = sampler(model, (tuple(sorted(given)), None if target_dims is None else tuple(target_dims)))
    if not s.target:
        raise ValidationError("no target dimensions to sample")
    m = 1 if size is None else int(size)
    values = None
    if s.given:
        values = np.array([float(given[i]) for i in s.given])
        picked = pick_tuples(s, [(values, rng)], m)[0]
        if picked is None:
            raise UnsupportedConditioningError(
                f"conditioning values {values.tolist()} outside kernel support"
            )
    elif s.shift is None:
        picked = rng.integers(0, model.n, size=m), None
    else:
        block, row = np.divmod(rng.integers(0, 3 * model.n, size=m), model.n)
        picked = row, block
    if size is None and len(s.target) == 1 and s.given:
        return np.array([draw_scalar(model, s, values, picked, rng)])
    draws = draw_picked(model, s, values, picked, rng)
    return draws[0] if size is None else draws


# Generators one process keeps in flight at once (see :func:`lockstep`)
BATCH_SIZE = 512


def draw(model: KdeModel, key, values, rng):
    """Generator: the draw of `key` = (given dims, target dims) at `values`.

    Yields the request (sampler, values, rng) and receives the tuple pick
    from :func:`lockstep`.  With no pick (the values lie outside the
    kernel's numerical support) or no given dims, the draw is one of the
    targets' marginal.  Returns a float for one target dim, else a (t,) array.
    """
    s = sampler(model, key)
    if s.given:
        picked = yield s, values, rng
        if picked is not None:
            if len(s.target) == 1:
                return draw_scalar(model, s, values, picked, rng)
            return draw_picked(model, s, values, picked, rng)[0]
    marginal = sample_conditional(model, {}, rng, target_dims=s.target)
    return float(marginal[0]) if len(s.target) == 1 else marginal


def lockstep(gens) -> list:
    """Run generators that request draws through :func:`draw` in lock-step
    batches.

    Every generator in flight (at most BATCH_SIZE; a finished one is
    replaced by the next of `gens`) is resumed until it requests a draw.
    A round's requests are grouped by sampler, that is by (model,
    conditioning pattern), and each group's tuples are picked at once by
    :func:`pick_tuples`.  Each generator owns its random stream and makes
    the calls a lone run makes, in the same order, so what it returns does
    not depend on its batch.  Returns [return value, draws without a pick]
    per generator, in input order.
    """
    queue = iter(gens)
    results: list = []
    pending: list = []  # (index, generator, pick to send)

    def start(gen):
        pending.append((len(results), gen, None))
        results.append([None, 0])

    for gen in itertools.islice(queue, BATCH_SIZE):
        start(gen)
    while pending:
        groups: dict = {}
        for i, gen, picked in pending:  # grows while it is walked
            try:
                s, values, rng = gen.send(picked)
            except StopIteration as stop:
                results[i][0] = stop.value
                nxt = next(queue, None)
                if nxt is not None:
                    start(nxt)
                continue
            groups.setdefault(s, []).append((i, gen, values, rng))
        pending = []
        for s, group in groups.items():
            picks = pick_tuples(s, [(values, rng) for _, _, values, rng in group])
            for (i, gen, _, _), picked in zip(group, picks):
                if picked is None:
                    results[i][1] += 1
                pending.append((i, gen, picked))
    return results


def run_one(gen):
    """A lone run: :func:`lockstep` on a batch of one; returns the value."""
    return lockstep([gen])[0][0]


def conditional_density(model: KdeModel, target: dict, given: dict) -> float:
    """Conditional kernel density of `target` values given `given` values.

    The ratio of the joint kernel density of the target and given dims to
    the marginal kernel density of the given dims, each a kernel sum over
    its own evaluation set; equal to the weighted mixture of per-tuple
    Gaussian conditionals.

    Raises:
        UnsupportedConditioningError: all marginal kernels underflow.
    """
    from scipy.special import logsumexp

    gdims, gvalues = _split_given(model, given)
    tdims, _ = _split_given(model, target)
    if set(gdims) & set(tdims):
        raise ValidationError("target and conditioning dims overlap")
    log_marginal = _log_kernels(model, gdims, gvalues)
    _check_support(log_marginal, gvalues)
    log_joint = _log_kernels(model, *_split_given(model, {**given, **target}))
    return float(np.exp(logsumexp(log_joint) - logsumexp(log_marginal)))
