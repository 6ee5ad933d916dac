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
normalized.  Kernel sums that involve no circular dimension use the original
(unreplicated) tuples so that marginal densities are not overcounted.

All tuple weights are computed in log space with max-subtraction; conditioning
far into the tails is routine during simulation and must not underflow.

Conditional draws never build the replicated set.  Each model caches, per
(given, target) pattern, the conditioning columns of its n original tuples
pre-whitened by L / sqrt(2), with L the Cholesky factor of H_{c,c}^{-1}, so
that minus a log kernel is a plain squared distance plus a constant.  The
replica at shift +s is evaluated as the shifted query ``(v - s) L / sqrt(2)``
against that same block (and -s as ``(v + s) L / sqrt(2)``).  The replicas
keep their place in the tuple order [original, +s, -s], so the cumulative
weights, the selected tuple and the random numbers drawn are those of the
replicated set.  A replica is skipped outright when the squared distance
from its whitened query to the bounding box of the whitened block proves
that every one of its log weights lies more than 800 below the best original
one: ``exp`` of such a relative log weight is exactly 0.0, so the skipped
tuples add exactly nothing to the cumulative weights either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp, ndtr

from .errors import SingularBandwidthError, UnsupportedConditioningError, ValidationError

TWO_PI = 2.0 * math.pi
_LOG_TINY = math.log(1e-300)
_LOG_2PI = math.log(TWO_PI)


@dataclass
class KdeModel:
    """A fitted multivariate Gaussian kernel density model.

    `samples` are the original training tuples (n x d); `bandwidth` is the
    d x d symmetric positive-definite kernel covariance H.  `circular_dims`
    lists dimensions living on [-pi, pi) that are unrolled by +/- 2*pi.
    The model is immutable after fitting; the mutable attributes are lazily
    built caches only.
    """

    samples: np.ndarray
    bandwidth: np.ndarray
    bandwidth_scale: float = 1.0
    structure: str = "oriented"
    circular_dims: tuple[int, ...] = ()

    _unrolled: np.ndarray | None = field(default=None, repr=False, compare=False)
    _partitions: dict = field(default_factory=dict, repr=False, compare=False)
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

    def unrolled(self) -> np.ndarray:
        """Training set replicated at joint +/- 2*pi shifts of the circular dims."""
        if not self.circular_dims:
            return self.samples
        if self._unrolled is None:
            shift = np.zeros(self.d)
            shift[list(self.circular_dims)] = TWO_PI
            self._unrolled = np.vstack(
                [self.samples, self.samples + shift, self.samples - shift]
            )
        return self._unrolled

    def _eval_samples(self, dims) -> np.ndarray:
        if set(dims) & set(self.circular_dims):
            return self.unrolled()
        return self.samples


@dataclass(frozen=True)
class ConditionalDraw:
    """Inspectable pieces of a conditional draw: weights and Gaussian parameters."""

    conditioning: np.ndarray
    weights: np.ndarray  # over the evaluation tuple set, sums to 1
    mean: np.ndarray  # mixture conditional mean, sum_i w_i mu_bar_i
    covariance: np.ndarray  # shared per-tuple conditional covariance


@dataclass(frozen=True)
class _Partition:
    given: tuple[int, ...]
    target: tuple[int, ...]
    inv_cc: np.ndarray | None
    logdet_cc: float
    reg: np.ndarray  # (t, c): H_{t,c} H_{c,c}^{-1}
    sigma: np.ndarray  # (t, t) conditional covariance
    chol_sigma: np.ndarray
    logdet_sigma: float


# A replica copy is skipped when every one of its log weights lies more than
# this far (plus a relative rounding slack) below the best original one;
# exp() of anything below about -745.13 is exactly 0.0.
_SKIP_LOG = 800.0
_SKIP_REL = 1e-6


@dataclass(frozen=True)
class _Sampler:
    """Cached conditional-draw data for one (given, target) pattern of a model."""

    given: tuple[int, ...]
    target: tuple[int, ...]
    part: _Partition
    shift: np.ndarray | None  # (d,) replica shift; None when nothing is replicated
    whiten: np.ndarray | None  # (c, c) L / sqrt(2), where L @ L.T = H_{c,c}^{-1}
    white: np.ndarray | None  # (c, n): whitened conditioning columns, one row each
    log_norm: float  # -log kernel at zero distance
    lo: list  # whitened bounding box of the block, per conditioning column
    hi: list
    white_shift: list  # the replica shift on the given dims, whitened


def fit_kde(
    samples,
    structure: str = "oriented",
    scale: float = 1.0,
    circular_dims=(),
    cov=None,
    independent_dims=(),
) -> KdeModel:
    """Fit a kernel model with a Scott-rule bandwidth.

    H = scale^2 * n^(-2/(d+4)) * C where C is the sample covariance (or the
    explicit `cov` override, which also permits n = 1).  `structure`
    "diagonal" keeps only the diagonal of H; "oriented" keeps the full matrix.
    `independent_dims` zeroes the cross-covariances between the named
    dimensions and all others (used e.g. to keep a bearing independent of
    speed and vorticity in a joint kernel).

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
    if structure not in ("diagonal", "oriented"):
        raise ValidationError(f"unknown structure {structure!r}")
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
    if structure == "diagonal":
        H = np.diag(np.diag(H))
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
    return KdeModel(
        samples=S,
        bandwidth=H,
        bandwidth_scale=float(scale),
        structure=structure,
        circular_dims=circular_dims,
    )


def _partition(model: KdeModel, given: tuple[int, ...], target: tuple[int, ...]) -> _Partition:
    key = (given, target)
    part = model._partitions.get(key)
    if part is not None:
        return part
    H = model.bandwidth
    c, t = len(given), len(target)
    if c:
        Hcc = H[np.ix_(given, given)]
        chol_cc = np.linalg.cholesky(Hcc)
        inv_cc = np.linalg.inv(Hcc)
        logdet_cc = 2.0 * float(np.sum(np.log(np.diag(chol_cc))))
    else:
        inv_cc, logdet_cc = None, 0.0
    if t:
        Htt = H[np.ix_(target, target)]
        if c:
            Htc = H[np.ix_(target, given)]
            reg = Htc @ inv_cc
            sigma = Htt - reg @ Htc.T
        else:
            reg = np.zeros((t, 0))
            sigma = Htt
        sigma = 0.5 * (sigma + sigma.T)
        try:
            chol_sigma = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise SingularBandwidthError(
                f"conditional covariance for target dims {target} is singular"
            ) from exc
        logdet_sigma = 2.0 * float(np.sum(np.log(np.diag(chol_sigma))))
    else:
        reg = np.zeros((0, c))
        sigma = np.zeros((0, 0))
        chol_sigma = sigma
        logdet_sigma = 0.0
    part = _Partition(given, target, inv_cc, logdet_cc, reg, sigma, chol_sigma, logdet_sigma)
    model._partitions[key] = part
    return part


def _as_dims(model: KdeModel, dims) -> tuple[int, ...]:
    out = tuple(int(i) for i in dims)
    if len(set(out)) != len(out) or any(i < 0 or i >= model.d for i in out):
        raise ValidationError(f"bad dimension set {out} for d={model.d}")
    return out


def _split_given(model: KdeModel, given: dict) -> tuple[tuple[int, ...], np.ndarray]:
    dims = _as_dims(model, sorted(given))
    values = np.array([float(given[i]) for i in dims])
    return dims, values


def _log_kernel_sums(diff: np.ndarray, inv: np.ndarray, logdet: float) -> np.ndarray:
    """Log Gaussian kernel with covariance described by (inv, logdet) at each row of diff."""
    q = np.einsum("nc,cd,nd->n", diff, inv, diff)
    return -0.5 * (q + logdet + diff.shape[1] * _LOG_2PI)


def _log_weights(model: KdeModel, dims, values, eval_samples, target=()):
    """Unnormalized log tuple weights for conditioning dims at `values`."""
    if not dims:
        return np.zeros(eval_samples.shape[0])
    part = _partition(model, dims, tuple(target))
    diff = values[None, :] - eval_samples[:, dims]
    logk = _log_kernel_sums(diff, part.inv_cc, part.logdet_cc)
    if logk.max() < _LOG_TINY:
        raise UnsupportedConditioningError(
            f"conditioning values {values.tolist()} outside kernel support"
        )
    return logk


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
    ev = model._eval_samples(dims)
    part = _partition(model, dims, ())
    diff = z[None, :] - ev[:, dims]
    logk = _log_kernel_sums(diff, part.inv_cc, part.logdet_cc)
    out = logsumexp(logk) - math.log(model.n)
    return float(np.exp(out))


def cdf_1d(model: KdeModel, z):
    """Kernel CDF of a 1-D non-circular model, vectorized over z."""
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
    part = _partition(model, (), tuple(range(model.d)))
    noise = rng.standard_normal((m, model.d)) @ part.chol_sigma.T
    out = model.samples[idx] + noise
    _wrap_circular(out, model.circular_dims, tuple(range(model.d)))
    return out[0] if size is None else out


def conditional_weights(model: KdeModel, given: dict) -> tuple[np.ndarray, np.ndarray]:
    """Normalized tuple weights for the given conditioning values.

    Returns (weights, evaluation samples); the evaluation set is the
    replicated one when a circular dimension is involved.
    """
    dims, values = _split_given(model, given)
    ev = model._eval_samples(dims)
    logw = _log_weights(model, dims, values, ev)
    w = np.exp(logw - logsumexp(logw))
    return w / w.sum(), ev


def conditional_info(model: KdeModel, given: dict, target_dims=None) -> ConditionalDraw:
    """Weights plus mixture conditional mean/covariance for inspection and tests."""
    dims, values = _split_given(model, given)
    target = _target_dims(model, dims, target_dims)
    w, ev = conditional_weights(model, given)
    part = _partition(model, dims, target)
    mu = ev[:, target] + (values[None, :] - ev[:, dims]) @ part.reg.T
    return ConditionalDraw(
        conditioning=values,
        weights=w,
        mean=w @ mu,
        covariance=part.sigma.copy(),
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


def _sampler(model: KdeModel, key) -> _Sampler:
    """The cached sampler for `key` = (sorted given dims, target dims or None)."""
    given_dims, target_dims = key
    dims = _as_dims(model, given_dims)
    target = _target_dims(model, dims, target_dims)
    if not target:
        raise ValidationError("no target dimensions to sample")
    part = _partition(model, dims, target)
    shift = None
    if set(model.circular_dims) & set(dims + target):
        shift = np.zeros(model.d)
        shift[list(model.circular_dims)] = TWO_PI
    whiten = white = None
    lo = hi = white_shift = []
    if dims:
        # half the squared Mahalanobis distance is a squared distance after whitening
        whiten = np.linalg.cholesky(part.inv_cc) * math.sqrt(0.5)
        white = np.ascontiguousarray((model.samples[:, dims] @ whiten).T)
        lo, hi = white.min(axis=1).tolist(), white.max(axis=1).tolist()
        if shift is not None:
            white_shift = (shift[list(dims)] @ whiten).tolist()
    sampler = _Sampler(
        given=dims, target=target, part=part, shift=shift, whiten=whiten, white=white,
        log_norm=0.5 * (part.logdet_cc + len(dims) * _LOG_2PI),
        lo=lo, hi=hi, white_shift=white_shift,
    )
    model._samplers[key] = sampler
    return sampler


def _box_sqdist(z, lo, hi) -> float:
    """Squared distance from point z to the box [lo, hi] (all Python floats)."""
    out = 0.0
    for zj, a, b in zip(z, lo, hi):
        gap = a - zj if zj < a else (zj - b if zj > b else 0.0)
        out += gap * gap
    return out


def _half_sqdist(s: _Sampler, z: np.ndarray) -> np.ndarray:
    """Minus the log kernel (up to `log_norm`) of every tuple at whitened query z."""
    diff = s.white - z[:, None]
    diff *= diff
    return diff.sum(axis=0)


def _pick_tuples(model: KdeModel, s: _Sampler, values: np.ndarray, rng, m: int):
    """Tuple rows and replica blocks (0 original, 1 at +shift, 2 at -shift)
    selected with probability proportional to their kernel weights; the
    blocks are None when every pick is an original tuple."""
    n = model.n
    z = values @ s.whiten
    dist = [_half_sqdist(s, z)]
    best = float(dist[0].min())
    blocks = [0]
    if s.shift is not None:
        if not any(s.white_shift):
            # no circular conditioning dim: the replicas weigh like the originals
            dist += [dist[0], dist[0]]
            blocks += [1, 2]
        else:
            zl = z.tolist()
            best_original = best
            for block, sign in ((1, -1.0), (2, 1.0)):
                zr = [a + sign * b for a, b in zip(zl, s.white_shift)]
                bound = _box_sqdist(zr, s.lo, s.hi)
                if bound - best_original > _SKIP_LOG + _SKIP_REL * (bound + best_original):
                    continue
                dist.append(_half_sqdist(s, np.array(zr)))
                blocks.append(block)
                best = min(best, float(dist[-1].min()))
    if -best - s.log_norm < _LOG_TINY:
        raise UnsupportedConditioningError(
            f"conditioning values {values.tolist()} outside kernel support"
        )
    cum = np.exp(best - (dist[0] if len(dist) == 1 else np.concatenate(dist))).cumsum()
    pos = cum.searchsorted(rng.random(m) * cum[-1], side="right")
    pos = np.minimum(pos, cum.size - 1)  # NaN conditioning values sort past the end
    if len(blocks) == 1:
        return pos, None
    block, row = np.divmod(pos, n)
    return row, np.asarray(blocks)[block]


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
    model (see the module docstring).

    Raises:
        UnsupportedConditioningError: all tuple weights underflow.
    """
    key = (tuple(sorted(given)), None if target_dims is None else tuple(target_dims))
    s = model._samplers.get(key)
    if s is None:
        s = _sampler(model, key)
    m = 1 if size is None else int(size)
    if s.given:
        values = np.array([float(given[i]) for i in s.given])
        row, block = _pick_tuples(model, s, values, rng, m)
    else:
        if s.shift is None:
            row, block = rng.integers(0, model.n, size=m), None
        else:
            block, row = np.divmod(rng.integers(0, 3 * model.n, size=m), model.n)
    rows = model.samples[row]
    if block is not None:
        # replica rows, with the replicated set's arithmetic
        for b, sign in ((1, 1.0), (2, -1.0)):
            sel = block == b
            if sel.any():
                rows[sel] = rows[sel] + sign * s.shift
    # fancy indexing, as in the replicated set's arithmetic: the layout of the
    # matrix product's operand picks the BLAS kernel, and so the rounding
    mu = rows[:, s.target]
    if s.given:
        mu = mu + (values[None, :] - rows[:, s.given]) @ s.part.reg.T
    draws = mu + rng.standard_normal((m, len(s.target))) @ s.part.chol_sigma.T
    _wrap_circular(draws, model.circular_dims, s.target)
    return draws[0] if size is None else draws


def conditional_density(model: KdeModel, target: dict, given: dict) -> float:
    """Conditional kernel density of `target` values given `given` values.

    Evaluates the weighted mixture of per-tuple Gaussian conditionals; equals
    the ratio of the joint to the marginal kernel density exactly.
    """
    gdims, gvalues = _split_given(model, given)
    tdims, tvalues = _split_given(model, target)
    if set(gdims) & set(tdims):
        raise ValidationError("target and conditioning dims overlap")
    ev = model._eval_samples(gdims + tdims)
    logw = _log_weights(model, gdims, gvalues, ev, target=tdims)
    logw = logw - logsumexp(logw)
    part = _partition(model, gdims, tdims)
    if gdims:
        mu = ev[:, tdims] + (gvalues[None, :] - ev[:, gdims]) @ part.reg.T
    else:
        mu = ev[:, tdims]
    diff = tvalues[None, :] - mu
    inv_sigma = np.linalg.inv(part.sigma)
    logk = _log_kernel_sums(diff, inv_sigma, part.logdet_sigma)
    return float(np.exp(logsumexp(logw + logk)))
