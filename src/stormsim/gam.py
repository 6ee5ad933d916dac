"""Logistic additive hazard model for storm termination.

Each covariate effect is a cubic B-spline with interior knots at training
quantiles, a second-order difference penalty on its coefficients, and a
sum-to-zero constraint absorbed by reparameterization so the intercept stays
identifiable.  Outside the knot range the basis extends linearly.  Fitting is
penalized IRLS; smoothing parameters minimize GCV = n * deviance / (n - edf)^2
over a log-spaced grid, scanned coordinate-wise.  A scan scores every grid
value by one penalized solve under the IRLS weights of the incumbent fit
(performance iteration, Wood 2004) and refits only the best few by full IRLS,
keeping one only if its exact GCV is lower.

The hazard is zero before age 8 (storms must live 24 h) and logistic in the
sum of smooth effects afterwards.  Simulation evaluates it one point at a
time, from per-smooth piecewise-cubic tables built lazily from the fitted
coefficients (bisection for the knot interval, then Horner, with the same
linear tails); :meth:`GamFit.smooth_effect` remains the reference.

One numpy routine, :func:`_spline_rows` (de Boor 1978), gives the design
rows, the linear tails and the tables.  scipy is imported inside the
functions that call ``expit`` (the fit and the hazard), so importing this
module loads no scipy module.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, SeparationError, ValidationError

log = logging.getLogger(__name__)

MIN_AGE = 8  # first age (in 3-hourly steps, 1-based) at which termination can occur
DEFAULT_COVARIATES = ("vorticity", "drop", "age", "lon", "lat")  # all that storm_rows makes
SEPARATION_LIMIT = 50.0
REFIT_CANDIDATES = 3  # grid values per smooth and sweep refitted by full IRLS


def _spline_rows(t: np.ndarray, k: int, x, nu: int = 0) -> np.ndarray:
    """Rows mapping the coefficients of a degree-k spline on knots t to its
    nu-th derivative at each x in [t[k], t[-k-1]].

    Values follow de Boor's recurrence in scipy's order of operations, so
    they match its design matrix bit for bit; a derivative is the degree k-1
    spline on t[1:-1] with coefficients k (c[i+1] - c[i]) / (t[i+k+1] - t[i+1]).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = t.size - k - 1
    rows = np.zeros((x.size, n))
    if nu:
        dt = t[k + 1 : -1] - t[1 : -k - 1]
        lower = _spline_rows(t[1:-1], k - 1, x, nu - 1) * np.divide(
            k, dt, out=np.zeros_like(dt), where=dt != 0.0)
        rows[:, 1:] += lower
        rows[:, :-1] -= lower
        return rows
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    h = np.zeros((x.size, k + 1))
    h[:, 0] = 1.0
    for j in range(1, k + 1):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for m in range(1, j + 1):
            xb, xa = t[ell + m], t[ell + m - j]
            span = xb != xa
            w = np.divide(prev[:, m - 1], xb - xa, out=np.zeros(x.size), where=span)
            h[:, m - 1] = np.where(span, h[:, m - 1] + w * (xb - x), h[:, m - 1])
            h[:, m] = w * (x - xa)
    rows[np.arange(x.size)[:, None], ell[:, None] + np.arange(-k, 1)] = h
    return rows


@dataclass(frozen=True)
class SplineBasis:
    """Cubic B-spline basis with linear extrapolation outside the knot range."""

    covariate: str
    knots: np.ndarray  # full knot vector with boundary multiplicity
    degree: int = 3

    def __post_init__(self):
        name = self.covariate
        if not (isinstance(self.degree, int) and self.degree == 3):
            raise ValidationError(f"basis {name!r}: degree must be 3, got {self.degree!r}")
        if self.knots.ndim != 1 or self.knots.size <= 8:
            raise ValidationError(f"basis {name!r}: need more than 8 knots, got {self.knots.size}")
        if not np.isfinite(self.knots).all():
            raise ValidationError(f"basis {name!r}: knots must be finite")
        if np.any(np.diff(self.knots) < 0.0):
            raise ValidationError(f"basis {name!r}: knots decrease")
        if not self.knots[3] < self.knots[-4]:
            raise ValidationError(f"basis {name!r}: empty knot range {self.bounds}")

    @property
    def size(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def bounds(self) -> tuple[float, float]:
        return float(self.knots[self.degree]), float(self.knots[-self.degree - 1])

    def design(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        end = np.clip(x, *self.bounds)
        M = _spline_rows(self.knots, self.degree, end)
        out = x != end  # beyond the knots: the tangent line at the nearer end
        if out.any():
            M[out] += (x - end)[out, None] * _spline_rows(self.knots, self.degree, end[out], nu=1)
        return M

    def greville(self) -> np.ndarray:
        p = self.degree
        return np.array([self.knots[j + 1 : j + p + 1].mean() for j in range(self.size)])

    def penalty(self) -> np.ndarray:
        # second-order divided differences against the Greville abscissae:
        # with non-uniform (quantile) knots this makes the penalty null space
        # exactly the functions linear in x, so lambda -> inf collapses the
        # effect to a straight line
        xi = self.greville()
        q = self.size
        D1 = np.diff(np.eye(q), axis=0) / np.diff(xi)[:, None]
        D2 = np.diff(D1, axis=0)
        return D2.T @ D2


def make_basis(covariate: str, values, n_interior: int = 10) -> SplineBasis:
    """Knots at training quantiles (deduplicated, strictly interior)."""
    x = np.asarray(values, dtype=float)
    a, b = float(x.min()), float(x.max())
    if not a < b:
        raise ValidationError(f"covariate {covariate!r} is constant; cannot build a spline basis")
    qs = np.quantile(x, np.linspace(0.0, 1.0, n_interior + 2)[1:-1])
    interior = np.unique(qs)
    interior = interior[(interior > a) & (interior < b)]
    knots = np.concatenate([[a] * 4, interior, [b] * 4])
    return SplineBasis(covariate=covariate, knots=knots)


@dataclass(frozen=True)
class HazardDesign:
    """Assembled regression problem: intercept plus constrained smooth blocks."""

    matrix: np.ndarray
    outcomes: np.ndarray
    bases: tuple[SplineBasis, ...]
    constraints: tuple[np.ndarray, ...]  # per-smooth reparameterization Z
    slices: tuple[slice, ...]
    covariates: tuple[str, ...]


def _constraint_null_basis(col_means: np.ndarray) -> np.ndarray:
    # orthonormal basis of {g : col_means @ g = 0}; absorbs the sum-to-zero
    # constraint so the constant direction cannot alias the intercept
    Q, _ = np.linalg.qr(col_means[:, None], mode="complete")
    return Q[:, 1:]


def storm_rows(storms, covariates=DEFAULT_COVARIATES, terminal=None):
    """Per-step covariate rows and outcomes for the termination model.

    One row per point with age >= 8 (1-based); the outcome is 1 exactly at the
    final point of a storm whose end is a real termination (`terminal` flags,
    default all True; censored storms contribute only 0 rows).  Storms with
    fewer than 9 points would contribute a single all-terminal row and are
    excluded with a warning.
    """
    if terminal is None:
        terminal = [True] * len(storms)
    cols: dict[str, list] = {name: [np.empty(0)] for name in covariates}
    y = [np.empty(0)]
    n_skipped = 0
    for storm, is_terminal in zip(storms, terminal):
        n = len(storm)
        if n < MIN_AGE + 1:
            n_skipped += 1
            continue
        vort = storm.vorticities
        values = {
            "vorticity": vort[MIN_AGE - 1 :],
            "drop": vort[MIN_AGE - 2 : -1] - vort[MIN_AGE - 1 :],
            "age": np.arange(MIN_AGE, n + 1, dtype=float),
            "lon": storm.lons[MIN_AGE - 1 :],
            "lat": storm.lats[MIN_AGE - 1 :],
        }
        for name in covariates:
            cols[name].append(values[name])
        y.append((values["age"] == n) & bool(is_terminal))
    if n_skipped:
        log.warning("termination design: excluded %d storm(s) shorter than %d points",
                    n_skipped, MIN_AGE + 1)
    return {name: np.concatenate(vals) for name, vals in cols.items()}, np.concatenate(y)


def build_design(storms, covariates=DEFAULT_COVARIATES, terminal=None, n_interior: int = 10) -> HazardDesign:
    """Build the penalized design from storm tracks (see :func:`storm_rows`)."""
    cols, y = storm_rows(storms, covariates=covariates, terminal=terminal)
    if y.size == 0:
        raise ValidationError("no eligible rows: every storm is shorter than 9 points")
    bases, constraints, blocks, slices = [], [], [], []
    start = 1
    for name in covariates:
        basis = make_basis(name, cols[name], n_interior=n_interior)
        B = basis.design(cols[name])
        Z = _constraint_null_basis(B.mean(axis=0))
        blocks.append(B @ Z)
        bases.append(basis)
        constraints.append(Z)
        width = Z.shape[1]
        slices.append(slice(start, start + width))
        start += width
    X = np.column_stack([np.ones(y.size)] + blocks) if blocks else np.ones((y.size, 1))
    return HazardDesign(
        matrix=X,
        outcomes=y,
        bases=tuple(bases),
        constraints=tuple(constraints),
        slices=tuple(slices),
        covariates=tuple(covariates),
    )


@dataclass(frozen=True)
class _EffectTable:
    """One smooth effect as a cubic polynomial per knot interval in [a, b],
    in powers of the distance from the interval's left end, and linear
    beyond both ends."""

    breaks: list  # left ends of the knot intervals
    coefs: list  # per interval (c3, c2, c1, c0)
    a: float
    b: float
    value_a: float
    slope_a: float
    value_b: float
    slope_b: float

    def __call__(self, x: float) -> float:
        if x < self.a:
            return self.value_a + (x - self.a) * self.slope_a
        if x > self.b:
            return self.value_b + (x - self.b) * self.slope_b
        i = bisect_right(self.breaks, x) - 1
        c3, c2, c1, c0 = self.coefs[i]
        dx = x - self.breaks[i]
        return ((c3 * dx + c2) * dx + c1) * dx + c0


@dataclass(frozen=True)
class GamFit:
    """Fitted logistic additive hazard."""

    covariates: tuple[str, ...]
    bases: tuple[SplineBasis, ...]
    constraints: tuple[np.ndarray, ...]
    slices: tuple[slice, ...]
    coef: np.ndarray
    smoothing: np.ndarray  # one lambda per smooth
    gcv_score: float
    aic: float
    edf: float
    deviance: float
    n_rows: int

    _tables: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        n_smooth = len(self.covariates)
        if not len(self.bases) == len(self.constraints) == len(self.slices) == n_smooth:
            raise ValidationError(f"need one basis, constraint and slice per covariate ({n_smooth})")
        for name, basis, Z, sl in zip(self.covariates, self.bases, self.constraints, self.slices):
            if Z.shape != (basis.size, sl.stop - sl.start):
                raise ValidationError(
                    f"smooth {name!r}: constraint must be {basis.size} x {sl.stop - sl.start} "
                    f"(basis size x slice width), got {Z.shape}"
                )
        n_coef = self.slices[-1].stop if self.slices else 1
        if self.coef.shape != (n_coef,):
            raise ValidationError(f"coef must hold {n_coef} values, got {self.coef.shape}")
        if not all(np.isfinite(v).all() for v in (self.coef, *self.constraints)):
            raise ValidationError("coef and constraints must be finite")
        if self.smoothing.shape != (n_smooth,):
            raise ValidationError(f"smoothing must hold {n_smooth} values, got {self.smoothing.shape}")

    def smooth_effect(self, name: str, x) -> np.ndarray:
        """The centered effect s_name evaluated at x (linear outside the knots)."""
        i = self.covariates.index(name)
        return self.bases[i].design(x) @ (self.constraints[i] @ self.coef[self.slices[i]])

    def _effect_table(self, i: int) -> _EffectTable:
        # the cubic on each knot interval in powers of dx: the r-th derivative
        # at the interval's left end over r!
        basis = self.bases[i]
        t, k = basis.knots, basis.degree
        a, b = basis.bounds
        c = self.constraints[i] @ self.coef[self.slices[i]]
        breaks = np.unique(t[(t >= a) & (t < b)])
        powers = [(_spline_rows(t, k, breaks, nu=r) @ c / math.factorial(r)).tolist()
                  for r in range(k, -1, -1)]
        value, slope = (_spline_rows(t, k, [a, b], nu=r) for r in (0, 1))
        return _EffectTable(
            breaks=breaks.tolist(),
            coefs=list(zip(*powers)),
            a=a, b=b,
            value_a=float(value[0] @ c), slope_a=float(slope[0] @ c),
            value_b=float(value[1] @ c), slope_b=float(slope[1] @ c),
        )

    def _effect_tables(self) -> list[_EffectTable]:
        """Piecewise-cubic tables of the smooth effects, built on first use."""
        if not self._tables:
            self._tables.extend(self._effect_table(i) for i in range(len(self.covariates)))
        return self._tables

    def predictor_at(self, covariate_values: dict) -> float:
        """eta at one covariate point, from lazily built piecewise-cubic tables of the effects."""
        eta = float(self.coef[0])
        for name, table in zip(self.covariates, self._effect_tables()):
            eta = eta + table(float(covariate_values[name]))
        return eta


def _penalty_blocks(design: HazardDesign) -> list[np.ndarray]:
    """Per-smooth constrained penalty Z^T P Z, built once per fit."""
    return [Z.T @ basis.penalty() @ Z for basis, Z in zip(design.bases, design.constraints)]


def _pen_matrix(p, blocks, slices, lams):
    S = np.zeros((p, p))
    for block, sl, lam in zip(blocks, slices, lams):
        S[sl, sl] = lam * block
    return S


def _deviance(y, p):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return -2.0 * float(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _dev_at(X, y, beta):
    from scipy.special import expit

    return _deviance(y, expit(np.clip(X @ beta, -30.0, 30.0)))


def _penalized_dev(X, y, S, beta):
    return _dev_at(X, y, beta) + float(beta @ S @ beta)


def _working(X, y, beta):
    """X^T W X and X^T W z for the IRLS working weights and response at beta."""
    from scipy.special import expit

    eta = np.clip(X @ beta, -30.0, 30.0)
    p = expit(eta)
    w = np.maximum(p * (1.0 - p), 1e-10)
    Xw = X * w[:, None]
    return X.T @ Xw, Xw.T @ (eta + (y - p) / w)


def _gcv(n, dev, edf):
    return n * dev / (n - edf) ** 2


def _irls(X, y, S, beta0, max_iter=100, tol=1e-8):
    beta = beta0.copy()
    dev = _penalized_dev(X, y, S, beta)
    for _ in range(max_iter):
        XtWX, XtWz = _working(X, y, beta)
        direction = np.linalg.solve(XtWX + S, XtWz) - beta
        # step-halving keeps the penalized deviance monotone; plain IRLS can
        # overshoot on low-probability outcomes
        step = 1.0
        cand, dev_new = beta, dev
        while step > 1e-12:
            trial = beta + step * direction
            d = _penalized_dev(X, y, S, trial)
            if d <= dev + 1e-12:
                cand, dev_new = trial, d
                break
            step /= 2.0
        if np.max(np.abs(cand)) > SEPARATION_LIMIT:
            raise SeparationError(
                f"coefficient magnitude exceeded {SEPARATION_LIMIT}; data look separated"
            )
        done = abs(dev - dev_new) < tol * (abs(dev_new) + 1.0)
        beta, dev = cand, dev_new
        if done:
            dev = _dev_at(X, y, beta)
            break
    else:
        raise FitError("penalized IRLS did not converge")
    # effective degrees of freedom: trace of the influence matrix
    XtWX = _working(X, y, beta)[0]
    return beta, dev, float(np.trace(np.linalg.solve(XtWX + S, XtWX)))


def _scan_order(X, y, blocks, slices, lams, s, grid, beta):
    """(lambda, coefficients) for the grid values of smooth s other than its
    current one, best first by GCV under the IRLS weights fixed at beta: one
    penalized solve each, no iteration (the performance-iteration idea of
    Wood 2004)."""
    n, p = X.shape
    XtWX, XtWz = _working(X, y, beta)
    scored = []
    for j, lam in enumerate(grid):
        if lam == lams[s]:
            continue
        trial = lams.copy()
        trial[s] = lam
        try:
            sol = np.linalg.solve(XtWX + _pen_matrix(p, blocks, slices, trial),
                                  np.column_stack([XtWz, XtWX]))
        except np.linalg.LinAlgError:
            continue
        score = _gcv(n, _dev_at(X, y, sol[:, 0]), float(np.trace(sol[:, 1:])))
        if math.isfinite(score):
            scored.append((score, j, lam, sol[:, 0]))
    scored.sort(key=lambda c: c[:2])
    return [(lam, b) for _, _, lam, b in scored]


def fit_gam(design: HazardDesign, gcv_grid=None, sweeps: int = 2) -> GamFit:
    """Fit by penalized IRLS with coordinate-wise GCV smoothing selection.

    GCV(lambda) = n * deviance / (n - edf)^2 at a converged fit.  Each sweep
    visits the smooths in turn.  For a smooth, every value of the grid
    (default 41 points, log-spaced on [1e-4, 1e4]) is first scored under
    the IRLS weights of the incumbent fit, by one penalized solve; the
    REFIT_CANDIDATES best are then fitted by full penalized IRLS, and one
    replaces the incumbent only if its exact GCV is lower, so the score
    never rises.  A fit therefore runs at most 1 + 3 * sweeps * n_smooth
    full IRLS fits.

    Raises:
        ValidationError: single-class outcomes or too few rows.
        SeparationError: apparent (quasi-)separation.
        FitError: IRLS divergence.
    """
    X, y = design.matrix, design.outcomes
    n, p = X.shape
    if len(np.unique(y)) < 2:
        raise ValidationError("outcomes are single-class; cannot fit a hazard")
    if n <= p:
        raise ValidationError(f"{n} rows for {p} coefficients; need more data")
    if gcv_grid is None:
        gcv_grid = np.logspace(-4.0, 4.0, 41)

    blocks = _penalty_blocks(design)
    n_smooth = len(design.bases)
    lams = np.ones(n_smooth)
    beta = np.zeros(p)
    ybar = float(np.mean(y))
    beta[0] = math.log(ybar / (1.0 - ybar))

    def fit_at(lams_vec, start):
        b, dev, edf = _irls(X, y, _pen_matrix(p, blocks, design.slices, lams_vec), start)
        return b, dev, edf, _gcv(n, dev, edf)

    beta, dev, edf, gcv = fit_at(lams, beta)
    for _ in range(max(sweeps, 0) if n_smooth else 0):
        for s in range(n_smooth):
            best = (gcv, lams[s], beta, dev, edf)
            order = _scan_order(X, y, blocks, design.slices, lams, s, gcv_grid, beta)
            for lam, start in order[:REFIT_CANDIDATES]:
                trial = lams.copy()
                trial[s] = lam
                try:
                    b, d, e, g = fit_at(trial, start)
                except (SeparationError, FitError):
                    continue
                if g < best[0]:
                    best = (g, lam, b, d, e)
            gcv, lams[s], beta, dev, edf = best
    aic = dev + 2.0 * edf
    return GamFit(
        covariates=design.covariates,
        bases=design.bases,
        constraints=design.constraints,
        slices=design.slices,
        coef=beta,
        smoothing=lams,
        gcv_score=float(gcv),
        aic=float(aic),
        edf=float(edf),
        deviance=float(dev),
        n_rows=int(n),
    )


def hazard(fit: GamFit, covariates: dict, age: float) -> float:
    """Termination probability at the given age: 0 before age 8, logistic after.

    `covariates` maps covariate names (including "age", which is overridden by
    the `age` argument) to values.
    """
    if age < MIN_AGE:
        return 0.0
    from scipy.special import expit

    values = dict(covariates)
    if "age" in fit.covariates:
        values["age"] = float(age)
    return float(expit(fit.predictor_at(values)))
