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
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline, PPoly
from scipy.special import expit

from .errors import FitError, SeparationError, ValidationError

log = logging.getLogger(__name__)

MIN_AGE = 8  # first age (in 3-hourly steps, 1-based) at which termination can occur
DEFAULT_COVARIATES = ("vorticity", "drop", "age", "lon", "lat")
SEPARATION_LIMIT = 50.0
REFIT_CANDIDATES = 3  # grid values per smooth and sweep refitted by full IRLS


@dataclass(frozen=True)
class SplineBasis:
    """Cubic B-spline basis with linear extrapolation outside the knot range."""

    covariate: str
    knots: np.ndarray  # full knot vector with boundary multiplicity
    degree: int = 3
    penalty_order: int = 2

    _edge: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        n_min = 2 * (self.degree + 1)
        if self.knots.ndim != 1 or self.knots.size <= n_min:
            raise ValidationError(
                f"basis {self.covariate!r}: need more than {n_min} knots for degree "
                f"{self.degree}, got {self.knots.size}"
            )
        if np.any(np.diff(self.knots) < 0.0):
            raise ValidationError(f"basis {self.covariate!r}: knots decrease")

    @property
    def size(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def bounds(self) -> tuple[float, float]:
        return float(self.knots[self.degree]), float(self.knots[-self.degree - 1])

    def _edge_rows(self):
        if not self._edge:
            a, b = self.bounds
            eye = np.eye(self.size)
            val = BSpline.design_matrix(np.array([a, b]), self.knots, self.degree).toarray()
            deriv = np.array(
                [[BSpline(self.knots, eye[j], self.degree).derivative()(x) for j in range(self.size)]
                 for x in (a, b)]
            )
            self._edge.update(Ba=val[0], Bb=val[1], Da=deriv[0], Db=deriv[1])
        return self._edge

    def design(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a, b = self.bounds
        M = BSpline.design_matrix(np.clip(x, a, b), self.knots, self.degree).toarray()
        lo, hi = x < a, x > b
        if lo.any() or hi.any():
            e = self._edge_rows()
            if lo.any():
                M[lo] = e["Ba"][None, :] + (x[lo] - a)[:, None] * e["Da"][None, :]
            if hi.any():
                M[hi] = e["Bb"][None, :] + (x[hi] - b)[:, None] * e["Db"][None, :]
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


def make_basis(covariate: str, values, n_interior: int = 10, degree: int = 3) -> SplineBasis:
    """Knots at training quantiles (deduplicated, strictly interior)."""
    x = np.asarray(values, dtype=float)
    a, b = float(x.min()), float(x.max())
    if not a < b:
        raise ValidationError(f"covariate {covariate!r} is constant; cannot build a spline basis")
    qs = np.quantile(x, np.linspace(0.0, 1.0, n_interior + 2)[1:-1])
    interior = np.unique(qs)
    interior = interior[(interior > a) & (interior < b)]
    knots = np.concatenate([[a] * (degree + 1), interior, [b] * (degree + 1)])
    return SplineBasis(covariate=covariate, knots=knots, degree=degree)


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
    converged: bool
    min_age: int = MIN_AGE

    _splines: dict = field(default_factory=dict, repr=False, compare=False)
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
        if self.smoothing.shape != (n_smooth,):
            raise ValidationError(f"smoothing must hold {n_smooth} values, got {self.smoothing.shape}")

    def _effect_spline(self, i: int) -> BSpline:
        # s_i(x) = B(x) @ (Z @ coef): one spline with combined coefficients
        sp = self._splines.get(i)
        if sp is None:
            c = self.constraints[i] @ self.coef[self.slices[i]]
            sp = BSpline(self.bases[i].knots, c, self.bases[i].degree, extrapolate=False)
            self._splines[i] = sp
        return sp

    def smooth_effect(self, name: str, x) -> np.ndarray:
        """The centered effect s_name evaluated at x (linear outside the knots)."""
        i = self.covariates.index(name)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        basis = self.bases[i]
        a, b = basis.bounds
        sp = self._effect_spline(i)
        out = np.asarray(sp(np.clip(x, a, b)), dtype=float)
        lo, hi = x < a, x > b
        if lo.any() or hi.any():
            e = basis._edge_rows()
            c = self.constraints[i] @ self.coef[self.slices[i]]
            if lo.any():
                out[lo] = e["Ba"] @ c + (x[lo] - a) * (e["Da"] @ c)
            if hi.any():
                out[hi] = e["Bb"] @ c + (x[hi] - b) * (e["Db"] @ c)
        return out

    def _effect_table(self, i: int) -> _EffectTable:
        basis = self.bases[i]
        a, b = basis.bounds
        pp = PPoly.from_spline(self._effect_spline(i))
        keep = [j for j in range(pp.x.size - 1) if a <= pp.x[j] < pp.x[j + 1] <= b]
        e = basis._edge_rows()
        c = self.constraints[i] @ self.coef[self.slices[i]]
        return _EffectTable(
            breaks=[float(pp.x[j]) for j in keep],
            coefs=[tuple(float(v) for v in pp.c[:, j]) for j in keep],
            a=a, b=b,
            value_a=float(e["Ba"] @ c), slope_a=float(e["Da"] @ c),
            value_b=float(e["Bb"] @ c), slope_b=float(e["Db"] @ c),
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

    def linear_predictor(self, covariate_values: dict) -> np.ndarray:
        """Vectorized eta = intercept + sum of smooth effects."""
        arrays = {k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in covariate_values.items()}
        n = max(a.size for a in arrays.values()) if arrays else 1
        eta = np.full(n, self.coef[0])
        for i, name in enumerate(self.covariates):
            x = arrays[name]
            if x.size == 1 and n > 1:
                x = np.full(n, x[0])
            eta = eta + self.smooth_effect(name, x)
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
    return _deviance(y, expit(np.clip(X @ beta, -30.0, 30.0)))


def _penalized_dev(X, y, S, beta):
    return _dev_at(X, y, beta) + float(beta @ S @ beta)


def _working(X, y, beta):
    """X^T W X and X^T W z for the IRLS working weights and response at beta."""
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
        converged=True,
    )


def hazard(fit: GamFit, covariates: dict, age: float) -> float:
    """Termination probability at the given age: 0 before age 8, logistic after.

    `covariates` maps covariate names (including "age", which is overridden by
    the `age` argument) to values.
    """
    if age < fit.min_age:
        return 0.0
    values = dict(covariates)
    if "age" in fit.covariates:
        values["age"] = float(age)
    return float(expit(fit.predictor_at(values)))
