import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, norm

from stormsim.errors import InvalidInverseError, ValidationError
from stormsim.preprocess import (
    CHI2_95_4DF,
    DEFAULT_WINDOW,
    LAMBDA_ZERO,
    PreprocFit,
    _mu_sigma_point,
    boxcox,
    fit_preprocess,
    from_residual,
    in_window,
    to_residual,
)


def identity_fit(lam=1.0, n_cols=6):
    """Hand-built fit with mu = 0, sigma = 1 and no standardization."""
    return PreprocFit(
        lam=lam,
        mu_coef=np.zeros(n_cols),
        sigma_coef=np.zeros(n_cols),
        quadratic=False,
        col_mean=np.zeros(n_cols),
        col_scale=np.ones(n_cols),
        window=DEFAULT_WINDOW,
        loglik=0.0,
        n=0,
        w_mean=0.0,
        w_sd=1.0,
    )


def simulate(n, lam=0.5, seed=0, mu0=8.0, mu_lon=0.05, sigma=0.5):
    rng = np.random.default_rng(seed)
    lon = rng.uniform(-50.0, 10.0, n)
    lat = rng.uniform(45.0, 70.0, n)
    bearing = rng.uniform(-math.pi, math.pi, n)
    speed = rng.uniform(2.0, 25.0, n)
    w = rng.standard_normal(n)
    y = mu0 + mu_lon * lon + sigma * w
    omega = (1.0 + lam * y) ** (1.0 / lam)
    return omega, lon, lat, bearing, speed, w


NU_SCALAR = (0.0, 50.0, 0.3, 10.0)


def test_identity_boxcox():
    fit = identity_fit(lam=1.0)
    assert to_residual(3.5, NU_SCALAR, fit) == pytest.approx(2.5, abs=1e-12)  # omega - 1


def test_linear_case_closed_form():
    fit = identity_fit(lam=1.0)
    # mu = 2 via intercept coefficient, sigma = e^0.5 via intercept of log sigma
    fit = PreprocFit(**{**fit.__dict__, "mu_coef": np.array([2.0, 0, 0, 0, 0, 0.0]),
                        "sigma_coef": np.array([0.5, 0, 0, 0, 0, 0.0])})
    w = to_residual(4.0, NU_SCALAR, fit)
    assert w == pytest.approx((4.0 - 1.0 - 2.0) / math.exp(0.5), rel=1e-12)


def test_round_trip_random():
    rng = np.random.default_rng(1)
    omega, lon, lat, bearing, speed, _ = simulate(2000, seed=2)
    fit = fit_preprocess(omega, lon, lat, bearing, speed, min_points=500)
    w = to_residual(omega, (lon, lat, bearing, speed), fit)
    back = from_residual(w, (lon, lat, bearing, speed), fit)
    np.testing.assert_allclose(back, omega, atol=1e-10, rtol=1e-10)


def test_log_branch_continuity():
    base = identity_fit(lam=1e-12)
    logf = identity_fit(lam=0.0)
    for omega in (0.5, 2.0, 9.0):
        assert to_residual(omega, NU_SCALAR, base) == pytest.approx(
            to_residual(omega, NU_SCALAR, logf), abs=1e-9
        )
    for w in (-1.0, 0.4, 2.0):
        assert from_residual(w, NU_SCALAR, base) == pytest.approx(
            from_residual(w, NU_SCALAR, logf), rel=1e-9
        )


def test_lambda_recovery():
    omega, lon, lat, bearing, speed, _ = simulate(50_000, lam=0.5, seed=3)
    fit = fit_preprocess(omega, lon, lat, bearing, speed, allow_quadratic=False)
    assert fit.lam == pytest.approx(0.5, abs=0.05)
    assert fit.w_mean == pytest.approx(0.0, abs=0.02)
    assert fit.w_sd == pytest.approx(1.0, abs=0.02)


def test_profile_beats_coarse_lambda_grid():
    omega, lon, lat, bearing, speed, _ = simulate(5000, lam=0.5, seed=4)
    fit = fit_preprocess(omega, lon, lat, bearing, speed, allow_quadratic=False)
    from stormsim.preprocess import _fit_core, _raw_design, _standardize

    X = _raw_design(lon, lat, bearing, speed, False)
    cm, cs = X.mean(axis=0), X.std(axis=0)
    cm[0], cs[0] = 0.0, 1.0
    Xs = _standardize(X, cm, cs)
    log_j = float(np.sum(np.log(omega)))
    for lam in np.linspace(-1.0, 2.0, 13):
        res = _fit_core(boxcox(omega, lam), Xs)
        ll = -(res.fun - (lam - 1.0) * log_j)
        fit_ll = fit.loglik + 0.5 * omega.size * math.log(2 * math.pi)
        assert fit_ll >= ll - 1e-4


def test_rejects_nonpositive_vorticity():
    omega, lon, lat, bearing, speed, _ = simulate(1500, seed=5)
    omega[3] = -1.0
    with pytest.raises(ValidationError, match="positive"):
        fit_preprocess(omega, lon, lat, bearing, speed, min_points=500)


def test_requires_min_in_window_points():
    omega, lon, lat, bearing, speed, _ = simulate(500, seed=6)
    with pytest.raises(ValidationError, match="in-window"):
        fit_preprocess(omega, lon, lat, bearing, speed)


def test_out_of_window_points_ignored():
    omega, lon, lat, bearing, speed, _ = simulate(3000, seed=7)
    lon2 = lon.copy()
    lon2[:1000] = -150.0  # shoved outside the window
    fit = fit_preprocess(omega, lon2, lat, bearing, speed, min_points=500)
    assert fit.n == 2000


def test_invalid_inverse_raises():
    fit = identity_fit(lam=0.5)
    with pytest.raises(InvalidInverseError):
        from_residual(-10.0, NU_SCALAR, fit)  # 1 + 0.5*(-10) < 0


def test_training_residuals_approximately_standard_normal():
    omega, lon, lat, bearing, speed, _ = simulate(20_000, lam=0.5, seed=8)
    fit = fit_preprocess(omega, lon, lat, bearing, speed, allow_quadratic=False)
    w = np.sort(to_residual(omega, (lon, lat, bearing, speed), fit))
    n = w.size
    p = (np.arange(1, n + 1) - 0.5) / n
    q = norm.ppf(p)
    # pointwise normal bands for order statistics
    se = np.sqrt(p * (1 - p) / n) / norm.pdf(q)
    inside = np.abs(w - q) < 2.5 * se + 0.02
    assert inside.mean() >= 0.95


def test_spatial_structure_removed():
    # strong lon-dependent mean: per-cell W spread must shrink vs raw omega
    omega, lon, lat, bearing, speed, _ = simulate(30_000, lam=0.5, seed=9, mu_lon=0.15)
    fit = fit_preprocess(omega, lon, lat, bearing, speed, allow_quadratic=False)
    w = to_residual(omega, (lon, lat, bearing, speed), fit)
    cells = np.floor((lon + 60.0) / 8.0).astype(int)
    raw_means, w_means = [], []
    for c in np.unique(cells):
        m = cells == c
        if m.sum() < 50:
            continue
        raw_means.append(omega[m].mean() / omega.std())
        w_means.append(w[m].mean() / w.std())
    assert np.std(w_means) <= np.std(raw_means) / 3.0


def test_in_window_helper():
    assert bool(in_window(0.0, 50.0, DEFAULT_WINDOW))
    assert not bool(in_window(-70.0, 50.0, DEFAULT_WINDOW))
    assert not bool(in_window(0.0, 30.0, DEFAULT_WINDOW))


@pytest.mark.parametrize("lam,quadratic", [(0.0039, False), (0.5, True), (1e-9, False), (2.0, True)])
def test_scalar_path_matches_array_path_bit_for_bit(lam, quadratic):
    rng = np.random.default_rng(21)
    p = 8 if quadratic else 6
    col_mean, col_scale = rng.normal(size=p), rng.uniform(0.5, 3.0, p)
    col_mean[0], col_scale[0] = 0.0, 1.0
    fit = PreprocFit(lam=lam, mu_coef=rng.normal(size=p), sigma_coef=0.1 * rng.normal(size=p),
                     quadratic=quadratic, col_mean=col_mean, col_scale=col_scale,
                     window=DEFAULT_WINDOW, loglik=0.0, n=0, w_mean=0.0, w_sd=1.0)
    for _ in range(300):
        nu = (float(rng.uniform(-60, 20)), float(rng.uniform(40, 80)),
              float(rng.uniform(-4, 4)), float(rng.uniform(0, 30)))
        arrays = tuple(np.array([v]) for v in nu)
        omega = float(rng.uniform(0.05, 30.0))
        assert to_residual(omega, nu, fit) == to_residual(np.array([omega]), arrays, fit)[0]
        w = float(rng.normal())
        try:
            want = from_residual(np.array([w]), arrays, fit)[0]
        except InvalidInverseError:
            with pytest.raises(InvalidInverseError):
                from_residual(w, nu, fit)
            continue
        assert from_residual(w, nu, fit) == want


EPS = np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(
    lam=st.one_of(st.floats(-2.0, 3.0), st.floats(-1e-6, 1e-6)),
    log_omega=st.floats(-30.0, 30.0),
    lon=st.floats(-60.0, 20.0),
    lat=st.floats(40.0, 80.0),
    bearing=st.floats(-math.pi, math.pi),
    speed=st.floats(0.0, 30.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(lam, log_omega, lon, lat, bearing, speed, seed):
    """from_residual(to_residual(omega)) == omega to within the rounding the
    Box-Cox map's conditioning allows.

    Near the domain edge t = omega**lambda -> 0 (omega -> 0 for lambda > 0,
    omega -> inf for lambda < 0), a rounding error of order eps * |y| in the
    Box-Cox value y moves omega by that much relative to t; there the inverse
    may also find 1 + lambda*y <= 0 and raise, but only when t is within
    rounding of 0.
    """
    rng = np.random.default_rng(seed)
    col_mean, col_scale = rng.normal(size=6), rng.uniform(0.5, 3.0, 6)
    col_mean[0], col_scale[0] = 0.0, 1.0
    fit = PreprocFit(lam=lam, mu_coef=rng.normal(size=6), sigma_coef=0.3 * rng.normal(size=6),
                     quadratic=False, col_mean=col_mean, col_scale=col_scale,
                     window=DEFAULT_WINDOW, loglik=0.0, n=0, w_mean=0.0, w_sd=1.0)
    nu = (lon, lat, bearing, speed)
    omega = math.exp(log_omega)
    mu = float(_mu_sigma_point(fit, *nu)[0])
    y = float(boxcox(omega, lam))
    t = 1.0 if abs(lam) < LAMBDA_ZERO else math.exp(lam * log_omega)
    w = to_residual(omega, nu, fit)
    try:
        back = from_residual(w, nu, fit)
    except InvalidInverseError:
        assert t <= 16 * EPS * (1.0 + abs(lam) * (1.0 + abs(mu) + abs(y)))
        return
    bound = 16 * EPS * ((1.0 + abs(mu) + abs(y)) / t + 1.0 + abs(log_omega))
    assert abs(back / omega - 1.0) <= bound


def test_quadratic_critical_value_is_scipys():
    assert CHI2_95_4DF == chi2.ppf(0.95, 4)
    # the closed-form 4-df survival function at the critical value
    assert math.exp(-CHI2_95_4DF / 2) * (1 + CHI2_95_4DF / 2) == pytest.approx(0.05, rel=1e-14)
