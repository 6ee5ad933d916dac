import math

import numpy as np
import pytest
from scipy.stats import genpareto, multivariate_normal, norm

from stormsim.errors import InsufficientTailError, ValidationError
from stormsim.kde import cdf_1d
from stormsim.evt import (
    GpdFit,
    MixtureMarginal,
    chi_tau,
    fit_gpd,
    fit_mixture,
    from_laplace,
    gpd_survival,
    mean_residual_life,
    mixture_cdf,
    mixture_quantile,
    to_laplace,
)


def make_fit(threshold=0.0, scale=1.0, shape=-0.3, rate=0.05, n=100):
    return GpdFit(
        threshold=threshold, scale=scale, shape=shape, exceed_rate=rate,
        n_exceed=n, converged=True, empirical_rate=rate, loglik=0.0,
    )


# ---------------------------------------------------------------- survival

def test_survival_closed_form():
    fit = make_fit(scale=1.0, shape=-0.5)
    assert gpd_survival(fit, 1.0) == pytest.approx(0.25, rel=1e-12)  # (1 - 0.5)^2


def test_survival_beyond_endpoint_is_zero():
    fit = make_fit(scale=1.0, shape=-0.5)  # endpoint at z = 2
    assert gpd_survival(fit, 2.0) == 0.0
    assert gpd_survival(fit, 5.0) == 0.0


def test_survival_continuous_at_shape_zero():
    lo = make_fit(shape=1e-12)
    for z in (0.1, 1.0, 3.0):
        assert gpd_survival(lo, z) == pytest.approx(math.exp(-z), rel=1e-9)


# ---------------------------------------------------------------- fitting

def test_gpd_recovery_paper_values():
    rng = np.random.default_rng(1)
    y = genpareto.rvs(c=-0.246, scale=0.449, size=5000, random_state=rng)
    data = np.concatenate([rng.normal(-3, 1, 20_000), y + 1.5])  # body below u
    fit = fit_gpd(data, u=1.5)
    assert fit.scale == pytest.approx(0.449, abs=0.05)
    assert fit.shape == pytest.approx(-0.246, abs=0.08)
    assert fit.converged


def test_gpd_exponential_limit():
    rng = np.random.default_rng(2)
    data = rng.exponential(scale=2.0, size=10_000)
    fit = fit_gpd(data, u=0.0)
    assert abs(fit.shape) < 0.05
    assert fit.scale == pytest.approx(2.0, rel=0.05)


def test_gpd_loglik_beats_grid_oracle():
    rng = np.random.default_rng(3)
    data = genpareto.rvs(c=-0.2, scale=1.0, size=2000, random_state=rng)
    fit = fit_gpd(data, u=0.0)
    y = data[data > 0.0]
    best_grid = -math.inf
    for psi in np.linspace(0.5 * fit.scale, 2.0 * fit.scale, 100):
        for xi in np.linspace(-0.6, 0.4, 100):
            t = 1.0 + xi * y / psi
            if np.any(t <= 0):
                continue
            ll = -y.size * math.log(psi) - (1 + 1 / xi) * np.sum(np.log(t))
            best_grid = max(best_grid, ll)
    assert fit.loglik >= best_grid - 1e-6


def test_gpd_insufficient_exceedances():
    rng = np.random.default_rng(4)
    with pytest.raises(InsufficientTailError):
        fit_gpd(rng.normal(size=100), u=10.0)


def test_gpd_endpoint_above_training_exceedances():
    rng = np.random.default_rng(5)
    for seed in range(5):
        data = genpareto.rvs(c=-0.4, scale=1.0, size=1500,
                             random_state=np.random.default_rng(seed))
        fit = fit_gpd(data, u=0.0)
        if fit.shape < 0:
            assert fit.upper_endpoint >= data.max() - 1e-9


def test_gpd_censored_variant_close_to_plain():
    rng = np.random.default_rng(6)
    data = genpareto.rvs(c=-0.2, scale=1.0, size=4000, random_state=rng)
    plain = fit_gpd(data, u=0.0)
    cens = fit_gpd(data, u=0.0, censored_resolution=0.01)
    assert cens.scale == pytest.approx(plain.scale, rel=0.02)
    assert cens.shape == pytest.approx(plain.shape, abs=0.02)


# ---------------------------------------------------------------- mixture

@pytest.fixture(scope="module")
def mixture():
    rng = np.random.default_rng(7)
    data = rng.normal(0.0, 1.0, 8000)
    return fit_mixture(data, u=1.5)


def test_mixture_continuous_at_threshold(mixture):
    u = mixture.gpd.threshold
    below = mixture_cdf(mixture, u)
    above = mixture_cdf(mixture, u + 1e-12)
    assert below == pytest.approx(1.0 - mixture.gpd.exceed_rate, abs=1e-12)
    assert above == pytest.approx(below, abs=1e-9)


def test_mixture_cdf_monotone(mixture):
    grid = np.linspace(-5, 4, 400)
    vals = mixture_cdf(mixture, grid)
    assert np.all(np.diff(vals) >= -1e-14)
    assert vals[0] > 0.0 or vals[0] == 0.0
    assert vals[-1] < 1.0


def test_mixture_quantile_round_trip(mixture):
    for z in np.linspace(-3.5, 3.0, 25):
        p = mixture_cdf(mixture, z)
        if not 0.0 < p < 1.0:
            continue
        assert mixture_quantile(mixture, p) == pytest.approx(z, abs=1e-8)


def test_mixture_tail_quantile_uses_gpd(mixture):
    p = 1.0 - mixture.gpd.exceed_rate / 2.0
    z = mixture_quantile(mixture, p)
    assert z > mixture.gpd.threshold
    assert mixture_cdf(mixture, z) == pytest.approx(p, abs=1e-12)


def test_mixture_quantile_bad_level(mixture):
    with pytest.raises(ValidationError):
        mixture_quantile(mixture, 0.0)


# ---------------------------------------------------------------- laplace

def test_laplace_median_is_zero(mixture):
    z = mixture_quantile(mixture, 0.5)
    assert to_laplace(z, mixture) == pytest.approx(0.0, abs=1e-8)


def test_laplace_97_5_percent(mixture):
    z = mixture_quantile(mixture, 0.975)
    assert to_laplace(z, mixture) == pytest.approx(2.99573, abs=1e-4)


def test_laplace_round_trip(mixture):
    for z in np.linspace(-3.5, 3.5, 29):
        s = to_laplace(z, mixture)
        assert from_laplace(s, mixture) == pytest.approx(z, abs=1e-8)


def test_laplace_clamped(mixture):
    assert to_laplace(-1e9, mixture) == -700.0
    zf = mixture.gpd.upper_endpoint
    assert to_laplace(zf + 1.0, mixture) == 700.0 or mixture.gpd.shape >= 0


def test_laplace_upper_tail_rate(mixture):
    # Pr(S > s) = exp(-s)/2 on Laplace margins; check via the exact chain
    for s in (1.0, 2.5, 4.0):
        z = from_laplace(s, mixture)
        assert 1.0 - mixture_cdf(mixture, z) == pytest.approx(0.5 * math.exp(-s), rel=1e-6)


def test_from_laplace_extreme_value_saturates_at_endpoint(mixture):
    assert mixture.gpd.shape < 0
    z = from_laplace(700.0, mixture)
    assert z == pytest.approx(mixture.gpd.upper_endpoint, rel=1e-9)


@pytest.fixture(scope="module")
def fixture_w():
    """Pooled W values and the fitted marginal of the 400-storm fixture
    make_catalog(400, seed=101) (the benchmark's fit workload)."""
    from stormsim.engine import FitConfig, fit_all, laplace_tracks
    from stormsim.toydata import make_catalog

    catalog = make_catalog(400, seed=101)
    bundle = fit_all(catalog, FitConfig(gcv_points=2, gcv_sweeps=0, allow_quadratic_preproc=False))
    w_tracks, _ = laplace_tracks(bundle, catalog)
    return np.concatenate([w[np.isfinite(w)] for w in w_tracks]), bundle.marginal


def exact_laplace(z, m):
    """The O(n) per value reference: log(2F) / -log(2(1 - F)) from cdf_1d."""
    F = np.concatenate([cdf_1d(m.body, chunk) for chunk in np.array_split(z, max(1, z.size // 200))])
    with np.errstate(divide="ignore"):
        return np.clip(np.where(F < 0.5, np.log(2.0 * F), -np.log(2.0 * (1.0 - F))), -700.0, 700.0)


def test_laplace_table_matches_exact_kernel_sums(fixture_w):
    w, m = fixture_w
    body = np.unique(w[w <= m.gpd.threshold])
    h = math.sqrt(m.body.bandwidth[0, 0])
    rng = np.random.default_rng(0)
    z = np.sort(np.concatenate([
        rng.choice(body, 1500, replace=False),
        np.linspace(body.min() - 12.0 * h, m.gpd.threshold, 500),  # beyond the table's start too
    ]))
    assert np.max(np.abs(to_laplace(z, m) - exact_laplace(z, m))) <= 1e-9
    assert np.all(np.diff(to_laplace(np.unique(w), m)) > 0.0)


def test_laplace_round_trip_on_fixture(fixture_w):
    w, m = fixture_w
    sample = np.quantile(w, np.linspace(0.0, 1.0, 101))
    back = from_laplace(to_laplace(sample, m), m)
    np.testing.assert_allclose(back, sample, rtol=0.0, atol=1e-8)


def test_body_quantile_inverts_exact_cdf(fixture_w):
    _, m = fixture_w
    for s in (-600.0, -60.0, -40.0, -5.0, -0.3, 0.0, 0.4, 1.5):
        assert s < to_laplace(m.gpd.threshold, m)  # a body value
        z = from_laplace(s, m)
        assert exact_laplace(np.array([z]), m)[0] == pytest.approx(s, abs=1e-9 * max(1.0, abs(s)))


# ---------------------------------------------------------------- diagnostics

def test_mrl_exponential_flat():
    rng = np.random.default_rng(8)
    data = rng.exponential(scale=2.0, size=50_000)
    rows = mean_residual_life(data, np.linspace(0, 6, 13))
    # memorylessness: mean excess flat at the scale (rows overlap, so the
    # pointwise CIs are correlated; check coverage and absence of trend)
    covered = sum(1 for (_, _, _, lo, hi) in rows if lo <= 2.0 <= hi)
    assert covered >= int(0.7 * len(rows))
    us = np.array([r[0] for r in rows])
    means = np.array([r[2] for r in rows])
    assert abs(np.polyfit(us, means, 1)[0]) < 0.05


def test_mrl_gpd_negative_shape_slope():
    rng = np.random.default_rng(9)
    xi, psi = -0.3, 1.0
    data = genpareto.rvs(c=xi, scale=psi, size=200_000, random_state=rng)
    grid = np.linspace(0.0, 1.5, 16)
    rows = mean_residual_life(data, grid)
    us = np.array([r[0] for r in rows])
    means = np.array([r[2] for r in rows])
    slope = np.polyfit(us, means, 1)[0]
    assert slope == pytest.approx(xi / (1.0 - xi), abs=0.02)


def test_mrl_excludes_thresholds_above_max():
    rows = mean_residual_life(np.arange(100, dtype=float), [0.0, 50.0, 1e6])
    assert [r[0] for r in rows] == [0.0, 50.0]


def test_mrl_empty_grid():
    with pytest.raises(ValidationError):
        mean_residual_life(np.arange(100, dtype=float), [])


def test_chi_independent_pairs():
    rng = np.random.default_rng(10)
    pairs = rng.normal(size=(200_000, 2))
    q = 0.95
    got = chi_tau(pairs, q)
    assert got == pytest.approx(1.0 - q, abs=0.01)


def test_chi_perfect_dependence():
    x = np.random.default_rng(11).normal(size=50_000)
    assert chi_tau(np.column_stack([x, x]), 0.99) == 1.0


def test_chi_gaussian_copula_matches_orthant_oracle():
    rho = 0.6
    rng = np.random.default_rng(12)
    n = 1_000_000
    z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=n)
    vals = []
    for q in (0.95, 0.99):
        got = chi_tau(z, q)
        zq = float(np.quantile(z.ravel(), q))
        joint = multivariate_normal([0, 0], [[1, rho], [rho, 1]]).cdf([-zq, -zq])
        want = joint / norm.cdf(-zq)  # symmetry: P(both > z) = P(both < -z)
        se = math.sqrt(want * (1 - want) / (n * (1 - q)))
        assert got == pytest.approx(want, abs=4 * se + 0.002)
        vals.append(got)
    assert vals[1] < vals[0]  # asymptotic independence: chi decreasing in q


def test_chi_bad_level():
    with pytest.raises(ValidationError):
        chi_tau(np.zeros((10, 2)), 0.5)
