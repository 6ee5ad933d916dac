import math

import numpy as np
import pytest
from scipy.stats import norm

from stormsim.condex import (
    CondExFit,
    collect_events,
    effective_order,
    fit_condex,
    step_tail_chain,
)
from stormsim.errors import InsufficientTailError, ValidationError


def to_laplace_margin(p):
    """Exact probability -> standard Laplace quantile."""
    p = np.asarray(p, dtype=float)
    return np.where(p < 0.5, np.log(2 * p), -np.log(2 * (1 - p)))


def gaussian_copula_tracks(rho, n, seed, length=2, k_extra=0):
    """Pairs (or longer AR chains) with Gaussian copula, Laplace margins."""
    rng = np.random.default_rng(seed)
    if length == 2:
        z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=n)
        s = to_laplace_margin(norm.cdf(z))
        return [s[i] for i in range(n)], s
    out = []
    for _ in range(n):
        z = [rng.standard_normal()]
        for _ in range(length - 1):
            z.append(rho * z[-1] + math.sqrt(1 - rho**2) * rng.standard_normal())
        out.append(to_laplace_margin(norm.cdf(np.array(z))))
    return out, None


# ---------------------------------------------------------------- fitting

def test_perfect_dependence_boundary():
    rng = np.random.default_rng(0)
    tracks = []
    for _ in range(300):
        s = float(rng.uniform(3.5, 8.0))
        tracks.append(np.full(4, s))  # S_{t+j} = S_t exactly
    fit = fit_condex(tracks, k=3, u_laplace=3.0)
    assert np.all(fit.alpha > 0.999)
    assert np.all(fit.boundary)
    assert np.max(np.abs(fit.residual_kde.samples)) < 1e-6


def test_gaussian_copula_recovery_k1():
    # limiting values are alpha = rho^2, beta = 1/2; single fits ride the
    # alpha-beta likelihood ridge (MC sd ~0.08/0.13 at ~1000 events), so this
    # runs a frozen representative instance
    tracks, _ = gaussian_copula_tracks(0.6, 100_000, seed=11)
    u = -math.log(2 * 0.01)  # 99% Laplace quantile
    fit = fit_condex(tracks, k=1, u_laplace=u)
    assert fit.alpha[0] == pytest.approx(0.36, abs=0.05)  # rho^2
    assert fit.beta[0] == pytest.approx(0.5, abs=0.15)


def test_independent_series():
    rng = np.random.default_rng(2)
    s = to_laplace_margin(rng.uniform(size=(60_000, 2)))
    fit = fit_condex([s[i] for i in range(len(s))], k=1, u_laplace=-math.log(2 * 0.02))
    assert abs(fit.alpha[0]) < 0.05
    assert fit.beta[0] < 0.15


def test_insufficient_events():
    tracks = [np.array([0.1, 0.2, 0.3, 0.4])] * 100  # never exceeds
    with pytest.raises(InsufficientTailError):
        fit_condex(tracks, k=3, u_laplace=3.0)


def test_inversion_identity():
    tracks, _ = gaussian_copula_tracks(0.7, 4000, seed=3, length=5)
    u = -math.log(2 * 0.05)
    fit = fit_condex(tracks, k=3, u_laplace=u)
    x, followers = collect_events(tracks, 3, u)  # independent re-collection
    e = fit.residual_kde.samples
    recon = fit.alpha[None, :] * x[:, None] + x[:, None] ** fit.beta[None, :] * e
    np.testing.assert_allclose(recon, followers, atol=1e-10)


def test_threshold_stability():
    tracks, _ = gaussian_copula_tracks(0.6, 200_000, seed=4)
    a = fit_condex(tracks, k=1, u_laplace=2.8).alpha[0]
    b = fit_condex(tracks, k=1, u_laplace=3.3).alpha[0]
    assert a == pytest.approx(b, abs=0.1)


# ---------------------------------------------------------------- effective order

def test_effective_order_paper_cases():
    u = 3.0
    assert effective_order([4.0, 5.0, 6.0], u, 3) == 3
    assert effective_order([1.0, 2.0, 4.0], u, 3) == 1  # below, below, above
    assert effective_order([1.0, 1.5, 2.0], u, 3) == 0  # body-sampler signal


def test_effective_order_interrupted_run():
    # an old excess does not count if the run to the newest value is broken
    assert effective_order([5.0, 1.0, 1.0], 3.0, 3) == 0
    assert effective_order([5.0, 1.0, 4.0], 3.0, 3) == 1


def test_effective_order_nan_counts_below():
    assert effective_order([np.nan, 4.0, 5.0], 3.0, 3) == 2


def test_effective_order_caps_at_k():
    assert effective_order([4.0, 4.0, 4.0, 4.0, 4.0], 3.0, 3) == 3


# ---------------------------------------------------------------- stepping

@pytest.fixture(scope="module")
def copula_fit():
    tracks, _ = gaussian_copula_tracks(0.7, 6000, seed=6, length=6)
    return fit_condex(tracks, k=3, u_laplace=-math.log(2 * 0.05))


def test_step_identity_chain():
    rng = np.random.default_rng(7)
    tracks = [np.full(4, s) for s in np.random.default_rng(0).uniform(3.5, 8.0, 300)]
    fit = fit_condex(tracks, k=3, u_laplace=3.0)
    s = step_tail_chain(fit, [4.0, 5.0, 6.0], rng)
    # alpha=1, beta=0, residuals ~0: S_j = S_{j-3} up to the jittered kernel
    assert s == pytest.approx(4.0, abs=1e-3)


def test_step_first_order_reduction(copula_fit):
    rng = np.random.default_rng(8)
    s0 = 5.0
    draws = np.array([
        step_tail_chain(copula_fit, [0.5, 1.0, s0], rng) for _ in range(4000)
    ])
    e1 = copula_fit.residual_kde.samples[:, 0]
    want = copula_fit.alpha[0] * s0 + s0 ** copula_fit.beta[0] * e1.mean()
    se = s0 ** copula_fit.beta[0] * e1.std() / math.sqrt(draws.size)
    assert draws.mean() == pytest.approx(want, abs=5 * se + 1e-3)


def test_step_requires_excess(copula_fit):
    with pytest.raises(ValidationError):
        step_tail_chain(copula_fit, [0.1, 0.2, 0.3], rng=np.random.default_rng(9))


def test_step_deterministic_under_seed(copula_fit):
    a = step_tail_chain(copula_fit, [4.0, 4.5, 5.0], np.random.default_rng(10))
    b = step_tail_chain(copula_fit, [4.0, 4.5, 5.0], np.random.default_rng(10))
    assert a == b


def test_chain_drifts_back_below_threshold(copula_fit):
    # alpha < 1 gives negative drift: chains started high must come back down
    rng = np.random.default_rng(11)
    u = copula_fit.u_laplace
    returned = 0
    for _ in range(50):
        window = [6.0, 6.0, 6.0]
        for _ in range(400):
            s = step_tail_chain(copula_fit, window, rng)
            window = window[1:] + [s]
            if s <= u:
                returned += 1
                break
    assert returned >= 48
