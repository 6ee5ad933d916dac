import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, norm

from stormsim.errors import SingularBandwidthError, UnsupportedConditioningError, ValidationError
from stormsim.kde import (
    KdeModel,
    cdf_1d,
    conditional_density,
    conditional_info,
    conditional_weights,
    density,
    fit_kde,
    pick_tuples,
    sample_conditional,
    sample_joint,
    sampler,
)

TWO_PI = 2.0 * math.pi
LOG_TINY = math.log(1e-300)


# ---------------------------------------------------------------- oracles

def replicated(model, dims):
    """The evaluation set of a kernel sum over `dims`: the tuples at joint
    +-2 pi shifts of the circular dims, as [original, +shift, -shift], when a
    circular dim is among `dims`; the original tuples otherwise."""
    if not set(dims) & set(model.circular_dims):
        return model.samples
    shift = np.zeros(model.d)
    shift[list(model.circular_dims)] = TWO_PI
    return np.vstack([model.samples, model.samples + shift, model.samples - shift])


def oracle_parts(model, dims, target):
    """(inv H_cc, log det H_cc, regression H_tc H_cc^-1, conditional
    covariance, its Cholesky factor) of the (given, target) split of H, with
    the operations of the sampler, so that draws agree bit for bit."""
    H = model.bandwidth
    inv_cc = logdet_cc = None
    reg = np.zeros((len(target), len(dims)))
    if dims:
        Hcc = H[np.ix_(dims, dims)]
        inv_cc = np.linalg.inv(Hcc)
        logdet_cc = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(Hcc)))))
        reg = H[np.ix_(target, dims)] @ inv_cc
    sigma = H[np.ix_(target, target)] - reg @ H[np.ix_(target, dims)].T
    sigma = 0.5 * (sigma + sigma.T)
    return inv_cc, logdet_cc, reg, sigma, np.linalg.cholesky(sigma)


def oracle_log_kernels(model, dims, values, ev):
    """Log kernel of `dims` at `values` for every row of `ev`, as the full
    quadratic form of each row's difference; zeros when `dims` is empty."""
    if not dims:
        return np.zeros(len(ev))
    inv_cc, logdet_cc, *_ = oracle_parts(model, dims, ())
    diff = values[None, :] - ev[:, dims]
    q = np.einsum("nc,cd,nd->n", diff, inv_cc, diff)
    return -0.5 * (q + logdet_cc + len(dims) * math.log(TWO_PI))


def brute_joint_pdf(model, z, dims):
    """Joint density over `dims` by direct per-kernel evaluation (scipy mvn)."""
    ev = replicated(model, dims)
    H = model.bandwidth[np.ix_(dims, dims)]
    vals = [multivariate_normal.pdf(z, mean=s[list(dims)], cov=H) for s in ev]
    return float(np.sum(vals)) / model.n


def conditional_cdf_oracle(model, given, target_dim, grid):
    """Quadrature-normalized conditional CDF on `grid` via the brute joint density."""
    gdims = tuple(sorted(given))
    gvals = [given[i] for i in gdims]
    dims = gdims + (target_dim,)
    pdf = np.array([brute_joint_pdf(model, gvals + [t], dims) for t in grid])
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    return cdf / cdf[-1]


def ks_distance(draws, grid, cdf):
    draws = np.sort(draws)
    F = np.interp(draws, grid, cdf)
    n = len(draws)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return max(np.max(np.abs(ecdf_hi - F)), np.max(np.abs(ecdf_lo - F)))


def random_model(rng, d, n=40, circular=False):
    A = rng.standard_normal((d, d))
    cov = A @ A.T + d * np.eye(d)
    samples = rng.multivariate_normal(rng.uniform(-1, 1, d), cov, size=n)
    return fit_kde(samples, scale=1.0,
                   circular_dims=(0,) if circular else ())


# ---------------------------------------------------------------- fitting

def test_scott_rule_hand_value():
    model = fit_kde(np.array([[0.0], [1.0]]), scale=1.0)
    assert model.bandwidth[0, 0] == pytest.approx(2 ** (-2.0 / 5.0) * 0.5, rel=1e-12)


def test_circular_unroll_definition():
    model = fit_kde(np.array([[-math.pi + 0.01]]), circular_dims=(0,), cov=[[0.1]])
    _, rows = conditional_weights(model, {0: 0.0})
    want = [-math.pi + 0.01, math.pi + 0.01, -3 * math.pi + 0.01]  # original, +2pi, -2pi
    np.testing.assert_allclose(rows[:, 0], want, atol=1e-12)


def test_scale_zero_raises():
    with pytest.raises(SingularBandwidthError):
        fit_kde(np.array([[0.0], [1.0]]), scale=0.0)


def test_degenerate_covariance_raises():
    with pytest.raises(SingularBandwidthError):
        fit_kde(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]))


@pytest.mark.parametrize("samples, bandwidth, circular, named", [
    (np.empty((0, 2)), np.eye(2), (), "samples"),
    (np.zeros(3), np.eye(1), (), "samples"),
    (np.zeros((3, 2)), np.eye(3), (), "bandwidth"),
    (np.zeros((3, 2)), np.eye(2), (2,), "circular_dims"),
])
def test_model_rejects_inconsistent_shapes(samples, bandwidth, circular, named):
    with pytest.raises(ValidationError, match=named):
        KdeModel(samples=samples, bandwidth=bandwidth, circular_dims=circular)


def test_single_sample_needs_cov():
    with pytest.raises(SingularBandwidthError):
        fit_kde(np.array([[1.0, 2.0]]))
    model = fit_kde(np.array([[1.0, 2.0]]), cov=np.eye(2))
    assert model.n == 1


def test_independent_dims_zero_cross_terms():
    rng = np.random.default_rng(1)
    X = rng.multivariate_normal([0, 0, 0], [[1, 0.8, 0.5], [0.8, 1, 0.4], [0.5, 0.4, 1]], 200)
    model = fit_kde(X, independent_dims=(1,))
    assert model.bandwidth[1, 0] == 0.0 and model.bandwidth[1, 2] == 0.0
    assert model.bandwidth[0, 2] != 0.0
    assert model.bandwidth[1, 1] > 0.0


# ---------------------------------------------------------------- density

def test_density_at_single_kernel_center():
    H = np.array([[0.5, 0.1], [0.1, 0.3]])
    model = fit_kde(np.array([[1.0, 2.0]]), cov=H, scale=1.0)
    # n=1: bandwidth = 1^(-2/6) * cov = cov
    want = (TWO_PI) ** (-1.0) * np.linalg.det(H) ** (-0.5)
    assert density(model, [1.0, 2.0]) == pytest.approx(want, rel=1e-12)


def test_density_integrates_to_one_1d():
    rng = np.random.default_rng(3)
    model = fit_kde(rng.standard_normal((30, 1)) * 2.0)
    val, _ = quad(lambda z: density(model, [z]), -30, 30, limit=200)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_density_integrates_to_one_2d():
    rng = np.random.default_rng(4)
    model = random_model(rng, 2, n=25)
    xs = np.linspace(-20, 20, 240)
    ys = np.linspace(-20, 20, 240)
    vals = np.array([[density(model, [x, y]) for y in ys] for x in xs])
    integral = np.trapezoid(np.trapezoid(vals, ys, axis=1), xs)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_circular_density_integrates_to_one_over_period():
    rng = np.random.default_rng(5)
    theta = rng.vonmises(3.0, 4.0, size=60)  # concentrated near +-pi seam
    model = fit_kde(theta[:, None], circular_dims=(0,))
    grid = np.linspace(-math.pi, math.pi, 4001)
    vals = np.array([density(model, [t]) for t in grid])
    assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-3)


def test_circular_density_continuous_at_seam():
    rng = np.random.default_rng(6)
    model = fit_kde(rng.vonmises(0.7, 4.0, size=200)[:, None], circular_dims=(0,))
    assert math.sqrt(model.bandwidth[0, 0]) < 0.8  # regime where +-2pi copies suffice
    assert density(model, [-math.pi]) == pytest.approx(density(model, [math.pi]), abs=1e-12)


def test_far_field_underflows_to_zero():
    model = fit_kde(np.array([[0.0], [1.0]]))
    assert density(model, [1e6]) == 0.0


def test_cdf_1d_matches_quadrature():
    rng = np.random.default_rng(7)
    model = fit_kde(rng.standard_normal((20, 1)))
    for z in (-1.5, 0.0, 2.0):
        val, _ = quad(lambda x: density(model, [x]), -30, z, limit=200)
        assert cdf_1d(model, z) == pytest.approx(val, abs=1e-6)


# ---------------------------------------------------------------- joint sampling

def test_sample_joint_degenerate_scale_resamples_tuples():
    rng = np.random.default_rng(8)
    samples = np.array([[0.0, 5.0], [1.0, -2.0], [3.0, 3.0]])
    model = fit_kde(samples, scale=1e-9)
    draws = sample_joint(model, rng, size=200)
    d = np.min(np.linalg.norm(draws[:, None, :] - samples[None, :, :], axis=2), axis=1)
    assert np.max(d) < 1e-6


def test_sample_joint_mean_clt_band():
    rng = np.random.default_rng(9)
    samples = np.random.default_rng(1).normal(2.0, 1.5, size=(200, 1))
    model = fit_kde(samples)
    draws = sample_joint(model, rng, size=100_000)
    var = samples.var() + model.bandwidth[0, 0]
    se = math.sqrt(var / draws.size)
    assert abs(draws.mean() - samples.mean()) < 3 * se


def test_sample_joint_deterministic_under_seed():
    model = fit_kde(np.random.default_rng(2).standard_normal((30, 2)))
    a = sample_joint(model, np.random.default_rng(123), size=10)
    b = sample_joint(model, np.random.default_rng(123), size=10)
    np.testing.assert_array_equal(a, b)


def test_sample_joint_wraps_circular():
    rng = np.random.default_rng(10)
    model = fit_kde(np.random.default_rng(0).vonmises(3.1, 1.0, 80)[:, None], circular_dims=(0,))
    draws = sample_joint(model, rng, size=5000)
    assert np.all(draws >= -math.pi) and np.all(draws < math.pi)


# ---------------------------------------------------------------- conditioning

def test_single_tuple_conditional_closed_form():
    H = np.array([[0.4, 0.12], [0.12, 0.3]])
    model = fit_kde(np.array([[1.0, -1.0]]), cov=H)
    info = conditional_info(model, {0: 2.0})
    assert info.weights.shape == (1,)
    assert info.weights[0] == pytest.approx(1.0, abs=1e-12)
    mu_want = -1.0 + H[1, 0] / H[0, 0] * (2.0 - 1.0)
    sig_want = H[1, 1] - H[1, 0] ** 2 / H[0, 0]
    assert info.mean[0] == pytest.approx(mu_want, rel=1e-12)
    assert info.covariance[0, 0] == pytest.approx(sig_want, rel=1e-12)

    rng = np.random.default_rng(11)
    draws = sample_conditional(model, {0: 2.0}, rng, size=50_000)
    assert draws.mean() == pytest.approx(mu_want, abs=4 * math.sqrt(sig_want / 50_000))
    assert draws.var() == pytest.approx(sig_want, rel=0.05)


def test_diagonal_bandwidth_means_unshifted():
    rng = np.random.default_rng(12)
    model = fit_kde(rng.standard_normal((40, 2)) * [1.0, 3.0], cov=np.diag([1.0, 9.0]))
    part_reg = conditional_info(model, {0: 0.5})
    w, ev = conditional_weights(model, {0: 0.5})
    # regression term vanishes: mixture mean is the weighted average of tuple values
    assert part_reg.mean[0] == pytest.approx(float(w @ ev[:, 1]), rel=1e-12)


def test_equidistant_tuples_equal_weights():
    model = fit_kde(np.array([[-1.0, 0.4], [1.0, -0.4], [0.0, 0.1]]))
    w, _ = conditional_weights(model, {0: 0.0})
    assert w[0] == pytest.approx(w[1], rel=1e-12)


def test_weights_survive_far_tail_conditioning():
    # deep-tail conditioning: raw kernels are ~1e-220, so any non-log-space
    # normalization would lose all precision; ratios must still be exact
    rng = np.random.default_rng(13)
    model = fit_kde(rng.standard_normal((30, 2)))
    g = 18.0
    w, ev = conditional_weights(model, {0: g})
    assert np.all(np.isfinite(w)) and w.sum() == pytest.approx(1.0, abs=1e-12)
    h2 = model.bandwidth[0, 0]
    s = ev[:, 0]
    ref = np.exp(-((g - s) ** 2 - (g - s).min() ** 2) / (2 * h2))
    np.testing.assert_allclose(w, ref / ref.sum(), rtol=1e-10)


def test_conditioning_outside_support_raises():
    rng = np.random.default_rng(19)
    model = fit_kde(rng.standard_normal((10, 2)))
    with pytest.raises(UnsupportedConditioningError):
        conditional_weights(model, {0: 1e6})


def test_conditional_density_ratio_identity():
    rng = np.random.default_rng(14)
    model = random_model(rng, 3, n=25)
    z = [0.3, -0.8, 1.1]
    joint = density(model, z)
    marg = density(model, z[:2], dims=(0, 1))
    cond = conditional_density(model, {2: z[2]}, {0: z[0], 1: z[1]})
    assert cond == pytest.approx(joint / marg, rel=1e-10)


def test_conditional_density_matches_brute_oracle():
    rng = np.random.default_rng(15)
    model = random_model(rng, 2, n=20)
    grid = np.linspace(-15, 15, 2001)
    cdf = conditional_cdf_oracle(model, {0: 0.7}, 1, grid)
    pdf_grid = np.gradient(cdf, grid)
    for t in (-2.0, 0.0, 1.5):
        got = conditional_density(model, {1: t}, {0: 0.7})
        assert got == pytest.approx(np.interp(t, grid, pdf_grid), rel=0.02)


def test_conditional_draws_match_quadrature_cdf():
    rng = np.random.default_rng(16)
    model = random_model(rng, 2, n=30)
    given = {0: 0.4}
    grid = np.linspace(-20, 20, 3001)
    cdf = conditional_cdf_oracle(model, given, 1, grid)
    draws = sample_conditional(model, given, rng, size=20_000)[:, 0]
    assert ks_distance(draws, grid, cdf) < 0.015


def test_conditional_marginalizes_unused_dims():
    # marginalizing a Gaussian kernel = dropping the dimension
    rng = np.random.default_rng(17)
    model = random_model(rng, 3, n=25)
    sub = KdeModel(
        samples=model.samples[:, [0, 2]].copy(),
        bandwidth=model.bandwidth[np.ix_([0, 2], [0, 2])].copy(),
    )
    got = conditional_density(model, {2: 0.5}, {0: -0.3})
    want = conditional_density(sub, {1: 0.5}, {0: -0.3})
    assert got == pytest.approx(want, rel=1e-12)


def test_empty_conditioning_is_marginal_draw():
    rng = np.random.default_rng(18)
    model = random_model(rng, 3, n=30)
    draws = sample_conditional(model, {}, rng, target_dims=(1,), size=40_000)[:, 0]
    grid = np.linspace(-25, 25, 3001)
    pdf = np.array([density(model, [g], dims=(1,)) for g in grid])
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    assert ks_distance(draws, grid, cdf / cdf[-1]) < 0.015


def test_circular_conditioning_uses_seam_neighbours():
    # tuples near +pi must influence conditioning near -pi
    thetas = np.array([3.05, 3.10, -3.05, 3.08, -3.10])
    y = np.array([1.0, 1.1, 0.9, 1.05, 0.95])
    model = fit_kde(np.column_stack([thetas, y]), circular_dims=(0,))
    w, ev = conditional_weights(model, {0: -3.12})
    # the +2pi-shifted copies of tuples at ~3.1 sit near -3.18, close to -3.12
    top = ev[np.argsort(w)[-3:], 0]
    assert np.all(np.abs(np.abs(top) - math.pi) < 0.35)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- sampler oracle

def oracle_sample_conditional(model, given, rng, target_dims=None, size=None):
    """Conditional draw over the explicitly replicated tuple set: weights from
    the full quadratic form of every replica row (the sampler before the
    per-pattern cache of whitened blocks)."""
    dims = tuple(sorted(int(i) for i in given))
    values = np.array([float(given[i]) for i in dims])
    if target_dims is None:
        target = tuple(i for i in range(model.d) if i not in dims)
    else:
        target = tuple(int(i) for i in target_dims)
    ev = replicated(model, dims + target)
    _, _, reg, _, chol_sigma = oracle_parts(model, dims, target)
    m = 1 if size is None else int(size)
    if dims:
        logw = oracle_log_kernels(model, dims, values, ev)
        if logw.max() < LOG_TINY:
            raise UnsupportedConditioningError("outside kernel support")
        cum = np.cumsum(np.exp(logw - logw.max()))
        idx = np.searchsorted(cum, rng.random(m) * cum[-1], side="right")
        idx = np.minimum(idx, len(cum) - 1)
        mu = ev[idx][:, target] + (values[None, :] - ev[idx][:, dims]) @ reg.T
    else:
        idx = rng.integers(0, ev.shape[0], size=m)
        mu = ev[idx][:, target]
    draws = mu + rng.standard_normal((m, len(target))) @ chol_sigma.T
    for pos, dim in enumerate(target):
        if dim in model.circular_dims:
            draws[..., pos] = (draws[..., pos] + math.pi) % TWO_PI - math.pi
    return draws[0] if size is None else draws


def assert_same_draws(model, given, target, seed, size=None):
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = oracle_sample_conditional(model, given, rng_old, target, size=size)
    except UnsupportedConditioningError:
        with pytest.raises(UnsupportedConditioningError):
            sample_conditional(model, given, rng_new, target_dims=target, size=size)
        return False
    got = sample_conditional(model, given, rng_new, target_dims=target, size=size)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return True


def seam_model(rng, d, n, circular, independent, scale):
    """A model whose circular columns crowd the +-pi seam half of the time."""
    A = rng.standard_normal((d, d))
    samples = rng.standard_normal((n, d)) @ A + rng.uniform(-1, 1, d)
    for c in circular:
        centre = math.pi if rng.random() < 0.5 else rng.uniform(-math.pi, math.pi)
        samples[:, c] = (centre + 0.6 * rng.standard_normal(n) + math.pi) % TWO_PI - math.pi
    return fit_kde(samples, scale=scale, circular_dims=circular,
                   independent_dims=independent, cov=np.cov(samples, rowvar=False) + 0.05 * np.eye(d))


def conditioning_values(rng, model, dims, far):
    row = model.samples[rng.integers(model.n)]
    values = {}
    for i in dims:
        v = row[i] + 0.5 * rng.standard_normal()
        if i in model.circular_dims and rng.random() < 0.3:
            v += TWO_PI * rng.choice([-1.0, 1.0])  # an unwrapped window value
        values[i] = v + (far * 1e4 if far else 0.0)
    return values


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    n=st.integers(1, 60),
    circular=st.sampled_from(["none", "some", "all"]),
    scale=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
    size=st.sampled_from([None, 1, 7]),
    far=st.booleans(),
)
def test_sampler_matches_replicated_set_oracle(seed, d, n, circular, scale, size, far):
    rng = np.random.default_rng(seed)
    circ = {"none": (), "all": tuple(range(d)),
            "some": tuple(sorted(rng.choice(d, size=rng.integers(1, d + 1), replace=False)))}[circular]
    independent = tuple(i for i in range(d) if rng.random() < 0.3)
    model = seam_model(rng, d, max(n, d + 2), circ, independent, scale)
    dims = [i for i in range(d) if rng.random() < 0.5]
    rest = [i for i in range(d) if i not in dims]
    if not rest:
        dims, rest = dims[:-1], dims[-1:]
    target = None if rng.random() < 0.3 else tuple(sorted(rng.choice(rest, size=rng.integers(1, len(rest) + 1), replace=False)))
    given_values = conditioning_values(rng, model, dims, far and bool(dims))
    for draw_seed in range(3):  # the cached sampler is reused on later draws
        assert_same_draws(model, given_values, target, seed + draw_seed, size=size)


ENGINE_PATTERNS = {
    # (d, circular dims, independent dims): [(given dims, target dims), ...]
    "direction": ((4, (0, 1, 2, 3), ()), [((0, 1, 2), (3,)), ((1, 2), (3,)), ((2,), (3,)), ((), (3,))]),
    "speed": ((5, (3,), (3,)), [((0, 1, 2, 3), (4,)), ((1, 2, 3), (4,)), ((2, 3), (4,)), ((), (4,))]),
    "vorticity": ((5, (3,), (3,)), [((0, 1, 2, 3), (4,)), ((1, 2, 3), (4,)), ((2, 3), (4,)), ((), (4,))]),
    "genesis": ((3, (1,), (1,)), [((2,), (0, 1)), ((1, 2), (0,)), ((), (0, 1)), ((), (0,))]),
    "residual": ((3, (), ()), [((0, 1), (2,)), ((0,), (1,)), ((), (0,))]),
}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(ENGINE_PATTERNS)),
       scale=st.sampled_from([0.3, 1.0]))
def test_engine_patterns_match_oracle(seed, kind, scale):
    rng = np.random.default_rng(seed)
    (d, circ, independent), patterns = ENGINE_PATTERNS[kind]
    model = seam_model(rng, d, int(rng.integers(5, 200)), circ, independent, scale)
    for dims, target in patterns:
        for far in (False, False, True):
            values = conditioning_values(rng, model, dims, far and bool(dims))
            assert_same_draws(model, values, target, int(rng.integers(2**32)))
        if dims:
            # a group (across the per-query / per-column distance layouts and
            # the 64-request chunks) picks what its requests pick alone
            s = sampler(model, (dims, target))
            size = int(rng.choice([2, len(dims), 5, 70]))
            values = [np.array([v[i] for i in dims]) for v in
                      (conditioning_values(rng, model, dims, rng.random() < 0.2) for _ in range(size))]
            seeds = rng.integers(2**32, size=size)
            grouped_rngs = [np.random.default_rng(x) for x in seeds]
            lone_rngs = [np.random.default_rng(x) for x in seeds]
            grouped = pick_tuples(s, list(zip(values, grouped_rngs)))
            for v, r, got in zip(values, lone_rngs, grouped):
                want = pick_tuples(s, [(v, r)])[0]
                assert (got is None) == (want is None)
                if want is not None:
                    assert got[0] == want[0] and np.array_equal(got[1], want[1])
            for a, b in zip(grouped_rngs, lone_rngs):
                assert a.bit_generator.state == b.bit_generator.state


def test_out_of_support_raises_in_both():
    rng = np.random.default_rng(3)
    model = seam_model(rng, 4, 50, (0, 1, 2, 3), (), 0.3)
    assert not assert_same_draws(model, {0: 1e5, 1: 1e5, 2: 1e5}, (3,), 1)


def test_small_replica_weights_are_kept():
    # the +2pi copy of the tuples near -pi sits 0.23 from the query, against
    # 0.15 for the nearest original: its weights are about e^-6 of the best,
    # far from negligible, so the copy must be evaluated and drawn from
    thetas = np.array([-3.0, -2.9, 0.5, 1.5, 2.9])
    model = fit_kde(np.column_stack([thetas, np.arange(5.0)]), circular_dims=(0,),
                    cov=np.diag([0.0043, 1.0]))
    for seed in range(5):
        assert assert_same_draws(model, {0: 3.05}, (1,), seed, size=2000)


def test_seam_replicas_are_drawn():
    # conditioning just across the seam: the chosen tuples are replicas, and
    # the wrapped draws land near the seam as the replicated set prescribes
    thetas = np.array([3.05, 3.10, -3.05, 3.08, -3.10])
    y = np.array([1.0, 1.1, 0.9, 1.05, 0.95])
    model = fit_kde(np.column_stack([thetas, y]), circular_dims=(0,))
    for seed in range(20):
        assert assert_same_draws(model, {0: -3.12}, (1,), seed)
        assert assert_same_draws(model, {1: 1.0}, (0,), seed, size=5)


# ---------------------------------------------------------------- kernel-sum oracle

def oracle_weights(model, given):
    dims = tuple(sorted(given))
    values = np.array([given[i] for i in dims], dtype=float)
    ev = replicated(model, dims)
    logw = oracle_log_kernels(model, dims, values, ev)
    if logw.max() < LOG_TINY:
        raise UnsupportedConditioningError("outside kernel support")
    w = np.exp(logw - logsumexp(logw))
    return w / w.sum(), ev


def oracle_conditional_density(model, target, given):
    """The mixture of per-tuple Gaussian conditionals over the evaluation set
    of the target and given dims, divided by the kernel sum of the given dims
    over their own evaluation set."""
    gdims, tdims = tuple(sorted(given)), tuple(sorted(target))
    gvalues = np.array([given[i] for i in gdims], dtype=float)
    tvalues = np.array([target[i] for i in tdims], dtype=float)
    log_marginal = oracle_log_kernels(model, gdims, gvalues, replicated(model, gdims))
    if log_marginal.max() < LOG_TINY:
        raise UnsupportedConditioningError("outside kernel support")
    ev = replicated(model, gdims + tdims)
    _, _, reg, sigma, chol_sigma = oracle_parts(model, gdims, tdims)
    diff = tvalues[None, :] - ev[:, tdims] - (gvalues[None, :] - ev[:, gdims]) @ reg.T
    q = np.einsum("nc,cd,nd->n", diff, np.linalg.inv(sigma), diff)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol_sigma))))
    log_target = -0.5 * (q + logdet + len(tdims) * math.log(TWO_PI))
    log_joint = oracle_log_kernels(model, gdims, gvalues, ev) + log_target
    return float(np.exp(logsumexp(log_joint) - logsumexp(log_marginal)))


def same_or_both_unsupported(got, want):
    """(got(), want()), or None when both raise UnsupportedConditioningError."""
    try:
        expected = want()
    except UnsupportedConditioningError:
        with pytest.raises(UnsupportedConditioningError):
            got()
        return None
    return got(), expected


def seam_values(rng, model, dims, far):
    """Conditioning values, with circular ones exactly at -pi or +pi a quarter of the time."""
    values = conditioning_values(rng, model, dims, far)
    for i in dims:
        if i in model.circular_dims and rng.random() < 0.25:
            values[i] = float(rng.choice([-math.pi, math.pi]))
    return values


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    n=st.integers(1, 60),
    circular=st.sampled_from(["none", "some", "all"]),
    scale=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
    far=st.booleans(),
)
def test_kernel_sums_match_replicated_set_oracle(seed, d, n, circular, scale, far):
    rng = np.random.default_rng(seed)
    circ = {"none": (), "all": tuple(range(d)),
            "some": tuple(sorted(rng.choice(d, size=rng.integers(1, d + 1), replace=False)))}[circular]
    independent = tuple(i for i in range(d) if rng.random() < 0.3)
    model = seam_model(rng, d, max(n, d + 2), circ, independent, scale)
    dims = [i for i in range(d) if rng.random() < 0.5]
    rest = [i for i in range(d) if i not in dims]
    if not rest:
        dims, rest = dims[:-1], dims[-1:]
    target = sorted(int(i) for i in rng.choice(rest, size=rng.integers(1, len(rest) + 1), replace=False))
    given_values = seam_values(rng, model, dims, far and bool(dims))
    target_values = seam_values(rng, model, target, False)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-300)

    point = seam_values(rng, model, range(d), far)
    for sub in (list(range(d)), sorted(set(dims) | set(target))):
        z = np.array([point[i] for i in sub])
        log_sum = logsumexp(oracle_log_kernels(model, sub, z, replicated(model, sub)))
        close(density(model, z, dims=sub), math.exp(log_sum - math.log(model.n)))

    pair = same_or_both_unsupported(lambda: conditional_weights(model, given_values),
                                    lambda: oracle_weights(model, given_values))
    if pair is not None:
        (w, rows), (want_w, want_rows) = pair
        assert np.array_equal(rows, want_rows)
        close(w, want_w)
        info = conditional_info(model, given_values, target)
        _, _, reg, sigma, _ = oracle_parts(model, tuple(dims), tuple(target))
        values = np.array([given_values[i] for i in dims])
        mu = want_rows[:, target] + (values[None, :] - want_rows[:, dims]) @ reg.T
        np.testing.assert_allclose(info.mean, want_w @ mu, rtol=0,
                                   atol=1e-11 * float(np.max(want_w @ np.abs(mu))))
        assert np.array_equal(info.covariance, sigma)

    tgt = {i: target_values[i] for i in target}
    pair = same_or_both_unsupported(lambda: conditional_density(model, tgt, given_values),
                                    lambda: oracle_conditional_density(model, tgt, given_values))
    if pair is not None:
        close(*pair)


def test_circular_conditional_density_integrates_to_one():
    # a circular target given a linear dim: the conditional density wraps the
    # target onto one period, so it integrates to one over [-pi, pi)
    rng = np.random.default_rng(20)
    model = fit_kde(np.column_stack([rng.vonmises(3.0, 3.0, 100), rng.standard_normal(100)]),
                    circular_dims=(0,))
    for y in (-1.0, 0.2):
        val, _ = quad(lambda t: conditional_density(model, {0: t}, {1: y}), -math.pi, math.pi,
                      limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)
        ratio = density(model, [3.0, y]) / density(model, [y], dims=(1,))
        assert conditional_density(model, {0: 3.0}, {1: y}) == pytest.approx(ratio, rel=1e-12)
