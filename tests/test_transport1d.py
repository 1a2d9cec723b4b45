"""Transport distance, W2, Talagrand chain: closed forms and scipy oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from bfstab import (GaussianMixture1D, GaussianMixtureND, StandardGaussian,
                    TransportMap1D, bf_distance_full, bregman_integral_full,
                    talagrand_deficit_1d_full, w2_squared_1d_full)
from bfstab import transport1d
from bfstab.corpus import _SIN_BUMP, main_corpus
from bfstab.deficits import _pl_exponents, _pl_u_density
from bfstab.density1d import GridDensity1D, gauss_logpdf
from bfstab.densitynd import conditional_slice_batch
from bfstab.transport1d import (_component_sum, _directed_distance,
                                _rows_deriv_pdf, gauss_distance_rows)

GAUSS = StandardGaussian()

# frozen closed forms at sigma = 2
D_SIGMA2 = 0.5
TAL_SIGMA2 = 0.6137056388801092      # 2H - W2^2 = 3 - ln 4 - 1
BREGMAN_SIGMA2 = 0.3068528194400547  # 2 - 1 - ln 2


def scaled(s, a=0.0):
    return GaussianMixture1D([1.0], [a], [s])


def mixture_pool():
    return [
        GaussianMixture1D([0.3, 0.7], [-1.0, 1.5], [0.6, 1.2]),
        GaussianMixture1D([0.5, 0.5], [-0.5, 0.5], [1.0, 1.0]),
        GaussianMixture1D([0.2, 0.5, 0.3], [-2.0, 0.0, 2.0], [0.5, 1.0, 0.8]),
        scaled(1.4, 0.3),
    ]


def small_mixtures():
    @st.composite
    def build(draw):
        k = draw(st.integers(1, 2))
        w = np.asarray([draw(st.floats(0.2, 1.0)) for _ in range(k)])
        m = [draw(st.floats(-1.5, 1.5)) for _ in range(k)]
        s = [draw(st.floats(0.6, 1.8)) for _ in range(k)]
        return GaussianMixture1D(w / w.sum(), m, s)

    return build()


# ---------------------------------------------------------------------------
# transport map


def test_map_between_gaussians_is_affine():
    t = TransportMap1D(scaled(2.0, 1.0), GAUSS)
    xs = np.linspace(-5, 7, 25)
    assert np.allclose(t(xs), (xs - 1.0) / 2.0, atol=1e-10)
    assert np.allclose(t.deriv(xs), 0.5, atol=1e-10)


def test_map_derivative_is_density_ratio_not_difference():
    mu, nu = mixture_pool()[0], mixture_pool()[2]
    t = TransportMap1D(mu, nu)
    xs = np.linspace(-4, 4, 17)
    assert np.allclose(t.deriv(xs), mu.pdf(xs) / nu.pdf(t(xs)), rtol=1e-9)


def _grid():
    xs = np.linspace(-5.0, 6.0, 201)
    return GridDensity1D(xs, 0.4 * stats.norm.pdf(xs, -1.0, 0.7)
                         + 0.6 * stats.norm.pdf(xs, 1.5, 1.1))


@pytest.mark.parametrize("source,target", [
    (mixture_pool()[0], GAUSS), (_grid(), mixture_pool()[2]),
    (GAUSS, _grid())], ids=["mixture-gauss", "grid-mixture", "gauss-grid"])
def test_map_keeps_the_input_shape(source, target):
    t = TransportMap1D(source, target)
    xs = np.array([[-2.0, -0.3, 0.4], [1.1, 2.5, 6.0]])
    out = t(xs)
    assert np.shape(t(0.4)) == ()
    assert out.shape == (2, 3)
    assert t(0.4) == out[0, 2]
    assert np.allclose(target.cdf(out), source.cdf(xs), rtol=1e-10, atol=0)


def test_mixture_roots_do_not_depend_on_the_batch():
    # masses summed by a BLAS product moved t(0.4) by 2.8e-16, and 20 of
    # these 200 roots by a last bit, with what shared their batch
    t = TransportMap1D(_grid(), mixture_pool()[2])
    xs = np.linspace(-4.0, 5.0, 200)
    batch = t(xs)
    assert t(0.4) == t(np.array([[-2.0, -0.3, 0.4], [1.1, 2.5, 6.0]]))[0, 2]
    assert all(t(x) == y for x, y in zip(xs, batch))


@pytest.mark.parametrize("lam", [0.3, 0.9])
def test_map_from_grid_increases_in_its_right_tail(lam):
    # summed from the left only, the grid's 1 - F stuck at 0 (lam = 0.9)
    # or 2.2e-15 (lam = 0.3) right of x = 8, and T jumped or stalled there
    t = TransportMap1D(_pl_u_density(_pl_exponents(_SIN_BUMP, lam)[0]), GAUSS)
    assert np.all(np.diff(t(np.linspace(7.0, 10.0, 31))) > 0.0)


def test_map_to_a_mixture_solves_once_per_call(monkeypatch):
    # one solve for the points on both sides of the source's median
    calls = []
    solve = GaussianMixture1D._solve_gauss_scale

    def counted(self, z):
        calls.append(np.size(z))
        return solve(self, z)

    monkeypatch.setattr(GaussianMixture1D, "_solve_gauss_scale", counted)
    for u, v in _random_pairs(3):
        t = TransportMap1D(u, v)
        xs = np.linspace(*u.working_interval(1e-12), 41)
        calls.clear()
        y = t(xs)
        assert calls == [41]
        assert np.allclose(v.cdf(y), u.cdf(xs), rtol=1e-9, atol=1e-300)


def test_pushforward_moment_identity():
    # E_nu[y] = E_mu[T(x)] for T pushing mu to nu
    mu, nu = mixture_pool()[2], mixture_pool()[0]
    t = TransportMap1D(mu, nu)
    val, err = integrate.quad(lambda x: t(x) * mu.pdf(x), -30, 30, limit=300)
    assert abs(val - nu.mean()) < 1e-6 + err


# ---------------------------------------------------------------------------
# distance: closed forms and oracle


@pytest.mark.parametrize("s", [0.25, 0.5, 2.0, 4.0])
def test_distance_scaled_gaussian_closed_form(s):
    ref = abs(s - 1.0) / max(1.0, s)
    assert abs(bf_distance_full(scaled(s), GAUSS)[0] - ref) < 1e-9


def test_distance_sigma2_frozen():
    value, err = bf_distance_full(scaled(2.0), GAUSS)
    assert abs(value - D_SIGMA2) < 1e-7
    assert err < 1e-9


def test_distance_translates_vanish():
    for a in (-2.0, 0.5, 3.0):
        assert bf_distance_full(scaled(1.0, a), GAUSS)[0] < 1e-9


def test_distance_mixture_against_scipy_oracle():
    """Independent oracle: T, T' and the integral all built from scipy."""
    mix = mixture_pool()[0]

    def t_of(x):
        return ndtri(np.clip(
            sum(w * stats.norm.cdf(x, m, s) for w, m, s in
                zip(mix.weights, mix.means, mix.stds)), 1e-300, 1 - 1e-16))

    def integrand(x):
        tp = mix.pdf(x) / stats.norm.pdf(t_of(x))
        return abs(1.0 - tp) / max(1.0, tp) * mix.pdf(x)

    ref, err = integrate.quad(integrand, -12, 12, limit=400)
    value, our_err = bf_distance_full(mix, GAUSS)
    assert abs(value - ref) < 1e-7 + err + our_err


def _gamma_side_oracle(mix):
    """d(gamma, mix) from SciPy alone: T = F^{-1}(Phi) by brentq on the cdf
    (on the survival side right of 0), T' = phi / mix(T), and
    integrate.quad split where T' - 1 changes sign."""
    w, m, s = mix.weights, mix.means, mix.stds

    def t_of(x):
        if x <= 0.0:
            p = ndtr(x)
            return brentq(lambda y: float(w @ ndtr((y - m) / s)) - p,
                          -60, 60, xtol=1e-14, rtol=1e-15)
        q = ndtr(-x)
        return brentq(lambda y: float(w @ ndtr((m - y) / s)) - q,
                      -60, 60, xtol=1e-14, rtol=1e-15)

    def excess(x):
        return stats.norm.pdf(x) / float(mix.pdf(t_of(x))) - 1.0

    def integrand(x):
        tp = excess(x) + 1.0
        return abs(1.0 - tp) / max(1.0, tp) * stats.norm.pdf(x)

    xs = np.linspace(-9, 9, 361)
    ex = [excess(x) for x in xs]
    kinks = [brentq(excess, a, b, xtol=1e-14, rtol=1e-15)
             for a, b, fa, fb in zip(xs, xs[1:], ex, ex[1:]) if fa * fb < 0]
    pieces = [integrate.quad(integrand, a, b, limit=200, epsabs=1e-13,
                             epsrel=1e-13)
              for a, b in zip([-9.0, *kinks], [*kinks, 9.0])]
    return sum(p[0] for p in pieces), sum(p[1] for p in pieces)


def test_distance_against_gamma_side_oracle_on_pool():
    # the one directed integral from u, at the tolerance of the verifiers,
    # against the other direction computed without bfstab
    for mix in mixture_pool():
        ref, ref_err = _gamma_side_oracle(mix)
        value, err = bf_distance_full(mix, GAUSS, tol=1e-10)
        assert abs(value - ref) <= err + ref_err, mix


@pytest.mark.parametrize("case,tol", [("pool-2", 1e-9), ("main-1d-17", 1e-10),
                                      ("main-2d-11-argmax", 1e-10),
                                      ("dip", 1e-10)])
def test_distance_error_covers_kinks(case, tol):
    # with the kinks of |1 - T'| inside panels, the embedded Gauss-Legendre
    # pair under-reported the error: pool-2 at the default tolerance by
    # 1.7x, main-1d-17 at the verifiers' tolerance by 6.5x, and the marginal
    # of main-2d-11 along its searched argmax by 8.0e-8, 845x. In "dip",
    # T' - 1 crosses 0 twice, 0.07 apart, inside one pre-scan cell of width
    # 0.118; the scan saw no sign change and the distance was 1.6e-6 off
    # with an error of 1.6e-11. The kernel's own estimate is checked,
    # without bf_distance_full's tol / 2.
    if case == "pool-2":
        mix = mixture_pool()[2]
    elif case == "main-1d-17":
        mix = dict(main_corpus())[case]
    elif case == "dip":
        mix = GaussianMixture1D(
            [0.2834406098432843, 0.5293372215781421, 0.18722216857857352],
            [0.361551471339407, -1.3359553878111319, 0.7114948342692378],
            [0.3358281025546148, 0.8279693349904313, 1.8951801876698438])
    else:
        mix = GaussianMixture1D(
            [0.2149089003287826, 0.22481278990189776, 0.381099429741788,
             0.17917888002753157],
            [-1.2359828464830023, 0.08654483689940558, -1.9585421380611707,
             1.5391629208150934],
            [0.7182556253418636, 0.7360631371957169, 0.5977909301273445,
             1.078616101114277])
    ref, ref_err = _gamma_side_oracle(mix)
    value, err = gauss_distance_rows(mix.weights, mix.means, mix.stds, tol=tol)
    assert abs(value[0] - ref) <= err[0] + ref_err


def test_distance_bounds():
    assert 0.0 <= bf_distance_full(scaled(50.0), GAUSS)[0] <= 1.0
    assert bf_distance_full(scaled(50.0), GAUSS)[0] > 0.97


@given(small_mixtures(), small_mixtures())
@settings(max_examples=15)
def test_distance_symmetry(u, v):
    assert abs(bf_distance_full(u, v)[0] - bf_distance_full(v, u)[0]) < 1e-7


@given(small_mixtures(), small_mixtures(), small_mixtures())
@settings(max_examples=10)
def test_distance_triangle(u, v, w):
    assert bf_distance_full(u, w)[0] <= (bf_distance_full(u, v)[0]
                                         + bf_distance_full(v, w)[0] + 1e-7)


@given(small_mixtures(), st.floats(-2.0, 2.0))
@settings(max_examples=15)
def test_distance_translation_invariant(u, a):
    shifted = GaussianMixture1D(u.weights, u.means + a, u.stds)
    assert abs(bf_distance_full(u, GAUSS)[0]
               - bf_distance_full(shifted, GAUSS)[0]) < 1e-7


def _row_mixture(batch, b):
    """Row b of a slice batch as a 1-D mixture of its present components."""
    keep = batch.weights[b] > 0.0
    return GaussianMixture1D(batch.weights[b][keep], batch.means[b][keep],
                             batch.stds[keep])


def test_row_kernel_matches_per_row_distance():
    # two slice batches with different conditional stds, stacked into one
    # call: row 0 is a two-component slice, row 2 sits so far out that one
    # component's weight underflows and is trimmed to 0
    nu = GaussianMixtureND(
        [0.4, 0.6], [[-0.5, 0.3], [1.0, -0.2]],
        [[[1.2, 0.3], [0.3, 0.8]], [[0.7, -0.1], [-0.1, 1.5]]])
    first = conditional_slice_batch(nu, 0, np.array([[0.3], [-1.0], [14.0]]))
    second = conditional_slice_batch(nu, 1, np.array([[0.9], [-2.5]]))
    batches = [(first, b) for b in range(3)] + [(second, b) for b in range(2)]
    weights = np.vstack([first.weights, second.weights])
    means = np.vstack([first.means, second.means])
    stds = np.vstack([np.tile(first.stds, (3, 1)), np.tile(second.stds, (2, 1))])
    assert not np.allclose(first.stds, second.stds)
    assert np.count_nonzero(first.weights[2]) == 1
    two = _row_mixture(first, 0)
    assert two.weights.size == 2
    lo, hi = two.working_interval(1e-15)
    sgn = np.sign(TransportMap1D(two, GAUSS).deriv(np.linspace(lo, hi, 257))
                  - 1.0)
    assert 1 <= np.count_nonzero(sgn[:-1] * sgn[1:] < 0) <= 32

    value, error = gauss_distance_rows(weights, means, stds, tol=1e-9)
    eps = np.finfo(float).eps
    for r, (batch, b) in enumerate(batches):
        u = _row_mixture(batch, b)
        ref = _directed_distance(u, GAUSS, 1e-9)
        assert abs(value[r] - ref.value) <= 1e-15, r
        if u.weights.size == 1:
            assert error[r] == transport1d._ONE_COMPONENT_ERR, r
            continue
        # a quadrature row adds the rounding of z = (x - m) / s to the
        # estimate _directed_distance reports
        rounding = 8.0 * eps * (1.0 + np.max(np.abs(u.means) / u.stds))
        assert abs(error[r] - (ref.error + rounding)) <= 1e-15, r


def test_one_component_rows_match_quadrature():
    # N(m, s^2) has T' = 1/s, so the kernel returns 1 - min(s, 1/s) with a
    # rounding allowance. Checked against the exact rational value of that
    # formula, and against the quadrature of _directed_distance. The
    # quadrature forms z = (x - m) / s at nodes x near m, which rounds by
    # about eps |m| / s, and its Gauss-Legendre estimate does not count
    # that: without the eps (1 + |m| / s) term, about a fifth of these rows
    # missed the summed errors, by up to 32x
    rng = np.random.default_rng(23)
    n = 40
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    m = rng.uniform(-30.0, 30.0, n)
    value, error = gauss_distance_rows(np.ones((n, 1)), m[:, None],
                                       s[:, None], tol=1e-10)
    eps = np.finfo(float).eps
    for r in range(n):
        exact = 1 - min(Fraction(s[r]), 1 / Fraction(s[r]))
        assert abs(Fraction(value[r]) - exact) <= Fraction(error[r]), r
        ref = _directed_distance(GaussianMixture1D([1.0], [m[r]], [s[r]]),
                                 GAUSS, 1e-10)
        rounding = eps * (1.0 + abs(m[r]) / s[r])
        assert abs(value[r] - ref.value) <= error[r] + ref.error + rounding, r
    assert np.all(error > 0.0) and np.all(error <= 1e-15)


@pytest.mark.parametrize("seed", range(1, 7))
def test_quadrature_rows_cover_the_rounding_of_z(seed):
    # two equal halves of N(m, s^2) are N(m, s^2), at distance
    # 1 - min(s, 1/s), but as a K = 2 row they go through the pre-scan and
    # the quadrature, whose nodes near a far, narrow component round
    # z = (x - m) / s by about eps |m| / s; without the eps (1 + |m| / s)
    # term in the error, 66-75 of these 100 rows missed, by up to 955x
    rng = np.random.default_rng(seed)
    n = 100
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    m = rng.uniform(-30.0, 30.0, n)
    value, error = gauss_distance_rows(np.full((n, 2), 0.5),
                                       np.stack([m, m], axis=1),
                                       np.stack([s, s], axis=1), tol=1e-10)
    for r in range(n):
        exact = 1 - min(Fraction(s[r]), 1 / Fraction(s[r]))
        assert abs(Fraction(value[r]) - exact) <= Fraction(error[r]), r


def test_one_component_rows_vanish_only_at_unit_std():
    s = np.array([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                  0.5, 2.0])
    value, error = gauss_distance_rows(np.ones((5, 1)), np.zeros((5, 1)),
                                       s[:, None])
    assert value[0] == 0.0
    assert np.all(value[1:] > 0.0)
    assert np.array_equal(value[3:], [0.5, 0.5])
    assert np.all(error > 0.0)


def _mixed_rows():
    """Rows with one, two and three present components among four columns,
    absent ones zero-weight padding, in shuffled order."""
    rng = np.random.default_rng(31)
    b, k = 12, 4
    present = np.zeros((b, k), dtype=bool)
    for r in range(b):
        present[r, rng.choice(k, size=1 + r % 3, replace=False)] = True
    weights = np.where(present, rng.uniform(0.2, 1.0, (b, k)), 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    means = rng.uniform(-3.0, 3.0, (b, k))
    stds = np.exp(rng.uniform(np.log(0.2), np.log(3.0), (b, k)))
    order = rng.permutation(b)
    return weights[order], means[order], stds[order]


def test_mixed_batch_rows_match_rows_alone(monkeypatch):
    # each K >= 2 row's (value, error) is bit for bit that of the row alone,
    # whatever one-component rows are batched with it, in chunks of 3 rows
    weights, means, stds = _mixed_rows()
    several = np.count_nonzero(weights, axis=1) >= 2
    assert several.any() and not several.all()
    with monkeypatch.context() as patch:
        patch.setattr(transport1d, "_ROW_CHUNK",
                      3 * transport1d._SCAN_POINTS * weights.shape[1])
        value, error = gauss_distance_rows(weights, means, stds, tol=1e-9)
    for r in np.flatnonzero(several):
        alone = gauss_distance_rows(weights[r:r + 1], means[r:r + 1],
                                    stds[r:r + 1], tol=1e-9)
        assert value[r] == alone[0][0] and error[r] == alone[1][0], r


def test_padded_one_component_row_takes_closed_form(monkeypatch):
    # a row whose other components have zero weight is N(m, s^2) too: it
    # skips the pre-scan and the quadrature
    weights, means, stds = _mixed_rows()
    one = np.count_nonzero(weights, axis=1) == 1
    col = np.argmax(weights[one] > 0.0, axis=1)
    s = stds[one, col]
    assert np.any(col > 0)
    value, error = gauss_distance_rows(weights, means, stds)

    def no_scan(*args):
        raise AssertionError("one-component rows need no pre-scan")

    monkeypatch.setattr(transport1d, "_distance_breaks", no_scan)
    only, only_err = gauss_distance_rows(weights[one], means[one], stds[one])
    assert np.array_equal(only, 1.0 - np.minimum(s, 1.0 / s))
    assert np.array_equal(value[one], only)
    assert np.array_equal(error[one], only_err)
    assert np.all(only_err == transport1d._ONE_COMPONENT_ERR)


def _stacked_deriv_pdf(x, weights, means, stds, log_w, log_norm):
    """The row kernel's formula over a stacked (P, n, K) component axis."""
    z = (x[:, :, None] - means[:, None, :]) / stds[:, None, :]
    logs = -0.5 * z * z - log_norm[:, None, :] + log_w[:, None, :]
    mx = logs.max(axis=-1, keepdims=True)
    logpdf = np.squeeze(mx, -1) + np.log(np.exp(logs - mx).sum(axis=-1))
    tail = ndtr(-np.abs(z))
    left = z < 0.0
    w = weights[:, None, :]
    F = np.clip((np.where(left, tail, 1.0 - tail) * w).sum(axis=-1),
                1e-300, 1.0 - 1e-16)
    S = np.clip((np.where(left, 1.0 - tail, tail) * w).sum(axis=-1),
                1e-300, 1.0 - 1e-16)
    low = F <= 0.5
    t = ndtri(np.where(low, F, S))
    t = np.where(low, t, -t)
    return np.exp(logpdf - gauss_logpdf(t)), np.exp(logpdf)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 16])
def test_row_kernel_component_major_matches_stacked(k):
    rng = np.random.default_rng(100 + k)
    b = 6
    weights = rng.dirichlet(np.ones(k), size=b)
    if k > 1:
        weights[1, 0] = 0.0  # absent components, as trimmed slices have
        weights[3, k // 2:] = 0.0
        weights /= weights.sum(axis=1, keepdims=True)
    means = rng.uniform(-3.0, 3.0, (b, k))
    stds = np.exp(rng.uniform(np.log(0.05), np.log(3.0), (b, k)))
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    params = (weights, means, stds, log_w, np.log(stds * math.sqrt(2.0 * math.pi)))
    lo = np.min(means - 8.0 * stds, axis=1)
    hi = np.max(means + 8.0 * stds, axis=1)
    prescan = lo[:, None] + np.linspace(0.0, 1.0, 257) * (hi - lo)[:, None]
    row = rng.integers(0, b, 40)  # quadrature panels carry their row's mixture
    panels = rng.uniform(lo[row, None], hi[row, None], (40, 31))
    cells = rng.uniform(lo[:, None], hi[:, None], (b, 5))
    for x, p in [(prescan, params), (panels, [q[row] for q in params]),
                 (cells, params)]:
        deriv, pdf = _rows_deriv_pdf(x, *p)
        ref_deriv, ref_pdf = _stacked_deriv_pdf(x, *p)
        assert np.array_equal(deriv, ref_deriv)
        assert np.array_equal(pdf, ref_pdf)
        assert np.array_equal(_rows_deriv_pdf(x, *p, pdf=False), deriv)


def test_component_sum_keeps_add_reduce_order():
    # the row kernel's values stay those of a stacked sum only while this
    # mirrors NumPy's reduction order; terms of both signs spread over
    # 1e-30..1e30 make almost any other order round differently
    rng = np.random.default_rng(7)
    for k in [*range(1, 41), 128, 129, 200]:
        parts = [rng.choice([-1.0, 1.0], (4, 9))
                 * 10.0 ** rng.uniform(-30.0, 30.0, (4, 9)) for _ in range(k)]
        ref = np.add.reduce(np.stack(parts, -1), axis=-1)
        assert np.array_equal(_component_sum(parts), ref), k


def test_directed_integrals_agree():
    # between two non-Gaussian densities both directions are computed
    pool = mixture_pool()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # NumericalWarning must not fire
        for u, v in zip(pool, pool[1:]):
            value, err = bf_distance_full(u, v)
            assert err < 1e-8


def _random_pairs(count):
    """The first ``count`` of 100 seeded pairs of random mixtures: 1-4
    components, weights U(0.2, 1), means U(-4, 4), stds log-uniform on
    [0.1, 3]."""
    rng = np.random.default_rng(17)

    def mix():
        k = int(rng.integers(1, 5))
        w = rng.uniform(0.2, 1.0, k)
        m = rng.uniform(-4.0, 4.0, k)
        s = np.exp(rng.uniform(math.log(0.1), math.log(3.0), k))
        return GaussianMixture1D(w / w.sum(), m, s)

    return [(mix(), mix()) for _ in range(count)]


def _mixture_pair_oracle(u, v):
    """d(u, v) from SciPy alone: T = F_v^{-1}(F_u) by brentq (on the
    survival side right of u's median), T' = u / v(T), and integrate.quad
    split where T' - 1 changes sign on a 2,001-point scan."""
    def cdf(mix, x):
        return float(mix.weights @ ndtr((x - mix.means) / mix.stds))

    def sf(mix, x):
        return float(mix.weights @ ndtr((mix.means - x) / mix.stds))

    def pdf(mix, x):
        return float(mix.weights @ stats.norm.pdf(x, mix.means, mix.stds))

    lo, hi = np.min(u.means - 12 * u.stds), np.max(u.means + 12 * u.stds)
    b_lo, b_hi = np.min(v.means - 40 * v.stds), np.max(v.means + 40 * v.stds)

    def t_of(x):
        p, q = cdf(u, x), sf(u, x)
        if p <= 0.5:
            return brentq(lambda y: cdf(v, y) - p, b_lo, b_hi, xtol=1e-15,
                          rtol=1e-15)
        return brentq(lambda y: q - sf(v, y), b_lo, b_hi, xtol=1e-15,
                      rtol=1e-15)

    def excess(x):
        return pdf(u, x) / pdf(v, t_of(x)) - 1.0

    def integrand(x):
        tp = excess(x) + 1.0
        return abs(1.0 - tp) / max(1.0, tp) * pdf(u, x)

    xs = np.linspace(lo, hi, 2001)
    ex = [excess(x) for x in xs]
    kinks = [brentq(excess, a, b, xtol=1e-15, rtol=1e-15)
             for a, b, fa, fb in zip(xs, xs[1:], ex, ex[1:]) if fa * fb < 0]
    pieces = [integrate.quad(integrand, a, b, limit=400, epsabs=1e-14,
                             epsrel=1e-13)
              for a, b in zip([lo, *kinks], [*kinks, hi])]
    return sum(p[0] for p in pieces), sum(p[1] for p in pieces)


@pytest.fixture(scope="module")
def kink_pairs():
    """Pairs 33 and 35 of _random_pairs(100), each with its oracle."""
    pairs = _random_pairs(36)
    return {i: (*pairs[i], *_mixture_pair_oracle(*pairs[i])) for i in (33, 35)}


@pytest.mark.parametrize("pair", [33, 35])
def test_two_direction_average_covers_oracle(kink_pairs, pair):
    # _KINK_STEPS Illinois steps leave a kink up to 6.9e-5 from its root,
    # which one directed integral does not see in its own error (pair 33
    # from u, pair 35 from v); bf_distance_full's half-gap term covers it
    u, v, ref, ref_err = kink_pairs[pair]
    value, err = bf_distance_full(u, v)
    assert abs(value - ref) <= err + ref_err


@pytest.mark.xfail(strict=True, reason="one directed integral under-reports "
                   "a kink left short of its root by _KINK_STEPS steps")
def test_single_direction_covers_oracle(kink_pairs):
    u, v, ref, ref_err = kink_pairs[33]
    res = _directed_distance(u, v, 1e-9)
    assert abs(res.value - ref) <= res.error + ref_err


def test_gamma_side_quantities_invert_no_quantile(monkeypatch):
    # separated narrow modes stalled the mixture quantile inversion, and the
    # gamma-side Bregman integrand spiked between separated modes
    def refuse(self, *args):
        raise AssertionError("mixture quantile inverted")

    monkeypatch.setattr(GaussianMixture1D, "_invert", refuse)
    narrow = GaussianMixture1D([0.5, 0.5], [-8.0, 8.0], [0.05, 0.05])
    apart = GaussianMixture1D([0.5, 0.5], [-3.0, 3.0], [0.4, 0.7])
    for mix in (narrow, apart, *mixture_pool()):
        value, _ = bf_distance_full(mix, GAUSS)
        assert bf_distance_full(GAUSS, mix)[0] == value
        talagrand_deficit_1d_full(mix)
        bregman_integral_full(mix)
    assert abs(bf_distance_full(narrow, GAUSS)[0] - 0.876859) < 1e-6
    assert abs(bregman_integral_full(apart)[0] - 1.65619) < 1e-4


# ---------------------------------------------------------------------------
# W2 and the Talagrand deficit


@pytest.mark.parametrize("m", [0.0, -0.357, 1.5])
@pytest.mark.parametrize("s", [1e-4, 1e-3, 0.05, 0.2, 0.5, 1.492, 3.0, 10.0,
                               50.0])
def test_talagrand_deficit_gaussian_within_error(m, s):
    # 2 H(N(m, s^2) | gamma) - W2^2 = 2 (s - 1) - 2 ln s; the entropy's
    # error must cover its nu-tails beyond the integration interval
    value, err = talagrand_deficit_1d_full(scaled(s, m))
    assert abs(value - (2.0 * (s - 1.0) - 2.0 * math.log(s))) <= err


@pytest.mark.parametrize("a,s", [(0.0, 2.0), (0.3, 1.0), (-1.0, 0.5)])
def test_w2_gaussian_closed_form(a, s):
    # W2^2(N(a, s^2), gamma) = a^2 + (s - 1)^2
    ref = a * a + (s - 1.0) ** 2
    assert abs(w2_squared_1d_full(scaled(s, a))[0] - ref) < 1e-9


def test_w2_mixture_against_scipy_oracle():
    mix = mixture_pool()[0]

    def quantile(p):
        from scipy.optimize import brentq
        return brentq(
            lambda x: sum(w * stats.norm.cdf(x, m, s) for w, m, s in
                          zip(mix.weights, mix.means, mix.stds)) - p,
            -60, 60, xtol=1e-13)

    def integrand(p):
        return (quantile(p) - ndtri(p)) ** 2

    ref, err = integrate.quad(integrand, 1e-10, 1 - 1e-10, limit=400)
    assert abs(w2_squared_1d_full(mix)[0] - ref) < 1e-6 + err


def test_talagrand_sigma2_frozen():
    assert abs(talagrand_deficit_1d_full(scaled(2.0))[0] - TAL_SIGMA2) < 1e-9


def test_talagrand_nonnegative_on_pool():
    for mix in mixture_pool():
        assert talagrand_deficit_1d_full(mix)[0] >= -1e-9


# ---------------------------------------------------------------------------
# Bregman chain


def test_bregman_sigma2_frozen():
    assert abs(bregman_integral_full(scaled(2.0))[0] - BREGMAN_SIGMA2) < 1e-8


@pytest.mark.parametrize("s", [0.05, 0.1, 0.2, 0.5, 2.0, 5.0, 10.0, 50.0])
def test_bregman_scaled_gaussian_closed_form(s):
    # T(x) = s x, so the integrand is the constant s - 1 - ln s
    value, err = bregman_integral_full(scaled(s))
    ref = s - 1.0 - math.log(s)
    assert abs(value - ref) <= err + 1e-15 * ref


def test_bregman_chain_orders_on_pool():
    # 2H - W2^2 >= int Bregman dgamma >= d^2 / 2
    for mix in mixture_pool():
        tal = talagrand_deficit_1d_full(mix)[0]
        mid = bregman_integral_full(mix)[0]
        d = bf_distance_full(mix, GAUSS)[0]
        assert tal >= mid - 1e-8
        assert mid >= 0.5 * d * d - 1e-8


def pointwise_bregman_bound(s):
    """(s - 1 - log s, 0.5 ((1 - s) / max(1, s))^2): the Bregman integrand
    and the distance integrand it dominates, at T' = s."""
    s = np.asarray(s, dtype=float)
    r = (1.0 - s) / np.maximum(1.0, s)
    return s - 1.0 - np.log(s), 0.5 * r * r


def test_pointwise_bound_key_values():
    lhs, rhs = pointwise_bregman_bound(np.array([0.5, 2.0]))
    assert abs(lhs[0] - (math.log(2.0) - 0.5)) < 1e-15
    assert abs(rhs[0] - 0.125) < 1e-15
    assert abs(lhs[1] - (1.0 - math.log(2.0))) < 1e-15
    assert abs(rhs[1] - 0.125) < 1e-15


@given(st.floats(math.log(1e-3), math.log(1e3)))
@settings(max_examples=200)
def test_pointwise_bound_dominates(logs):
    lhs, rhs = pointwise_bregman_bound(math.exp(logs))
    assert lhs - rhs >= -1e-14
