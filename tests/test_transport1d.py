"""Transport distance, W2, Talagrand chain: closed forms and scipy oracles."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.optimize import brentq
from scipy.special import logsumexp, ndtr, ndtri

from bfstab import (GaussianMixture1D, GaussianMixtureND, StandardGaussian,
                    TransportMap1D, bf_distance_full, bregman_integral_full,
                    entropy_fisher_1d, talagrand_deficit_1d_full,
                    verify_talagrand, w2_squared_1d_full)
from bfstab import density1d, transport1d
from bfstab.corpus import _SIN_BUMP, main_corpus, talagrand_1d_corpus
from bfstab.deficits import _pl_exponents, _pl_u_density
from bfstab.density1d import GridDensity1D
from bfstab.densitynd import conditional_slice_batch
from bfstab.quadrature import K7, _K21_NODES, QuadResult, adaptive_quad_rows
from bfstab.transport1d import (_columns, _directed_distance,
                                _rows_deriv_pdf, gauss_distance_estimates,
                                gauss_distance_rows)

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


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_zero_distances_cover_their_rounding(tol):
    # at tol 0 the budget of a zero distance is a few eps, not 0, and the
    # pair integral's error covers the rounding of its integrand
    pairs = [(GAUSS, GAUSS), (scaled(1.0, 3.0), GAUSS)]
    for (w1, w2), (m1, m2), (s1, s2), shift in (
            ((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0), 3.0),
            ((0.3, 0.7), (-1.0, 2.0), (0.5, 1.5), 1.5)):
        pairs.append((GaussianMixture1D([w1, w2], [m1, m2], [s1, s2]),
                      GaussianMixture1D([w1, w2], [m1 + shift, m2 + shift],
                                        [s1, s2])))
    for u, v in pairs:
        value, error = bf_distance_full(u, v, tol=tol)
        assert 0.0 <= value <= error < 1e-9


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


# d(mix, gamma) of K >= 2 mixtures, (value, error) bit for bit from the
# directed integral over the mixture, so that a change of its route shows
_PINNED_GAMMA_DISTANCES = {
    ("pool-0", 1e-9): (0.33446841355047396, 5.017823297888385e-10),
    ("pool-2", 1e-10): (0.3674870027245317, 5.2149088091652296e-11),
    ("narrow", 1e-9): (0.8768595142405987, 1.1055615735843872e-09),
    ("main-1d-17", 1e-10): (0.3694102486641764, 5.310846983802326e-11),
}


@pytest.mark.parametrize("case,tol", list(_PINNED_GAMMA_DISTANCES))
def test_mixture_distances_to_gamma_are_pinned(case, tol):
    if case.startswith("pool-"):
        mix = mixture_pool()[int(case[5:])]
    elif case == "narrow":
        mix = GaussianMixture1D([0.5, 0.5], [-8.0, 8.0], [0.05, 0.05])
    else:
        mix = dict(main_corpus())[case]
    pinned = _PINNED_GAMMA_DISTANCES[case, tol]
    assert bf_distance_full(mix, GAUSS, tol=tol) == pinned
    assert bf_distance_full(GAUSS, mix, tol=tol) == pinned


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
    for r, (batch, b) in enumerate(batches):
        u = _row_mixture(batch, b)
        ref = _directed_distance(u, 1e-9)
        assert abs(value[r] - ref.value) <= 1e-15, r
        if u.weights.size == 1:
            assert error[r] == transport1d._ONE_COMPONENT_ERR, r
            continue
        # both add the rounding of z = (x - m) / s to the quadrature's
        # estimate
        assert abs(error[r] - ref.error) <= 1e-15, r


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
                                 1e-10)
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


def _gradient_rows():
    """Rows of K = 2 to 4 present components among four columns, one of
    them with a far, narrow component."""
    rng = np.random.default_rng(41)
    b, k = 9, 4
    present = np.arange(k) < 2 + np.arange(b)[:, None] % 3
    weights = np.where(present, rng.uniform(0.2, 1.0, (b, k)), 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    means = rng.uniform(-2.0, 2.0, (b, k))
    stds = np.exp(rng.uniform(np.log(0.3), np.log(3.0), (b, k)))
    means[4, 1], stds[4, 1] = 9.0, 0.01
    return weights, means, stds


def test_distance_gradient_matches_central_differences():
    # the derivative under the integral sign, on the value's panels,
    # against central differences of the certified distance
    weights, means, stds = _gradient_rows()
    tol, h = 1e-13, 1e-6
    _, _, d_means, d_stds = gauss_distance_rows(weights, means, stds,
                                                tol=tol, grad=True)

    def slope(dm, ds):
        up = gauss_distance_rows(weights, means + dm, stds + ds, tol=tol)[0]
        down = gauss_distance_rows(weights, means - dm, stds - ds, tol=tol)[0]
        return (up - down) / (2.0 * h)

    for k in range(weights.shape[1]):
        step = np.zeros_like(means)
        step[:, k] = h
        present = weights[:, k] > 0.0
        for grad, diff in ((d_means, slope(step, 0.0)),
                           (d_stds, slope(0.0, step))):
            assert np.all(np.abs(grad[present, k] - diff[present]) <= 1e-8), k
            assert np.all(grad[~present, k] == 0.0), k


def test_distance_gradient_keeps_the_value_and_error_bits():
    for weights, means, stds in (_gradient_rows(), _mixed_rows()):
        value, error = gauss_distance_rows(weights, means, stds, tol=1e-10)
        out = gauss_distance_rows(weights, means, stds, tol=1e-10, grad=True)
        assert np.array_equal(out[0], value)
        assert np.array_equal(out[1], error)


def test_one_component_distance_gradient_is_the_closed_form():
    # d = 1 - min(s, 1/s): dd/ds is -1 below s = 1 and 1/s^2 above it, and
    # d does not depend on the mean; padded rows too
    weights, means, stds = _mixed_rows()
    one = np.count_nonzero(weights, axis=1) == 1
    _, _, d_means, d_stds = gauss_distance_rows(weights, means, stds,
                                                grad=True)
    s = np.where(weights[one] > 0.0, stds[one], np.nan)
    slope = np.where(s < 1.0, -1.0, 1.0 / (s * s))
    assert np.array_equal(d_stds[one], np.where(np.isnan(s), 0.0, slope))
    assert np.all(d_means[one] == 0.0)
    assert np.any(s < 1.0) and np.any(s > 1.0)


def test_estimates_of_one_component_rows_are_the_closed_form():
    # one-component rows, padded or not, get the kernel's value bit for bit
    # and a zero bound; the other rows a positive bound
    weights, means, stds = _mixed_rows()
    one = np.count_nonzero(weights, axis=1) == 1
    estimate, bound = gauss_distance_estimates(weights, means, stds)
    value = gauss_distance_rows(weights, means, stds)[0]
    assert np.array_equal(estimate[one], value[one])
    assert np.all(bound[one] == 0.0) and np.all(bound[~one] > 0.0)


def test_estimate_bound_covers_rows_with_narrow_components():
    # most rows have a component narrower than the estimate's step; without
    # their weights in the bound, 51 of these 400 rows fall outside it
    rng = np.random.default_rng(44)
    b, k = 400, 3
    weights = rng.uniform(0.05, 1.0, (b, k))
    weights /= weights.sum(axis=1, keepdims=True)
    means = rng.uniform(-4.0, 4.0, (b, k))
    stds = np.exp(rng.uniform(np.log(0.05), np.log(5.0), (b, k)))
    estimate, bound = gauss_distance_estimates(weights, means, stds)
    value = gauss_distance_rows(weights, means, stds)[0]
    assert np.all(np.abs(estimate - value) <= bound)


@pytest.mark.parametrize("spread", [(1e-3, 1e3, 30.0), (0.1, 10.0, 5.0)])
def test_estimates_warn_nothing(spread):
    # stds log-uniform on [lo, hi] and means uniform on (-m, m), a fifth of
    # the components absent; CI runs with RuntimeWarning as an error
    lo, hi, m = spread
    rng = np.random.default_rng(41)
    b, k = 300, 3
    weights = rng.uniform(0.01, 1.0, (b, k))
    weights[rng.uniform(size=(b, k)) < 0.2] = 0.0
    weights[:, 0] += 0.01
    weights /= weights.sum(axis=1, keepdims=True)
    means = rng.uniform(-m, m, (b, k))
    stds = np.exp(rng.uniform(np.log(lo), np.log(hi), (b, k)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate, bound = gauss_distance_estimates(weights, means, stds)
    assert np.all(np.isfinite(estimate)) and np.all(bound >= 0.0)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 16])
def test_row_kernel_component_major_matches_stacked(k):
    # kernel rows, stacked into one call, bit for bit against the one-row
    # route: TransportMap1D of the row's GaussianMixture1D onto gamma
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
    for x, rows in [(prescan, np.arange(b)), (panels, row),
                    (cells, np.arange(b))]:
        deriv, pdf = _rows_deriv_pdf(x, *_columns(params, rows))
        assert np.array_equal(
            _rows_deriv_pdf(x, *_columns(params, rows), pdf=False), deriv)
        for r, p in enumerate(rows):
            keep = weights[p] > 0.0
            u = GaussianMixture1D(weights[p][keep], means[p][keep],
                                  stds[p][keep])
            assert np.array_equal(deriv[r], TransportMap1D(u, GAUSS).deriv(x[r]))
            assert np.array_equal(pdf[r], u.pdf(x[r]))


def test_sixteen_component_rows_cover_quadrature_oracle():
    # the rows of 16 components are the only kernel rows whose component
    # sums changed order when they became left to right; against SciPy
    # alone (T = Phi^{-1}(F_u) from the survival side right of u's median,
    # T' = u / phi(T), integrate.quad split where T' - 1 changes sign on a
    # 2,001-point scan) each stays within its error
    rng = np.random.default_rng(16)
    b, k = 3, 16
    weights = rng.dirichlet(np.ones(k), size=b)
    means = rng.uniform(-4.0, 4.0, (b, k))
    stds = np.exp(rng.uniform(np.log(0.1), np.log(2.0), (b, k)))
    value, error = gauss_distance_rows(weights, means, stds, tol=1e-10)
    for r in range(b):
        w, m, s = weights[r], means[r], stds[r]

        def excess(x):
            p = float(w @ stats.norm.cdf(x, m, s))
            t = (stats.norm.ppf(p) if p <= 0.5
                 else stats.norm.isf(float(w @ stats.norm.sf(x, m, s))))
            return float(w @ stats.norm.pdf(x, m, s)) / stats.norm.pdf(t) - 1.0

        def integrand(x):
            tp = excess(x) + 1.0
            return (abs(1.0 - tp) / max(1.0, tp)
                    * float(w @ stats.norm.pdf(x, m, s)))

        lo, hi = np.min(m - 12.0 * s), np.max(m + 12.0 * s)
        xs = np.linspace(lo, hi, 2001)
        ex = [excess(x) for x in xs]
        kinks = [brentq(excess, a, c, xtol=1e-15, rtol=1e-15)
                 for a, c, fa, fc in zip(xs, xs[1:], ex, ex[1:]) if fa * fc < 0]
        assert kinks, r
        pieces = [integrate.quad(integrand, a, c, limit=400, epsabs=1e-14,
                                 epsrel=1e-13)
                  for a, c in zip([lo, *kinks], [*kinks, hi])]
        ref = sum(p[0] for p in pieces)
        ref_err = sum(p[1] for p in pieces)
        assert abs(value[r] - ref) <= error[r] + ref_err, r


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


def _wide_mixture(rng):
    """One draw of the wide-range law: 1-6 components, Dirichlet weights,
    means U(-30, 30), stds log-uniform on [1e-3, 1e3]."""
    k = int(rng.integers(1, 7))
    w = rng.dirichlet(np.ones(k))
    m = rng.uniform(-30.0, 30.0, k)
    s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), k))
    return GaussianMixture1D(w, m, s)


def _wide_pairs(count):
    """The first ``count`` seeded pairs of wide-range mixtures."""
    rng = np.random.default_rng(1)
    return [(_wide_mixture(rng), _wide_mixture(rng)) for _ in range(count)]


def _oracle_quantile(mix, z):
    """x_u(z) for the mixture u = mix: the brentq root of F_u(x) = Phi(z),
    or of 1 - F_u(x) = Phi(-z) for z > 0, inside [min_k, max_k]
    (m_k + s_k z), where F_u lies on either side of Phi(z)."""
    w, m, s = mix.weights, mix.means, mix.stds
    ends = m + s * z
    a, b = ends.min(), ends.max()
    if a == b:
        return a
    pad = 1e-12 * (b - a)
    if z <= 0.0:
        p = ndtr(z)
        return brentq(lambda x: float(w @ ndtr((x - m) / s)) - p,
                      a - pad, b + pad, xtol=1e-300, rtol=1e-15)
    q = ndtr(-z)
    return brentq(lambda x: q - float(w @ ndtr((m - x) / s)),
                  a - pad, b + pad, xtol=1e-300, rtol=1e-15)


def _oracle_logpdf(mix, x):
    z = (x - mix.means) / mix.stds
    return float(logsumexp(-0.5 * z * z, b=mix.weights
                           / (mix.stds * math.sqrt(2.0 * math.pi))))


def _oracle_gauss_scale(mix, x):
    """S(x) = Phi^{-1}(F(x)), from the side whose mass is at most 1/2."""
    lower = float(mix.weights @ ndtr((x - mix.means) / mix.stds))
    if lower <= 0.5:
        return float(ndtri(lower))
    return -float(ndtri(float(mix.weights @ ndtr((mix.means - x)
                                                  / mix.stds))))


def _oracle_structure(mix):
    """Each component's m_k and m_k +- 8 s_k."""
    return np.concatenate([mix.means, mix.means - 8.0 * mix.stds,
                           mix.means + 8.0 * mix.stds])


def _gauss_scale_oracle(u, v, radius=8.5, scan=2001):
    """d(u, v) from SciPy alone, on the Gaussian scale: E_gamma of
    -expm1(-|L(z)|), L(z) = log u(x_u(z)) - log v(x_v(z)), over
    [-radius, radius] (gamma leaves 2e-17 outside).

    x_u(z) is ``_oracle_quantile``. The zeros of L, the kinks of the
    integrand, are brentq roots in the sign changes of L on a
    ``scan``-point grid, and integrate.quad runs between consecutive panel
    edges: the kinks and Phi^{-1}(F(m_k +- 8 s_k)) of each side's
    components, so no kink and no narrow component lies inside a panel."""
    def log_ratio(z):
        return (_oracle_logpdf(u, _oracle_quantile(u, z))
                - _oracle_logpdf(v, _oracle_quantile(v, z)))

    def integrand(z):
        return -math.expm1(-abs(log_ratio(z))) * stats.norm.pdf(z)

    zs = np.linspace(-radius, radius, scan)
    ls = [log_ratio(z) for z in zs]
    kinks = [brentq(log_ratio, a, b, xtol=1e-300, rtol=1e-15)
             for a, b, fa, fb in zip(zs, zs[1:], ls, ls[1:]) if fa * fb < 0]
    edges = {_oracle_gauss_scale(d, x) for d in (u, v)
             for x in _oracle_structure(d)}
    edges = [-radius, *sorted(e for e in edges.union(kinks)
                              if -radius < e < radius), radius]
    pieces = [integrate.quad(integrand, a, b, limit=200, epsabs=1e-14,
                             epsrel=1e-13)
              for a, b in zip(edges, edges[1:])]
    return sum(p[0] for p in pieces), sum(p[1] for p in pieces)


@pytest.mark.parametrize("pair", [0, 34])
def test_wide_range_pair_covers_gauss_scale_oracle(pair):
    # the average of the two directed integrals read 0.490 +- 0.44 on pair
    # 0, whose distance is 0.92690. On pair 34, L dips across 0 and back
    # within 0.0076 near z = -0.67, which the oracle's scan finds on 2,001
    # points and not on 801
    u, v = _wide_pairs(pair + 1)[pair]
    ref, ref_err = _gauss_scale_oracle(u, v)
    value, err = bf_distance_full(u, v)
    assert abs(value - ref) <= err + ref_err


def _oracle_pair(pair):
    """Pair ``pair`` of _random_pairs(100) (an int), or "pool-i", the pool's
    mixtures i and i + 1."""
    if isinstance(pair, int):
        return _random_pairs(pair + 1)[pair]
    i = int(pair[5:])
    return tuple(mixture_pool()[i:i + 2])


@pytest.mark.parametrize("pair", [19, 33, 35, "pool-0", "pool-1", "pool-2"])
def test_pair_distance_covers_oracle(pair):
    # the one Gaussian-scale integral against the oracle. Before it, the
    # average of the two directed integrals needed its half-gap term to
    # cover pairs 33 and 35, where a kink 6.9e-5 from its root went unseen
    # by one direction, and pair 19, which the integral from v missed by
    # 82 times its error
    u, v = _oracle_pair(pair)
    ref, ref_err = _mixture_pair_oracle(u, v)
    value, err = bf_distance_full(u, v)
    assert abs(value - ref) <= err + ref_err
    assert err <= 1e-8


def test_kink_location_bisects_where_illinois_steps_stall():
    # T' - 1 jumps from -1.8e-12 to +28 at 0.3 in cell 0: each Illinois
    # step moves the left end by a rounding-level amount, and 100 of them
    # leave the bracket open, so bisection closes it. Cell 1 (a parabola)
    # closes within the Illinois cap and returns its own point whatever it
    # is batched with.
    def curve(x):
        return 0.2 + x * (1.0 + x)

    def deriv(x):
        step = np.where(x < 0.3, 1.0 - 1.8e-12, 29.0)
        return np.where(np.arange(x.shape[1]) == 0, step, curve(x))

    a, b = np.zeros((1, 2)), np.ones((1, 2))
    roots = transport1d._kinks(a, b, deriv(a) - 1.0, deriv(b) - 1.0, deriv)
    assert abs(roots[0, 0] - 0.3) <= transport1d._KINK_WIDTH
    assert abs(roots[0, 1] - 0.5 * (math.sqrt(4.2) - 1.0)) <= 1e-12
    alone = transport1d._kinks(a[:, 1:], b[:, 1:], curve(a[:, 1:]) - 1.0,
                               curve(b[:, 1:]) - 1.0, curve)
    assert alone[0, 0] == roots[0, 1]


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
# grid sources: nodes as panel edges, one locate per point set


@pytest.mark.parametrize("density", [GAUSS, *mixture_pool(), _grid()],
                         ids=["gauss", "mix0", "mix1", "mix2", "mix3", "grid"])
def test_mass_logpdf_pdf_matches_separate_calls(density):
    nodes = _grid().nodes
    xs = np.concatenate([[-40.0, -9.0, -5.0 - 1e-9], nodes[::3],
                         0.5 * (nodes[1:] + nodes[:-1])[::3],
                         [6.0 + 1e-9, 9.0, 40.0]])
    m, upper, logpdf, pdf = density._mass_logpdf_pdf(xs)
    m_ref, upper_ref = density._mass(xs)
    assert np.array_equal(m, m_ref)
    assert np.array_equal(upper, upper_ref)
    assert np.array_equal(logpdf, density.logpdf(xs))
    assert np.array_equal(pdf, density.pdf(xs))
    for got, ref in zip(density._mass_logpdf(xs), (m, upper, logpdf)):
        assert np.array_equal(got, ref)
    # as K21 panels: between nodes, in each tail, a few ulps wide beside a
    # node on either side, and across a node; a grid locates a tail panel,
    # one across a node and one whose end rounds onto the node to its right
    # point by point
    node = nodes[100]
    a = np.concatenate([nodes[:-1], [-40.0, 6.0, node - 4e-15, node],
                        0.5 * (nodes[1:] + nodes[:-1])[::5]])
    b = np.concatenate([nodes[1:], [-5.0, 40.0, node, node + 4e-15],
                        a[-40:] + 0.055])
    x = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _K21_NODES
    for got, ref in zip(density._panel_mass_logpdf_pdf(x),
                        density._mass_logpdf_pdf(x.ravel())):
        assert got.shape == x.shape
        assert got.tobytes() == ref.tobytes()


def test_grid_distance_integrand_locates_each_point_once(monkeypatch):
    # each panel lies between two nodes, so one searchsorted value locates
    # its 21 points; the integrand runs on whole panels, at most
    # _EVAL_SLICE points at a time
    integrands = []
    quad = transport1d.adaptive_quad_rows

    def capture(g, breakpoints, **kw):
        integrands.append(g)
        return quad(g, breakpoints, **kw)

    monkeypatch.setattr(transport1d, "adaptive_quad_rows", capture)
    u = _grid()
    _directed_distance(u, 1e-10)
    [g] = integrands
    calls, points = [], []
    search, panels = np.searchsorted, GridDensity1D._panel_mass_logpdf_pdf

    def counted(a, v, *args, **kw):
        calls.append(np.size(v))
        return search(a, v, *args, **kw)

    def sized(self, x):
        points.append(x.size)
        return panels(self, x)

    monkeypatch.setattr(np, "searchsorted", counted)
    monkeypatch.setattr(GridDensity1D, "_panel_mass_logpdf_pdf", sized)
    # four panels in each of the grid's 200 cells
    cuts = u.nodes[:-1, None] + np.diff(u.nodes)[:, None] * np.arange(5) / 4
    a, b = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    x = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _K21_NODES
    step = transport1d._EVAL_SLICE // 21
    for n, sizes in ((9, [9]), (x.shape[0], [step, x.shape[0] - step])):
        calls.clear()
        points.clear()
        g(x[:n], np.zeros(n, dtype=int))
        assert calls == sizes
        assert points == [21 * k for k in sizes]
        assert max(points) <= transport1d._EVAL_SLICE
    t = TransportMap1D(u, GAUSS)
    calls.clear()
    t.deriv(np.linspace(-6.0, 7.0, 257))
    assert calls == [257]


def _per_point_distance(mu, tol):
    """d(mu, gamma) of a grid source with its integrand read point by
    point, on the grid's 3/7 Kronrod pair: the directed distance as it was
    evaluated before a grid located each panel once."""
    tmap = TransportMap1D(mu, GAUSS)
    lo, hi = mu.working_interval(transport1d._DIST_TAIL)
    bp = transport1d._distance_breaks(
        np.array([lo]), np.array([hi]), mu.nodes[None, :],
        lambda xs: tmap.deriv(xs.ravel()).reshape(xs.shape))

    def g(x, row):
        m, upper, logpdf, pdf = mu._mass_logpdf_pdf(x.ravel())
        s = tmap._deriv(m, upper, logpdf)
        return (np.abs(1.0 - s) / np.maximum(1.0, s) * pdf).reshape(x.shape)

    res = adaptive_quad_rows(g, bp,
                             tol_abs=max(tol, transport1d._ROUNDING_FLOOR),
                             tol_rel=1e-12, pair=K7)
    return QuadResult(float(res.value[0]), float(res.error[0]),
                      int(res.evaluations[0]), int(res.panels[0]))


def _sin2x_grid():
    # the grid of the CI verdict step
    x = np.linspace(-10.0, 10.0, 4097)
    return GridDensity1D(x, np.exp(np.sin(2.0 * x) - 0.5 * x * x))


@pytest.mark.parametrize("case", ["pl-0.1", "pl-0.5", "pl-0.9", "sin2x",
                                  "tails"])
def test_grid_distance_keeps_the_bits_of_a_per_point_integrand(case):
    if case.startswith("pl-"):
        lam = float(case[3:])
        u = _pl_u_density(_pl_exponents(_SIN_BUMP, lam)[0])
    else:
        u = _sin2x_grid() if case == "sin2x" else _grid()
    lo, hi = u.working_interval(transport1d._DIST_TAIL)
    # only _grid()'s working interval reaches into the tail pieces
    assert (lo < u.nodes[0] and hi > u.nodes[-1]) == (case == "tails")
    for tol in (1e-9, 1e-10, 1e-12):
        assert _directed_distance(u, tol) == _per_point_distance(u, tol)


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_grid_distance_settles_in_one_round(lam):
    # each node is a panel edge, so u is log-linear on every panel: 4,096
    # panels between the nodes and two more at the kinks of |1 - T'|, each
    # on the grid's 7-point Kronrod rule
    u = _pl_u_density(_pl_exponents(_SIN_BUMP, lam)[0])
    res = _directed_distance(u, 1e-10)
    assert res.panels == u.nodes.size + 1
    assert res.evaluations == 7 * res.panels


@pytest.mark.parametrize("n", [41, 4097, 10001])
def test_grid_distance_covers_a_quartered_reference(monkeypatch, n):
    # the mixture of _grid() tabulated on [-9, 9]; the reference cuts every
    # cell in four and integrates to 1e-14. Before the nodes were panel
    # edges, 10,001 nodes ran into _MAX_PANELS and accepted an error of
    # 4.1e-10 against tol 1e-10
    xs = np.linspace(-9.0, 9.0, n)
    u = GridDensity1D(xs, 0.4 * stats.norm.pdf(xs, -1.0, 0.7)
                      + 0.6 * stats.norm.pdf(xs, 1.5, 1.1))
    value, err = bf_distance_full(u, GAUSS, tol=1e-10)
    assert err <= 1e-10
    breaks = transport1d._distance_breaks

    def quartered(lo, hi, interior, deriv):
        x = interior[0]
        cuts = x[:-1, None] + np.diff(x)[:, None] * (np.arange(4) / 4.0)
        return breaks(lo, hi, np.append(cuts, x[-1])[None, :], deriv)

    monkeypatch.setattr(transport1d, "_distance_breaks", quartered)
    ref = _directed_distance(u, 1e-14)
    assert ref.panels >= 4 * (n - 1)
    assert abs(value - ref.value) <= err + ref.error


def test_grid_against_its_translate_is_at_distance_zero():
    # both sides' nodes on the Gaussian scale are the same panel edges, and
    # L = log u(x_u) - log v(x_v) vanishes up to rounding
    u = _grid()
    v = GridDensity1D(u.nodes + 2.5, u.values)
    value, err = bf_distance_full(u, v)
    assert 0.0 <= value <= err < 1e-12


def test_grid_against_a_translate_of_gamma_matches_gamma():
    # N(1, 1) is a mixture, so d(grid, N(1, 1)) is the Gaussian-scale pair
    # integral and d(grid, gamma) the directed integral over the grid
    u = _grid()
    value, err = bf_distance_full(u, GaussianMixture1D([1.0], [1.0], [1.0]))
    ref, ref_err = bf_distance_full(u, GAUSS)
    assert abs(value - ref) <= err + ref_err


# ---------------------------------------------------------------------------
# W2 and the Talagrand deficit


@pytest.mark.parametrize("m", [0.0, -0.357, 1.5])
@pytest.mark.parametrize("s", [1e-4, 1e-3, 0.05, 0.2, 0.5, 1.492, 3.0, 10.0,
                               50.0])
def test_talagrand_deficit_gaussian_within_error(m, s):
    # 2 H(N(m, s^2) | gamma) - W2^2 = 2 (s - 1) - 2 ln s; the error must
    # cover the nu-tails beyond the integration interval
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


def _exact_talagrand_gaussian(s):
    """2 (s - 1 - log s), the Talagrand deficit of N(m, s^2), at 40 digits
    for the float s."""
    with mpmath.workdps(40):
        s = mpmath.mpf(float(s))
        return 2 * (s - 1 - mpmath.log(s))


def test_talagrand_deficit_gaussian_sweep_covers_mpmath():
    # 1,000 seeded N(m, s^2), m uniform on (-30, 30) and s log-uniform on
    # [1e-6, 1e6], and two draws of the wide-range mixture law
    # (default_rng(5)): each deficit within its own error of the 40-digit
    # value, with no slack. At 2 H - W2^2 the two draws missed by 3.1e-12
    # and 1.9e-11 against errors of 1.3e-12 and 4.0e-12
    rng = np.random.default_rng(2027)
    ms = [13.964046321779236, 29.724570594287755,
          *rng.uniform(-30.0, 30.0, 1000)]
    ss = [0.03212018777504905, 0.01033806641338313,
          *np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 1000))]
    for m, s in zip(ms, ss):
        value, err = talagrand_deficit_1d_full(scaled(s, m))
        assert abs(mpmath.mpf(value) - _exact_talagrand_gaussian(s)) <= err, (
            m, s)


def _narrow_modes():
    # the CLI's mix:[0.5,-8,0.0025;0.5,8,0.0025], two modes of std 0.05
    return GaussianMixture1D([0.5, 0.5], [-8.0, 8.0], [0.05, 0.05])


@pytest.mark.parametrize("case", [
    *(case_id for case_id, _ in talagrand_1d_corpus()),
    *(f"pool-{i}" for i in range(len(mixture_pool()))),
    "sin2x-grid", "narrow-modes"])
def test_talagrand_deficit_is_2h_minus_w2_within_errors(case):
    # the identity 2 H - W2^2 = 2 B, with H and W2^2 from their own
    # integrals: the two sides agree within the sum of their errors
    if case.startswith("tal-1d-"):
        nu = dict(talagrand_1d_corpus())[case]
    elif case.startswith("pool-"):
        nu = mixture_pool()[int(case[5:])]
    else:
        nu = _sin2x_grid() if case == "sin2x-grid" else _narrow_modes()
    value, err = talagrand_deficit_1d_full(nu)
    h, h_err = entropy_fisher_1d(nu)[0]
    w2, w2_err = w2_squared_1d_full(nu)
    assert abs(value - (2.0 * h - w2)) <= err + 2.0 * h_err + w2_err


def test_talagrand_deficit_takes_one_quadrature(monkeypatch):
    # the deficit and the printed middle come from one integral; the
    # verifier adds only the distance's
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for module in (transport1d, density1d):
        for name in ("adaptive_quad", "adaptive_quad_rows"):
            counting(module, name)
    mix = mixture_pool()[2]
    value, _ = talagrand_deficit_1d_full(mix)
    assert calls == ["bfstab.transport1d.adaptive_quad_rows"]
    calls.clear()
    rep = verify_talagrand(mix)
    assert calls == ["bfstab.transport1d.adaptive_quad_rows"] * 2
    assert rep.deficit == value
    assert f"bregman-chain middle={0.5 * value:.9f}" in rep.method


def _bregman_gauss_scale_oracle(u, radius=9.0):
    """B = int (T' - 1 - log T') dgamma from SciPy alone: (value, error).

    On the Gaussian scale T(x) = x_u(x) is ``_oracle_quantile``, T' =
    phi(x) / u(T(x)), and integrate.quad runs over [-radius, radius]
    between the panel edges Phi^{-1}(F(m_k)), Phi^{-1}(F(m_k +- 8 s_k)).
    Where T' > 100 at an end of a panel, between or at the edge of
    separated modes, T' spikes in x, so that panel is integrated over
    its image [T(a), T(b)] instead, as int (phi(S) - u + u log S') dy with
    S = ``_oracle_gauss_scale`` and log S' = log u - log phi(S): the same
    integral after y = T(x). t - 1 - log t is taken as expm1(L) - L at
    t = e^L for |L| < 1, where the terms cancel."""
    log_root = 0.5 * math.log(2.0 * math.pi)

    def gauss_side(x):
        log_phi = -0.5 * x * x - log_root
        L = log_phi - _oracle_logpdf(u, _oracle_quantile(u, x))
        if abs(L) < 1.0:
            return (math.expm1(L) - L) * math.exp(log_phi)
        return math.exp(L + log_phi) - math.exp(log_phi) * (1.0 + L)

    def mass_side(y):
        S = _oracle_gauss_scale(u, y)
        log_phi, log_u = -0.5 * S * S - log_root, _oracle_logpdf(u, y)
        L = log_u - log_phi
        if abs(L) < 1.0:
            return (math.expm1(-L) + L) * math.exp(log_u)
        return math.exp(log_phi) - math.exp(log_u) * (1.0 - L)

    def steep(x, y):
        return -0.5 * x * x - log_root - _oracle_logpdf(u, y) > math.log(100.0)

    edges = sorted({(_oracle_gauss_scale(u, y), y)
                    for y in _oracle_structure(u)})
    edges = [(-radius, _oracle_quantile(u, -radius)),
             *(e for e in edges if -radius < e[0] < radius),
             (radius, _oracle_quantile(u, radius))]
    value = error = 0.0
    for (xa, ya), (xb, yb) in zip(edges, edges[1:]):
        if steep(xa, ya) or steep(xb, yb):
            f, a, b = mass_side, ya, yb
        else:
            f, a, b = gauss_side, xa, xb
        v, e = integrate.quad(f, a, b, limit=200, epsabs=1e-15,
                              epsrel=1e-13)
        value, error = value + v, error + e
    return value, error


def _wide_mixtures(count):
    """The first ``count`` seeded wide-range mixtures of the sweep of the
    distance to gamma (default_rng(5))."""
    rng = np.random.default_rng(5)
    return [_wide_mixture(rng) for _ in range(count)]


@pytest.mark.parametrize("index", [5, 14, 19, 27, 33, 36])
def test_bregman_covers_gauss_scale_oracle_on_wide_mixtures(index):
    # no slack: 5 is a Gaussian of std 61, 14 three modes of std 2.5e-3 to
    # 0.03 about 20 apart, 19 and 27 hold components of std 1.4e-3 and
    # 1.1e-3 beside ones of std 325 and 389, 33 a far, narrow component
    # and 36 two modes 49 apart, whose gap the oracle takes on u's side
    u = _wide_mixtures(index + 1)[index]
    ref, ref_err = _bregman_gauss_scale_oracle(u)
    value, err = bregman_integral_full(u)
    assert abs(value - ref) <= err + ref_err


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
    # 2H - W2^2 = 2 int Bregman dgamma, taken as that integral, and
    # int Bregman dgamma >= d^2 / 2
    for mix in mixture_pool():
        tal = talagrand_deficit_1d_full(mix)[0]
        mid = bregman_integral_full(mix)[0]
        d = bf_distance_full(mix, GAUSS)[0]
        assert tal == 2.0 * mid
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
