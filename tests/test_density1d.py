"""One-dimensional density layer: closed forms, scipy oracles, invariants."""

import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats
from scipy.special import ndtri

from bfstab import density1d, quadrature
from bfstab import (ConditioningError, DomainError, EvaluationError,
                    GaussianMixture1D,
                    GridDensity1D, ParseError, ProductFunction,
                    StandardGaussian, entropy_fisher_1d, load_grid_csv,
                    lsi_deficit)
from bfstab.corpus import _SIN_BUMP
from bfstab.deficits import _pl_exponents, _pl_u_density

GAUSS = StandardGaussian()

# frozen closed forms for nu = N(0, 4) against gamma = N(0, 1)
ENTROPY_SIGMA2 = 0.8068528194400546  # (a^2 + s^2 - 1 - log s^2) / 2
FISHER_SIGMA2 = 2.25                 # s^2 (1 - 1/s^2)^2


def mixtures():
    """Small but genuinely multimodal test set."""
    return [
        GaussianMixture1D([1.0], [0.0], [1.0]),
        GaussianMixture1D([1.0], [0.7], [2.0]),
        GaussianMixture1D([0.3, 0.7], [-1.0, 1.5], [0.6, 1.2]),
        GaussianMixture1D([0.2, 0.5, 0.3], [-2.0, 0.0, 2.0], [0.5, 1.0, 0.8]),
    ]


def mixture_strategy():
    comp = st.integers(min_value=1, max_value=3)

    @st.composite
    def build(draw):
        k = draw(comp)
        w = [draw(st.floats(0.1, 1.0)) for _ in range(k)]
        m = [draw(st.floats(-2.0, 2.0)) for _ in range(k)]
        s = [draw(st.floats(0.5, 2.0)) for _ in range(k)]
        w = np.asarray(w)
        return GaussianMixture1D(w / w.sum(), m, s)

    return build()


# ---------------------------------------------------------------------------
# pdf / cdf / quantile


def test_standard_gaussian_matches_scipy():
    xs = np.linspace(-6, 6, 41)
    assert np.allclose(GAUSS.pdf(xs), stats.norm.pdf(xs), atol=1e-14)
    assert np.allclose(GAUSS.cdf(xs), stats.norm.cdf(xs), atol=1e-14)
    ps = np.linspace(0.01, 0.99, 23)
    assert np.allclose(GAUSS.quantile(ps), stats.norm.ppf(ps), atol=1e-12)


@pytest.mark.parametrize("mix", mixtures())
def test_mixture_pdf_integrates_to_one(mix):
    val, err = integrate.quad(mix.pdf, -40, 40, limit=200)
    assert abs(val - 1.0) < 1e-10 + err


@pytest.mark.parametrize("mix", mixtures())
def test_mixture_cdf_matches_quadrature(mix):
    for x in (-2.5, -0.3, 0.0, 1.1, 3.0):
        ref, err = integrate.quad(mix.pdf, -40, x, limit=200)
        assert abs(mix.cdf(x) - ref) < 1e-10 + err


def test_mixture_logpdf_consistent():
    mix = mixtures()[2]
    xs = np.linspace(-8, 8, 33)
    assert np.allclose(np.exp(mix.logpdf(xs)), mix.pdf(xs), rtol=1e-13)


def test_score_matches_logpdf_central_difference():
    # a mixture's score is _mixture_score of its component pass, which the
    # information kernel's Fisher integrand and the quantile solve's Halley
    # step read
    h = 1e-6
    mix = mixtures()[3]

    def mixture_score(x):
        zs, _, e, total = mix._log_pass(x)
        return density1d._mixture_score(zs, e, total, mix.stds)

    xs = np.linspace(-4, 4, 17)
    num = (mix.logpdf(xs + h) - mix.logpdf(xs - h)) / (2 * h)
    assert np.allclose(mixture_score(xs), num, atol=1e-7)
    # far out every component density underflows; the score is still the
    # widest component's, -(x - 0) / 1
    assert np.isclose(mixture_score(np.array([60.0]))[0], -60.0)
    # a grid's score is its piecewise log-slope; probe between nodes and in
    # both Gaussian tails
    xs_g, vals = _gaussian_grid(n=61, lo=-3.0, hi=3.0)
    grid = GridDensity1D(xs_g, vals)
    probe = np.concatenate([[-4.5, -3.2], 0.5 * (xs_g[:-1] + xs_g[1:]), [3.3, 5.0]])
    num = (grid.logpdf(probe + h) - grid.logpdf(probe - h)) / (2 * h)
    assert np.allclose(grid._score_pdf(probe)[0], num, atol=1e-6)
    # gamma's is -x, exactly
    assert np.array_equal(GAUSS._score_pdf(probe)[0], -probe)


@given(mixture_strategy(), st.floats(1e-7, 1.0 - 1e-7))
def test_quantile_roundtrip(mix, p):
    x = mix.quantile(p)
    assert abs(mix.cdf(x) - p) < 1e-9


@given(mixture_strategy(), st.floats(1e-7, 0.5))
def test_quantile_sf_roundtrip(mix, s):
    x = mix.quantile_sf(s)
    assert abs(mix.survival(x) - s) < 1e-9


def test_deep_tail_quantiles_are_finite_and_monotone():
    mix = mixtures()[2]
    ps = np.array([1e-14, 1e-10, 1e-7, 1e-4])
    qs = mix.quantile(ps)
    assert np.all(np.isfinite(qs))
    assert np.all(np.diff(qs) > 0)
    assert np.all(np.diff(mix.quantile_sf(ps)) < 0)


# separated narrow modes, a far narrow component, modes 6 apart, a bimodal
# mixture and a mixture whose T' - 1 dips across 0 (see test_transport1d)
TAIL_MIXTURES = [
    GaussianMixture1D([0.5, 0.5], [-8.0, 8.0], [0.0025, 0.0025]),
    GaussianMixture1D([0.01, 0.99], [-20.0, 0.0], [1e-4, 1.0]),
    GaussianMixture1D([0.5, 0.5], [-3.0, 3.0], [0.4, 0.7]),
    GaussianMixture1D([0.5, 0.5], [-1.0, 1.0], [1.0, 0.5]),
    GaussianMixture1D(
        [0.2834406098432843, 0.5293372215781421, 0.18722216857857352],
        [0.361551471339407, -1.3359553878111319, 0.7114948342692378],
        [0.3358281025546148, 0.8279693349904313, 1.8951801876698438]),
]


def _random_tail_mixtures(count, seed=20261018):
    """Means within +-20, stds log-uniform in [0.01, 10], 1-4 components."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(1, 5))
        w = rng.uniform(0.05, 1.0, k)
        out.append(GaussianMixture1D(w / w.sum(), rng.uniform(-20.0, 20.0, k),
                                     10.0 ** rng.uniform(-2.0, 1.0, k)))
    return out


@pytest.mark.parametrize(
    "mix", TAIL_MIXTURES + _random_tail_mixtures(24),
    ids=["narrow-modes", "far-narrow", "apart", "bimodal", "dip",
         *(f"random-{i:02d}" for i in range(24))])
def test_quantiles_bracketed_down_to_1e_300(mix):
    # within delta = 1e-12 (1 + |x|) of the root on both sides, for mass
    # down to 1e-300 and across flat stretches of the cdf
    rng = np.random.default_rng(7)
    mass = 10.0 ** rng.uniform(-300.0, math.log10(0.5), 200)
    x = mix.quantile(mass)
    delta = 1e-12 * (1.0 + np.abs(x))
    assert np.all(mix.cdf(x - delta) <= mass)
    assert np.all(mass <= mix.cdf(x + delta))
    x = mix.quantile_sf(mass)
    delta = 1e-12 * (1.0 + np.abs(x))
    assert np.all(mix.survival(x + delta) <= mass)
    assert np.all(mass <= mix.survival(x - delta))
    # the upper half through quantile, and a scalar argument
    upper = rng.uniform(0.5, 1.0 - 1e-9, 50)
    x = mix.quantile(upper)
    delta = 1e-12 * (1.0 + np.abs(x))
    assert np.all(mix.cdf(x - delta) <= upper)
    assert np.all(upper <= mix.cdf(x + delta))


@pytest.mark.parametrize("mix", TAIL_MIXTURES,
                         ids=["narrow-modes", "far-narrow", "apart", "bimodal",
                              "dip"])
def test_quantiles_below_the_normal_range(mix):
    # the solve reads S = Phi^{-1}(F) through the probability clip, which
    # must not flatten S above these masses
    mass = np.array([1e-300, 1e-305, 1e-310])
    for quantile, cdf, sign in ((mix.quantile, mix.cdf, 1.0),
                                (mix.quantile_sf, mix.survival, -1.0)):
        x = quantile(mass)
        delta = sign * 1e-12 * (1.0 + np.abs(x))
        assert np.all(cdf(x - delta) <= mass)
        assert np.all(mass <= cdf(x + delta))


def test_single_component_quantile_is_closed_form():
    # the bracket [min_k, max_k] (m_k + s_k z) is one point when K = 1
    mix = GaussianMixture1D([1.0], [1.5], [0.01])
    ps = np.array([1e-300, 1e-20, 0.3, 0.5])
    assert np.array_equal(mix.quantile(ps), 1.5 + 0.01 * ndtri(ps))
    assert np.array_equal(mix.quantile_sf(ps), 1.5 - 0.01 * ndtri(ps))


def test_mixture_moments():
    mix = GaussianMixture1D([0.4, 0.6], [-1.0, 2.0], [0.5, 1.5])
    mean = 0.4 * -1.0 + 0.6 * 2.0
    var = 0.4 * (0.25 + 1.0) + 0.6 * (2.25 + 4.0) - mean ** 2
    assert abs(mix.mean() - mean) < 1e-14
    assert abs(mix.variance() - var) < 1e-13


# ---------------------------------------------------------------------------
# validation


def test_mixture_validation_errors():
    with pytest.raises(DomainError):
        GaussianMixture1D([0.5, 0.6], [0.0, 1.0], [1.0, 1.0])  # sum != 1
    with pytest.raises(DomainError):
        GaussianMixture1D([1.0], [0.0], [-1.0])
    with pytest.raises(DomainError):
        GaussianMixture1D([1.0], [np.nan], [1.0])
    with pytest.raises((DomainError, ConditioningError)):
        GaussianMixture1D([1.0], [0.0], [0.0])


# ---------------------------------------------------------------------------
# entropy and fisher functionals


def test_entropy_closed_form_scaled_gaussian():
    nu = GaussianMixture1D([1.0], [0.0], [2.0])
    assert abs(entropy_fisher_1d(nu)[0][0] - ENTROPY_SIGMA2) < 1e-12


def test_entropy_closed_form_shifted():
    # H(N(a, s^2) | gamma) = (a^2 + s^2 - 1 - log s^2) / 2
    for a, s in ((0.3, 1.0), (-1.0, 0.5), (2.0, 1.7)):
        nu = GaussianMixture1D([1.0], [a], [s])
        ref = 0.5 * (a * a + s * s - 1.0 - math.log(s * s))
        assert abs(entropy_fisher_1d(nu)[0][0] - ref) < 1e-11


def test_entropy_mixture_against_scipy_quad():
    mix = mixtures()[2]

    def integrand(x):
        return mix.pdf(x) * (mix.logpdf(x) - GAUSS.logpdf(x))

    ref, err = integrate.quad(integrand, -40, 40, limit=300)
    assert abs(entropy_fisher_1d(mix)[0][0] - ref) < 1e-9 + err


def test_fisher_closed_form_scaled_gaussian():
    nu = GaussianMixture1D([1.0], [0.0], [2.0])
    assert abs(entropy_fisher_1d(nu)[1][0] - FISHER_SIGMA2) < 1e-11


def test_fisher_mixture_against_scipy_quad():
    mix = mixtures()[3]

    def integrand(x):
        # (d/dx log p + x)^2 against nu, written through the pdf derivative
        z = (x - mix.means) / mix.stds
        comp = mix.weights * np.exp(-0.5 * z * z) / (mix.stds * math.sqrt(2 * math.pi))
        p = comp.sum()
        dp = (comp * (-z / mix.stds)).sum()
        return (dp / p + x) ** 2 * p

    ref, err = integrate.quad(integrand, -30, 30, limit=300)
    assert abs(entropy_fisher_1d(mix)[1][0] - ref) < 1e-8 + err


# The ids of the two tests below name the term an integral computes by the
# one-term functionals that computed it before entropy_fisher_1d; the grid
# case of the first test was its second density, nu1
_TERM_IDS = ["entropy_rel_gauss_full", "fisher_rel_gauss_full"]


@pytest.mark.parametrize("term", [0, 1], ids=_TERM_IDS)
def test_grid_expectation_locates_each_point_once(monkeypatch, term):
    # the integrands read logpdf or score, then pdf, and so located every
    # point twice; entropy_fisher_1d runs the entropy integral (term 0),
    # then the Fisher one (term 1)
    nu = _pl_u_density(_pl_exponents(_SIN_BUMP, 0.5)[0])
    assert isinstance(nu, GridDensity1D) and nu.nodes.size == 4097
    evals, calls, inside = [], [], [False]
    quad, search = density1d.adaptive_quad, np.searchsorted

    def capture(g, breakpoints, **kw):
        evals.append([])
        calls.append([])

        def counted_g(x):
            evals[-1].append(np.size(x))
            inside[0] = True
            try:
                return g(x)
            finally:
                inside[0] = False
        return quad(counted_g, breakpoints, **kw)

    def counted(a, v, *args, **kw):
        if inside[0]:
            calls[-1].append(np.size(v))
        return search(a, v, *args, **kw)

    monkeypatch.setattr(density1d, "adaptive_quad", capture)
    monkeypatch.setattr(np, "searchsorted", counted)
    entropy_fisher_1d(nu)
    assert len(evals) == 2
    assert evals[term] and calls[term] == evals[term]


# (H, H_err, I, I_err) of the first mixture of each K = 1-6 in
# test_information_rows_keep_the_bits_of_the_one_mixture_functionals, as
# the one-mixture functionals gave them: the closed forms for K = 1, one
# adaptive_quad call per term otherwise
_ONE_MIXTURE_BITS = [
    ("0x1.51b904edd7d0bp+13", "0x1.fb1909a0d7125p-39",
     "0x1.51dcdb0e44527p+14", "0x1.fae34895667bap-38"),
    ("0x1.125604262c3dcp+14", "0x1.ad747d25b48adp-28",
     "0x1.1b4d2bfcc51b2p+15", "0x1.b0dc7c0f2ec0fp-27"),
    ("0x1.81aec09be7806p+8", "0x1.afc08d744b4bcp-34",
     "0x1.843fa68a1a88bp+9", "0x1.b4119907e6fefp-33"),
    ("0x1.92bf821abd35ap+7", "0x1.760a25bb79c4ep-36",
     "0x1.a92103f19057cp+8", "0x1.5515bbbba5972p-35"),
    ("0x1.1e2b96ff76be2p+6", "0x1.55d792c6b1eddp-37",
     "0x1.ed76d790b8780p+10", "0x1.4da668d652260p-35"),
    ("0x1.c0a34e29aac98p+15", "0x1.1094d2ebb94a7p-24",
     "0x1.35dafe35ead3fp+17", "0x1.1f2883dc6bb37p-23")]


def test_information_rows_keep_the_bits_of_the_one_mixture_functionals():
    # K = 1-6, stds log-uniform on [1e-3, 1e3], means U(-30, 30): each row's
    # (H, H_err, I, I_err) is that of its own mixture alone, batched with
    # the others (padded to K = 6) and in shuffled order, and the first
    # mixture of each K keeps the bits _ONE_MIXTURE_BITS records
    rng = np.random.default_rng(20261020)
    mixes = []
    for k in [1, 2, 3, 4, 5, 6] * 4:
        w = rng.uniform(0.05, 1.0, k)
        mixes.append(GaussianMixture1D(
            w / w.sum(), rng.uniform(-30.0, 30.0, k),
            np.exp(rng.uniform(math.log(1e-3), math.log(1e3), k))))
    ref = np.array([density1d._information_rows(
        mix.weights[None], mix.means[None], mix.stds[None])[:4, 0]
        for mix in mixes])
    assert np.array_equal(ref[:6], [[float.fromhex(x) for x in row]
                                    for row in _ONE_MIXTURE_BITS])
    assert np.array_equal(density1d._information_rows(
        *ProductFunction(mixes).factor_rows)[:4].T, ref)
    order = rng.permutation(len(mixes))
    got = density1d._information_rows(
        *ProductFunction([mixes[i] for i in order]).factor_rows)
    assert np.array_equal(got[:4].T, ref[order])


@pytest.mark.parametrize("factors, target, message", [
    (3, 4, "did not converge in the Fisher information of factor 1: "),
    (3, 2, "did not converge in the entropy of factor 2: "),
    (1, 1, "did not converge in the Fisher information: "),
    (4, 7, "did not converge in the Fisher information of factor 3: ")])
def test_information_rows_name_the_term_and_factor_that_fail(
        monkeypatch, factors, target, message):
    # a jump at an irrational point, added to one of the 2F integrands, keeps
    # that row from settling within 24 panels: the error names its term and
    # factor, not the row index of the kernel's integrals, and carries the
    # partial result. target is term * F + factor in the product's
    # numbering; the kernel integrates only the factors of two or more
    # components (one or two single Gaussians come first here), all their
    # entropies first, so it sees the target as row term * len(mixed) +
    # mixed.index(factor)
    rows = ProductFunction(mixtures()[4 - factors:]).factor_rows
    term, factor = divmod(target, factors)
    mixed = [i for i, w in enumerate(rows[0]) if np.count_nonzero(w) > 1]
    row_of_target = term * len(mixed) + mixed.index(factor)
    real = density1d.adaptive_quad_rows

    def rough(f, bp, **kwargs):
        def g(x, row):
            jump = (row[:, None] == row_of_target) & (x > math.sqrt(2.0))
            return f(x, row) + jump
        return real(g, bp, **kwargs)

    monkeypatch.setattr(density1d, "adaptive_quad_rows", rough)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 24)
    with pytest.raises(EvaluationError) as info:
        density1d._information_rows(*rows)
    assert message in str(info.value) and "row" not in str(info.value)
    assert info.value.error > 0.0 and info.value.value is not None


def test_integrated_rows_keep_their_bits_beside_gaussian_rows():
    # the factors of K = 1, 2 and 4 of test_deficits' product (the CI's
    # prod3.json): the single Gaussian takes the closed forms and the other
    # two rows give the same bits with and without it in the batch
    factors = [GaussianMixture1D([1.0], [0.3], [1e-3]),
               GaussianMixture1D([0.4, 0.6], [-1.0, 2.0], [0.5, 1.5]),
               GaussianMixture1D([0.1, 0.2, 0.3, 0.4], [-3.0, -1.0, 0.5, 4.0],
                                 [0.2, 1.0, 2.0, 0.7])]
    both = density1d._information_rows(*ProductFunction(factors).factor_rows)
    alone = density1d._information_rows(
        *ProductFunction(factors[1:]).factor_rows)
    assert np.array_equal(both[:, 1:], alone)


def _mpmath_gaussian_information(m, s):
    """H, I and delta_LS of N(m, s^2) against gamma to 40 digits."""
    with mpmath.workdps(40):
        m, s = mpmath.mpf(float(m)), mpmath.mpf(float(s))
        h = (m * m + s * s - 1) / 2 - mpmath.log(s)
        fi = m * m + s * s - 2 + 1 / (s * s)
        return h, fi, fi / 2 - h


def _misses(nu):
    """(|miss|, error) of H, I and delta_LS of the single Gaussian nu
    against 40-digit closed forms."""
    exact = _mpmath_gaussian_information(nu.means[0], nu.stds[0])
    got = [*entropy_fisher_1d(nu), lsi_deficit(nu)]
    with mpmath.workdps(40):
        return [(float(abs(mpmath.mpf(value) - x)), err)
                for (value, err), x in zip(got, exact)]


def test_single_gaussian_information_covers_mpmath():
    # 2,000 seeded N(m, s^2), m uniform on (-30, 30) and s log-uniform on
    # [1e-6, 1e6]: H, I and delta_LS (lsi_deficit, formed from the closed
    # forms directly, so the m^2 terms do not cancel) each within its own
    # error of 40-digit closed forms, with no slack. The worst miss here is
    # 0.64 of its error (I). density1d._CLOSED_ROUNDING was sized on
    # 100,000 such pairs (default_rng(20261020)), where the worst was 0.66.
    rng = np.random.default_rng(37)
    for m, s in zip(rng.uniform(-30.0, 30.0, 2000),
                    np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 2000))):
        for miss, err in _misses(GaussianMixture1D([1.0], [m], [s])):
            assert miss <= err, (m, s)


@pytest.mark.parametrize("s", [1e-3, 1e-6, 1e-12])
def test_narrow_gaussian_errors_are_tight(s):
    # the quadrature charged these 1e-15 |f| at +-10, far outside the
    # Gaussian's own tails: at s = 1e-6 an entropy error of 0.1 on 13.4.
    # The closed forms' H and I errors cover their miss against 40-digit
    # values and are within 16 times it; where a lucky rounding makes the
    # miss smaller than one ulp of the value, within 16 ulps (here they
    # are 3.5 to 10.6 times the miss)
    nu = GaussianMixture1D([1.0], [0.5], [s])
    for (miss, err), (value, _) in zip(_misses(nu)[:2], entropy_fisher_1d(nu)):
        assert miss <= err <= 16.0 * max(miss, np.spacing(value))


@pytest.mark.parametrize("term", [0, 1],
                         ids=[f"nu1-{name}" for name in _TERM_IDS])
def test_expectation_takes_its_interval_once(monkeypatch, term):
    # the breakpoints and the tail edges of an _expect integral read one
    # interval; a grid's costs two quantile inversions. A grid's entropy
    # (term 0) and Fisher information (term 1) are two such integrals, and
    # entropy_fisher_1d reads no interval outside them. (A mixture's take
    # _mixture_span, in the row kernel.)
    nu = _pl_u_density(_pl_exponents(_SIN_BUMP, 0.5)[0])
    integrals, outside, current = [], [], [None]
    expect, interval = density1d._expect, density1d._measure_interval

    def counted_expect(*args, **kw):
        current[0] = []
        integrals.append(current[0])
        try:
            return expect(*args, **kw)
        finally:
            current[0] = None

    def counted(nu):
        (outside if current[0] is None else current[0]).append(nu)
        return interval(nu)

    monkeypatch.setattr(density1d, "_expect", counted_expect)
    monkeypatch.setattr(density1d, "_measure_interval", counted)
    entropy_fisher_1d(nu)
    assert len(integrals) == 2 and not outside
    assert integrals[term] == [nu]


def _sin2x_grid41():
    # the CI's 41-node exp(sin 2x - x^2 / 2) grid, cells 0.5 wide
    x = np.linspace(-10.0, 10.0, 41)
    return GridDensity1D(x, np.exp(np.sin(2.0 * x) - 0.5 * x * x))


def test_entropy_fisher_1d_keeps_the_bits_of_a_grid_and_of_gamma():
    # one _expect integral per term on a grid, as the one-term functionals
    # gave them; gamma's log-ratio and score gap are exact zeros, and so
    # are both terms and their errors
    got = entropy_fisher_1d(_sin2x_grid41())
    assert [x.hex() for term in got for x in term] == [
        "0x1.76ee6a35ed7f0p-3", "0x1.0b16d7f2003bfp-49",
        "0x1.ca78ea75938f6p+0", "0x1.6908a69032600p-48"]
    assert entropy_fisher_1d(GAUSS) == ((0.0, 0.0), (0.0, 0.0))


@pytest.mark.parametrize("density", [GAUSS, *mixtures(),
                                     _pl_u_density(_pl_exponents(_SIN_BUMP,
                                                                 0.5)[0])])
def test_pdf_pairs_match_separate_calls(density):
    # the entropy integrand exponentiates logpdf, with pdf's bits; gamma
    # and a grid pair pdf with their score for the Fisher integral
    xs = np.concatenate([[-40.0, -9.0], np.linspace(-6.0, 7.0, 2001),
                         [9.0, 40.0]])
    assert np.array_equal(density.pdf(xs), np.exp(density.logpdf(xs)))
    if not isinstance(density, GaussianMixture1D):
        assert np.array_equal(density._score_pdf(xs)[1], density.pdf(xs))


# ---------------------------------------------------------------------------
# gridded densities


def _gaussian_grid(n=1501, lo=-9.0, hi=9.0, mean=0.3, std=1.1):
    xs = np.linspace(lo, hi, n)
    return xs, stats.norm.pdf(xs, loc=mean, scale=std)


def test_grid_density_matches_reference():
    xs, vals = _gaussian_grid()
    d = GridDensity1D(xs, vals)
    probe = np.linspace(-4, 4, 41)
    assert np.allclose(d.pdf(probe), stats.norm.pdf(probe, 0.3, 1.1),
                       rtol=1e-5, atol=1e-8)
    assert np.allclose(d.cdf(probe), stats.norm.cdf(probe, 0.3, 1.1),
                       atol=1e-6)


def test_grid_density_quantile_roundtrip():
    xs, vals = _gaussian_grid()
    d = GridDensity1D(xs, vals)
    for p in (1e-6, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6):
        assert abs(d.cdf(d.quantile(p)) - p) < 1e-8


def test_grid_density_validation():
    with pytest.raises(DomainError):
        GridDensity1D([0.0, 1.0, 0.5], [0.1, 0.2, 0.1])  # x not increasing
    with pytest.raises(DomainError):
        GridDensity1D([0.0, 1.0], [0.1, -0.2])


def _two_bump_grid():
    xs = np.linspace(-6.0, 6.0, 301)
    return xs, (0.4 * stats.norm.pdf(xs, -1.5, 0.6)
                + 0.6 * stats.norm.pdf(xs, 1.2, 0.9))


@pytest.mark.parametrize("grid", [_gaussian_grid, _two_bump_grid],
                         ids=["gauss", "two-bump"])
def test_grid_density_piece_boundaries(grid):
    d = GridDensity1D(*grid())
    n = d.nodes
    log_v = np.log(d.values)
    # each tail meets its end node in value and log-slope
    for node, outer, lv, slope in (
            (n[0], np.nextafter(n[0], -np.inf), log_v[0],
             (log_v[1] - log_v[0]) / (n[1] - n[0])),
            (n[-1], np.nextafter(n[-1], np.inf), log_v[-1],
             (log_v[-1] - log_v[-2]) / (n[-1] - n[-2]))):
        at = np.array([node, outer])
        assert np.all(np.abs(d.logpdf(at) - lv) <= 1e-12 * (1.0 + abs(lv)))
        assert np.all(np.abs(d._score_pdf(at)[0] - slope)
                      <= 1e-12 * (1.0 + abs(slope)))
    span = n[-1] - n[0]
    deep = np.array([n[0] - 20.0 * span, n[0] - 20.0, n[-1] + 20.0,
                     n[-1] + 20.0 * span])
    x = np.concatenate([n, np.nextafter(n, -np.inf), np.nextafter(n, np.inf),
                        deep])
    eps = np.finfo(float).eps
    assert np.all(np.abs(d.cdf(x) + d.survival(x) - 1.0) <= 4.0 * eps)
    assert np.array_equal(d.pdf(x), np.exp(d.logpdf(x)))
    back = pickle.loads(pickle.dumps(d))
    for method in ("logpdf", "pdf", "cdf", "survival"):
        assert np.array_equal(getattr(back, method)(x), getattr(d, method)(x))
    p = np.array([1e-300, 1e-20, 0.3, 0.7, 1.0 - 1e-16])
    for method in ("quantile", "quantile_sf"):
        assert np.array_equal(getattr(back, method)(p), getattr(d, method)(p))


def test_load_grid_csv_roundtrip(tmp_path):
    xs, vals = _gaussian_grid(n=801)
    path = tmp_path / "grid.csv"
    with open(path, "w") as fh:
        fh.write("x,density\n")
        for x, v in zip(xs, vals):
            fh.write(f"{x},{v}\n")
    d = load_grid_csv(path)
    assert abs(d.cdf(0.3) - 0.5) < 1e-5


def test_load_grid_csv_error_diagnostics(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,density\n0.0,0.1\n1.0,oops\n")
    with pytest.raises(ParseError, match="line 3"):
        load_grid_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(ParseError, match="header"):
        load_grid_csv(path)


@pytest.mark.parametrize("body,match", [
    ("0.0,0.1\n1.0,0.2,0.3\n2.0,0.1\n", "line 3: expected 2 fields, got 3"),
    ("0.0,0.1\n1.0,inf\n2.0,0.1\n", "line 3: non-finite value"),
    ("0.0,0.1\n", "need at least 2 data rows"),
    ("0.0,0.1\n1.0,0.2\n1.0,0.1\n", "strictly increasing"),
])
def test_load_grid_csv_malformed_rows(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("x,density\n" + body)
    with pytest.raises(ParseError, match=match) as exc:
        load_grid_csv(path)
    assert str(exc.value).startswith(f"{path}: ")
    if match == "strictly increasing":
        # the grid's own check, re-raised with the file name
        assert isinstance(exc.value.__cause__, DomainError)


def test_load_grid_csv_skips_blank_lines(tmp_path):
    rows = "-1.0,0.2\n0.0,0.4\n1.0,0.2\n"
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text("x,density\n" + rows)
    blank.write_text("x,density\n\n" + rows.replace("\n", "\n   \n", 1))
    a, b = load_grid_csv(plain), load_grid_csv(blank)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# probability guards and the deep tail


def _three_densities():
    xs, vals = _gaussian_grid()
    return [GAUSS, mixtures()[2], GridDensity1D(xs, vals)]


@pytest.mark.parametrize("d", _three_densities(),
                         ids=["gauss", "mixture", "grid"])
@pytest.mark.parametrize("method", ["quantile", "quantile_sf"])
@pytest.mark.parametrize("p", [0.0, 1.0, math.nan])
def test_quantiles_reject_probabilities_outside_open_interval(d, method, p):
    with pytest.raises(DomainError, match="strictly in"):
        getattr(d, method)(p)
    with pytest.raises(DomainError, match="strictly in"):
        getattr(d, method)(np.array([0.5, p]))


@pytest.mark.parametrize("d", _three_densities(),
                         ids=["gauss", "mixture", "grid"])
@pytest.mark.parametrize("method", ["quantile", "quantile_sf"])
def test_scalar_quantile_matches_array_quantile(d, method):
    q = getattr(d, method)
    assert isinstance(q(0.25), float)
    assert q(0.25) == q(np.array([0.25]))[0]


@pytest.mark.parametrize("lam", [0.3, 0.9])
def test_grid_right_tail_reads_survival_from_the_right(lam):
    # the PL u of the sin bump; summed from the left only, 1 - F rounded to
    # 0 right of x = 8 and quantile_sf(s) raised for s between the right
    # tail's mass and 1.1e-16
    u = _pl_u_density(_pl_exponents(_SIN_BUMP, lam)[0])
    s = np.logspace(-300.0, -1.0, 400)
    x = u.quantile_sf(s)
    assert np.all(np.isfinite(x))
    assert np.all(np.diff(x) < 0.0)
    assert np.all(np.abs(u.survival(x) - s) <= 1e-11 * s)


@pytest.mark.parametrize("mean", [2.0, -2.0], ids=["right", "left"])
def test_grid_with_the_median_in_a_tail_inverts_both_sides(mean):
    # each tail is read from its own end even when it holds more than half
    # the mass; the masses past it are complements
    xs = np.linspace(-1.75, 1.75, 50) - 0.5 * mean
    d = GridDensity1D(xs, stats.norm.pdf(xs, mean, 1.0))
    p = np.logspace(-300.0, math.log10(0.999999), 500)
    for quantile, mass, sign in ((d.quantile, d.cdf, 1.0),
                                 (d.quantile_sf, d.survival, -1.0)):
        x = quantile(p)
        assert np.all(sign * np.diff(x) > 0.0)
        assert np.all(np.abs(mass(x) - p) <= 1e-11 * p)


@pytest.mark.parametrize("p", [1e-300, 1e-200, 1e-20])
def test_grid_deep_tail_quantiles_invert_cdf_and_survival(p):
    d = _three_densities()[2]
    for quantile, mass in ((d.quantile, d.cdf), (d.quantile_sf, d.survival)):
        back = float(mass(np.array([quantile(p)]))[0])
        assert abs(math.log(back) - math.log(p)) <= 1e-12 * abs(math.log(p))
