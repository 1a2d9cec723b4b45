"""One-dimensional density layer: closed forms, scipy oracles, invariants."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats
from scipy.special import ndtri

from bfstab import (ConditioningError, DomainError, GaussianMixture1D,
                    GridDensity1D, ParseError, StandardGaussian,
                    entropy_rel_gauss_full, fisher_rel_gauss_full,
                    load_grid_csv)
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
    h = 1e-6
    mix = mixtures()[3]
    xs = np.linspace(-4, 4, 17)
    num = (mix.logpdf(xs + h) - mix.logpdf(xs - h)) / (2 * h)
    assert np.allclose(mix.score(xs), num, atol=1e-7)
    # far out every component density underflows; the score is still the
    # widest component's, -(x - 0) / 1
    assert np.isclose(mix.score(np.array([60.0]))[0], -60.0)
    # a grid's score is its piecewise log-slope; probe between nodes and in
    # both Gaussian tails
    xs_g, vals = _gaussian_grid(n=61, lo=-3.0, hi=3.0)
    grid = GridDensity1D(xs_g, vals)
    probe = np.concatenate([[-4.5, -3.2], 0.5 * (xs_g[:-1] + xs_g[1:]), [3.3, 5.0]])
    num = (grid.logpdf(probe + h) - grid.logpdf(probe - h)) / (2 * h)
    assert np.allclose(grid.score(probe), num, atol=1e-6)


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
    assert abs(entropy_rel_gauss_full(nu).value - ENTROPY_SIGMA2) < 1e-12


def test_entropy_closed_form_shifted():
    # H(N(a, s^2) | gamma) = (a^2 + s^2 - 1 - log s^2) / 2
    for a, s in ((0.3, 1.0), (-1.0, 0.5), (2.0, 1.7)):
        nu = GaussianMixture1D([1.0], [a], [s])
        ref = 0.5 * (a * a + s * s - 1.0 - math.log(s * s))
        assert abs(entropy_rel_gauss_full(nu).value - ref) < 1e-11


def test_entropy_mixture_against_scipy_quad():
    mix = mixtures()[2]

    def integrand(x):
        return mix.pdf(x) * (mix.logpdf(x) - GAUSS.logpdf(x))

    ref, err = integrate.quad(integrand, -40, 40, limit=300)
    assert abs(entropy_rel_gauss_full(mix).value - ref) < 1e-9 + err


def test_fisher_closed_form_scaled_gaussian():
    nu = GaussianMixture1D([1.0], [0.0], [2.0])
    assert abs(fisher_rel_gauss_full(nu).value - FISHER_SIGMA2) < 1e-11


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
    assert abs(fisher_rel_gauss_full(mix).value - ref) < 1e-8 + err


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
        assert np.all(np.abs(d.score(at) - slope) <= 1e-12 * (1.0 + abs(slope)))
    span = n[-1] - n[0]
    deep = np.array([n[0] - 20.0 * span, n[0] - 20.0, n[-1] + 20.0,
                     n[-1] + 20.0 * span])
    x = np.concatenate([n, np.nextafter(n, -np.inf), np.nextafter(n, np.inf),
                        deep])
    eps = np.finfo(float).eps
    assert np.all(np.abs(d.cdf(x) + d.survival(x) - 1.0) <= 4.0 * eps)
    assert np.array_equal(d.pdf(x), np.exp(d.logpdf(x)))
    back = pickle.loads(pickle.dumps(d))
    for method in ("logpdf", "pdf", "score", "cdf", "survival"):
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
