"""Inequality verifiers: frozen constants, closed-form oracles, status bands."""

import decimal
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfstab import (CapabilityError, DeficitReport, DomainError,
                    EvaluationError, GFun,
                    GaussianMixture1D, GaussianMixtureND, PLTriple,
                    ProductFunction, entropy_fisher_1d,
                    lambda_limit_diagnostics, lsi_deficit,
                    pl_deficit_check, sup_convolution, verify_corollary,
                    verify_talagrand, verify_thm_main)
from bfstab import deficits, density1d, densitynd, quadrature, transport1d
from bfstab.cli import parse_g_spec
from bfstab.corpus import _PL_GS, _SIN_BUMP, _sin_bump, main_corpus
from bfstab.deficits import _corollary_axis

LSI_SIGMA2 = 0.3181471805599453   # fisher/2 - entropy at sigma = 2
TAL_SIGMA2 = 0.6137056388801092
MAIN_MARGIN_SIGMA2 = 0.1931471805599453
TAL_MARGIN_SIGMA2 = 0.4887056388801092


def scaled(s, a=0.0):
    return GaussianMixture1D([1.0], [a], [s])


def mix2d():
    return GaussianMixtureND(
        [0.4, 0.6], [[-0.5, 0.3], [1.0, -0.2]],
        [[[1.2, 0.3], [0.3, 0.8]], [[0.7, -0.1], [-0.1, 1.5]]])


# ---------------------------------------------------------------------------
# report status bands


def build_report(margin, err, lower_deficit=False):
    return DeficitReport.build(case_id="t", theorem="main",
                               deficit=margin, lower_bound=0.0, error=err,
                               tol=1e-6, method="m",
                               deficit_is_lower_bound=lower_deficit)


def test_status_pass_band():
    assert build_report(0.5, 1e-6).status == "pass"
    assert build_report(-1.9e-6, 1e-6).status == "pass"  # >= -(tol + err)


def test_status_inconclusive_band():
    assert build_report(-2.5e-6, 1e-6).status == "inconclusive"
    assert build_report(-3.9e-6, 1e-6).status == "inconclusive"


def test_status_fail_band():
    assert build_report(-4.1e-6, 1e-6).status == "fail"


def test_force_inconclusive_never_upgrades_fail():
    # a deficit known only from below turns a shortfall into inconclusive
    # and leaves the pass and inconclusive bands as they are
    assert build_report(-4.1e-6, 1e-6, lower_deficit=True).status == \
        "inconclusive"
    assert build_report(-3.9e-6, 1e-6, lower_deficit=True).status == \
        "inconclusive"
    assert build_report(0.5, 1e-6, lower_deficit=True).status == "pass"
    assert build_report(-1.9e-6, 1e-6, lower_deficit=True).status == "pass"


def test_report_json_field_order():
    rep = build_report(0.1, 1e-9)
    assert list(rep.to_json_dict()) == [
        "case_id", "theorem", "deficit", "lower_bound", "margin",
        "error_estimate", "status", "method"]


# ---------------------------------------------------------------------------
# log-Sobolev deficit


def test_lsi_deficit_sigma2_frozen():
    val, err = lsi_deficit(scaled(2.0))
    assert abs(val - LSI_SIGMA2) < 1e-11 + err


def test_lsi_deficit_tilts_vanish():
    for a in (-2.0, 0.5, 1.5):
        val, err = lsi_deficit(scaled(1.0, a))
        assert abs(val) < 1e-10 + err


def test_lsi_deficit_additive_over_products():
    h = scaled(2.0)
    val2, err2 = lsi_deficit(ProductFunction([h, h]))
    assert abs(val2 - 2 * LSI_SIGMA2) < 1e-9 + err2
    val3, err3 = lsi_deficit(ProductFunction([h, h, h]))
    assert abs(val3 - 3 * LSI_SIGMA2) < 1e-9 + err3


def test_lsi_deficit_nd_gaussian():
    nu = GaussianMixtureND([1.0], [[0.0, 0.0]], [4.0 * np.eye(2)])
    val, err = lsi_deficit(nu)
    assert abs(val - 2 * LSI_SIGMA2) < 1e-9 + err


def test_product_deficit_is_one_quadrature_call_with_per_factor_bits(
        monkeypatch):
    # factors of K = 1, 2 and 4, one with a std of 1e-3: the deficit and its
    # error keep the bits of the sum of the factors' own deficits, from one
    # adaptive_quad_rows call for the integrals of the K >= 2 factors; the
    # single Gaussian takes its closed form, and alone it takes no call. A
    # K >= 2 factor's own deficit is 1/2 I - H of entropy_fisher_1d
    factors = [GaussianMixture1D([1.0], [0.3], [1e-3]),
               GaussianMixture1D([0.4, 0.6], [-1.0, 2.0], [0.5, 1.5]),
               GaussianMixture1D([0.1, 0.2, 0.3, 0.4], [-3.0, -1.0, 0.5, 4.0],
                                 [0.2, 1.0, 2.0, 0.7])]
    calls = []
    original = quadrature.adaptive_quad_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "adaptive_quad_rows", counted)
    monkeypatch.setattr(density1d, "adaptive_quad_rows", counted)
    parts = []
    for h in factors:
        calls.clear()
        parts.append(lsi_deficit(h))
        assert len(calls) == (h.weights.size > 1)
        if h.weights.size > 1:
            (e, e_err), (fi, fi_err) = entropy_fisher_1d(h)
            assert parts[-1] == (0.5 * fi - e, 0.5 * fi_err + e_err)
    for step in (1, -1):
        calls.clear()
        assert lsi_deficit(ProductFunction(factors[::step])) == (
            sum(v for v, _ in parts[::step]), sum(e for _, e in parts[::step]))
        assert len(calls) == 1


def test_gaussian_product_takes_no_quadrature(monkeypatch):
    # a product of single Gaussians: its information terms and every slice
    # distance are closed forms, so neither lsi_deficit nor
    # verify_corollary makes an adaptive_quad_rows call
    calls = []
    original = quadrature.adaptive_quad_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (quadrature, density1d, transport1d):
        monkeypatch.setattr(module, "adaptive_quad_rows", counted)
    nu = ProductFunction([scaled(2.0), scaled(0.5, 1.0), scaled(1e-3, 0.3)])
    value, err = lsi_deficit(nu)
    rep = verify_corollary(nu)
    assert calls == [] and rep.status == "pass"
    assert rep.deficit == value and 0.0 < err < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lsi_deficit_evaluates_each_node_set_once(monkeypatch, n):
    # entropy and Fisher information share one component pass per node set:
    # per anchor component, both Gauss-Hermite orders for n <= 3, and one
    # Sobol set per replicate (8 of them) above
    k = 3
    rng = np.random.default_rng(n)
    nu = GaussianMixtureND(np.full(k, 1.0 / k), rng.uniform(-1.0, 1.0, (k, n)),
                           np.stack([np.eye(n) * s for s in (0.5, 1.0, 2.0)]))
    calls = []
    original = densitynd._component_pass

    def counted(nu, x, *args):
        calls.append(x.shape[1])
        return original(nu, x, *args)

    monkeypatch.setattr(densitynd, "_component_pass", counted)
    lsi_deficit(nu, mc_budget=4096)
    assert len(calls) == (2 if n <= 3 else 8) * k


@pytest.mark.parametrize("sigma", [1e-3, 0.05, 0.5, 2.0, 3.5, 4.0, 10.0,
                                   100.0, 1e3])
def test_lsi_deficit_gaussian_closed_form_across_scales(sigma):
    # delta_LS(N(0, s^2)) = (s^2 - 1)^2 / (2 s^2) - (s^2 - 1 - ln s^2) / 2
    s2 = sigma * sigma
    ref = (s2 - 1.0) ** 2 / (2.0 * s2) - 0.5 * (s2 - 1.0 - math.log(s2))
    val, err = lsi_deficit(scaled(sigma))
    assert abs(val - ref) <= err + 1e-12 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# main theorem


def test_main_theorem_sigma2_margin():
    rep = verify_thm_main(scaled(2.0), case_id="sigma2")
    assert rep.status == "pass"
    assert abs(rep.deficit - LSI_SIGMA2) < 1e-6
    assert abs(rep.lower_bound - 0.125) < 1e-7
    assert abs(rep.margin - MAIN_MARGIN_SIGMA2) < 1e-6


def test_main_theorem_equality_case():
    rep = verify_thm_main(scaled(1.0, 1.3))
    assert rep.status == "pass"
    assert abs(rep.deficit) < 1e-7
    assert rep.lower_bound < 1e-12


def test_main_theorem_mixture_2d():
    rep = verify_thm_main(mix2d())
    assert rep.status == "pass"
    assert rep.margin >= -(1e-6 + rep.error_estimate)
    assert "dn=" in rep.method


@pytest.mark.parametrize("nu, terms", [
    (GaussianMixture1D([0.4, 0.6], [-1.0, 2.0], [0.5, 1.5]),
     "1-D quadrature"),
    (ProductFunction([scaled(2.0), GaussianMixture1D([0.4, 0.6], [-1.0, 2.0],
                                                     [0.5, 1.5])]),
     "per-factor 1-D quadrature"),
    (GaussianMixtureND([1.0], [[0.0, 0.0]], [4.0 * np.eye(2)]),
     "closed-form Gaussian"),
    (mix2d(), "whitened-GH/QMC"),
    (scaled(2.0), "closed-form Gaussian"),
    (ProductFunction([scaled(2.0), scaled(0.5, 1.0)]),
     "per-factor closed-form Gaussian")])
def test_main_theorem_method_names_the_information_route(nu, terms):
    # a single Gaussian, and a product of them, take the closed forms; a
    # mixture, or a product with one mixture factor, is integrated
    assert verify_thm_main(nu).method.startswith(f"entropy+fisher {terms}; ")


def test_main_theorem_mixture_4d():
    nu = GaussianMixtureND(
        [0.3, 0.7], [[0.0, 1.0, -0.5, 0.2], [0.4, -0.3, 0.0, 1.1]],
        [np.diag([1.0, 2.0, 0.5, 1.5]), np.eye(4)])
    rep = verify_thm_main(nu, mc_budget=1024)
    assert rep.status == "pass", rep.method
    assert rep.lower_bound > 0.0


# ---------------------------------------------------------------------------
# corollary


def test_corollary_product_exact():
    h = scaled(2.0)
    rep = verify_corollary(ProductFunction([h, h]).as_mixture())
    assert rep.status == "pass"
    # per-axis slices of a product do not depend on the pinned point
    assert abs(rep.lower_bound - 0.25) / 0.25 < 1e-6
    assert abs(rep.deficit - 2 * LSI_SIGMA2) < 1e-6


def test_corollary_mixture_2d():
    rep = verify_corollary(mix2d(), case_id="m2")
    assert rep.status == "pass"
    assert "mass-weighted lower=" in rep.method
    assert "literal" not in rep.method


# The per-axis weighted terms of every corollary-corpus case, then of the
# five corollary-nd benchmark cases at their default seed: 3-D mixtures and
# products, a 2-D product, and two 4-D Monte Carlo cases.
_COROLLARY_TERMS = (
    (0.0563900416862925, 0.06084888612281221),
    (0.024992037266610357, 0.00022384005078886844),
    (0.10789605245466251, 0.1020016406868703),
    (0.029402018590190215, 0.07220091869600355),
    (0.08661703559814307, 0.1088991482854682),
    (0.027134786708972933, 0.06651699590570932),
    (0.1803054180483779, 0.12678705092042547),
    (0.09129535038534448, 0.06692451527824197),
    (0.16838666067129063, 0.14682270532124653),
    (0.07618793189130649, 0.014768733257428572),
    (0.07012407264174675, 0.11089067522486298),
    (0.07846192262196257, 0.03899267424880176),
    (0.08136824093430098, 0.08365324769106419),
    (0.09069684231863001, 0.15986628081912352),
    (0.08712078553903886, 0.17182289429699688),
    (0.020447431711862238, 0.020447431711862238),
    (0.024166767434878902, 0.024166767434878902),
    (0.0902735725646245, 0.0902735725646245),
    (0.015721093993744297, 0.0459363875727012, 0.10036597843977732),
    (0.05755204631695504, 0.04594617856960709, 0.05543146131971255),
    (0.1913033058892114, 0.006485569949645642, 0.19592558952983616),
    (0.0006053433528268218, 0.00033556214900648757, 0.008452366393183721),
    (0.014670793338997512, 0.056764865751565405, 0.0815485723115477),
    (0.1411043644759078, 0.07883255867850476, 0.11164736159534139),
    (0.04117621259706171, 0.06880994988130731, 0.05412405082106967),
    (0.14334515787580812, 0.2063176623197963, 0.013954810020744493),
    (0.13523493366312062, 0.09992744980998144, 0.11100784987179227),
    (0.04485547155362394, 0.04273540946256886, 0.18019290966832102),
    (0.04701034389314769, 0.06454701814684215, 0.04154512033114497),
    (0.060006911803381684, 0.1150907622694041, 0.05715037258526626),
    (0.09759347220390505, 0.09759347220390505, 0.09759347220390505),
    (0.10871819294989775, 0.10871819294989775, 0.10871819294989775),
    (0.1913033058892114, 0.006485569949645642, 0.19592558952983616),
    (0.10871819294989775, 0.10871819294989775, 0.10871819294989775),
    (0.020447431711862238, 0.020447431711862238),
    (0.10455151703398394, 0.004366535717877409, 0.07490439387098942,
     0.10156901851921721),
    (0.23007235387603575, 0.23007235387603575, 0.23007235387603575,
     0.23007235387603575),
)


@pytest.mark.parametrize("values", [
    *_COROLLARY_TERMS,
    # signed zeros, magnitudes under the printed 1e-7, mixed widths
    (-0.0,), (0.0, -0.0), (1e-8,), (5e-8, 0.3), (1e-7, 0.5, 0.25),
    (1.5, -2.25, 100.125), (1234.5678, 0.1), (0.99999995,),
    (0.12345675, 3.0), (1e-5, -0.0), (-1.23456789e-5, 2e-5),
    # scientific notation: past 1e8, under 1e-4, a span over 1000,
    # three-digit exponents, and a subnormal left to NumPy
    (1e8,), (99999999.0, 1.0), (0.001, 1.0001), (1e-300, 1.0),
    (5e-324, 1e-20),
    # lines that wrap at 75 columns, two of them filled to the last column
    tuple(np.linspace(-1.0, 1.0, 23)), tuple(10.0 ** np.arange(-9, 9)),
    (0.0,) * 40, (0.25,) * 40,
])
def test_corollary_terms_text_is_numpys(values):
    values = np.array(values)
    assert (deficits._terms_text(values)
            == np.array2string(values, precision=7, separator=","))


def test_corollary_wide_gaussian_warns_nothing():
    # N(0, 400 I): every slice is N(0, 400), at distance 0.95 from gamma
    nu = GaussianMixtureND([1.0], [[0.0, 0.0]], [400.0 * np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_corollary(nu)
    assert rep.status == "pass"
    assert abs(rep.lower_bound - 0.9025) <= rep.error_estimate + 1e-12


def test_corollary_error_covers_higher_gauss_hermite_orders():
    # the outer rule's error is |w_64 - w_48| per axis plus the inner and
    # deficit errors; against orders 96 to 256 the per-axis gap alone
    # under-reports (11.6x on main-2d-07, axis 0), but the total covers
    # (0.44 and 0.11 of it here)
    cases = dict(main_corpus())
    for case_id in ("main-2d-07", "main-2d-12"):
        nu = cases[case_id]
        rep = verify_corollary(nu)
        assert rep.status == "pass"
        oracle_gap = 0.0
        sets = list(densitynd._node_sets(2, 1, nu.weights,
                                         (64, 96, 128, 192, 256), 0, 0))
        for axis in range(nu.dim):
            w = _corollary_axis(nu, axis, sets)[0]
            oracle_gap += 0.5 * max(abs(w[0] - wo) for wo in w[1:])
        assert oracle_gap <= rep.error_estimate, case_id


def test_corollary_monte_carlo_gaussian_closed_form():
    # n = 4 takes the outer Monte Carlo path on two equal halves of N(m, C).
    # Every slice of N(m, C) along axis i is Gaussian with std s_i =
    # (C^-1)_ii^(-1/2), whatever the pinned point, so the bound is
    # 1/2 sum_i (|1 - s_i| / max(1, s_i))^2
    a = np.array([[1.2, 0.3, -0.4, 0.1], [0.0, 0.6, 0.5, -0.2],
                  [0.3, -0.1, 0.4, 0.7], [0.2, 0.8, 0.0, 1.5]])
    cov = a @ a.T + 0.05 * np.eye(4)
    mean = [0.3, -0.5, 1.0, 0.0]
    s = np.diag(np.linalg.inv(cov)) ** -0.5
    assert s.min() < 1.0 < s.max()
    d = np.abs(1.0 - s) / np.maximum(1.0, s)
    rep = verify_corollary(GaussianMixtureND([0.5, 0.5], [mean, mean],
                                             [cov, cov]), mc_budget=1024)
    assert rep.method.startswith("outer MC with standard error;")
    assert abs(rep.lower_bound - 0.5 * float(d @ d)) <= rep.error_estimate
    # every draw sees the same slices, so only the inner solve is left
    assert abs(rep.lower_bound - 0.5 * float(d @ d)) <= 1e-10
    assert rep.status == "pass"
    # the Gaussian itself takes one slice row per axis, and no node set
    one = verify_corollary(GaussianMixtureND([1.0], [mean], [cov]),
                           mc_budget=1024)
    assert one.method.startswith("one Gaussian slice per axis;")
    assert abs(one.lower_bound - 0.5 * float(d @ d)) <= one.error_estimate
    assert one.error_estimate < 1e-13 < rep.error_estimate
    assert one.status == "pass"


def test_corollary_monte_carlo_mixture_4d_passes():
    cov = np.array([[1.5, 0.4, 0.0, 0.2], [0.4, 0.8, -0.1, 0.0],
                    [0.0, -0.1, 0.6, 0.3], [0.2, 0.0, 0.3, 2.0]])
    nu = GaussianMixtureND(
        [0.35, 0.65], [[-1.0, 0.5, 0.0, 1.2], [0.8, -0.4, 0.6, -0.3]],
        [cov, np.diag([0.5, 1.5, 1.0, 0.7])])
    rep = verify_corollary(nu, mc_budget=1024)
    assert rep.method.startswith("outer MC with standard error;")
    assert rep.status == "pass", rep.method
    assert rep.lower_bound > 0.0


def mix4d():
    # the K = 2 mixture of test_corollary_monte_carlo_mixture_4d_passes
    cov = np.array([[1.5, 0.4, 0.0, 0.2], [0.4, 0.8, -0.1, 0.0],
                    [0.0, -0.1, 0.6, 0.3], [0.2, 0.0, 0.3, 2.0]])
    return GaussianMixtureND(
        [0.35, 0.65], [[-1.0, 0.5, 0.0, 1.2], [0.8, -0.4, 0.6, -0.3]],
        [cov, np.diag([0.5, 1.5, 1.0, 0.7])])


def test_corollary_monte_carlo_is_one_kernel_call_per_axis(monkeypatch):
    # the Sobol replicates are drawn once and shared by the axes; each axis
    # solves all 8 replicates' slices in one call: 1024 // 4 = 256 rows are
    # 32 per replicate, of which component k gets max(int(32 w_k), 16)
    nu = mix4d()
    rows = []
    original = deficits.gauss_distance_rows

    def counted(weights, *args, **kwargs):
        rows.append(weights.shape[0])
        return original(weights, *args, **kwargs)

    monkeypatch.setattr(deficits, "gauss_distance_rows", counted)
    rep = verify_corollary(nu, mc_budget=1024)
    assert rep.status == "pass"
    assert rows == [8 * (16 + 20)] * nu.dim


def test_corollary_monte_carlo_error_matches_replicate_spread():
    # across 10 seeds (spaced so no two share a Sobol engine seed) each
    # per-axis term spreads as far as its reported standard error says,
    # within a factor 3 either way
    nu = mix4d()
    terms, errs = [], []
    for seed in range(0, 100_000, 10_000):
        sets = list(densitynd._node_sets(4, 3, nu.weights, None, 32, seed))
        per_axis = [densitynd._combine(_corollary_axis(nu, axis, sets), 4)
                    for axis in range(nu.dim)]
        terms.append([value[0] for value, _ in per_axis])
        errs.append([se[0] for _, se in per_axis])
    ratio = np.std(terms, axis=0, ddof=1) / np.mean(errs, axis=0)
    assert np.all((ratio > 1.0 / 3.0) & (ratio < 3.0)), ratio


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_corollary_with_a_near_singular_component_ends_in_a_verdict(
        narrow_mixture, eps):
    # kink location on its slice rows once stalled where one end's
    # T' - 1 was at rounding level, and the corollary raised
    rep = verify_corollary(narrow_mixture(eps))
    assert rep.status == "pass", rep.method


def test_corollary_needs_two_dims():
    with pytest.raises(DomainError):
        verify_corollary(GaussianMixtureND([1.0], [[0.0]], [[[4.0]]]))
    with pytest.raises(DomainError, match="dimension at least 2"):
        verify_corollary(scaled(2.0))


def test_corollary_product_per_factor_matches_mixture_path():
    # main-2d-prod-1: two two-component factors, so the expanded mixture
    # has four components and its slices depend on the pinned point only
    # through their weights, which all reduce to the factor
    prod = dict(main_corpus())["main-2d-prod-1"]
    assert [f.weights.size for f in prod.factors] == [2, 2]
    per_factor = verify_corollary(prod)
    mixture = verify_corollary(prod.as_mixture())
    assert per_factor.method.startswith("per-factor slices (product);")
    assert mixture.method.startswith("outer GH 64/48")
    both = per_factor.error_estimate + mixture.error_estimate
    assert abs(per_factor.deficit - mixture.deficit) <= both
    assert abs(per_factor.lower_bound - mixture.lower_bound) <= both
    assert per_factor.status == mixture.status == "pass"


# ---------------------------------------------------------------------------
# Talagrand


def test_talagrand_1d_sigma2_frozen():
    rep = verify_talagrand(scaled(2.0))
    assert rep.status == "pass"
    assert abs(rep.deficit - TAL_SIGMA2) < 1e-9
    assert abs(rep.lower_bound - 0.125) < 1e-8
    assert abs(rep.margin - TAL_MARGIN_SIGMA2) < 1e-8
    assert "bregman-chain middle=0.306852819" in rep.method


def test_talagrand_product_tensorizes():
    h = scaled(2.0)
    rep = verify_talagrand(ProductFunction([h, h]))
    assert rep.status == "pass"
    assert abs(rep.deficit - 2 * TAL_SIGMA2) < 1e-8
    assert abs(rep.lower_bound - 0.125) < 1e-7


def test_talagrand_knothe_nd_mixture_passes_with_lower_bound_deficit():
    rep = verify_talagrand(mix2d())
    assert rep.status == "pass"
    assert "W2^2 upper bound=" in rep.method
    assert "deficit is a lower bound" in rep.method


def test_talagrand_mode_validation():
    # the measure's type picks the route; a 1-D measure stored as an n-D
    # mixture has none (its Gauss-Hermite entropy is far less accurate
    # than the 1-D quadrature) and is pointed at GaussianMixture1D
    weights, means, stds = [0.2, 0.5, 0.3], [-2.0, 0.0, 2.5], [0.5, 1.5, 0.2]
    as_nd = GaussianMixtureND(weights, np.array(means)[:, None],
                              (np.array(stds) ** 2)[:, None, None])
    with pytest.raises(DomainError, match="GaussianMixture1D"):
        verify_talagrand(as_nd)
    rep = verify_talagrand(GaussianMixture1D(weights, means, stds))
    assert rep.status == "pass"
    assert rep.error_estimate < 1e-9
    assert rep.method.startswith("Bregman integral 2B")
    with pytest.raises(DomainError, match="expects a 1-D density"):
        verify_talagrand((GFun.const(0.0), 0.5))


# ---------------------------------------------------------------------------
# sup-convolution


def quad_oracle(kappa, b, c0, lam):
    """Everything about the quadratic PL triple, from scratch."""
    s = 1.0 / (1.0 - lam)
    c = (1.0 - lam) / (2.0 * lam)
    tau_u = 1.0 + kappa * s
    a_val = math.exp(c0 * s + (b * s) ** 2 / (2.0 * tau_u)) / math.sqrt(tau_u)
    # h(z) = alpha + beta z - q/2 z^2
    denom = kappa + 2.0 * c
    alpha = c0 + b * b / (2.0 * denom)
    beta = 2.0 * b * c / denom
    q = 2.0 * c * kappa / denom
    b_val = math.exp(alpha + beta ** 2 / (2.0 * (1.0 + q))) / math.sqrt(1.0 + q)
    deficit = b_val * a_val ** (lam - 1.0) - 1.0
    dist = 1.0 - 1.0 / math.sqrt(tau_u)
    coeff = 0.5 * lam ** (1.0 + lam) * (1.0 - lam) ** (2.0 - lam)
    return a_val, b_val, deficit, coeff * dist * dist


def test_sup_convolution_closed_form_quadratic():
    kappa, b, c0, lam = 0.8, 0.4, -0.1, 0.35
    c = (1.0 - lam) / (2.0 * lam)
    g = GFun.quadratic(kappa, b, c0)
    zs = np.linspace(-4, 4, 9)
    denom = kappa + 2.0 * c
    ref = c0 - c * zs ** 2 + (b + 2.0 * c * zs) ** 2 / (2.0 * denom)
    assert np.allclose(sup_convolution(g, lam, zs), ref, atol=1e-14)


def test_sup_convolution_grid_matches_closed_form():
    kappa, b, c0, lam = 0.8, 0.4, -0.1, 0.35
    quad = GFun.quadratic(kappa, b, c0)
    generic = GFun.from_callable(lambda x: -0.5 * kappa * x * x + b * x + c0)
    zs = np.linspace(-3, 3, 25)
    assert np.allclose(sup_convolution(generic, lam, zs),
                       sup_convolution(quad, lam, zs), atol=1e-8)


@given(st.floats(-3.0, 3.0), st.floats(0.05, 0.95), st.floats(0.0, 2.0),
       st.floats(-1.0, 1.0))
@settings(max_examples=60)
def test_sup_convolution_dominates_input(z, lam, kappa, b):
    g = GFun.quadratic(kappa, b)
    assert sup_convolution(g, lam, z) >= float(g(z)) - 1e-12


@given(st.floats(-2.0, 2.0), st.floats(0.1, 0.4))
@settings(max_examples=30)
def test_sup_convolution_monotone_in_lambda(z, lam):
    # larger lambda weakens the penalty, so h can only grow
    g = GFun.from_callable(_sin_bump)
    assert (sup_convolution(g, 2.0 * lam, z)
            >= sup_convolution(g, lam, z) - 1e-12)


_ENVELOPE_GS = {
    "sinbump": _sin_bump,
    "sin7": lambda x: 0.3 * np.sin(7.0 * x) * np.exp(-x * x / 10.0),
    "zero": np.zeros_like,
    "step": lambda x: np.where(x < 0.0, -1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(_ENVELOPE_GS))
def test_sup_convolution_envelope_dominates_grid_maximum(name):
    # h must reach the brute-force maximum over the grid and g(z) itself;
    # each line a_i + b_i z is rounded by at most a few eps (|a_i| + |b_i z|)
    fn = _ENVELOPE_GS[name]
    g = GFun.from_callable(fn)
    xs = deficits._PL_XS
    rng = np.random.default_rng(11)
    zs = np.concatenate([rng.uniform(-12.0, 12.0, 400), xs[::16]])
    for lam in (1e-4, 1e-3, 0.1, 0.5, 0.9, 0.999, 0.9999):
        c = (1.0 - lam) / (2.0 * lam)
        h = sup_convolution(g, lam, zs)
        brute = np.max(fn(xs) - c * (xs - zs[:, None]) ** 2, axis=1)
        slack = 4.0 * np.finfo(float).eps * (1.0 + 3.0 * c * 144.0)
        assert np.all(h >= brute - slack)
        assert np.all(h >= fn(zs))
        breaks, _ = deficits._upper_envelope(fn(xs) - c * xs * xs,
                                             2.0 * c * xs)
        assert np.all(np.diff(breaks) >= 0.0)


def _chain_envelope(a, b):
    """The upper envelope as the point-by-point monotone chain builds it,
    the reference of ``deficits._upper_envelope``."""
    a_l, b_l = a.tolist(), b.tolist()
    hull = []
    for i, (a3, b3) in enumerate(zip(a_l, b_l)):
        while len(hull) >= 2:
            (a1, b1, _), (a2, b2, _) = hull[-2], hull[-1]
            if (a1 - a3) * (b2 - b1) > (a1 - a2) * (b3 - b1):
                break
            hull.pop()
        hull.append((a3, b3, i))
    idx = np.array([line[2] for line in hull])
    return (a[idx[:-1]] - a[idx[1:]]) / (b[idx[1:]] - b[idx[:-1]]), idx


def _random_smooth_gs(count, seed):
    """Seeded smooth g's: a damped sine plus a slow cosine."""
    rng = np.random.default_rng(seed)
    return [lambda x, c=rng.normal(size=6): (
        c[0] * np.sin(2.0 * c[1] * x + c[2]) * np.exp(-0.25 * abs(c[3]) * x * x)
        + c[4] * np.cos(c[5] * x)) for _ in range(count)]


def test_upper_envelope_keeps_the_bits_of_the_chain():
    # the concave runs appended in bulk, the rest line by line: the same
    # comparisons as the point-by-point chain, so the same breaks and lines
    xs = deficits._PL_XS
    gs = ([(fn, (1e-4, 1e-3, 0.1, 0.5, 0.9, 0.999, 0.9999))
           for fn in _ENVELOPE_GS.values()]
          + [(parse_g_spec("bump"), (0.1, 0.4, 0.5, 0.9))]
          + [(fn, np.linspace(0.05, 0.95, 11))
             for fn in _random_smooth_gs(40, 17)])
    for fn, lams in gs:
        for lam in lams:
            c = (1.0 - lam) / (2.0 * lam)
            a, b = fn(xs) - c * xs * xs, 2.0 * c * xs
            breaks, idx = deficits._upper_envelope(a, b)
            ref_breaks, ref_idx = _chain_envelope(a, b)
            assert idx.tobytes() == ref_idx.tobytes()
            assert breaks.tobytes() == ref_breaks.tobytes()
    # and on the fewest lines, and on lines through one point, where every
    # test is a tie and the middle lines pop
    for a, b in (([1.0], [0.0]), ([1.0, 2.0], [0.0, 1.0]),
                 ([0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]),
                 ([0.0, -1.0, 0.0], [-1.0, 0.0, 1.0]),
                 ([1.0, 0.5, 0.0, -0.5, -1.0], [-2.0, -1.0, 0.0, 1.0, 2.0])):
        a, b = np.array(a), np.array(b)
        for got, ref in zip(deficits._upper_envelope(a, b),
                            _chain_envelope(a, b)):
            assert got.tobytes() == ref.tobytes()


def _b_reference(h, breaks, order):
    """B = int e^{h} dgamma on [-13, 13] relative to e^peak, as
    ``_exp_integral`` scales it, by Gauss-Legendre of the given order on
    every cell between the 9-point split and all envelope breaks."""
    x, w = np.polynomial.legendre.leggauss(order)
    ends = np.unique(np.concatenate([np.linspace(-13.0, 13.0, 9),
                                     breaks[np.abs(breaks) < 13.0]]))
    a, b = ends[:-1, None], ends[1:, None]
    pts = 0.5 * (a + b) + 0.5 * (b - a) * x
    edges = np.array([-13.0, 0.0, 13.0])
    peak = float(np.max(h(edges) - 0.5 * edges ** 2))
    vals = np.exp(h(pts.ravel()).reshape(pts.shape) - 0.5 * pts * pts - peak)
    return float(np.sum(vals * w * 0.5 * (b - a))) / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("g, lam", [("sinbump", lam) for lam in
                                    (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                     0.9)] + [("bump", 0.5)])
def test_b_error_covers_a_reference_split_at_every_envelope_break(g, lam):
    # h_lam kinks where the grid argmax skips a node; with those breaks
    # inside panels, B at lam 0.4 missed this reference by 1.02e-12 while
    # reporting 1.18e-13
    g = _SIN_BUMP if g == "sinbump" else parse_g_spec(g)
    c = (1.0 - lam) / (2.0 * lam)
    xs = deficits._PL_XS
    breaks, _ = deficits._upper_envelope(g(xs) - c * xs * xs, 2.0 * c * xs)
    h = deficits._sup_conv_fn(g, lam)
    _, value, error = deficits._exp_integral(h)
    ref20, ref30 = (_b_reference(h, breaks, n) for n in (20, 30))
    assert abs(ref20 - ref30) <= 1e-13
    assert abs(value - ref30) <= error


def _sup_convolution_per_node(fn, lam, z):
    """h_lam(z) with g evaluated afresh at every node the refinement
    reads: the generic sup-convolution as it was before it read g's node
    table."""
    g = GFun.from_callable(fn)
    c = (1.0 - lam) / (2.0 * lam)
    xs = deficits._PL_XS
    step = xs[1] - xs[0]
    breaks, idx = deficits._upper_envelope(g(xs) - c * xs * xs, 2.0 * c * xs)

    def psi(x, z):
        return g(x) - c * (x - z) ** 2

    j = idx[np.searchsorted(breaks, z, side="left")]
    jm, jp = np.maximum(j - 1, 0), np.minimum(j + 1, xs.size - 1)
    y0, y1, y2 = psi(xs[jm], z), psi(xs[j], z), psi(xs[jp], z)
    hump = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(hump < -1e-300, 0.5 * step * (y0 - y2) / hump, 0.0)
    vertex = np.clip(xs[j] + shift, xs[jm], xs[jp])
    val = np.max(np.stack([y1, psi(vertex, z), psi(z, z)]), axis=0)
    return np.maximum(val, g(z))


@pytest.mark.parametrize("name", sorted(_ENVELOPE_GS))
def test_sup_convolution_reads_g_from_its_node_table(name):
    # the same bits as with g evaluated at every node read, from the table
    # of g on _PL_XS and two more points per z: the vertex and z itself
    fn = _ENVELOPE_GS[name]
    seen = []

    def counted(x):
        seen.append(np.size(x))
        return fn(x)

    xs = deficits._PL_XS
    zs = np.concatenate([np.random.default_rng(11).uniform(-12.0, 12.0, 400),
                         xs[::16]])
    for lam in (1e-4, 1e-3, 0.1, 0.5, 0.9, 0.999, 0.9999):
        seen.clear()
        h = sup_convolution(GFun.from_callable(counted), lam, zs)
        assert h.tobytes() == _sup_convolution_per_node(fn, lam, zs).tobytes()
        assert sum(seen) <= xs.size + 2 * zs.size


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_sup_convolution_grid_allowance_covers_finer_grid(monkeypatch, lam):
    # pl_deficit_check charges a flat 1e-7 for the grid sup-convolution; B on
    # a 16x finer grid must stay inside it
    def b_value():
        return deficits._exp_scaled(*deficits._exp_integral(
            deficits._sup_conv_fn(_SIN_BUMP, lam))[:2])

    coarse = b_value()
    fine = np.linspace(-12.0, 12.0, 16 * (deficits._PL_XS.size - 1) + 1)
    monkeypatch.setattr(deficits, "_PL_XS", fine)
    assert abs(b_value() - coarse) <= 1e-7


def test_sup_convolution_envelope_built_once_per_check(monkeypatch):
    calls = []
    original = deficits._upper_envelope

    def counted(a, b):
        calls.append(a.size)
        return original(a, b)

    monkeypatch.setattr(deficits, "_upper_envelope", counted)
    pl_deficit_check(PLTriple(_SIN_BUMP, 0.3))
    assert calls == [deficits._PL_XS.size]
    for g in (GFun.const(0.0), GFun.linear(1.0), GFun.quadratic(0.5)):
        pl_deficit_check(PLTriple(g, 0.3))
    assert len(calls) == 1
    lambda_limit_diagnostics(_SIN_BUMP, (0.2, 0.1, 0.05))
    assert len(calls) == 4


def test_gfun_validation():
    with pytest.raises(DomainError):
        GFun.quadratic(-1.0)
    with pytest.raises(DomainError):
        GFun(kind="generic")
    with pytest.raises(CapabilityError):
        GFun.from_callable(_sin_bump).deriv(0.5)
    with pytest.raises(DomainError):
        PLTriple(GFun.const(0.0), 1.0)


def test_gfun_generic_pickles():
    g = GFun.from_callable(_sin_bump)
    back = pickle.loads(pickle.dumps(g))
    xs = np.linspace(-3, 3, 11)
    assert np.allclose(back(xs), g(xs))


# ---------------------------------------------------------------------------
# PL deficit


def test_pl_quadratic_against_closed_form_oracle():
    kappa, b, c0, lam = 0.8, 0.4, -0.1, 0.35
    _, _, deficit_ref, lower_ref = quad_oracle(kappa, b, c0, lam)
    rep = pl_deficit_check(PLTriple(GFun.quadratic(kappa, b, c0), lam))
    assert abs(rep.deficit - deficit_ref) < 1e-9
    assert abs(rep.lower_bound - lower_ref) < 1e-9
    assert rep.status == "pass"


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_pl_equality_for_flat_and_linear(lam):
    for g in (GFun.const(0.0), GFun.linear(1.0), GFun.linear(-0.7, 0.2)):
        rep = pl_deficit_check(PLTriple(g, lam))
        assert rep.status == "pass"
        assert abs(rep.deficit) < 1e-10
        assert rep.lower_bound < 1e-12


def _tilt_exact(q):
    """(int e^q dgamma, |b| + a^2/(2(1+k))) at 50 digits, for
    q = -k x^2/2 + a x + b."""
    with decimal.localcontext(prec=50):
        k, a, b = (decimal.Decimal(v) for v in (q.curvature, q.slope,
                                                 q.offset))
        tilt = a * a / (2 * (1 + k))
        return (b + tilt).exp() / (1 + k).sqrt(), abs(b) + tilt


def _tilts():
    """The exponents of A and B for the corpus g's at lambda in [0.1, 0.99],
    random tilts with curvature 0-20, slope +-15 and offset +-5, and tilts
    whose offset cancels most of a^2/(2(1+k))."""
    for _, g in _PL_GS[:3]:
        for lam in np.linspace(0.1, 0.99, 90):
            yield from deficits._pl_exponents(g, float(lam))
    yield GFun.quadratic(0.0, math.sqrt(2000.0), -1000.0)
    yield from deficits._pl_exponents(GFun.linear(10.0, -50.0), 0.01)
    rng = np.random.default_rng(20151)
    for _ in range(200):
        yield GFun.quadratic(rng.uniform(0.0, 20.0), rng.uniform(-15.0, 15.0),
                             rng.uniform(-5.0, 5.0))
    for _ in range(100):
        k, a = rng.uniform(0.0, 20.0), rng.uniform(-15.0, 15.0)
        yield GFun.quadratic(k, a, -a * a / (2.0 * (1.0 + k))
                             + rng.uniform(-1.0, 1.0))


def test_closed_form_tilt_within_its_allowance():
    # the allowance is 4 eps (1 + |b| + a^2/(2(1+k))) times the value; a
    # linear g at lambda near 1 has A = e^{a^2 / (2 (1 - lam)^2)}, past the
    # double range, and e^peak value still carries it
    eps = np.finfo(float).eps
    worst = 0.0
    beyond = 0
    for q in _tilts():
        exact, terms = _tilt_exact(q)
        peak, value, err = deficits._exp_integral(q)
        with decimal.localcontext(prec=50):
            scale = decimal.Decimal(peak).exp()
            miss = float(abs(scale * decimal.Decimal(value) - exact) / scale)
        beyond += exact > decimal.Decimal(np.finfo(float).max)
        assert miss <= err, (q, value, err)
        worst = max(worst, miss / (eps * (1.0 + float(terms)) * value))
    assert beyond > 0
    assert worst > 0.1  # the oracle does see the rounding


@pytest.mark.parametrize("k,a,b", [(0.0, 0.0, 0.0), (20.0, -15.0, 5.0),
                                   (0.5, 1.0 / 0.1, 0.0)])
def test_closed_form_tilt_matches_quadrature(k, a, b):
    # the formula itself, against 50-digit quadrature of e^q phi
    mpmath = pytest.importorskip("mpmath")
    peak, value, err = deficits._exp_integral(GFun.quadratic(k, a, b))
    with mpmath.workdps(50):
        def f(x):
            return mpmath.npdf(x) * mpmath.exp(-k * x * x / 2 + a * x + b)
        ref = mpmath.quad(f, [-mpmath.inf, a / (1 + k), mpmath.inf])
        assert float(abs(mpmath.exp(peak) * value - ref)) <= (
            float(mpmath.exp(peak)) * err)


@pytest.mark.parametrize("lam", [0.98, 0.99])
def test_pl_linear_past_the_double_range_passes(lam):
    # A = e^{1 / (2 (1 - lam)^2)} is e^1250 or e^5000; B / A^{1 - lam} is 1
    rep = pl_deficit_check(PLTriple(GFun.linear(1.0), lam))
    assert rep.status == "pass"
    assert abs(rep.deficit) <= rep.error_estimate
    assert rep.method.startswith("A=exp(")


def test_pl_generic_bump_passes():
    rep = pl_deficit_check(PLTriple(GFun.from_callable(_sin_bump), 0.3))
    assert rep.status == "pass"
    assert rep.margin >= -(1e-6 + rep.error_estimate)


# ---------------------------------------------------------------------------
# lambda limit diagnostics


def test_lambda_diagnostics_residuals_shrink():
    rows = lambda_limit_diagnostics(GFun.quadratic(0.5), (0.2, 0.1, 0.05))
    for prev, cur in zip(rows, rows[1:]):
        assert prev.entropy_residual / cur.entropy_residual > 1.5
        assert prev.fisher_residual / cur.fisher_residual > 1.5


def test_lambda_diagnostics_limits_match_quadrature():
    from scipy import integrate, stats
    g = GFun.quadratic(0.5, 0.3)
    rows = lambda_limit_diagnostics(g, (0.1,))
    m, _ = integrate.quad(lambda x: math.exp(g(x)) * stats.norm.pdf(x),
                          -12, 12)
    ent, _ = integrate.quad(
        lambda x: g(x) * math.exp(g(x)) * stats.norm.pdf(x), -12, 12)
    assert abs(rows[0].entropy_limit - (ent - m * math.log(m))) < 1e-9
    fisher, _ = integrate.quad(
        lambda x: g.deriv(x) ** 2 * math.exp(g(x)) * stats.norm.pdf(x),
        -12, 12)
    assert abs(rows[0].fisher_limit - fisher / (2 * 0.9)) < 1e-9


def test_lambda_diagnostics_closed_form_for_a_strong_tilt():
    # e^g gamma / m is N(a, 1) for g = a x: Ent_gamma(e^g) = (a^2/2) m and
    # int |g'|^2 e^g dgamma = a^2 m, m = e^{a^2/2}. Integrated over [-10, 10]
    # only, a = 12 gave -1.29e33 and 5.07e31
    row = lambda_limit_diagnostics(GFun.linear(12.0), (0.4,))[0]
    m = math.exp(72.0)
    assert row.entropy_limit == pytest.approx(72.0 * m, rel=1e-13)
    assert row.fisher_limit == pytest.approx(144.0 * m / 1.2, rel=1e-13)
    # at a = 3 the window held, and the quadrature gave these
    row = lambda_limit_diagnostics(GFun.linear(3.0), (0.4,))[0]
    assert row.entropy_limit == pytest.approx(405.07709084884453, rel=1e-11)
    assert row.fisher_limit == pytest.approx(675.1284847530495, rel=1e-11)
    # m = e^800 itself is past the double range
    with pytest.raises(EvaluationError, match="overflows"):
        lambda_limit_diagnostics(GFun.linear(40.0), (0.4,))


def test_lambda_diagnostics_validation():
    with pytest.raises(DomainError):
        lambda_limit_diagnostics(GFun.const(0.0), (0.1, 0.2))  # not decreasing
    with pytest.raises(DomainError):
        lambda_limit_diagnostics(GFun.const(0.0), (0.7, 0.3))  # above 1/2
