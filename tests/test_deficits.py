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
                    ProductFunction, lambda_limit_diagnostics, lsi_deficit,
                    pl_deficit_check, sup_convolution, verify_corollary,
                    verify_talagrand, verify_thm_main)
from bfstab import deficits, densitynd
from bfstab.corpus import _PL_GS, _SIN_BUMP, _sin_bump, main_corpus
from bfstab.deficits import _corollary_axis_quad

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
        for axis in range(nu.dim):
            w, _ = _corollary_axis_quad(nu, axis, (64, 96, 128, 192, 256))
            oracle_gap += 0.5 * max(abs(w[0] - wo) for wo in w[1:])
        assert oracle_gap <= rep.error_estimate, case_id


def test_corollary_monte_carlo_gaussian_closed_form():
    # n = 4 takes the outer Monte Carlo path. Every slice of N(m, C) along
    # axis i is Gaussian with std s_i = (C^-1)_ii^(-1/2), whatever the
    # pinned point, so the bound is 1/2 sum_i (|1 - s_i| / max(1, s_i))^2
    a = np.array([[1.2, 0.3, -0.4, 0.1], [0.0, 0.6, 0.5, -0.2],
                  [0.3, -0.1, 0.4, 0.7], [0.2, 0.8, 0.0, 1.5]])
    cov = a @ a.T + 0.05 * np.eye(4)
    nu = GaussianMixtureND([1.0], [[0.3, -0.5, 1.0, 0.0]], [cov])
    s = np.diag(np.linalg.inv(cov)) ** -0.5
    assert s.min() < 1.0 < s.max()
    d = np.abs(1.0 - s) / np.maximum(1.0, s)
    rep = verify_corollary(nu, mc_budget=1024)
    assert rep.method.startswith("outer MC with standard error;")
    assert abs(rep.lower_bound - 0.5 * float(d @ d)) <= rep.error_estimate
    # every draw sees the same slices, so only the inner solve is left
    assert abs(rep.lower_bound - 0.5 * float(d @ d)) <= 1e-10
    assert rep.status == "pass"


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
    assert rep.method.startswith("quantile-coupling W2")
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


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_sup_convolution_grid_allowance_covers_finer_grid(monkeypatch, lam):
    # pl_deficit_check charges a flat 1e-7 for the grid sup-convolution; B on
    # a 16x finer grid must stay inside it
    def b_value():
        return deficits._exp_integral(deficits._sup_conv_fn(_SIN_BUMP, lam))[0]

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
    # double range
    eps = np.finfo(float).eps
    worst = 0.0
    for q in _tilts():
        exact, terms = _tilt_exact(q)
        if exact > decimal.Decimal(np.finfo(float).max):
            with pytest.raises(EvaluationError, match="overflows"):
                deficits._exp_integral(q)
            continue
        value, err = deficits._exp_integral(q)
        miss = float(abs(decimal.Decimal(value) - exact))
        assert miss <= err, (q, value, err)
        worst = max(worst, miss / (eps * (1.0 + float(terms)) * value))
    assert worst > 0.1  # the oracle does see the rounding


@pytest.mark.parametrize("k,a,b", [(0.0, 0.0, 0.0), (20.0, -15.0, 5.0),
                                   (0.5, 1.0 / 0.1, 0.0)])
def test_closed_form_tilt_matches_quadrature(k, a, b):
    # the formula itself, against 50-digit quadrature of e^q phi
    mpmath = pytest.importorskip("mpmath")
    value, err = deficits._exp_integral(GFun.quadratic(k, a, b))
    with mpmath.workdps(50):
        def f(x):
            return mpmath.npdf(x) * mpmath.exp(-k * x * x / 2 + a * x + b)
        ref = mpmath.quad(f, [-mpmath.inf, a / (1 + k), mpmath.inf])
    assert float(abs(value - ref)) <= err


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


def test_lambda_diagnostics_validation():
    with pytest.raises(DomainError):
        lambda_limit_diagnostics(GFun.const(0.0), (0.1, 0.2))  # not decreasing
    with pytest.raises(DomainError):
        lambda_limit_diagnostics(GFun.const(0.0), (0.7, 0.3))  # above 1/2
