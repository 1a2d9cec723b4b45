"""Acceptance gate: every stated criterion at its stated tolerance.

Each test is one criterion; the terminal summary (see conftest) prints one
pass/fail line per criterion. Budgets are the library defaults throughout.
"""

import json
import time

import numpy as np
from scipy import integrate

from bfstab import (GaussianMixture1D, ProductFunction, StandardGaussian,
                    TransportMap1D, bf_distance_full, bregman_integral_full,
                    dn_distance, lambda_limit_diagnostics, lsi_deficit,
                    talagrand_deficit_1d_full)
from bfstab.cli import main as cli_main
from bfstab.corpus import (equality_cases, main_corpus, pl_grid, suite_cases,
                           talagrand_1d_corpus, run_case, _PL_GS)

GAUSS = StandardGaussian()

LSI_SIGMA2 = 0.3181471805599453
TAL_SIGMA2 = 0.6137056388801092
BREGMAN_SIGMA2 = 0.3068528194400547
MAIN_MARGIN_SIGMA2 = 0.1931471805599453
TAL_MARGIN_SIGMA2 = 0.4887056388801092


def _distance_to_gamma(obj):
    """d_n(obj, gamma): the sphere search for a product, and in one
    dimension the distance itself."""
    if isinstance(obj, ProductFunction):
        return dn_distance(obj.as_mixture()).value
    return bf_distance_full(obj, GAUSS)[0]


def test_criterion_1_equality_suite():
    """exp(a.x - |a|^2/2): all three quantities vanish, in under 10 s."""
    start = time.perf_counter()
    for case_id, obj in equality_cases():
        deficit, err = lsi_deficit(obj)
        assert abs(deficit) <= 1e-7 + err, case_id
        assert _distance_to_gamma(obj) <= 1e-6, case_id
        if isinstance(obj, ProductFunction):
            tal = sum(talagrand_deficit_1d_full(f)[0] for f in obj.factors)
        else:
            tal = talagrand_deficit_1d_full(obj)[0]
        assert abs(tal) <= 1e-7, case_id
    assert time.perf_counter() - start < 10.0


def test_criterion_2_closed_form_sigma2():
    nu = GaussianMixture1D([1.0], [0.0], [2.0])
    deficit, _ = lsi_deficit(nu)
    assert abs(deficit - LSI_SIGMA2) <= 1e-6
    dist = bf_distance_full(nu, GAUSS)[0]
    assert abs(dist - 0.5) <= 1e-7
    tal = talagrand_deficit_1d_full(nu)[0]
    assert abs(tal - TAL_SIGMA2) <= 1e-6
    breg = bregman_integral_full(nu)[0]
    assert abs(breg - BREGMAN_SIGMA2) <= 1e-7
    # stated margins of the two deficit inequalities
    assert abs((deficit - 0.5 * dist ** 2) - MAIN_MARGIN_SIGMA2) <= 1e-6
    assert abs((tal - 0.5 * dist ** 2) - TAL_MARGIN_SIGMA2) <= 1e-6
    # the chain inequality holds strictly in between
    assert tal >= breg - 1e-9 and breg >= 0.5 * dist ** 2 - 1e-9


def test_criterion_3_main_theorem_corpus():
    cases = main_corpus()
    assert len(cases) >= 50
    start = time.perf_counter()
    for case_id, obj in cases:
        rep = run_case(case_id, obj, "main")
        assert rep.status == "pass", (case_id, rep.status, rep.method)
        assert rep.margin >= -(1e-6 + rep.error_estimate), case_id
    assert time.perf_counter() - start < 300.0


def test_criterion_4_corollary_corpus():
    for case_id, obj in suite_cases("corollary-corpus"):
        rep = run_case(case_id, obj, "corollary")
        assert rep.status == "pass", (case_id, rep.status, rep.method)
        assert rep.margin >= -(1e-5 + rep.error_estimate), case_id
        if "prod" in case_id:
            h = obj.factors[0]
            ref = obj.dim * 0.5 * bf_distance_full(h, GAUSS)[0] ** 2
            assert abs(rep.lower_bound - ref) <= 1e-6 * max(ref, 1e-12), case_id


def test_criterion_5_product_structure():
    h = GaussianMixture1D([1.0], [0.0], [2.0])
    d_h = bf_distance_full(h, GAUSS)[0]
    lsi_h, _ = lsi_deficit(h)
    for n in (2, 3):
        prod = ProductFunction([h] * n)
        val, err = lsi_deficit(prod)
        assert abs(val - n * lsi_h) <= 1e-6 * n * lsi_h + err
        dn = dn_distance(prod.as_mixture()).value
        assert abs(dn - d_h) <= 2e-3


def test_criterion_6_talagrand_chain():
    cases = talagrand_1d_corpus()
    assert len(cases) == 30
    for case_id, mix in cases:
        tal = talagrand_deficit_1d_full(mix)[0]
        mid = bregman_integral_full(mix)[0]
        d = bf_distance_full(mix, GAUSS)[0]
        assert tal == 2.0 * mid, case_id
        assert mid - 0.5 * d * d >= -1e-7, case_id


def test_criterion_7_prekopa_leindler():
    for case_id, obj in pl_grid():
        rep = run_case(case_id, obj, "pl")
        assert rep.status == "pass", (case_id, rep.status)
        assert rep.margin >= -1e-6, case_id
    # lambda-limit expansions: residuals shrink >= 1.5x per halving
    for name, g in _PL_GS:
        rows = lambda_limit_diagnostics(g)
        for prev, cur in zip(rows, rows[1:]):
            if prev.entropy_residual < 1e-13 and cur.entropy_residual < 1e-13:
                continue  # equality family: residuals are already at zero
            assert prev.entropy_residual / max(cur.entropy_residual,
                                               1e-300) >= 1.5, name
            assert prev.fisher_residual / max(cur.fisher_residual,
                                              1e-300) >= 1.5, name


def test_criterion_8_property_suite(tmp_path):
    rng = np.random.default_rng(4150331)

    def rand_mix():
        k = int(rng.integers(1, 4))
        w = rng.uniform(0.2, 1.0, k)
        return GaussianMixture1D(w / w.sum(), rng.uniform(-2, 2, k),
                                 rng.uniform(0.5, 2.0, k))

    # symmetry and triangle inequality
    for _ in range(8):
        u, v, w = rand_mix(), rand_mix(), rand_mix()
        assert abs(bf_distance_full(u, v)[0] - bf_distance_full(v, u)[0]) <= 1e-7
        assert bf_distance_full(u, w)[0] <= (bf_distance_full(u, v)[0]
                                             + bf_distance_full(v, w)[0] + 1e-7)

    # translation invariance
    for _ in range(6):
        u, v = rand_mix(), rand_mix()
        a = float(rng.uniform(-2, 2))
        ua = GaussianMixture1D(u.weights, u.means + a, u.stds)
        va = GaussianMixture1D(v.weights, v.means + a, v.stds)
        assert abs(bf_distance_full(ua, va)[0] - bf_distance_full(u, v)[0]) <= 1e-7

    # pointwise Bregman bound s - 1 - log s >= ((1 - s) / max(1, s))^2 / 2
    # on 1e4 log-spaced points
    s = np.logspace(-3, 3, 10_000)
    r = (1.0 - s) / np.maximum(1.0, s)
    assert float(np.min((s - 1.0 - np.log(s)) - 0.5 * r * r)) >= -1e-14

    # push-forward moment identity
    for _ in range(4):
        mu, nu = rand_mix(), rand_mix()
        t = TransportMap1D(mu, nu)
        val, err = integrate.quad(lambda x: t(x) * mu.pdf(x), -35, 35,
                                  limit=400)
        assert abs(val - nu.mean()) <= 1e-6 + err

    # byte-identical reports across --jobs
    out1, out2 = tmp_path / "j1.json", tmp_path / "j2.json"
    assert cli_main(["verify", "--suite", "talagrand-1d", "--seed", "0",
                     "--jobs", "1", "--out", str(out1)]) == 0
    assert cli_main(["verify", "--suite", "talagrand-1d", "--seed", "0",
                     "--jobs", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["summary"]["pass"] == 30
