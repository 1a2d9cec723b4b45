"""n-dimensional mixtures: moments, slices, entropy/fisher with oracles."""

import itertools
import math
import pickle

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp, ndtr, ndtri

from bfstab import (ConditioningError, DomainError,
                    GaussianMixture1D, GaussianMixtureND, ParseError,
                    ProductFunction, entropy_fisher_nd, entropy_rel_gauss_full,
                    fisher_rel_gauss_full, marginal_without, mixture_from_json,
                    w2_squared_1d_full)
from bfstab import densitynd
from bfstab.corpus import main_corpus
from bfstab.density1d import _PROB_CEIL, _PROB_FLOOR
from bfstab.densitynd import (_integrands, _knothe_cost, _log_ratio_and_score,
                              canonical_directions, conditional_slice_batch,
                              knothe_w2_bound, marginal_parameters)

# frozen closed forms for N(0, 4 I_2) against gamma_2
ENT_4I2 = 1.6137056388801092
FISHER_4I2 = 4.5


def mix2d():
    return GaussianMixtureND(
        [0.4, 0.6],
        [[-0.5, 0.3], [1.0, -0.2]],
        [[[1.2, 0.3], [0.3, 0.8]], [[0.7, -0.1], [-0.1, 1.5]]])


def mix3d():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    cov = q @ np.diag([0.5, 1.0, 2.5]) @ q.T
    return GaussianMixtureND(
        [0.5, 0.5], [[0.3, -0.4, 0.1], [-0.6, 0.2, 0.0]],
        [cov, np.diag([1.0, 0.6, 1.4])])


def gaussian_nd(mean, cov):
    return GaussianMixtureND([1.0], [mean], [cov])


def gaussian_entropy(mean, cov):
    mean = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    n = mean.size
    return 0.5 * (mean @ mean + np.trace(cov) - n
                  - math.log(np.linalg.det(cov)))


def gaussian_fisher(mean, cov):
    mean = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    a = np.eye(mean.size) - np.linalg.inv(cov)
    return float(np.trace(a @ cov @ a.T) + mean @ mean)


# ---------------------------------------------------------------------------
# construction and evaluation


def test_logpdf_matches_scipy_multivariate():
    nu = mix2d()
    pts = np.random.default_rng(0).normal(size=(50, 2)) * 2
    ref = np.logaddexp(
        math.log(0.4) + stats.multivariate_normal(nu.means[0],
                                                  nu.covs[0]).logpdf(pts),
        math.log(0.6) + stats.multivariate_normal(nu.means[1],
                                                  nu.covs[1]).logpdf(pts))
    assert np.allclose(nu.logpdf(pts), ref, atol=1e-12)


def test_grad_logpdf_matches_finite_differences():
    # the score half of the fused helper is grad log p + x; check grad log p
    # against central differences of logpdf
    nu = mix3d()
    pts = np.random.default_rng(1).normal(size=(20, 3))
    _, score = _log_ratio_and_score(nu, pts.T)
    grad = score.T - pts
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        num = (nu.logpdf(pts + e) - nu.logpdf(pts - e)) / (2 * h)
        assert np.allclose(grad[:, j], num, atol=1e-6)


def test_relative_density_grad():
    # log f = log p - log phi_n against SciPy, and grad log f = score
    # against central differences of logpdf, plus x
    nu = mix2d()
    pts = np.random.default_rng(4).normal(size=(10, 2))
    log_ratio, score = _log_ratio_and_score(nu, pts.T)
    assert np.allclose(log_ratio, nu.logpdf(pts)
                       - stats.multivariate_normal(np.zeros(2),
                                                   np.eye(2)).logpdf(pts),
                       atol=1e-12)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        num = (nu.logpdf(pts + e) - nu.logpdf(pts - e)) / (2 * h)
        assert np.allclose(score[j], num + pts[:, j], atol=1e-6)


def test_moments_and_sampling(rng):
    nu = mix2d()
    xs = nu.sample(rng, 200_000)
    assert np.allclose(xs.mean(axis=0), nu.mean(), atol=0.02)
    assert np.allclose(np.cov(xs.T), nu.covariance(), atol=0.05)


def test_validation_errors():
    with pytest.raises(DomainError):
        GaussianMixtureND([0.9], [[0.0]], [[[1.0]]])  # weights sum
    with pytest.raises(DomainError):
        GaussianMixtureND([1.0], [[0.0, 0.0]],
                          [[[1.0, 0.5], [0.4, 1.0]]])  # asymmetric
    with pytest.raises(ConditioningError):
        GaussianMixtureND([1.0], [[0.0, 0.0]],
                          [[[1.0, 1.0], [1.0, 1.0]]])  # singular


def test_marginal_and_rotate():
    nu = mix2d()
    m0 = nu.marginal([0])
    assert m0.dim == 1
    assert np.allclose(m0.covs[:, 0, 0], nu.covs[:, 0, 0])

    theta = 0.7
    q = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    rot = nu.rotate(q)
    pts = np.random.default_rng(2).normal(size=(30, 2))
    # pushforward by q: density at q x equals original density at x
    assert np.allclose(rot.logpdf(pts @ q.T), nu.logpdf(pts), atol=1e-12)
    with pytest.raises(DomainError):
        nu.rotate(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_direction_canonical():
    d1, d2 = canonical_directions([[0.6, -0.8], [-1.2, 1.6]])
    assert np.allclose(d1, d2)
    assert d1[0] > 0
    assert abs(np.linalg.norm(d1) - 1.0) < 1e-14
    with pytest.raises(DomainError):
        canonical_directions([0.0, 0.0])


def test_canonical_directions_match_direction_bitwise():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 6):
        rows = rng.standard_normal((200, n)) * rng.uniform(1e-3, 1e3, (200, 1))
        rows[:50, 0] = -np.abs(rows[:50, 0])        # negative first entry
        rows[50:100, 0] = -0.0                      # -0 leading entry
        rows[100:120, :n - 1] = 0.0                 # one nonzero entry
        rows[120:140, 0] = 1e-15 * rng.choice([-1.0, 1.0], 20)  # below 1e-14
        batch = canonical_directions(rows)
        one = np.vstack([canonical_directions(r) for r in rows])
        assert np.array_equal(batch, one)
        assert not np.any(np.signbit(batch) & (batch == 0.0))
        lead = batch[np.arange(200), np.argmax(np.abs(batch) > 1e-14, axis=1)]
        assert np.all(lead > 0.0)
    for bad in ([[1.0, 0.0], [0.0, 0.0]], [[1.0, np.nan]], [[np.inf, 1.0]]):
        with pytest.raises(DomainError):
            canonical_directions(np.array(bad))


def test_marginal_parameters_rows_match_one_row_calls():
    nu = mix2d()
    rows = canonical_directions(np.random.default_rng(4).standard_normal((9, 2)))
    means, stds = marginal_parameters(nu, rows)
    for b, v in enumerate(rows):
        m1, s1 = marginal_parameters(nu, v[None])
        assert np.allclose(means[b], m1[0], rtol=0, atol=1e-15)
        assert np.allclose(stds[b], s1[0], rtol=0, atol=1e-15)
    with pytest.raises(DomainError):
        marginal_parameters(nu, np.ones((2, 3)) / math.sqrt(3.0))


def test_marginal_parameters_match_hand_built():
    nu = mix2d()
    v = canonical_directions([0.6, 0.8])[0]
    means, stds = marginal_parameters(nu, v[None])
    marg = GaussianMixture1D(nu.weights, means[0], stds[0])
    ref = GaussianMixture1D(
        nu.weights, nu.means @ v,
        np.sqrt(np.einsum("a,kab,b->k", v, nu.covs, v)))
    xs = np.linspace(-6, 6, 41)
    assert np.allclose(marg.pdf(xs), ref.pdf(xs), atol=1e-13)


# ---------------------------------------------------------------------------
# products


def test_product_as_mixture_pdf_factorizes():
    h1 = GaussianMixture1D([0.3, 0.7], [-1.0, 1.0], [0.8, 1.1])
    h2 = GaussianMixture1D([1.0], [0.5], [2.0])
    prod = ProductFunction([h1, h2])
    nu = prod.as_mixture()
    assert nu.dim == 2 and nu.n_components == 2
    pts = np.random.default_rng(3).normal(size=(25, 2))
    ref = np.log(h1.pdf(pts[:, 0])) + np.log(h2.pdf(pts[:, 1]))
    assert np.allclose(nu.logpdf(pts), ref, atol=1e-12)


# ---------------------------------------------------------------------------
# conditional slices


def _slice_log_gap(nu, axis, point, mix, ts):
    """log nu(x) - log mix(t) along the line x_axis = t, x_rest = point."""
    pts = np.insert(np.tile(point, (ts.size, 1)), axis, ts, axis=1)
    return nu.logpdf(pts) - np.log(mix.pdf(ts))


def test_conditional_slice_pointwise_identity():
    # nu(x) = c(point) * slice_mixture(t) row by row, so the log-gap is
    # constant in t; at (12, 0) the first component's slice weight
    # underflows below 1e-16 and the row's mixture drops it
    nu = mix3d()
    points = np.array([[0.4, -0.7], [-1.1, 0.5], [12.0, 0.0]])
    batch = conditional_slice_batch(nu, 0, points)
    assert batch.weights.shape == (3, 2)
    assert np.allclose(batch.weights.sum(axis=1), 1.0, atol=1e-14)
    ts = np.linspace(-3, 3, 13)
    for b, point in enumerate(points):
        gap = _slice_log_gap(nu, 0, point, batch.mixture(b), ts)
        assert np.ptp(gap) < 1e-10, b
    assert [batch.mixture(b).weights.size for b in range(3)] == [2, 2, 1]


def test_conditional_slice_mass_integrates_marginal():
    # the constant is the log-density of the marginal at the pinned point
    nu = mix2d()
    points = np.array([[0.9], [-1.4], [2.5], [-10.0]])
    batch = conditional_slice_batch(nu, 1, points)
    marg = marginal_without(nu, 1)
    ts = np.linspace(-2, 2, 9)
    for b, point in enumerate(points):
        gap = _slice_log_gap(nu, 1, point, batch.mixture(b), ts)
        assert np.allclose(gap, marg.logpdf(point[None])[0], rtol=0,
                           atol=1e-10), b
    # far out in the pinned coordinate only one component survives
    assert batch.mixture(3).weights.size == 1


# ---------------------------------------------------------------------------
# entropy and fisher in n dimensions


def test_entropy_fisher_frozen_4i2():
    nu = gaussian_nd([0.0, 0.0], 4.0 * np.eye(2))
    (ent, ent_err), (fis, fis_err) = entropy_fisher_nd(nu)
    assert abs(ent - ENT_4I2) < 1e-9 + ent_err
    assert abs(fis - FISHER_4I2) < 1e-9 + fis_err


@pytest.mark.parametrize("n", [2, 3])
def test_entropy_fisher_gaussian_closed_form(n):
    rng = np.random.default_rng(10 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cov = q @ np.diag(rng.uniform(0.4, 3.0, n)) @ q.T
    mean = rng.uniform(-1.0, 1.0, n)
    nu = gaussian_nd(mean, cov)
    (ent, ent_err), (fis, fis_err) = entropy_fisher_nd(nu)
    assert abs(ent - gaussian_entropy(mean, cov)) < 1e-8 + ent_err
    assert abs(fis - gaussian_fisher(mean, cov)) < 1e-8 + fis_err


def test_entropy_fisher_qmc_path_dim4():
    cov = np.diag([4.0, 1.0, 1.0, 1.0])
    nu = gaussian_nd(np.zeros(4), cov)
    (ent, ent_err), (fis, fis_err) = entropy_fisher_nd(nu, seed=5)
    assert abs(ent - gaussian_entropy(np.zeros(4), cov)) < 5 * ent_err + 1e-3
    assert abs(fis - gaussian_fisher(np.zeros(4), cov)) < 5 * fis_err + 1e-2


def test_entropy_mixture_matches_1d_embedding():
    h = GaussianMixture1D([0.3, 0.7], [-1.0, 1.5], [0.6, 1.2])
    nu = GaussianMixtureND(h.weights, h.means[:, None],
                           (h.stds ** 2)[:, None, None])
    # 1-D embedded mixture must agree with the adaptive 1-D integrals
    (ent, ent_err), (fis, fis_err) = entropy_fisher_nd(nu)
    assert abs(ent - entropy_rel_gauss_full(h).value) < 1e-9 + ent_err
    assert abs(fis - fisher_rel_gauss_full(h).value) < 1e-9 + fis_err


def test_entropy_fisher_gh_match_product_factor_sums():
    # lsi_deficit sums 1-D terms over a product's factors; the whitened
    # Gauss-Hermite layer must agree on the expanded mixture
    prod = dict(main_corpus())["main-2d-prod-1"]
    assert prod.dim == 2 and prod.factors[0].weights.size == 2
    nu = prod.as_mixture()
    (ent, ent_err), (fis, fis_err) = entropy_fisher_nd(nu)
    ent_1d = [entropy_rel_gauss_full(h) for h in prod.factors]
    fis_1d = [fisher_rel_gauss_full(h) for h in prod.factors]
    assert (abs(ent - sum(r.value for r in ent_1d))
            <= ent_err + sum(r.error for r in ent_1d))
    assert (abs(fis - sum(r.value for r in fis_1d))
            <= fis_err + sum(r.error for r in fis_1d))


# ---------------------------------------------------------------------------
# Knothe-Rosenblatt bound on W2^2


def _pass_oracle(nu, x):
    """log p - log phi_n, |grad log p + x|^2 and the Knothe-Rosenblatt cost
    |x - S(x)|^2 at the rows of x, from inverse covariances (of nu's and of
    its leading blocks) and SciPy's logsumexp: no Cholesky factor."""
    w, m, c = nu.weights, nu.means, nu.covs
    n = x.shape[1]
    d = x[None, :, :] - m[:, None, :]
    prec = np.linalg.inv(c)
    comp = np.log(w)[:, None] - 0.5 * (
        np.einsum("kpa,kab,kpb->kp", d, prec, d)
        + np.linalg.slogdet(c)[1][:, None] + n * math.log(2 * math.pi))
    log_p = logsumexp(comp, axis=0)
    resp = np.exp(comp - log_p)
    score = x - np.einsum("kp,kab,kpb->pa", resp, prec, d)
    s = np.empty_like(x)
    for i in range(n):
        # x_i given x_<i: each component's conditional, weighed by its
        # density on the leading i coordinates
        inv = np.linalg.inv(c[:, :i, :i])
        beta = np.einsum("kab,kb->ka", inv, c[:, :i, i])
        lead = d[:, :, :i]
        log_w = np.log(w)[:, None] - 0.5 * (
            np.einsum("kpa,kab,kpb->kp", lead, inv, lead)
            + np.linalg.slogdet(c[:, :i, :i])[1][:, None])
        pi = np.exp(log_w - logsumexp(log_w, axis=0))
        mu = m[:, i, None] + np.einsum("kpa,ka->kp", lead, beta)
        sd = np.sqrt(c[:, i, i] - np.einsum("ka,ka->k", c[:, :i, i], beta))
        t = (x[:, i] - mu) / sd[:, None]
        cdf = np.clip(np.sum(pi * ndtr(t), axis=0), _PROB_FLOOR, _PROB_CEIL)
        sf = np.clip(np.sum(pi * ndtr(-t), axis=0), _PROB_FLOOR, _PROB_CEIL)
        s[:, i] = np.where(cdf <= 0.5, ndtri(cdf), -ndtri(sf))
    half_sq = 0.5 * np.sum(x * x, axis=1)
    return (log_p + 0.5 * n * math.log(2 * math.pi) + half_sq, half_sq,
            np.sum(score * score, axis=1), np.sum((x - s) ** 2, axis=1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_component_pass_matches_inverse_covariance_oracle(k, n):
    # random rotated covariances with eigenvalues log-uniform on
    # [1e-2, 1e2], at nodes anchored at each component the way the
    # expectations place them (x = m_j + L_j z, the anchor's y_j = z).
    # Both sides are float64 and inherit kappa eps from a Cholesky factor or
    # an inverse (kappa the largest condition number), so the bound is 1e-12
    # relative, widened to 64 kappa eps where that is larger: against a
    # 40-digit reference the pass was off by up to 18 kappa eps and the
    # oracle's Knothe-Rosenblatt cost by up to 21 kappa eps.
    # The entropy integrand is relative to the two terms it subtracts.
    rng = np.random.default_rng(100 * k + n)
    eig = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), (k, n)))
    rot = [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(k)]
    nu = GaussianMixtureND(rng.dirichlet(np.ones(k)),
                           rng.uniform(-3.0, 3.0, (k, n)),
                           [q @ np.diag(e) @ q.T for q, e in zip(rot, eig)])
    kappa = float(np.max(eig.max(axis=1) / eig.min(axis=1)))
    rtol = max(1e-12, 64.0 * np.finfo(float).eps * kappa)
    for j in range(k):
        z = rng.standard_normal((n, 50))
        x = nu.means[j][:, None] + nu._chol[j] @ z
        log_ratio, fisher = _integrands(nu, x, j, z)
        (cost,) = _knothe_cost(nu, x, j, z)
        ref_ratio, half_sq, ref_fisher, ref_cost = _pass_oracle(nu, x.T)
        scale = np.abs(ref_ratio - half_sq) + half_sq
        assert np.all(np.abs(log_ratio - ref_ratio) <= rtol * scale), j
        assert np.all(np.abs(fisher - ref_fisher) <= rtol * ref_fisher), j
        assert np.all(np.abs(cost - ref_cost) <= rtol * ref_cost), j


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_knothe_bound_gaussian_closed_form(n):
    # in its principal axes a Gaussian is a product, where the
    # Knothe-Rosenblatt map is the Brenier map, so a randomly rotated
    # N(m, C) must come back with |m|^2 + tr C + n - 2 tr C^{1/2}
    rng = np.random.default_rng(20 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(0.3, 3.0, n)
    mean = rng.uniform(-1.0, 1.0, n)
    nu = gaussian_nd(mean, q @ np.diag(eigs) @ q.T)
    exact = mean @ mean + eigs.sum() + n - 2.0 * np.sqrt(eigs).sum()
    value, err, label = knothe_w2_bound(nu, mc_budget=16384, seed=1)
    assert label.startswith("principal")
    # up to n = 3 the error is the Gauss-Hermite gap plus rounding; above
    # it is one standard error of 8 Sobol replicates, which a t law with 7
    # degrees of freedom exceeds about a third of the time, so allow three
    assert abs(value - exact) <= (err if n <= 3 else 3.0 * err)


@pytest.mark.parametrize("n", [2, 3])
def test_knothe_label_ignores_rounding_level_cost_changes(monkeypatch, n):
    # on a rotated Gaussian both principal orders give the Brenier map, so
    # their costs tie up to rounding; nudging the three costs by 1e-14
    # relative, in every direction, must keep the earlier label and report
    # that rotation's own value and error
    rng = np.random.default_rng(40 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    nu = gaussian_nd(rng.uniform(-1.0, 1.0, n),
                     q @ np.diag(rng.uniform(0.3, 3.0, n)) @ q.T)
    original = densitynd._expectation
    runs = []

    def nudged(*args):
        value, err = original(*args)
        runs.append((value * (1.0 + signs[len(runs)] * 1e-14), err))
        return runs[-1]

    monkeypatch.setattr(densitynd, "_expectation", nudged)
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=3):
        runs.clear()
        value, err, label = knothe_w2_bound(nu)
        assert label == "principal-ascending"
        (kept,), (kept_err,) = runs[1]
        assert (value, err) == (float(kept), float(kept_err + 1e-12 * kept))


@pytest.mark.parametrize("case_id", ["main-2d-prod-0", "main-2d-prod-1",
                                     "main-2d-prod-2", "main-3d-prod-0",
                                     "main-3d-prod-1"])
def test_knothe_bound_tensorizes_on_products(case_id):
    prod = dict(main_corpus())[case_id]
    value, err, _ = knothe_w2_bound(prod.as_mixture())
    parts = [w2_squared_1d_full(h) for h in prod.factors]
    assert (abs(value - sum(v for v, _ in parts))
            <= err + sum(e for _, e in parts))


# ---------------------------------------------------------------------------
# serialization


def test_mixture_json_roundtrip():
    nu = mix2d()
    payload = {"weights": nu.weights.tolist(), "means": nu.means.tolist(),
               "covs": nu.covs.tolist()}
    back = mixture_from_json(payload)
    pts = np.random.default_rng(5).normal(size=(10, 2))
    assert np.allclose(back.logpdf(pts), nu.logpdf(pts))


def test_mixture_json_diagnostics():
    with pytest.raises(ParseError, match="weights"):
        mixture_from_json({"means": [[0.0]], "covs": [[[1.0]]]})
    with pytest.raises(ParseError):
        mixture_from_json("{not json")
    with pytest.raises(ParseError):
        mixture_from_json({"weights": [1.0], "means": [[0.0]],
                           "covs": [[[1.0, 0.0]]]})


def test_mixture_pickles_for_process_pools():
    nu = mix3d()
    back = pickle.loads(pickle.dumps(nu))
    pts = np.random.default_rng(6).normal(size=(5, 3))
    assert np.allclose(back.logpdf(pts), nu.logpdf(pts))
