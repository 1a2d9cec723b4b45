"""Gaussian mixtures in n dimensions and their Gaussian-relative calculus.

The central object is a finite mixture of full-covariance Gaussians. Around
it: the parameters of directional marginals (1-D mixtures), coordinate
slices (the conditional law along one axis at a fixed value of the others,
again a 1-D mixture), relative entropy and Fisher information w.r.t. the
standard Gaussian, and a Knothe-Rosenblatt upper bound on W2 to it.

``entropy_fisher_nd`` computes the two information terms together. For a
Gaussian (one component) they and the Knothe-Rosenblatt cost are closed
forms in the stored Cholesky factor and its inverse, each charged a
rounding term that scales with the covariance's condition number, and no
node set is drawn. For a mixture both are nu-expectations, and one
component pass at a node set gives log p (the log-sum-exp) and grad log p
(the responsibilities). These and the Knothe-Rosenblatt cost go through
one expectation, computed component-wise in whitened coordinates.
Standard Gaussian nodes z, from ``_node_sets`` for every n-D average of a
mixture (the corollary's outer one too: Gauss-Hermite for n <= 3,
scrambled Sobol replicates with an empirical error bar above, drawn by
the package's own generator ``_sobol.sobol``, equal bit for bit to
SciPy's ``qmc.Sobol``), are mapped to x = m_k + L_k z for each anchor
component k, so the rule sees a standard Gaussian regardless of how
eccentric the component is. The pass then whitens x against every
component j with the stored inverse Cholesky factor, y_j = L_j^{-1}
(x - m_j), one small matrix product each, and takes y_k = z for the anchor
itself. Nodes are columns, so every sum over the short coordinate axis is
a run of row adds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from ._sobol import MAX_POINTS, check_count, sobol
from .density1d import (_CLOSED_ROUNDING, _EPS, GaussianMixture1D,
                        _mixture_masses, _phi_inverse)
from .errors import ConditioningError, DomainError, ParseError
from .quadrature import gh_tensor

__all__ = [
    "GaussianMixtureND",
    "SliceBatch",
    "ProductFunction",
    "canonical_directions",
    "marginal_parameters",
    "conditional_slice_batch",
    "marginal_without",
    "entropy_fisher_nd",
    "entropy_rel_gauss_nd",
    "knothe_w2_bound",
    "mixture_from_json",
]

_LOG_2PI = math.log(2.0 * math.pi)
_MIN_EIG = 1e-10


class GaussianMixtureND:
    """Finite Gaussian mixture on R^n with full covariances.

    weights: (K,) positive, summing to one within 1e-12.
    means:   (K, n).
    covs:    (K, n, n) symmetric, smallest eigenvalue > 1e-10.
    """

    __slots__ = ("weights", "means", "covs", "_chol", "_chol_inv")

    def __init__(self, weights, means, covs):
        w = np.asarray(weights, dtype=float).reshape(-1)
        m = np.atleast_2d(np.asarray(means, dtype=float))
        c = np.asarray(covs, dtype=float)
        if c.ndim == 2:
            c = c[None, :, :]
        if w.shape[0] != m.shape[0] or w.shape[0] != c.shape[0]:
            raise DomainError("weights, means and covs must agree in length")
        if c.shape[1] != m.shape[1] or c.shape[1] != c.shape[2]:
            raise DomainError("covariance blocks must be (n, n) with n = dim of means")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
            raise DomainError("mixture parameters must be finite")
        if np.any(w <= 0.0):
            raise DomainError("mixture weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"mixture weights sum to {w.sum()!r}, expected 1")
        # symmetric to rounding, relative to each block's largest entry
        asym = np.max(np.abs(c - np.transpose(c, (0, 2, 1))), axis=(1, 2))
        size = np.maximum(1.0, np.max(np.abs(c), axis=(1, 2)))
        if np.any(asym > 1e-12 * size):
            raise DomainError("covariance blocks must be symmetric")
        eig_min = float(np.min(np.linalg.eigvalsh(c)))
        if eig_min <= _MIN_EIG:
            raise ConditioningError(
                f"covariance eigenvalue {eig_min:.3e} at or below the 1e-10 floor")
        self.weights = w
        self.means = m
        self.covs = 0.5 * (c + np.transpose(c, (0, 2, 1)))
        self._chol = np.linalg.cholesky(self.covs)
        eye = np.eye(self.dim)
        self._chol_inv = np.stack([solve_triangular(low, eye, lower=True)
                                   for low in self._chol])

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    def logpdf(self, x):
        """log p at the rows of x (m, n), through one component pass."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise DomainError(f"points have dim {x.shape[1]}, mixture has {self.dim}")
        _, logs = _component_pass(self, np.ascontiguousarray(x.T))
        return _log_sum_exp(logs)[0] - 0.5 * self.dim * _LOG_2PI

    def marginal(self, axes) -> "GaussianMixtureND":
        axes = np.asarray(axes, dtype=int).reshape(-1)
        if axes.size == 0 or np.any(axes < 0) or np.any(axes >= self.dim):
            raise DomainError(f"marginal axes must lie in [0, {self.dim})")
        if len(set(axes.tolist())) != axes.size:
            raise DomainError("marginal axes must be distinct")
        return GaussianMixtureND(
            self.weights,
            self.means[:, axes],
            self.covs[:, axes[:, None], axes[None, :]])

    def rotate(self, q: np.ndarray) -> "GaussianMixtureND":
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim, self.dim):
            raise DomainError("rotation matrix has the wrong shape")
        if np.max(np.abs(q.T @ q - np.eye(self.dim))) > 1e-10:
            raise DomainError("rotate expects an orthogonal matrix")
        return GaussianMixtureND(
            self.weights,
            self.means @ q.T,
            np.einsum("ab,kbc,dc->kad", q, self.covs, q))

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def covariance(self) -> np.ndarray:
        mu = self.mean()
        second = np.einsum("k,kab->ab", self.weights, self.covs)
        second += np.einsum("k,ka,kb->ab", self.weights, self.means, self.means)
        return second - np.outer(mu, mu)


def canonical_directions(rows) -> np.ndarray:
    """(B, n) rows scaled to unit length, each on its canonical antipodal side.

    Opposite directions give the same marginal distance, so each row is
    flipped until its first entry with |v| > 1e-14 is positive; negative
    zeros are dropped. A zero or non-finite row raises DomainError.
    """
    v = np.atleast_2d(np.asarray(rows, dtype=float))
    norms = np.sqrt(np.vecdot(v, v))  # per row, the bits of np.linalg.norm
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise DomainError("direction must be a nonzero finite vector")
    v = v / norms[:, None]
    big = np.abs(v) > 1e-14
    lead = v[np.arange(v.shape[0]), np.argmax(big, axis=1)]
    return np.where((lead < 0.0)[:, None], -v, v) + 0.0


def marginal_parameters(nu: GaussianMixtureND, rows: np.ndarray):
    """(B, K) means and stds of the laws of <v_b, X> for unit rows v_b.

    Every sum runs coordinate by coordinate, elementwise, so a row's
    parameters have the same bits whatever rows are batched with it. The
    mean is sum_a v_a m_k[a]; the std is |L_k' v| through the Cholesky
    factor L_k, so the variance is non-negative by construction.
    """
    if rows.shape[1] != nu.dim:
        raise DomainError("direction dimension does not match the mixture")
    means, proj, variances = 0.0, 0.0, 0.0
    for a in range(nu.dim):
        means = means + rows[:, a, None] * nu.means[:, a]
        proj = proj + rows[:, a, None, None] * nu._chol[:, a, :]
    for j in range(nu.dim):
        variances = variances + proj[:, :, j] * proj[:, :, j]
    return means, np.sqrt(variances)


@dataclass
class SliceBatch:
    """Conditionals of a mixture along one axis at a batch of pinned points.

    For Gaussian components the conditional standard deviations do not depend
    on the pinned point, so they are shared across the batch. Far in the
    pinned-point tails remote components underflow: a weight at or below
    1e-16 is set to 0 (the component is absent from that row) and the row
    renormalized, keeping at least its largest component.
    """

    weights: np.ndarray       # (B, K) rows sum to 1; 0 = absent
    means: np.ndarray         # (B, K)
    stds: np.ndarray          # (K,)

    def __post_init__(self):
        w = self.weights
        keep = (w > 1e-16) | ((w == w.max(axis=1, keepdims=True))
                              & ~np.any(w > 1e-16, axis=1, keepdims=True))
        w = np.where(keep, w, 0.0)
        self.weights = w / w.sum(axis=1, keepdims=True)


def _partition(nu: GaussianMixtureND, axis: int):
    if not 0 <= axis < nu.dim:
        raise DomainError(f"axis {axis} outside [0, {nu.dim})")
    rest = [j for j in range(nu.dim) if j != axis]
    return np.asarray(rest, dtype=int)


def marginal_without(nu: GaussianMixtureND, axis: int) -> GaussianMixtureND:
    """Marginal on all coordinates except ``axis``."""
    return nu.marginal(_partition(nu, axis))


def conditional_slice_batch(nu: GaussianMixtureND, axis: int,
                            points: np.ndarray) -> SliceBatch:
    """Conditionals of nu along ``axis`` at the pinned points (B, n - 1).

    Component k of the marginal without ``axis`` has whitened coordinates
    y_k = L_k^{-1} (p - m_k) at a pinned point p (one component pass gives
    them and the log-weights). With g_k = L_k^{-1} C_k[rest, axis], the
    conditional of component k has mean m_k[axis] + g_k . y_k and variance
    C_k[axis, axis] - |g_k|^2, and its weight is the responsibility of
    component k for p.
    """
    rest = _partition(nu, axis)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != nu.dim - 1:
        raise DomainError("pinned points must have dimension n - 1")
    sub = nu.marginal(rest)
    ys, logs = _component_pass(sub, np.ascontiguousarray(pts.T))
    _, resp = _log_sum_exp(logs)
    K = nu.n_components
    m_cond = np.empty((pts.shape[0], K))
    s_cond = np.empty(K)
    for k in range(K):
        g = sub._chol_inv[k] @ nu.covs[k][rest, axis]
        var = float(nu.covs[k][axis, axis] - g @ g)
        if var <= _MIN_EIG:
            raise ConditioningError("conditional variance collapsed")
        s_cond[k] = math.sqrt(var)
        m_cond[:, k] = nu.means[k][axis] + g @ ys[k]
    weights = np.ones((pts.shape[0], 1)) if resp is None else resp.T
    return SliceBatch(weights=weights, means=m_cond, stds=s_cond)


class ProductFunction:
    """Tensor product of 1-D mixtures, viewable as a diagonal ND mixture.

    ``factor_rows`` holds the factors as the (weights, means, stds) rows
    the batched 1-D kernels take: read-only (F, K) arrays, K the largest
    component count, built once at construction, with zero weights (mean
    0, std 1) padding the shorter factors.
    """

    def __init__(self, factors):
        if not factors:
            raise DomainError("product needs at least one factor")
        for f in factors:
            if not isinstance(f, GaussianMixture1D):
                raise DomainError("product factors must be 1-D Gaussian mixtures")
        self.factors = list(factors)
        shape = (self.dim, max(f.weights.size for f in self.factors))
        w, m, s = np.zeros(shape), np.zeros(shape), np.ones(shape)
        for i, f in enumerate(self.factors):
            n = f.weights.size
            w[i, :n], m[i, :n], s[i, :n] = f.weights, f.means, f.stds
        for arr in (w, m, s):
            arr.setflags(write=False)
        self.factor_rows = (w, m, s)

    @property
    def dim(self) -> int:
        return len(self.factors)

    def as_mixture(self) -> GaussianMixtureND:
        weights = np.array([1.0])
        means = np.zeros((1, 0))
        var_rows = np.zeros((1, 0))
        for f in self.factors:
            kf = f.weights.shape[0]
            weights = (weights[:, None] * f.weights[None, :]).reshape(-1)
            means = np.concatenate(
                [np.repeat(means, kf, axis=0),
                 np.tile(f.means, means.shape[0])[:, None]], axis=1)
            var_rows = np.concatenate(
                [np.repeat(var_rows, kf, axis=0),
                 np.tile(f.stds ** 2, var_rows.shape[0])[:, None]], axis=1)
        covs = np.zeros((weights.size, self.dim, self.dim))
        idx = np.arange(self.dim)
        covs[:, idx, idx] = var_rows
        weights = weights / weights.sum()
        return GaussianMixtureND(weights, means, covs)


# ---------------------------------------------------------------------------
# expectations over mixtures of two or more components (a Gaussian takes the
# closed forms below): whitened Gauss-Hermite (n <= 3), Sobol replicates above

_GH_ORDER = 64
_GH_CHECK = 48
_QMC_REPLICATES = 8


def _outer_orders(n: int):
    """Gauss-Hermite orders (value, check) of the n-D averages dearer per
    node than the information terms: Knothe-Rosenblatt and slice costs."""
    return (64, 48) if n <= 2 else (20, 14)


def _node_sets(n: int, dim: int, weights, orders, per_rep: int, seed: int):
    """Standard normal node sets in R^dim for an average over a mixture
    with ``weights``, chosen by the dimension n of the problem: one pruned
    Gauss-Hermite tensor rule per order of ``orders`` for n <= 3, cached by
    ``gh_tensor`` and shared by every component; above, Sobol replicates
    in which component k gets the first max(w_k per_rep, 16) points of the
    sequence scrambled with seed seed + 1009 r + k (r the replicate), the
    exact count the rule uses. Yields each set as
    (pairs, dropped, radius): pairs a list of (z, wts) per component, z
    (dim, N) nodes as columns and wts their weights (None for equal
    weights); dropped the weight of the nodes the rule left out and radius
    a bound on their |z|, both 0 for a Sobol replicate."""
    if n <= 3:
        for order in orders:
            rule = gh_tensor(order, dim)
            yield ([(rule.nodes, rule.weights)] * len(weights), rule.dropped,
                   rule.radius)
        return
    alloc = np.maximum((weights * per_rep).astype(int), 16)
    for r in range(_QMC_REPLICATES):
        pairs = []
        for k, size in enumerate(alloc.tolist()):
            u = sobol(dim, size, seed + 1009 * r + k)
            pairs.append((ndtri(np.clip(u.T, 1e-15, 1.0 - 1e-15)), None))
        yield pairs, 0.0, 0.0


def _per_replicate(mc_budget: int) -> int:
    """Sobol nodes per replicate of an expectation over nu: an equal share
    of mc_budget, at least 256."""
    return max(mc_budget // _QMC_REPLICATES, 256)


# the largest mc_budget the engine can draw: _per_replicate of it is MAX_POINTS
_MAX_MC_BUDGET = _QMC_REPLICATES * (MAX_POINTS + 1) - 1


def _mixture_sets(nu: GaussianMixtureND, orders, mc_budget: int, seed: int):
    """Node sets of an expectation over nu, ``_per_replicate`` each."""
    return _node_sets(nu.dim, nu.dim, nu.weights, orders,
                      _per_replicate(mc_budget), seed)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=0) as row adds, in the same order and so bit for bit
    (each column is summed first row to last), without the reduction's
    overhead on a short first axis."""
    out = a[0].copy()
    for row in a[1:]:
        out += row
    return out


def _log_consts(nu: GaussianMixtureND) -> np.ndarray:
    """c_j = log w_j - log det L_j per component j."""
    return np.log(nu.weights) - np.sum(
        np.log(np.diagonal(nu._chol, axis1=1, axis2=2)), axis=1)


def _component_pass(nu: GaussianMixtureND, x, anchor=None, z=None):
    """Whitened coordinates and log-weights of every component at the
    columns of x (n, N).

    Returns (ys, logs): ys[j] = L_j^{-1} (x - m_j) and logs[j] = log w_j -
    log det L_j - |ys[j]|^2 / 2, which is log(w_j N(x; m_j, C_j)) +
    n log(2 pi) / 2. If x = m_k + L_k z for the ``anchor`` k, ys[k] is z
    itself and is not recomputed.
    """
    const = _log_consts(nu)
    ys = []
    logs = np.empty((nu.n_components, x.shape[1]))
    for j in range(nu.n_components):
        y = z if j == anchor else nu._chol_inv[j] @ (x - nu.means[j][:, None])
        ys.append(y)
        logs[j] = const[j] - 0.5 * _row_sum(y * y)
    return ys, logs


def _log_sum_exp(logs: np.ndarray):
    """(log sum_j exp(logs[j]), softmax of logs over j), the softmax
    overwriting logs. One row is its own log-sum-exp, with softmax None."""
    if logs.shape[0] == 1:
        return logs[0], None
    top = np.max(logs, axis=0)
    logs -= top
    np.exp(logs, out=logs)
    total = _row_sum(logs)
    logs /= total
    return top + np.log(total), logs


def _log_ratio_and_score(nu: GaussianMixtureND, x, anchor=None, z=None):
    """log p - log phi_n and grad log p + x at the columns of x (n, N).

    One component pass gives both: the log-sum-exp of the log-weights is
    log p + n log(2 pi) / 2, and the responsibilities r_j weight each
    component's pull -C_j^{-1} (x - m_j) = -L_j^{-T} y_j. ``anchor`` and
    ``z`` are passed on to ``_component_pass``.
    """
    ys, logs = _component_pass(nu, x, anchor, z)
    log_p, resp = _log_sum_exp(logs)
    score = x.copy()
    for j, y in enumerate(ys):
        score -= nu._chol_inv[j].T @ (y if resp is None else resp[j] * y)
    return log_p + 0.5 * _row_sum(x * x), score


def _integrands(nu: GaussianMixtureND, x, anchor, z):
    """The entropy and Fisher information integrands at the columns of
    x = m_anchor + L_anchor z."""
    log_ratio, score = _log_ratio_and_score(nu, x, anchor, z)
    return log_ratio, _row_sum(score * score)


def _entropy_integrand(nu: GaussianMixtureND, x, anchor, z):
    """(log p - log phi_n,) at the columns of x = m_anchor + L_anchor z, by
    the operations of ``_log_ratio_and_score`` without the score."""
    _, logs = _component_pass(nu, x, anchor, z)
    log_p, _ = _log_sum_exp(logs)
    return (log_p + 0.5 * _row_sum(x * x),)


def _information_bounds(nu: GaussianMixtureND, reach, radius):
    """(2, K) bounds on |log p - log phi_n| and |grad log p + x|^2 at
    x = m_k + L_k z, |z| <= radius, for each anchor k, where |x| <= reach[k].

    The log-ratio lies in [c_k - radius^2 / 2, max_j c_j + log K +
    reach^2 / 2] (c_j of ``_log_consts``): the log-sum-exp is at least its
    anchor term and at most its largest constant plus log K. The score is
    x minus an average of C_j^{-1} (x - m_j), so its norm is at most
    reach + max_j ||L_j^{-1}||_2^2 (reach + |m_j|).
    """
    const = _log_consts(nu)
    low = const - 0.5 * radius * radius
    high = np.max(const) + math.log(nu.n_components) + 0.5 * reach * reach
    pull = np.linalg.norm(nu._chol_inv, 2, axis=(1, 2)) ** 2 * (
        reach[:, None] + np.linalg.norm(nu.means, axis=1))
    score = reach + np.max(pull, axis=1)
    return np.array([np.maximum(np.abs(low), np.abs(high)), score * score])


def _entropy_bound(nu: GaussianMixtureND, reach, radius):
    """The log-ratio row of ``_information_bounds``, bit for bit."""
    return _information_bounds(nu, reach, radius)[:1]


def _average(wts, row) -> float:
    """wts @ row, or the mean of row where wts is None (equal weights)."""
    return float(np.mean(row)) if wts is None else float(wts @ row)


def _combine(per_set: np.ndarray, n: int, floor=0.0, dropped=0.0):
    """(value, error) of an n-D average from per-set estimates (last axis):
    for n <= 3 the first Gauss-Hermite order, with error its gap to the
    second plus the rounding ``floor`` plus the ``dropped``-node allowance
    of the pruned rules; above, the Sobol replicates' mean and standard
    error."""
    if n <= 3:
        gap = np.abs(per_set[..., 0] - per_set[..., 1])
        return per_set[..., 0], gap + floor + dropped
    return (per_set.mean(axis=-1),
            per_set.std(axis=-1, ddof=1) / math.sqrt(per_set.shape[-1]))


# Multiple of eps sum w |f| charged for the rounding of an n <= 3 average:
# two orders can agree by symmetry, so their gap alone may read 0. Sized on
# 40 seeded Gaussians (n = 2 and 3, eigenvalues log-uniform in [0.25, 4],
# the sweep of test_gaussian_information_terms_within_error, which runs
# them as two equal halves now that one component takes the closed forms
# below): beyond their gap, the entropy and Fisher averages missed 40-digit
# closed forms by at most 2.3 eps sum w |f|, and closed forms summed in
# double over the eigenvalues sit up to 0.17 of the resulting error from
# those; 16 covers both.
_SUM_ROUNDING = 16.0


def _allowance(nu: GaussianMixtureND, dropped: float, radius: float, bound):
    """The dropped-node allowance of one node set anchored at nu's
    components: its ``dropped`` mass times sum_k w_k B_k per integrand row,
    where ``bound(nu, reach, radius)`` gives B_k as (rows, K), a bound on
    |f| at x = m_k + L_k z over |z| <= radius, and so over |x| <= reach[k]
    = |m_k| + ||L_k||_2 radius."""
    if not dropped:
        return 0.0
    reach = (np.linalg.norm(nu.means, axis=1)
             + np.linalg.norm(nu._chol, 2, axis=(1, 2)) * radius)
    # one product per row, so a row's allowance does not depend on the
    # rows bounded with it
    return dropped * np.array([row @ nu.weights
                               for row in bound(nu, reach, radius)])


def _expectation(nu: GaussianMixtureND, integrand, sets, bound):
    """E_nu of each row of ``integrand(nu, x, k, z)`` with errors, on node
    sets anchored at nu's components: x = m_k + L_k z, and each set sums w_k
    times each row's weighted mean. ``_combine`` gives value and error: for
    Gauss-Hermite sets the gap of two orders, plus _SUM_ROUNDING eps
    sum_k w_k sum w |f| per row on the value order's set, plus every set's
    dropped-node allowance (see ``_allowance``, which calls ``bound``)."""
    totals = []
    size = allowance = 0.0
    for pairs, dropped, radius in sets:
        total = 0.0
        for k, (z, wts) in enumerate(pairs):
            x = nu.means[k][:, None] + nu._chol[k] @ z
            rows = integrand(nu, x, k, z)
            # one reduction per integrand row: one product with the rows
            # stacked would sum in another order and move the last bits
            total = total + np.array([nu.weights[k] * _average(wts, row)
                                      for row in rows])
            if not totals:
                size = size + np.array(
                    [nu.weights[k] * _average(wts, np.abs(row)) for row in rows])
        totals.append(total)
        allowance = allowance + _allowance(nu, dropped, radius, bound)
    return _combine(np.stack(totals, axis=1), nu.dim,
                    floor=_SUM_ROUNDING * _EPS * size, dropped=allowance)


def entropy_fisher_nd(nu: GaussianMixtureND, *, mc_budget: int = 10 ** 6,
                      seed: int = 0):
    """Ent_gamma and Fisher information of the relative density, with errors.

    Returns ((H, H_err), (I, I_err)) for H = E_nu[log(p/phi_n)] and
    I = int |grad f|^2 / f dgamma = E_nu[|grad log p + x|^2]. A Gaussian
    (one component) takes the closed forms of ``_gaussian_information``.
    A mixture takes both from one evaluation per node set: for n <= 3 the
    value is the pruned Gauss-Hermite rule of order _GH_ORDER, and the
    error its gap to order _GH_CHECK plus a rounding floor and the
    dropped-node allowance of ``_information_bounds`` (see
    ``_expectation``); above, the standard error of the Sobol replicates.
    """
    if _closed_form(nu, mc_budget):
        return _gaussian_information(nu, _rounding(nu))[:2]
    value, err = _expectation(nu, _integrands, _mixture_sets(
        nu, (_GH_ORDER, _GH_CHECK), mc_budget, seed), _information_bounds)
    return tuple(zip(value.tolist(), err.tolist()))


def entropy_rel_gauss_nd(nu: GaussianMixtureND, *, mc_budget: int = 10 ** 6,
                         seed: int = 0):
    """(H, H_err) of ``entropy_fisher_nd`` bit for bit, on the same nodes,
    without the Fisher information's score pass."""
    if _closed_form(nu, mc_budget):
        return _gaussian_information(nu, _rounding(nu))[0]
    (value,), (err,) = _expectation(nu, _entropy_integrand, _mixture_sets(
        nu, (_GH_ORDER, _GH_CHECK), mc_budget, seed), _entropy_bound)
    return float(value), float(err)


def _knothe_cost(nu: GaussianMixtureND, x, anchor, z):
    """(|x - S(x)|^2,) at the columns of x = m_anchor + L_anchor z for the
    Knothe-Rosenblatt map S of nu onto gamma_n. With the whitened
    coordinates y_k = L_k^{-1} (x - m_k) of the component pass, x_i given
    x_<i has cdf sum_k pi_ki Phi(y_ki), pi_ki ~ w_k exp(-|y_k,<i|^2 / 2) /
    prod_{j<i} L_k,jj; S_i is Phi^{-1} of it, from the survival side above
    1/2."""
    ys, _ = _component_pass(nu, x, anchor, z)
    log_diag = np.log(np.diagonal(nu._chol, axis1=1, axis2=2))
    log_w = np.log(nu.weights)[:, None] + np.zeros_like(x[0])
    cdf = np.empty_like(x)
    sf = np.empty_like(x)
    for i in range(x.shape[0]):
        _, pi = _log_sum_exp(log_w.copy())
        cdf[i], sf[i] = _mixture_masses([y[i] for y in ys],
                                        [1.0] if pi is None else pi)
        for k, y in enumerate(ys):
            log_w[k] -= 0.5 * y[i] * y[i] + log_diag[k, i]
    gap = x - _phi_inverse(cdf, sf)
    return (_row_sum(gap * gap),)


# |Phi^-1| on density1d's [_PROB_FLOOR, _PROB_CEIL]: ndtri(5e-324) =
# -38.4674
_S_MAX = 38.5


def _knothe_bound(nu: GaussianMixtureND, reach, radius):
    """(1, K) bound on |x - S(x)|^2 where |x| <= reach[k]: each S_i is
    Phi^-1 of a clipped probability, so |S(x)| <= sqrt(n) _S_MAX."""
    return ((reach + math.sqrt(nu.dim) * _S_MAX) ** 2)[None, :]


def knothe_w2_bound(nu: GaussianMixtureND, *, mc_budget: int = 10 ** 6,
                    seed: int = 0):
    """Upper bound on W2^2(nu, gamma_n) as (value, error, label of R): the
    least Knothe-Rosenblatt cost of R nu onto gamma_n, which is rotation
    invariant, over R = identity and the principal axes of Cov nu in
    ascending and descending variance order. It is W2^2 on products and on
    Gaussians. A Gaussian's cost is the closed form of
    ``_gaussian_knothe``. A mixture's is pruned Gauss-Hermite 64/48 up to
    n = 2 and 20/14 at n = 3, with the dropped-node allowance of
    ``_knothe_bound``, and Sobol replicates above; the error adds 1e-12
    value for rounding, above N eps value for the sum of N <= 7,896
    nonnegative node terms (the pruned 20^3 rule). A later R must win by
    more than both errors, so a rounding-level tie keeps the earlier label.
    """
    if _closed_form(nu, mc_budget):
        cost = _gaussian_knothe
    else:
        # rotations keep dimension and weights: one draw serves all three
        sets = list(_mixture_sets(nu, _outer_orders(nu.dim), mc_budget, seed))

        def cost(rotated):
            (value,), (err,) = _expectation(rotated, _knothe_cost, sets,
                                            _knothe_bound)
            return float(value), float(err + 1e-12 * value)

    axes = np.linalg.eigh(nu.covariance())[1]
    best = None
    for label, q in (("identity", np.eye(nu.dim)),
                     ("principal-ascending", axes.T),
                     ("principal-descending", axes[:, ::-1].T)):
        value, err = cost(nu.rotate(q))
        if best is None or value < best[0] - (err + best[1]):
            best = (value, err, label)
    return best


# ---------------------------------------------------------------------------
# one-component measures: closed forms from the stored factors

# A Gaussian closed form is charged density1d's _CLOSED_ROUNDING times
# n kappa(C) eps sum |terms| for its rounding, kappa(C) = (||L||_2
# ||L^-1||_2)^2 the covariance's condition number: the Cholesky factor and
# its inverse carry relative errors of about n kappa eps (Higham, Accuracy
# and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 8 and 10).
# Against 40-digit closed forms on 760 seeded Gaussians at n = 2 to 5,
# eigenvalues log-uniform on ranges from [0.9, 1.1] to [1e-4, 1e4], no
# miss of H, I, delta_LS, the cost or the corollary bound passed 0.33
# n kappa eps sum |terms|, 0.083 of this charge
# (test_gaussian_closed_forms_cover_mpmath); the 1-D closed forms, where
# n kappa = 1, set the constant.


def _closed_form(nu: GaussianMixtureND, mc_budget: int) -> bool:
    """Whether nu takes the closed forms: one component. The budget is
    checked first, as the node sets would check it, so the route does not
    change which budgets are accepted."""
    if nu.n_components > 1:
        return False
    if nu.dim > 3:
        check_count(_per_replicate(mc_budget))
    return True


def _rounding(nu: GaussianMixtureND) -> float:
    """_CLOSED_ROUNDING n kappa(C) eps for a one-component nu: a closed form
    is charged this times sum |terms|. kappa takes two SVDs, so a caller
    takes it once per measure and scales it for each closed form."""
    kappa = (np.linalg.norm(nu._chol[0], 2)
             * np.linalg.norm(nu._chol_inv[0], 2)) ** 2
    return float(_CLOSED_ROUNDING * nu.dim * kappa * _EPS)


def _gaussian_information(nu: GaussianMixtureND, unit: float):
    """((H, err), (I, err), (delta, err)) of N(m, C) = nu against gamma_n:
    H = (tr C + |m|^2 - n - log det C) / 2, I = |m|^2 + tr C - 2 n +
    tr C^-1 and delta_LS = I / 2 - H = (tr C^-1 - n + log det C) / 2,
    taken directly so the |m|^2 and tr C terms never cancel in floating
    point. tr C^-1 = ||L^-1||_F^2 and log det C = 2 sum log L_ii come from
    the stored factors; each error is ``unit`` = ``_rounding(nu)`` times
    the sum of its terms' absolute values."""
    n, m = nu.dim, nu.means[0]
    mm, tr = float(m @ m), float(np.trace(nu.covs[0]))
    tr_inv = float(np.sum(nu._chol_inv[0] ** 2))
    log_det = 2.0 * float(np.sum(np.log(np.diagonal(nu._chol[0]))))
    h = (0.5 * tr, 0.5 * mm, -0.5 * n, -0.5 * log_det)
    fi = (mm, tr, -2.0 * n, tr_inv)
    delta = (0.5 * tr_inv, -0.5 * n, 0.5 * log_det)
    return tuple((sum(t), unit * sum(map(abs, t))) for t in (h, fi, delta))


def _gaussian_knothe(nu: GaussianMixtureND):
    """(cost, err) of the Knothe-Rosenblatt map of N(m, C) = nu onto
    gamma_n, x -> L^-1 (x - m): E |x - L^-1 (x - m)|^2 = |m|^2 +
    ||L - I||_F^2, with err the ``_rounding`` of |m|^2, ||L||_F^2,
    2 tr L and n, the terms of the expanded square."""
    m, low = nu.means[0], nu._chol[0]
    mm = float(m @ m)
    gap = low - np.eye(nu.dim)
    return (mm + float(np.sum(gap * gap)),
            _rounding(nu) * sum(map(abs, (mm, float(np.sum(low * low)),
                                          2.0 * float(np.trace(low)),
                                          nu.dim))))


def mixture_from_json(payload) -> GaussianMixtureND:
    """Build a mixture from a JSON object {weights, means, covs}.

    Accepts a dict, a JSON string, or bytes. Raises ParseError with a
    description of the offending field.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError("mixture JSON must be an object")
    missing = {"weights", "means", "covs"} - set(payload)
    if missing:
        raise ParseError(f"mixture JSON missing fields: {sorted(missing)}")
    try:
        return GaussianMixtureND(payload["weights"], payload["means"],
                                 payload["covs"])
    except (DomainError, ConditioningError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid mixture parameters: {exc}") from None
