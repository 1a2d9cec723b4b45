"""Gaussian mixtures in n dimensions and their Gaussian-relative calculus.

The central object is a finite mixture of full-covariance Gaussians. Around
it: the parameters of directional marginals (1-D mixtures), coordinate
slices (the conditional law along one axis at a fixed value of the others,
again a 1-D mixture), relative entropy and Fisher information w.r.t. the
standard Gaussian, and a Knothe-Rosenblatt upper bound on W2 to it.

``entropy_fisher_nd`` computes the two information terms together: both are
nu-expectations, and one component pass at a node set gives log p (the
log-sum-exp) and grad log p (the responsibilities). These and the
Knothe-Rosenblatt cost go through one expectation, computed component-wise
in whitened coordinates: for each anchor component k, standard Gaussian
nodes z (Gauss-Hermite for n <= 3, scrambled Sobol replicates with an
empirical error bar above) are mapped to x = m_k + L_k z, so the rule sees a
standard Gaussian regardless of how eccentric the component is. The pass
then whitens x against every component j with the stored inverse Cholesky
factor, y_j = L_j^{-1} (x - m_j), one small matrix product each, and takes
y_k = z for the anchor itself. Nodes are columns, so every sum over the
short coordinate axis is a run of row adds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

from .density1d import _PROB_CEIL, _PROB_FLOOR, GaussianMixture1D
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
        if np.max(np.abs(c - np.transpose(c, (0, 2, 1)))) > 1e-12:
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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        counts = rng.multinomial(size, self.weights)
        out = np.empty((size, self.dim))
        pos = 0
        for k, cnt in enumerate(counts):
            if cnt == 0:
                continue
            z = rng.standard_normal((cnt, self.dim))
            out[pos:pos + cnt] = self.means[k] + z @ self._chol[k].T
            pos += cnt
        rng.shuffle(out, axis=0)
        return out

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
    """(B, K) means and stds of the laws of <v_b, X> for unit rows v_b."""
    if rows.shape[1] != nu.dim:
        raise DomainError("direction dimension does not match the mixture")
    means = rows @ nu.means.T
    variances = np.einsum("ba,kac,bc->bk", rows, nu.covs, rows)
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

    axis: int
    weights: np.ndarray       # (B, K) rows sum to 1; 0 = absent
    means: np.ndarray         # (B, K)
    stds: np.ndarray          # (K,)

    def __post_init__(self):
        w = self.weights
        keep = (w > 1e-16) | ((w == w.max(axis=1, keepdims=True))
                              & ~np.any(w > 1e-16, axis=1, keepdims=True))
        w = np.where(keep, w, 0.0)
        self.weights = w / w.sum(axis=1, keepdims=True)

    def mixture(self, b: int) -> GaussianMixture1D:
        """Row b as a 1-D mixture of its present components."""
        keep = self.weights[b] > 0.0
        return GaussianMixture1D(self.weights[b][keep], self.means[b][keep],
                                 self.stds[keep])


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
    return SliceBatch(axis=axis, weights=weights, means=m_cond, stds=s_cond)


class ProductFunction:
    """Tensor product of 1-D mixtures, viewable as a diagonal ND mixture."""

    def __init__(self, factors):
        if not factors:
            raise DomainError("product needs at least one factor")
        for f in factors:
            if not isinstance(f, GaussianMixture1D):
                raise DomainError("product factors must be 1-D Gaussian mixtures")
        self.factors = list(factors)

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
# mixture expectations: whitened Gauss-Hermite (n <= 3), Sobol replicates above

_GH_ORDER = 64
_GH_CHECK = 48
_QMC_REPLICATES = 8


def _row_sum(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=0) as row adds, in the same order and so bit for bit
    (each column is summed first row to last), without the reduction's
    overhead on a short first axis."""
    out = a[0].copy()
    for row in a[1:]:
        out += row
    return out


def _component_pass(nu: GaussianMixtureND, x, anchor=None, z=None):
    """Whitened coordinates and log-weights of every component at the
    columns of x (n, N).

    Returns (ys, logs): ys[j] = L_j^{-1} (x - m_j) and logs[j] = log w_j -
    log det L_j - |ys[j]|^2 / 2, which is log(w_j N(x; m_j, C_j)) +
    n log(2 pi) / 2. If x = m_k + L_k z for the ``anchor`` k, ys[k] is z
    itself and is not recomputed.
    """
    const = np.log(nu.weights) - np.sum(
        np.log(np.diagonal(nu._chol, axis1=1, axis2=2)), axis=1)
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


def _expect_gh(nu: GaussianMixtureND, order: int, integrand) -> np.ndarray:
    nodes, wts = gh_tensor(order, nu.dim)
    z = np.ascontiguousarray(nodes.T)
    total = 0.0
    for k in range(nu.n_components):
        x = nu.means[k][:, None] + nu._chol[k] @ z
        # one wts @ row per integrand: one product with the rows stacked
        # would sum in another order and move the last bits
        total = total + np.array([nu.weights[k] * float(wts @ row)
                                  for row in integrand(nu, x, k, z)])
    return total


def _expect_qmc(nu: GaussianMixtureND, budget: int, seed: int, integrand):
    per_rep = max(budget // _QMC_REPLICATES, 256)
    alloc = np.maximum((nu.weights * per_rep).astype(int), 16)
    reps = []
    for r in range(_QMC_REPLICATES):
        total = 0.0
        for k in range(nu.n_components):
            # Sobol balance wants powers of two; draw up and trim
            m_bits = max(int(math.ceil(math.log2(alloc[k]))), 4)
            engine = qmc.Sobol(d=nu.dim, scramble=True,
                               seed=seed + 1009 * r + k)
            u = engine.random_base2(m_bits)[: int(alloc[k])]
            z = ndtri(np.clip(np.ascontiguousarray(u.T), 1e-15, 1.0 - 1e-15))
            x = nu.means[k][:, None] + nu._chol[k] @ z
            total = total + np.array([nu.weights[k] * float(np.mean(row))
                                      for row in integrand(nu, x, k, z)])
        reps.append(total)
    reps = np.stack(reps, axis=1)
    return (reps.mean(axis=1),
            reps.std(axis=1, ddof=1) / math.sqrt(_QMC_REPLICATES))


def _expectation(nu: GaussianMixtureND, integrand, orders, mc_budget: int,
                 seed: int):
    """E_nu of each row of ``integrand(nu, x)`` with errors: the gap between
    Gauss-Hermite ``orders`` for n <= 3, Sobol replicates above."""
    if nu.dim > 3:
        return _expect_qmc(nu, mc_budget, seed, integrand)
    value, check = (_expect_gh(nu, order, integrand) for order in orders)
    return value, np.abs(value - check) + 1e-15


def entropy_fisher_nd(nu: GaussianMixtureND, *, mc_budget: int = 10 ** 6,
                      seed: int = 0):
    """Ent_gamma and Fisher information of the relative density, with errors.

    Returns ((H, H_err), (I, I_err)) for H = E_nu[log(p/phi_n)] and
    I = int |grad f|^2 / f dgamma = E_nu[|grad log p + x|^2], both from one
    evaluation per node set. For n <= 3 the value is the Gauss-Hermite
    rule of order _GH_ORDER and the error its gap to order _GH_CHECK;
    above, the standard error of the Sobol replicates.
    """
    value, err = _expectation(nu, _integrands, (_GH_ORDER, _GH_CHECK),
                              mc_budget, seed)
    return tuple(zip(value.tolist(), err.tolist()))


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
    cdf = np.zeros_like(x)
    sf = np.zeros_like(x)
    for i in range(x.shape[0]):
        _, pi = _log_sum_exp(log_w.copy())
        for k, y in enumerate(ys):
            tail = ndtr(-np.abs(y[i]))
            left = y[i] < 0.0
            p = 1.0 if pi is None else pi[k]
            cdf[i] += p * np.where(left, tail, 1.0 - tail)
            sf[i] += p * np.where(left, 1.0 - tail, tail)
            log_w[k] -= 0.5 * y[i] * y[i] + log_diag[k, i]
    np.clip(cdf, _PROB_FLOOR, _PROB_CEIL, out=cdf)
    np.clip(sf, _PROB_FLOOR, _PROB_CEIL, out=sf)
    t = ndtri(np.where(cdf <= 0.5, cdf, sf))
    gap = x - np.where(cdf <= 0.5, t, -t)
    return (_row_sum(gap * gap),)


def knothe_w2_bound(nu: GaussianMixtureND, *, mc_budget: int = 10 ** 6,
                    seed: int = 0):
    """Upper bound on W2^2(nu, gamma_n) as (value, error, label of R): the
    least Knothe-Rosenblatt cost of R nu onto gamma_n, which is rotation
    invariant, over R = identity and the principal axes of Cov nu in
    ascending and descending variance order. It is W2^2 on products and on
    Gaussians. Gauss-Hermite 64/48 up to n = 2 and 20/14 at n = 3; the
    error adds 1e-12 value for rounding, above N eps value for the sum of
    N <= 20^3 nonnegative node terms. A later R must win by more than both
    errors, so a rounding-level tie keeps the earlier label.
    """
    orders = (64, 48) if nu.dim <= 2 else (20, 14)
    axes = np.linalg.eigh(nu.covariance())[1]
    best = None
    for label, q in (("identity", np.eye(nu.dim)),
                     ("principal-ascending", axes.T),
                     ("principal-descending", axes[:, ::-1].T)):
        (value,), (err,) = _expectation(nu.rotate(q), _knothe_cost, orders,
                                        mc_budget, seed)
        err = float(err + 1e-12 * value)
        if best is None or value < best[0] - (err + best[1]):
            best = (float(value), err, label)
    return best


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
    except (DomainError, ConditioningError, ValueError) as exc:
        raise ParseError(f"invalid mixture parameters: {exc}") from None
