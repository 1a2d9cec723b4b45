"""One-dimensional densities and their entropy and Fisher information
relative to the Gaussian.

The reference measure throughout is the standard Gaussian gamma with density
phi(x) = exp(-x^2/2)/sqrt(2 pi). Both relative functionals are expectations
under the density p itself, in log space: H(nu | gamma) = E_nu[log p - log phi]
and I(nu | gamma) = E_nu[(score + x)^2] with score = (log p)'. Neither forms
p/phi, which overflows for wide densities. A single Gaussian N(m, s^2)
takes both, and delta_LS = I / 2 - H, in closed form instead, charged for
rounding only, so a narrow one is not charged for tails it does not have.

Densities come in three concrete flavors:

* ``StandardGaussian``: gamma itself, with exact cdf/quantile.
* ``GaussianMixture1D``: finite Gaussian mixtures, evaluated by one
  component pass that ``transport1d``'s row kernel shares: z_k, the
  log-sum-exp of the component log-densities with the responsibilities,
  and F and 1 - F from one ndtr(-|z_k|) per component; quantile by one
  safeguarded Newton solve of Phi^{-1}(F(x)) = z inside the closed-form
  bracket [min_k, max_k] (m_k + s_k z). On that Gaussian scale both tails
  keep relative accuracy, the upper one through the survival side.
* ``GridDensity1D``: strictly positive tabulated densities, log-linear
  between nodes, with a Gaussian tail on each side matched in value and
  log-slope at the end node; cdf and quantile are closed-form per piece, so
  no iteration is ever needed.

The batched kernels, ``_information_rows`` here and ``transport1d``'s
distance kernels, read many mixtures as zero-padded (B, K) rows, which
``_RowMixtures`` alone splits into Gaussians and rows to integrate.

Regularity beyond positivity (continuity, a differentiable log-density,
normalization) is the caller's responsibility; constructors validate only
what can be checked cheaply.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .errors import DomainError, EvaluationError, ParseError, UnderflowError
from .quadrature import QuadResult, adaptive_quad, adaptive_quad_rows

__all__ = [
    "SQRT_2PI",
    "WORKING_RADIUS",
    "gauss_pdf",
    "gauss_logpdf",
    "Density1D",
    "StandardGaussian",
    "GaussianMixture1D",
    "GridDensity1D",
    "entropy_fisher_1d",
    "load_grid_csv",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Radius of the default working domain for gamma-weighted integrals; the
# standard Gaussian mass outside [-R, R] is ~1.5e-23, far below every
# tolerance used here. Integrals weighted by heavier measures extend the
# interval to that measure's own tails instead.
WORKING_RADIUS = 10.0

# Probabilities are clipped into [_PROB_FLOOR, _PROB_CEIL] before a normal
# quantile is taken of them, so the result stays finite. The mixture
# quantile solve reads S through the clip, which would be flat below a
# higher floor, so the floor is the least positive double.
_PROB_FLOOR = 5e-324
_PROB_CEIL = 1.0 - 1e-16

# Cap on the mixture quantile solve's iterations. Mixtures with means
# within +-30 and stds in [1e-4, 30] took at most 22 per point, with mass
# down to 1e-300.
_SOLVE_STEPS = 200

# Mass that an integral over a density leaves outside its interval: the
# expectations below and ``transport1d``'s distance integrals alike.
_TAIL_MASS = 1e-15
_EPS = float(np.finfo(float).eps)


def gauss_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / SQRT_2PI


def gauss_logpdf(x):
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - _LOG_SQRT_2PI


def _components(x, means, stds):
    """z_k = (x - m_k) / s_k for each component of a 1-D Gaussian mixture,
    the start of its component pass. Each parameter of the pass is a
    sequence over the components whose items broadcast against x: a
    mixture's (K,) arrays, or (K, P, 1) columns for P mixtures, one per row
    of x (P, n). Components are combined by element-wise maxima and
    left-to-right adds, so the value at a point does not depend on the
    other points or rows evaluated with it.
    """
    return [(x - m) / s for m, s in zip(means, stds)]


def _columns(params, rows):
    """The (B, K) row parameters of ``rows`` as the (K, P, 1) columns
    that the component pass reads (see ``_components``)."""
    return [p[rows].T[:, :, None] for p in params]


def _mixture_log(zs, log_w, log_norm):
    """(log u, e, total) of a mixture from its ``_components`` zs, with
    log_norm_k = log(s_k sqrt(2 pi)): log u is the log-sum-exp of
    log(w_k N_k) = -z_k^2 / 2 - log_norm_k + log w_k, e[k] is
    exp(log(w_k N_k) - max_j log(w_j N_j)) and total their sum, so that
    the responsibilities are e[k] / total."""
    logs = [-0.5 * z * z - c + lw for z, c, lw in zip(zs, log_norm, log_w)]
    top = functools.reduce(np.maximum, logs)
    e = [np.exp(v - top) for v in logs]
    total = sum(e)
    return top + np.log(total), e, total


def _mixture_score(zs, e, total, stds):
    """The score (log u)' of a mixture from its ``_components`` zs and the
    ``_mixture_log`` terms e and total: the responsibility-weighted
    component scores -z_k / s_k."""
    return -sum(r * z / s for r, z, s in zip(e, zs, stds)) / total


def _mixture_masses(zs, weights):
    """(F, 1 - F) of a mixture from its ``_components`` zs. One
    ndtr(-|z_k|) per component gives both of its sides, so both tails
    keep relative accuracy."""
    F = Fc = 0.0
    for z, w in zip(zs, weights):
        tail = ndtr(-np.abs(z))
        rest = 1.0 - tail
        left = z < 0.0
        F = F + np.where(left, tail, rest) * w
        Fc = Fc + np.where(left, rest, tail) * w
    return F, Fc


def _phi_inverse(F, Fc):
    """S = Phi^{-1}(F) from two-sided masses (F, 1 - F), each clipped to
    [_PROB_FLOOR, _PROB_CEIL]; from the survival side where F > 1/2."""
    F = np.clip(F, _PROB_FLOOR, _PROB_CEIL)
    Fc = np.clip(Fc, _PROB_FLOOR, _PROB_CEIL)
    low = F <= 0.5
    S = ndtri(np.where(low, F, Fc))
    return np.where(low, S, -S)


def _mixture_span(means, stds, present, tail_mass):
    """(lo, hi) over the last axis: the least m_k - z s_k and the greatest
    m_k + z s_k of the ``present`` components, z = -Phi^{-1}(tail_mass / 2),
    so that each component leaves at most tail_mass / 2 on either side."""
    z = float(-ndtri(tail_mass / 2.0))
    lo = np.min(np.where(present, means - z * stds, np.inf), axis=-1)
    hi = np.max(np.where(present, means + z * stds, -np.inf), axis=-1)
    return lo, hi


def _gauss_distance(s):
    """d(N(m, s^2), gamma) = 1 - min(s, 1/s): S = (x - m) / s has the
    constant derivative 1/s (see ``transport1d.gauss_distance_rows``)."""
    return 1.0 - np.minimum(s, 1.0 / s)


class _RowMixtures:
    """The (B, K) row mixtures u_b = sum_k w_bk N(m_bk, s_bk^2) of the
    batched kernels, split as they all treat them. A zero weight marks an
    absent component, whose mean and std must still be finite; ``stds``
    may be (K,), shared by all rows. ``one`` marks the rows with one
    present component, the Gaussians that take closed forms, whose index,
    mean and std are ``k_one``, ``m_one`` and ``s_one``, and whose
    distance to gamma is ``closed``. The other rows, at indices ``quad``,
    keep their ``present`` mask, their span [lo, hi] (``_mixture_span``
    at _TAIL_MASS) and the (w, m, s, log w, log(s sqrt(2 pi))) arrays that
    ``_columns`` hands to the component pass."""

    def __init__(self, weights, means, stds):
        w = np.atleast_2d(np.asarray(weights, dtype=float))
        m = np.atleast_2d(np.asarray(means, dtype=float))
        s = np.asarray(stds, dtype=float)
        if s.shape != w.shape:
            s = np.broadcast_to(s, w.shape)
        present = w > 0.0
        self.one = present.sum(axis=1) == 1
        self.k_one = np.argmax(present[self.one], axis=1)
        self.m_one = m[self.one, self.k_one]
        self.s_one = s[self.one, self.k_one]
        self.quad = np.flatnonzero(~self.one)
        self.present = present[self.quad]
        if not self.quad.size:
            # no row to integrate: the callers read only the (0, K) shapes
            self.lo = self.hi = np.empty(0)
            self.params = (np.empty(self.present.shape),) * 5
            return
        w, m, s = w[self.quad], m[self.quad], s[self.quad]
        self.lo, self.hi = _mixture_span(m, s, self.present, _TAIL_MASS)
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        self.params = (w, m, s, log_w, np.log(s * SQRT_2PI))

    @property
    def closed(self):
        return _gauss_distance(self.s_one)


class Density1D:
    """A strictly positive probability density on the line.

    All methods are vectorized over ndarray inputs. Masses go through one
    private pair: ``_mass(x)`` gives (m, upper), m = F(x) where F(x) <= 1/2
    and 1 - F(x) where ``upper``, and ``_invert(m, upper)`` inverts it.
    Each density defines ``_masses``, ``_mass`` unclipped, which ``cdf``
    and ``survival`` read too. ``_mass_logpdf(x)`` and
    ``_mass_logpdf_pdf(x)`` add logpdf, and pdf, at the same points, so a
    grid locates them, or a mixture runs its pass, once. gamma and a grid
    pair pdf with the score (log p)' in ``_score_pdf(x)``, what their
    Fisher integral reads; a mixture's score is ``_mixture_score`` of its
    ``_log_pass``. ``_panel_mass_logpdf_pdf(x)`` reads the rows of x as
    quadrature panels, which a grid locates once each.
    """

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def logpdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        m, upper = self._masses(np.asarray(x, dtype=float))
        return np.where(upper, 1.0 - m, m)

    def survival(self, x):
        m, upper = self._masses(np.asarray(x, dtype=float))
        return np.where(upper, m, 1.0 - m)

    def _masses(self, x):
        """``_mass`` at the points x (an ndarray), unclipped."""
        raise NotImplementedError

    def _mass(self, x):
        """(m, upper) at the points x, m clipped to [_PROB_FLOOR, _PROB_CEIL]."""
        m, upper = self._masses(np.asarray(x, dtype=float))
        return np.clip(m, _PROB_FLOOR, _PROB_CEIL), upper

    def _mass_logpdf(self, x):
        """(m, upper, logpdf) at the points x, each as ``_mass`` and
        ``logpdf`` give it: what a transport map from this density reads."""
        x = np.asarray(x, dtype=float)
        return (*self._mass(x), self.logpdf(x))

    def _mass_logpdf_pdf(self, x):
        """``_mass_logpdf`` and ``pdf`` at the points x: what an integral
        over this density of its transport map reads."""
        m, upper, logpdf = self._mass_logpdf(x)
        return m, upper, logpdf, np.exp(logpdf)

    def _panel_mass_logpdf_pdf(self, x):
        """``_mass_logpdf_pdf`` at the (P, n) points x, the ascending nodes
        of P quadrature panels, one panel a row, each array shaped like x:
        here as one set of points."""
        return tuple(a.reshape(x.shape)
                     for a in self._mass_logpdf_pdf(x.ravel()))

    def _invert(self, m, upper):
        """The x with F(x) = m, or 1 - F(x) = m where ``upper``; any m in
        (0, 1), elementwise and shaped like m."""
        raise NotImplementedError

    def quantile(self, p):
        return self._quantile(p, False)

    def quantile_sf(self, s):
        """Upper quantile from survival mass, accurate for small ``s``."""
        return self._quantile(s, True)

    def _quantile(self, m, upper):
        m = np.asarray(m, dtype=float)
        # NaN fails both comparisons, so this rejects non-finite m too
        if not np.logical_and(m > 0.0, m < 1.0).all():
            raise DomainError("probability arguments must lie strictly in (0, 1)")
        x = self._invert(m, np.full(m.shape, upper))
        return float(x) if m.ndim == 0 else x

    def working_interval(self, tail_mass: float = 1e-14):
        """Interval carrying all but ``tail_mass`` of the probability."""
        raise NotImplementedError


class StandardGaussian(Density1D):
    """The standard Gaussian measure gamma."""

    def logpdf(self, x):
        return gauss_logpdf(x)

    def _score_pdf(self, x):
        return -np.asarray(x, dtype=float), self.pdf(x)

    def _masses(self, x):
        return ndtr(-np.abs(x)), x > 0.0

    def _invert(self, m, upper):
        z = ndtri(m)
        return np.where(upper, -z, z)

    def working_interval(self, tail_mass: float = 1e-14):
        z = float(-ndtri(tail_mass / 2.0))
        return (-z, z)

    def __repr__(self):
        return "StandardGaussian()"


class GaussianMixture1D(Density1D):
    """Finite Gaussian mixture sum_k w_k N(m_k, s_k^2).

    Weights must be positive and sum to 1 within 1e-12; standard deviations
    must be positive and finite. Every evaluation is the component pass
    that ``transport1d``'s row kernel runs, with log w_k and
    log(s_k sqrt(2 pi)) taken once at construction.
    """

    __slots__ = ("weights", "means", "stds", "_log_w", "_log_norm")

    def __init__(self, weights, means, stds):
        w = np.atleast_1d(np.asarray(weights, dtype=float)).copy()
        m = np.atleast_1d(np.asarray(means, dtype=float)).copy()
        s = np.atleast_1d(np.asarray(stds, dtype=float)).copy()
        if not (w.shape == m.shape == s.shape) or w.ndim != 1 or w.size == 0:
            raise DomainError("weights, means, stds must be equal-length 1-D sequences")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise DomainError("mixture parameters must be finite")
        if np.any(w <= 0.0):
            raise DomainError("mixture weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError(f"mixture weights sum to {float(w.sum())!r}, expected 1 within 1e-12")
        if np.any(s <= 0.0):
            raise DomainError("mixture stds must be positive")
        self.weights = w
        self.means = m
        self.stds = s
        self._log_w = np.log(w)
        self._log_norm = np.log(s * SQRT_2PI)
        for arr in (w, m, s, self._log_w, self._log_norm):
            arr.setflags(write=False)

    # -- basic evaluations -------------------------------------------------

    def _log_pass(self, x):
        """(zs, log u, e, total) at the points x: ``_components`` and
        ``_mixture_log``."""
        zs = _components(np.asarray(x, dtype=float), self.means, self.stds)
        return (zs, *_mixture_log(zs, self._log_w, self._log_norm))

    def logpdf(self, x):
        return self._log_pass(x)[1]

    def _masses_of(self, zs):
        """``_masses`` from the ``_components`` zs."""
        F, Fc = _mixture_masses(zs, self.weights)
        upper = F > 0.5
        return np.where(upper, Fc, F), upper

    def _masses(self, x):
        return self._masses_of(_components(x, self.means, self.stds))

    def _mass_logpdf(self, x):
        """One component pass serves the masses and the logpdf."""
        zs, logpdf, _, _ = self._log_pass(x)
        m, upper = self._masses_of(zs)
        return np.clip(m, _PROB_FLOOR, _PROB_CEIL), upper, logpdf

    def mean(self):
        return float(self.weights @ self.means)

    def variance(self):
        m = self.mean()
        return float(self.weights @ (self.stds**2 + self.means**2) - m * m)

    def working_interval(self, tail_mass: float = 1e-14):
        lo, hi = _mixture_span(self.means, self.stds, True, tail_mass)
        return (float(lo), float(hi))

    def __repr__(self):
        return (f"GaussianMixture1D(weights={self.weights.tolist()}, "
                f"means={self.means.tolist()}, stds={self.stds.tolist()})")

    # -- quantiles -----------------------------------------------------------

    def _gauss_scale(self, x):
        """(S, log S', (log u)') at the points x (n,), for S = Phi^{-1} o F:
        one component pass, with log S' = log u - log phi(S)."""
        zs, logpdf, e, total = self._log_pass(x)
        S = _phi_inverse(*_mixture_masses(zs, self.weights))
        return (S, logpdf - gauss_logpdf(S),
                _mixture_score(zs, e, total, self.stds))

    # the benchmark's tracer (bench/layertrace.py) wraps both by name in
    # the class's own dict
    quantile = Density1D.quantile
    quantile_sf = Density1D.quantile_sf

    def _invert(self, m, upper):
        """The root of S(x) = Phi^{-1}(m), or -Phi^{-1}(m) where ``upper``:
        one solve for both sides."""
        z = ndtri(m)
        return self._solve_gauss_scale(np.where(upper, -z, z))

    def _solve_gauss_scale(self, z):
        """The x with S(x) = z, elementwise.

        F is a weighted average of the Phi((x - m_k) / s_k), so S <= z at
        min_k(m_k + s_k z) and S >= z at max_k(m_k + s_k z): a closed-form
        bracket, which is the root when K = 1. From the moment-matched
        Gaussian's quantile the iteration takes Newton steps on S, nearly
        linear in x, with Halley's correction S''/S' = (log u)' + S S' (its
        factor held in [1/2, 2]); a step that leaves the shrinking bracket,
        or fails to halve the step before last, becomes bisection. A point
        stops when its move is below tol = 1e-13 (1 + |x|), or when two steps
        in a row predict an error below tol / 100 after the second (at least
        quadratic convergence: about last^3 / older^2).
        """
        shape = np.shape(z)
        z = np.atleast_1d(z).ravel()
        ends = self.means + z[:, None] * self.stds
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        x = np.clip(self.mean() + math.sqrt(self.variance()) * z, lo, hi)
        older = last = hi - lo  # each point's last two moves
        fast = np.zeros(z.shape, dtype=bool)  # the last move was no bisection
        active = hi > lo
        for _ in range(_SOLVE_STEPS):
            if not active.any():
                return x.reshape(shape)
            S, log_slope, score = self._gauss_scale(x)
            r = S - z
            lo = np.where(r < 0.0, x, lo)
            hi = np.where(r > 0.0, x, hi)
            # a flat stretch of F sends S' to 0 and the step to +-inf or NaN
            with np.errstate(over="ignore", invalid="ignore"):
                step = r * np.exp(-log_slope)
                halley = 1.0 - 0.5 * step * (score + S * np.exp(log_slope))
                step /= np.minimum(np.maximum(halley, 0.5), 2.0)
            xn = x - step
            # the negated test also sends NaN to bisection
            bisect = ~((xn >= lo) & (xn <= hi) & (np.abs(step) <= 0.5 * older))
            xn = np.where(bisect, 0.5 * (lo + hi), xn)
            older, last = last, np.abs(xn - x)
            tol = 1e-13 * (1.0 + np.abs(x))
            settled = (last <= tol) | (fast & ~bisect & (
                last * last * last <= 0.01 * tol * older * older))
            fast = ~bisect
            moving = active & (r != 0.0)
            active = moving & ~settled
            x = np.where(moving, xn, x)
        raise EvaluationError("mixture quantile solve did not converge")


def _expm1_over(d):
    """expm1(d)/d with the d -> 0 limit."""
    d = np.asarray(d, dtype=float)
    small = np.abs(d) < 1e-12
    safe = np.where(small, 1.0, d)
    return np.where(small, 1.0 + 0.5 * d, np.expm1(safe) / safe)


class GridDensity1D(Density1D):
    """Tabulated density, log-linear between nodes, Gaussian tails.

    The density is a table of N + 1 pieces over the N nodes x_0 < ... <
    x_{N-1}. Piece 0 is the left tail (-inf, x_0), piece i = 1..N-1 the
    panel [x_{i-1}, x_i), piece N the right tail [x_{N-1}, inf), and x lies
    in piece searchsorted(nodes, x, side="right"). On each piece

        log p(x) = lv + u (slope - curv u / 2),  u = (x - anchor) / scale,

    and the score is slope - curv (x - anchor) / scale^2. A panel has its
    left node as anchor, scale 1, that node's log value and the panel's
    log-slope, and curv 0. A tail is exp(log_amp) times the unnormalized
    N(mean, std^2): anchor mean, scale std, lv log_amp, slope 0 and curv 1.
    Its std comes from the one-sided curvature of the log-density at the
    end node (quadratic fit through the three outermost nodes, fallback 1.0
    when the fit is not concave), its mean from matching the edge panel's
    log-slope at the end node, its amplitude from continuity there. The
    density is normalized at construction and the constant divided out is
    recorded in ``norm_constant``; it is positive everywhere. Panel masses,
    cdf and quantile are closed-form.

    Masses are summed from both ends: pieces up to the median's carry F
    from the left, later ones 1 - F from the right, each from a base node,
    so every mass keeps relative accuracy in its own tail.
    """

    __slots__ = ("nodes", "values", "norm_constant", "_anchor", "_scale",
                 "_scale2", "_lv", "_slope", "_curv", "_cum", "_cum_r",
                 "_dir", "_base", "_tail_log_mass", "_tail_log_phi")

    def __init__(self, nodes, values):
        x = np.asarray(nodes, dtype=float).ravel().copy()
        v = np.asarray(values, dtype=float).ravel().copy()
        if x.size != v.size or x.size < 2:
            raise DomainError("grid needs >= 2 nodes with one value each")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise DomainError("grid nodes/values must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise DomainError("grid nodes must be strictly increasing")
        if np.any(v <= 0.0):
            raise DomainError("grid density values must be strictly positive")

        logv = np.log(v)
        h = np.diff(x)
        slopes = np.diff(logv) / h
        panel_mass = v[:-1] * h * _expm1_over(np.diff(logv))

        def tail(xs, ls, x0, v0, edge_slope, sign):
            """(mean, std, log_amp, log Phi(sign z0), mass) of one tail."""
            std = 1.0
            if xs.size >= 3:
                c2 = float(np.polyfit(xs, ls, 2)[0])
                if c2 < -1e-12:
                    std = min(max(math.sqrt(-0.5 / c2), 0.05), 20.0)
            mean = x0 + edge_slope * std * std
            z0 = (x0 - mean) / std
            log_amp = math.log(v0) + 0.5 * z0 * z0
            log_phi = float(log_ndtr(sign * z0))
            mass = math.exp(log_amp + math.log(std * SQRT_2PI) + log_phi)
            return mean, std, log_amp, log_phi, mass

        mean_l, std_l, amp_l, phi_l, mass_l = tail(
            x[:3], logv[:3], float(x[0]), float(v[0]), float(slopes[0]), 1.0)
        mean_r, std_r, amp_r, phi_r, mass_r = tail(
            x[-3:], logv[-3:], float(x[-1]), float(v[-1]), float(slopes[-1]),
            -1.0)
        total = mass_l + float(panel_mass.sum()) + mass_r
        if not (math.isfinite(total) and total > 0.0):
            raise UnderflowError("grid density mass is not a positive finite number")

        log_total = math.log(total)
        ones = np.ones(x.size - 1)
        self.nodes = x
        self.values = v / total
        self.norm_constant = total
        self._anchor = np.concatenate([[mean_l], x[:-1], [mean_r]])
        self._scale = np.concatenate([[std_l], ones, [std_r]])
        self._scale2 = np.concatenate([[std_l ** 2], ones, [std_r ** 2]])
        self._lv = np.concatenate([[amp_l - log_total], (logv - log_total)[:-1],
                                   [amp_r - log_total]])
        self._slope = np.concatenate([[0.0], slopes, [0.0]])
        self._curv = np.concatenate([[1.0], np.zeros(x.size - 1), [1.0]])
        # F at the nodes from the left, 1 - F (last node first) from the right
        self._cum = mass_l / total + np.concatenate(
            [[0.0], np.cumsum(panel_mass / total)])
        self._cum_r = mass_r / total + np.concatenate(
            [[0.0], np.cumsum(panel_mass[::-1] / total)])
        # pieces up to the median's read F from the left; the right tail,
        # which has only its right-end formula, always reads 1 - F
        left = np.arange(x.size + 1) <= np.searchsorted(self._cum, 0.5)
        left[-1] = False
        self._dir = np.where(left, 1.0, -1.0)
        self._base = np.where(left, np.concatenate([[mass_l / total], self._cum]),
                              np.concatenate([self._cum_r[::-1], [mass_r / total]]))
        self._tail_log_mass = np.array([math.log(mass_l / total),
                                        math.log(mass_r / total)])
        self._tail_log_phi = np.array([phi_l, phi_r])
        for arr in (self.nodes, self.values, self._anchor, self._scale,
                    self._scale2, self._lv, self._slope, self._curv,
                    self._cum, self._cum_r, self._dir, self._base):
            arr.setflags(write=False)

    def _piece(self, x):
        return np.searchsorted(self.nodes, x, side="right")

    def _logpdf_in(self, x, i):
        """logpdf at the points x of the pieces i."""
        u = (x - self._anchor[i]) / self._scale[i]
        return self._lv[i] + u * (self._slope[i] - 0.5 * self._curv[i] * u)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return self._logpdf_in(x, self._piece(x))

    def _score_in(self, x, i):
        """score at the points x of the pieces i."""
        return self._slope[i] - self._curv[i] * (x - self._anchor[i]) / self._scale2[i]

    def _score_pdf(self, x):
        """(score, pdf) at the points x, the score the piecewise log-slope,
        which jumps at the nodes."""
        x = np.asarray(x, dtype=float)
        i = self._piece(x)
        return self._score_in(x, i), np.exp(self._logpdf_in(x, i))

    def _masses(self, x):
        return self._masses_in(x, self._piece(x))

    def _masses_in(self, x, i):
        """``_masses`` at the points x of the pieces i, each read from its
        piece's end."""
        d = self._dir[i]
        m = np.empty_like(x)
        tail = (i == 0) | (i == self.nodes.size)
        it, dt = i[tail], d[tail]
        z = dt * (x[tail] - self._anchor[it]) / self._scale[it]
        m[tail] = self._base[it] * np.exp(
            log_ndtr(z) - self._tail_log_phi[np.minimum(it, 1)])
        m[~tail] = self._inner_mass(x[~tail], i[~tail], d[~tail])
        return np.minimum(m, 1.0 - m), (d < 0) != (m > 0.5)

    def _inner_mass(self, x, k, d):
        """F, or 1 - F where d < 0, at the points x of the panels k (no
        tail), of directions d = _dir[k], read from the piece's base node.
        k and d are shaped like x, or (P, 1) columns for the P rows of x."""
        j = k - (d > 0)  # the piece's base node
        dx = d * (x - self.nodes[j])
        return self._base[k] + self.values[j] * dx * _expm1_over(
            d * self._slope[k] * dx)

    def _mass_logpdf(self, x):
        """One locate serves the masses and the logpdf gather."""
        x = np.asarray(x, dtype=float)
        i = self._piece(x)
        m, upper = self._masses_in(x, i)
        return (np.clip(m, _PROB_FLOOR, _PROB_CEIL), upper,
                self._logpdf_in(x, i))

    def _panel_mass_logpdf_pdf(self, x):
        """``_mass_logpdf_pdf`` at the (P, n) points x, the ascending nodes
        of P quadrature panels, with each panel's piece located once.

        A panel whose breakpoints include every node lies in one piece,
        the one of its middle point. Its piece's parameters are gathered
        once and broadcast over its n points through the per-point
        formulas, so every value has the bits of ``_mass_logpdf_pdf``. A
        panel in a tail, or one whose end points round out of its middle
        point's piece (a panel a few ulps wide beside a node), keeps the
        per-point route.
        """
        i = self._piece(x[:, x.shape[1] // 2])
        ends = self.nodes[np.clip([i - 1, i], 0, self.nodes.size - 1)]
        whole = ((i > 0) & (i < self.nodes.size)
                 & (x[:, 0] >= ends[0]) & (x[:, -1] < ends[1]))
        if whole.all():
            return self._panels_in(x, i[:, None])
        out = (np.empty(x.shape), np.empty(x.shape, dtype=bool),
               np.empty(x.shape), np.empty(x.shape))
        rest = ~whole
        for o, a, b in zip(out, self._panels_in(x[whole], i[whole, None]),
                           self._mass_logpdf_pdf(x[rest].ravel())):
            o[whole] = a
            o[rest] = b.reshape(-1, x.shape[1])
        return out

    def _panels_in(self, x, k):
        """``_mass_logpdf_pdf`` at the (P, n) points x of the panels k, a
        (P, 1) column."""
        d = self._dir[k]
        m = self._inner_mass(x, k, d)
        logpdf = self._logpdf_in(x, k)
        return (np.clip(np.minimum(m, 1.0 - m), _PROB_FLOOR, _PROB_CEIL),
                (d < 0) != (m > 0.5), logpdf, np.exp(logpdf))

    # the benchmark's tracer (bench/layertrace.py) wraps both by name in
    # the class's own dict
    quantile = Density1D.quantile
    quantile_sf = Density1D.quantile_sf

    def _invert(self, m, upper):
        n = self.nodes.size
        i = np.where(upper, n - np.searchsorted(self._cum_r, m, side="right"),
                     np.searchsorted(self._cum, m, side="right"))
        d = self._dir[i]
        m = np.where((d < 0) == upper, m, 1.0 - m)  # as the piece reads it
        x = np.empty_like(m)
        tail = (i == 0) | (i == n)
        it, e = i[tail], np.minimum(i[tail], 1)
        q = ndtri_exp(np.log(m[tail]) - self._tail_log_mass[e]
                      + self._tail_log_phi[e])
        x[tail] = self._anchor[it] + d[tail] * self._scale[it] * q
        k, dk = i[~tail], d[~tail]
        j = k - (dk > 0)
        b = dk * self._slope[k]
        res = m[~tail] - self._base[k]
        vj = self.values[j]
        small = np.abs(b) < 1e-12
        safe_b = np.where(small, 1.0, b)
        dx = np.where(small, res / vj, np.log1p(safe_b * res / vj) / safe_b)
        x[~tail] = self.nodes[j] + dk * dx
        return x

    def working_interval(self, tail_mass: float = 1e-14):
        lo = self.quantile(tail_mass / 2.0)
        hi = self.quantile_sf(tail_mass / 2.0)
        return (min(lo, float(self.nodes[0])), max(hi, float(self.nodes[-1])))


def _breaks(lo, hi, interior=()):
    """Panel breakpoints of [lo, hi]: its 9-point split, then the interior
    points inside it, NaN in place of the rest. lo and hi are floats, or
    (B,) arrays with a (B, M) interior, one row of breakpoints each (the
    NaN-padded rows of ``adaptive_quad_rows``, which sorts them and drops
    repeats)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    interior = np.asarray(interior, dtype=float)
    inside = (interior > lo[..., None]) & (interior < hi[..., None])
    return np.concatenate([np.linspace(lo, hi, 9).T,
                           np.where(inside, interior, np.nan)], axis=-1)


# ---------------------------------------------------------------------------
# functionals relative to gamma, as nu-expectations in log space
# ---------------------------------------------------------------------------

# absolute tolerance of the entropy and Fisher integrals, of a grid or
# gamma and of every ``_information_rows`` row alike
_INFO_TOL = 1e-11


def _measure_interval(nu: Density1D):
    lo, hi = nu.working_interval(_TAIL_MASS)
    return min(lo, -WORKING_RADIUS), max(hi, WORKING_RADIUS)


def _mixture_interior(means, stds):
    """Each component's m_k and m_k +- 8 s_k, over the last axis: the
    interior breakpoints of a mixture's expectations, so no narrow
    component hides between quadrature nodes."""
    return np.concatenate([means, means - 8.0 * stds, means + 8.0 * stds],
                          axis=-1)


def _interior(nu: Density1D):
    """The points where nu has structure of its own, interior breakpoints of
    every 1-D integral over it: a mixture's ``_mixture_interior``, or a
    grid's nodes, where its score jumps; none for gamma."""
    if isinstance(nu, GaussianMixture1D):
        return _mixture_interior(nu.means, nu.stds)
    if isinstance(nu, GridDensity1D):
        return nu.nodes
    return np.empty(0)


def _measure_breaks(nu: Density1D, lo: float, hi: float):
    """Panel breakpoints of nu's interval [lo, hi] (``_measure_interval``):
    ``_breaks`` with nu's ``_interior``."""
    bp = _breaks(lo, hi, _interior(nu))
    return bp[np.isfinite(bp)]


def _expect(nu: Density1D, fn, tol: float) -> QuadResult:
    """E_nu[f(X)] over ``_measure_interval(nu)``, where fn(x) gives (f(x),
    pdf(x)) at once, with an error estimate that includes a bound on the
    tails left out.

    Each tail beyond the interval carries at most _TAIL_MASS / 2 of nu. The
    log-ratio and the squared score gap grow at most quadratically there,
    and nu's tails are Gaussian, so twice |f| at the edge bounds the
    conditional mean of |f| over each tail.
    """

    def g(x):
        f, pdf = fn(x)
        return f * pdf

    lo, hi = _measure_interval(nu)
    res = adaptive_quad(g, _measure_breaks(nu, lo, hi), tol_abs=tol)
    tail = _TAIL_MASS * float(np.sum(np.abs(fn(np.array([lo, hi]))[0])))
    return QuadResult(res.value, res.error + tail, res.evaluations,
                      res.panels)


# Multiple of eps sum |terms| charged for the rounding of a Gaussian's
# closed-form information terms, here and (times n kappa(C)) in
# ``densitynd``. A 1-D term list below is summed by ``_sum2``, so what is
# left is each term's own rounding and one final rounding, at most about
# 2 u sum |terms| = eps sum |terms| (u = eps / 2, the unit roundoff).
# Against 40-digit closed forms on 100,000 seeded N(m, s^2), m uniform on
# (-30, 30) and s log-uniform on [1e-6, 1e6] (default_rng(20261020)), H,
# I and delta_LS missed by at most 0.64, 0.66 and 0.65 of this charge
# (test_single_gaussian_information_covers_mpmath). The n-D charges scale
# with it: above about 1.8 the 4-D Gaussian of
# test_corollary_monte_carlo_gaussian_closed_form would pass its 1e-13
# error bound (at 1.5 it reads 8.2e-14).
_CLOSED_ROUNDING = 1.5


def _sum2(terms):
    """The sum of the floats ``terms`` as Ogita, Rump and Oishi's Sum2
    (SIAM J. Sci. Comput. 26, 2005) computes it: each add's rounding error
    is recovered exactly and summed apart, so the result is about as
    accurate as a sum in twice the working precision, rounded once."""
    total, carry = terms[0], 0.0
    for t in terms[1:]:
        new = total + t
        back = new - total
        carry += (total - (new - back)) + (t - back)
        total = new
    return total + carry


def _gaussian_information(m: float, s: float):
    """(H, H_err, I, I_err, delta, delta_err) of N(m, s^2) against gamma:
    H = (m^2 + s^2 - 1) / 2 - log s, I = m^2 + s^2 - 2 + 1 / s^2 and
    delta_LS = I / 2 - H = (1 / s^2 - 1) / 2 + log s, taken directly so the
    m^2 and s^2 terms never cancel. Each is the ``_sum2`` of the terms of
    ``densitynd``'s closed forms at n = 1, charged _CLOSED_ROUNDING eps
    times the sum of their absolute values. Python floats: a batch holds
    a few Gaussian rows, where NumPy's per-call cost would dominate."""
    log_s, inv2 = math.log(s), s ** -2.0
    h = (0.5 * s * s, 0.5 * m * m, -0.5, -log_s)
    fi = (m * m, s * s, -2.0, inv2)
    delta = (0.5 * inv2, -0.5, log_s)
    return tuple(x for t in (h, fi, delta) for x in (
        _sum2(t), _CLOSED_ROUNDING * _EPS * sum(map(abs, t))))


def _information_rows(weights, means, stds):
    """H(u_b | gamma) and I(u_b | gamma) of many 1-D mixtures u_b at once,
    with each delta_LS = I / 2 - H: (H, H_err, I, I_err, delta, delta_err)
    as a (6, B) array, in row order.

    The rows are split as ``_RowMixtures`` splits them. A row with one
    present component is the Gaussian N(m, s^2) and takes the closed forms
    of ``_gaussian_information``, its delta included, with no quadrature.
    Every other row is integrated over its span, widened to
    +-WORKING_RADIUS, with the ``_mixture_interior`` of its present
    components as breakpoints, to the budget ``_INFO_TOL``, and
    charged for the tails as ``_expect`` charges them; its delta is
    I / 2 - H, charged I_err / 2 + H_err. A row keeps its bits whatever
    rows it is batched with: the 2B' integrals of the B' integrated rows
    are the rows of one ``adaptive_quad_rows`` call, which settles each
    row alone, and each round runs one component pass over all of its
    points, to which an absent component adds exact zeros. An integral
    that does not converge raises EvaluationError naming its term and,
    when there are several rows, its row as the factor.
    """
    batch = _RowMixtures(weights, means, stds)
    one, quad = batch.one, batch.quad
    out = np.empty((6, one.size))
    out[:, one] = np.reshape([_gaussian_information(*row) for row in zip(
        batch.m_one.tolist(), batch.s_one.tolist())], (-1, 6)).T
    if not quad.size:
        return out
    lo = np.minimum(batch.lo, -WORKING_RADIUS)
    hi = np.maximum(batch.hi, WORKING_RADIUS)
    params = batch.params[1:]
    m, s = params[:2]
    n = quad.size

    def terms(x, rows):
        """(log u - log phi, (score + x)^2, u) at the points x, one row of
        x per mixture in ``rows``."""
        m, s, log_w, log_norm = _columns(params, rows)
        zs = _components(x, m, s)
        logpdf, e, total = _mixture_log(zs, log_w, log_norm)
        r = _mixture_score(zs, e, total, s) + x
        return logpdf - gauss_logpdf(x), r * r, np.exp(logpdf)

    def g(x, row):
        # rows n and up are the Fisher integrals of mixtures row - n
        fisher = row >= n
        h, fi, pdf = terms(x, row - n * fisher)
        return np.where(fisher[:, None], fi, h) * pdf

    bp = _breaks(lo, hi,
                 _mixture_interior(np.where(batch.present, m, np.nan), s))
    try:
        res = adaptive_quad_rows(g, np.concatenate([bp, bp]),
                                 tol_abs=_INFO_TOL)
    except EvaluationError as exc:
        if exc.row is None:
            raise
        # name the term and the factor in place of the 2B-row index
        term = "Fisher information" if exc.row >= n else "entropy"
        if one.size > 1:
            term += f" of factor {quad[exc.row % n]}"
        raise EvaluationError(
            str(exc).replace(f"row {exc.row}", f"the {term}"),
            value=exc.value, error=exc.error) from None
    h, fi, _ = terms(np.stack([lo, hi], axis=1), slice(None))
    out[:4, quad] = (
        res.value[:n], res.error[:n] + _TAIL_MASS * np.abs(h).sum(axis=1),
        res.value[n:], res.error[n:] + _TAIL_MASS * np.abs(fi).sum(axis=1))
    h, h_err, fi, fi_err = out[:4, quad]
    out[4:, quad] = 0.5 * fi - h, 0.5 * fi_err + h_err
    return out


def entropy_fisher_1d(nu: Density1D):
    """((H, H_err), (I, I_err)): H(nu | gamma) = E_nu[log p - log phi] and
    I(nu | gamma) = E_nu[(score + x)^2], each with an error estimate; the
    1-D twin of ``densitynd.entropy_fisher_nd``.

    A GaussianMixture1D is one row of ``_information_rows``: a single
    Gaussian N(m, s^2) takes the closed forms (m^2 + s^2 - 1) / 2 - log s
    and m^2 + s^2 - 2 + 1 / s^2, with a rounding charge as their error, and
    any other mixture one quadrature of both terms. gamma and a grid take
    one ``_expect`` per term, to the budget _INFO_TOL, and each error
    includes the bound on the tails beyond the interval.
    """
    if isinstance(nu, GaussianMixture1D):
        h, h_err, fi, fi_err = _information_rows(
            nu.weights[None], nu.means[None], nu.stds[None])[:4, 0].tolist()
        return (h, h_err), (fi, fi_err)

    def entropy(x):
        logpdf = nu.logpdf(x)
        return logpdf - gauss_logpdf(x), np.exp(logpdf)

    def fisher(x):
        score, pdf = nu._score_pdf(x)
        r = score + x
        return r * r, pdf

    return tuple((res.value, res.error) for res in (
        _expect(nu, entropy, _INFO_TOL), _expect(nu, fisher, _INFO_TOL)))


def load_grid_csv(path) -> GridDensity1D:
    """Load a tabulated density from CSV with header ``x,density``.

    Rows must be finite floats, x strictly increasing, density positive. The
    result is normalized; the constant is recorded on ``norm_constant``.
    """
    xs, vs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        cols = [c.strip() for c in header.strip().split(",")]
        if cols != ["x", "density"]:
            raise ParseError(f"{path}: line 1: expected header 'x,density', "
                             f"got {header.strip()!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}: line {lineno}: expected 2 fields, got {len(parts)}")
            try:
                x = float(parts[0])
                v = float(parts[1])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric field") from None
            if not (math.isfinite(x) and math.isfinite(v)):
                raise ParseError(f"{path}: line {lineno}: non-finite value")
            xs.append(x)
            vs.append(v)
    if len(xs) < 2:
        raise ParseError(f"{path}: need at least 2 data rows")
    try:
        return GridDensity1D(xs, vs)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc
