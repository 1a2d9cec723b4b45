"""One-dimensional densities and their entropy and Fisher information
relative to the Gaussian.

The reference measure throughout is the standard Gaussian gamma with density
phi(x) = exp(-x^2/2)/sqrt(2 pi). Both relative functionals are expectations
under the density p itself, in log space: H(nu | gamma) = E_nu[log p - log phi]
and I(nu | gamma) = E_nu[(score + x)^2] with score = (log p)'. Neither forms
p/phi, which overflows for wide densities.

Densities come in three concrete flavors:

* ``StandardGaussian``: gamma itself, with exact cdf/quantile.
* ``GaussianMixture1D``: finite Gaussian mixtures; cdf analytic, quantile by
  one safeguarded Newton solve of Phi^{-1}(F(x)) = z inside the closed-form
  bracket [min_k, max_k] (m_k + s_k z). On that Gaussian scale both tails
  keep relative accuracy, the upper one through the survival side.
* ``GridDensity1D``: strictly positive tabulated densities, log-linear
  between nodes, with a Gaussian tail on each side matched in value and
  log-slope at the end node; cdf and quantile are closed-form per piece, so
  no iteration is ever needed.

Regularity beyond positivity (continuity, a differentiable log-density,
normalization) is the caller's responsibility; constructors validate only
what can be checked cheaply.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .errors import DomainError, EvaluationError, ParseError, UnderflowError
from .quadrature import QuadResult, adaptive_quad

__all__ = [
    "SQRT_2PI",
    "WORKING_RADIUS",
    "gauss_pdf",
    "gauss_logpdf",
    "Density1D",
    "StandardGaussian",
    "GaussianMixture1D",
    "GridDensity1D",
    "entropy_rel_gauss_full",
    "fisher_rel_gauss_full",
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
# quantile is taken of them, so the result stays finite.
_PROB_FLOOR = 1e-300
_PROB_CEIL = 1.0 - 1e-16

# Cap on the mixture quantile solve's iterations. Mixtures with means
# within +-30 and stds in [1e-4, 30] took at most 22 per point, with mass
# down to 1e-300.
_SOLVE_STEPS = 200


def gauss_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / SQRT_2PI


def gauss_logpdf(x):
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - _LOG_SQRT_2PI


class Density1D:
    """A strictly positive probability density on the line.

    All methods are vectorized over ndarray inputs. Masses go through one
    private pair: ``_mass(x)`` gives (m, upper), m = F(x) where F(x) <= 1/2
    and 1 - F(x) where ``upper``, and ``_invert(m, upper)`` inverts it.
    """

    def pdf(self, x):
        raise NotImplementedError

    def logpdf(self, x):
        raise NotImplementedError

    def score(self, x):
        """Derivative of the log-density, d log p / dx."""
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def survival(self, x):
        raise NotImplementedError

    def _masses(self, x):
        """``_mass`` unclipped: ``cdf``, then ``survival`` on the upper points."""
        m = np.asarray(self.cdf(x))
        upper = m > 0.5
        m[upper] = self.survival(x[upper])
        return m, upper

    def _mass(self, x):
        """(m, upper) at the points x, m clipped to [_PROB_FLOOR, _PROB_CEIL]."""
        m, upper = self._masses(np.asarray(x, dtype=float))
        return np.clip(m, _PROB_FLOOR, _PROB_CEIL), upper

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

    def pdf(self, x):
        return gauss_pdf(x)

    def logpdf(self, x):
        return gauss_logpdf(x)

    def score(self, x):
        return -np.asarray(x, dtype=float)

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float))

    def survival(self, x):
        return ndtr(-np.asarray(x, dtype=float))

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
    must be positive and finite.
    """

    __slots__ = ("weights", "means", "stds")

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
        for arr in (w, m, s):
            arr.setflags(write=False)
        self.weights = w
        self.means = m
        self.stds = s

    # -- basic evaluations -------------------------------------------------

    def _z(self, x):
        x = np.asarray(x, dtype=float)
        return (x[..., None] - self.means) / self.stds

    def pdf(self, x):
        z = self._z(x)
        comp = np.exp(-0.5 * z * z) / (self.stds * SQRT_2PI)
        return comp @ self.weights

    def _log_terms(self, x):
        """(z, log w_k N(x; m_k, s_k^2)) with components on the last axis."""
        z = self._z(x)
        return z, -0.5 * z * z - np.log(self.stds * SQRT_2PI) + np.log(self.weights)

    def logpdf(self, x):
        _, logs = self._log_terms(x)
        mx = logs.max(axis=-1, keepdims=True)
        return np.squeeze(mx, -1) + np.log(np.exp(logs - mx).sum(axis=-1))

    def score(self, x):
        """Responsibility-weighted component scores, via log-sum-exp."""
        z, logs = self._log_terms(x)
        resp = np.exp(logs - logs.max(axis=-1, keepdims=True))
        return (resp * (-z / self.stds)).sum(axis=-1) / resp.sum(axis=-1)

    def cdf(self, x):
        return ndtr(self._z(x)) @ self.weights

    def survival(self, x):
        return ndtr(-self._z(x)) @ self.weights

    def mean(self):
        return float(self.weights @ self.means)

    def variance(self):
        m = self.mean()
        return float(self.weights @ (self.stds**2 + self.means**2) - m * m)

    def working_interval(self, tail_mass: float = 1e-14):
        z = float(-ndtri(tail_mass / 2.0))
        lo = float(np.min(self.means - z * self.stds))
        hi = float(np.max(self.means + z * self.stds))
        return (lo, hi)

    def __repr__(self):
        return (f"GaussianMixture1D(weights={self.weights.tolist()}, "
                f"means={self.means.tolist()}, stds={self.stds.tolist()})")

    # -- quantiles -----------------------------------------------------------

    def _gauss_scale(self, x):
        """(S, log S', (log u)') at the points x (n,), for S = Phi^{-1} o F.

        One ndtr(-|z_k|) per component gives both of its masses, and S comes
        from the survival side where F > 1/2, so both tails keep relative
        accuracy. log S' = log u - log phi(S), log u by log-sum-exp.
        """
        z, logs = self._log_terms(x)
        dlog = -z / self.stds
        left = z < 0.0
        tail = ndtr(-np.abs(z))
        rest = 1.0 - tail
        # row sums, not a BLAS product: a root must not depend on the other
        # points solved in the same batch
        F = (np.where(left, tail, rest) * self.weights).sum(axis=1)
        Sv = (np.where(left, rest, tail) * self.weights).sum(axis=1)
        low = F <= 0.5
        S = ndtri(np.where(low, F, Sv))
        S = np.where(low, S, -S)
        mx = logs.max(axis=1)
        resp = np.exp(logs - mx[:, None])
        total = resp.sum(axis=1)
        log_slope = mx + np.log(total) - gauss_logpdf(S)
        return S, log_slope, (resp * dlog).sum(axis=1) / total

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

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(self.nodes, x, side="right")
        u = (x - self._anchor[i]) / self._scale[i]
        return self._lv[i] + u * (self._slope[i] - 0.5 * self._curv[i] * u)

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def score(self, x):
        """Piecewise log-slope; jumps at the nodes."""
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(self.nodes, x, side="right")
        return self._slope[i] - self._curv[i] * (x - self._anchor[i]) / self._scale2[i]

    def _masses(self, x):
        """Each point is located once and read from its piece's end."""
        i = np.searchsorted(self.nodes, x, side="right")
        d = self._dir[i]
        m = np.empty_like(x)
        tail = (i == 0) | (i == self.nodes.size)
        it, dt = i[tail], d[tail]
        z = dt * (x[tail] - self._anchor[it]) / self._scale[it]
        m[tail] = self._base[it] * np.exp(
            log_ndtr(z) - self._tail_log_phi[np.minimum(it, 1)])
        k, dk = i[~tail], d[~tail]
        j = k - (dk > 0)  # the piece's base node
        dx = dk * (x[~tail] - self.nodes[j])
        m[~tail] = self._base[k] + self.values[j] * dx * _expm1_over(
            dk * self._slope[k] * dx)
        return np.minimum(m, 1.0 - m), (d < 0) != (m > 0.5)

    def cdf(self, x):
        m, upper = self._masses(np.asarray(x, dtype=float))
        return np.where(upper, 1.0 - m, m)

    def survival(self, x):
        m, upper = self._masses(np.asarray(x, dtype=float))
        return np.where(upper, m, 1.0 - m)

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
    pts = [lo, hi]
    pts.extend(float(t) for t in interior if lo < t < hi)
    pts.extend(np.linspace(lo, hi, 9)[1:-1])
    return sorted(set(pts))


# ---------------------------------------------------------------------------
# functionals relative to gamma, as nu-expectations in log space
# ---------------------------------------------------------------------------

# nu-mass left outside the integration interval of the expectations below
_TAIL_MASS = 1e-15


def _measure_interval(nu: Density1D):
    lo, hi = nu.working_interval(_TAIL_MASS)
    return min(lo, -WORKING_RADIUS), max(hi, WORKING_RADIUS)


def _measure_breaks(nu: Density1D):
    """Panel breakpoints of ``_measure_interval(nu)``: a mixture's m_k and
    m_k +- 8 s_k, so no narrow component hides between quadrature nodes,
    or a grid's nodes, where its score jumps."""
    lo, hi = _measure_interval(nu)
    interior = ()
    if isinstance(nu, GaussianMixture1D):
        interior = np.concatenate([nu.means, nu.means - 8.0 * nu.stds,
                                   nu.means + 8.0 * nu.stds])
    elif isinstance(nu, GridDensity1D):
        interior = nu.nodes
    return _breaks(lo, hi, interior)


def _expect(nu: Density1D, fn, tol: float) -> QuadResult:
    """E_nu[fn(X)] over ``_measure_interval(nu)`` with an error estimate."""

    def g(x):
        return fn(x) * nu.pdf(x)

    return adaptive_quad(g, _measure_breaks(nu), tol_abs=tol)


def _tail_bound(nu: Density1D, fn) -> float:
    """Bound on the part of E_nu[fn(X)] that ``_expect`` leaves out.

    Each tail beyond the interval carries at most _TAIL_MASS / 2 of nu. The
    log-ratio and the squared score gap grow at most quadratically there,
    and nu's tails are Gaussian, so twice |fn| at the edge bounds the
    conditional mean of |fn| over each tail.
    """
    edges = np.asarray(_measure_interval(nu))
    return _TAIL_MASS * float(np.sum(np.abs(fn(edges))))


def entropy_rel_gauss_full(nu: Density1D, *, tol: float = 1e-11) -> QuadResult:
    """H(nu | gamma) = E_nu[log p - log phi] with an error estimate.

    The error includes the bound on the tails beyond the interval.
    """

    def fn(x):
        return nu.logpdf(x) - gauss_logpdf(x)

    res = _expect(nu, fn, tol)
    return QuadResult(res.value, res.error + _tail_bound(nu, fn),
                      res.evaluations, res.panels)


def fisher_rel_gauss_full(nu: Density1D, *, tol: float = 1e-11) -> QuadResult:
    """I(nu | gamma) = E_nu[(score + x)^2] with an error estimate.

    The error includes the bound on the tails beyond the interval.
    """

    def fn(x):
        r = nu.score(x) + x
        return r * r

    res = _expect(nu, fn, tol)
    return QuadResult(res.value, res.error + _tail_bound(nu, fn),
                      res.evaluations, res.panels)


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
