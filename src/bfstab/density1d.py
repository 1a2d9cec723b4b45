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
  between nodes with matched Gaussian tails; cdf and quantile are closed-form
  per panel, so no iteration is ever needed.

Regularity beyond positivity (continuity, a differentiable log-density,
normalization) is the caller's responsibility; constructors validate only
what can be checked cheaply.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

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
    "entropy_rel_gauss",
    "entropy_rel_gauss_full",
    "fisher_rel_gauss",
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

_TINY = 1e-300

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


def _check_prob_open(p):
    # NaN fails both comparisons, so this rejects non-finite p too
    if not np.logical_and(p > 0.0, p < 1.0).all():
        raise DomainError("probability arguments must lie strictly in (0, 1)")


class Density1D:
    """A strictly positive probability density on the line.

    All methods are vectorized over ndarray inputs.
    """

    def pdf(self, x):
        raise NotImplementedError

    def logpdf(self, x):
        return np.log(np.maximum(self.pdf(x), _TINY))

    def score(self, x):
        """Derivative of the log-density, d log p / dx."""
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def survival(self, x):
        return 1.0 - self.cdf(x)

    def quantile(self, p):
        raise NotImplementedError

    def quantile_sf(self, s):
        """Upper quantile from survival mass, accurate for small ``s``."""
        return self.quantile(1.0 - np.asarray(s, dtype=float))

    def working_interval(self, tail_mass: float = 1e-14):
        """Interval carrying all but ``tail_mass`` of the probability."""
        raise NotImplementedError

    def mean(self) -> float:
        return _moment_quad(self, 1)

    def variance(self) -> float:
        m = self.mean()
        return _moment_quad(self, 2) - m * m


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

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        _check_prob_open(p)
        return ndtri(p)

    def quantile_sf(self, s):
        s = np.asarray(s, dtype=float)
        _check_prob_open(s)
        return -ndtri(s)

    def working_interval(self, tail_mass: float = 1e-14):
        z = float(-ndtri(tail_mass / 2.0))
        return (-z, z)

    def mean(self):
        return 0.0

    def variance(self):
        return 1.0

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
        F = np.where(left, tail, rest) @ self.weights
        Sv = np.where(left, rest, tail) @ self.weights
        low = F <= 0.5
        S = ndtri(np.where(low, F, Sv))
        S = np.where(low, S, -S)
        mx = logs.max(axis=1)
        resp = np.exp(logs - mx[:, None])
        total = resp.sum(axis=1)
        log_slope = mx + np.log(total) - gauss_logpdf(S)
        return S, log_slope, (resp * dlog).sum(axis=1) / total

    def quantile(self, p):
        """The x with F(x) = p: the root of S(x) = Phi^{-1}(p)."""
        p = np.asarray(p, dtype=float)
        _check_prob_open(p)
        return self._solve_gauss_scale(ndtri(p))

    def quantile_sf(self, s):
        """The x with 1 - F(x) = s: the root of S(x) = -Phi^{-1}(s), accurate
        for small ``s``."""
        s = np.asarray(s, dtype=float)
        _check_prob_open(s)
        return self._solve_gauss_scale(-ndtri(s))

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
        scalar = np.ndim(z) == 0
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
                return float(x[0]) if scalar else x.reshape(shape)
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


def _ndtri_log(log_p):
    """Inverse standard normal cdf from log-probability, stable deep in the tail."""
    log_p = np.asarray(log_p, dtype=float)
    p = np.exp(log_p)
    out = np.empty_like(log_p)
    ok = p > 1e-280
    if ok.any():
        out[ok] = ndtri(np.clip(p[ok], _TINY, 1.0 - 1e-16))
    deep = ~ok
    if deep.any():
        t = np.sqrt(-2.0 * log_p[deep])
        xx = -t + (np.log(t) + _LOG_SQRT_2PI) / t
        for _ in range(4):
            f = log_ndtr(xx) - log_p[deep]
            xx = xx - f * np.exp(log_ndtr(xx) - gauss_logpdf(xx))
        out[deep] = xx
    return out


class GridDensity1D(Density1D):
    """Tabulated density, log-linear between nodes, Gaussian tails.

    Tail policy per side stores matched (mean, std, mass). The std comes from
    the one-sided curvature of log-density at the boundary (quadratic fit
    through the three outermost nodes, fallback 1.0 when the fit is not
    concave), the mean from matching the boundary log-slope, the amplitude
    from continuity. The density is normalized at construction and the
    constant divided out is recorded in ``norm_constant``; the interpolant is
    an exponential of a piecewise-linear function, hence positive everywhere.
    Panel masses, cdf and quantile are closed-form.
    """

    __slots__ = ("nodes", "values", "log_values", "_slopes", "_panel_mass",
                 "_cum", "tail_policy", "norm_constant")

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

        def tail_params(side: str):
            if side == "left":
                xs, ls = x[:3], logv[:3]
                x0, v0, edge_slope = float(x[0]), float(v[0]), float(slopes[0])
            else:
                xs, ls = x[-3:], logv[-3:]
                x0, v0, edge_slope = float(x[-1]), float(v[-1]), float(slopes[-1])
            std = 1.0
            if xs.size >= 3:
                c2 = float(np.polyfit(xs, ls, 2)[0])
                if c2 < -1e-12:
                    std = min(max(math.sqrt(-0.5 / c2), 0.05), 20.0)
            mean = x0 + edge_slope * std * std
            z0 = (x0 - mean) / std
            log_amp = math.log(v0) + 0.5 * z0 * z0
            tail_ln = float(log_ndtr(z0)) if side == "left" else float(log_ndtr(-z0))
            mass = math.exp(log_amp + math.log(std * SQRT_2PI) + tail_ln)
            return {"mean": mean, "std": std, "log_amp": log_amp, "mass": mass}

        left = tail_params("left")
        right = tail_params("right")
        total = left["mass"] + float(panel_mass.sum()) + right["mass"]
        if not (math.isfinite(total) and total > 0.0):
            raise UnderflowError("grid density mass is not a positive finite number")

        v = v / total
        logv = logv - math.log(total)
        panel_mass = panel_mass / total
        for side in (left, right):
            side["mass"] /= total
            side["log_amp"] -= math.log(total)

        self.nodes = x
        self.values = v
        self.log_values = logv
        self._slopes = slopes
        self._panel_mass = panel_mass
        self._cum = left["mass"] + np.concatenate([[0.0], np.cumsum(panel_mass)])
        self.tail_policy = {"left": left, "right": right}
        self.norm_constant = total
        for arr in (self.nodes, self.values, self.log_values, self._slopes,
                    self._panel_mass, self._cum):
            arr.setflags(write=False)

    def _locate(self, x):
        return np.searchsorted(self.nodes, x, side="right") - 1

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = self._locate(x)
        out = np.empty_like(x, dtype=float)
        L, R = self.tail_policy["left"], self.tail_policy["right"]
        left = idx < 0
        right = idx >= self.nodes.size - 1
        mid = ~(left | right)
        if left.any():
            zl = (x[left] - L["mean"]) / L["std"]
            out[left] = L["log_amp"] - 0.5 * zl * zl
        if right.any():
            zr = (x[right] - R["mean"]) / R["std"]
            out[right] = R["log_amp"] - 0.5 * zr * zr
        if mid.any():
            jm = idx[mid]
            out[mid] = self.log_values[jm] + self._slopes[jm] * (x[mid] - self.nodes[jm])
        return out

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def score(self, x):
        """Piecewise log-slope; jumps at the nodes."""
        x = np.asarray(x, dtype=float)
        idx = self._locate(x)
        dlog = np.empty_like(x, dtype=float)
        L, R = self.tail_policy["left"], self.tail_policy["right"]
        left = idx < 0
        right = idx >= self.nodes.size - 1
        mid = ~(left | right)
        if left.any():
            dlog[left] = -(x[left] - L["mean"]) / L["std"] ** 2
        if right.any():
            dlog[right] = -(x[right] - R["mean"]) / R["std"] ** 2
        if mid.any():
            dlog[mid] = self._slopes[idx[mid]]
        return dlog

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = self._locate(x)
        out = np.empty_like(x, dtype=float)
        L, R = self.tail_policy["left"], self.tail_policy["right"]
        left = idx < 0
        right = idx >= self.nodes.size - 1
        mid = ~(left | right)
        if left.any():
            zl = (x[left] - L["mean"]) / L["std"]
            z0 = (self.nodes[0] - L["mean"]) / L["std"]
            out[left] = L["mass"] * np.exp(log_ndtr(zl) - log_ndtr(z0))
        if right.any():
            zr = (x[right] - R["mean"]) / R["std"]
            z0 = (self.nodes[-1] - R["mean"]) / R["std"]
            out[right] = 1.0 - R["mass"] * np.exp(log_ndtr(-zr) - log_ndtr(-z0))
        if mid.any():
            jm = idx[mid]
            dx = x[mid] - self.nodes[jm]
            out[mid] = self._cum[jm] + self.values[jm] * dx * _expm1_over(self._slopes[jm] * dx)
        return out

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.atleast_1d(self._locate(x))
        xf = np.atleast_1d(x)
        out = np.empty_like(xf, dtype=float)
        R = self.tail_policy["right"]
        right = idx >= self.nodes.size - 1
        if right.any():
            zr = (xf[right] - R["mean"]) / R["std"]
            z0 = (self.nodes[-1] - R["mean"]) / R["std"]
            out[right] = R["mass"] * np.exp(log_ndtr(-zr) - log_ndtr(-z0))
        rest = ~right
        if rest.any():
            out[rest] = 1.0 - self.cdf(xf[rest])
        return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        _check_prob_open(p)
        scalar = p.ndim == 0
        pf = np.atleast_1d(p).ravel()
        out = np.empty_like(pf)
        L = self.tail_policy["left"]
        j = np.searchsorted(self._cum, pf, side="right") - 1
        left = j < 0
        right = pf > self._cum[-1]
        mid = ~(left | right)
        if left.any():
            z0 = (self.nodes[0] - L["mean"]) / L["std"]
            target = np.log(pf[left]) - math.log(L["mass"]) + float(log_ndtr(z0))
            out[left] = L["mean"] + L["std"] * _ndtri_log(target)
        if right.any():
            out[right] = self._tail_quantile_sf(np.maximum(1.0 - pf[right], _TINY))
        if mid.any():
            jm = np.clip(j[mid], 0, self.nodes.size - 2)
            b = self._slopes[jm]
            res = pf[mid] - self._cum[jm]
            vj = self.values[jm]
            small = np.abs(b) < 1e-12
            safe_b = np.where(small, 1.0, b)
            dx = np.where(small, res / vj, np.log1p(safe_b * res / vj) / safe_b)
            out[mid] = self.nodes[jm] + dx
        return float(out[0]) if scalar else out.reshape(np.shape(p))

    def _tail_quantile_sf(self, s):
        R = self.tail_policy["right"]
        z0 = (self.nodes[-1] - R["mean"]) / R["std"]
        target = np.log(s) - math.log(R["mass"]) + float(log_ndtr(-z0))
        return R["mean"] - R["std"] * _ndtri_log(target)

    def quantile_sf(self, s):
        s = np.asarray(s, dtype=float)
        _check_prob_open(s)
        scalar = s.ndim == 0
        sf = np.atleast_1d(s).ravel()
        out = np.empty_like(sf)
        tail = sf <= self.tail_policy["right"]["mass"]
        if tail.any():
            out[tail] = self._tail_quantile_sf(sf[tail])
        if (~tail).any():
            out[~tail] = self.quantile(1.0 - sf[~tail])
        return float(out[0]) if scalar else out.reshape(np.shape(s))

    def working_interval(self, tail_mass: float = 1e-14):
        lo = float(self.quantile(np.asarray(tail_mass / 2.0)))
        hi = float(self.quantile_sf(np.asarray(tail_mass / 2.0)))
        return (min(lo, float(self.nodes[0])), max(hi, float(self.nodes[-1])))


def _moment_quad(d: Density1D, k: int) -> float:
    lo, hi = d.working_interval(1e-15)
    res = adaptive_quad(lambda x: (x**k) * d.pdf(x), np.linspace(lo, hi, 9),
                        tol_abs=1e-11)
    return res.value


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


def entropy_rel_gauss(nu: Density1D, *, tol: float = 1e-11) -> float:
    """Relative entropy H(nu | gamma) >= 0."""
    return entropy_rel_gauss_full(nu, tol=tol).value


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


def fisher_rel_gauss(nu: Density1D, *, tol: float = 1e-11) -> float:
    """Relative Fisher information I(nu | gamma) >= 0."""
    return fisher_rel_gauss_full(nu, tol=tol).value


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
