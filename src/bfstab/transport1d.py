"""Monotone transport on the line and the transport distance built from it.

For probability densities u, v the monotone rearrangement T = F_v^{-1} o F_u
pushes u dx to v dx. The distance

    d(u, v) = int |1 - T'(x)| / max(1, T'(x)) u(x) dx

takes values in [0, 1] and vanishes exactly when v is a translate of u. The
derivative is always evaluated through the densities, T'(x) = u(x)/v(T(x)),
never by finite differences. Both directed integrals are computed; they agree
analytically, so a gap beyond 1e-6 raises a NumericalWarning and the average
is returned. ``gauss_distance_rows`` computes the directed integral from
many 1-D mixtures to gamma in one batched quadrature, with the same
breakpoint rule (``_distance_breaks``) as the single-pair path.

Also here: the quantile-coupling W2^2, the Talagrand deficit against gamma,
the Bregman-type integral int (T' - 1 - log T') dgamma for maps with Gaussian
source, and its pointwise scalar bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .density1d import (SQRT_2PI, Density1D, GaussianMixture1D,
                        StandardGaussian, _breaks, gauss_logpdf, gauss_pdf)
from .errors import DomainError, EvaluationError, InvariantViolation, NumericalWarning
from .quadrature import adaptive_quad, adaptive_quad_rows

__all__ = [
    "TransportMap1D",
    "build_map",
    "bf_distance",
    "bf_distance_full",
    "gauss_distance_rows",
    "w2_squared_1d",
    "w2_squared_1d_full",
    "talagrand_deficit_1d",
    "talagrand_deficit_1d_full",
    "bregman_integral",
    "bregman_integral_full",
    "pointwise_bregman_bound",
]

_PROB_FLOOR = 1e-300
_PROB_CEIL = 1.0 - 1e-16


@dataclass
class TransportMap1D:
    """Monotone map pushing ``source`` forward to ``target``."""

    source: Density1D
    target: Density1D

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        F = np.clip(self.source.cdf(x), _PROB_FLOOR, _PROB_CEIL)
        out = np.empty_like(x)
        low = F <= 0.5
        if low.any():
            out[low] = self.target.quantile(F[low])
        if (~low).any():
            S = np.clip(self.source.survival(x[~low]), _PROB_FLOOR, _PROB_CEIL)
            out[~low] = self.target.quantile_sf(S)
        return out

    def deriv(self, x):
        """T'(x) = u(x) / v(T(x)), strictly positive."""
        x = np.asarray(x, dtype=float)
        return np.exp(self.source.logpdf(x) - self.target.logpdf(self(x)))


def build_map(mu: Density1D, nu: Density1D) -> TransportMap1D:
    if not isinstance(mu, Density1D) or not isinstance(nu, Density1D):
        raise DomainError("build_map expects Density1D instances")
    return TransportMap1D(mu, nu)


# Pre-scan of T' - 1 on this many points of the working interval; a row
# whose sign changes number at most _MAX_FLIPS gets breakpoints at them.
_SCAN_POINTS = 257
_MAX_FLIPS = 32
# Points x components the row kernel evaluates at once (1 MiB per
# temporary), so its memory does not grow with the number of rows.
_ROW_CHUNK = 1 << 17
# Tail mass the directed distance leaves outside its working interval.
_DIST_TAIL = 1e-15


def _distance_breaks(lo, hi, means, deriv):
    """Panel breakpoints of the directed distance integrand, one row each.

    lo, hi: (B,) working intervals of the sources; means: (B, K) source
    means, NaN where there is none. ``deriv`` maps a (B, 257) pre-scan grid
    to T' there. Where T' - 1 changes sign between 1 and 32 times, both ends
    of each sign-change cell become breakpoints, so the kinks of |1 - T'|
    sit near panel edges. The means inside (lo, hi) and the even 8-panel
    split of [lo, hi] are breakpoints too. Returns a (B, M) NaN-padded
    array for ``adaptive_quad_rows``.
    """
    # np.linspace(lo[r], hi[r], 257) for every row r, the same values
    xs = (np.arange(_SCAN_POINTS) * ((hi - lo) / (_SCAN_POINTS - 1))[:, None]
          + lo[:, None])
    xs[:, -1] = hi
    dv = deriv(xs) - 1.0
    sgn = np.sign(dv)
    flip = sgn[:, :-1] * sgn[:, 1:] < 0
    pinned = ((np.maximum.reduce(np.abs(dv), axis=1) > 1e-9)
              & (flip.sum(axis=1) <= _MAX_FLIPS))
    flip &= pinned[:, None]
    cols = np.flatnonzero(np.logical_or.reduce(flip, axis=0))  # in some row
    sel = flip[:, cols]
    interior = np.concatenate([means, np.where(sel, xs[:, cols], np.nan),
                               np.where(sel, xs[:, cols + 1], np.nan)], axis=1)
    inside = (interior > lo[:, None]) & (interior < hi[:, None])
    # every 32nd pre-scan point: np.linspace(lo, hi, 9), the same values
    split = xs[:, ::(_SCAN_POINTS - 1) // 8]
    return np.concatenate([split, np.where(inside, interior, np.nan)], axis=1)


def _directed_distance(mu: Density1D, nu: Density1D, tol: float):
    tmap = TransportMap1D(mu, nu)
    lo, hi = mu.working_interval(_DIST_TAIL)
    means = mu.means if isinstance(mu, GaussianMixture1D) else np.empty(0)
    bp = _distance_breaks(np.array([lo]), np.array([hi]), means[None, :],
                          lambda xs: tmap.deriv(xs.ravel()).reshape(xs.shape))

    def g(x):
        s = tmap.deriv(x)
        return np.abs(1.0 - s) / np.maximum(1.0, s) * mu.pdf(x)

    return adaptive_quad(g, bp[np.isfinite(bp)], tol_abs=tol, tol_rel=1e-12)


def _rows_deriv_pdf(x, weights, means, stds, log_w, log_norm):
    """(T', u) at the points x (P, n) of row mixtures u against gamma.

    The parameter arrays are (P, K), one row per row of x. The formulas are
    those of TransportMap1D with a gamma target, T = Phi^{-1}(F_u) from the
    survival side where F_u > 1/2, and both sides come from one ndtr call
    on -|z| per component.
    """
    z = (x[:, :, None] - means[:, None, :]) / stds[:, None, :]
    logs = -0.5 * z * z - log_norm[:, None, :] + log_w[:, None, :]
    mx = logs.max(axis=-1, keepdims=True)
    logpdf = np.squeeze(mx, -1) + np.log(np.exp(logs - mx).sum(axis=-1))
    tail = ndtr(-np.abs(z))
    left = z < 0.0
    w = weights[:, None, :]
    F = np.clip((np.where(left, tail, 1.0 - tail) * w).sum(axis=-1),
                _PROB_FLOOR, _PROB_CEIL)
    S = np.clip((np.where(left, 1.0 - tail, tail) * w).sum(axis=-1),
                _PROB_FLOOR, _PROB_CEIL)
    low = F <= 0.5
    t = ndtri(np.where(low, F, S))
    t = np.where(low, t, -t)
    return np.exp(logpdf - gauss_logpdf(t)), np.exp(logpdf)


def gauss_distance_rows(weights, means, stds, *, tol: float = 1e-9):
    """Directed distances d(u_b, gamma) of many 1-D mixtures u_b at once.

    Row b of the (B, K) arrays is u_b = sum_k w_bk N(m_bk, s_bk^2); a zero
    weight marks an absent component, whose mean and std must still be
    finite. ``stds`` may be (K,), shared by all rows. Each row gets the
    working interval, pre-scan, breakpoints and quadrature budget of
    ``_directed_distance(u_b, gamma, tol)`` and agrees with it up to
    rounding. Rows run in chunks of at most _ROW_CHUNK pre-scan points x
    components. Returns (value, error), each of shape (B,).
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    m = np.atleast_2d(np.asarray(means, dtype=float))
    s = np.broadcast_to(np.asarray(stds, dtype=float), w.shape)
    present = w > 0.0
    z = float(-ndtri(_DIST_TAIL / 2.0))  # as GaussianMixture1D.working_interval
    lo = np.min(np.where(present, m - z * s, np.inf), axis=1)
    hi = np.max(np.where(present, m + z * s, -np.inf), axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    params = (w, m, s, log_w, np.log(s * SQRT_2PI))
    value = np.empty(w.shape[0])
    error = np.empty(w.shape[0])
    step = max(1, _ROW_CHUNK // (_SCAN_POINTS * w.shape[1]))
    for start in range(0, w.shape[0], step):
        rows = slice(start, start + step)
        chunk = [p[rows] for p in params]

        def g(x, row):
            d, pdf = _rows_deriv_pdf(x, *(p[row] for p in chunk))
            return np.abs(1.0 - d) / np.maximum(1.0, d) * pdf

        bp = _distance_breaks(lo[rows], hi[rows],
                              np.where(present[rows], m[rows], np.nan),
                              lambda xs: _rows_deriv_pdf(xs, *chunk)[0])
        res = adaptive_quad_rows(g, bp, tol_abs=tol, tol_rel=1e-12)
        value[rows], error[rows] = res.value, res.error
    return value, error


def bf_distance_full(u: Density1D, v: Density1D, *, tol: float = 1e-9):
    """Distance with error estimate: (value, error)."""
    r_uv = _directed_distance(u, v, tol)
    r_vu = _directed_distance(v, u, tol)
    gap = abs(r_uv.value - r_vu.value)
    if gap >= 1e-6:
        warnings.warn(
            f"directed transport integrals disagree by {gap:.3e}; "
            "returning their average", NumericalWarning, stacklevel=2)
    value = 0.5 * (r_uv.value + r_vu.value)
    value = min(max(value, 0.0), 1.0)
    return value, 0.5 * (r_uv.error + r_vu.error) + 0.5 * gap


def bf_distance(u: Density1D, v: Density1D, *, tol: float = 1e-9) -> float:
    """Transport distance in [0, 1]; zero iff v is a translate of u."""
    return bf_distance_full(u, v, tol=tol)[0]


_T_MAX = 8.0  # integration cut in the Gaussian quantile variable


def _quantile_gap(nu: Density1D, mu: Density1D, t):
    """F_nu^{-1}(Phi(t)) - F_mu^{-1}(Phi(t)), survival side used for t > 0."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    neg = t <= 0.0
    if neg.any():
        p = np.clip(ndtr(t[neg]), _PROB_FLOOR, _PROB_CEIL)
        out[neg] = nu.quantile(p) - mu.quantile(p)
    if (~neg).any():
        s = np.clip(ndtr(-t[~neg]), _PROB_FLOOR, _PROB_CEIL)
        out[~neg] = nu.quantile_sf(s) - mu.quantile_sf(s)
    return out


def w2_squared_1d_full(nu: Density1D, mu: Density1D | None = None, *,
                       tol: float = 1e-10):
    """Quantile-coupling W2^2 with error estimate.

    The p-integral over (eps, 1-eps) is evaluated in the Gaussian quantile
    variable p = Phi(t), |t| <= 8 (eps ~ 6e-16); the discarded tail windows
    are bounded using the evaluated quantile gaps at the cut and added to the
    error estimate, which keeps the result honest for Gaussian-tailed inputs.
    """
    if mu is None:
        mu = StandardGaussian()

    def g(t):
        d = _quantile_gap(nu, mu, t)
        return d * d * gauss_pdf(t)

    res = adaptive_quad(g, _breaks(-_T_MAX, _T_MAX), tol_abs=tol, tol_rel=1e-12)
    edge = float(np.max(np.abs(_quantile_gap(nu, mu, np.array([-_T_MAX, _T_MAX])))))
    # |gap(t)| <= C (1 + |t|) beyond the cut for Gaussian-dominated tails
    c = edge / (1.0 + _T_MAX)
    z = _T_MAX
    tail_weight = 2.0 * (2.0 * ndtr(-z) + 10.0 * gauss_pdf(z))
    trunc = c * c * tail_weight
    return res.value, res.error + trunc


def w2_squared_1d(nu: Density1D, mu: Density1D | None = None, *,
                  tol: float = 1e-10) -> float:
    """W2(nu, mu)^2 via the quantile coupling."""
    return w2_squared_1d_full(nu, mu, tol=tol)[0]


def talagrand_deficit_1d_full(nu: Density1D, *, tol: float = 1e-10):
    from .density1d import entropy_rel_gauss_full

    h = entropy_rel_gauss_full(nu, tol=tol)
    w2, w2_err = w2_squared_1d_full(nu, None, tol=tol)
    value = 2.0 * h.value - w2
    err = 2.0 * h.error + w2_err
    if value < -1e-8 - err:
        raise InvariantViolation(
            f"Talagrand deficit {value:.3e} fell below the numerical guard")
    return value, err


def talagrand_deficit_1d(nu: Density1D, *, tol: float = 1e-10) -> float:
    """2 H(nu | gamma) - W2(nu, gamma)^2 >= 0."""
    return talagrand_deficit_1d_full(nu, tol=tol)[0]


def bregman_integral_full(tmap: TransportMap1D, *, tol: float = 1e-11):
    if not isinstance(tmap.source, StandardGaussian):
        raise DomainError("bregman_integral requires a map with source gamma")

    def g(x):
        s = tmap.deriv(x)
        if np.any(s <= 0.0):
            raise EvaluationError("transport derivative must be positive")
        return (s - 1.0 - np.log(s)) * gauss_pdf(x)

    lo, hi = tmap.source.working_interval(1e-16)
    res = adaptive_quad(g, _breaks(lo, hi), tol_abs=tol, tol_rel=1e-12)
    return res.value, res.error


def bregman_integral(tmap: TransportMap1D, *, tol: float = 1e-11) -> float:
    """int (T' - 1 - log T') dgamma >= 0 for maps with source gamma."""
    return bregman_integral_full(tmap, tol=tol)[0]


def pointwise_bregman_bound(s):
    """(s - 1 - log s, 0.5 ((1-s)/max(1,s))^2); the first dominates the second."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(~np.isfinite(s)):
        raise DomainError("pointwise bound is defined for finite s > 0")
    lhs = s - 1.0 - np.log(s)
    r = (1.0 - s) / np.maximum(1.0, s)
    return lhs, 0.5 * r * r
