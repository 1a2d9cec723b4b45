"""Monotone transport on the line and the transport distance built from it.

For probability densities u, v the monotone rearrangement T = F_v^{-1} o F_u
pushes u dx to v dx. The distance

    d(u, v) = int |1 - T'(x)| / max(1, T'(x)) u(x) dx

takes values in [0, 1] and vanishes exactly when v is a translate of u. The
derivative is always evaluated through the densities, T'(x) = u(x)/v(T(x)),
never by finite differences. Against gamma the map S = Phi^{-1} o F_u has a
closed form, so every 1-D quantity with gamma on one side is an integral
over u of S, with no quantile inversion: d(u, gamma) is the one directed
integral from u (``gauss_distance_rows`` batches it over many mixtures;
both put each kink of |1 - T'| on a panel edge), W2^2(u, gamma) =
E_u[(y - S(y))^2], and so is the Bregman-type integral
int (T' - 1 - log T') dgamma of T = S^{-1}. Between two non-Gaussian
densities both directed integrals are computed; they agree analytically, so
a gap beyond 1e-6 raises a NumericalWarning and the average is returned.

A row of the batched kernel with one present component N(m, s^2) needs no
integral: S = (x - m) / s has the constant derivative 1/s, so
d = 1 - min(s, 1/s), returned with a rounding allowance of 1e-15 as its
error. The other rows are integrated: the kernel evaluates T' and u one
mixture component at a time, each on a contiguous array shaped like the
points, and combines components with element-wise maxima and adds.
Mixtures have few components (at most 8 in the shipped suites), and
reductions over such a short last axis cost more than the ndtr calls; the
adds keep NumPy's reduction order, so values are bit for bit those of a
stacked (points, K) formula.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .density1d import (_PROB_CEIL, _PROB_FLOOR, SQRT_2PI, Density1D,
                        GaussianMixture1D, StandardGaussian, _expect,
                        _measure_breaks, _tail_bound, entropy_rel_gauss_full,
                        gauss_logpdf)
from .errors import InvariantViolation, NumericalWarning
from .quadrature import adaptive_quad, adaptive_quad_rows

__all__ = [
    "TransportMap1D",
    "bf_distance_full",
    "gauss_distance_rows",
    "w2_squared_1d_full",
    "talagrand_deficit_1d_full",
    "bregman_integral_full",
]


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


# Pre-scan of T' - 1 on this many points of the working interval; a row
# whose sign changes number at most _MAX_FLIPS gets breakpoints at them.
_SCAN_POINTS = 257
_MAX_FLIPS = 32
# Illinois steps that locate each sign change inside its pre-scan cell.
_KINK_STEPS = 8
# Golden-section steps that find where T' - 1 turns back towards 0 between
# three pre-scan points (the bracket shrinks to 0.618^20 < 1e-4 of two
# cells).
_TURN_STEPS = 20
# Points x components the row kernel evaluates at once: each temporary is
# K arrays of the chunk's points, 1 MiB in all, so its memory does not grow
# with the number of rows.
_ROW_CHUNK = 1 << 17
# Tail mass the directed distance leaves outside its working interval.
_DIST_TAIL = 1e-15
# Error of a closed-form one-component row: its rounding is at most eps,
# 2.2e-16 (see gauss_distance_rows), and this is 4.5 eps.
_ONE_COMPONENT_ERR = 1e-15
# Multiple of eps (1 + max_k |m_k| / s_k) each quadrature row of the kernel
# adds to its error for the rounding of z = (x - m_k) / s_k, which the
# Gauss-Legendre estimate does not see (see gauss_distance_rows).
_Z_ROUNDING = 8.0


def _kinks(a, b, fa, fb, deriv):
    """Roots of T' - 1 in the cells [a, b], by _KINK_STEPS Illinois steps.

    a, b: (B, C) cell ends, where fa = T'(a) - 1 and fb = T'(b) - 1 have
    opposite signs; ``deriv`` maps (B, C) points to T' there. A secant
    point that is not finite (T' overflowed at a cell end) is replaced by
    the cell's midpoint.
    """
    side = np.zeros(a.shape)  # which end the last step kept: -1 a, +1 b
    for _ in range(_KINK_STEPS):
        with np.errstate(invalid="ignore"):  # inf / inf where T' overflowed
            c = (a * fb - b * fa) / (fb - fa)
        c = np.where(np.isfinite(c), c, 0.5 * (a + b))
        fc = deriv(c) - 1.0
        left = fc * fb > 0.0  # the root lies in [a, c]
        right = fc * fa > 0.0  # the root lies in [c, b]
        fa = np.where(left & (side == 1.0), 0.5 * fa, fa)
        fb = np.where(right & (side == -1.0), 0.5 * fb, fb)
        exact = ~(left | right)
        a = np.where(right | exact, c, a)
        b = np.where(left | exact, c, b)
        fa = np.where(right, fc, fa)
        fb = np.where(left, fc, fb)
        side = np.where(left, 1.0, np.where(right, -1.0, side))
    return c


def _turns(a, b, sign, deriv):
    """Where sign * (T' - 1) is least in [a, b], by _TURN_STEPS golden-section
    steps: the point and T' - 1 there, each (B, C)."""
    r = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = sign * (deriv(c) - 1.0), sign * (deriv(d) - 1.0)
    for _ in range(_TURN_STEPS):
        left = fc < fd  # the least value lies in [a, d]
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        keep, fkeep = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, b - r * (b - a), a + r * (b - a))
        fnew = sign * (deriv(new) - 1.0)
        c, fc = np.where(left, new, keep), np.where(left, fnew, fkeep)
        d, fd = np.where(left, keep, new), np.where(left, fkeep, fnew)
    left = fc < fd
    return np.where(left, c, d), sign * np.where(left, fc, fd)


def _leading(mask):
    """Column indices of each row's True entries, in order, then padding;
    and the (B, C) mask of the real ones."""
    count = mask.sum(axis=1)
    cols = np.argsort(~mask, axis=1, kind="stable")[:, :count.max()]
    return cols, np.arange(cols.shape[1]) < count[:, None]


def _distance_breaks(lo, hi, means, deriv):
    """Panel breakpoints of the directed distance integrand, one row each.

    lo, hi: (B,) working intervals of the sources; means: (B, K) source
    means, NaN where there is none. ``deriv`` maps (B, n) points to T'
    there. T' - 1 is pre-scanned on 257 points. Where it changes sign
    between 1 and 32 times, each sign change is located inside its cell
    (``_kinks``) and becomes a breakpoint. Where it turns back towards 0
    at a scan point without changing sign, near enough 0 to cross it (at
    most 32 times), the turn is found between the neighbouring scan points
    (``_turns``); a turn past 0 is a dip across it, whose two sign changes
    are located and become breakpoints too. So every kink of |1 - T'| sits
    on a panel edge, where the two Gauss-Legendre rules estimate the
    error honestly. The means inside (lo, hi) and the even 8-panel split of
    [lo, hi] are breakpoints too. Returns a (B, M) NaN-padded array for
    ``adaptive_quad_rows``.
    """
    # np.linspace(lo[r], hi[r], 257) for every row r, the same values
    xs = (np.arange(_SCAN_POINTS) * ((hi - lo) / (_SCAN_POINTS - 1))[:, None]
          + lo[:, None])
    xs[:, -1] = hi
    # T' overflows to inf where the target's density underflows; the scan
    # needs only the sign of T' - 1 there
    with np.errstate(over="ignore"):
        dv = deriv(xs) - 1.0
    sgn = np.sign(dv)
    flip = sgn[:, :-1] * sgn[:, 1:] < 0
    pinned = ((np.maximum.reduce(np.abs(dv), axis=1) > 1e-9)
              & (flip.sum(axis=1) <= _MAX_FLIPS))
    flip &= pinned[:, None]
    mid, side = dv[:, 1:-1], sgn[:, 1:-1]
    # a parabola through three scan points with its least value at the
    # middle one bottoms out at most a quarter of the larger neighbour
    # difference below it; a turn further from 0 than that difference
    # cannot cross 0
    reach = np.maximum(np.abs(dv[:, :-2] - mid), np.abs(dv[:, 2:] - mid))
    turn = ((side * (dv[:, :-2] - mid) > 0) & (side * (dv[:, 2:] - mid) >= 0)
            & (side * sgn[:, :-2] > 0) & (side * sgn[:, 2:] > 0)
            & (np.abs(mid) <= reach))
    turn &= (pinned & (turn.sum(axis=1) <= _MAX_FLIPS))[:, None]
    rows = np.arange(xs.shape[0])[:, None]
    cells = []  # sign-change cells (a, b, fa, fb, real), each (B, C)
    if flip.any():
        j, real = _leading(flip)
        cells.append((xs[rows, j], xs[rows, j + 1], dv[rows, j],
                      dv[rows, j + 1], real))
    if turn.any():
        j, real = _leading(turn)  # scan point j + 1, between j and j + 2
        x, fx = _turns(xs[rows, j], xs[rows, j + 2], side[rows, j], deriv)
        real &= fx * side[rows, j] < 0
        cells += [(xs[rows, j], x, dv[rows, j], fx, real),
                  (x, xs[rows, j + 2], fx, dv[rows, j + 2], real)]
    interior = means
    if cells:
        a, b, fa, fb, real = (np.concatenate(c, axis=1) for c in zip(*cells))
        # padding gets a dummy cell [lo, lo] with a sign change
        edge = lo[:, None]
        kink = _kinks(np.where(real, a, edge), np.where(real, b, edge),
                      np.where(real, fa, -1.0), np.where(real, fb, 1.0), deriv)
        interior = np.concatenate([means, np.where(real, kink, np.nan)],
                                  axis=1)
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


def _component_sum(parts):
    """Sum of equal-shape arrays in the order np.add.reduce sums a last axis
    of len(parts): one by one below 8 terms; from 8 on, 8 running sums
    combined pairwise and then the leftover terms one by one; past 128
    terms, the two halves (split at a multiple of 8) summed so and added.
    """
    n = len(parts)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _component_sum(parts[:half]) + _component_sum(parts[half:])
    if n < 8:
        out, rest = parts[0], parts[1:]
    else:
        r = list(parts[:8])
        for i in range(8, n - n % 8):
            r[i % 8] = r[i % 8] + parts[i]
        out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = parts[n - n % 8:]
    for p in rest:
        out = out + p
    return out


def _rows_deriv_pdf(x, weights, means, stds, log_w, log_norm, pdf=True):
    """(T', u) at the points x (P, n) of row mixtures u against gamma, or
    T' alone if not ``pdf``.

    The parameter arrays are (P, K), one row per row of x. The formulas are
    those of TransportMap1D with a gamma target, T = Phi^{-1}(F_u) from the
    survival side where F_u > 1/2, and both sides come from one ndtr call
    on -|z| per component. Components are outermost: each one's terms are
    contiguous arrays shaped like x, combined by element-wise maxima and by
    ``_component_sum``, which adds in the order of a sum over a stacked
    (P, n, K) axis, so the values are bit for bit those of the stacked
    formula without its costly reductions over a short strided axis.
    """
    logs, F, S = [], [], []
    for k in range(weights.shape[1]):
        # in-place steps in the stacked formula's order: the same values
        # with fewer temporaries
        z = x - means[:, k, None]
        z /= stds[:, k, None]
        log_k = -0.5 * z
        log_k *= z
        log_k -= log_norm[:, k, None]
        log_k += log_w[:, k, None]
        logs.append(log_k)
        left = z < 0.0
        tail = ndtr(np.negative(np.abs(z, out=z), out=z), out=z)
        rest = 1.0 - tail
        w = weights[:, k, None]
        F.append(np.where(left, tail, rest) * w)
        S.append(np.where(left, rest, tail) * w)
    mx = logs[0].copy()
    for v in logs[1:]:
        np.maximum(mx, v, out=mx)
    for v in logs:
        np.exp(np.subtract(v, mx, out=v), out=v)
    logpdf = mx + np.log(_component_sum(logs))
    F = np.minimum(np.maximum(_component_sum(F), _PROB_FLOOR), _PROB_CEIL)
    S = np.minimum(np.maximum(_component_sum(S), _PROB_FLOOR), _PROB_CEIL)
    low = F <= 0.5
    t = ndtri(np.where(low, F, S))
    t = np.where(low, t, -t)
    deriv = np.exp(logpdf - gauss_logpdf(t))
    return (deriv, np.exp(logpdf)) if pdf else deriv


def gauss_distance_rows(weights, means, stds, *, tol: float = 1e-9):
    """Directed distances d(u_b, gamma) of many 1-D mixtures u_b at once.

    Row b of the (B, K) arrays is u_b = sum_k w_bk N(m_bk, s_bk^2); a zero
    weight marks an absent component, whose mean and std must still be
    finite. ``stds`` may be (K,), shared by all rows.

    A row with one present component, N(m, s^2), has S = (x - m) / s, so
    T' = 1/s is constant and d = |1 - 1/s| / max(1, 1/s) = 1 - min(s, 1/s)
    exactly; it is computed so, with no pre-scan or quadrature. The value
    is 0 only for s = 1: fl(1/s) < 1 for every float s > 1, and 1 - s is
    at least eps/2 for s < 1. Its error is _ONE_COMPONENT_ERR, which bounds
    the rounding of the two operations: each is off by at most eps/2
    relative to a result at most 1, so the value is within eps = 2.2e-16
    of the distance of the given s.

    Every other row gets the working interval, pre-scan, breakpoints and
    quadrature budget of ``_directed_distance(u_b, gamma, tol)`` and agrees
    with it up to rounding; its (value, error) does not depend on the rows
    batched with it. Its error is the quadrature's estimate plus
    _Z_ROUNDING eps (1 + max_k |m_k| / s_k) over its present components:
    at nodes near a far, narrow component, z = (x - m_k) / s_k rounds by
    about eps |m_k| / s_k, and two rule orders agree on the rounded
    integrand, so their gap cannot see it. On rows of two equal halves of
    N(m, s^2), s log-uniform on [1e-3, 1e3] and m uniform on (-30, 30),
    that rounding reached 5.3 eps (1 + |m| / s); a multiple of 4 left 3
    of 600 rows short of the closed form, 8 none. These rows run in
    chunks of at most _ROW_CHUNK pre-scan points x components. Returns (value, error), each of shape
    (B,), in row order.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    m = np.atleast_2d(np.asarray(means, dtype=float))
    s = np.broadcast_to(np.asarray(stds, dtype=float), w.shape)
    present = w > 0.0
    value = np.empty(w.shape[0])
    error = np.empty(w.shape[0])
    one = present.sum(axis=1) == 1
    if one.any():
        s_one = s[one, np.argmax(present[one], axis=1)]
        value[one] = 1.0 - np.minimum(s_one, 1.0 / s_one)
        error[one] = _ONE_COMPONENT_ERR
    quad = np.flatnonzero(~one)
    w, m, s, present = w[quad], m[quad], s[quad], present[quad]
    rounding = _Z_ROUNDING * np.finfo(float).eps * (
        1.0 + np.max(np.where(present, np.abs(m) / s, 0.0), axis=1))
    z = float(-ndtri(_DIST_TAIL / 2.0))  # as GaussianMixture1D.working_interval
    lo = np.min(np.where(present, m - z * s, np.inf), axis=1)
    hi = np.max(np.where(present, m + z * s, -np.inf), axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    params = (w, m, s, log_w, np.log(s * SQRT_2PI))
    step = max(1, _ROW_CHUNK // (_SCAN_POINTS * w.shape[1]))
    for start in range(0, w.shape[0], step):
        rows = slice(start, start + step)
        chunk = [p[rows] for p in params]

        def g(x, row):
            d, pdf = _rows_deriv_pdf(x, *(p[row] for p in chunk))
            return np.abs(1.0 - d) / np.maximum(1.0, d) * pdf

        bp = _distance_breaks(lo[rows], hi[rows],
                              np.where(present[rows], m[rows], np.nan),
                              lambda xs: _rows_deriv_pdf(xs, *chunk, pdf=False))
        res = adaptive_quad_rows(g, bp, tol_abs=tol, tol_rel=1e-12)
        value[quad[rows]] = res.value
        error[quad[rows]] = res.error + rounding[rows]
    return value, error


def bf_distance_full(u: Density1D, v: Density1D, *, tol: float = 1e-9):
    """Distance in [0, 1] with error estimate: (value, error). The value
    is zero iff v is a translate of u.

    Against gamma the one directed integral has no second direction to check
    it against, so its error carries tol / 2 on top of the quadrature's
    estimate, as the two-direction path carries half their gap.
    """
    if isinstance(u, StandardGaussian):
        u, v = v, u
    if isinstance(v, StandardGaussian):
        res = _directed_distance(u, v, tol)
        return min(max(res.value, 0.0), 1.0), res.error + 0.5 * tol
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


def w2_squared_1d_full(nu: Density1D, *, tol: float = 1e-10):
    """W2(nu, gamma)^2 = E_nu[(y - S(y))^2] with an error estimate.

    S = Phi^{-1} o F_nu pushes nu to gamma. The error includes the bound on
    nu's tails beyond the integration interval.
    """
    smap = TransportMap1D(nu, StandardGaussian())

    def fn(y):
        gap = y - smap(y)
        return gap * gap

    res = _expect(nu, fn, tol)
    return res.value, res.error + _tail_bound(nu, fn)


def talagrand_deficit_1d_full(nu: Density1D, *, tol: float = 1e-10):
    """2 H(nu | gamma) - W2(nu, gamma)^2 >= 0 with an error estimate:
    (value, error)."""
    h = entropy_rel_gauss_full(nu, tol=tol)
    w2, w2_err = w2_squared_1d_full(nu, tol=tol)
    value = 2.0 * h.value - w2
    err = 2.0 * h.error + w2_err
    if value < -1e-8 - err:
        raise InvariantViolation(
            f"Talagrand deficit {value:.3e} fell below the numerical guard")
    return value, err


def bregman_integral_full(u: Density1D, *, tol: float = 1e-11):
    """int (T' - 1 - log T') dgamma >= 0 for the monotone map T pushing
    gamma to u: (value, error).

    Substituting y = T(x) moves the integral to the target u:
    int (phi(S) - u + u log S') dy with S = T^{-1} = Phi^{-1} o F_u and
    log S' = log u - log phi(S). T' = 1/S' is never formed: it overflows
    between separated modes of u.
    """
    smap = TransportMap1D(u, StandardGaussian())

    def g(y):
        log_u = u.logpdf(y)
        log_phi = gauss_logpdf(smap(y))
        pdf = np.exp(log_u)
        return np.exp(log_phi) - pdf + pdf * (log_u - log_phi)

    res = adaptive_quad(g, _measure_breaks(u), tol_abs=tol, tol_rel=1e-12)
    return max(res.value, 0.0), res.error  # the integrand is >= 0
