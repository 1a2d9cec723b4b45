"""Monotone transport on the line and the transport distance built from it.

For probability densities u, v the monotone rearrangement T = F_v^{-1} o F_u
pushes u dx to v dx. The distance

    d(u, v) = int |1 - T'(x)| / max(1, T'(x)) u(x) dx

takes values in [0, 1] and vanishes exactly when v is a translate of u. The
derivative is always evaluated through the densities, T'(x) = u(x)/v(T(x)),
never by finite differences. Against gamma the map S = Phi^{-1} o F_u has a
closed form, so every 1-D quantity with gamma on one side is an integral
over u of S, with no quantile inversion: d(u, gamma) is the one directed
integral from u, ``_directed_distance`` (``gauss_distance_rows`` batches
it over many mixtures; both put each kink of |1 - T'| on a panel edge),
W2^2(u, gamma) = E_u[(y - S(y))^2], and so is the Bregman integral
B = int (T' - 1 - log T') dgamma of T = S^{-1}. Gaussian integration by
parts makes the 1-D Talagrand deficit the identity 2 H - W2^2 = 2 B, so
``talagrand_deficit_1d_full`` is that one integral, with no entropy or
W2 integral and no cancellation between them. Between two non-Gaussian
densities the quantile coupling, with p = Phi(z), makes d one integral on
the Gaussian scale (``_pair_distance``),

    d(u, v) = E_gamma[1 - exp(-|log u(x_u(z)) - log v(x_v(z))|)],

where x_u(z) solves S_u(x) = z: symmetric in u and v by construction, and
free of the ratio u / v(T), which overflows between separated modes.

The directed integrals' first panels also end at the points where the
source has structure of its own: a mixture's means, or a grid's nodes,
where its log-density kinks; the pair integral's end at S_u and S_v of
both sides' ``density1d._interior``. A grid is log-linear between nodes, so
its panels are smooth and take the 7-point Kronrod pair K7/G3, where a
mixture's take K21; on the 4097-node PL grid every one settles in the
first round. The directed integral reads its source one panel at a time
(``Density1D._panel_mass_logpdf_pdf``): a grid panel lies in one piece of
the node table, located once from its middle node, whose parameters
serve all its points for mass, log-density and density with the bits of
a point-by-point read. The integrand runs in slices of whole
panels of at most _EVAL_SLICE points, so a grid's large first round adds
no peak memory.

A row of the batched kernel with one present component N(m, s^2) needs no
integral: S = (x - m) / s has the constant derivative 1/s, so
d = 1 - min(s, 1/s), returned with a rounding allowance of 1e-15 as its
error. The other rows are integrated, on the component pass of
``density1d`` that GaussianMixture1D runs too, so a row's T' and u are
bit for bit those of its own mixture.

``gauss_distance_estimates`` is the kernel's cheap companion: on the same
rows, working intervals and chunks it gives a trapezoid estimate of each
distance on a quarter of the pre-scan points, with a heuristic bound on
its gap to the certified value, so that a caller can rank many rows and
certify only those that can matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density1d import (_TAIL_MASS, SQRT_2PI, WORKING_RADIUS, Density1D,
                        GaussianMixture1D, GridDensity1D, StandardGaussian,
                        _breaks, _columns, _components, _expect, _interior,
                        _measure_breaks, _mixture_log, _mixture_masses,
                        _mixture_span, _phi_inverse, _single_components,
                        gauss_logpdf, gauss_pdf)
from .errors import EvaluationError
from .quadrature import K7, K21, QuadResult, adaptive_quad, adaptive_quad_rows

__all__ = [
    "TransportMap1D",
    "bf_distance_full",
    "gauss_distance_rows",
    "gauss_distance_estimates",
    "w2_squared_1d_full",
    "talagrand_deficit_1d_full",
    "bregman_integral_full",
]


@dataclass
class TransportMap1D:
    """Monotone map pushing ``source`` forward to ``target``: one call into
    each, the target's inverse of the source's mass."""

    source: Density1D
    target: Density1D

    def __call__(self, x):
        return self.target._invert(*self.source._mass(x))

    def deriv(self, x):
        """T'(x) = u(x) / v(T(x)), strictly positive."""
        return self._deriv(*self.source._mass_logpdf(x))

    def _deriv(self, m, upper, logpdf):
        """T' at points where the source has masses (m, upper) and log-density
        logpdf."""
        target = self.target
        return np.exp(logpdf - target.logpdf(target._invert(m, upper)))


# Pre-scan of T' - 1 on this many points of the working interval; a row
# whose sign changes number at most _MAX_FLIPS gets breakpoints at them.
_SCAN_POINTS = 257
_MAX_FLIPS = 32
# Each sign change is located until its bracket is at most this share of
# its pre-scan cell, by up to _KINK_CAP Illinois steps and then, for the
# cells still open, up to _KINK_BISECT bisection steps (40 halvings reach
# the share from any bracket; two more absorb the rounding of midpoints).
_KINK_WIDTH = 1e-12
_KINK_CAP = 100
_KINK_BISECT = math.ceil(math.log2(1.0 / _KINK_WIDTH)) + 2
# Golden-section steps that find where T' - 1 turns back towards 0 between
# three pre-scan points (the bracket shrinks to 0.618^20 < 1e-4 of two
# cells).
_TURN_STEPS = 20
# Points x components the row kernel evaluates at once: each temporary is
# K arrays of the chunk's points, 1 MiB in all, so its memory does not grow
# with the number of rows.
_ROW_CHUNK = 1 << 17
# Most points the directed distance's integrand evaluates at once, in
# whole panels (780 of K21, 2,340 of K7): a grid source's first round
# has a panel per node, and each panel's values do not depend on the
# panels beside it, so slices keep its temporaries this size at no cost in
# bits.
_EVAL_SLICE = 1 << 14
# ``gauss_distance_estimates`` reads every 4th pre-scan point, 65 in all,
# and adds 1e-12 to each bound, far above the tail mass outside the
# working interval.
_ESTIMATE_STRIDE = 4
_ESTIMATE_FLOOR = 1e-12
# Tail mass each distance integral leaves outside its working interval.
_DIST_TAIL = 1e-15
# Least quadrature budget of a distance, a few eps for the rounding of its
# integrand: a zero distance at tol 0 would otherwise have budget 0, which
# no rule gap reaches.
_EPS = float(np.finfo(float).eps)
_ROUNDING_FLOOR = 8.0 * _EPS
# Error of a closed-form one-component row: its rounding is at most eps,
# 2.2e-16 (see gauss_distance_rows), and this is 4.5 eps.
_ONE_COMPONENT_ERR = 1e-15
# Multiple of eps (1 + max_k |m_k| / s_k) each quadrature row of the kernel
# adds to its error for the rounding of z = (x - m_k) / s_k, which the
# Gauss-Kronrod estimate does not see (see gauss_distance_rows).
_Z_ROUNDING = 8.0
# Absolute budgets of the W2 and Bregman integrals.
_W2_TOL = 1e-10
_BREGMAN_TOL = 1e-11
# Multiple of eps (1 + max_k |m_k| / s_k) R that the Bregman integral adds
# to its error for rounding, R = int (phi(S) + u + u |log S'|) dy (see
# bregman_integral_full). Against 40-digit values of s - 1 - log s on
# 100,000 seeded N(m, s^2), m uniform on (-30, 30) and s log-uniform on
# [1e-6, 1e6] (default_rng(20261020)), the miss beyond the quadrature
# estimate and the tail charge reached 0.34 of eps (1 + |m| / s) R, 0.46
# of this charge.
_BREGMAN_ROUNDING = 0.75


def _kinks(a, b, fa, fb, deriv):
    """Roots of T' - 1 in the cells [a, b], by Illinois steps until each
    bracket is at most _KINK_WIDTH of its cell wide, or 4 eps of its ends'
    magnitude, below which the steps can no longer shrink it.

    a, b: (B, C) cell ends, where fa = T'(a) - 1 and fb = T'(b) - 1 have
    opposite signs; ``deriv`` maps (B, C) points to T' there. A secant
    point that is not finite (T' overflowed at a cell end) is replaced by
    the cell's midpoint. Each root is the secant point of its final
    bracket. Illinois steps stall where one end's T' - 1 is at rounding
    level, so cells still open after _KINK_CAP of them are bisected, and
    EvaluationError is raised only if _KINK_BISECT bisections leave a cell
    open. A cell that closes within _KINK_CAP steps never sees a bisection,
    so its root does not depend on the cells batched with it.
    """
    width = np.maximum(_KINK_WIDTH * (b - a),
                       4.0 * _EPS * np.maximum(np.abs(a), np.abs(b)))
    side = np.zeros(a.shape)  # which end the last step kept: -1 a, +1 b
    for step in range(_KINK_CAP + _KINK_BISECT):
        with np.errstate(invalid="ignore"):  # inf / inf where T' overflowed
            c = (a * fb - b * fa) / (fb - fa)
        c = np.where(np.isfinite(c), c, 0.5 * (a + b))
        active = b - a > width
        if not active.any():
            return c
        if step >= _KINK_CAP:
            c = np.where(active, 0.5 * (a + b), c)
        fc = deriv(c) - 1.0
        left = active & (fc * fb > 0.0)  # the root lies in [a, c]
        right = active & (fc * fa > 0.0)  # the root lies in [c, b]
        fa = np.where(left & (side == 1.0), 0.5 * fa, fa)
        fb = np.where(right & (side == -1.0), 0.5 * fb, fb)
        exact = active & ~(left | right)
        a = np.where(right | exact, c, a)
        b = np.where(left | exact, c, b)
        fa = np.where(right, fc, fa)
        fb = np.where(left, fc, fb)
        side = np.where(left, 1.0, np.where(right, -1.0, side))
    raise EvaluationError("kink location did not converge")


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


def _scan_points(lo, hi, stride=1):
    """Every stride-th pre-scan point of each working interval [lo, hi]:
    np.linspace(lo[r], hi[r], _SCAN_POINTS)[::stride] for every row r, the
    same values."""
    xs = (np.arange(0, _SCAN_POINTS, stride)
          * ((hi - lo) / (_SCAN_POINTS - 1))[:, None] + lo[:, None])
    xs[:, -1] = hi
    return xs


def _distance_breaks(lo, hi, interior, deriv):
    """Panel breakpoints of a distance integrand, one row each.

    lo, hi: (B,) working intervals; interior: (B, K) points where the
    integrand has structure of its own, NaN-padded: a mixture's means, or a
    grid source's nodes, where its log-density kinks (so a grid source is
    log-linear on each panel), or, on the Gaussian scale of a pair, both
    sides' structure mapped there. ``deriv`` maps (B, n) points to T' there.
    T' - 1 is pre-scanned on 257 points. Where it changes sign between 1
    and 32 times, each sign change is located inside its cell
    (``_kinks``) and becomes a breakpoint. Where it turns back towards 0
    at a scan point without changing sign, near enough 0 to cross it (at
    most 32 times), the turn is found between the neighbouring scan points
    (``_turns``); a turn past 0 is a dip across it, whose two sign changes
    are located and become breakpoints too. So every kink of |1 - T'| sits
    on a panel edge, where the nested Gauss-Kronrod pair estimates the
    error honestly. The interior points inside (lo, hi) and the even
    8-panel split of [lo, hi] are breakpoints too (``_breaks``). Returns a
    (B, M) NaN-padded array for ``adaptive_quad_rows``.
    """
    xs = _scan_points(lo, hi)
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
    if cells:
        a, b, fa, fb, real = (np.concatenate(c, axis=1) for c in zip(*cells))
        # padding gets a dummy cell [lo, lo] with a sign change
        edge = lo[:, None]
        kink = _kinks(np.where(real, a, edge), np.where(real, b, edge),
                      np.where(real, fa, -1.0), np.where(real, fb, 1.0), deriv)
        interior = np.concatenate([interior, np.where(real, kink, np.nan)],
                                  axis=1)
    return _breaks(lo, hi, interior)


def _directed_distance(mu: Density1D, tol: float):
    """d(mu, gamma) as the directed integral over mu: a QuadResult. A
    mixture adds the row kernel's allowance for the rounding of
    z = (x - m_k) / s_k to the quadrature's estimate (see
    gauss_distance_rows). A grid source is log-linear on each cell between
    its nodes, which are panel edges, so its cells take the 3/7 Kronrod
    pair; any other source keeps K21 (a mixture's panels run between its
    means)."""
    tmap = TransportMap1D(mu, StandardGaussian())
    lo, hi = mu.working_interval(_DIST_TAIL)
    # a mixture's panels end at its means, as a kernel row's do
    mixture = isinstance(mu, GaussianMixture1D)
    interior = mu.means if mixture else _interior(mu)
    bp = _distance_breaks(np.array([lo]), np.array([hi]), interior[None, :],
                          lambda xs: tmap.deriv(xs.ravel()).reshape(xs.shape))

    def g(x, row):
        out = np.empty_like(x)
        step = _EVAL_SLICE // x.shape[1]
        for start in range(0, x.shape[0], step):
            part = slice(start, start + step)
            m, upper, logpdf, pdf = mu._panel_mass_logpdf_pdf(x[part])
            s = tmap._deriv(m, upper, logpdf)
            out[part] = np.abs(1.0 - s) / np.maximum(1.0, s) * pdf
        return out

    res = adaptive_quad_rows(g, bp, tol_abs=max(tol, _ROUNDING_FLOOR),
                             tol_rel=1e-12,
                             pair=K7 if isinstance(mu, GridDensity1D) else K21)
    error = float(res.error[0])
    if mixture:
        error += float(_z_rounding(mu.means, mu.stds, True))
    return QuadResult(float(res.value[0]), error, int(res.evaluations[0]),
                      int(res.panels[0]))


def _z_reach(means, stds, present):
    """1 + max_k |m_k| / s_k over the ``present`` components on the last
    axis: the rounding of z = (x - m_k) / s_k, in units of eps, that a
    quadrature's estimate does not see (see gauss_distance_rows)."""
    return 1.0 + np.max(np.where(present, np.abs(means) / stds, 0.0),
                        axis=-1)


def _z_rounding(means, stds, present):
    """_Z_ROUNDING eps ``_z_reach``: a distance's charge for that
    rounding."""
    return _Z_ROUNDING * _EPS * _z_reach(means, stds, present)


def _pair_distance(u: Density1D, v: Density1D, tol: float):
    """d(u, v) = E_gamma[-expm1(-|L(z)|)], L(z) = log u(x_u(z)) -
    log v(x_v(z)), for two densities neither of which is gamma: (value,
    error).

    x_u = TransportMap1D(gamma, u) is a mixture's Newton solve or a grid's
    closed-form inverse. exp(L) is T' at x_u(z), so ``_distance_breaks``
    puts each zero of L on a panel edge, with S_u and S_v of both sides'
    ``_interior`` as interior points: a component of weight w spans mass w
    in z, however narrow. The error is the quadrature's estimate, plus
    _DIST_TAIL for the gamma-mass outside the interval (the integrand is at
    most phi), plus _ROUNDING_FLOOR.
    """
    gauss = StandardGaussian()
    x_u, x_v = TransportMap1D(gauss, u), TransportMap1D(gauss, v)

    def log_ratio(z):
        return u.logpdf(x_u(z)) - v.logpdf(x_v(z))

    def deriv(zs):
        # exp(L) overflows to inf where L passes 709, between separated
        # modes; the breakpoint search needs only the sign of exp(L) - 1
        with np.errstate(over="ignore"):
            return np.exp(log_ratio(zs.ravel())).reshape(zs.shape)

    lo, hi = gauss.working_interval(_DIST_TAIL)
    interior = np.concatenate([TransportMap1D(d, gauss)(_interior(d))
                               for d in (u, v)])
    bp = _distance_breaks(np.array([lo]), np.array([hi]), interior[None, :],
                          deriv)

    def g(z):
        return -np.expm1(-np.abs(log_ratio(z))) * gauss_pdf(z)

    res = adaptive_quad(g, bp[np.isfinite(bp)],
                        tol_abs=max(tol, _ROUNDING_FLOOR), tol_rel=1e-12)
    return res.value, res.error + _DIST_TAIL + _ROUNDING_FLOOR


def _rows_pass(x, weights, means, stds, log_w, log_norm):
    """(zs, e, total, S, T', log u) at the points x (P, n) of row mixtures
    u against gamma: the component pass of ``density1d`` (its z_k, its
    log-sum-exp terms e_k and their sum), S = Phi^{-1}(F) and T' = u /
    phi(S).

    The parameters are (K, P, 1): component k of every row as a column,
    one row per row of x. The formulas are TransportMap1D's with a gamma
    target, so every row's T' and log u are bit for bit those of
    ``TransportMap1D(u, StandardGaussian()).deriv`` and ``u.logpdf`` for
    the GaussianMixture1D u of its present components: an absent one adds
    exact zeros.
    """
    zs = _components(x, means, stds)
    logpdf, e, total = _mixture_log(zs, log_w, log_norm)
    S = _phi_inverse(*_mixture_masses(zs, weights))
    return zs, e, total, S, np.exp(logpdf - gauss_logpdf(S)), logpdf


def _rows_deriv_pdf(x, *params, pdf=True):
    """(T', u) at the points x of row mixtures u against gamma, or T' alone
    if not ``pdf``: ``_rows_pass`` on the same (K, P, 1) parameters."""
    *_, deriv, logpdf = _rows_pass(x, *params)
    return (deriv, np.exp(logpdf)) if pdf else deriv


def _distance_integrand(x, weights, means, stds, log_w, log_norm, grad):
    """f = |1 - T'| / max(1, T') u at the points x of row mixtures u against
    gamma, and if ``grad`` its (2K, P, n) derivatives by the K means a_k,
    then the K stds s_k, of each row.

    With z_k = (x - a_k) / s_k, p_k = w_k phi(z_k) / s_k, F = sum w_k
    Phi(z_k) and S = Phi^{-1}(F), f is u - phi(S) where T' >= 1 and
    u - u^2 / phi(S) where T' < 1, so its derivative is du + S dF there
    and (1 - 2 T') du - T'^2 S dF here, with du/da_k = p_k z_k / s_k,
    du/ds_k = p_k (z_k^2 - 1) / s_k, dF/da_k = -p_k and dF/ds_k = -p_k z_k.
    p_k is u times the responsibility e_k / total of the component pass,
    and p_k z_k is formed before any division by s_k, so a far, narrow
    component underflows to 0 rather than overflowing. The value has the
    bits it has without ``grad``.
    """
    zs, e, total, S, deriv, logpdf = _rows_pass(x, weights, means, stds,
                                                log_w, log_norm)
    pdf = np.exp(logpdf)
    value = np.abs(1.0 - deriv) / np.maximum(1.0, deriv) * pdf
    if not grad:
        return value
    above = deriv >= 1.0
    t = np.minimum(deriv, 1.0)  # T' may overflow where it is >= 1
    du = np.where(above, 1.0, 1.0 - 2.0 * t)
    dF = np.where(above, S, -t * t * S)
    scale = pdf / total
    d_means, d_stds = [], []
    for z, s, e_k in zip(zs, stds, e):
        p = e_k * scale
        pz = p * z
        d_means.append(du * pz / s - dF * p)
        d_stds.append(du * (pz * z - p) / s - dF * pz)
    return value, np.array(d_means + d_stds)


class _RowMixtures:
    """The (B, K) row mixtures of the batched routines, split as both treat
    them: ``one`` marks the rows with one present component (the split of
    ``density1d._single_components``, which the information kernel
    ``_information_rows`` makes too), ``k_one`` and
    ``s_one`` hold that component's index and std, and ``closed`` their
    d = 1 - min(s, 1/s) (see gauss_distance_rows). The other
    rows, at indices ``quad``, keep their ``present`` mask, their working
    intervals [lo, hi] and the (w, m, s, log w, log(s sqrt(2 pi))) arrays
    that ``_columns`` hands to ``_rows_deriv_pdf``, and run in chunks."""

    def __init__(self, weights, means, stds):
        w = np.atleast_2d(np.asarray(weights, dtype=float))
        m = np.atleast_2d(np.asarray(means, dtype=float))
        s = np.broadcast_to(np.asarray(stds, dtype=float), w.shape)
        present = w > 0.0
        self.one, self.k_one = _single_components(present)
        self.s_one = s[self.one, self.k_one]
        self.closed = 1.0 - np.minimum(self.s_one, 1.0 / self.s_one)
        self.quad = np.flatnonzero(~self.one)
        w, m, s = w[self.quad], m[self.quad], s[self.quad]
        self.present = present[self.quad]
        if not self.quad.size:
            # no row to integrate: the callers read only the (0, K) shapes
            self.lo = self.hi = np.empty(0)
            self.params = (w, m, s, w, s)
            return
        self.lo, self.hi = _mixture_span(m, s, self.present, _DIST_TAIL)
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        self.params = (w, m, s, log_w, np.log(s * SQRT_2PI))

    def chunks(self, points):
        """Slices of the ``quad`` rows that each evaluate at most _ROW_CHUNK
        points x components (one row at least), at ``points`` a row."""
        step = max(1, _ROW_CHUNK // (points * self.params[0].shape[1]))
        for start in range(0, self.quad.size, step):
            yield slice(start, start + step)


def gauss_distance_rows(weights, means, stds, *, tol: float = 1e-9,
                        grad: bool = False):
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
    quadrature budget of ``_directed_distance(u_b, tol)`` and agrees with
    it up to rounding; its (value, error) does not depend on the rows
    batched with it. Its error is the quadrature's estimate plus
    _Z_ROUNDING eps (1 + max_k |m_k| / s_k) over its present components,
    as ``_directed_distance`` charges a mixture source:
    at nodes near a far, narrow component, z = (x - m_k) / s_k rounds by
    about eps |m_k| / s_k, and K21 and G10 agree on the rounded
    integrand, so their gap cannot see it. On rows of two equal halves of
    N(m, s^2), s log-uniform on [1e-3, 1e3] and m uniform on (-30, 30),
    that rounding reached 5.9 eps (1 + |m| / s) beyond the quadrature
    estimate; a multiple of 4 left 32 of 600 rows short of the closed
    form, 8 none. These rows run in
    chunks of at most _ROW_CHUNK pre-scan points x components. Returns
    (value, error), each of shape (B,), in row order.

    With ``grad``, it returns (value, error, d_means, d_stds): value and
    error with the bits they have without it, and the derivatives of each
    distance by its rows' means and stds, (B, K) each, zero at an absent
    component. A one-component row's is the closed form's: dd/ds is -1
    for s < 1 and 1/s^2 for s >= 1, and dd/dm is 0. Every other row's is
    the integral of the integrand's derivative (``_distance_integrand``),
    taken under the integral sign: the integrand is continuous where
    T' = 1, and those points are panel edges, so the K21 rule on the
    value's settled panels integrates each smooth piece, in the same
    quadrature call as the value. The gradient has no error estimate.
    """
    batch = _RowMixtures(weights, means, stds)
    value = np.empty(batch.one.size)
    error = np.empty(batch.one.size)
    value[batch.one] = batch.closed
    error[batch.one] = _ONE_COMPONENT_ERR
    _, m, s = batch.params[:3]
    if grad:
        slopes = np.zeros((2, batch.one.size, batch.present.shape[1]))
        s_one = batch.s_one
        slopes[1, np.flatnonzero(batch.one), batch.k_one] = np.where(
            s_one < 1.0, -1.0, 1.0 / (s_one * s_one))
    rounding = _z_rounding(m, s, batch.present)
    for rows in batch.chunks(_SCAN_POINTS):
        chunk = [p[rows] for p in batch.params]

        def g(x, row):
            return _distance_integrand(x, *_columns(chunk, row), grad)

        columns = _columns(chunk, slice(None))
        bp = _distance_breaks(batch.lo[rows], batch.hi[rows],
                              np.where(batch.present[rows], m[rows], np.nan),
                              lambda xs: _rows_deriv_pdf(xs, *columns, pdf=False))
        res = adaptive_quad_rows(g, bp, tol_abs=max(tol, _ROUNDING_FLOOR),
                                 tol_rel=1e-12)
        value[batch.quad[rows]] = res.value
        error[batch.quad[rows]] = res.error + rounding[rows]
        if grad:
            slopes[:, batch.quad[rows]] = res.extra.reshape(
                2, -1, res.extra.shape[1]).transpose(0, 2, 1)
    if grad:
        return value, error, slopes[0], slopes[1]
    return value, error


def gauss_distance_estimates(weights, means, stds):
    """Cheap estimates of the distances ``gauss_distance_rows`` certifies,
    each with a bound on its gap to the certified value: (estimate, bound),
    each of shape (B,), for the same row arrays.

    A row with one present component gets the kernel's closed form, bit for
    bit, and bound 0. Every other row gets the trapezoid rule for
    |1 - T'| / max(1, T') u on every _ESTIMATE_STRIDE-th pre-scan point of
    the kernel's working interval, 65 points h apart. Its bound is
    |trapezoid at h - trapezoid at 2h|, plus the trapezoid share of every
    cell where T' - 1 changes sign, or where |T' - 1| has a local minimum
    at one of its ends that its dip can take to 0, since the rule cannot
    resolve a kink of |1 - T'| inside such a cell. The dip can reach 0 when
    |T' - 1| at the minimum is at most the larger difference to its two
    neighbours, or at an end point to its one neighbour: the reach test
    that ``_distance_breaks`` applies to turns. A minimum further from 0
    is a smooth stretch of |1 - T'| that the step-halving term sees. Added
    to these is the weight of every component narrower than h, whose
    mass the rule can step over (the integrand is at most u), plus
    _ESTIMATE_FLOOR. The bound is a heuristic, not an
    enclosure: the tests check it against the certified values, and no
    report carries it. Rows run in chunks of at most _ROW_CHUNK points x
    components.
    """
    batch = _RowMixtures(weights, means, stds)
    estimate = np.empty(batch.one.size)
    bound = np.zeros(batch.one.size)
    estimate[batch.one] = batch.closed
    points = (_SCAN_POINTS - 1) // _ESTIMATE_STRIDE + 1
    for rows in batch.chunks(points):
        lo, hi = batch.lo[rows], batch.hi[rows]
        xs = _scan_points(lo, hi, _ESTIMATE_STRIDE)
        # T' overflows to inf where gamma's density underflows, where the
        # integrand 1 - min(T', 1 / T') is 1
        with np.errstate(over="ignore"):
            deriv, pdf = _rows_deriv_pdf(xs, *_columns(batch.params, rows))
        f = (1.0 - np.minimum(deriv, 1.0 / np.maximum(deriv, 1.0))) * pdf
        h = (hi - lo)[:, None] * (_ESTIMATE_STRIDE / (_SCAN_POINTS - 1))
        cells = 0.5 * h * (f[:, :-1] + f[:, 1:])
        coarse = (h * (f[:, :-2:2] + f[:, 2::2])).sum(axis=1)
        fine = cells.sum(axis=1)
        dv = deriv - 1.0
        sgn = np.sign(dv)
        kinked = sgn[:, :-1] * sgn[:, 1:] < 0
        gap = np.abs(dv)
        # a local minimum of |T' - 1| whose dip can reach 0 kinks both its
        # cells: the reach test of _distance_breaks, |T' - 1| <= the larger
        # neighbour difference, taken as 2 |T' - 1| <= the larger neighbour
        # so an overflowed T' needs no inf - inf; an end point has one cell
        # and one neighbour
        mid, left, right = gap[:, 1:-1], gap[:, :-2], gap[:, 2:]
        dip = ((mid <= left) & (mid <= right)
               & (mid <= 0.5 * np.maximum(left, right)))
        kinked[:, :-1] |= dip
        kinked[:, 1:] |= dip
        kinked[:, 0] |= gap[:, 0] <= 0.5 * gap[:, 1]
        kinked[:, -1] |= gap[:, -1] <= 0.5 * gap[:, -2]
        w, _, s = (p[rows] for p in batch.params[:3])
        estimate[batch.quad[rows]] = fine
        bound[batch.quad[rows]] = (np.abs(fine - coarse)
                                   + np.where(kinked, cells, 0.0).sum(axis=1)
                                   + np.where(s < h, w, 0.0).sum(axis=1)
                                   + _ESTIMATE_FLOOR)
    return estimate, bound


def bf_distance_full(u: Density1D, v: Density1D, *, tol: float = 1e-9):
    """Distance in [0, 1] with error estimate: (value, error). The value
    is zero iff v is a translate of u.

    Each kind of input has one route. Against gamma it is the directed
    integral over the other side, ``_directed_distance``, with no second
    direction to check it against, so its error carries half its budget,
    max(tol, _ROUNDING_FLOOR) / 2, on top of its own. Every other pair is
    one integral on the Gaussian scale (``_pair_distance``).
    """
    if isinstance(u, StandardGaussian):
        u, v = v, u
    if not isinstance(v, StandardGaussian):
        value, error = _pair_distance(u, v, tol)
    else:
        res = _directed_distance(u, tol)
        value = res.value
        error = res.error + 0.5 * max(tol, _ROUNDING_FLOOR)
    return min(max(value, 0.0), 1.0), error


def w2_squared_1d_full(nu: Density1D):
    """W2(nu, gamma)^2 = E_nu[(y - S(y))^2] with an error estimate, to the
    absolute budget _W2_TOL.

    S = Phi^{-1} o F_nu pushes nu to gamma. The error includes the bound on
    nu's tails beyond the integration interval.
    """
    smap = TransportMap1D(nu, StandardGaussian())

    def fn(y):
        gap = y - smap(y)
        return gap * gap, nu.pdf(y)

    res = _expect(nu, fn, _W2_TOL)
    return res.value, res.error


def talagrand_deficit_1d_full(nu: Density1D):
    """2 H(nu | gamma) - W2(nu, gamma)^2 >= 0 with an error estimate:
    (value, error), as (2 B, 2 B_err) for (B, B_err) =
    ``bregman_integral_full(nu)``.

    For the monotone map T pushing gamma to nu, Gaussian integration by
    parts, int x T dgamma = int T' dgamma, turns the deficit into the
    identity 2 H - W2^2 = 2 int (T' - 1 - log T') dgamma = 2 B
    (Cordero-Erausquin, Arch. Ration. Mech. Anal. 161, 2002): one
    integral of a non-negative integrand, where 2 H - W2^2 cancels two
    integrals.
    """
    value, error = bregman_integral_full(nu)
    return 2.0 * value, 2.0 * error


def bregman_integral_full(u: Density1D):
    """B = int (T' - 1 - log T') dgamma >= 0 for the monotone map T pushing
    gamma to u: (value, error), to the budget _BREGMAN_TOL.

    Substituting y = T(x) moves the integral to the target u:
    int (phi(S) - u + u log S') dy with S = T^{-1} = Phi^{-1} o F_u and
    log S' = log u - log phi(S). T' = 1/S' is never formed: it overflows
    between separated modes of u. Each point reads u once
    (``_mass_logpdf``), on the interval and breakpoints of the entropy
    integral (``_measure_interval``, ``_measure_breaks``).

    The error has three parts. The quadrature's estimate. A rounding
    charge, _BREGMAN_ROUNDING eps (1 + max_k |m_k| / s_k) R, with
    R = int (phi(S) + u + u |log S'|) dy the size of the terms, taken as an
    extra column of the same quadrature; the max term, a mixture's only,
    is the rounding of z = (y - m_k) / s_k at a far, narrow component,
    which K21 and G10 see alike (see gauss_distance_rows). And the u-mass
    outside the interval: each side of u's own working interval carries
    at most _TAIL_MASS / 2 of it, where the integrand is u f with
    f = 1/S' - 1 + log S' >= 0, charged twice f at that edge, as
    ``density1d._expect`` charges its tails.
    """
    gauss = StandardGaussian()

    def log_u_phi(y):
        m, upper, log_u = u._mass_logpdf(y)
        return log_u, gauss_logpdf(gauss._invert(m, upper))

    def g(x, row):
        log_u, log_phi = log_u_phi(x.ravel())
        phi, pdf = np.exp(log_phi), np.exp(log_u)
        log_slope = log_u - log_phi
        value = phi - pdf + pdf * log_slope
        size = phi + pdf + pdf * np.abs(log_slope)
        return value.reshape(x.shape), size.reshape((1, *x.shape))

    # _measure_interval, with u's own working interval kept for the tails
    lo_u, hi_u = u.working_interval(_TAIL_MASS)
    lo, hi = min(lo_u, -WORKING_RADIUS), max(hi_u, WORKING_RADIUS)
    res = adaptive_quad_rows(g, _measure_breaks(u, lo, hi)[None, :],
                             tol_abs=_BREGMAN_TOL, tol_rel=1e-12)
    reach = (float(_z_reach(u.means, u.stds, True))
             if isinstance(u, GaussianMixture1D) else 1.0)
    log_u, log_phi = log_u_phi(np.array([lo_u, hi_u]))
    log_slope = log_u - log_phi
    tail = _TAIL_MASS * float(np.sum(np.exp(-log_slope) - 1.0 + log_slope))
    error = (float(res.error[0]) + tail + _BREGMAN_ROUNDING * _EPS * reach
             * float(res.extra[0, 0]))
    return max(float(res.value[0]), 0.0), error  # the integrand is >= 0
