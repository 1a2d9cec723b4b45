"""Deficit functionals and inequality verifiers.

Three families of statements are certified numerically, each as a
DeficitReport with an explicit error budget:

  * log-Sobolev: delta_LS(nu) = 1/2 I(nu|gamma) - H(nu|gamma) dominates
    half the squared sup-directional transport distance;
  * Talagrand: delta_Tal = 2 H(nu|gamma) - W2^2(nu, gamma) dominates the same
    quantity, with the 1-D chain passing through int (T'-1-log T') dgamma;
  * quantitative Prekopa-Leindler: for the triple u = e^{g/(1-lam)} phi / A,
    v = phi, w = e^{h_lam} phi with h_lam the sup-convolution of g, the excess
    mass int w - 1 dominates 1/2 lam^{1+lam} (1-lam)^{2-lam} d(u, v)^2.

A report passes when margin >= -(tolerance + error_estimate): the mathematical
statements are exact, so only discretization may push a true margin slightly
negative. A margin below -(tolerance + 3 error_estimate) is a definite
failure; the band between is inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .density1d import (Density1D, GaussianMixture1D, GridDensity1D,
                        StandardGaussian, WORKING_RADIUS, _breaks,
                        entropy_rel_gauss_full, fisher_rel_gauss_full,
                        gauss_pdf)
from .densitynd import (GaussianMixtureND, ProductFunction,
                        conditional_slice_batch, entropy_fisher_nd,
                        entropy_rel_gauss_nd, knothe_w2_bound,
                        marginal_without)
from .errors import (CapabilityError, DomainError, EvaluationError,
                     InvariantViolation)
from .quadrature import adaptive_quad, gh_tensor
from .sphereopt import DnResult, dn_distance
from .transport1d import (bf_distance_full, bregman_integral_full,
                          gauss_distance_rows, talagrand_deficit_1d_full)

__all__ = [
    "DeficitReport",
    "PLTriple",
    "GFun",
    "lsi_deficit",
    "verify_thm_main",
    "verify_corollary",
    "verify_talagrand",
    "sup_convolution",
    "pl_deficit_check",
    "lambda_limit_diagnostics",
    "LambdaDiagRow",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_REPORT_FIELDS = ("case_id", "theorem", "deficit", "lower_bound", "margin",
                  "error_estimate", "status", "method")


def _status(margin: float, tol: float, err: float) -> str:
    if margin >= -(tol + err):
        return PASS
    if margin < -(tol + 3.0 * err):
        return FAIL
    return INCONCLUSIVE


@dataclass(frozen=True)
class DeficitReport:
    """One verified inequality: deficit >= lower_bound up to tolerance."""

    case_id: str
    theorem: str
    deficit: float
    lower_bound: float
    margin: float
    error_estimate: float
    status: str
    method: str

    @classmethod
    def build(cls, *, case_id, theorem, deficit, lower_bound, error, tol,
              method, deficit_is_lower_bound=False):
        margin = deficit - lower_bound
        status = _status(margin, tol, error)
        # a deficit known only from below cannot show the bound fails
        if deficit_is_lower_bound and status == FAIL:
            status = INCONCLUSIVE
        return cls(case_id=case_id, theorem=theorem, deficit=float(deficit),
                   lower_bound=float(lower_bound), margin=float(margin),
                   error_estimate=float(error), status=status, method=method)

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in _REPORT_FIELDS}


# ---------------------------------------------------------------------------
# log-Sobolev deficit


def _lsi_deficit_1d(nu: Density1D):
    fi = fisher_rel_gauss_full(nu)
    e = entropy_rel_gauss_full(nu)
    return 0.5 * fi.value - e.value, 0.5 * fi.error + e.error


def lsi_deficit(nu, *, mc_budget: int = 10 ** 6, seed: int = 0):
    """delta_LS = 1/2 I(nu|gamma) - H(nu|gamma) as (value, error).

    Both terms are nu-expectations in log space, E_nu[|grad log p + x|^2]
    and E_nu[log p - log phi_n]:

      * Density1D: adaptive 1-D quadrature;
      * ProductFunction: the sum of its factors' 1-D deficits, since
        entropy and Fisher information tensorize;
      * GaussianMixtureND: whitened Gauss-Hermite for n <= 3, scrambled
        Sobol replicates above (``mc_budget``, ``seed``).
    """
    if isinstance(nu, ProductFunction):
        parts = [_lsi_deficit_1d(h) for h in nu.factors]
        value = sum(v for v, _ in parts)
        err = sum(e for _, e in parts)
    elif isinstance(nu, GaussianMixtureND):
        (e, e_err), (fi, fi_err) = entropy_fisher_nd(
            nu, mc_budget=mc_budget, seed=seed)
        value = 0.5 * fi - e
        err = 0.5 * fi_err + e_err
    elif isinstance(nu, Density1D):
        value, err = _lsi_deficit_1d(nu)
    else:
        raise DomainError("lsi_deficit expects a 1-D density, a product or "
                          "an n-D Gaussian mixture")
    if value < -(1e-7 + err):
        raise InvariantViolation(
            f"log-Sobolev deficit {value:.3e} below the numerical guard")
    return float(value), float(err)


# ---------------------------------------------------------------------------
# Theorem: delta_LS >= 1/2 d_n^2


def _dn_method(res: DnResult) -> str:
    # round first so components below display precision print as 0, not -0
    arg = np.array2string(np.round(res.argmax, 6) + 0.0, precision=6,
                          separator=",", suppress_small=True)
    return (f"dn={res.value:.9f} argmax={arg} coarse={res.coarse_max:.9f} "
            f"evals={res.directions_evaluated}")


def verify_thm_main(nu, *, directions: Optional[int] = None,
                    case_id: str = "", tol: float = 1e-6,
                    mc_budget: int = 10 ** 6, seed: int = 0) -> DeficitReport:
    """delta_LS(nu) >= 1/2 d_n(nu, gamma_n)^2.

    nu is a 1-D density, a ProductFunction or an n-D Gaussian mixture. In
    one dimension d_n is the distance itself; above, the direction search
    (``directions`` coarse lattice points, see ``dn_distance``) only ever
    under-estimates the supremum, so the check is conservative: a sharper
    search can only shrink the margin.
    """
    deficit, d_err = lsi_deficit(nu, mc_budget=mc_budget, seed=seed)
    if isinstance(nu, Density1D):
        dist, dist_err = bf_distance_full(nu, StandardGaussian(), tol=1e-10)
        res = DnResult(value=dist, argmax=np.ones(1), coarse_max=dist,
                       refined_gain=0.0, directions_evaluated=1,
                       value_error=dist_err)
    else:
        if isinstance(nu, ProductFunction):
            nu = nu.as_mixture()
        res = dn_distance(nu, directions=directions)
    lower = 0.5 * res.value ** 2
    err = d_err + res.value * res.value_error
    method = (f"entropy+fisher whitened-GH/QMC; {_dn_method(res)}")
    return DeficitReport.build(case_id=case_id, theorem="main",
                               deficit=deficit, lower_bound=lower, error=err,
                               tol=tol, method=method)


# ---------------------------------------------------------------------------
# Corollary: per-axis slice distances

# tolerance of every slice distance solve
_INNER_TOL = 1e-9


def _slice_distances(nu: GaussianMixtureND, axis: int, pts: np.ndarray):
    """d(slice, gamma) and its error at each pinned point, in one kernel call."""
    batch = conditional_slice_batch(nu, axis, pts)
    return gauss_distance_rows(batch.weights, batch.means, batch.stds,
                               tol=_INNER_TOL)


def _corollary_axis_quad(nu, axis, orders):
    """Mass-weighted E[d(slice, gamma)^2] along ``axis`` at each outer
    order, plus the inner error of the first order's term.

    At each order the pinned points are every component of the marginal
    without ``axis`` mapped through its Cholesky factor, so the outer
    average runs over nu's own marginal; all orders share one kernel call.
    """
    rest = marginal_without(nu, axis)
    rules = [gh_tensor(order, nu.dim - 1) for order in orders]
    pts = [rest.means[k] + nodes @ rest._chol[k].T
           for nodes, _ in rules for k in range(rest.n_components)]
    d, derr = _slice_distances(nu, axis, np.concatenate(pts))
    weighted = []
    werr = 0.0
    pos = 0
    for i, (_, wts) in enumerate(rules):
        total = 0.0
        for k in range(rest.n_components):
            dk, ek = d[pos:pos + wts.size], derr[pos:pos + wts.size]
            pos += wts.size
            total += rest.weights[k] * float(wts @ (dk * dk))
            if i == 0:
                werr += rest.weights[k] * float(wts @ (2.0 * dk * ek))
        weighted.append(total)
    return weighted, werr


def _corollary_axis_mc(nu, axis, budget, rng):
    """Mass-weighted E[d(slice, gamma)^2] along ``axis`` from points drawn
    from nu's marginal without ``axis``, with its standard error plus the
    inner error."""
    rest = marginal_without(nu, axis)
    n_pts = max(min(budget, 2048), 64)
    d, derr = _slice_distances(nu, axis, rest.sample(rng, n_pts))
    weighted = float(np.mean(d * d))
    se = float(np.std(d * d, ddof=1) / math.sqrt(n_pts))
    return weighted, se + float(np.mean(2.0 * d * derr))


def _product_slice_distances(nu: ProductFunction):
    """d(h_i, gamma) and its error per factor: every slice of a product
    along axis i is the factor h_i, whatever the pinned point."""
    k = max(h.weights.size for h in nu.factors)
    w = np.zeros((nu.dim, k))
    m = np.zeros((nu.dim, k))
    s = np.ones((nu.dim, k))
    for i, h in enumerate(nu.factors):
        n = h.weights.size
        w[i, :n], m[i, :n], s[i, :n] = h.weights, h.means, h.stds
    return gauss_distance_rows(w, m, s, tol=_INNER_TOL)


def verify_corollary(nu, mc_budget: int = 10 ** 6, *,
                     case_id: str = "", tol: float = 1e-5,
                     seed: int = 0) -> DeficitReport:
    """delta_LS >= 1/2 sum_i E[d(slice_i, gamma)^2] over pinned coordinates.

    nu is a GaussianMixtureND or a ProductFunction of dimension >= 2. Each
    slice is weighed by its mass: the expectation runs over nu's own
    marginal without axis i, which is the form the tensorization argument
    produces. For n <= 3 that average is a Gauss-Hermite rule anchored at
    each marginal component, with the gap between two orders in the error;
    above, it is a Monte Carlo mean over mc_budget / n draws per axis (at
    least 64, at most 2048), with its standard error. A product needs no
    outer average: its slices along axis i are all the factor h_i.
    """
    if isinstance(nu, Density1D) or nu.dim < 2:
        raise DomainError("the corollary needs dimension at least 2")
    deficit, d_err = lsi_deficit(nu, mc_budget=mc_budget, seed=seed)
    weighted_terms = np.zeros(nu.dim)
    err = 0.0
    if isinstance(nu, ProductFunction):
        d, derr = _product_slice_distances(nu)
        weighted_terms = d * d
        err = float(np.sum(2.0 * d * derr))
        mode = "per-factor slices (product)"
    elif nu.dim <= 3:
        hi, lo = (64, 48) if nu.dim == 2 else (20, 14)
        for axis in range(nu.dim):
            (w_hi, w_lo), ierr = _corollary_axis_quad(nu, axis, (hi, lo))
            weighted_terms[axis] = w_hi
            err += abs(w_hi - w_lo) + ierr
        mode = f"outer GH {hi}/{lo} anchored at the mixture"
    else:
        rng = np.random.default_rng(seed)
        per_axis = mc_budget // max(nu.dim, 1)
        for axis in range(nu.dim):
            weighted_terms[axis], se = _corollary_axis_mc(
                nu, axis, per_axis, rng)
            err += se
        mode = "outer MC with standard error"
    lower = 0.5 * float(weighted_terms.sum())
    method = (f"{mode}; mass-weighted lower={lower:.9f}; per-axis weighted="
              + np.array2string(weighted_terms, precision=7, separator=","))
    return DeficitReport.build(case_id=case_id, theorem="corollary",
                               deficit=deficit, lower_bound=lower,
                               error=d_err + 0.5 * err, tol=tol, method=method)


# ---------------------------------------------------------------------------
# Talagrand


def verify_talagrand(nu, *, case_id: str = "", tol: float = 1e-6,
                     mc_budget: int = 10 ** 6, seed: int = 0,
                     directions: Optional[int] = None) -> DeficitReport:
    """2 H(nu|gamma) - W2^2(nu, gamma) >= 1/2 d_n^2, routed by nu's type.

    A Density1D and a ProductFunction are exact (the quantile coupling, and
    coordinatewise tensorization of both entropy and W2). An n-D
    GaussianMixtureND bounds W2^2 from above by ``knothe_w2_bound`` (Sobol
    replicates from ``mc_budget`` and ``seed`` above n = 3), so its deficit
    is a lower bound and a shortfall is inconclusive, never a failure.
    """
    gauss = StandardGaussian()
    knothe = isinstance(nu, GaussianMixtureND)
    if isinstance(nu, Density1D):
        deficit, err = talagrand_deficit_1d_full(nu)
        dist, dist_err = bf_distance_full(nu, gauss, tol=1e-10)
        lower = 0.5 * dist * dist
        err += dist * dist_err
        breg, _ = bregman_integral_full(nu)
        method = (f"quantile-coupling W2; d={dist:.9f}; "
                  f"bregman-chain middle={breg:.9f}")
    elif isinstance(nu, ProductFunction):
        deficit = 0.0
        err = 0.0
        for factor in nu.factors:
            d_i, e_i = talagrand_deficit_1d_full(factor)
            deficit += d_i
            err += e_i
        res = dn_distance(nu.as_mixture(), directions=directions)
        lower = 0.5 * res.value ** 2
        err += res.value * res.value_error
        method = f"tensorized per-axis W2 and entropy; {_dn_method(res)}"
    elif knothe:
        h, h_err = entropy_rel_gauss_nd(nu, mc_budget=mc_budget, seed=seed)
        w2, w2_err, label = knothe_w2_bound(nu, mc_budget=mc_budget,
                                            seed=seed)
        deficit = 2.0 * h - w2
        err = 2.0 * h_err + w2_err
        res = dn_distance(nu, directions=directions)
        lower = 0.5 * res.value ** 2
        err += res.value * res.value_error
        method = (f"Knothe-Rosenblatt W2^2 upper bound={w2:.9f} "
                  f"rotation={label} (deficit is a lower bound); "
                  + _dn_method(res))
    else:
        raise DomainError("verify_talagrand expects a 1-D density, a product "
                          "or an n-D Gaussian mixture")
    return DeficitReport.build(case_id=case_id, theorem="talagrand",
                               deficit=deficit, lower_bound=lower, error=err,
                               tol=tol, method=method,
                               deficit_is_lower_bound=knothe)


# ---------------------------------------------------------------------------
# Prekopa-Leindler machinery


@dataclass(frozen=True)
class GFun:
    """Bounded 1-D function for the PL checker.

    Closed-form kinds: const, linear, quadratic (g = -curvature/2 x^2 +
    slope x + offset, curvature >= 0). Kind generic wraps a callable; its
    sup-convolution runs on a grid. dfn is the derivative when known.
    """

    kind: str
    curvature: float = 0.0
    slope: float = 0.0
    offset: float = 0.0
    fn: Optional[Callable] = None
    dfn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("const", "linear", "quadratic", "generic"):
            raise DomainError(f"unknown g kind {self.kind!r}")
        if self.kind == "generic" and self.fn is None:
            raise DomainError("generic g needs a callable")
        if self.kind == "quadratic" and self.curvature < 0.0:
            raise DomainError("quadratic g must be bounded above")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "generic":
            return np.asarray(self.fn(x), dtype=float)
        return -0.5 * self.curvature * x * x + self.slope * x + self.offset

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "generic":
            if self.dfn is None:
                raise CapabilityError("derivative of this g is not available")
            return np.asarray(self.dfn(x), dtype=float)
        return -self.curvature * x + self.slope

    @classmethod
    def const(cls, b=0.0):
        return cls(kind="const", offset=float(b))

    @classmethod
    def linear(cls, a, b=0.0):
        return cls(kind="linear", slope=float(a), offset=float(b))

    @classmethod
    def quadratic(cls, curvature, slope=0.0, offset=0.0):
        return cls(kind="quadratic", curvature=float(curvature),
                   slope=float(slope), offset=float(offset))

    @classmethod
    def from_callable(cls, fn, dfn=None):
        return cls(kind="generic", fn=fn, dfn=dfn)


# the grid a generic g is searched and tabulated on
_PL_XS = np.linspace(-WORKING_RADIUS, WORKING_RADIUS, 4097)
_PL_XS.setflags(write=False)


@dataclass
class PLTriple:
    """Inputs of the quantitative Prekopa-Leindler check."""

    g: GFun
    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise DomainError("lambda must lie strictly inside (0, 1)")


def _upper_envelope(a: np.ndarray, b: np.ndarray):
    """(breaks, idx) of the upper envelope of the lines a_i + b_i z, slopes
    b increasing: line idx[k] tops (breaks[k-1], breaks[k]], the lower index
    on a tie. One monotone-chain pass; the pop test is cross-multiplied."""
    a_l, b_l = a.tolist(), b.tolist()
    hull = []
    for i, (a3, b3) in enumerate(zip(a_l, b_l)):
        while len(hull) >= 2:
            (a1, b1, _), (a2, b2, _) = hull[-2], hull[-1]
            # the top line never beats both neighbours: z_13 <= z_12
            if (a1 - a3) * (b2 - b1) > (a1 - a2) * (b3 - b1):
                break
            hull.pop()
        hull.append((a3, b3, i))
    idx = np.array([line[2] for line in hull])
    return (a[idx[:-1]] - a[idx[1:]]) / (b[idx[1:]] - b[idx[:-1]]), idx


def _sup_conv_fn(g: GFun, lam: float):
    """Vectorized z -> h_lam(z); a generic g's envelope is built here, once."""
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie strictly inside (0, 1)")
    c = (1.0 - lam) / (2.0 * lam)
    if g.kind in ("const", "linear", "quadratic"):
        denom = g.curvature + 2.0 * c
        if denom <= 0.0:
            raise DomainError("sup-convolution diverges: penalty too weak")

        def raw(z):
            return (g.offset - c * z ** 2
                    + (g.slope + 2.0 * c * z) ** 2 / (2.0 * denom))
    else:
        xs, step = _PL_XS, _PL_XS[1] - _PL_XS[0]
        breaks, idx = _upper_envelope(g(xs) - c * xs * xs, 2.0 * c * xs)

        def psi(x, z):
            return g(x) - c * (x - z) ** 2

        def raw(z):
            j = idx[np.searchsorted(breaks, z, side="left")]
            jm, jp = np.maximum(j - 1, 0), np.minimum(j + 1, xs.size - 1)
            # parabola vertex through three uniformly spaced nodes, clamped
            # to the bracketing cells; g is re-evaluated exactly there
            y0, y1, y2 = psi(xs[jm], z), psi(xs[j], z), psi(xs[jp], z)
            hump = y0 - 2.0 * y1 + y2
            with np.errstate(divide="ignore", invalid="ignore"):
                shift = np.where(hump < -1e-300,
                                 0.5 * step * (y0 - y2) / hump, 0.0)
            vertex = np.clip(xs[j] + shift, xs[jm], xs[jp])
            return np.max(np.stack([y1, psi(vertex, z), psi(z, z)]), axis=0)

    def h(z):
        val, low = raw(z), g(z)
        if np.any(val < low - 1e-10):
            raise InvariantViolation("sup-convolution fell below its input")
        return np.maximum(val, low)

    return h


def sup_convolution(g: GFun, lam: float, z):
    """h_lam(z) = sup_x [g(x) - (1-lam)/(2 lam) (x-z)^2], pointwise.

    Closed form for the analytic kinds. For generic g, the grid maximum
    over ``_PL_XS`` is max_i [a_i + b_i z] - c z^2 (a_i = g(x_i) - c x_i^2,
    b_i = 2 c x_i), read off the upper envelope of those lines, then refined
    by a parabola through the winning node. Always >= g(z) (x = z competes).
    """
    h = _sup_conv_fn(g, lam)(np.atleast_1d(np.asarray(z, dtype=float)))
    return float(h[0]) if np.ndim(z) == 0 else h


def _exp_integral(fn, *, tol=1e-12, center=0.0, width=1.0):
    """int e^{fn(x)} dgamma(x) with error estimate.

    The interval is centered where exp(fn(x) - x^2/2) actually lives (a
    strong tilt pushes it far from the origin) and the peak log-value is
    factored out so the quadrature runs on O(1) numbers.
    """
    w = max(float(width), 1.0)
    lo, hi = center - 13.0 * w, center + 13.0 * w
    peak = float(np.max(fn(np.asarray([lo, center, hi]))
                        - 0.5 * np.asarray([lo, center, hi]) ** 2))

    def f(x):
        return np.exp(fn(x) - 0.5 * x * x - peak) / math.sqrt(2.0 * math.pi)

    res = adaptive_quad(f, _breaks(lo, hi), tol_abs=tol, tol_rel=1e-13)
    scale = math.exp(peak)
    if not math.isfinite(scale) or not math.isfinite(scale * res.value):
        raise EvaluationError("exponential integral overflows double range")
    return scale * res.value, scale * res.error


def _exponent_window(g: GFun, scale: float):
    """(center, width) of exp(scale g(x) - x^2/2) for the analytic kinds."""
    if g.kind == "generic":
        return 0.0, 1.0  # grid-backed and bounded, default window suffices
    tau = 1.0 + g.curvature * scale
    if tau <= 0.0:
        raise DomainError("exponential-tilt integral diverges")
    return g.slope * scale / tau, 1.0 / math.sqrt(tau)


def _sup_conv_quadratic(g: GFun, lam: float) -> GFun:
    """Closed-form sup-convolution of an analytic kind, again quadratic."""
    c = (1.0 - lam) / (2.0 * lam)
    denom = g.curvature + 2.0 * c
    if denom <= 0.0:
        raise DomainError("sup-convolution diverges: penalty too weak")
    return GFun.quadratic(2.0 * c * g.curvature / denom,
                          2.0 * g.slope * c / denom,
                          g.offset + g.slope ** 2 / (2.0 * denom))


def _pl_u_density(g: GFun, lam: float) -> Density1D:
    """The normalized left factor u = e^{g/(1-lam)} phi / A as a density."""
    s = 1.0 / (1.0 - lam)
    if g.kind != "generic":
        # e^{s g} phi is proportional to N(center, width^2) of its window
        return GaussianMixture1D([1.0], *_exponent_window(g, s))
    logvals = (g(_PL_XS) * s - 0.5 * _PL_XS * _PL_XS
               - 0.5 * math.log(2.0 * math.pi))
    return GridDensity1D(_PL_XS, np.exp(logvals - logvals.max()))


def pl_deficit_check(t: PLTriple, *, case_id: str = "",
                     tol: float = 1e-6) -> DeficitReport:
    """Quantitative Prekopa-Leindler for the triple built from g and lambda.

    deficit = B / A^{1-lam} - 1 with A = int e^{g/(1-lam)} dgamma and
    B = int e^{h_lam} dgamma; the lower bound is
    1/2 lam^{1+lam} (1-lam)^{2-lam} d(u, gamma)^2.
    """
    g, lam = t.g, t.lam
    s = 1.0 / (1.0 - lam)
    a_center, a_width = _exponent_window(g, s)
    a_val, a_err = _exp_integral(lambda x: g(x) * s,
                                 center=a_center, width=a_width)
    if g.kind == "generic":
        b_center, b_width = 0.0, 1.0
    else:
        b_center, b_width = _exponent_window(_sup_conv_quadratic(g, lam), 1.0)
    b_val, b_err = _exp_integral(_sup_conv_fn(g, lam),
                                 center=b_center, width=b_width)
    if a_val <= 0.0 or not math.isfinite(a_val):
        raise EvaluationError("left normalization integral failed")
    scale = a_val ** (lam - 1.0)
    deficit = b_val * scale - 1.0
    err = b_err * scale + (1.0 - lam) * b_val * scale / a_val * a_err
    u = _pl_u_density(g, lam)
    dist, dist_err = bf_distance_full(u, StandardGaussian(), tol=1e-10)
    coeff = 0.5 * lam ** (1.0 + lam) * (1.0 - lam) ** (2.0 - lam)
    lower = coeff * dist * dist
    err += 2.0 * coeff * dist * dist_err
    if g.kind == "generic":
        err += 1e-7  # grid sup-convolution refinement allowance
    method = (f"A={a_val:.12f} B={b_val:.12f} d(u,gamma)={dist:.9f} "
              f"g-kind={g.kind} lam={lam}")
    return DeficitReport.build(case_id=case_id, theorem="pl", deficit=deficit,
                               lower_bound=lower, error=err, tol=tol,
                               method=method)


@dataclass(frozen=True)
class LambdaDiagRow:
    lam: float
    entropy_ratio: float
    entropy_limit: float
    entropy_residual: float
    fisher_ratio: float
    fisher_limit: float
    fisher_residual: float


_DEFAULT_SWEEP = (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)


def lambda_limit_diagnostics(g: GFun, lambdas: Optional[Sequence[float]] = None):
    """First-order expansions of the PL quantities as lambda -> 0.

    For each lambda: (A^{1-lam} - m)/lam against Ent_gamma(e^g) and
    (B - m)/lam against 1/(2(1-lam)) int |g'|^2 e^g dgamma, where
    m = int e^g dgamma. Both residuals must shrink linearly in lambda.
    """
    lams = tuple(_DEFAULT_SWEEP if lambdas is None else lambdas)
    if not lams or any(not 0.0 < l <= 0.5 for l in lams):
        raise DomainError("lambda sweep must live in (0, 0.5]")
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise DomainError("lambda sweep must be strictly decreasing")
    m_val, _ = _exp_integral(g)

    def ent_integrand(x):
        return g(x) * np.exp(g(x)) * gauss_pdf(x)

    ent_part = adaptive_quad(ent_integrand,
                             _breaks(-WORKING_RADIUS, WORKING_RADIUS),
                             tol_abs=1e-12).value
    ent_limit = ent_part - m_val * math.log(m_val)

    def fisher_integrand(x):
        dg = g.deriv(x)
        return dg * dg * np.exp(g(x)) * gauss_pdf(x)

    fisher_part = adaptive_quad(fisher_integrand,
                                _breaks(-WORKING_RADIUS, WORKING_RADIUS),
                                tol_abs=1e-12).value
    rows = []
    for lam in lams:
        s = 1.0 / (1.0 - lam)
        a_center, a_width = _exponent_window(g, s)
        a_val, _ = _exp_integral(lambda x: g(x) * s,
                                 center=a_center, width=a_width)
        b_val, _ = _exp_integral(_sup_conv_fn(g, lam))
        r1 = (a_val ** (1.0 - lam) - m_val) / lam
        r2 = (b_val - m_val) / lam
        lim2 = fisher_part / (2.0 * (1.0 - lam))
        rows.append(LambdaDiagRow(
            lam=lam, entropy_ratio=r1, entropy_limit=ent_limit,
            entropy_residual=abs(r1 - ent_limit), fisher_ratio=r2,
            fisher_limit=lim2, fisher_residual=abs(r2 - lim2)))
    return rows
