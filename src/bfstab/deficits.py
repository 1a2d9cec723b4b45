"""Deficit functionals and inequality verifiers.

Three families of statements are certified numerically, each as a
DeficitReport with an explicit error budget:

  * log-Sobolev: delta_LS(nu) = 1/2 I(nu|gamma) - H(nu|gamma) dominates
    half the squared sup-directional transport distance;
  * Talagrand: delta_Tal = 2 H(nu|gamma) - W2^2(nu, gamma) dominates the same
    quantity; in 1-D it is the identity delta_Tal = 2 int (T'-1-log T') dgamma,
    taken as that one integral, whose integrand is pointwise at least half
    the square of the distance's;
  * quantitative Prekopa-Leindler: for the triple u = e^{g/(1-lam)} phi / A,
    v = phi, w = e^{h_lam} phi with h_lam the sup-convolution of g, the excess
    mass int w - 1 dominates 1/2 lam^{1+lam} (1-lam)^{2-lam} d(u, v)^2.

A report passes when margin >= -(tolerance + error_estimate): the mathematical
statements are exact, so only discretization may push a true margin slightly
negative. A margin below -(tolerance + 3 error_estimate) is a definite
failure; the band between is inconclusive.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .density1d import (Density1D, GaussianMixture1D, GridDensity1D,
                        WORKING_RADIUS, _breaks, _gauss_distance,
                        _information_rows, _RowMixtures, entropy_fisher_1d,
                        gauss_pdf)
from .densitynd import (_QMC_REPLICATES, GaussianMixtureND, ProductFunction,
                        _average, _closed_form, _combine,
                        _gaussian_information, _node_sets, _outer_orders,
                        _rounding, conditional_slice_batch,
                        entropy_fisher_nd, entropy_rel_gauss_nd,
                        knothe_w2_bound, marginal_without)
from .errors import (CapabilityError, DomainError, EvaluationError,
                     InvariantViolation)
from .quadrature import adaptive_quad
from .sphereopt import DnResult, dn_distance
from .transport1d import (_ONE_COMPONENT_ERR, gauss_distance_rows,
                          talagrand_deficit_1d_full)

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


def _lsi_deficit_rows(weights, means, stds):
    """The sum of delta_LS over 1-D mixture rows (the layout of
    ``density1d._information_rows``), and of its error, from one kernel call:
    a Gaussian row's closed form, 1/2 I - H for the others."""
    delta, err = _information_rows(weights, means, stds)[4:]
    return sum(delta.tolist()), sum(err.tolist())


def lsi_deficit(nu, *, mc_budget: int = 10 ** 6, seed: int = 0):
    """delta_LS = 1/2 I(nu|gamma) - H(nu|gamma) as (value, error).

    Both terms are nu-expectations in log space, E_nu[|grad log p + x|^2]
    and E_nu[log p - log phi_n]:

      * one-component GaussianMixture1D N(m, s^2): the closed form
        (1 / s^2 - 1) / 2 + log s, with no quadrature;
      * any other GaussianMixture1D: adaptive 1-D quadrature, both terms
        in one call of the row kernel ``density1d._information_rows``;
      * ProductFunction: the sum of its factors' 1-D deficits, since
        entropy and Fisher information tensorize: each single-Gaussian
        factor's closed form, and the two terms of every other factor in
        one row-kernel call (none when all factors are single Gaussians);
      * any other Density1D (gamma or a grid): ``entropy_fisher_1d``,
        adaptive 1-D quadrature, one call per term;
      * a one-component GaussianMixtureND N(m, C): the closed form
        (tr C^-1 - n + log det C) / 2, with no node set;
      * any other GaussianMixtureND: whitened Gauss-Hermite for n <= 3,
        scrambled Sobol replicates above (``mc_budget``, ``seed``).
    """
    return _lsi_deficit(nu, mc_budget, seed)[:2]


def _lsi_deficit(nu, mc_budget: int, seed: int):
    """(value, error, unit) of ``lsi_deficit``: unit is the rounding unit
    ``densitynd._rounding`` of a nu that took the one-component closed
    form, and None for any other, so a caller routes once and takes
    kappa(C) once."""
    unit = (_rounding(nu) if isinstance(nu, GaussianMixtureND)
            and _closed_form(nu, mc_budget) else None)
    if isinstance(nu, ProductFunction):
        value, err = _lsi_deficit_rows(*nu.factor_rows)
    elif isinstance(nu, GaussianMixture1D):
        value, err = _lsi_deficit_rows(nu.weights[None], nu.means[None],
                                       nu.stds[None])
    elif unit is not None:
        value, err = _gaussian_information(nu, unit)[2]
    elif isinstance(nu, (GaussianMixtureND, Density1D)):
        (e, e_err), (fi, fi_err) = (
            entropy_fisher_nd(nu, mc_budget=mc_budget, seed=seed)
            if isinstance(nu, GaussianMixtureND) else entropy_fisher_1d(nu))
        value = 0.5 * fi - e
        err = 0.5 * fi_err + e_err
    else:
        raise DomainError("lsi_deficit expects a 1-D density, a product or "
                          "an n-D Gaussian mixture")
    if value < -(1e-7 + err):
        raise InvariantViolation(
            f"log-Sobolev deficit {value:.3e} below the numerical guard")
    return float(value), float(err), unit


# ---------------------------------------------------------------------------
# Theorem: delta_LS >= 1/2 d_n^2


def _dn_bound(nu, directions=None, coeff=0.5):
    """dn_distance(nu), coeff d_n^2 and its error 2 coeff d_n value_error."""
    res = dn_distance(nu, directions=directions)
    return (res, coeff * res.value * res.value,
            2.0 * coeff * res.value * res.value_error)


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
    deficit, d_err, unit = _lsi_deficit(nu, mc_budget, seed)
    res, lower, dn_err = _dn_bound(nu, directions)
    if isinstance(nu, ProductFunction):
        closed = not _RowMixtures(*nu.factor_rows).quad.size
        terms = "per-factor " + ("closed-form Gaussian" if closed
                                 else "1-D quadrature")
    elif isinstance(nu, Density1D):
        closed = isinstance(nu, GaussianMixture1D) and nu.weights.size == 1
        terms = "closed-form Gaussian" if closed else "1-D quadrature"
    else:
        terms = ("closed-form Gaussian" if unit is not None
                 else "whitened-GH/QMC")
    method = f"entropy+fisher {terms}; {_dn_method(res)}"
    return DeficitReport.build(case_id=case_id, theorem="main",
                               deficit=deficit, lower_bound=lower,
                               error=d_err + dn_err, tol=tol, method=method)


# ---------------------------------------------------------------------------
# Corollary: per-axis slice distances

# tolerance of every slice distance solve
_INNER_TOL = 1e-9


def _slice_distances(nu: GaussianMixtureND, axis: int, pts: np.ndarray):
    """d(slice, gamma) and its error at each pinned point, in one kernel call."""
    batch = conditional_slice_batch(nu, axis, pts)
    return gauss_distance_rows(batch.weights, batch.means, batch.stds,
                               tol=_INNER_TOL)


def _corollary_axis(nu, axis, sets):
    """Per node set, the mass-weighted E[d(slice, gamma)^2] along ``axis``
    and its inner error E[2 d err], as a (2, sets) array.

    The sets of ``densitynd._node_sets`` are anchored at each component of
    the marginal without ``axis``, so the average runs over nu's own
    marginal.
    """
    # one kernel call for all sets: a call per set and component, as
    # densitynd._expectation makes, was 15-22 % slower on 2-D K = 4 cases
    # (2-core x86_64: main-2d-07 167/184 -> 194/224 ms)
    rest = marginal_without(nu, axis)
    pts = [rest.means[k] + z.T @ rest._chol[k].T
           for pairs, _, _ in sets for k, (z, _) in enumerate(pairs)]
    d, derr = _slice_distances(nu, axis, np.concatenate(pts))
    terms = []
    pos = 0
    for pairs, _, _ in sets:
        sq = inner = 0.0
        for k, (z, wts) in enumerate(pairs):
            dk, ek = d[pos:pos + z.shape[1]], derr[pos:pos + z.shape[1]]
            pos += z.shape[1]
            sq += rest.weights[k] * _average(wts, dk * dk)
            inner += rest.weights[k] * _average(wts, 2.0 * dk * ek)
        terms.append(np.array([sq, inner]))
    return np.stack(terms, axis=1)


def _product_slice_distances(nu: ProductFunction):
    """d(h_i, gamma) and its error per factor: every slice of a product
    along axis i is the factor h_i, whatever the pinned point."""
    return gauss_distance_rows(*nu.factor_rows, tol=_INNER_TOL)


def _terms_text(values) -> str:
    """The text ``np.array2string(values, precision=7, separator=",")``
    gives a 1-D array, by its rules, at about a sixth of its cost.

    Every entry is rounded to 7 decimals with its trailing zeros dropped,
    positionally or, when a nonzero magnitude is at least 1e8 or below
    1e-4 or the nonzero magnitudes span more than a factor 1000, in
    scientific notation with the mantissas cut to their longest.
    Positional entries are aligned on the point, scientific ones share the
    exponent's width, and lines wrap at NumPy's 75 columns. An array
    NumPy would summarize (over 1,000 entries), a non-finite entry, or a
    subnormal one, whose shortest digits are fewer than its rounded ones,
    is left to NumPy.
    """
    vals = [float(v) for v in values]
    sizes = [abs(v) for v in vals if v != 0.0]
    if (len(vals) > 1000 or not all(map(math.isfinite, vals))
            or (sizes and min(sizes) < sys.float_info.min)):
        return np.array2string(np.asarray(vals), precision=7, separator=",")
    if sizes and (max(sizes) >= 1e8 or min(sizes) < 1e-4
                  or max(sizes) / min(sizes) > 1000.0):
        digits = max(len(f"{v:.7e}".partition("e")[0].lstrip("-").rstrip("0"))
                     - 2 for v in vals)
        parts = [f"{v:#.{digits}e}".partition("e") for v in vals]
        left = max(len(m.partition(".")[0]) for m, _, _ in parts)
        width = max(len(x) for _, _, x in parts) - 1
        words = [m.rjust(left + 1 + digits) + "e" + x[0] + x[1:].zfill(width)
                 for m, _, x in parts]
    else:
        parts = [f"{v:.7f}".rstrip("0").partition(".") for v in vals]
        left = max(len(i) for i, _, _ in parts)
        right = max(len(f) for _, _, f in parts)
        words = [i.rjust(left) + "." + f.ljust(right) for i, _, f in parts]
    text, line = "", " "
    for k, word in enumerate(words):
        # a word goes on the next line when it would reach past column 74,
        # unless the line holds nothing yet
        if len(line) + len(word) > 74 and len(line) > 1:
            text += line.rstrip() + "\n"
            line = " "
        line += word + ("," if k < len(words) - 1 else "")
    return "[" + (text + line)[1:] + "]"


def verify_corollary(nu, mc_budget: int = 10 ** 6, *,
                     case_id: str = "", tol: float = 1e-5,
                     seed: int = 0) -> DeficitReport:
    """delta_LS >= 1/2 sum_i E[d(slice_i, gamma)^2] over pinned coordinates.

    nu is a GaussianMixtureND or a ProductFunction of dimension >= 2. Each
    slice is weighed by its mass: the expectation runs over nu's own
    marginal without axis i, which is the form the tensorization argument
    produces. A mixture's runs on ``densitynd._node_sets``, anchored at
    each marginal component and drawn once for all axes: Gauss-Hermite for
    n <= 3, with the gap of two orders in the error, plus the pruned rules'
    dropped mass per axis, since d <= 1; above, 8 Sobol replicates sharing
    mc_budget / n nodes per axis (64 to 2048), with their standard error.
    Neither a product nor a Gaussian needs the outer average: a product's
    slices along axis i are all h_i, and a Gaussian N(m, C)'s are all
    N(., s_i^2) with s_i^2 = 1 / (C^-1)_ii, whatever the pinned point, so
    d_i = 1 - min(s_i, 1 / s_i) in closed form, with the one-component
    kernel row's error plus the rounding of d_i at the ``densitynd._rounding``
    unit that the deficit's closed form took.
    """
    if isinstance(nu, Density1D) or nu.dim < 2:
        raise DomainError("the corollary needs dimension at least 2")
    deficit, d_err, unit = _lsi_deficit(nu, mc_budget, seed)
    weighted_terms = np.zeros(nu.dim)
    err = 0.0
    if isinstance(nu, ProductFunction):
        d, derr = _product_slice_distances(nu)
        weighted_terms = d * d
        err = float(np.sum(2.0 * d * derr))
        mode = "per-factor slices (product)"
    elif unit is not None:
        # (C^-1)_ii is the squared norm of column i of L^-1
        s = np.sum(nu._chol_inv[0] ** 2, axis=0) ** -0.5
        d = _gauss_distance(s)
        # the charge of the terms 1 and 1 - d_i, which is linear in them
        step = _ONE_COMPONENT_ERR + unit * (2.0 - d)
        weighted_terms = d * d
        # |d^2 - e^2| <= step (2 d + step) for |d - e| <= step
        err = float(np.sum(step * (2.0 * d + step)))
        mode = "one Gaussian slice per axis"
    else:
        # every marginal without one axis has dimension n - 1 and nu's
        # weights, so one draw of node sets serves all axes
        n, orders = nu.dim, _outer_orders(nu.dim)
        per_rep = max(min(mc_budget // n, 2048), 64) // _QMC_REPLICATES
        sets = list(_node_sets(n, n - 1, nu.weights, orders, per_rep, seed))
        # the dropped-node allowance: d^2 <= 1 at every dropped node
        dropped = sum(mass for _, mass, _ in sets)
        for axis in range(n):
            (weighted_terms[axis], inner), (outer, _) = _combine(
                _corollary_axis(nu, axis, sets), n, dropped=dropped)
            err += outer + inner
        mode = ("outer GH %d/%d anchored at the mixture" % orders
                if n <= 3 else "outer MC with standard error")
    lower = 0.5 * float(weighted_terms.sum())
    method = (f"{mode}; mass-weighted lower={lower:.9f}; per-axis weighted="
              + _terms_text(weighted_terms))
    return DeficitReport.build(case_id=case_id, theorem="corollary",
                               deficit=deficit, lower_bound=lower,
                               error=d_err + 0.5 * err, tol=tol, method=method)


# ---------------------------------------------------------------------------
# Talagrand


def verify_talagrand(nu, *, case_id: str = "", tol: float = 1e-6,
                     mc_budget: int = 10 ** 6, seed: int = 0,
                     directions: Optional[int] = None) -> DeficitReport:
    """2 H(nu|gamma) - W2^2(nu, gamma) >= 1/2 d_n^2, routed by nu's type.

    A Density1D and a ProductFunction are exact: a 1-D deficit is 2 B, one
    Bregman integral B = int (T' - 1 - log T') dgamma
    (``talagrand_deficit_1d_full``), which the report prints as the
    middle of the chain deficit = 2 B >= B >= 1/2 d^2, and a product's is
    the sum of its factors' 2 B (both H and W2^2 tensorize). An n-D
    GaussianMixtureND bounds W2^2 from above by ``knothe_w2_bound`` (closed
    form for one component, else Sobol replicates from ``mc_budget`` and
    ``seed`` above n = 3), so its deficit is a lower bound and a shortfall
    is inconclusive, never a failure.
    """
    if not isinstance(nu, (Density1D, ProductFunction, GaussianMixtureND)):
        raise DomainError("verify_talagrand expects a 1-D density, a product "
                          "or an n-D Gaussian mixture")
    res, lower, dn_err = _dn_bound(nu, directions)
    knothe = isinstance(nu, GaussianMixtureND)
    if isinstance(nu, Density1D):
        deficit, err = talagrand_deficit_1d_full(nu)
        method = (f"Bregman integral 2B; d={res.value:.9f}; "
                  f"bregman-chain middle={0.5 * deficit:.9f}")
    elif knothe:
        h, h_err = entropy_rel_gauss_nd(nu, mc_budget=mc_budget, seed=seed)
        w2, w2_err, label = knothe_w2_bound(nu, mc_budget=mc_budget,
                                            seed=seed)
        deficit = 2.0 * h - w2
        err = 2.0 * h_err + w2_err
        method = (f"Knothe-Rosenblatt W2^2 upper bound={w2:.9f} "
                  f"rotation={label} (deficit is a lower bound); "
                  + _dn_method(res))
    else:
        parts = [talagrand_deficit_1d_full(h) for h in nu.factors]
        deficit, err = sum(d for d, _ in parts), sum(e for _, e in parts)
        method = f"tensorized per-axis Bregman integral 2B; {_dn_method(res)}"
    return DeficitReport.build(case_id=case_id, theorem="talagrand",
                               deficit=deficit, lower_bound=lower,
                               error=err + dn_err, tol=tol, method=method,
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
    on a tie.

    A monotone chain whose pop test is cross-multiplied. The test on every
    consecutive triple (i - 2, i - 1, i) is taken in one vectorized pass.
    While the hull's top two lines are i - 2 and i - 1, the chain appends
    line i without a pop exactly when that triple passes, so the run up to
    the next failing triple is appended at once; from there the chain pops
    and appends line by line until its top two lines are consecutive
    again. Each vectorized test is the chain's own comparison on the same
    doubles, so (breaks, idx) keep the bits of the line-by-line chain.
    """
    n = a.size
    a_l, b_l = a.tolist(), b.tolist()
    # the triples whose top line the chain pops (a NaN fails, as it does
    # in the chain), then n as a sentinel
    fails = np.flatnonzero(~((a[:-2] - a[2:]) * (b[1:-1] - b[:-2])
                             > (a[:-2] - a[1:-1]) * (b[2:] - b[:-2])))
    fails = (fails + 2).tolist() + [n]
    hull = list(range(min(n, 2)))
    i = len(hull)  # the next line
    while i < n:
        if hull[-2] == i - 2:
            stop = fails[bisect.bisect_left(fails, i)]
            hull.extend(range(i, stop))
            i = stop
            if i == n:
                break
        a3, b3 = a_l[i], b_l[i]
        while len(hull) >= 2:
            a1, b1 = a_l[hull[-2]], b_l[hull[-2]]
            a2, b2 = a_l[hull[-1]], b_l[hull[-1]]
            # the top line never beats both neighbours: z_13 <= z_12
            if (a1 - a3) * (b2 - b1) > (a1 - a2) * (b3 - b1):
                break
            hull.pop()
        hull.append(i)
        i += 1
    idx = np.array(hull)
    return (a[idx[:-1]] - a[idx[1:]]) / (b[idx[1:]] - b[idx[:-1]]), idx


def _sup_conv_fn(g: GFun, lam: float):
    """Vectorized z -> h_lam(z); a generic g's envelope is built here, once.

    A generic g's h carries ``kinks``: the envelope breaks where the grid
    argmax skips a node. h's slope jumps there, so ``_exp_integral`` puts
    them on panel edges. Where the argmax moves to the next node, the
    refinement keeps h smooth to within the quadrature's budget.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie strictly inside (0, 1)")
    if g.kind != "generic":
        quadratic = _sup_conv_quadratic(g, lam)

        def raw(z):
            return quadratic(z), g(z)
    else:
        c = (1.0 - lam) / (2.0 * lam)
        xs, step = _PL_XS, _PL_XS[1] - _PL_XS[0]
        gxs = g(xs)
        breaks, idx = _upper_envelope(gxs - c * xs * xs, 2.0 * c * xs)

        def psi(gx, x, z):
            """g(x) - c (x - z)^2, from gx = g(x)."""
            return gx - c * (x - z) ** 2

        def raw(z):
            """(the refined grid maximum, g(z)) at the points z."""
            gz = g(z)
            j = idx[np.searchsorted(breaks, z, side="left")]
            jm, jp = np.maximum(j - 1, 0), np.minimum(j + 1, xs.size - 1)
            # parabola vertex through three uniformly spaced nodes, read
            # from the node table, clamped to the bracketing cells; g is
            # evaluated exactly there
            y0, y1, y2 = (psi(gxs[k], xs[k], z) for k in (jm, j, jp))
            hump = y0 - 2.0 * y1 + y2
            with np.errstate(divide="ignore", invalid="ignore"):
                shift = np.where(hump < -1e-300,
                                 0.5 * step * (y0 - y2) / hump, 0.0)
            vertex = np.clip(xs[j] + shift, xs[jm], xs[jp])
            return np.max(np.stack([y1, psi(g(vertex), vertex, z),
                                    psi(gz, z, z)]), axis=0), gz

    def h(z):
        val, low = raw(z)
        if np.any(val < low - 1e-10):
            raise InvariantViolation("sup-convolution fell below its input")
        return np.maximum(val, low)

    if g.kind == "generic":
        h.kinks = breaks[np.diff(idx) > 1]
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


def _exp_integral(q):
    """int e^{q(x)} dgamma(x) = e^peak (value +- error), as (peak, value,
    error): the exponent stays apart, so integrals past the double range
    still combine in log space.

    An analytic q = -k x^2/2 + a x + b (a GFun of kind const, linear or
    quadratic) has the closed form e^{b + a^2/(2(1+k))} / sqrt(1+k): peak
    b + a^2/(2(1+k)) and value 1/sqrt(1+k), charged 4 eps (1 + |b| +
    a^2/(2(1+k))) times the value, as rounding of the peak scales with its
    terms, not with their sum. Any other q is integrated on [-13, 13] by
    adaptive quadrature, with the peak log-value factored out so the
    quadrature runs on O(1) numbers. The 9-point split of [-13, 13] seeds
    the panels, with the ``kinks`` of a generic h_lam (``_sup_conv_fn``)
    inside it as panel edges, where the Kronrod pair's error is honest.
    """
    if isinstance(q, GFun) and q.kind != "generic":
        tau = 1.0 + q.curvature
        tilt = q.slope ** 2 / (2.0 * tau)
        peak = q.offset + tilt
        value = 1.0 / math.sqrt(tau)
        error = 4.0 * math.ulp(1.0) * (1.0 + abs(q.offset) + tilt) * value
    else:
        ends = np.asarray([-13.0, 0.0, 13.0])
        peak = float(np.max(q(ends) - 0.5 * ends ** 2))

        def f(x):
            return np.exp(q(x) - 0.5 * x * x - peak) / math.sqrt(2.0 * math.pi)

        bp = _breaks(-13.0, 13.0, getattr(q, "kinks", ()))
        res = adaptive_quad(f, bp[np.isfinite(bp)], tol_abs=1e-12,
                            tol_rel=1e-13)
        value, error = res.value, res.error
    return peak, value, error


def _exp_scaled(log_scale, x):
    """e^log_scale x; EvaluationError past the double range."""
    try:
        out = math.exp(log_scale) * x
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise EvaluationError("exponential integral overflows double range")
    return out


def _exp_text(log_scale, x):
    """e^log_scale x to 12 decimals, or exp(its log) above 1e15 and past the
    double range, where fixed point would print a run of meaningless
    digits."""
    try:
        value = _exp_scaled(log_scale, x)
    except EvaluationError:
        value = math.inf
    if value > 1e15:
        return f"exp({log_scale + math.log(x):.12f})"
    return f"{value:.12f}"


def _sup_conv_quadratic(g: GFun, lam: float) -> GFun:
    """Closed-form sup-convolution of an analytic kind, again quadratic."""
    c = (1.0 - lam) / (2.0 * lam)
    denom = g.curvature + 2.0 * c
    if denom <= 0.0:
        raise DomainError("sup-convolution diverges: penalty too weak")
    return GFun.quadratic(2.0 * c * g.curvature / denom,
                          2.0 * g.slope * c / denom,
                          g.offset + g.slope ** 2 / (2.0 * denom))


def _pl_exponents(g: GFun, lam: float):
    """The exponents of A = int e^{g/(1-lam)} dgamma and B = int e^{h_lam}
    dgamma: analytic GFuns when g is analytic, else callables."""
    s = 1.0 / (1.0 - lam)
    if g.kind == "generic":
        return (lambda x: g(x) * s), _sup_conv_fn(g, lam)
    return (GFun.quadratic(g.curvature * s, g.slope * s, g.offset * s),
            _sup_conv_quadratic(g, lam))


def _pl_u_density(q) -> Density1D:
    """The normalized left factor u = e^q phi / A as a density, from A's
    exponent q = g/(1-lam) as ``_pl_exponents`` gives it."""
    if isinstance(q, GFun):
        # e^q phi is proportional to N(a / tau, 1 / tau), tau = 1 + k
        tau = 1.0 + q.curvature
        return GaussianMixture1D([1.0], q.slope / tau, 1.0 / math.sqrt(tau))
    logvals = (q(_PL_XS) - 0.5 * _PL_XS * _PL_XS
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
    a_exp, b_exp = _pl_exponents(g, lam)
    a_log, a_val, a_err = _exp_integral(a_exp)
    b_log, b_val, b_err = _exp_integral(b_exp)
    if a_val <= 0.0 or not math.isfinite(a_val):
        raise EvaluationError("left normalization integral failed")
    # B / A^{1-lam} from the peaks' difference: a linear g at lam near 1
    # puts A and B past the double range with a ratio of exactly 1
    scale = _exp_scaled(b_log - (1.0 - lam) * a_log, a_val ** (lam - 1.0))
    deficit = b_val * scale - 1.0
    err = b_err * scale + (1.0 - lam) * b_val * scale / a_val * a_err
    res, lower, dn_err = _dn_bound(
        _pl_u_density(a_exp),
        coeff=0.5 * lam ** (1.0 + lam) * (1.0 - lam) ** (2.0 - lam))
    err += dn_err
    if g.kind == "generic":
        err += 1e-7  # grid sup-convolution refinement allowance
    method = (f"A={_exp_text(a_log, a_val)} B={_exp_text(b_log, b_val)} "
              f"d(u,gamma)={res.value:.9f} g-kind={g.kind} lam={lam}")
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

    For an analytic g = -k x^2/2 + a x + b, e^g gamma / m is N(a/tau, 1/tau)
    with tau = 1 + k, so both limits are its Gaussian moments times m:
    Ent_gamma(e^g) = m (mu^2/2 - k/(2 tau) + log(tau)/2) and
    int |g'|^2 e^g dgamma = m (mu^2 + k^2/tau), mu = a/tau. A generic g is
    integrated over [-WORKING_RADIUS, WORKING_RADIUS].
    """
    lams = tuple(_DEFAULT_SWEEP if lambdas is None else lambdas)
    if not lams or any(not 0.0 < l <= 0.5 for l in lams):
        raise DomainError("lambda sweep must live in (0, 0.5]")
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise DomainError("lambda sweep must be strictly decreasing")
    m_val = _exp_scaled(*_exp_integral(g)[:2])
    if g.kind != "generic":
        k, tau = g.curvature, 1.0 + g.curvature
        mu = g.slope / tau
        ent_limit = m_val * (0.5 * mu * mu - 0.5 * k / tau
                             + 0.5 * math.log1p(k))
        fisher_part = m_val * (mu * mu + k * k / tau)
    else:
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
        a_val, b_val = (_exp_scaled(*_exp_integral(q)[:2])
                        for q in _pl_exponents(g, lam))
        r1 = (a_val ** (1.0 - lam) - m_val) / lam
        r2 = (b_val - m_val) / lam
        lim2 = fisher_part / (2.0 * (1.0 - lam))
        rows.append(LambdaDiagRow(
            lam=lam, entropy_ratio=r1, entropy_limit=ent_limit,
            entropy_residual=abs(r1 - ent_limit), fisher_ratio=r2,
            fisher_limit=lim2, fisher_residual=abs(r2 - lim2)))
    return rows
