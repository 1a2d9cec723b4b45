"""Adaptive panel quadrature and Gauss-Hermite tensor rules.

Integrands are vectorized callables (ndarray in, same-shape ndarray out). The
adaptive integrator keeps a worklist of panels, evaluates a nested
Gauss-Kronrod pair on all active panels in a single integrand call, takes
the Kronrod sum as each panel's value and its gap to the nested Gauss sum
as its error, and bisects the panels whose local error exceeds a share of
the budget proportional to panel width. The pair is QUADPACK's 21-point
K21 (QK21: exact through degree 31, nesting the 10-point Gauss rule G10)
unless the caller passes another: the 7-point K7, which nests G3 and is
exact through degree 11, serves integrands that are smooth on every seed
panel. ``adaptive_quad_rows``
runs many integrals in the same loop: every panel carries a row id, each
row settles against its own budget (the per-integral bookkeeping of
QUADPACK, Piessens et al. 1983), and one integrand call per round covers
the panels of all rows.
``adaptive_quad`` is its one-row case, on K21. Two kernels batch their rows
through it: ``transport1d.gauss_distance_rows`` (the distances of slices
and of sphere-search directions to gamma) and
``density1d._information_rows`` (the entropy and Fisher integrals of
a 1-D mixture, or of every factor of a product that is not a single
Gaussian, in one call; a single Gaussian takes closed forms). Integrands
with expensive inner solves thus see a handful of large batched calls
instead of thousands of scalar ones. ``transport1d._directed_distance``
calls it with one row, for its (P, n) panels: a grid source, log-linear
between its nodes, puts K7 on each cell and locates it in its node table
once; any other source keeps K21.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError, EvaluationError

__all__ = ["GHTensor", "K21", "K7", "KronrodPair", "QuadResult",
           "adaptive_quad", "adaptive_quad_rows", "gh_nodes", "gh_tensor"]

# The most rounds of bisection one call runs, and the most panels one
# integral may split into.
_MAX_ROUNDS = 64
_MAX_PANELS = 8192
# The Gauss-Kronrod 10/21 pair on [-1, 1], from QUADPACK's QK21 (Piessens,
# de Doncker-Kapenga, Ueberhuber and Kahaner 1983, after Kronrod 1965):
# the non-negative Kronrod nodes in descending order, their K21 weights,
# and the G10 weights of the Gauss nodes among them, 0.9739..., 0.8650...,
# 0.6794..., 0.4333... and 0.1488.... Ascending over [-1, 1], the G10 nodes
# sit at the odd positions of the 21 nodes.
_QK21_XGK = (0.995657163025808080735527280689003,
             0.973906528517171720077964012084452,
             0.930157491355708226001207180059508,
             0.865063366688984510732096688423493,
             0.780817726586416897063717578345042,
             0.679409568299024406234327365114874,
             0.562757134668604683339000099272694,
             0.433395394129247190799265943165784,
             0.294392862701460198131126603103866,
             0.148874338981631210884826001129720,
             0.0)
_QK21_WGK = (0.011694638867371874278064396062192,
             0.032558162307964727478818972459390,
             0.054755896574351996031381300244580,
             0.075039674810919952767043140916190,
             0.093125454583697605535065465083366,
             0.109387158802297641899210590325805,
             0.123491976262065851077208685185103,
             0.134709217311473325928054001771707,
             0.142775938577060080797094273138717,
             0.147739104901338491374841515972068,
             0.149445554002916905664936468389821)
_QK21_WG = (0.066671344308688137593568809893332,
            0.149451349150580593145776339657697,
            0.219086362515982043995534934228163,
            0.269266719309996355091226921569469,
            0.295524224714752870173892994651338)
# The Gauss-Kronrod 3/7 pair on [-1, 1] (Kronrod 1965; Laurie 1997), laid
# out as QK21: K7 is exact through degree 11 and nests the 3-point Gauss
# rule G3, whose nodes 0.7745... = sqrt(3/5) and 0 carry the weights 5/9
# and 8/9.
_QK7_XGK = (0.960491268708020283423507092629080,
            0.774596669241483377035853079956480,
            0.434243749346802558002071502844628,
            0.0)
_QK7_WGK = (0.104656226026467265193823857192073,
            0.268488089868333440728569280666710,
            0.401397414775962222905051818618432,
            0.450916538658474142345110087045571)
_QK7_WG = (0.555555555555555555555555555555556,
           0.888888888888888888888888888888889)


class KronrodPair(NamedTuple):
    """A nested Gauss-Kronrod pair on [-1, 1]: the Kronrod nodes ascending
    and their weights, and the weights of the Gauss nodes, which sit at
    nodes[1::2]."""

    nodes: np.ndarray
    weights: np.ndarray
    gauss_weights: np.ndarray


# each pair's nodes and Kronrod weights in ascending node order, and the
# Gauss weights of nodes[1::2]; 0 is a Gauss node of G3, not of G10
_K21_NODES = np.concatenate([np.negative(_QK21_XGK[:-1]), _QK21_XGK[::-1]])
_K21_WEIGHTS = np.concatenate([_QK21_WGK[:-1], _QK21_WGK[::-1]])
_G10_WEIGHTS = np.concatenate([_QK21_WG, _QK21_WG[::-1]])
K21 = KronrodPair(_K21_NODES, _K21_WEIGHTS, _G10_WEIGHTS)
K7 = KronrodPair(np.concatenate([np.negative(_QK7_XGK[:-1]), _QK7_XGK[::-1]]),
                 np.concatenate([_QK7_WGK[:-1], _QK7_WGK[::-1]]),
                 np.concatenate([_QK7_WG, _QK7_WG[-2::-1]]))


@dataclass(frozen=True)
class QuadResult:
    """Value with a conservative absolute error estimate.

    ``adaptive_quad_rows`` returns one with a (B,) array in each field, and
    ``extra`` the (C, B) integrals of an integrand's extra columns (None
    for a plain integrand).
    """

    value: float
    error: float
    evaluations: int
    panels: int
    extra: Optional[np.ndarray] = None


def _row_sums(x, counts):
    """Per-row sums over the last axis of ``x``, whose entries are stored
    row after row, counts[r] of them for row r.

    Each sum is the one np.sum gives on that row's entries alone (rows of a
    C-contiguous array reduce in the same pairwise order, so callers pass
    C-contiguous arrays), and a row's result does not depend on the rows
    batched with it.
    """
    if counts.size == 1:
        return np.add.reduce(x, axis=-1, keepdims=True)
    out = np.zeros(x.shape[:-1] + counts.shape)
    starts = np.cumsum(counts) - counts
    for n in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == n)
        idx = starts[rows, None] + np.arange(n)
        out[..., rows] = np.take(x, idx, axis=-1).sum(axis=-1)
    return out


def adaptive_quad_rows(f, row_breakpoints, *, tol_abs: float = 1e-11,
                       tol_rel: float = 1e-13,
                       pair: KronrodPair = K21) -> QuadResult:
    """Integrate B integrals at once, row r over the span of its breakpoints.

    ``row_breakpoints`` is a (B, M) array: row r's finite entries seed its
    panels (they need not be sorted or distinct) and NaN pads shorter rows.
    ``f(x, row)`` is called once per round on the active panels of all
    rows: x is (P, n), the n Kronrod nodes of ``pair`` (K21 unless given)
    on P panels, and row[i] is the row of the points x[i]. Each panel's
    value is its Kronrod sum and its error the gap to the nested Gauss sum.
    f returns the (P, n) values, or a tuple (values, extra) whose extra
    (C, P, n) holds C more integrands at the same points: each gets the
    Kronrod rule on the value's panels and is folded in
    as they settle, so every settle, split and cap decision reads the value
    alone and the value, error, evaluations and panels keep the bits of a
    plain call. An extra column has no error estimate of its own.
    Each row keeps the budget max(tol_abs, tol_rel |row estimate|) and is
    settled, capped at _MAX_PANELS and accepted exactly as one integral
    is (see ``adaptive_quad``), so B rows in one call give the same results
    as B calls. Returns a QuadResult whose fields are (B,) arrays, with the
    extra columns' (C, B) integrals in ``extra``. Raises EvaluationError if
    a row ends above ten times its budget (naming the row, which the
    error's ``row`` holds) or the integrand returns a non-finite value.
    """
    bp = np.sort(np.atleast_2d(np.asarray(row_breakpoints, dtype=float)), axis=1)
    n_rows = bp.shape[0]
    row, col = np.nonzero(bp[:, 1:] > bp[:, :-1])  # NaN pads give no panel
    count = np.bincount(row, minlength=n_rows)  # active panels per row
    if not count.all():
        raise DomainError("adaptive_quad needs at least two distinct breakpoints")
    width = np.fmax.reduce(bp, axis=1) - bp[:, 0]  # fmax skips the NaN pads
    if not np.isfinite(width).all():
        raise DomainError("breakpoints must be finite")
    # panel ends (a, b) as rows of ab, each row's panels kept together
    ab = np.array([bp[row, col], bp[row, col + 1]])

    def eval_panels(ab, row):
        """(2 + C, P) array of Kronrod values, |Kronrod - Gauss| errors and
        the Kronrod sums of the C extra columns."""
        mid = 0.5 * (ab[0] + ab[1])[:, None]
        half = 0.5 * (ab[1] - ab[0])[:, None]
        pts = mid + half * pair.nodes
        out = f(pts, row)
        vals, extra = out if isinstance(out, tuple) else (out, None)
        vals = np.asarray(vals, dtype=float).reshape(pts.shape)
        if not np.isfinite(vals).all():
            raise EvaluationError("integrand returned non-finite values")
        columns = 0 if extra is None else extra.shape[0]
        ve = np.empty((2 + columns, pts.shape[0]))
        # a basic slice keeps the product C-contiguous, so each panel's sum
        # runs in the order it has in a one-panel call
        gauss = (np.add.reduce(vals[:, 1::2] * pair.gauss_weights, axis=1)
                 * half[:, 0])
        np.multiply(np.add.reduce(vals * pair.weights, axis=1), half[:, 0],
                    out=ve[0])
        np.abs(ve[0] - gauss, out=ve[1])
        if columns:
            np.multiply(np.add.reduce(extra * pair.weights, axis=2),
                        half[:, 0], out=ve[2:])
            if not np.isfinite(ve[2:]).all():
                raise EvaluationError("integrand returned non-finite values")
        return ve

    ve = eval_panels(ab, row)
    initial = count.copy()
    # settled value, error and extra integrals per row
    done = np.zeros((ve.shape[0], n_rows))
    n_panels = count.copy()  # settled and active panels per row

    def close(rows):
        """Fold the rows' active panels in if within 10x budget, else raise."""
        total = done + _row_sums(ve, count)
        v, e = total[:2]
        for r in np.flatnonzero(rows):
            if e[r] > 10.0 * max(tol_abs, tol_rel * abs(v[r])):
                where = f" in row {r}" if n_rows > 1 else ""
                raise EvaluationError(
                    f"adaptive_quad did not converge{where}: error estimate "
                    f"{e[r]:.3e} with {n_panels[r]} panels",
                    value=v[r], error=e[r], row=int(r))
        done[:, rows] = total[:, rows]
        count[rows] = 0
        return rows[row]

    for _ in range(_MAX_ROUNDS):
        total = done + _row_sums(ve, count)  # estimate and error per row
        budget = np.maximum(tol_abs, tol_rel * np.abs(total[0]))
        # every panel of a row is settled once the row's total fits, and a
        # panel on its own once its error fits its width-proportional share
        fits = total[1] <= budget
        if fits.all():
            done = total
            break
        share = 0.5 * budget[row] * (ab[1] - ab[0]) / width[row]
        settled = ve[1] <= np.maximum(share, 1e-300)
        settled |= fits[row]
        if settled.any():
            n_set = np.bincount(row[settled], minlength=n_rows)
            done += _row_sums(ve.compress(settled, axis=1), n_set)
            count -= n_set
            keep = ~settled
            ab, ve = ab.compress(keep, axis=1), ve.compress(keep, axis=1)
            row = row[keep]
        # rows whose split would pass _MAX_PANELS stop here
        capped = n_panels + count > _MAX_PANELS
        if capped.any():
            keep = ~close(capped & (count > 0))
            ab, ve = ab.compress(keep, axis=1), ve.compress(keep, axis=1)
            row = row[keep]
        if row.size == 0:
            break
        mid = 0.5 * (ab[0] + ab[1])
        ab = np.concatenate([ab[0], mid, mid, ab[1]]).reshape(2, -1)
        row = np.concatenate([row, row])
        if n_rows > 1:
            # keep each row's panels together: its left halves, then right
            order = np.argsort(row, kind="stable")
            ab, row = np.take(ab, order, axis=1), row[order]
        n_panels += count
        count *= 2
        ve = eval_panels(ab, row)
    else:
        close(count > 0)
    # every split evaluates two new panels and adds one to the row
    evaluations = (2 * n_panels - initial) * pair.nodes.size
    return QuadResult(done[0], done[1], evaluations, n_panels,
                      done[2:] if done.shape[0] > 2 else None)


def adaptive_quad(f, breakpoints, *, tol_abs: float = 1e-11,
                  tol_rel: float = 1e-13) -> QuadResult:
    """Integrate ``f`` from breakpoints[0] to breakpoints[-1].

    Interior breakpoints seed the initial panels; put known kinks there.
    Each panel's value is its K21 sum and its error estimate |K21 - G10|;
    a panel is settled once its error fits its width-proportional share of
    the budget
    max(tol_abs, tol_rel |estimate|), and all panels are settled once the
    total fits. Raises EvaluationError (carrying the partial result) if the
    error is still above ten times the budget when _MAX_PANELS panels or
    _MAX_ROUNDS rounds run out. This is the one-row case of
    ``adaptive_quad_rows``.
    """
    bp = np.asarray(list(breakpoints), dtype=float)
    if not np.isfinite(bp).all():
        raise DomainError("breakpoints must be finite")
    res = adaptive_quad_rows(lambda x, row: f(x.ravel()), bp[None, :],
                             tol_abs=tol_abs, tol_rel=tol_rel)
    return QuadResult(float(res.value[0]), float(res.error[0]),
                      int(res.evaluations[0]), int(res.panels[0]))


@lru_cache(maxsize=16)
def gh_nodes(order: int):
    """Gauss-Hermite rule rewritten for the standard Gaussian weight.

    Returns read-only (z, w), cached, with sum(w) = 1 and sum(w * g(z)) ~
    E[g(Z)], Z ~ N(0,1). Raises DomainError for an order whose weights are
    not all finite: NumPy's ``hermgauss`` overflows at high orders (400
    among them).
    """
    with np.errstate(all="ignore"):
        x, w = hermgauss(order)
    if not np.isfinite(w).all():
        raise DomainError(f"Gauss-Hermite weights of order {order} overflow")
    z, w = x * math.sqrt(2.0), w / math.sqrt(math.pi)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


# Tensor nodes whose product weight is below this are dropped: their terms
# fall under the last bit of any average a double holds.
_GH_PRUNE = 1e-30


class GHTensor(NamedTuple):
    """A pruned tensor Gauss-Hermite rule for the standard Gaussian on R^dim.

    nodes (dim, N) kept nodes as columns and weights (N,) their product
    weights, both read-only; dropped the product weight of the nodes left
    out; radius sqrt(dim) max|z|, a bound on |z| over every node of the full
    tensor, the dropped ones included.
    """

    nodes: np.ndarray
    weights: np.ndarray
    dropped: float
    radius: float


@lru_cache(maxsize=16)
def gh_tensor(order: int, dim: int) -> GHTensor:
    """The tensor rule of ``gh_nodes(order)`` in dim dimensions, with every
    node of product weight below _GH_PRUNE dropped (Jaeckel 2005, "A note on
    multivariate Gauss-Hermite quadrature").

    The rule is built axis by axis, and a partial product below _GH_PRUNE
    is dropped at once: every 1-D weight is below 1, so no later axis can
    lift it back. Kept nodes are in the order of the full tensor (first
    axis slowest) and keep its weights bit for bit. A dropped partial
    carries the mass of all its completions, which is itself, since the
    weights of each further axis sum to 1. The 64-point rule keeps 85,448
    of its 262,144 nodes in 3-D (dropped mass 1.9e-27), 2,336 of 4,096 in
    2-D and 54 of 64 in 1-D; the 20-point rule keeps 7,896 of 8,000 in 3-D,
    and the 14-point rule every node.
    """
    z, w = gh_nodes(order)
    index = np.arange(order)[:, None]  # kept nodes' indices, one row each
    weights = w
    dropped = 0.0
    for axis in range(dim):
        if axis:
            weights = (weights[:, None] * w).ravel()
            index = np.concatenate(
                [np.repeat(index, order, axis=0),
                 np.tile(np.arange(order), index.shape[0])[:, None]], axis=1)
        keep = weights >= _GH_PRUNE
        dropped += float(np.sum(weights[~keep]))
        index, weights = index[keep], weights[keep]
    nodes = np.ascontiguousarray(z[index.T])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GHTensor(nodes, weights, dropped,
                    math.sqrt(dim) * float(np.max(np.abs(z))))
