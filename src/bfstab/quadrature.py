"""Adaptive panel quadrature and Gauss-Hermite tensor rules.

Integrands are vectorized callables (ndarray in, same-shape ndarray out). The
adaptive integrator keeps a worklist of panels, evaluates two Gauss-Legendre
rules, GL10 and GL21 (they share no node), on all active panels in a single
integrand call, takes their gap as each panel's error, and bisects the
panels whose local error exceeds a share of the budget proportional to panel
width. ``adaptive_quad_rows`` runs many integrals in the same loop: every
panel carries a row id, each row settles against its own budget (the
per-integral bookkeeping of QUADPACK, Piessens et al. 1983), and one
integrand call per round covers the panels of all rows.
``adaptive_quad`` is its one-row case. Integrands with expensive inner
solves (transport-map quantile inversions, slice distances) thus see a
handful of large batched calls instead of thousands of scalar ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, EvaluationError

__all__ = ["QuadResult", "adaptive_quad", "adaptive_quad_rows", "gh_nodes",
           "gh_tensor"]

# Gauss-Legendre orders of the check rule (_LOW) and the value rule
# (_HIGH), the most rounds of bisection one call runs, and the most panels
# one integral may split into.
_LOW = 10
_HIGH = 21
_MAX_ROUNDS = 64
_MAX_PANELS = 8192
# the nodes of both rules side by side, and each rule's weights
_GL_WL = leggauss(_LOW)[1]
_GL_WH = leggauss(_HIGH)[1]
_GL_NODES = np.concatenate([leggauss(_LOW)[0], leggauss(_HIGH)[0]])


@dataclass(frozen=True)
class QuadResult:
    """Value with a conservative absolute error estimate.

    ``adaptive_quad_rows`` returns one with a (B,) array in each field.
    """

    value: float
    error: float
    evaluations: int
    panels: int


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
                       tol_rel: float = 1e-13) -> QuadResult:
    """Integrate B integrals at once, row r over the span of its breakpoints.

    ``row_breakpoints`` is a (B, M) array: row r's finite entries seed its
    panels (they need not be sorted or distinct) and NaN pads shorter rows.
    ``f(x, row)`` is called once per round on the active panels of all
    rows: x is (P, 31), and row[i] is the row of the points x[i].
    Each row keeps the budget max(tol_abs, tol_rel |row estimate|) and is
    settled, capped at _MAX_PANELS and accepted exactly as one integral
    is (see ``adaptive_quad``), so B rows in one call give the same results
    as B calls. Returns a QuadResult whose fields are (B,) arrays. Raises
    EvaluationError if a row ends above ten times its budget or the
    integrand returns a non-finite value.
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
        """(2, P) array of GL21 values and |GL21 - GL10| errors."""
        mid = 0.5 * (ab[0] + ab[1])[:, None]
        half = 0.5 * (ab[1] - ab[0])[:, None]
        pts = mid + half * _GL_NODES
        vals = np.asarray(f(pts, row), dtype=float).reshape(pts.shape)
        if not np.isfinite(vals).all():
            raise EvaluationError("integrand returned non-finite values")
        ve = np.empty((2, pts.shape[0]))
        vlow = np.add.reduce(vals[:, :_LOW] * _GL_WL, axis=1) * half[:, 0]
        np.multiply(np.add.reduce(vals[:, _LOW:] * _GL_WH, axis=1), half[:, 0], out=ve[0])
        np.abs(ve[0] - vlow, out=ve[1])
        return ve

    ve = eval_panels(ab, row)
    initial = count.copy()
    done = np.zeros((2, n_rows))  # settled value and error per row
    n_panels = count.copy()  # settled and active panels per row

    def close(rows):
        """Fold the rows' active panels in if within 10x budget, else raise."""
        v, e = done + _row_sums(ve, count)
        for r in np.flatnonzero(rows):
            if e[r] > 10.0 * max(tol_abs, tol_rel * abs(v[r])):
                where = f" in row {r}" if n_rows > 1 else ""
                raise EvaluationError(
                    f"adaptive_quad did not converge{where}: error estimate "
                    f"{e[r]:.3e} with {n_panels[r]} panels",
                    value=v[r], error=e[r])
        done[0, rows], done[1, rows] = v[rows], e[rows]
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
    evaluations = (2 * n_panels - initial) * (_LOW + _HIGH)
    return QuadResult(done[0], done[1], evaluations, n_panels)


def adaptive_quad(f, breakpoints, *, tol_abs: float = 1e-11,
                  tol_rel: float = 1e-13) -> QuadResult:
    """Integrate ``f`` from breakpoints[0] to breakpoints[-1].

    Interior breakpoints seed the initial panels; put known kinks there. The
    per-panel error estimate is |GL21 - GL10|; a panel is settled once
    its error fits its width-proportional share of the budget
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

    Returns (z, w) with sum(w) = 1 and sum(w * g(z)) ~ E[g(Z)], Z ~ N(0,1).
    """
    x, w = hermgauss(order)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


@lru_cache(maxsize=16)
def gh_tensor(order: int, dim: int):
    """Tensorized Gaussian rule: nodes (order**dim, dim), weights (order**dim,)."""
    z, w = gh_nodes(order)
    grids = np.meshgrid(*([z] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    weights = np.ones(nodes.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    return nodes, weights
