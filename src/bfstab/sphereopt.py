"""Supremum of the marginal transport distance over directions.

d_n(nu) = sup over unit xi of d(<xi, X> law, gamma). The distance at any
one direction is a lower bound on d_n, certified at that direction, so the
search is organized to make its best certified value as large as possible
within a budget: a deterministic, prefix-nested lattice on the sphere,
mapped from the first points of the unscrambled Sobol sequence
(``_sobol.sobol``; growing the lattice never loses points, which keeps the
returned value monotone in the budget), a structure-aware augmentation
(coordinate axes, normalized differences of component means, covariance
eigenvectors), then quasi-Newton (BFGS) refinement in tangent coordinates
from the best spread-out seeds. Directions are canonicalized against the
antipodal map since opposite directions give the same marginal distance.

The lattice only chooses where the refinement starts. Directions are
ranked by one total order, value descending and then direction ascending
(lexicographic), both for the seeds and for the final pick. Every lattice
direction is ranked by a cheap estimate of its distance with an upper
bound (``gauss_distance_estimates``), and only the directions whose upper
bound reaches the last seed's value are certified: no row below that value
can reorder the rows above it, so where the bounds hold, the seeds, and so
the result, are those of a search that certifies the whole lattice. The
bound charges a kink only where a dip of |T' - 1| can reach 0, so on a
5-D mixture of three components one round certifies about 10 of 4,123
rows. The seed picker reads only the top of that order: it sorts the
values once and ranks a run of tied values by direction only when it
reaches the run. Every
certified distance comes from the batched kernel ``gauss_distance_rows``
on the batch-invariant ``marginal_parameters``, so a direction's value
and error do not depend on what it was batched with: one call per ranking
round, then one call per refinement round, in which every restart, all
advancing in lockstep, submits one row and gets back its certified value
and the exact gradient the kernel integrates with it. Each direction is
certified once; the result is the first in ``_ranking`` order of the
seeds, at their lattice values, and each restart's last accepted point,
at the value its round gave it, so it is never below the best lattice
value.

A one-component mixture N(m, C) needs no refinement: along v its marginal
distance is 1 - min(s, 1/s) with s^2 = v'Cv, which is largest at an
eigenvector of C for the largest or the smallest eigenvalue, and
``_augmentation`` puts C's eigenvectors on the lattice. Its search ends at
the lattice, with no kernel call at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from ._sobol import MAX_POINTS, sobol
from .density1d import Density1D, StandardGaussian
from .densitynd import (GaussianMixtureND, ProductFunction,
                        canonical_directions, marginal_parameters)
from .errors import DomainError
from .transport1d import (_ONE_COMPONENT_ERR, bf_distance_full,
                          gauss_distance_estimates, gauss_distance_rows)

__all__ = [
    "DnResult",
    "dn_distance",
]

# Quasi-Newton refinement: seeds refined, kernel rounds per search, the
# largest step (in radians), Armijo's sufficient-increase constant, and the
# gradient and step sizes at which a restart stops.
_RESTARTS = 8
_ROUNDS = 60
_MAX_STEP = 0.1
_ARMIJO = 1e-4
_GTOL = 1e-9
_STEP_TOL = 1e-10
# Quadrature tolerance of every certified distance.
_TOL = 1e-10


@dataclass(frozen=True)
class DnResult:
    """A sphere search: ``value`` is d at ``argmax``, certified up to
    ``value_error``; ``coarse_max`` is the best certified lattice value and
    ``refined_gain`` (>= 0) what refinement added to it;
    ``directions_evaluated`` counts the ranked lattice directions, repeats
    included, and the refinement's points."""

    value: float
    argmax: np.ndarray
    coarse_max: float
    refined_gain: float
    directions_evaluated: int
    value_error: float


def _sobol_block(d: int, count: int) -> np.ndarray:
    """First ``count`` unscrambled Sobol points after dropping the origin:
    the Gray-code prefix of count + 1 points, so a larger count only adds
    points."""
    return sobol(d, count + 1)[1:]


_MAX_DIRECTIONS = MAX_POINTS - 1  # the largest count the engine can draw


def _lattice(dim: int, count: int) -> np.ndarray:
    if dim == 2:
        theta = math.pi * _sobol_block(1, count).ravel()
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        u = _sobol_block(2, count)
        theta = 2.0 * math.pi * u[:, 0]
        z = 2.0 * u[:, 1] - 1.0
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    u = _sobol_block(dim, count)
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    # (1/2, ..., 1/2) maps to the origin, which is no direction
    return z[np.linalg.norm(z, axis=1) >= 1e-12]


def _augmentation(nu: GaussianMixtureND) -> np.ndarray:
    n = nu.dim
    rows = [np.eye(n)]
    if nu.n_components > 1:
        diffs = nu.means[:, None, :] - nu.means[None, :, :]
        iu = np.triu_indices(nu.n_components, k=1)
        rows.append(diffs[iu])
    rows.append(np.linalg.eigh(nu.covariance())[1].T)
    for k in range(nu.n_components):
        rows.append(np.linalg.eigh(nu.covs[k])[1].T)
    cand = np.vstack(rows)
    norms = np.linalg.norm(cand, axis=1)
    cand = cand[norms > 1e-9] / norms[norms > 1e-9][:, None]
    return cand


def _solve_rows(nu: GaussianMixtureND, rows: np.ndarray, grad: bool = False):
    """(value, error) of d(<v, X> law, gamma) for canonical unit rows v, in
    one kernel call; with ``grad``, (value, error, gradient), the (B, n)
    gradient of d by v from the same call (``_direction_gradient``), and
    value and error with the bits they have without it."""
    means, stds = marginal_parameters(nu, rows)
    out = gauss_distance_rows(np.broadcast_to(nu.weights, means.shape),
                              means, stds, tol=_TOL, grad=grad)
    if not grad:
        return out
    value, error, d_means, d_stds = out
    return value, error, _direction_gradient(nu, rows, stds, d_means, d_stds)


def _direction_gradient(nu, rows, stds, d_means, d_stds):
    """(B, n) gradient of d by the row v, from its (B, K) derivatives by the
    marginal means a_k = v . m_k and stds s_k = |L_k' v|: da_k/dv = m_k
    and ds_k/dv = C_k v / s_k. Every sum runs elementwise, coordinate by
    coordinate and component by component left to right, as in
    ``marginal_parameters``, so a row's gradient has the same bits
    whatever rows are batched with it."""
    ratio = d_stds / stds
    grad = np.empty(rows.shape)
    for a in range(nu.dim):
        cov_v = 0.0
        for c in range(nu.dim):
            cov_v = cov_v + rows[:, c, None] * nu.covs[:, a, c]
        terms = d_means * nu.means[:, a] + ratio * cov_v
        grad[:, a] = functools.reduce(np.add, terms.T)
    return grad


def _tangent_basis(xi: np.ndarray) -> np.ndarray:
    n = xi.shape[0]
    q, _ = np.linalg.qr(np.column_stack([xi, np.eye(n)]))
    basis = q[:, 1:n]
    return basis


def _ranking(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row indices by value descending, ties by direction ascending in
    lexicographic order: a total order, so the order among the rows above
    any value does not depend on the rows below it."""
    return np.lexsort(tuple(rows.T[::-1]) + (-values,))


def _seeds(cand: np.ndarray, values: np.ndarray) -> list:
    """Row indices of spread-out seeds, read in ``_ranking`` order: best
    first, then best outside 0.15 rad of the picks.

    The values are sorted once, descending with NaN last as in
    ``_ranking``; a run of equal values (NaN equal to NaN, as the sort
    takes it) is put in ``_ranking`` order only when the sweep reaches it.
    Each pick marks every row within 0.15 rad of it in one sweep, so a row
    read is only looked up."""
    order = np.argsort(-values, kind="stable")
    key = values[order]
    ties = (key[1:] == key[:-1]) | (np.isnan(key[1:]) & np.isnan(key[:-1]))
    starts = np.flatnonzero(np.concatenate([[True], ~ties]))
    near = np.zeros(cand.shape[0], dtype=bool)
    seeds = []
    for start, end in zip(starts, [*starts[1:], order.size]):
        run = order[start:end]
        if run.size > 1:
            run = run[_ranking(cand[run], values[run])]
        for idx in run:
            if near[idx]:
                continue
            seeds.append(idx)
            if len(seeds) == _RESTARTS:
                return seeds
            near |= np.abs(cand @ cand[idx]) > math.cos(0.15)
    return seeds


def _lattice_values(nu: GaussianMixtureND, cand: np.ndarray):
    """(values, errors, seeds): d(<v, X> law, gamma) and its certified
    error at every row of cand ``_seeds`` can read, -inf and inf at the
    rest, and the seeds it picks from them, which are the seeds of d at
    every row.

    Every row is ranked by an upper bound, the estimate plus its bound from
    ``gauss_distance_estimates``. The floor is the value of the last of the
    _RESTARTS seeds, -inf if there are fewer: of the lower bounds at first,
    then of the certified values. Each round certifies the rows not yet
    certified whose upper bound reaches the floor, until none does; the
    rows left out then rank below every row ``_seeds`` read. The bound
    charges a kink of |1 - T'| only where its dip can reach 0, so the
    first round takes the seed contenders alone: 9 to 11 rows of the
    4,123 on 5-D mixtures of three components, with no second round, and
    21 of 570 and 170 of 530 on the symmetric products main-3d-prod-0 and
    main-2d-prod-1. Each round is
    one kernel call on the rows' ``marginal_parameters``, which are those
    of ``_solve_rows``, so each row is certified once, with the bits it has
    in any batch. A one-component mixture needs no round: every estimate is
    then the kernel's closed form, with the kernel's error
    _ONE_COMPONENT_ERR.
    """
    means, stds = marginal_parameters(nu, cand)
    weights = np.broadcast_to(nu.weights, means.shape)
    estimate, bound = gauss_distance_estimates(weights, means, stds)
    if not bound.any():
        errors = np.full(cand.shape[0], _ONE_COMPONENT_ERR)
        return estimate, errors, _seeds(cand, estimate)
    upper = estimate + bound
    values = np.full(cand.shape[0], -np.inf)
    errors = np.full(cand.shape[0], np.inf)
    ranked = estimate - bound
    while True:
        seeds = _seeds(cand, ranked)
        floor = ranked[seeds[-1]] if len(seeds) == _RESTARTS else -np.inf
        # ~(upper < floor), not upper >= floor: a NaN bound is certified too
        todo = np.isneginf(values) & ~(upper < floor)
        if not todo.any():
            return values, errors, seeds
        values[todo], errors[todo] = gauss_distance_rows(
            weights[todo], means[todo], stds[todo], tol=_TOL)
        ranked = values


def _quasi_newton(m: int):
    """Minimize from t = 0 in R^m, as a generator: BFGS with Armijo
    backtracking, on the gradient the caller sends.

    It yields each trial point, first t = 0, and is sent (f, g, info)
    there, info being anything the caller keeps with the point. The step
    is -H g, H the inverse Hessian, which starts at the identity and
    takes the BFGS update when s.y > 0, and is capped at _MAX_STEP in norm.
    A trial that meets Armijo's condition (_ARMIJO) is accepted; one that
    fails it is retried at half the step. It stops at |g|_inf <= _GTOL, at
    a step of norm <= _STEP_TOL, or after _ROUNDS trials, and returns the
    info of the last point accepted, which never scores above t = 0.
    """
    t, inv_hess, p = np.zeros(m), np.eye(m), None
    f, g, info = yield t
    for _ in range(_ROUNDS - 1):
        if p is None:
            if np.max(np.abs(g)) <= _GTOL:
                break
            p, frac = -inv_hess @ g, 1.0
            p *= min(1.0, _MAX_STEP / np.linalg.norm(p))
        if frac * np.linalg.norm(p) <= _STEP_TOL:
            break
        trial = t + frac * p
        f_trial, g_trial, info_trial = yield trial
        if f_trial > f + _ARMIJO * frac * float(g @ p):
            frac *= 0.5
            continue
        s, y = trial - t, g_trial - g
        sy = float(s @ y)
        if sy > 0.0:
            left = np.eye(m) - np.outer(s, y) / sy
            inv_hess = left @ inv_hess @ left.T + np.outer(s, s) / sy
        t, f, g, p = trial, f_trial, g_trial, None
        info = info_trial
    return info


def _refine(nu: GaussianMixtureND, seeds, bases):
    """``_quasi_newton`` from every seed in lockstep, in tangent coordinates.

    Restart i minimizes -d(<v, X> law, gamma) over v = w / |w|, w = s_i +
    bases[i] @ t; |w|^2 = 1 + |t|^2, so w never vanishes. Each round, every
    live restart submits its trial point, and one ``_solve_rows`` call
    gives each its certified value and its gradient by the canonical row
    r = +-v. The chain rule takes that to t: dd/dt = bases[i]' (I - v v')
    (+-dd/dr) / |w|, summed elementwise over coordinates, so a restart's
    trials do not depend on the restarts run with it. Returns, per
    restart, the (row, value, error) of the point it accepted last, as the
    kernel call evaluated it, and the number of points solved.
    """
    seeds, bases = np.asarray(seeds), np.asarray(bases)
    n, m = bases.shape[1:]
    runs = [_quasi_newton(m) for _ in seeds]
    trials = {i: run.send(None) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    solved = 0
    while trials:
        live = list(trials)
        t, basis = np.array([trials[i] for i in live]), bases[live]
        vecs = seeds[live]
        for j in range(m):
            vecs = vecs + t[:, j, None] * basis[:, :, j]
        norms = np.linalg.norm(vecs, axis=1)
        vecs /= norms[:, None]
        rows = canonical_directions(vecs)
        values, errors, grad = _solve_rows(nu, rows, grad=True)
        solved += rows.shape[0]
        # the part of dd/dr orthogonal to r, then the chain rule to t, with
        # the sign of r = +-v and 1 / |w|
        radial = sum(rows[:, a] * grad[:, a] for a in range(n))
        scale = np.where(np.sum(rows * vecs, axis=1) < 0.0, -1.0, 1.0) / norms
        tangent = [(grad[:, a] - radial * rows[:, a]) * scale
                   for a in range(n)]
        slopes = np.column_stack([
            sum(basis[:, a, j] * tangent[a] for a in range(n))
            for j in range(m)])
        for i, row, value, error, slope in zip(live, rows, values, errors,
                                               slopes):
            try:
                trials[i] = runs[i].send((-value, -slope, (row, value, error)))
            except StopIteration as done:
                results[i] = done.value
                del trials[i]
    return results, solved


def dn_distance(nu, *, directions: Optional[int] = None) -> DnResult:
    """Search the sphere for the largest marginal distance to gamma.

    nu is any measure the verifiers take. A Density1D has one direction:
    its d_n is its distance to gamma (tol _TOL), with argmax [1.], one
    evaluation and no refinement. A ProductFunction is searched through its
    mixture. For an n-D mixture, ``directions`` is the coarse lattice size;
    None picks 512 for n <= 3 and 4096 above. Only the lattice directions
    that can become seeds are certified (``_lattice_values``); where the
    estimates' bounds hold, the result is field for field that of a search
    that certifies them all. The returned value is a certified lower bound
    on the supremum (it is the exact distance at the reported argmax, up
    to value_error); the search cannot overshoot. Each direction is
    certified once: the result is the first in ``_ranking`` order of the
    seeds, at their lattice values and errors, and each restart's last
    accepted point, at the value and error of its round, so a one-row
    ``_solve_rows`` at the argmax gives the same value and error. A
    one-component mixture skips the refinement, since its covariance
    eigenvectors, where d peaks, are lattice rows: its result is the
    first lattice row in ``_ranking`` order, with refined_gain 0 and
    directions_evaluated the lattice size.
    """
    if isinstance(nu, Density1D):
        value, error = bf_distance_full(nu, StandardGaussian(), tol=_TOL)
        return DnResult(value=value, argmax=np.ones(1), coarse_max=value,
                        refined_gain=0.0, directions_evaluated=1,
                        value_error=error)
    if isinstance(nu, ProductFunction):
        nu = nu.as_mixture()
    if nu.dim < 2:
        raise DomainError("dn_distance needs dimension at least 2; give a "
                          "one-dimensional measure as a GaussianMixture1D")
    if directions is None:
        directions = 512 if nu.dim <= 3 else 4096
    if directions < 1:
        raise DomainError("directions must be positive")

    cand = canonical_directions(
        np.vstack([_lattice(nu.dim, int(directions)), _augmentation(nu)]))
    values, errors, picks = _lattice_values(nu, cand)
    coarse_max = float(values.max())

    seeds = cand[picks]
    refined, solved = [], 0
    if nu.n_components > 1:
        refined, solved = _refine(nu, seeds,
                                  [_tangent_basis(s) for s in seeds])
    # the seeds as certified on the lattice, then each restart's last
    # accepted point as certified in its round
    finals = list(zip(seeds, values[picks], errors[picks])) + refined
    rows, value, error = map(np.array, zip(*finals))
    best = _ranking(rows, value)[0]
    return DnResult(value=float(value[best]), argmax=rows[best],
                    coarse_max=coarse_max,
                    refined_gain=float(value[best]) - coarse_max,
                    directions_evaluated=cand.shape[0] + solved,
                    value_error=float(error[best]))
