"""Supremum of the marginal transport distance over directions.

d_n(nu) = sup over unit xi of d(<xi, X> law, gamma). Every evaluated direction
certifies a lower bound, so the search is organized to make the certificate as
strong as possible within a budget: a deterministic, prefix-nested lattice on
the sphere (growing the lattice never loses points, which keeps the returned
value monotone in the budget), a structure-aware augmentation (coordinate
axes, normalized differences of component means, covariance eigenvectors),
then Nelder-Mead refinement in tangent coordinates from the best spread-out
seeds. Directions are canonicalized against the antipodal map since opposite
directions give the same marginal distance. Every distance the search itself
evaluates comes from the batched kernel ``gauss_distance_rows``: the whole
lattice in one call, then one call per round of the Nelder-Mead restarts,
which advance in lockstep, and one call certifies the final candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .densitynd import (GaussianMixtureND, canonical_directions,
                        marginal_parameters)
from .errors import DomainError
from .transport1d import gauss_distance_rows

__all__ = [
    "DnResult",
    "dn_distance",
]

# Nelder-Mead refinement: seeds refined, iterations per seed, and the
# simplex size (in radians) and spread of simplex values at which
# refinement stops.
_RESTARTS = 8
_ITERATIONS = 200
_XATOL = 1e-6
_FATOL = 1e-12
# Rows per Gram block in _dedup: 512 x 512 doubles are 2 MiB.
_DEDUP_BLOCK = 512


@dataclass(frozen=True)
class DnResult:
    value: float
    argmax: np.ndarray
    coarse_max: float
    refined_gain: float
    directions_evaluated: int
    value_error: float


def _sobol_block(d: int, count: int) -> np.ndarray:
    """First ``count`` unscrambled Sobol points after dropping the origin."""
    m = max(int(math.ceil(math.log2(count + 1))), 1)
    eng = qmc.Sobol(d=d, scramble=False)
    return eng.random_base2(m)[1:count + 1]


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


def _dedup(rows: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Rows in order, less each row within tol of an earlier kept row.

    A row is dropped when |<row, kept>| >= 1 - tol for a kept row before it
    (the greedy rule), decided a block of rows at a time, so no Gram matrix
    larger than a block squared is formed.
    """
    keep = np.zeros(rows.shape[0], dtype=bool)
    for start in range(0, rows.shape[0], _DEDUP_BLOCK):
        blk = rows[start:start + _DEDUP_BLOCK]
        kept = rows[:start][keep[:start]]
        ok = np.ones(blk.shape[0], dtype=bool)
        for k in range(0, kept.shape[0], _DEDUP_BLOCK):
            gram = blk @ kept[k:k + _DEDUP_BLOCK].T
            ok &= np.max(np.abs(gram), axis=1) < 1.0 - tol
        near = np.tril(np.abs(blk @ blk.T) >= 1.0 - tol, -1)
        for i in np.flatnonzero(ok & near.any(axis=1)):
            ok[i] = not np.any(near[i, :i] & ok[:i])
        keep[start:start + blk.shape[0]] = ok
    return rows[keep]


def _distances(nu: GaussianMixtureND, rows: np.ndarray) -> np.ndarray:
    """d(<v, X> law, gamma) for canonical unit rows v, in one kernel call."""
    means, stds = marginal_parameters(nu, rows)
    weights = np.broadcast_to(nu.weights, means.shape)
    return gauss_distance_rows(weights, means, stds, tol=1e-10)[0]


def _solve_rows(nu: GaussianMixtureND, rows: np.ndarray):
    """(value, error) of d(<v, X> law, gamma) for canonical unit rows v, in
    one kernel call. Each row's marginal parameters come from a one-row
    ``marginal_parameters`` call: a batched product rounds differently, and
    ties between symmetric directions turn on the last bit."""
    means, stds = map(np.vstack, zip(*(marginal_parameters(nu, r[None])
                                        for r in rows)))
    return gauss_distance_rows(np.broadcast_to(nu.weights, means.shape),
                               means, stds, tol=1e-10)


def _tangent_basis(xi: np.ndarray) -> np.ndarray:
    n = xi.shape[0]
    q, _ = np.linalg.qr(np.column_stack([xi, np.eye(n)]))
    basis = q[:, 1:n]
    return basis


def _seeds(cand: np.ndarray, values: np.ndarray) -> list:
    """Spread-out seeds: best first, then best outside 0.15 rad of the picks."""
    seeds = []
    for idx in np.argsort(-values):
        if len(seeds) >= _RESTARTS:
            break
        v = cand[idx]
        if seeds and np.max(np.abs(np.array(seeds) @ v)) > math.cos(0.15):
            continue
        seeds.append(v)
    return seeds


def _nelder_mead(sim: np.ndarray):
    """Minimize from the (N + 1, N) simplex ``sim``, as a generator.

    A line-for-line transcription of SciPy's non-adaptive Nelder-Mead
    (rho 1, chi 2, psi 1/2, sigma 1/2, maxiter _ITERATIONS, no evaluation
    cap, xatol _XATOL, fatol _FATOL), so that it takes the same steps and
    returns the same point bit for bit. It yields each (P, N) block of
    points it needs, the N + 1 vertices first and a shrink's N points
    together, is sent their (P,) values, and returns (x, f(x)).
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    N = sim.shape[1]
    sim = np.array(sim, dtype=float)
    fsim = np.array((yield sim), dtype=float)
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)
    iterations = 1
    while iterations < _ITERATIONS:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _XATOL and
                np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr, = yield xr[None]
        doshrink = 0
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe, = yield xe[None]
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc, = yield xc[None]
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    doshrink = 1
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc, = yield xcc[None]
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    doshrink = 1
            if doshrink:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = yield sim[1:]
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], fsim[0]


def _refine(nu: GaussianMixtureND, seeds, bases):
    """Nelder-Mead from every seed in lockstep, in tangent coordinates.

    Restart i minimizes -d(<v, X> law, gamma) over v = s_i + bases[i] @ t
    normalized, from the simplex {0, 0.1 e_j}; a v of norm below 1e-12
    scores 0 unsolved. Each round solves the pending points of every live
    restart in one kernel call. Returns each restart's (t, value, points
    tried) and the number of points solved.
    """
    t_dim = nu.dim - 1
    simplex = np.vstack([np.zeros(t_dim), 0.1 * np.eye(t_dim)])
    runs = [_nelder_mead(simplex) for _ in seeds]
    blocks = {i: run.send(None) for i, run in enumerate(runs)}
    tried = [0] * len(runs)
    results = [None] * len(runs)
    solved = 0
    while blocks:
        vecs = [seeds[i] + bases[i] @ t
                for i, block in blocks.items() for t in block]
        norms = np.array([np.linalg.norm(v) for v in vecs])
        ok = norms >= 1e-12
        values = np.zeros(len(vecs))
        if ok.any():
            rows = canonical_directions(
                [v / nrm for v, nrm, k in zip(vecs, norms, ok) if k])
            values[ok] = -_solve_rows(nu, rows)[0]
            solved += rows.shape[0]
        start = 0
        for i, block in list(blocks.items()):
            stop = start + block.shape[0]
            tried[i] += block.shape[0]
            try:
                blocks[i] = runs[i].send(values[start:stop])
            except StopIteration as done:
                results[i] = (*done.value, tried[i])
                del blocks[i]
            start = stop
    return results, solved


def dn_distance(nu: GaussianMixtureND, *,
                directions: Optional[int] = None) -> DnResult:
    """Search the sphere for the largest marginal distance to gamma.

    ``directions`` is the coarse lattice size; None picks 512 for n <= 3
    and 4096 above. The returned value is a certified lower bound on the
    supremum (it is the exact distance at the reported argmax, up to
    value_error); the search cannot overshoot. nu has dimension at least
    2: in one dimension d_n is the distance itself.
    """
    if nu.dim < 2:
        raise DomainError("dn_distance needs dimension at least 2; give a "
                          "one-dimensional measure as a GaussianMixture1D")
    if directions is None:
        directions = 512 if nu.dim <= 3 else 4096
    if directions < 1:
        raise DomainError("directions must be positive")

    cand = np.vstack([_lattice(nu.dim, int(directions)), _augmentation(nu)])
    cand = _dedup(canonical_directions(cand))
    values = _distances(nu, cand)
    coarse_max = float(values.max())

    seeds = _seeds(cand, values)
    bases = [_tangent_basis(s) for s in seeds]
    refined, solved = _refine(nu, seeds, bases)
    finals = []
    for s, basis, (t, _, _) in zip(seeds, bases, refined):
        finals.append(np.asarray(s, dtype=float))
        vec = s + basis @ t
        nrm = np.linalg.norm(vec)
        if nrm > 1e-12:
            finals.append(vec / nrm)

    # every final candidate certified in one kernel call; ties go to the
    # lexicographically smallest direction
    rows = canonical_directions(finals)
    value, error = _solve_rows(nu, rows)
    best = min(range(len(rows)), key=lambda i: (-value[i], tuple(rows[i])))
    return DnResult(value=float(value[best]), argmax=rows[best],
                    coarse_max=coarse_max,
                    refined_gain=float(value[best]) - coarse_max,
                    directions_evaluated=cand.shape[0] + solved,
                    value_error=float(error[best]))
