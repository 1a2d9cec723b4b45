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
evaluates, the whole lattice at once and each Nelder-Mead point as one row,
comes from the batched kernel ``gauss_distance_rows``; only the final
candidates get both directed integrals (``lower_bound_certificate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtri
from scipy.stats import qmc

from .density1d import StandardGaussian
from .densitynd import (Direction, GaussianMixtureND, canonical_directions,
                        directional_marginal, marginal_parameters)
from .errors import DomainError
from .transport1d import bf_distance_full, gauss_distance_rows

__all__ = [
    "DnResult",
    "DnCertificate",
    "dn_distance",
    "lower_bound_certificate",
]

# Nelder-Mead refinement: seeds refined, iterations per seed, and the
# simplex size at which refinement stops, in radians.
_RESTARTS = 8
_ITERATIONS = 200
_XATOL = 1e-6
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


@dataclass(frozen=True)
class DnCertificate:
    """d_n(nu) >= value - error, witnessed by the stated direction."""

    direction: np.ndarray
    value: float
    error: float


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


def _tangent_basis(xi: np.ndarray) -> np.ndarray:
    n = xi.shape[0]
    q, _ = np.linalg.qr(np.column_stack([xi, np.eye(n)]))
    basis = q[:, 1:n]
    return basis


def lower_bound_certificate(nu: GaussianMixtureND, direction) -> DnCertificate:
    """Full-precision distance of one directional marginal to gamma."""
    d = direction if isinstance(direction, Direction) else Direction(direction)
    if d.dim != nu.dim:
        raise DomainError("certificate direction has the wrong dimension")
    marg = directional_marginal(nu, d)
    value, err = bf_distance_full(marg, StandardGaussian(), tol=1e-10)
    return DnCertificate(direction=d.vector, value=value, error=err)


def dn_distance(nu: GaussianMixtureND, *,
                directions: Optional[int] = None) -> DnResult:
    """Search the sphere for the largest marginal distance to gamma.

    ``directions`` is the coarse lattice size; None picks 512 for n <= 3
    and 4096 above. The returned value is a certified lower bound on the
    supremum (it is the exact distance at the reported argmax, up to
    value_error); the search cannot overshoot.
    """
    if directions is None:
        directions = 512 if nu.dim <= 3 else 4096
    if directions < 1:
        raise DomainError("directions must be positive")
    evals = 0

    def objective(vec: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return float(_distances(nu, canonical_directions(vec))[0])

    if nu.dim == 1:
        cert = lower_bound_certificate(nu, np.ones(1))
        return DnResult(value=cert.value, argmax=cert.direction,
                        coarse_max=cert.value, refined_gain=0.0,
                        directions_evaluated=1, value_error=cert.error)

    cand = np.vstack([_lattice(nu.dim, int(directions)), _augmentation(nu)])
    cand = _dedup(canonical_directions(cand))
    values = _distances(nu, cand)
    evals += cand.shape[0]
    coarse_max = float(values.max())

    # spread-out seeds: best first, then best outside 0.15 rad of the picks
    order = np.argsort(-values)
    seeds = []
    for idx in order:
        if len(seeds) >= _RESTARTS:
            break
        v = cand[idx]
        if seeds and np.max(np.abs(np.array(seeds) @ v)) > math.cos(0.15):
            continue
        seeds.append(v)

    finals = []
    for s in seeds:
        finals.append(np.asarray(s, dtype=float))
        basis = _tangent_basis(s)

        def neg(t, _s=s, _b=basis):
            vec = _s + _b @ t
            nrm = np.linalg.norm(vec)
            if nrm < 1e-12:
                return 0.0
            return -objective(vec / nrm)

        t_dim = nu.dim - 1
        simplex = np.vstack([np.zeros(t_dim), 0.1 * np.eye(t_dim)])
        res = minimize(neg, np.zeros(t_dim), method="Nelder-Mead",
                       options={"maxiter": _ITERATIONS,
                                "initial_simplex": simplex,
                                "xatol": _XATOL,
                                "fatol": 1e-12})
        vec = s + basis @ res.x
        nrm = np.linalg.norm(vec)
        if nrm > 1e-12:
            finals.append(vec / nrm)

    # full-precision (both directed integrals) at every final candidate
    best = None
    for vec in finals:
        cert = lower_bound_certificate(nu, vec)
        key = (-cert.value, tuple(cert.direction))
        if best is None or key < best[0]:
            best = (key, cert)
    cert = best[1]
    return DnResult(value=cert.value, argmax=cert.direction,
                    coarse_max=coarse_max,
                    refined_gain=cert.value - coarse_max,
                    directions_evaluated=evals,
                    value_error=cert.error)
