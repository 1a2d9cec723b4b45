"""Deterministic test corpora and the per-case verification runner.

Corpora are generated from fixed literal seeds so every run, worker count,
and machine sees the same cases. Cases are plain picklable objects (mixtures,
products of 1-D mixtures, PL inputs) so suites can run in a process pool.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .deficits import (DeficitReport, GFun, PLTriple, pl_deficit_check,
                       verify_corollary, verify_talagrand, verify_thm_main)
from .density1d import GaussianMixture1D
from .densitynd import GaussianMixtureND, ProductFunction
from .errors import DomainError

__all__ = [
    "SUITES",
    "DEFAULT_TOL",
    "suite_cases",
    "suite_theorems",
    "compatible",
    "run_case",
    "main_corpus",
    "talagrand_1d_corpus",
    "equality_cases",
    "pl_grid",
]

_CORPUS_SEED = 58213901
_TAL_SEED = 77081523

DEFAULT_TOL = {"main": 1e-6, "corollary": 1e-5, "talagrand": 1e-6, "pl": 1e-6}


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_cov(rng: np.random.Generator, n: int) -> np.ndarray:
    eigs = np.exp(rng.uniform(math.log(0.25), math.log(4.0), n))
    q = _haar(rng, n)
    return q @ np.diag(eigs) @ q.T


def _random_weights(rng: np.random.Generator, k: int) -> np.ndarray:
    w = rng.uniform(0.2, 1.0, k)
    return w / w.sum()


def _random_mixture_1d(rng: np.random.Generator,
                       max_components: int = 4) -> GaussianMixture1D:
    k = int(rng.integers(1, max_components + 1))
    return GaussianMixture1D(
        _random_weights(rng, k),
        rng.uniform(-2.0, 2.0, k),
        np.sqrt(np.exp(rng.uniform(math.log(0.25), math.log(4.0), k))))


def _random_mixture_nd(rng: np.random.Generator, n: int) -> GaussianMixtureND:
    k = int(rng.integers(1, 5))
    covs = np.stack([_random_cov(rng, n) for _ in range(k)])
    return GaussianMixtureND(_random_weights(rng, k),
                             rng.uniform(-2.0, 2.0, (k, n)), covs)


def main_corpus() -> List[Tuple[str, object]]:
    """52 seeded mixtures: 20 in 1-D, 18 in 2-D, 14 in 3-D.

    A few 2-D/3-D entries are equal-factor products h (x) ... (x) h, which
    exercise the tensorization identities; the rest have full covariances.
    """
    rng = np.random.default_rng(_CORPUS_SEED)
    cases: List[Tuple[str, object]] = []
    for i in range(20):
        cases.append((f"main-1d-{i:02d}", _random_mixture_1d(rng)))
    for i in range(15):
        cases.append((f"main-2d-{i:02d}", _random_mixture_nd(rng, 2)))
    for i in range(3):
        h = _random_mixture_1d(rng, max_components=2)
        cases.append((f"main-2d-prod-{i}", ProductFunction([h, h])))
    for i in range(12):
        cases.append((f"main-3d-{i:02d}", _random_mixture_nd(rng, 3)))
    for i in range(2):
        h = _random_mixture_1d(rng, max_components=2)
        cases.append((f"main-3d-prod-{i}", ProductFunction([h, h, h])))
    return cases


def talagrand_1d_corpus() -> List[Tuple[str, object]]:
    """30 seeded 1-D mixtures for the deficit chain checks."""
    rng = np.random.default_rng(_TAL_SEED)
    return [(f"tal-1d-{i:02d}", _random_mixture_1d(rng)) for i in range(30)]


def _tilt_1d(a: float) -> GaussianMixture1D:
    return GaussianMixture1D([1.0], [a], [1.0])


def equality_cases() -> List[Tuple[str, object]]:
    """The extremal family exp(a.x - |a|^2/2): zero deficit, zero distance."""
    cases: List[Tuple[str, object]] = []
    for a in (0.0, 0.5, -0.5, 2.0, -2.0):
        cases.append((f"eq-1d-a{a:+g}", _tilt_1d(a)))
    for a in ((0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (2.0, 0.0), (-2.0, 0.0),
              (1.0, 1.0)):
        label = f"eq-2d-a({a[0]:+g},{a[1]:+g})"
        cases.append((label, ProductFunction([_tilt_1d(a[0]), _tilt_1d(a[1])])))
    return cases


def _sin_bump(x):
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 2.0
    val = 0.5 * np.sin(0.5 * math.pi * x) * np.cos(0.25 * math.pi * x) ** 2
    return np.where(inside, val, 0.0)


def _sin_bump_deriv(x):
    # C^1 at |x| = 2: cos(pi x / 4) has a double zero there
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 2.0
    half, quarter = 0.5 * math.pi * x, 0.25 * math.pi * x
    val = 0.25 * math.pi * (np.cos(half) * np.cos(quarter) ** 2
                            - np.sin(half) * np.cos(quarter) * np.sin(quarter))
    return np.where(inside, val, 0.0)


_SIN_BUMP = GFun.from_callable(_sin_bump, _sin_bump_deriv)

_PL_GS = (
    ("zero", GFun.const(0.0)),
    ("linear", GFun.linear(1.0)),
    ("negquad", GFun.quadratic(0.5)),
    ("sinbump", _SIN_BUMP),
)

_PL_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def pl_grid() -> List[Tuple[str, object]]:
    cases = []
    for name, g in _PL_GS:
        for lam in _PL_LAMBDAS:
            cases.append((f"pl-{name}-lam{lam:g}", (g, lam)))
    return cases


SUITES = {
    "equality-cases": equality_cases,
    "main-corpus": main_corpus,
    "corollary-corpus": None,  # main corpus restricted below
    "talagrand-1d": talagrand_1d_corpus,
    "pl-grid": pl_grid,
}


def suite_cases(name: str) -> List[Tuple[str, object]]:
    if name == "corollary-corpus":
        return [(cid, obj) for cid, obj in main_corpus() if _case_dim(obj) >= 2]
    try:
        return SUITES[name]()
    except KeyError:
        raise DomainError(
            f"unknown suite {name!r}; available: {sorted(SUITES)}") from None


def _case_dim(obj) -> int:
    if isinstance(obj, GaussianMixture1D):
        return 1
    if isinstance(obj, (GaussianMixtureND, ProductFunction)):
        return obj.dim
    return 0


def compatible(obj, theorem: str) -> bool:
    """Whether a corpus object can feed the given theorem at all."""
    if theorem == "pl":
        return isinstance(obj, tuple)
    if isinstance(obj, tuple):
        return False
    if theorem == "corollary":
        return _case_dim(obj) >= 2
    return True


def suite_theorems(name: str, theorem: Optional[str] = None) -> List[str]:
    """Theorems run for a suite when none is requested explicitly."""
    if theorem is not None:
        return [theorem]
    return {
        "equality-cases": ["main", "talagrand", "corollary"],
        "main-corpus": ["main"],
        "corollary-corpus": ["corollary"],
        "talagrand-1d": ["talagrand"],
        "pl-grid": ["pl"],
    }[name]


def run_case(case_id: str, obj, theorem: str, *, tol: Optional[float] = None,
             seed: int = 0, mc_budget: int = 10 ** 6,
             directions: Optional[int] = None) -> DeficitReport:
    """Verify one theorem on one corpus object; never raises on case errors.

    A case that cannot run (wrong dimension for the theorem, numerical
    breakdown) comes back with status "error" and the reason in method, so
    suite runs and sweeps continue past it.
    """
    tol = DEFAULT_TOL[theorem] if tol is None else tol
    try:
        if theorem == "main":
            return verify_thm_main(obj, directions=directions,
                                   case_id=case_id, tol=tol,
                                   mc_budget=mc_budget, seed=seed)
        if theorem == "corollary":
            return verify_corollary(obj, mc_budget, case_id=case_id,
                                    tol=tol, seed=seed)
        if theorem == "talagrand":
            return verify_talagrand(obj, case_id=case_id, tol=tol,
                                    mc_budget=mc_budget, seed=seed,
                                    directions=directions)
        if theorem == "pl":
            g, lam = obj
            return pl_deficit_check(PLTriple(g, lam), case_id=case_id, tol=tol)
        raise DomainError(f"unknown theorem {theorem!r}")
    except Exception as exc:  # noqa: BLE001 - suite runs must not abort
        return DeficitReport(case_id=case_id, theorem=theorem, deficit=0.0,
                             lower_bound=0.0, margin=0.0, error_estimate=0.0,
                             status="error",
                             method=f"error: {type(exc).__name__}: {exc}")
