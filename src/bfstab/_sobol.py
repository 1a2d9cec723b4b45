"""Sobol points in Gray-code order, equal bit for bit to SciPy's engine.

``sobol(dim, n, seed)`` returns what ``scipy.stats.qmc.Sobol(d=dim,
scramble=seed is not None, seed=seed).random_base2(m)[:n]`` returns for any
2^m >= n, without importing ``scipy.stats``: the Joe-Kuo direction numbers
(Joe and Kuo, SIAM J. Sci. Comput. 30, 2008) are read from the table
SciPy's engine reads, located by ``importlib.util.find_spec``, which does
not run the package. A seed scrambles the points by SciPy's recipe, a
linear matrix scramble plus a digital shift (Matousek, J. Complexity 14,
1998), with the random bits drawn from ``np.random.default_rng(seed)`` in
SciPy's order. Points come at 30 bits, so at most 2^30 of them.
"""

from __future__ import annotations

import functools
import importlib.util
import os

import numpy as np

from .errors import DomainError

__all__ = ["MAX_POINTS", "check_count", "sobol"]

_BITS = 30
MAX_POINTS = 2 ** _BITS
# weight of each bit of a direction number, most significant first
_WEIGHTS = np.int64(1) << np.arange(_BITS - 1, -1, -1, dtype=np.int64)


@functools.lru_cache(maxsize=1)
def _joe_kuo():
    """The (poly, vinit) table of all 21,201 dimensions, read once."""
    stats = importlib.util.find_spec("scipy.stats").submodule_search_locations
    path = os.path.join(stats[0], "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        return table["poly"], table["vinit"]


@functools.lru_cache(maxsize=None)
def _directions(j: int) -> np.ndarray:
    """Direction numbers of dimension j (0-based) as 30-bit integers, most
    significant bit first; read-only, since the cache shares them."""
    v = np.ones(_BITS, dtype=np.int64)
    if j > 0:
        poly, vinit = _joe_kuo()
        p = int(poly[j])
        m = p.bit_length() - 1
        v[:m] = vinit[j, :m]
        for i in range(m, _BITS):
            new = int(v[i - m])
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= int(v[i - k - 1]) << (k + 1)
            v[i] = new
    v *= _WEIGHTS
    v.flags.writeable = False
    return v


def check_count(n: int) -> None:
    """DomainError unless 0 <= n <= MAX_POINTS, the draws the engine has."""
    if not 0 <= n <= MAX_POINTS:
        raise DomainError(f"{n} Sobol points asked for; a 30-bit engine "
                          f"has at most 2^30 = {MAX_POINTS}")


def sobol(dim: int, n: int, seed=None) -> np.ndarray:
    """The first n points of the dim-dimensional Sobol sequence, (n, dim),
    unscrambled for seed None and scrambled by ``seed`` otherwise. The
    array is the transpose of a C-ordered (dim, n) one, so each
    coordinate's n values are contiguous."""
    check_count(n)
    v = np.stack([_directions(j) for j in range(dim)])
    shift = np.zeros(dim, dtype=np.int64)
    if seed is not None:
        rng = np.random.default_rng(seed)
        # SciPy draws the shift's bits least significant first
        shift = rng.integers(2, size=(dim, _BITS),
                             dtype=np.uint32) @ _WEIGHTS[::-1]
        ltm = np.tril(rng.integers(2, size=(dim, _BITS, _BITS),
                                   dtype=np.uint32)).astype(np.int64)
        ltm[:, np.arange(_BITS), np.arange(_BITS)] = 1
        # bit p of a scrambled number is row p of the matrix times its bits
        bits = (v[:, :, None] // _WEIGHTS) & 1
        v = ((bits @ ltm.transpose(0, 2, 1)) & 1) @ _WEIGHTS
    v = v.astype(np.uint32)
    points = np.empty((dim, n), dtype=np.uint32)
    points[:, :1] = shift[:, None]
    # in Gray-code order point 2^k + t is point 2^k - 1 - t xor direction
    # k, so each doubling is one xor of the reversed prefix
    size, k = 1, 0
    while size < n:
        stop = min(2 * size, n)
        np.bitwise_xor(points[:, size - 1::-1][:, :stop - size], v[:, k, None],
                       out=points[:, size:stop])
        size, k = stop, k + 1
    return (points * 2.0 ** -_BITS).T
