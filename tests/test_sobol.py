"""The in-package Sobol generator against SciPy's engine, its range, and
the import graph it keeps small."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import qmc

from bfstab import densitynd, sphereopt
from bfstab._sobol import MAX_POINTS, _directions, sobol
from bfstab.deficits import lsi_deficit
from bfstab.densitynd import _MAX_MC_BUDGET, GaussianMixtureND
from bfstab.errors import DomainError
from bfstab.sphereopt import _MAX_DIRECTIONS

DIMS = [1, 2, 3, 4, 5, 6, 7, 12, 40]
# no seed, seed 0, the last replicate's second component at seed 3 (the
# largest engine seed of a two-component n >= 4 average) and one past 2^40
SEEDS = [None, 0, 3 + 1009 * 7 + 1, 2 ** 40 + 5]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
def test_equals_scipy_bit_for_bit(dim, seed):
    for m in (0, 1, 4, 7, 10, 13):
        ref = qmc.Sobol(d=dim, scramble=seed is not None,
                        seed=seed).random_base2(m)
        got = sobol(dim, 2 ** m, seed)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref), m


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", [1, 2, 4, 7])
def test_prefixes_equal_scipy_trimmed(dim, seed):
    # every node set and lattice draws a count that is no power of two;
    # the Gray-code prefix is the trimmed power-of-two draw
    ref = qmc.Sobol(d=dim, scramble=seed is not None,
                    seed=seed).random_base2(13)
    for n in (0, 1, 3, 17, 125, 1000, 4097, 8191):
        got = sobol(dim, n, seed)
        assert got.shape == (n, dim)
        assert np.array_equal(got, ref[:n]), n


def test_directions_are_cached_read_only():
    sobol(3, 4)
    with pytest.raises(ValueError):
        _directions(2)[0] = 0


@pytest.mark.parametrize("n", [-1, MAX_POINTS + 1, 2 ** 40])
def test_draws_past_the_engine_range_are_domain_errors(n):
    # a 30-bit engine has 2^30 points; the check comes before any array
    with pytest.raises(DomainError):
        sobol(4, n, 3)


def _mixture_4d():
    return GaussianMixtureND([1.0], [[0.0, 0.0, 0.0, 0.0]], [np.eye(4)])


def _halves_4d():
    return GaussianMixtureND([0.5, 0.5], [np.zeros(4)] * 2, [np.eye(4)] * 2)


class _Drawn(Exception):
    pass


def _recording(sizes):
    def record(dim, n, seed=None):
        sizes.append(n)
        raise _Drawn
    return record


def test_largest_cli_budget_draws_the_whole_engine(monkeypatch):
    # the bounds of --mc-budget and --directions are the values at which
    # the largest draw is exactly the engine's range: a replicate then has
    # 2^30 points, of which each of two equal halves draws 2^29, and the
    # lattice draws 2^30; a Gaussian takes its closed forms and draws none
    sizes = []
    monkeypatch.setattr(densitynd, "sobol", _recording(sizes))
    lsi_deficit(_mixture_4d(), mc_budget=_MAX_MC_BUDGET, seed=0)
    assert sizes == []
    with pytest.raises(_Drawn):
        lsi_deficit(_halves_4d(), mc_budget=_MAX_MC_BUDGET, seed=0)
    monkeypatch.setattr(sphereopt, "sobol", _recording(sizes))
    with pytest.raises(_Drawn):
        sphereopt.dn_distance(_mixture_4d(), directions=_MAX_DIRECTIONS)
    assert sizes == [MAX_POINTS // 2, MAX_POINTS]


def test_one_past_the_largest_budget_is_a_domain_error():
    with pytest.raises(DomainError):
        lsi_deficit(_mixture_4d(), mc_budget=_MAX_MC_BUDGET + 1, seed=0)
    with pytest.raises(DomainError):
        sphereopt.dn_distance(_mixture_4d(), directions=_MAX_DIRECTIONS + 1)


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs most of a bare start-up, and no command needs it
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, bfstab.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.optimize'))))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
