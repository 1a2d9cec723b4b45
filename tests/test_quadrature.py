"""Adaptive quadrature: one settle loop for one integral or many rows."""

import math

import numpy as np
import pytest

from bfstab import quadrature
from bfstab.errors import DomainError, EvaluationError
from bfstab.quadrature import adaptive_quad, adaptive_quad_rows

# row r integrates scale_r * |sin(freq_r x)| exp(-x^2 / 10): the rows differ
# in size by 14 orders of magnitude and in how far they refine
SCALES = np.array([1e6, 1.0, 1e-8, 3.0])
FREQS = np.array([3.0, 0.5, 7.0, 1.3])
ROW_BREAKS = [np.linspace(-10.0, 10.0, 9), np.array([-6.0, 0.0, 6.0]),
              np.array([-4.0, 4.0]), np.array([-8.0, -1.0, 0.5, 8.0])]


def wave(x, r):
    return SCALES[r] * np.abs(np.sin(FREQS[r] * x)) * np.exp(-0.1 * x * x)


def padded(rows):
    out = np.full((len(rows), max(len(r) for r in rows)), np.nan)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r[::-1]  # unsorted on purpose
    return out


def test_rows_match_separate_calls():
    res = adaptive_quad_rows(lambda x, row: wave(x, row[:, None]),
                             padded(ROW_BREAKS), tol_abs=1e-9)
    for r, bp in enumerate(ROW_BREAKS):
        one = adaptive_quad(lambda x: wave(x, r), bp, tol_abs=1e-9)
        assert res.value[r] == one.value, r
        assert res.error[r] == one.error, r
        assert res.evaluations[r] == one.evaluations, r
        assert res.panels[r] == one.panels, r
    # the tiny row meets its own absolute budget, not the large row's
    # relative one, so it refines as far as it does alone
    assert res.error[2] <= 1e-9 and res.panels[2] > len(ROW_BREAKS[2]) - 1
    assert res.error[0] <= 1e-13 * abs(res.value[0])


def test_capped_row_is_accepted_within_ten_budgets(monkeypatch):
    # at 64 panels row 3 stops near 1e-6, inside 10x its 2e-7 budget
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    rows = [1, 2, 3]
    res = adaptive_quad_rows(lambda x, row: wave(x, np.array(rows)[row][:, None]),
                             padded([ROW_BREAKS[r] for r in rows]),
                             tol_abs=2e-7)
    for i, r in enumerate(rows):
        one = adaptive_quad(lambda x: wave(x, r), ROW_BREAKS[r], tol_abs=2e-7)
        assert (res.value[i], res.error[i], res.panels[i]) == \
            (one.value, one.error, one.panels), r
    assert 2e-7 < res.error[2] <= 2e-6 and res.panels[2] > 32


def test_one_row_matches_closed_form():
    res = adaptive_quad(lambda x: np.exp(-0.5 * x * x), [-12.0, 0.0, 12.0],
                        tol_abs=1e-13)
    assert abs(res.value - math.sqrt(2.0 * math.pi)) <= res.error + 1e-14
    assert res.evaluations == 31 * (2 * res.panels - 2)


def test_unconverged_row_raises_with_its_partial_result(monkeypatch):
    # row 1 jumps at an irrational point, so no panel edge lands on it
    def f(x, row):
        step = np.where(x < math.sqrt(2.0), 0.0, 1.0)
        return np.where(row[:, None] == 1, step, np.exp(-x * x))

    monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
    bp = np.array([[-5.0, 5.0], [0.0, 3.0]])
    with pytest.raises(EvaluationError, match="in row 1") as info:
        adaptive_quad_rows(f, bp, tol_abs=1e-12)
    assert abs(info.value.value - (3.0 - math.sqrt(2.0))) < 0.2
    # the smooth row alone converges
    res = adaptive_quad_rows(f, bp[:1], tol_abs=1e-12)
    exact = math.sqrt(math.pi) * math.erf(5.0)
    assert abs(res.value[0] - exact) <= res.error[0] + 1e-14


def test_non_finite_values_raise_in_any_row():
    def f(x, row):
        # row 2 overflows to inf past x = 0.2
        with np.errstate(over="ignore"):
            return np.where(row[:, None] == 2, np.exp(4000.0 * x), np.cos(x))

    bp = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 0.25]])
    with pytest.raises(EvaluationError, match="non-finite"):
        adaptive_quad_rows(f, bp)
    res = adaptive_quad_rows(f, bp[:2])
    assert np.allclose(res.value, np.sin([1.0, 2.0]), atol=1e-12)


def test_breakpoint_validation():
    with pytest.raises(DomainError):
        adaptive_quad_rows(lambda x, row: x, np.array([[0.0, 1.0], [2.0, np.nan]]))
    with pytest.raises(DomainError):
        adaptive_quad_rows(lambda x, row: x, np.array([[0.0, np.inf]]))
    with pytest.raises(DomainError):
        adaptive_quad(lambda x: x, [0.0, np.nan, 1.0])
    with pytest.raises(DomainError):
        adaptive_quad(lambda x: x, [1.0, 1.0])
