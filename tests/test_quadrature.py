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


def test_many_rows_match_separate_calls():
    # 24 rows put every round's panel count P far from a one-row call's, so
    # a panel sum whose order depends on P or on the array's layout (a
    # product that is not C-contiguous, for one) changes some row's bits.
    # The odd rows are one short panel that settles at once, so their calls
    # alone run at P = 1, where every layout of a (1, 21) array is
    # contiguous
    rng = np.random.default_rng(21)
    scales = 10.0 ** rng.uniform(-6.0, 6.0, 24)
    freqs = rng.uniform(0.3, 8.0, 24)
    short = np.array([0.0, 0.3])
    breaks = [np.sort(rng.uniform(-10.0, 10.0, rng.integers(2, 10)))
              if r % 2 == 0 else rng.uniform(-3.0, 3.0) + short
              for r in range(24)]

    def f(x, r):
        return scales[r] * np.abs(np.sin(freqs[r] * x)) * np.exp(-0.1 * x * x)

    res = adaptive_quad_rows(lambda x, row: f(x, row[:, None]),
                             padded(breaks), tol_abs=1e-9)
    for r, bp in enumerate(breaks):
        one = adaptive_quad(lambda x: f(x, r), bp, tol_abs=1e-9)
        assert (res.value[r], res.error[r], res.evaluations[r],
                res.panels[r]) == (one.value, one.error, one.evaluations,
                                   one.panels), r


def test_extra_columns_ride_on_the_value_panels():
    # two extra integrands, exp(x / 4) and cos(2 x), on the panels the wave
    # settles: the wave's result keeps its bits, and each extra column is
    # its closed form over the row's span
    def with_extra(x, row):
        return wave(x, row[:, None]), np.array([np.exp(0.25 * x),
                                                np.cos(2.0 * x)])

    bp = padded(ROW_BREAKS)
    plain = adaptive_quad_rows(lambda x, row: wave(x, row[:, None]), bp,
                               tol_abs=1e-9)
    res = adaptive_quad_rows(with_extra, bp, tol_abs=1e-9)
    for field in ("value", "error", "evaluations", "panels"):
        assert np.array_equal(getattr(res, field), getattr(plain, field))
    assert plain.extra is None and res.extra.shape == (2, len(ROW_BREAKS))
    a = np.array([r.min() for r in ROW_BREAKS])
    b = np.array([r.max() for r in ROW_BREAKS])
    exact = [4.0 * (np.exp(0.25 * b) - np.exp(0.25 * a)),
             0.5 * (np.sin(2.0 * b) - np.sin(2.0 * a))]
    for got, want in zip(res.extra, exact):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_non_finite_extra_columns_raise():
    def bad(x, row):
        return wave(x, row[:, None]), np.array([np.where(x > 5.0, np.inf, x)])

    with pytest.raises(EvaluationError, match="non-finite"):
        adaptive_quad_rows(bad, padded(ROW_BREAKS), tol_abs=1e-9)


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
    assert res.evaluations == 21 * (2 * res.panels - 2)


def test_kronrod_rule_is_exact_through_degree_31():
    nodes, weights = quadrature._K21_NODES, quadrature._K21_WEIGHTS
    eps = np.finfo(float).eps
    assert nodes.size == 21 and np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, -nodes[::-1])
    for k in range(32):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(np.sum(weights * nodes ** k) - exact) <= 4.0 * eps, k
    # and no further: degree 32 is off by about 4.4e-12
    assert abs(np.sum(weights * nodes ** 32) - 2.0 / 33.0) > 1e-13
    # the nested Gauss rule is G10, at the odd positions
    g_nodes, g_weights = np.polynomial.legendre.leggauss(10)
    assert np.allclose(nodes[1::2], g_nodes, rtol=0.0, atol=4.0 * eps)
    assert np.allclose(quadrature._G10_WEIGHTS, g_weights, rtol=0.0,
                       atol=4.0 * eps)


def test_kronrod_3_7_pair_is_exact_through_degree_11():
    nodes, weights, g_weights = quadrature.K7
    eps = np.finfo(float).eps
    assert nodes.size == 7 and np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, -nodes[::-1])
    for k in range(12):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(np.sum(weights * nodes ** k) - exact) <= 4.0 * eps, k
    # and no further: degree 12 is off by about 2.8e-4
    assert abs(np.sum(weights * nodes ** 12) - 2.0 / 13.0) > 1e-5
    # the nested Gauss rule is G3, at the odd positions, exact through 5
    g_nodes, g_ref = np.polynomial.legendre.leggauss(3)
    assert np.allclose(nodes[1::2], g_nodes, rtol=0.0, atol=4.0 * eps)
    assert np.allclose(g_weights, g_ref, rtol=0.0, atol=4.0 * eps)
    for k in range(6):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(np.sum(g_weights * nodes[1::2] ** k) - exact) <= 4.0 * eps


def test_rows_on_the_3_7_pair_settle_as_one_integral_does():
    # a rule passed to adaptive_quad_rows sizes every panel's points and the
    # evaluation count, and a smooth integrand still settles to its budget
    seen = []

    def f(x, row):
        seen.append(x.shape[1])
        return np.exp(-0.5 * x * x)

    res = adaptive_quad_rows(f, [[-12.0, 0.0, 12.0]], tol_abs=1e-13,
                             pair=quadrature.K7)
    assert set(seen) == {7}
    assert res.evaluations[0] == 7 * (2 * res.panels[0] - 2)
    assert abs(res.value[0] - math.sqrt(2.0 * math.pi)) <= res.error[0] + 1e-14
    assert res.panels[0] > 2 and res.error[0] <= 1e-13 * res.value[0]


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


# ---------------------------------------------------------------------------
# Gauss-Hermite rules

# (order, dim): kept nodes of the pruned tensor rule, of order ** dim
KEPT = {(64, 3): 85_448, (48, 3): 52_984, (64, 2): 2_336, (48, 2): 1_660,
        (64, 1): 54, (48, 1): 44, (20, 3): 7_896, (14, 3): 2_744,
        (20, 2): 400, (14, 2): 196}


@pytest.mark.parametrize("order, dim", sorted(KEPT))
def test_pruned_tensor_keeps_the_heavy_nodes_of_the_full_rule(order, dim,
                                                             full_tensor):
    rule = quadrature.gh_tensor(order, dim)
    nodes, weights = full_tensor(order, dim)
    heavy = weights >= quadrature._GH_PRUNE
    assert rule.weights.size == KEPT[order, dim] == np.count_nonzero(heavy)
    assert rule.nodes.shape == (dim, rule.weights.size)
    assert rule.nodes.flags.c_contiguous
    # the same nodes in the same order, with the same bits
    assert np.array_equal(rule.nodes, nodes[:, heavy])
    assert np.array_equal(rule.weights, weights[heavy])
    assert np.all(rule.weights >= quadrature._GH_PRUNE)
    eps = np.finfo(float).eps
    assert abs(np.sum(rule.weights) + rule.dropped - 1.0) <= 4.0 * eps
    assert rule.dropped == pytest.approx(np.sum(weights[~heavy]), rel=1e-12,
                                         abs=0.0)
    assert rule.radius >= np.max(np.sqrt(np.sum(nodes * nodes, axis=0)))


def test_pruned_tensor_integrates_high_moments():
    # E[z1^2 z2^4 z3^6] = 1 * 3 * 15 for the standard Gaussian on R^3
    rule = quadrature.gh_tensor(64, 3)
    z = rule.nodes
    value = rule.weights @ (z[0] ** 2 * z[1] ** 4 * z[2] ** 6)
    assert abs(value - 45.0) <= 1e-13 * 45.0


def test_cached_rules_are_read_only():
    # every caller shares the cached arrays, so none may write into them
    rule = quadrature.gh_tensor(20, 2)
    assert quadrature.gh_tensor(20, 2) is rule
    for array in (rule.nodes, rule.weights, *quadrature.gh_nodes(20)):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_gauss_hermite_order_with_overflowing_weights_raises():
    # NumPy's hermgauss returns NaN weights at order 400
    with pytest.raises(DomainError, match="order 400"):
        quadrature.gh_nodes(400)
    z, w = quadrature.gh_nodes(256)
    assert np.all(np.isfinite(w)) and abs(np.sum(w) - 1.0) < 1e-13
