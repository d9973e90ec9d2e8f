import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from acsflow import shrinker
from acsflow.errors import OrderingViolated, OutOfRange, StepUnderflow
from acsflow.geometry import radius_of_curvature
from acsflow.shrinker import (assemble_profile, entropy_ordering,
                              first_integral_value, period_limit,
                              segment_for_ratio, shrinker_entropy, solve_segment)

import oracles


def test_preconditions():
    with pytest.raises(OutOfRange):
        solve_segment(1 / 8, 1.0)  # the equilibrium arc is degenerate
    with pytest.raises(OutOfRange):
        solve_segment(1 / 3, 1.5)
    with pytest.raises(OutOfRange):
        solve_segment(1.2, 1.5)
    with pytest.raises(OutOfRange):
        segment_for_ratio(1 / 8, 0.9)


def test_segment_invariants():
    seg = solve_segment(1 / 8, 1.5)
    _, u, u_theta = seg.samples
    assert u_theta[0] == 0.0
    assert abs(u_theta[-1]) < 1e-12
    assert np.all(u_theta[1:-1] < 0.0)
    assert seg.fint_drift < 1e-9
    c = first_integral_value(seg.alpha, u, u_theta)
    assert np.max(np.abs(c - seg.first_integral)) / seg.first_integral < 1e-9


def _check_against_dop853(seg):
    span, u_min, power_mean = oracles.arc_dop853(seg.alpha, seg.u_max)
    assert abs(seg.theta_span - span) <= 1e-12
    assert abs(seg.u_min - u_min) <= 1e-13
    assert seg.power_mean == pytest.approx(power_mean, rel=1e-12)


@pytest.mark.parametrize("alpha,u_max", [(1 / 8, 1.5), (1 / 24, 1.8), (1 / 15, 1.3),
                                         (0.3, 1.4), (0.02, 3.0), (0.005, 1.93)])
def test_span_against_quadrature_oracle(alpha, u_max):
    # against both oracles: the Gauss quadrature and DOP853 on the arc ODE
    seg = solve_segment(alpha, u_max)
    assert seg.theta_span == pytest.approx(oracles.arc_span(alpha, u_max), abs=1e-9)
    assert seg.u_min == pytest.approx(oracles.arc_u_min(alpha, u_max), abs=1e-11)
    assert seg.power_mean == pytest.approx(oracles.arc_power_mean(alpha, u_max), rel=1e-9)
    _check_against_dop853(seg)


def test_quadrature_oracle_refuses_a_cancelled_energy():
    # at u_max 1 + 5e-9, C - E(U) cancels to 0/0 at the nodes; the oracle
    # raises instead of returning nan
    with pytest.raises(ValueError, match="cancels"):
        oracles.arc_span(1 / 8, 1 + 5e-9)


@pytest.mark.parametrize("alpha,r", [(1 / 8, 1 + 1e-8), (1 / 8, 1 + 1e-6),
                                     (1 / 24, 1 + 1e-8), (0.005, 1 + 1e-6)])
def test_near_circle_arc_against_dop853_oracle(alpha, r):
    # the Gauss oracle's C - E(U) has no digits left this close to the circle
    _check_against_dop853(segment_for_ratio(alpha, r))


@pytest.mark.parametrize("alpha,k", [(0.005, 14), (0.01, 10)])
def test_arc_near_its_bifurcation_against_dop853_oracle(alpha, k):
    # k just below sqrt(1 + 1/alpha): u_max - 1 is about 3e-3
    _check_against_dop853(shrinker._segment_for_k(alpha, k))


@pytest.mark.parametrize("alpha", [1 / 8, 1 / 15, 1 / 24])
def test_span_limit_at_small_amplitude(alpha):
    got = segment_for_ratio(alpha, 1 + 1e-8).theta_span
    assert abs(got - period_limit(alpha)) < 1e-12


def test_period_limit_values():
    assert period_limit(1 / 8) == pytest.approx(np.pi / 3)
    assert period_limit(1 / 24) == pytest.approx(np.pi / 5)
    assert period_limit(1 / 15) == pytest.approx(np.pi / 4)


def test_segment_for_ratio_linearization():
    r = 1 + 1e-6
    seg = segment_for_ratio(1 / 8, r)
    assert seg.u_max - 1 == pytest.approx((r - 1) / 2, rel=1e-2)
    assert seg.r == pytest.approx(r, rel=1e-10)


def test_ratio_contract_moderate():
    for alpha, r in [(1 / 8, 2.0), (1 / 24, 3.0), (0.3, 1.4)]:
        seg = segment_for_ratio(alpha, r)
        assert abs(seg.r - r) <= 1e-10 * r
        assert seg.u_max / seg.u_min == pytest.approx(r, rel=1e-10)


def _check_shooting(monkeypatch, shoot, value_of, target):
    """The shooter's arc count and its u_max against a brentq reference root."""
    calls = []
    solve = shrinker.solve_segment

    def counted(alpha, u_max):
        calls.append(solve(alpha, u_max))
        return calls[-1]

    monkeypatch.setattr(shrinker, "solve_segment", counted)
    seg = shoot()
    assert len(calls) <= 20
    # the arc returned is the one of those solved that comes closest to target
    errors = [abs(value_of(c) - target) for c in calls]
    assert seg.u_max == calls[int(np.argmin(errors))].u_max
    assert seg.arc_solves == len(calls)
    ref = brentq(lambda u: value_of(solve(seg.alpha, u)) - target,
                 seg.u_max * (1 - 1e-6), seg.u_max * (1 + 1e-6),
                 xtol=1e-15, rtol=8.9e-16, maxiter=200)
    assert abs(seg.u_max - ref) <= 1e-12 * ref


@pytest.mark.parametrize("alpha,k", [(0.12, 3), (1 / 24, 3), (1 / 24, 4), (0.03, 5),
                                     (0.02, 6), (0.01, 10)])
def test_shooting_for_k_matches_brentq_in_few_arcs(alpha, k, monkeypatch):
    _check_shooting(monkeypatch, lambda: shrinker._segment_for_k(alpha, k),
                    lambda seg: seg.theta_span, np.pi / k)


@pytest.mark.parametrize("alpha,r", [(1 / 8, 2.0), (1 / 24, 3.0), (0.3, 1.4)])
def test_shooting_for_ratio_matches_brentq_in_few_arcs(alpha, r, monkeypatch):
    _check_shooting(monkeypatch, lambda: segment_for_ratio(alpha, r),
                    lambda seg: seg.r, r)


def test_shooting_stops_at_the_noise_floor_and_raises_short_of_it():
    alpha, target = 1 / 8 - 1e-4, np.pi / 3
    # Theta(u_max) carries about 2e-14 of noise here; bisecting it took 16 arcs
    assert shrinker._segment_for_k(alpha, 3).arc_solves <= 8

    def jump(seg):  # steps over the target: no arc comes within 1e-10 of it
        return seg.theta_span + math.copysign(1e-8, seg.theta_span - target), seg.dspan_du

    with pytest.raises(StepUnderflow):
        shrinker._shoot(alpha, 1.1, target, jump, "a jump over pi/3")

    # noise of 1e-12 target on every arc: once the best arc meets SHOOT_RTOL,
    # a Newton iterate that does not improve on it ends the search
    signs = itertools.cycle((1.0, -1.0))

    def noisy(seg):
        return seg.theta_span + next(signs) * 1e-12 * target, seg.dspan_du

    seg = shrinker._shoot(0.1, 1.1, target, noisy, "a noisy pi/3")
    assert seg.arc_solves <= 8
    assert abs(seg.theta_span - target) <= shrinker.SHOOT_RTOL * target


def test_span_monotone_in_r_and_alpha():
    rs = [1.2, 1.5, 2.0, 3.0]
    spans = [segment_for_ratio(1 / 8, r).theta_span for r in rs]
    assert all(a < b for a, b in zip(spans, spans[1:]))
    alphas = [0.05, 0.1, 0.2, 0.3]
    spans_a = [segment_for_ratio(a, 1.5).theta_span for a in alphas]
    assert all(a < b for a, b in zip(spans_a, spans_a[1:]))


def test_find_r_for_k_admissibility():
    with pytest.raises(OutOfRange):
        shrinker._segment_for_k(1 / 24, 5)  # k must stay below sqrt(1 + 1/alpha)
    with pytest.raises(OutOfRange):
        shrinker._segment_for_k(0.1, 5)
    with pytest.raises(OutOfRange):
        shrinker._segment_for_k(1 / 24, 2)
    with pytest.raises(OutOfRange):
        shrinker._segment_for_k(0.35, 3)
    # at alpha = 1/(k^2 - 1) the k-fold family meets the circle: k is not
    # admitted there, and is just below it
    for k in range(3, 9):
        alpha = 1.0 / (k * k - 1)
        assert shrinker.max_fold_symmetry(alpha) == k - 1
        with pytest.raises(OutOfRange, match=f"k = {k} is not admissible"):
            shrinker._check_fold(alpha, k)
        assert shrinker.max_fold_symmetry(alpha * (1 - 1e-6)) == k
        shrinker._check_fold(alpha * (1 - 1e-6), k)


def test_find_r_for_k_values():
    r3 = shrinker._segment_for_k(1 / 24, 3).r
    r4 = shrinker._segment_for_k(1 / 24, 4).r
    assert 1 < r4 < r3
    assert segment_for_ratio(1 / 24, r3).theta_span == pytest.approx(np.pi / 3, abs=1e-10)
    assert segment_for_ratio(1 / 24, r4).theta_span == pytest.approx(np.pi / 4, abs=1e-10)


def test_bifurcation_from_circle():
    # just below alpha = 1/(k^2-1) the k-fold family detaches from the circle
    r3 = shrinker._segment_for_k(1 / 8 - 1e-4, 3).r
    assert 1 < r3 < 1.05


def test_f_of_r_properties():
    rs = [1.1, 1.5, 2.0, 3.0]
    vals = [segment_for_ratio(1 / 8, r).power_mean for r in rs]
    assert all(v > 1 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # r -> 1+ recovers the circle value
    assert segment_for_ratio(1 / 8, 1 + 1e-6).power_mean == pytest.approx(1.0, abs=1e-5)


def test_f_of_r_against_quadrature_oracle():
    seg = segment_for_ratio(1 / 24, 2.0)
    assert seg.power_mean == pytest.approx(
        oracles.arc_power_mean(1 / 24, seg.u_max), rel=1e-9)


def _variation_cases():
    return [(1 / 8, segment_for_ratio(1 / 8, 1.8).u_max),
            (1 / 24, segment_for_ratio(1 / 24, 2.0).u_max),
            (1 / 8, 1.3), (1 / 24, 1.8), (0.02, 3.0)]


def test_span_slope_matches_central_difference():
    # dspan_du, the Newton slope of Theta = pi/k, is a complex step through
    # the arc quadrature
    for alpha, u_max in _variation_cases():
        seg = solve_segment(alpha, u_max)
        delta = 1e-4 * (u_max - 1)
        dspan = (solve_segment(alpha, u_max + delta).theta_span
                 - solve_segment(alpha, u_max - delta).theta_span) / (2 * delta)
        assert seg.dspan_du == pytest.approx(dspan, rel=1e-7)


def test_ratio_slope_matches_central_difference():
    # dr_du, the Newton slope of r(u_max) = r, has a closed form
    for alpha, u_max in _variation_cases():
        seg = solve_segment(alpha, u_max)
        delta = 1e-4 * (u_max - 1)
        dr = (solve_segment(alpha, u_max + delta).r
              - solve_segment(alpha, u_max - delta).r) / (2 * delta)
        assert seg.dr_du == pytest.approx(dr, rel=1e-7)


def test_assemble_profile_circle():
    p = assemble_profile(0.2, "circle", 128)
    assert np.all(p.h.values == 1.0)
    assert p.entropy == 0.0
    assert p.r_k == 1.0


def test_assemble_profile_threefold():
    p = assemble_profile(1 / 24, 3, 510)
    vals = p.h.values
    assert p.residual < 1e-7
    assert vals.max() / vals.min() == pytest.approx(p.r_k, rel=1e-8)
    # exact 3-fold symmetry and evenness by construction
    assert np.array_equal(vals, np.roll(vals, 170))
    assert np.array_equal(vals[1:], vals[1:][::-1])
    w = radius_of_curvature(vals)
    target = vals ** (-24.0)
    assert np.max(np.abs(w - target)) / np.max(target) < 1e-7


def test_assemble_profile_grid_validation():
    # the grid is rounded down to a multiple of 2k, but to at least 16k (at
    # alpha 0.124 the 3-fold profile is round enough for 48 nodes)
    assert assemble_profile(1 / 24, 3, 512).h.grid.n == 510
    assert assemble_profile(0.124, 3, 16).h.grid.n == 48


def test_shrinker_entropy_ordering_1_24():
    assert shrinker_entropy(1 / 24, "circle") == 0.0
    e3 = shrinker_entropy(1 / 24, 3)
    e4 = shrinker_entropy(1 / 24, 4)
    assert e3 < e4 < 0.0
    rows = entropy_ordering(1 / 24)
    assert rows[0] == ("circle", 0.0)
    assert [tag for tag, _ in rows] == ["circle", 4, 3]


def test_entropy_ordering_reaches_small_alpha():
    # alpha 0.005 holds twelve k-fold families, k = 14 just below its
    # bifurcation from the circle
    alpha = 0.005
    rows = entropy_ordering(alpha)
    assert [tag for tag, _ in rows] == ["circle"] + list(range(14, 2, -1))
    values = [e for _, e in rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    c = (alpha + 1) / (2 * (alpha - 1))
    for k, e in rows[1:]:
        span, _, power_mean = oracles.arc_dop853(alpha, shrinker._segment_for_k(alpha, k).u_max)
        assert abs(span - np.pi / k) <= 1e-12
        assert abs(e - c * math.log(power_mean)) <= 1e-9 * abs(c)


def test_entropy_ordering_single_family():
    rows = entropy_ordering(0.11)
    assert [tag for tag, _ in rows] == ["circle", 3]
    assert rows[1][1] < 0.0


def test_entropy_ordering_domain():
    with pytest.raises(OutOfRange):
        entropy_ordering(0.2)
    with pytest.raises(OutOfRange):
        entropy_ordering(0.125)


def test_profile_entropy_regression():
    # frozen from the first verified run of this implementation
    assert shrinker_entropy(1 / 24, 3) == pytest.approx(-0.1066988482367, abs=1e-10)
    assert shrinker_entropy(1 / 24, 4) == pytest.approx(-0.0159747323153, abs=1e-10)


def test_segment_csv_export():
    seg = segment_for_ratio(1 / 8, 1.5)
    text = shrinker.segment_to_csv(seg)
    lines = text.strip().splitlines()
    assert lines[0] == "theta,U,U_theta"
    theta, _, _ = seg.samples
    assert len(lines) == len(theta) + 1
