import math

import numpy as np
import pytest
from scipy.optimize import minimize

from acsflow import entropy as entropy_module
from acsflow.entropy import entropy, entropy_rows
from acsflow.errors import NonConvex, OptimFailed, OutOfRange
from acsflow.geometry import SupportFunction, circle_support, random_convex_support, translate
from acsflow.shrinker import assemble_profile, shrinker_entropy

import oracles
from analysis import PointOutside, ellipse_support, entropy_at


def test_unit_circle_zero(grid256):
    u = circle_support(grid256)
    assert entropy_at(u, (0.0, 0.0), 0.5) == pytest.approx(0.0, abs=1e-14)
    res = entropy(u, 0.5)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.hypot(*res.point) < 1e-8


def test_scale_invariance(grid256, rng):
    u = random_convex_support(grid256, rng)
    base = entropy(u, 0.25).value
    for lam in (0.5, 2.0, 10.0):
        scaled = SupportFunction(grid256, lam * u.values)
        assert entropy(scaled, 0.25).value == pytest.approx(base, abs=1e-9)


def test_translation_equivariance(grid256, rng):
    u = random_convex_support(grid256, rng)
    res = entropy(u, 0.5)
    z = (0.17, -0.08)
    moved = entropy(translate(u, z), 0.5)
    assert moved.value == pytest.approx(res.value, abs=1e-9)
    assert moved.point[0] == pytest.approx(res.point[0] - z[0], abs=1e-6)
    assert moved.point[1] == pytest.approx(res.point[1] - z[1], abs=1e-6)


def test_shifted_circle(grid256):
    u = circle_support(grid256, 1.0, (0.3, 0.0))
    res = entropy(u, 0.5)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.point[0] == pytest.approx(0.3, abs=1e-7)
    assert abs(res.point[1]) < 1e-7


def test_point_outside(grid256):
    u = circle_support(grid256)
    with pytest.raises(PointOutside):
        entropy_at(u, (1.2, 0.0), 0.5)
    with pytest.raises(PointOutside):
        entropy_at(u, (1.0 - 1e-12, 0.0), 0.5)


def test_alpha_domain(grid256):
    u = circle_support(grid256)
    with pytest.raises(OutOfRange):
        entropy_at(u, (0.0, 0.0), 1.5)
    with pytest.raises(OutOfRange):
        entropy_at(u, (0.0, 0.0), 0.0)


def test_near_boundary_blowup(grid256):
    # closed form for the circle: mean of u^(1-1/alpha) at alpha = 1/2
    u = circle_support(grid256)
    val = entropy_at(u, (0.999, 0.0), 0.5)
    assert val == pytest.approx(-math.log(oracles.poisson_mean(0.999)), abs=1e-4)
    closer = entropy_at(u, (0.9999, 0.0), 0.5)
    assert closer < val < entropy_at(u, (0.9, 0.0), 0.5) < 0.0


def test_log_branch_at_alpha_one(grid256):
    u = circle_support(grid256)
    assert entropy_at(u, (0.0, 0.0), 1.0) == pytest.approx(0.0, abs=1e-14)
    assert entropy_at(u, (0.3, 0.0), 1.0) < 0.0
    res = entropy(u, 1.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_alpha_monotone_at_fixed_point(grid256, rng):
    for _ in range(3):
        u = random_convex_support(grid256, rng)
        vals = [entropy_at(u, (0.05, -0.02), a) for a in (0.1, 0.2, 1 / 3, 0.6, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_ellipse_affine_critical_zero(grid256):
    res = entropy(ellipse_support(grid256, 5, 1), 1 / 3)
    assert abs(res.value) < 1e-6
    assert np.hypot(*res.point) < 1e-6


def test_subcritical_bound_random(grid256, rng):
    for alpha in (0.1, 0.2, 1 / 3):
        for _ in range(5):
            u = random_convex_support(grid256, rng)
            assert entropy(u, alpha).value <= math.log(2.0) + 1e-8


def test_value_dominates_probes(grid256, rng):
    u = random_convex_support(grid256, rng)
    res = entropy(u, 0.3)
    for z in [(0.0, 0.0), (0.1, 0.1), (-0.2, 0.05)]:
        assert res.value >= entropy_at(u, z, 0.3) - 1e-12
    # reported point is strictly interior
    moved = translate(u, res.point)
    assert np.min(moved.values) > 0.0


def test_matches_profile_entropy():
    p3 = assemble_profile(1 / 24, 3, 510)
    res = entropy(p3.h, 1 / 24)
    assert res.value == pytest.approx(shrinker_entropy(1 / 24, 3), abs=1e-6)
    assert np.hypot(*res.point) < 1e-6


@pytest.mark.parametrize("alpha", [0.02, 0.1, 1 / 3, 0.5, 1.0])
def test_newton_matches_nelder_mead(grid256, rng, alpha):
    # derivative-free reference on the value alone; alpha = 1 takes the
    # log branch of the Hessian, which the circle tests never reach
    u = translate(random_convex_support(grid256, rng), (0.21, -0.13))

    def negative(z):
        try:
            return -entropy_at(u, z, alpha)
        except PointOutside:
            return np.inf

    ref = minimize(negative, np.zeros(2), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000,
                            "maxfev": 20000})
    res = entropy(u, alpha)
    assert res.value >= -ref.fun - 1e-12
    assert np.hypot(res.point[0] - ref.x[0], res.point[1] - ref.x[1]) < 1e-6
    assert res.evaluations < 100


@pytest.mark.parametrize("lam", [1e-3, 1e3])
def test_scale_invariance_far_from_unit_size(grid256, rng, lam):
    # u^(1 - 1/alpha) alone over- or underflows here at alpha 0.01
    u = translate(random_convex_support(grid256, rng), (0.1, 0.05))
    base = entropy(u, 0.01)
    scaled = entropy(SupportFunction(grid256, lam * u.values), 0.01)
    assert scaled.value == pytest.approx(base.value, abs=1e-9)
    assert np.allclose(scaled.point, lam * np.array(base.point), rtol=0, atol=1e-8 * lam)
    assert entropy_at(SupportFunction(grid256, lam * u.values),
                      lam * np.array(base.point), 0.01) == pytest.approx(base.value, abs=1e-12)


def _distinct_bodies(grid, rng):
    # random, translated and near-circular: the last stops at its start
    return np.array([random_convex_support(grid, rng).values,
                     translate(random_convex_support(grid, rng), (0.21, -0.13)).values,
                     1.0 + 1e-3 * np.cos(3 * grid.nodes)])


@pytest.mark.parametrize("alpha", [0.02, 0.5, 1.0])
def test_entropy_rows_match_each_row_alone(grid256, rng, alpha):
    rows = _distinct_bodies(grid256, rng)
    batch = entropy_rows(rows, alpha)
    alone = [entropy(SupportFunction(grid256, row), alpha) for row in rows]
    assert len(batch) == len(rows)
    for got, ref in zip(batch, alone):
        assert got.value == pytest.approx(ref.value, rel=1e-15, abs=0.0)
        assert np.allclose(got.point, ref.point, rtol=1e-15, atol=0.0)
        assert got.evaluations == ref.evaluations
    assert sum(r.evaluations for r in batch) == sum(r.evaluations for r in alone)
    # the rows iterate for different numbers of Newton steps
    assert len({r.evaluations for r in batch}) > 1


def test_entropy_rows_raise_for_one_bad_row(grid256, rng, monkeypatch):
    rows = _distinct_bodies(grid256, rng)
    bent = rows.copy()
    bent[1] = 1.0 + 0.5 * np.cos(2 * grid256.nodes)  # not convex
    with pytest.raises(NonConvex, match="row 1: min radius of curvature"):
        entropy_rows(bent, 0.5)
    # a Newton step that does not ascend, in one row of the batch
    real = np.linalg.solve

    def reversed_in_row_one(a, b):
        x = real(a, b)
        x[1] = -x[1]
        return x

    monkeypatch.setattr(np.linalg, "solve", reversed_in_row_one)
    with pytest.raises(OptimFailed, match="does not ascend"):
        entropy_rows(rows, 0.5)


def test_probe_outside_the_body_counts_as_minus_infinity(grid256):
    rows = np.array([circle_support(grid256).values] * 3)
    z = np.array([(0.3, 0.0), (1.2, 0.0), (1.0 - 1e-12, 0.0)])
    _, f = entropy_module._probe(rows, z, 0.5)
    # the unit circle's area term is 0
    assert f[0] == pytest.approx(entropy_at(circle_support(grid256), z[0], 0.5), abs=1e-15)
    assert f[1] == f[2] == -np.inf
