import io

import numpy as np
import pytest

from acsflow._fmt import CSV_FMT, csv_table
from acsflow.errors import NonConvex
from acsflow.geometry import (AngularGrid, SupportFunction,
                              _fourier_coefficients, area, circle_support,
                              radius_of_curvature, random_convex_support,
                              require_convex, support_from_json, support_to_json,
                              translate)

import oracles
from analysis import deriv1, ellipse_support, embed, length, rotate_nodes, steiner_point


def test_grid_validation():
    with pytest.raises(ValueError):
        AngularGrid(15)
    with pytest.raises(ValueError):
        AngularGrid(14)
    assert AngularGrid(16).nodes[0] == 0.0
    g = AngularGrid(256)
    assert len(g.nodes) == 256
    assert np.isclose(g.nodes[-1], 2 * np.pi - g.dtheta)


def test_support_validation(grid256):
    with pytest.raises(ValueError):
        SupportFunction(grid256, np.ones(100))
    with pytest.raises(ValueError):
        SupportFunction(grid256, np.full(256, np.nan))


def test_radius_of_curvature_circle(grid256):
    u = circle_support(grid256)
    assert np.allclose(radius_of_curvature(u.values), 1.0, atol=1e-13)


def test_radius_of_curvature_translated_circle(grid256):
    u = circle_support(grid256, 1.0, (0.3, 0.0))
    assert np.allclose(radius_of_curvature(u.values), 1.0, atol=1e-13)


def test_radius_of_curvature_two_mode(grid256):
    eps = 0.05
    th = grid256.nodes
    u = SupportFunction(grid256, 1 + eps * np.cos(2 * th))
    assert np.allclose(radius_of_curvature(u.values), 1 - 3 * eps * np.cos(2 * th), atol=1e-13)


def test_curvature_circles(grid256):
    big = SupportFunction(grid256, np.full(256, 2.0))
    assert np.allclose(1.0 / require_convex(big.values), 0.5)
    assert np.allclose(1.0 / require_convex(circle_support(grid256).values), 1.0)


def test_curvature_ellipse_tip(grid256):
    u = ellipse_support(grid256, 2.0, 1.0)
    # at theta = 0 the normal hits the major-axis tip where kappa = a/b^2
    assert 1.0 / require_convex(u.values)[0] == pytest.approx(2.0, rel=1e-9)


def test_curvature_raises_nonconvex(grid256):
    th = grid256.nodes
    bad = SupportFunction(grid256, 1 + 0.5 * np.cos(2 * th))
    # one body's message has no row prefix; of rows, the first bent one is named
    with pytest.raises(NonConvex, match="^min radius of curvature"):
        require_convex(bad.values)
    with pytest.raises(NonConvex, match="^row 1: min radius of curvature"):
        require_convex(np.stack((circle_support(grid256).values, bad.values)))


def test_area_circle_and_translation(grid256):
    assert area(circle_support(grid256)) == pytest.approx(np.pi, rel=1e-14)
    shifted = circle_support(grid256, 1.0, (0.3, 0.0))
    assert area(shifted) == pytest.approx(np.pi, rel=1e-14)


def test_area_ellipse(grid256):
    assert area(ellipse_support(grid256, 2, 1)) == pytest.approx(
        oracles.ellipse_area(2, 1), rel=1e-12)


def test_length_circles(grid256):
    assert length(circle_support(grid256)) == pytest.approx(2 * np.pi, rel=1e-14)
    assert length(SupportFunction(grid256, np.full(256, 2.5))) == pytest.approx(
        5 * np.pi, rel=1e-14)


def test_length_ellipse(grid256):
    assert length(ellipse_support(grid256, 2, 1)) == pytest.approx(
        oracles.ellipse_length(2, 1), rel=1e-12)


def test_translate_definition(grid256):
    u = circle_support(grid256)
    same = translate(u, (0.0, 0.0))
    assert np.allclose(same.values, u.values)
    shifted = translate(u, (0.5, 0.0))
    assert np.allclose(shifted.values, 1 - 0.5 * np.cos(grid256.nodes), atol=1e-15)


def test_translate_preserves_area(grid256, rng):
    for _ in range(5):
        u = random_convex_support(grid256, rng)
        z = rng.normal(scale=0.3, size=2)
        assert area(translate(u, z)) == pytest.approx(area(u), rel=1e-10)
        assert np.allclose(radius_of_curvature(translate(u, z).values),
                           radius_of_curvature(u.values), atol=1e-12)


def test_embed_circle(grid256):
    pts = embed(circle_support(grid256))
    th = grid256.nodes
    assert np.allclose(pts, np.stack([np.cos(th), np.sin(th)], axis=1), atol=1e-13)
    shifted = embed(circle_support(grid256, 1.0, (0.5, 0.0)))
    assert np.allclose(shifted - [0.5, 0.0],
                       np.stack([np.cos(th), np.sin(th)], axis=1), atol=1e-12)


def test_embed_arclength_relation(rng):
    # |X_{i+1} - X_i| = w_i dtheta (1 + O(dtheta)); the deviation must shrink
    # at least quadratically with the grid because of symmetric differencing
    devs = []
    for n in (256, 512):
        grid = AngularGrid(n)
        u = random_convex_support(grid, np.random.default_rng(7))
        pts = embed(u)
        w = radius_of_curvature(u.values)
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        mid_w = 0.5 * (w + np.roll(w, -1))
        devs.append(np.max(np.abs(seg / (mid_w * grid.dtheta) - 1)))
    assert devs[0] < 30 * (2 * np.pi / 256) ** 2
    assert devs[0] / devs[1] > 3.0


def _iso_ratio(u):
    return area(u) / length(u) ** 2


def test_isoperimetric_circle(grid256):
    assert _iso_ratio(circle_support(grid256)) == pytest.approx(
        1 / (4 * np.pi), rel=1e-13)
    assert _iso_ratio(SupportFunction(grid256, np.full(256, 7.0))
                      ) == pytest.approx(1 / (4 * np.pi), rel=1e-13)


def test_isoperimetric_ellipse_below_circle(grid256):
    val = _iso_ratio(ellipse_support(grid256, 3, 1))
    expected = oracles.ellipse_area(3, 1) / oracles.ellipse_length(3, 1) ** 2
    assert val == pytest.approx(expected, rel=1e-10)
    assert val < 1 / (4 * np.pi)


def test_isoperimetric_inequality_random(grid256, rng):
    for _ in range(20):
        u = random_convex_support(grid256, rng)
        assert _iso_ratio(u) <= 1 / (4 * np.pi) + 1e-12


def test_fourier_modes_basic(grid256):
    a0, a, b = _fourier_coefficients(circle_support(grid256).values, 5)
    assert a0 == pytest.approx(1.0)
    assert np.allclose(a, 0, atol=1e-15) and np.allclose(b, 0, atol=1e-15)

    th = grid256.nodes
    a0, a, b = _fourier_coefficients(0.25 * np.sin(3 * th) + 1.0, 5)
    assert b[2] == pytest.approx(0.25, abs=1e-15)
    assert abs(a).max() < 1e-15
    assert abs(np.delete(b, 2)).max() < 1e-15


def test_fourier_round_trip(grid256, rng):
    u = random_convex_support(grid256, rng)
    a0, a, b = _fourier_coefficients(u.values, 8)
    m = np.arange(1, 9)[:, None]
    th = grid256.nodes
    back = a0 + a @ np.cos(m * th) + b @ np.sin(m * th)
    assert np.allclose(back, u.values, atol=1e-14)


def test_fourier_modes_validates_m_max(grid256):
    with pytest.raises(ValueError):
        _fourier_coefficients(circle_support(grid256).values, 128)


def test_scaling_covariance(grid256, rng):
    u = random_convex_support(grid256, rng)
    for lam in (0.5, 2.0, 10.0):
        scaled = SupportFunction(grid256, lam * u.values)
        assert area(scaled) == pytest.approx(lam**2 * area(u), rel=1e-12)
        assert length(scaled) == pytest.approx(lam * length(u), rel=1e-12)


def test_translation_invariance_suite(grid256, rng):
    u = random_convex_support(grid256, rng)
    z = (0.21, -0.13)
    v = translate(u, z)
    assert area(v) == pytest.approx(area(u), rel=1e-10)
    assert length(v) == pytest.approx(length(u), rel=1e-10)
    assert _iso_ratio(v) == pytest.approx(_iso_ratio(u), rel=1e-10)


def test_spectral_exactness_trig_polynomial(grid256):
    th = grid256.nodes
    vals = 2.0 + 0.1 * np.cos(7 * th) - 0.05 * np.sin(20 * th)
    u = SupportFunction(grid256, vals)
    exact = 2.0 + (1 - 49) * 0.1 * np.cos(7 * th) - (1 - 400) * 0.05 * np.sin(20 * th)
    w = radius_of_curvature(u.values)
    assert np.max(np.abs(w - exact)) / np.max(np.abs(exact)) < 1e-12


def test_rotation_helper(grid256, rng):
    u = random_convex_support(grid256, rng)
    r = rotate_nodes(u, 32)
    assert np.allclose(r.values, np.roll(u.values, -32))
    assert area(r) == pytest.approx(area(u), rel=1e-12)


def test_steiner_point_translated_circle(grid256):
    p = steiner_point(circle_support(grid256, 1.0, (0.3, -0.2)))
    assert np.allclose(p, [0.3, -0.2], atol=1e-12)


def test_steiner_point_equivariance(grid256, rng):
    # s(K) = (1/pi) integral u (cos, sin): linear in u, moves with the body,
    # and the mean of the boundary points over the uniform angle grid
    u = random_convex_support(grid256, rng)
    p = steiner_point(u)
    th = grid256.nodes
    assert np.allclose(p, [2 * np.mean(u.values * np.cos(th)),
                           2 * np.mean(u.values * np.sin(th))], atol=1e-14)
    for n in (64, 128, 256, 512, 1024):
        body = translate(random_convex_support(AngularGrid(n), rng),
                         rng.uniform(-0.3, 0.3, size=2))
        err = np.max(np.abs(steiner_point(body) - embed(body).mean(axis=0)))
        assert err <= 1e-15 * np.max(np.abs(body.values))
    assert np.allclose(steiner_point(translate(u, (0.3, -0.2))), p - [0.3, -0.2],
                       atol=1e-12)
    assert np.allclose(steiner_point(SupportFunction(grid256, 7.0 * u.values)), 7.0 * p,
                       atol=1e-12)


def test_convexity_report(grid256):
    assert np.min(require_convex(circle_support(grid256).values)) == pytest.approx(1.0)
    th = grid256.nodes
    flat = SupportFunction(grid256, 1 + 0.5 * np.cos(2 * th))
    assert np.min(radius_of_curvature(flat.values)) < 0.0
    with pytest.raises(NonConvex):
        require_convex(flat.values)


def test_json_round_trip(grid256, rng):
    u = random_convex_support(grid256, rng)
    back = support_from_json(support_to_json(u))
    assert back.grid.n == u.grid.n
    assert np.max(np.abs(back.values - u.values)) <= 1e-15 * np.max(np.abs(u.values))


def test_csv_round_trip(grid256, rng):
    # a CSV table of support values reads back as each value printed at
    # CSV_FMT, far from unit size too, with NaN as a blank cell
    rows = np.array([random_convex_support(grid256, rng).values for _ in range(3)])
    rows[0] *= 1e-300
    rows[2, 7] = np.nan
    text = csv_table(("u0", "u1", "u2"), rows)
    assert text.count("\n") == 1 + grid256.n
    assert text.splitlines()[8].endswith(",")
    printed = np.array([[np.nan if np.isnan(x) else float(format(x, CSV_FMT)) for x in row]
                        for row in rows])
    back = np.genfromtxt(io.StringIO(text), delimiter=",", skip_header=1, ndmin=2).T
    assert np.array_equal(back, printed, equal_nan=True)
    one = np.genfromtxt(io.StringIO(csv_table(("u0",), rows[:1])), delimiter=",",
                        skip_header=1, ndmin=2).T
    assert np.array_equal(one, printed[:1])


@pytest.mark.parametrize("n", [120, 256, 510, 1024])
def test_derivatives_act_on_rows(n, rng):
    rows = rng.normal(size=(3, n))
    for deriv in (deriv1, radius_of_curvature):
        stacked = deriv(rows)
        assert stacked.shape == (3, n)
        for i in range(3):
            assert np.array_equal(stacked[i], deriv(rows[i]))


@pytest.mark.parametrize("n", [120, 256, 1024])
def test_centred_circle_radius_of_curvature_is_exact(n):
    # w is formed from the spectrum of u - mean(u), so the rounding of the
    # rfft of a constant never reaches it
    w = radius_of_curvature(circle_support(AngularGrid(n), 0.7).values)
    assert np.ptp(w) == 0.0
    assert np.all(w == 0.7)


def test_radius_of_curvature_at_an_odd_length(rng):
    # an irfft without the length would return n - 1 values here
    n = 121
    th = 2.0 * np.pi * np.arange(n) / n
    a, b = rng.normal(size=(2, 9))
    v = 1.5 + sum(a[m] * np.cos(m * th) + b[m] * np.sin(m * th) for m in range(1, 9))
    exact = 1.5 + sum((1 - m * m) * (a[m] * np.cos(m * th) + b[m] * np.sin(m * th))
                      for m in range(1, 9))
    w = radius_of_curvature(np.stack([v, 2.0 * v]))
    assert w.shape == (2, n)
    assert np.max(np.abs(w[0] - exact)) <= 1e-12 * np.max(np.abs(exact))
    assert np.max(np.abs(w[1] - 2.0 * exact)) <= 2e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", [121, 255])
def test_deriv1_at_an_odd_length(n, rng):
    # at odd n the last rfft bin is an ordinary mode, not the Nyquist cosine
    th = 2.0 * np.pi * np.arange(n) / n
    m_top = n // 2
    assert np.max(np.abs(deriv1(np.sin(m_top * th)) - m_top * np.cos(m_top * th))) <= 1e-10 * m_top
    a, b = rng.normal(size=(2, m_top + 1))
    ms = range(1, m_top + 1)
    v = sum(a[m] * np.cos(m * th) + b[m] * np.sin(m * th) for m in ms)
    exact = sum(m * (b[m] * np.cos(m * th) - a[m] * np.sin(m * th)) for m in ms)
    assert np.max(np.abs(deriv1(v) - exact)) <= 1e-12 * n * np.max(np.abs(exact))
