"""Independent oracles used by the tests.

Everything here avoids the code paths under test. The profile arc quantities
come two ways: from the conserved energy of the arc ODE plus Gauss quadrature
(the package's substitution, but a direct C - E(U) that loses its digits near
the circle), and by integrating the arc ODE itself with DOP853. The ellipse
values come from closed forms and scipy's elliptic integrals; the
shrinking-circle law is integrated by hand.
"""

import numpy as np
from scipy.optimize import brentq
from scipy.special import ellipe


def arc_energy(alpha, u):
    """First integral E(U) = U^2 + (2a/(1-a)) U^(1-1/a) of the arc ODE."""
    return u * u + (2.0 * alpha / (1.0 - alpha)) * u ** (1.0 - 1.0 / alpha)


def arc_u_min(alpha, u_max):
    """Adjacent minimum support value from energy conservation alone."""
    c = arc_energy(alpha, u_max)
    lo = 0.5
    while arc_energy(alpha, lo) < c:
        lo *= 0.5
    return brentq(lambda u: arc_energy(alpha, u) - c, lo, 1.0 - 1e-15,
                  xtol=1e-15, rtol=8.9e-16)


def _arc_quadrature(alpha, u_max, weight, nquad=400):
    """Gauss-Legendre integral of weight(U) d(theta) over one arc.

    Uses d(theta) = dU / sqrt(C - E(U)) and the substitution
    U = mid - amp cos(phi), which removes both square-root endpoints.
    Raises ValueError where C - E(U) cancels, near the circle, to a quotient
    g that is not finite and positive at some node, rather than return nan.
    """
    u_min = arc_u_min(alpha, u_max)
    c = arc_energy(alpha, u_max)
    mid, amp = 0.5 * (u_max + u_min), 0.5 * (u_max - u_min)
    x, w = np.polynomial.legendre.leggauss(nquad)
    phi = 0.5 * np.pi * (x + 1.0)
    u = mid - amp * np.cos(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (c - arc_energy(alpha, u)) / ((u_max - u) * (u - u_min))
    if not np.all(np.isfinite(g) & (g > 0.0)):
        raise ValueError(f"C - E(U) cancels on the arc at alpha {alpha}, "
                         f"u_max {u_max!r}: the quadrature has no digits left")
    vals = weight(u) / np.sqrt(g)
    return float(np.sum(0.5 * np.pi * w * vals))


def arc_span(alpha, u_max, nquad=400):
    """Normal-angle span of the arc by quadrature (no ODE integration)."""
    return _arc_quadrature(alpha, u_max, lambda u: np.ones_like(u), nquad)


def arc_power_mean(alpha, u_max, nquad=400):
    """Arc mean of U^(1 - 1/alpha) by quadrature."""
    span = arc_span(alpha, u_max, nquad)
    integral = _arc_quadrature(alpha, u_max,
                               lambda u: u ** (1.0 - 1.0 / alpha), nquad)
    return integral / span


def arc_dop853(alpha, u_max):
    """(span, u_min, power mean) of the arc by DOP853 on the arc ODE.

    The state is U = 1 + x v with x = u_max - 1, so that v, v' and the event
    v' = 0 at the minimum are of unit size however close the arc is to the
    circle, plus the running integral of U^(1 - 1/alpha). The right-hand side
    (U^(-1/alpha) - U)/x is formed with expm1 and log1p.
    """
    # imported here: the benchmark's workload checks import this module too
    from scipy.integrate import solve_ivp

    x = u_max - 1.0

    def rhs(theta, y):
        v, dv, _ = y
        xv = x * v
        l = np.log1p(xv)
        return [dv, (np.expm1(-l / alpha) - xv) / x, np.exp((1.0 - 1.0 / alpha) * l)]

    def minimum(theta, y):
        return y[1]

    minimum.terminal, minimum.direction = True, 1.0
    sol = solve_ivp(rhs, (0.0, 10.0 * np.pi), [1.0, 0.0, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-15, events=minimum)
    assert sol.status == 1, "no minimum of U within theta = 10 pi"
    span = float(sol.t_events[0][0])
    v, _, q = sol.y_events[0][0]
    return span, 1.0 + x * v, q / span


def ellipse_area(a, b):
    return np.pi * a * b


def ellipse_length(a, b):
    # perimeter via the complete elliptic integral of the second kind
    a, b = max(a, b), min(a, b)
    return 4.0 * a * ellipe(1.0 - (b / a) ** 2)


def circle_radius_at(alpha, t, r0=1.0):
    """Radius of a shrinking circle: R' = -R^(-alpha)."""
    val = r0 ** (1.0 + alpha) - (1.0 + alpha) * t
    if val <= 0.0:
        raise ValueError("circle extinct before t")
    return val ** (1.0 / (1.0 + alpha))


def circle_extinction_time(alpha, r0=1.0):
    return r0 ** (1.0 + alpha) / (1.0 + alpha)


def poisson_mean(e):
    """Closed form of the mean of 1/(1 - e cos(theta)) over the circle."""
    return 1.0 / np.sqrt(1.0 - e * e)
