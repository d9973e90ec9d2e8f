"""Self-similar contracting profiles built by shooting on the profile ODE.

One monotone arc of U'' + U = U^(-1/alpha) runs from a maximum U(0) = u_max
(U'(0) = 0) down to the adjacent minimum; its normal-angle span Theta and the
max/min ratio r are both strictly increasing in u_max, so arcs are addressed
either by r or by the k-fold closure condition Theta = pi/k. Reflecting and
repeating the arc 2k times yields the support function h of the closed k-fold
symmetric profile, which satisfies h_thth + h = h^(-1/alpha).

The arc ODE has the first integral
    U'^2 + U^2 + (2 alpha / (1 - alpha)) U^(1 - 1/alpha) = C,
which every returned segment is checked against.

Every arc is integrated by scipy's solve_ivp with DOP853 (integrate_arc).
The state carries, beside (U, U'), the variation eta = dU/du_max (started at
eta(0) = 1, eta'(0) = 0) and the running quadrature q of U^(1 - 1/alpha). A
segment stops at the first interior minimum of U, located by a terminal event
on U' rising through zero; a resampled arc is integrated interval by interval,
landing exactly on each requested angle.

Since U'(Theta) = 0 and U(Theta) = U_min, the end state gives both shooting
slopes at no extra cost (shooting with the variational equation):
    dTheta/du_max = -eta'(Theta) / (U_min^(-1/alpha) - U_min),
    dr/du_max     = (U_min - u_max eta(Theta)) / U_min^2.
One safeguarded Newton iteration in u_max (_shoot) solves both Theta = pi/k
and r(u_max) = r with them.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._fmt import csv_table
from .errors import (AcsflowError, EventNotFound, NoBracket, OrderingViolated,
                     OutOfRange, StepUnderflow)
from .geometry import AngularGrid, SupportFunction, radius_of_curvature

SEGMENT_RTOL = 1e-12
SEGMENT_ATOL = 1e-15
# per component of (U, U', eta, eta', q): eta and eta' are left out of the
# step-size control, so the steps, and with them Theta(u_max) and r(u_max),
# are those of U alone
ARC_ATOL = np.array([SEGMENT_ATOL, SEGMENT_ATOL, np.inf, np.inf, SEGMENT_ATOL])
THETA_SEARCH_MAX = 10.0 * math.pi
# strict admissibility k < sqrt(1 + 1/alpha) with a guard for float noise
ADMISSIBILITY_GUARD = 1e-9
PROFILE_RESIDUAL_TOL = 1e-7
# the shooter: arc solves per root find, the largest u_max it grows to, the
# step or bracket width, in ulps of u_max, at which it stops, and the largest
# |value - target| / target it accepts
SHOOT_MAX_ARCS = 40
SHOOT_U_MAX_CAP = 1e8
SHOOT_ULPS = 4
SHOOT_RTOL = 1e-10


@dataclass(frozen=True)
class ArcSamples:
    theta: np.ndarray
    u: np.ndarray
    u_theta: np.ndarray


@dataclass(frozen=True)
class ShrinkerSegment:
    alpha: float
    r: float
    theta_span: float
    u_max: float
    u_min: float
    samples: ArcSamples = field(repr=False)
    first_integral: float
    fint_drift: float
    power_mean: float  # mean of U^(1 - 1/alpha) over the arc
    dspan_du: float  # dTheta/du_max
    dr_du: float  # dr/du_max
    arc_solves: int = 1  # arcs integrated to find this one


@dataclass(frozen=True)
class ShrinkerProfile:
    alpha: float
    k: object  # integer >= 3 or the tag "circle"
    r_k: float
    h: SupportFunction = field(repr=False)
    entropy: float
    residual: float
    segment: ShrinkerSegment | None = field(repr=False)  # the arc; None for the circle


def check_fold(k):
    if not (isinstance(k, (int, np.integer)) and k >= 3):
        raise OutOfRange(f"fold count must be an integer >= 3, got {k!r}")


def check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    if abs(alpha - 1.0 / 3.0) < 1e-12:
        raise OutOfRange("alpha = 1/3 is excluded (continuum of elliptical profiles)")


def first_integral_value(alpha, u, u_theta):
    return u_theta**2 + u**2 + (2.0 * alpha / (1.0 - alpha)) * u ** (1.0 - 1.0 / alpha)


def _arc_rhs(alpha):
    inv_alpha = 1.0 / alpha

    def rhs(theta, y):
        u, u_theta, eta, eta_theta, _ = y
        upow = u ** -inv_alpha
        return [u_theta, upow - u, eta_theta,
                -(1.0 + inv_alpha * upow / u) * eta, u * upow]

    return rhs


def _first_minimum(theta, y):
    return y[1]


_first_minimum.terminal = True
_first_minimum.direction = 1.0  # U' rising through zero: a minimum of U


def _solve(rhs, span, y0, events=None):
    # imported on first use: scipy.integrate adds about 40 ms to the start-up
    # of every command, and flow and modes never integrate an arc
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, span, y0, method="DOP853", rtol=SEGMENT_RTOL,
                    atol=ARC_ATOL, events=events)
    if sol.status < 0:
        raise StepUnderflow(f"profile ODE: {sol.message}")
    return sol


def integrate_arc(alpha, u_max, theta_out=None):
    """The arc state y = (U, U', eta, eta', q) started from (u_max, 0, 1, 0, 0).

    eta solves the variational equation eta'' + eta + (1/alpha) U^(-1-1/alpha)
    eta = 0 from eta(0) = 1, so it is dU/du_max; q' = U^(1 - 1/alpha). eta
    rides on the steps U chooses (ARC_ATOL), so U does not depend on it.
    Without theta_out the arc stops at the first interior minimum of U and the
    rows are the DOP853 step nodes, the minimum last. With theta_out
    (increasing, >= 0) each interval is its own solve, started from the state
    the previous one ended at, so every row is an integrated value, never an
    interpolated one.

    Returns (theta, y) with y of shape (5, len(theta)).
    """
    rhs = _arc_rhs(alpha)
    y = np.array([u_max, 0.0, 1.0, 0.0, 0.0])
    if theta_out is None:
        sol = _solve(rhs, (0.0, THETA_SEARCH_MAX), y, events=_first_minimum)
        if sol.status == 0:
            raise EventNotFound("no interior minimum of U before theta = 10*pi")
        return sol.t, sol.y
    theta_out = np.asarray(theta_out, dtype=float)
    out = np.empty((5, len(theta_out)))
    theta = 0.0
    for i, theta_next in enumerate(theta_out):
        if theta_next > theta:
            y = _solve(rhs, (theta, theta_next), y).y[:, -1]
            theta = theta_next
        out[:, i] = y
    return theta_out, out


def solve_segment(alpha, u_max) -> ShrinkerSegment:
    """Integrate one monotone arc from (u_max, 0) to its first minimum."""
    check_alpha(alpha)
    if not u_max > 1.0:
        raise OutOfRange(f"u_max must exceed 1 (got {u_max}); U = 1 is the equilibrium")
    theta, (u, ut, eta, eta_theta, quad) = integrate_arc(alpha, u_max)
    span = float(theta[-1])
    u_min = float(u[-1])
    fint = first_integral_value(alpha, u, ut)
    c0 = float(first_integral_value(alpha, u_max, 0.0))
    drift = float(np.max(np.abs(fint - c0)) / abs(c0))
    return ShrinkerSegment(
        alpha=float(alpha),
        r=u_max / u_min,
        theta_span=span,
        u_max=float(u_max),
        u_min=u_min,
        samples=ArcSamples(theta, u, ut),
        first_integral=c0,
        fint_drift=drift,
        power_mean=float(quad[-1] / span),
        dspan_du=float(-eta_theta[-1] / (u_min ** (-1.0 / alpha) - u_min)),
        dr_du=float((u_min - u_max * eta[-1]) / u_min**2),
    )


def _shoot(alpha, u_max, target, end_value, what) -> ShrinkerSegment:
    """The arc whose end_value equals target, by safeguarded Newton in u_max.

    end_value(seg) gives (value, d value/du_max) of an increasing function of
    u_max that lies below target as u_max -> 1. Every iterate stays inside the
    bracket [lo, hi] learned so far: a Newton step that leaves it is replaced
    by bisection, or, while no hi is known, by growing u_max - 1 fourfold. The
    iteration stops when the step or the bracket is within SHOOT_ULPS ulps of
    u_max, or when a Newton iterate fails to reduce |value - target| while
    the best arc already meets SHOOT_RTOL (value's rounding noise is
    reached). It returns the best arc solved.
    """
    lo, hi = 1.0, math.inf
    best, best_err, newton = None, math.inf, False
    for count in range(1, SHOOT_MAX_ARCS + 1):
        seg = solve_segment(alpha, u_max)
        value, slope = end_value(seg)
        err = abs(value - target)
        if newton and err >= best_err and best_err <= SHOOT_RTOL * target:
            break
        if err < best_err:
            best, best_err = seg, err
        if value < target:
            lo = u_max
        elif value > target:
            hi = u_max
        step = (target - value) / slope if slope > 0.0 else math.nan
        top = hi if hi < math.inf else 1.0 + 4.0 * (u_max - 1.0)
        newton = lo < u_max + step < top
        if not newton:
            step = (0.5 * (lo + hi) if hi < math.inf else top) - u_max
        tol = SHOOT_ULPS * math.ulp(u_max)
        if value == target or abs(step) <= tol or hi - lo <= tol:
            break
        u_max += step
        if u_max > SHOOT_U_MAX_CAP:
            raise NoBracket(f"{what}: not attained below u_max = {SHOOT_U_MAX_CAP:g} "
                            f"(reached {value})")
    else:
        raise StepUnderflow(f"{what}: no root within {SHOOT_MAX_ARCS} arc solves")
    if best_err > SHOOT_RTOL * target:
        raise StepUnderflow(f"{what}: root find stalled at {value}")
    return replace(best, arc_solves=count)


def segment_for_ratio(alpha, r) -> ShrinkerSegment:
    """Arc whose max/min support ratio equals r (shooting over u_max)."""
    check_alpha(alpha)
    if not r > 1.0:
        raise OutOfRange(f"ratio must exceed 1, got {r}")
    # linearization about U = 1 gives ratio ~ 1 + 2*(u_max - 1)
    return _shoot(alpha, 1.0 + 0.5 * (r - 1.0), r,
                  lambda seg: (seg.r, seg.dr_du), f"ratio {r}")


def period_limit(alpha):
    """Normal-angle span of the arc in the small-amplitude limit r -> 1+."""
    return math.pi * math.sqrt(alpha / (1.0 + alpha))


def max_fold_symmetry(alpha) -> int:
    """Largest admissible k (k >= 3, k < sqrt(1 + 1/alpha)), or 2 if none."""
    return max(2, math.ceil(math.sqrt(1.0 + 1.0 / alpha) - ADMISSIBILITY_GUARD) - 1)


def _check_fold(alpha, k):
    check_alpha(alpha)
    if not alpha < 1.0 / 3.0:
        raise OutOfRange(f"k-fold profiles require alpha < 1/3, got {alpha}")
    check_fold(k)
    if not k < math.sqrt(1.0 + 1.0 / alpha) - ADMISSIBILITY_GUARD:
        raise OutOfRange(
            f"k = {k} is not admissible at alpha = {alpha}: "
            f"requires k < sqrt(1 + 1/alpha) = {math.sqrt(1.0 + 1.0 / alpha):.6f}")


def _segment_for_k(alpha, k) -> ShrinkerSegment:
    """Arc with Theta = pi/k, shot over u_max from u_max = 1.1."""
    _check_fold(alpha, k)
    return _shoot(alpha, 1.1, math.pi / k,
                  lambda seg: (seg.theta_span, seg.dspan_du), f"theta = pi/{k}")


def _segment_entropy(alpha, seg):
    """Entropy of the profile closed by seg, (alpha+1)/(2(alpha-1)) * log f(r_k)."""
    return (alpha + 1.0) / (2.0 * (alpha - 1.0)) * math.log(seg.power_mean)


def shrinker_entropy(alpha, k) -> float:
    """Entropy of the k-fold profile, (alpha+1)/(2(alpha-1)) * log f(r_k)."""
    if k == "circle":
        check_alpha(alpha)
        return 0.0
    return _segment_entropy(alpha, _segment_for_k(alpha, k))


def entropy_ordering(alpha):
    """Entropies of all profiles at alpha in (0, 1/8), most entropic first.

    Returns [("circle", 0.0), (k0, E_k0), ..., (3, E_3)] and checks the
    strict ordering 0 > E_k0 > ... > E_3.
    """
    check_alpha(alpha)
    if not alpha < 0.125:
        raise OutOfRange(f"entropy ordering is asserted only for alpha < 1/8, got {alpha}")
    k0 = max_fold_symmetry(alpha)
    rows = [("circle", 0.0)]
    for k in range(k0, 2, -1):
        rows.append((k, shrinker_entropy(alpha, k)))
    values = [e for _, e in rows]
    for a, b in zip(values, values[1:]):
        if not a > b:
            raise OrderingViolated(f"entropy ordering violated: {rows}")
    return rows


def assemble_profile(alpha, k, grid_n=None) -> ShrinkerProfile:
    """Closed profile support function on a uniform grid.

    For integer k the grid size must be a multiple of 2k so the reflection
    seams fall on grid nodes. The arc Theta = pi/k is found by shooting, then
    re-integrated with one DOP853 solve per grid interval, each landing exactly
    on the next node angle (no interpolation); the profile carries that arc's
    segment.
    """
    if k == "circle":
        check_alpha(alpha)
        n = grid_n or 256
        h = SupportFunction(AngularGrid(n), np.ones(n))
        return ShrinkerProfile(alpha=float(alpha), k="circle", r_k=1.0, h=h,
                               entropy=0.0, residual=0.0, segment=None)

    _check_fold(alpha, k)
    n = grid_n or 512
    if n % (2 * k) != 0:
        raise ValueError(f"grid_n must be a multiple of 2k = {2 * k}, got {n}")
    seg = _segment_for_k(alpha, k)
    m = n // (2 * k)
    theta_out = np.arange(m + 1) * (2.0 * np.pi / n)
    _, (arc, _, _, _, _) = integrate_arc(alpha, seg.u_max, theta_out)

    per = n // k
    j = np.arange(n) % per
    vals = arc[np.minimum(j, per - j)]
    h = SupportFunction(AngularGrid(n), vals)

    w = radius_of_curvature(vals)
    target = vals ** (-1.0 / alpha)
    residual = float(np.max(np.abs(w - target)) / np.max(target))
    if residual > PROFILE_RESIDUAL_TOL:
        raise AcsflowError(
            f"assembled profile residual {residual:.2e} exceeds {PROFILE_RESIDUAL_TOL}")

    return ShrinkerProfile(alpha=float(alpha), k=int(k), r_k=seg.r, h=h,
                           entropy=_segment_entropy(alpha, seg), residual=residual,
                           segment=seg)


# -- export helpers -----------------------------------------------------------

def segment_to_csv(segment: ShrinkerSegment) -> str:
    s = segment.samples
    return csv_table(("theta", "U", "U_theta"), (s.theta, s.u, s.u_theta))


def profile_to_json_dict(profile: ShrinkerProfile) -> dict:
    theta = period_limit(profile.alpha) if profile.k == "circle" else math.pi / profile.k
    return {
        "alpha": profile.alpha,
        "k": profile.k if profile.k == "circle" else int(profile.k),
        "r": profile.r_k,
        "theta": float(theta),
        "entropy": profile.entropy,
        "h": [float(v) for v in profile.h.values],
    }
