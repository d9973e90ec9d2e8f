"""Self-similar contracting profiles built by shooting on the profile ODE.

One monotone arc of U'' + U = U^(-1/alpha) runs from a maximum U(0) = u_max
(U'(0) = 0) down to the adjacent minimum; its normal-angle span Theta and the
max/min ratio r are both strictly increasing in u_max, so arcs are addressed
either by r or by the k-fold closure condition Theta = pi/k. Reflecting and
repeating the arc 2k times yields the support function h of the closed k-fold
symmetric profile, which satisfies h_thth + h = h^(-1/alpha).

The arc ODE has the first integral U'^2 + V(U) = C, V(U) = U^2 + b U^p with
b = 2 alpha/(1 - alpha) and p = 1 - 1/alpha, so an arc is a quadrature
(solve_segment). With log U = c + d cos(phi), c and d the midpoint and
half-width of [log u_min, log u_max],
    dtheta/dphi = U/sqrt(g),   g = (C - V(U)) / (d sin(phi))^2,
is smooth, even and 2 pi-periodic in phi, so the midpoint rule converges
exponentially; in log U the singularity of U^p at U = 0 stays out of reach,
however small u_min is. The N nodes give the cosine coefficients a_m of dtheta/dphi;
N doubles until the last quarter of them is below ARC_TAIL_RTOL a_0. Then
Theta = pi a_0, theta(phi) = a_0 phi + sum_m a_m sin(m phi)/m, and the power
mean of U^p over the arc uses the same nodes.

C - V(U) is never formed as a difference of V values, which loses every digit
near the circle. With E(y) = e^y - 1 - y >= 0 and l = log(U/U0), which is
d (cos(phi) - 1) about u_max and d (cos(phi) + 1) about u_min, expanding
about an end U0 of the arc (where V(U0) = C),
    C - V(U) = -l U0 V'(U0) - U0^2 E(2 l) - b U0^p E(p l),
whose first term bounds the sum; each node takes the end whose bound is the
smaller. Likewise V(e^s) - V(1) = E(2 s) + b E(p s), and u_min solves
V(u_min) = V(u_max) by Newton in s = log U.

The shooting slopes cost no further arc: dr/du_max has the closed form
    dr/du_max = (u_min - u_max V'(u_max)/V'(u_min)) / u_min^2,
and dTheta/du_max is the complex step Im Theta(u_max + i h)/h through the
quadrature. One safeguarded Newton iteration in u_max (_shoot) solves both
Theta = pi/k and r(u_max) = r with them.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from ._fmt import csv_table
from .errors import (AcsflowError, NoBracket, OrderingViolated, OutOfRange,
                     StepUnderflow)
from .geometry import AngularGrid, SupportFunction, radius_of_curvature

# the arc quadrature: N starts at ARC_N_START and doubles up to ARC_N_MAX; the
# rounding noise of the coefficients a_m is about 1e-16 a_0 at every N
ARC_N_START = 32
ARC_N_MAX = 4096
ARC_TAIL_RTOL = 1e-14
# the imaginary part of the complex step in log u_max, relative to log u_max
ARC_STEP = 1e-20
# Newton iterations for u_min and for the phi of profile nodes
ARC_NEWTON_MAX = 100
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

# Taylor coefficients of E(y)/y^2 = (e^y - 1 - y)/y^2, summed for |y| < 1
_E_TAYLOR = np.array([1.0 / math.factorial(j + 2) for j in range(18)])


@dataclass(frozen=True)
class ShrinkerSegment:
    alpha: float
    r: float
    theta_span: float
    u_max: float
    u_min: float
    first_integral: float
    power_mean: float  # mean of U^(1 - 1/alpha) over the arc
    dspan_du: float  # dTheta/du_max
    dr_du: float  # dr/du_max
    # cosine coefficients a_m of dtheta/dphi, where log U = c + d cos(phi)
    rate_coefficients: np.ndarray = field(repr=False, compare=False)
    arc_solves: int = 1  # arc quadratures solved to find this one

    def _theta(self, phi):
        """theta(phi) and dtheta/dphi from the cosine series."""
        a = self.rate_coefficients
        m = np.arange(1, len(a))
        mphi = np.multiply.outer(phi, m)
        return a[0] * phi + np.sin(mphi) @ (a[1:] / m), a[0] + np.cos(mphi) @ a[1:]

    def _u(self, phi):
        s_max, s_min = math.log(self.u_max), math.log(self.u_min)
        return np.exp(0.5 * (s_max + s_min) + 0.5 * (s_max - s_min) * np.cos(phi))

    def u_at(self, theta):
        """U at angles theta in [0, Theta], by Newton on theta(phi) = theta."""
        phi = theta * (math.pi / self.theta_span)
        last = math.inf
        for _ in range(ARC_NEWTON_MAX):
            value, rate = self._theta(phi)
            step = (value - theta) / rate
            phi = phi - step
            big = float(np.max(np.abs(step)))
            # quadratic convergence until the rounding noise of theta(phi)
            if not big < 0.5 * last:
                break
            last = big
        if not big <= 1e-12:
            raise StepUnderflow(f"arc nodes: Newton on theta(phi) stalled at {big:.2e}")
        return self._u(phi)

    @cached_property
    def samples(self):
        """(theta, U, U_theta) at the quadrature nodes and both ends, with
        U_theta = -U d sin(phi) / (dtheta/dphi)."""
        phi = _midpoints(len(self.rate_coefficients))[0]
        theta, rate = self._theta(phi)
        u = self._u(phi)
        u_theta = -0.5 * math.log(self.u_max / self.u_min) * u * np.sin(phi) / rate
        return (np.concatenate(([0.0], theta, [self.theta_span])),
                np.concatenate(([self.u_max], u, [self.u_min])),
                np.concatenate(([0.0], u_theta, [0.0])))

    @cached_property
    def fint_drift(self) -> float:
        """Largest relative departure of the samples from U'^2 + V(U) = C."""
        _, u, u_theta = self.samples
        fint = first_integral_value(self.alpha, u, u_theta)
        return float(np.max(np.abs(fint - self.first_integral)) / abs(self.first_integral))


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


def _e(y, scale=0.0):
    """e^scale E(y), E(y) = e^y - 1 - y >= 0, of a 1-d array, real or complex,
    without cancellation, and without overflow where e^(scale + y) is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        series = y * y * (np.vander(y, len(_E_TAYLOR), increasing=True) @ _E_TAYLOR)
        return np.where(np.abs(y) < 1.0, np.exp(scale) * series,
                        np.exp(scale + y) - np.exp(scale) * (1.0 + y))


def _dv(p, s):
    """V'(U) = 2 (U - U^(p-1)) at U = e^s, without cancellation near U = 1."""
    return -2.0 * np.exp(s) * np.expm1((p - 2.0) * s)


def _log_u_min(p, b, x_max):
    """s = log u_min, the root below 0 of W(s) = E(2 s) + b E(p s) = W(log u_max).

    W is convex and decreasing for s < 0, so Newton from a start below the
    root climbs to it monotonically. Two starts lie below it: log(1 - x_max),
    the mirror image of u_max (V is steeper below U = 1 than above), and the
    root of b U^p = C; the larger one is close to the root both near the
    circle and for large arcs.
    """
    def w(s):
        e = _e(np.array([2.0 * s, p * s]))
        return float(e[0] + b * e[1])

    w_max = w(math.log1p(x_max))
    s = math.log1p((w_max + 1.0) / b) / p
    if x_max < 1.0:
        s = max(s, math.log1p(-x_max))
    last = math.inf
    for _ in range(ARC_NEWTON_MAX):
        step = (w(s) - w_max) / (2.0 * (math.expm1(p * s) - math.expm1(2.0 * s)))
        # the steps rise and shrink until rounding noise takes over
        if not 0.0 < step < last:
            return s
        s += step
        if step <= 4.0 * math.ulp(s):
            return s
        last = step
    raise StepUnderflow(f"arc: no u_min within {ARC_NEWTON_MAX} Newton steps")


@lru_cache(maxsize=None)
def _midpoints(n):
    """phi_j = (j + 1/2) pi/n, sin(phi_j), cos(phi_j) - 1 and cos(phi_j) + 1
    without cancellation, and the phase factors of a DCT-II by rfft."""
    phi = (np.arange(n) + 0.5) * (np.pi / n)
    return (phi, np.sin(phi), -2.0 * np.sin(0.5 * phi) ** 2, 2.0 * np.cos(0.5 * phi) ** 2,
            np.exp(-0.5j * np.pi * np.arange(n) / n))


def _arc_rate(p, b, s_max, s_min, n):
    """dtheta/dphi and U^p at the n midpoint nodes; s_max and s_min are the
    complex steps of log u_max and log u_min."""
    _, sin, to_max, to_min, _ = _midpoints(n)
    d = 0.5 * (s_max - s_min)
    s_end = np.array([s_max, s_min])
    lead_end = np.exp(s_end) * _dv(p, s_end)  # U0 V'(U0)
    # expand about the end whose first term |l U0 V'(U0)| is the smaller
    end = np.where(np.abs(to_max * lead_end[0]) <= np.abs(to_min * lead_end[1]), 0, 1)
    s0 = s_end[end]
    l = d * np.where(end == 0, to_max, to_min)
    e = _e(np.concatenate((2.0 * l, p * l)), np.concatenate((2.0 * s0, p * s0)))
    c_minus_v = -l * lead_end[end] - e[:n] - b * e[n:]
    return np.exp(s0 + l) * d * sin / np.sqrt(c_minus_v), np.exp(p * (s0 + l))


def solve_segment(alpha, u_max) -> ShrinkerSegment:
    """One monotone arc from (u_max, 0) to its first minimum, by quadrature."""
    check_alpha(alpha)
    if not u_max > 1.0:
        raise OutOfRange(f"u_max must exceed 1 (got {u_max}); U = 1 is the equilibrium")
    p, b = 1.0 - 1.0 / alpha, 2.0 * alpha / (1.0 - alpha)
    s_max = math.log1p(u_max - 1.0)
    s_min = _log_u_min(p, b, u_max - 1.0)
    u_min = math.exp(s_min)
    du_min = float(_dv(p, s_max) / _dv(p, s_min))  # du_min/du_max
    step = ARC_STEP * s_max
    s_hi, s_lo = complex(s_max, step), complex(s_min, step * du_min * u_max / u_min)
    n = ARC_N_START
    while True:
        rate, upow = _arc_rate(p, b, s_hi, s_lo, n)
        spec = np.fft.rfft(np.concatenate((rate.real, rate.real[::-1])))[:n]
        a = (spec * _midpoints(n)[4]).real / n
        a[0] *= 0.5
        if np.max(np.abs(a[-(n // 4):])) <= ARC_TAIL_RTOL * a[0]:
            break
        if n >= ARC_N_MAX:
            raise StepUnderflow(f"arc quadrature at u_max = {u_max!r}: no convergence "
                                f"with {n} nodes")
        n *= 2
    return ShrinkerSegment(
        alpha=float(alpha),
        r=u_max / u_min,
        theta_span=float(math.pi * a[0]),
        u_max=float(u_max),
        u_min=u_min,
        first_integral=float(first_integral_value(alpha, u_max, 0.0)),
        power_mean=float(upow.real @ rate.real / np.sum(rate.real)),
        dspan_du=float(math.pi * np.mean(rate.imag) / (step * u_max)),
        dr_du=(u_min - u_max * du_min) / u_min**2,
        rate_coefficients=a,
    )


def _shoot(alpha, u_max, target, end_value, what) -> ShrinkerSegment:
    """The arc whose end_value equals target, by safeguarded Newton in u_max.

    end_value(seg) gives (value, d value/du_max) of an increasing function of
    u_max that lies below target as u_max -> 1. Every iterate stays inside the
    bracket [lo, hi] learned so far: a Newton step that leaves it is replaced
    by bisection, or, while no hi is known, by growing u_max - 1 fourfold. The
    iteration stops when value is within an ulp of target, when the Newton
    step, the step taken or the bracket is within SHOOT_ULPS ulps of u_max,
    or when a Newton iterate fails to reduce |value - target| while the best
    arc already meets SHOOT_RTOL (value's rounding noise is reached). It
    returns the best arc solved.
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
        # the noise floor: no arc comes closer than an ulp of target, and a
        # Newton step this short does not move u_max off its bracket end
        if err <= math.ulp(target) or abs(step) <= SHOOT_ULPS * math.ulp(u_max):
            break
        top = hi if hi < math.inf else 1.0 + 4.0 * (u_max - 1.0)
        newton = lo < u_max + step < top
        if not newton:
            step = (0.5 * (lo + hi) if hi < math.inf else top) - u_max
        tol = SHOOT_ULPS * math.ulp(u_max)
        if abs(step) <= tol or hi - lo <= tol:
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
    if k > max_fold_symmetry(alpha):
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

    For integer k the grid size grid_n (default 512) is rounded down to a
    multiple of 2k, but to at least 16k. The reflection seams then fall on
    grid nodes, so the profile is exactly even about node 0 and
    spectral.decompose splits each Bloch class by mirror parity. The arc
    Theta = pi/k is found by shooting; the grid nodes of its span come from
    its cosine series (ShrinkerSegment.u_at), and the profile carries that
    arc's segment.
    """
    if k == "circle":
        check_alpha(alpha)
        n = grid_n or 256
        h = SupportFunction(AngularGrid(n), np.ones(n))
        return ShrinkerProfile(alpha=float(alpha), k="circle", r_k=1.0, h=h,
                               entropy=0.0, residual=0.0, segment=None)

    _check_fold(alpha, k)
    n = 2 * k * max(8, (grid_n or 512) // (2 * k))
    seg = _segment_for_k(alpha, k)
    m = n // (2 * k)
    arc = seg.u_at(np.arange(m + 1) * (2.0 * np.pi / n))

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
    return csv_table(("theta", "U", "U_theta"), segment.samples)


def profile_to_json_dict(profile: ShrinkerProfile) -> dict:
    theta = period_limit(profile.alpha) if profile.k == "circle" else math.pi / profile.k
    return {
        "alpha": profile.alpha,
        "k": profile.k,
        "r": profile.r_k,
        "theta": float(theta),
        "entropy": profile.entropy,
        "h": [float(v) for v in profile.h.values],
    }
