"""Scale-invariant entropy of a convex body and its interior maximization.

For alpha in (0, 1) the entropy with base point z is
    alpha/(alpha-1) * log( mean_theta u_z^(1-1/alpha) ) - (1/2) log(area/pi),
with the log-mean form at alpha = 1; u_z is the support function with respect
to z. The entropy of the body is the supremum over interior base points,
attained at a unique entropy point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OptimFailed, OutOfRange, PointOutside
from .geometry import SupportFunction, _basis, area, steiner_point

# probes whose translated support dips below this are rejected, the integrand
# u^(1-1/alpha) blows up at the boundary
BOUNDARY_GUARD = 1e-10

GRAD_TOL = 1e-9
NEWTON_CAP = 50
HALVINGS = 60
ARMIJO = 1e-4  # least share of the predicted gain that a damped step must realize
# a predicted gain grad . (-Hess)^-1 grad below this is under the rounding of
# the value (2e-19 at |grad| 3e-9, alpha 0.02), so such a step is taken whole
PURE_NEWTON = 1e-10


@dataclass(frozen=True)
class EntropyResult:
    value: float
    point: tuple
    evaluations: int


def _check_alpha(alpha):
    if not 0.0 < alpha <= 1.0:
        raise OutOfRange(f"entropy requires alpha in (0, 1], got {alpha}")


def _value(uz, alpha):
    """alpha/(alpha-1) log mean(uz^(1-1/alpha)), or mean(log uz) at alpha = 1.

    Taken relative to min(uz): the powers of uz itself over- or underflow at
    small alpha for bodies far from unit size.
    """
    if alpha == 1.0:
        return float(np.mean(np.log(uz)))
    s = float(np.min(uz))
    return math.log(s) + alpha / (alpha - 1.0) * math.log(
        float(np.mean((uz / s) ** (1.0 - 1.0 / alpha))))


def entropy_at(u: SupportFunction, z0, alpha) -> float:
    """Entropy of the body with the base point fixed at z0."""
    _check_alpha(alpha)
    area_term = 0.5 * math.log(area(u) / math.pi)
    c, s = _basis(u.n)
    uz = u.values - (z0[0] * c + z0[1] * s)
    if np.min(uz) < BOUNDARY_GUARD:
        raise PointOutside(f"base point {tuple(z0)} is not strictly interior")
    return _value(uz, alpha) - area_term


def entropy(u: SupportFunction, alpha) -> EntropyResult:
    """Maximize the entropy over interior base points.

    With p = 1 - 1/alpha <= 0 the entropy is, up to the area term, the log of
    the power mean of exponent p of u_z, which is linear in z; a power mean
    with p <= 1 is concave and so is its log, so the entropy is concave in z.
    With a = u_z^(p-1), M = mean(a u_z), e = (cos th, sin th), g = mean(a e):
        grad = -g / M,
        Hess = (p-1) mean(a/u_z e e^T) / M - p g g^T / M^2,
    which hold at alpha = 1 with p = 0 and M = 1. Damped Newton starts from
    the Steiner point; each step halves until it gains at least ARMIJO of
    the predicted gain, a probe closer than BOUNDARY_GUARD to the boundary
    counting as -inf (below PURE_NEWTON the full step is taken). The loop
    stops when |grad| < GRAD_TOL and raises OptimFailed when a step finds no
    increase or after NEWTON_CAP steps. evaluations counts the translated
    supports u_z formed.
    """
    _check_alpha(alpha)
    area_term = 0.5 * math.log(area(u) / math.pi)
    e = _basis(u.n)
    vals = u.values
    power = 1.0 - 1.0 / alpha
    count = 0

    def probe(z):
        nonlocal count
        count += 1
        uz = vals - z @ e
        if np.min(uz) < BOUNDARY_GUARD:
            return uz, -np.inf
        return uz, _value(uz, alpha)

    z = steiner_point(u)
    uz, f = probe(z)
    for _ in range(NEWTON_CAP):
        # a is taken relative to min(uz)^(p-1); only ratios of a enter
        a = (uz / np.min(uz)) ** (power - 1.0)
        m = float(np.mean(a * uz))
        g = e @ a / len(a)
        grad = -g / m
        if np.linalg.norm(grad) < GRAD_TOL:
            return EntropyResult(value=f - area_term,
                                 point=(float(z[0]), float(z[1])),
                                 evaluations=count)
        hess = ((power - 1.0) / m) * ((e * (a / uz)) @ e.T) / len(a) \
            - power * np.outer(g, g) / m**2
        step = -np.linalg.solve(hess, grad)
        gain = float(grad @ step)
        if not gain > 0.0:
            raise OptimFailed(f"entropy: the Newton step does not ascend ({gain:.2e})")
        t = 1.0
        for _ in range(HALVINGS):
            uz_t, f_t = probe(z + t * step)
            if f_t >= f + ARMIJO * t * gain or (gain < PURE_NEWTON and f_t > -np.inf):
                break
            t *= 0.5
        else:
            raise OptimFailed(f"entropy: no increase along the Newton step "
                              f"(|grad| = {np.linalg.norm(grad):.2e})")
        z, uz, f = z + t * step, uz_t, f_t
    raise OptimFailed(f"entropy point not located within {NEWTON_CAP} Newton steps")
