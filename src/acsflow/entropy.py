"""Scale-invariant entropy of a convex body and its interior maximization.

For alpha in (0, 1) the entropy with base point z is
    alpha/(alpha-1) * log( mean_theta u_z^(1-1/alpha) ) - (1/2) log(area/pi),
with the log-mean form at alpha = 1; u_z is the support function with respect
to z. The entropy of the body is the supremum over interior base points,
attained at a unique entropy point. entropy_rows locates it for a batch of
bodies by one damped Newton iteration over all of them; entropy is its
one-row case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OptimFailed, OutOfRange
from .geometry import SupportFunction, _basis, require_convex

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
    """alpha/(alpha-1) log mean(uz^(1-1/alpha)), or mean(log uz) at alpha = 1,
    of each row of uz (along the last axis).

    Taken relative to min(uz): the powers of uz itself over- or underflow at
    small alpha for bodies far from unit size.
    """
    if alpha == 1.0:
        return np.mean(np.log(uz), axis=-1)
    s = np.min(uz, axis=-1, keepdims=True)
    return np.log(s[..., 0]) + alpha / (alpha - 1.0) * np.log(
        np.mean((uz / s) ** (1.0 - 1.0 / alpha), axis=-1))


def _translated(vals, z):
    """Rows of the support functions vals about the points z, rows of
    (x, y): vals - z.e(theta), each row on its own."""
    c, s = _basis(vals.shape[-1])
    return vals - (z[:, :1] * c + z[:, 1:] * s)


def _probe(vals, z, alpha):
    """(u_z, value) of each row of vals at the row of z: the translated
    supports and _value of each, -inf where u_z dips below BOUNDARY_GUARD."""
    uz = _translated(vals, z)
    f = np.full(len(uz), -np.inf)
    inside = np.min(uz, axis=-1) >= BOUNDARY_GUARD
    if inside.any():
        f[inside] = _value(uz[inside], alpha)
    return uz, f


def entropy(u: SupportFunction, alpha) -> EntropyResult:
    """Maximize the entropy over interior base points: the one-row case of
    entropy_rows."""
    return entropy_rows(u.values[None], alpha)[0]


def entropy_rows(values, alpha) -> list:
    """Maximize the entropy of each row of values, the support functions of
    convex bodies on one grid, over its interior base points; a list of
    EntropyResult, one per row. NonConvex when a row is not strictly convex.

    With p = 1 - 1/alpha <= 0 the entropy is, up to the area term, the log of
    the power mean of exponent p of u_z, which is linear in z; a power mean
    with p <= 1 is concave and so is its log, so the entropy is concave in z.
    With a = u_z^(p-1), M = mean(a u_z), e = (cos th, sin th), g = mean(a e):
        grad = -g / M,
        Hess = (p-1) mean(a/u_z e e^T) / M - p g g^T / M^2,
    which hold at alpha = 1 with p = 0 and M = 1. Damped Newton starts from
    the Steiner point; each step halves until it gains at least ARMIJO of
    the predicted gain, a probe closer than BOUNDARY_GUARD to the boundary
    counting as -inf (below PURE_NEWTON the full step is taken). A row stops
    when |grad| < GRAD_TOL; OptimFailed is raised when the step of some row
    finds no increase, or when some row has not stopped after NEWTON_CAP
    steps. evaluations counts the translated supports u_z formed for the
    row.

    The rows run as one batch: each reduction is along a row, so a row's
    result does not depend on the rows beside it, and masks carry the rows
    still iterating and, within a step, those still halving.
    """
    _check_alpha(alpha)
    vals = np.asarray(values, dtype=float)
    rows, n = vals.shape
    w = require_convex(vals)
    area_term = 0.5 * np.log((math.pi / n) * np.sum(vals * w, axis=-1) / math.pi)
    e = _basis(n)
    ee = np.stack((e[0] * e[0], e[0] * e[1], e[1] * e[1]))
    power = 1.0 - 1.0 / alpha

    z = (2.0 / n) * np.sum(vals[:, None, :] * e, axis=-1)  # Steiner points
    uz, f = _probe(vals, z, alpha)
    count = np.ones(rows, dtype=int)
    value = np.empty(rows)
    live = np.arange(rows)  # the rows still iterating
    for _ in range(NEWTON_CAP):
        zl, uzl, fl = z[live], uz[live], f[live]
        # a is taken relative to min(uz)^(p-1); only ratios of a enter
        a = (uzl / np.min(uzl, axis=-1, keepdims=True)) ** (power - 1.0)
        m = np.sum(a * uzl, axis=-1)[:, None] / n
        g = np.sum(a[:, None, :] * e, axis=-1) / n
        grad = -g / m
        done = np.sqrt(np.sum(grad * grad, axis=-1)) < GRAD_TOL
        value[live[done]] = fl[done] - area_term[live[done]]
        if done.all():
            return [EntropyResult(value=float(value[i]),
                                  point=(float(z[i, 0]), float(z[i, 1])),
                                  evaluations=int(count[i])) for i in range(rows)]
        go = ~done
        live, zl, uzl, fl = live[go], zl[go], uzl[go], fl[go]
        a, m, g, grad = a[go], m[go], g[go], grad[go]
        # mean(a/u_z e e^T) from its entries cos^2, cos sin and sin^2
        eet = (np.sum((a / uzl)[:, None, :] * ee, axis=-1) / n)[:, [[0, 1], [1, 2]]]
        hess = ((power - 1.0) / m)[:, :, None] * eet \
            - power * (g[:, :, None] * g[:, None, :]) / (m * m)[:, :, None]
        step = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        gain = np.sum(grad * step, axis=-1)
        if not (gain > 0.0).all():
            bad = gain[~(gain > 0.0)][0]
            raise OptimFailed(f"entropy: the Newton step does not ascend ({bad:.2e})")
        t = np.ones(len(live))
        halving = np.arange(len(live))  # positions in live still halving
        for _ in range(HALVINGS):
            rows_h = live[halving]
            uz_t, f_t = _probe(vals[rows_h], zl[halving] + t[halving, None] * step[halving],
                               alpha)
            count[rows_h] += 1
            gain_h = gain[halving]
            ok = (f_t >= fl[halving] + ARMIJO * t[halving] * gain_h) | (
                (gain_h < PURE_NEWTON) & (f_t > -np.inf))
            took = halving[ok]
            z[live[took]] = zl[took] + t[took, None] * step[took]
            uz[live[took]], f[live[took]] = uz_t[ok], f_t[ok]
            halving = halving[~ok]
            if not len(halving):
                break
            t[halving] *= 0.5
        else:
            raise OptimFailed(f"entropy: no increase along the Newton step "
                              f"(|grad| = {np.linalg.norm(grad[halving[0]]):.2e})")
    raise OptimFailed(f"entropy point not located within {NEWTON_CAP} Newton steps")
