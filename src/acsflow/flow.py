"""Time integration of the support-function flow u_t = -(u_thth + u)^(-alpha).

Three gauges of the same motion:
  unnormalized     u_t   = -kappa^alpha
  normalized_tau   u_tau = -kappa^alpha + u      (exponential rescaling)
  normalized_area  u_tau = -kappa^alpha / mean(kappa^(alpha-1)) + u
                                                 (enclosed area pinned to pi)

One marcher, flow_advance: an order-5 Richardson extrapolation of a
linearly implicit W-step (ROS34PW2, order 3). Its W is
I - h gamma c P (d_thth + 1), with c = alpha max w^(-1-alpha) (divided by
mean w^(1-alpha) in the area gauge) the largest coefficient of the true
Jacobian alpha w^(-1-alpha) (d_thth + 1), and P dropping Fourier modes 0
and 1, so W is diagonal in Fourier space with entries >= 1. A W-method keeps
its order for any such approximate Jacobian, so the step is set by accuracy,
not by the explicit stability limit of the stiffest mode. The stages run in
Fourier space: a stage state, increment or RHS value is the spectral row
[rfft(v - mean v), mean v], the mean a trailing column that W leaves alone.
The RHS forms w = u_thth + u by one irfft, takes the convexity test and the
speed w^(-alpha) at the nodes, and returns f by one rfft of the speed; a W
solve is one multiply by 1/(1 + h gamma c max(m^2 - 1, 0)) over the
wavenumbers m, with no FFT. Transforming v - mean(v), not v, keeps the
rounding of the rfft of a constant out of w, so a centred circle stays round
to the last bit.

A step of size h runs three chains from u: one W-step of h, two of h/2 and
three of h/3, with increments T_1, T_2 and T_3. Their errors expand as
c (h/j)^4 + d (h/j)^5 + ..., so the step u += 0.02 T_1 - 0.64 T_2 + 1.62 T_3
cancels both terms and is of order 5; the absolute values of its weights sum
to 2.28, so it amplifies rounding little. The chains share k1 = f(u), which
also supplies c and the near-extinction guard
dt <= 0.2 * min(u_thth + u)^(1 + alpha). The i-th steps of the chains still
running are the rows of one W-step: three rows with step sizes h, h/2 and
h/3 from u, then two rows from their own states, then one. Rows of the
batched FFTs, sums and minima are bitwise equal to the single-row calls, so
batching changes no output. An accepted step thus evaluates the RHS at 22
states in 12 calls and makes 26 FFT calls: one rfft forms the spectrum of u
(u stays the state of record), each RHS call makes one irfft and one rfft,
and one batched irfft returns the error estimate and the step to the nodes;
a rejected step reuses k1. The error estimate is the step minus the order-4
combination (27 T_3 - 8 T_2)/19; it is bounded node by node by
atol + rtol |u_s|. Here u_s = u - s.e(theta) is the support function about
the Steiner point s = (1/pi) integral u e(theta), that is u without its
Fourier mode 1. The flow commutes with translations and u_s does not see
them, so the tolerance does not depend on where the origin is. The Steiner
point lies inside every convex body, so u_s > 0 and rtol bounds the error at
every node; |u| of a body off the origin nears 0 at some nodes, where a
bound relative to |u| would shrink to atol and set the step. h changes only
by factors on a fixed lattice of quarter octaves, 2^(j/4), floored from the
controller's proposal 0.9 err^(-1/5), so rounding in the error estimate
seldom moves h. rhs evaluates the same right-hand side for callers outside
the marcher.

run makes one flow_advance call, and the marcher records every row of the
trace after the initial one, in time order: the samples, at fixed times or
every sample_every steps, and the state where it stops, once. It stops at
t_end ("reached_end"), after max_steps steps ("max_steps"), at the
minimum-radius floor ("min_radius"), on convexity loss ("non_convex"; that
state is not recorded) or on step underflow ("step_underflow"), and returns
which; the work counts go to FlowTrace.stats.

Samples at fixed times do not end steps; only t_end does. A sample inside
an accepted step from u_0 to u_1 comes from the step's continuous extension
(Hairer, Norsett & Wanner, Solving ODEs I, II.6): the quintic Hermite
interpolant of u, f = u' and g = u'' = J f at both ends, with J the Jacobian
of the right-hand side. f(u_1) is the next step's k1, and each g costs one
irfft, which also returns f to the nodes. The interpolant is of order 5 in
h, its error O(h^6), and the controller does not see that error. Against
samples landed on at rtol 1e-14, a tau-gauge run of seed:3,1e-3 at alpha 1/8
(n 512, t_end 2, samples every 0.01; 16 steps instead of 204) is off by at
most 4.0e-12 (0 when landing, which takes the reference's own 204 steps),
and an area-gauge random body (n 256, same sampling; 432 steps instead of
504) by 8.9e-13 (7.7e-13 when landing).
"""

import bisect
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._fmt import csv_table
from .errors import BadConfig, InsufficientData, NonConvex
from .geometry import (CONVEXITY_RTOL, AngularGrid, SupportFunction,
                       _steiner_point, _strictly_convex, area, deriv2,
                       require_convex)

_MODES = ("unnormalized", "normalized_tau", "normalized_area")

CFL_COEFF = 0.2
# size of the first step the controller tries; it adapts from there
FIRST_DT = 1e-4
# absolute floor of a run's error tolerance atol + rtol |u_s|
ATOL = 1e-15

# ROS34PW2 (Rang & Angermann, BIT 45, 2005) in the transformed variables of
# Hairer & Wanner, Solving ODEs II, IV.7 (7.25): from the published alpha,
# Gamma and b, a = alpha Gamma^-1, c = diag(1/gamma) - Gamma^-1, m = b Gamma^-1.
# Stage i solves W U_i = h gamma f(u + sum_j a_ij U_j) + gamma sum_j c_ij U_j
# over j < i, and the step is u + sum_i m_i U_i. Rows of _A and _C are
# stages 2 to 4.
_GAMMA = 4.3586652150845900e-01
_A = ((2.0,),
      (1.4192173174557652, -2.5923221167296978e-01),
      (4.1847604823191613, -2.8519201735549599e-01, 2.2942803602790423))
_C = ((-4.5885607205580836,),
      (-4.1847604823191613, 2.8519201735549599e-01),
      (-6.3681792001283597, -6.7956209444668367, 2.8700986043310550))
_M = (4.1847604823191613, -2.8519201735549599e-01, 2.2942803602790423, 1.0)

# Step sizes, as fractions of h, of the chains of one, two and three W-steps
# whose increments the Richardson step combines; a column, so that the first
# steps of the chains run as the rows of one W-step.
_CHAIN_STEPS = np.array([[1.0], [1 / 2], [1 / 3]])
# Weight of T_2 - T_3 in the error estimate
# 0.02 (T_1 - T_3) - _ERR_D32 (T_2 - T_3), which is the order-5 step minus the
# order-4 (27 T_3 - 8 T_2)/19.
_ERR_D32 = 0.64 - 8 / 19

# Factors by which the controller changes h: quarter octaves 2^(j/4) from
# below its 0.1 floor on a rejection up to its growth cap of 4.
_STEP_RATIOS = tuple(2.0 ** (j / 4) for j in range(-14, 9))


@dataclass
class FlowStats:
    """Work counts of the step controller, summed over the calls it is given to.

    Each accepted step is counted under the one cap that set its size:
    the error controller, the extinction guard or the landing on t_limit,
    which is t_end in a run (samples do not end steps, nor does max_steps);
    h_min and h_max are its extremes (None before the first). rhs_evals
    counts the states of steps; dense_evals counts the work of samples
    inside steps: the J f products, and each f formed for a sample only. entropy_evals sums the
    evaluations of the entropy maximizations of a run's samples (0 when
    run does not log the entropy).
    """

    accepted: int = 0
    rejected_error: int = 0  # error estimate above tolerance
    rejected_convexity: int = 0  # a stage state failed the convexity test
    rhs_evals: int = 0  # states, so a batched call counts each of its rows
    cap_error: int = 0
    cap_guard: int = 0
    cap_landing: int = 0
    h_min: float | None = None
    h_max: float | None = None
    dense_evals: int = 0
    entropy_evals: int = 0

    def count_step(self, cap, h):
        """Count an accepted step of size h.

        cap names the limit that set h: "error", "guard" or "landing".
        """
        self.accepted += 1
        name = "cap_" + cap
        setattr(self, name, getattr(self, name) + 1)
        h = float(h)
        self.h_min = h if self.h_min is None else min(self.h_min, h)
        self.h_max = h if self.h_max is None else max(self.h_max, h)

    def to_json_dict(self):
        return asdict(self)


@functools.cache
def _symbols(n):
    """(1 - m^2, max(m^2 - 1, 0)) over the rfft wavenumbers m of n nodes: the
    symbols of d_thth + 1 and of -P (d_thth + 1), the second with a trailing
    0 for the mean column of a spectral state. Read-only, as they are shared."""
    m = np.arange(n // 2 + 1, dtype=float)
    lap = 1.0 - m * m
    msq = np.append(np.maximum(m * m - 1.0, 0.0), 0.0)
    lap.flags.writeable = msq.flags.writeable = False
    return lap, msq


def _spectrum(v):
    """The spectral state [rfft(v - mean v), mean v] of nodal rows v, whose
    number of nodes is even as on every AngularGrid.

    The mean is carried as a trailing column: the rfft of a constant is not
    exactly zero beyond bin 0, and transforming v - mean(v) keeps that
    rounding out of w, so a circle stays exactly round.
    """
    n = v.shape[-1]
    # np.mean(v, axis=-1), without its call overhead
    vbar = v.sum(axis=-1, keepdims=True) / n
    out = np.empty(v.shape[:-1] + (n // 2 + 2,), dtype=complex)
    np.fft.rfft(v - vbar, out=out[..., :-1])
    out[..., -1:] = vbar
    return out


def _nodal(x):
    """Nodal rows of the spectral state x; the inverse of _spectrum."""
    return np.fft.irfft(x[..., :-1]) + x[..., -1:].real


def _flow_rhs(z, alpha, mode, stats):
    """Flow right-hand side at the spectral state z (see _spectrum); returns
    (f, w), f spectral like z and w = u_thth + u at the nodes.

    z is one state or a stack of states in its rows, each taken on its own.
    f is None when min(w) of some row is not above CONVEXITY_RTOL times
    the row's mean, which every non-finite row fails too.
    """
    cols = z.shape[-1]
    lap, _ = _symbols(2 * cols - 4)
    stats.rhs_evals += z.size // cols
    zbar = z[..., -1:].real
    w = np.fft.irfft(lap * z[..., :-1]) + zbar
    if not _strictly_convex(w, zbar):
        return None, w
    speed = _spectrum(w ** -alpha)
    if mode == "unnormalized":
        return -speed, w
    if mode == "normalized_tau":
        return z - speed, w
    m = (w ** (1.0 - alpha)).sum(axis=-1, keepdims=True) / w.shape[-1]
    return z - speed / m, w


def _jacobian_product(w, v, alpha, mode):
    """(v, J v) at the nodes, for the spectral v (see _spectrum) and J the
    Jacobian of the right-hand side at a state whose radii of curvature
    are w; one batched irfft forms v and (d_thth + 1) v."""
    lap, _ = _symbols(w.shape[-1])
    vn, lv = np.fft.irfft(np.stack((v[:-1], lap * v[:-1]))) + v[-1].real
    a = alpha * w ** (-1.0 - alpha)
    if mode == "unnormalized":
        return vn, a * lv
    if mode == "normalized_tau":
        return vn, vn + a * lv
    # the area gauge divides the speed w^-alpha by m = mean(w^(1 - alpha))
    speed = w ** -alpha
    m = np.mean(speed * w)
    dm = (1.0 - alpha) * np.mean(speed * lv)
    return vn, vn + (a * lv + speed * (dm / m)) / m


def _hermite(s, h, u0, u1, f0, f1, g0, g1):
    """Rows of the quintic Hermite interpolant, over a step of size h, of the
    values u, first derivatives f and second derivatives g at its ends, at
    the fractions s (an array) of the step."""
    s = s[:, None]
    r = 1.0 - s
    s3 = s ** 3
    return (u0 + (s3 * (10.0 - 15.0 * s + 6.0 * s * s)) * (u1 - u0)
            + (h * s * r ** 3 * (1.0 + 3.0 * s)) * f0
            - (h * s3 * r * (4.0 - 3.0 * s)) * f1
            + (0.5 * h * h) * ((s * s * r ** 3) * g0 + (s3 * r * r) * g1))


def rhs(u: SupportFunction, alpha, mode) -> np.ndarray:
    """Right-hand side of the flow in the given gauge at u, as the marcher forms it."""
    if mode not in _MODES:
        raise BadConfig(f"unknown mode {mode!r}")
    du, w = _flow_rhs(_spectrum(u.values), alpha, mode, FlowStats())
    if du is None:
        raise NonConvex(f"min radius of curvature {np.min(w):.3e} <= tolerance "
                        f"{CONVEXITY_RTOL * np.mean(u.values):.3e}")
    return _nodal(du)


def _combine(coefs, arrays):
    acc = coefs[0] * arrays[0]
    for c, v in zip(coefs[1:], arrays[1:]):
        acc = acc + c * v
    return acc


def _w_step(z, d0, h, k1, coeff, alpha, mode, stats):
    """Increment of one ROS34PW2 step of size h from z + d0, given
    k1 = f(z + d0); states, increments and k1 are spectral (see _spectrum).

    None on convexity loss. coeff is c of W = I - h gamma c P (d_thth + 1),
    which is diagonal in Fourier space: a W solve multiplies by
    1/(1 + h gamma c max(m^2 - 1, 0)), which is 1 on the mean column. h may
    be a column of step sizes; the increment then has one row per step
    size, each a step from the same z + d0. Each stage state adds d0 and its
    other increments, summed, to z once.
    """
    _, msq = _symbols(2 * z.shape[-1] - 4)
    inv_w = 1.0 / (1.0 + (h * _GAMMA * coeff) * msq)
    incs = [((h * _GAMMA) * k1) * inv_w]
    for a_row, c_row in zip(_A, _C):
        f, _ = _flow_rhs(z + (d0 + _combine(a_row, incs)), alpha, mode, stats)
        if f is None:
            return None
        incs.append(((h * _GAMMA) * f + _GAMMA * _combine(c_row, incs)) * inv_w)
    return _combine(_M, incs)


def _chain_increments(z, h, k1, coeff, alpha, mode, stats):
    """Spectral increments (T_1, T_2, T_3) of j W-steps of size h/j from the
    spectral state z, for j = 1, 2, 3; None on convexity loss.

    The chains share k1 = f(z), and the i-th steps of the chains still
    running are the rows of one W-step: three rows, then two with a row-wise
    d0, then one. That is 21 RHS states in 11 calls besides k1.
    """
    inc = _w_step(z, 0.0, h * _CHAIN_STEPS, k1, coeff, alpha, mode, stats)
    if inc is None:
        return None
    done = [inc[0]]
    d0 = inc[1:]
    for i in (1, 2):
        k, _ = _flow_rhs(z + d0, alpha, mode, stats)
        if k is None:
            return None
        inc = _w_step(z, d0, h * _CHAIN_STEPS[i:], k, coeff, alpha, mode, stats)
        if inc is None:
            return None
        d0 = d0 + inc
        done.append(d0[0])
        d0 = d0[1:]
    return done


def _about_steiner_point(u, e):
    """u - s.e(theta), the support function about the Steiner point
    s = (2/n) e u, for e the (2, n) matrix of cos and sin at the nodes."""
    return u - _steiner_point(u, e) @ e


def _ratio_floor(x):
    """The largest of _STEP_RATIOS not above x, for x >= _STEP_RATIOS[0]."""
    return _STEP_RATIOS[bisect.bisect_right(_STEP_RATIOS, x) - 1]


def flow_advance(u, t, h, t_limit, alpha, mode, rtol, atol, stop_min_radius,
                 stats, max_steps=math.inf, sample_times=(), sample_every=None,
                 record=None):
    """Advance the flow state u in place until t_limit or a stop, recording
    the rows of the run on the way.

    Each step combines the chains of one, two and three W-steps (see the
    module docstring) into an order-5 step, and estimates its error against
    the order-4 combination; the step is also capped by the near-extinction
    guard CFL_COEFF * min_roc^(1 + alpha). The chains run as rows of three
    batched W-steps in Fourier space, so an accepted step evaluates the RHS
    at 22 states in 12 calls and makes 26 FFT calls. After each step the
    controller's factor 0.9 err^(-1/5) is floored onto _STEP_RATIOS, quarter
    octaves from below 0.1 to 4. A step is rejected when a stage state fails
    the convexity test or the error estimate is above tolerance or not finite.
    The tolerance at each node is atol + rtol |u_s|, with u_s the support
    function about the Steiner point (see the module docstring); it is
    positive for a convex body wherever the origin is, so rtol bounds the
    error at every node. Counts go to stats (a FlowStats).

    record(t_r, v) receives the rows in time order, all but the start,
    which the caller records: with sample_times, ascending times in
    (t, t_limit), the state at each from the continuous extension of the
    step that passes it (steps do not end on them; see the module
    docstring); with sample_every instead, every sample_every-th state; and
    the state where the march stops, once, unless the status is
    "non_convex". A row's state has passed the convexity test, except a
    last state with no sample inside its step.

    Returns (status, t, h_next); status is "reached_end" (t is t_limit, or
    the start when that is not before t_limit), "max_steps", "min_radius",
    "non_convex" (a state failed the convexity test; the samples inside the
    step that reached it are not recorded) or "step_underflow".
    """
    n_acc = 0
    # the spectrum z of u and k1 = f(u), spectral, with W's coefficient, the
    # guard and the error scale of u
    k1 = None
    fg = None  # f(u) and J f(u) at the nodes, once a sample needs them
    step = None  # (t_0, h, u_0, f_0, g_0) of an accepted step with samples in it
    i_s = 0  # index of the next sample time
    t_row = t  # time of the last row; the caller records the start
    n = u.shape[0]
    theta = 2.0 * np.pi * np.arange(n) / n  # AngularGrid(n).nodes
    e = np.stack([np.cos(theta), np.sin(theta)])

    def put(t_r, v):
        nonlocal t_row
        t_row = t_r
        if record is not None:
            record(t_r, v)

    def sample_step(t_u, f_u, w_u):
        """Record the samples up to t_u inside `step`, which ends at u at
        time t_u; f_u = f(u), spectral, and w_u are the radii of curvature
        of u."""
        nonlocal fg, i_s
        t0, hs, u0, f0, g0 = step
        fg = _jacobian_product(w_u, f_u, alpha, mode)
        stats.dense_evals += 1
        j = bisect.bisect_right(sample_times, t_u, lo=i_s)
        ts = np.array(sample_times[i_s:j])
        rows = _hermite((ts - t0) / hs, hs, u0, u, f0, fg[0], g0, fg[1])
        for t_s, row in zip(sample_times[i_s:j], rows):
            put(t_s, u if t_s == t_u else row)
        i_s = j

    def stop(status, t_u, h_u):
        """The return (status, t_u, h_u) once u at time t_u is recorded;
        samples still pending inside the last step first need f(u), formed
        for them only, and u failing the convexity test there makes the
        status "non_convex"."""
        if step is not None:
            f_u, w_u = _flow_rhs(_spectrum(u), alpha, mode, FlowStats())
            stats.dense_evals += 1
            if f_u is None:
                return "non_convex", t_u, h_u
            sample_step(t_u, f_u, w_u)
        if t_row != t_u:
            put(t_u, u)
        return status, t_u, h_u

    if t >= t_limit:
        return "reached_end", t, h
    while True:
        if k1 is None:
            z = _spectrum(u)
            k1, w = _flow_rhs(z, alpha, mode, stats)
            if k1 is None:
                return "non_convex", t, h
            if step is not None:
                sample_step(t, k1, w)
                step = None
            if sample_every and n_acc % sample_every == 0 and t_row != t:
                put(t, u)
            wmin = w.min()
            if wmin < stop_min_radius:
                return stop("min_radius", t, h)
            coeff = alpha * (w ** (-alpha - 1.0)).max()
            if mode == "normalized_area":
                coeff = coeff / ((w ** (1.0 - alpha)).sum() / n)
            hguard = CFL_COEFF * wmin ** (1.0 + alpha)
            escale = atol + rtol * np.abs(_about_steiner_point(u, e))
        cap = "error"
        if hguard < h:
            h, cap = hguard, "guard"
        # the landing step is clamped for output only; the controller keeps
        # proposing from the unclamped step
        landing = t + h >= t_limit
        h_step = t_limit - t if landing else h
        if h_step <= 1e-14 * max(1.0, abs(t)):
            if landing:
                return stop("reached_end", t_limit, h)
            return stop("step_underflow", t, h_step)

        chains = _chain_increments(z, h_step, k1, coeff, alpha, mode, stats)
        if chains is None:
            stats.rejected_convexity += 1
            h = 0.25 * h_step
            continue

        # with T_j = T + c (h/j)^4 + d (h/j)^5 + ..., the step
        # 0.02 T_1 - 0.64 T_2 + 1.62 T_3 cancels c and d, and its error is
        # estimated by its distance from the order-4 (27 T_3 - 8 T_2)/19;
        # differences of the increments, not the increments themselves,
        # carry the weights, so the rounding of T_3 is not amplified; the
        # error and the step return to the nodes in one batched irfft
        t1, t2, t3 = chains
        d31 = t1 - t3
        d32 = t2 - t3
        err, du = _nodal(np.stack((0.02 * d31 - _ERR_D32 * d32,
                                   t3 + (0.02 * d31 - 0.64 * d32))))
        enorm = (np.abs(err) / escale).max()
        if not np.isfinite(enorm):
            enorm = 10.0
        if enorm > 1.0:
            stats.rejected_error += 1
            h = h_step * _ratio_floor(max(0.9 * enorm ** -0.2, 0.1))
            continue

        t_next = t_limit if landing else t + h_step
        if i_s < len(sample_times) and sample_times[i_s] <= t_next:
            if fg is None:
                fg = _jacobian_product(w, k1, alpha, mode)
                stats.dense_evals += 1
            step = (t, h_step, u.copy(), *fg)
        u += du
        k1 = fg = None
        n_acc += 1
        stats.count_step("landing" if landing else cap, h_step)
        t = t_next
        if landing:
            return stop("reached_end", t, h)
        # factors from one lattice: rounding in the error estimate then
        # seldom changes the step sequence
        fac = 4.0 if enorm < 1e-8 else _ratio_floor(min(0.9 * enorm ** -0.2, 4.0))
        h = h_step * fac
        if n_acc >= max_steps:
            return stop("max_steps", t, h)


@dataclass(frozen=True)
class FlowConfig:
    alpha: float
    mode: str
    initial: SupportFunction
    t_end: float
    sample_every: int = 1
    # samples at multiples of sample_dt, from the continuous extension of
    # the steps, in place of every sample_every steps
    sample_dt: float | None = None
    stop_min_radius: float = 1e-3
    max_steps: int = 10_000_000
    rtol: float = 1e-12
    log_entropy: bool = False


@dataclass
class FlowTrace:
    alpha: float
    mode: str
    grid: AngularGrid
    times: np.ndarray
    area: np.ndarray
    length: np.ndarray
    iso_ratio: np.ndarray
    min_curvature: np.ndarray
    max_curvature: np.ndarray
    entropy: np.ndarray  # nan where not logged
    snapshots: np.ndarray  # (rows, n)
    terminal_reason: str
    n_steps: int
    stats: FlowStats | None = None  # None for a trace read back from disk

    def __len__(self):
        return len(self.times)


def _validate(config: FlowConfig):
    if config.mode not in _MODES:
        raise BadConfig(f"mode must be one of {sorted(_MODES)}, got {config.mode!r}")
    # alpha = 1 (the classical curve shortening flow) is admitted for the
    # circle extinction-law experiments
    if not 0.0 < config.alpha <= 1.0:
        raise BadConfig(f"alpha must lie in (0, 1], got {config.alpha}")
    if not config.t_end > 0.0:
        raise BadConfig(f"t_end must be positive, got {config.t_end}")
    if config.sample_every < 1:
        raise BadConfig(f"sample_every must be >= 1, got {config.sample_every}")
    if config.sample_dt is not None and not config.sample_dt > 0.0:
        raise BadConfig(f"sample_dt must be positive, got {config.sample_dt}")
    if not (math.isfinite(config.rtol) and config.rtol >= 0.0):
        raise BadConfig(f"rtol must be finite and >= 0, got {config.rtol}")
    if config.max_steps < 1:
        raise BadConfig("max_steps must be >= 1")
    try:
        require_convex(config.initial)
    except NonConvex as exc:
        raise BadConfig(f"initial support function is not strictly convex: {exc}")


def run(config: FlowConfig) -> FlowTrace:
    """Integrate the configured flow, sampling diagnostics along the way."""
    _validate(config)
    from .entropy import entropy as entropy_max  # local import, no cycle

    grid = config.initial.grid
    u = config.initial.values.copy()
    stats = FlowStats()

    rows = []
    snaps = []

    def record(t_now, values):
        w = deriv2(values) + values
        a = 0.5 * grid.dtheta * float(np.sum(values * w))
        ell = grid.dtheta * float(np.sum(w))
        ent = math.nan
        if config.log_entropy:
            result = entropy_max(SupportFunction(grid, values), config.alpha)
            ent = result.value
            stats.entropy_evals += result.evaluations
        rows.append((t_now, a, ell, a / ell**2,
                     1.0 / float(np.max(w)), 1.0 / float(np.min(w)), ent))
        snaps.append(values.copy())

    record(0.0, u)
    sample_times = []
    sample_every = config.sample_every
    if config.sample_dt is not None:
        # exact multiples keep the sample spacing uniform to rounding; a
        # final sliver shorter than a quarter interval is absorbed into t_end
        dt = config.sample_dt
        while (len(sample_times) + 1) * dt <= config.t_end - 0.25 * dt:
            sample_times.append((len(sample_times) + 1) * dt)
        sample_every = None
    reason, _, _ = flow_advance(
        u, 0.0, FIRST_DT, config.t_end, config.alpha, config.mode, config.rtol,
        ATOL, config.stop_min_radius, stats, config.max_steps, sample_times,
        sample_every, record)

    rows_arr = np.array(rows)
    return FlowTrace(
        alpha=config.alpha, mode=config.mode, grid=grid,
        times=rows_arr[:, 0], area=rows_arr[:, 1], length=rows_arr[:, 2],
        iso_ratio=rows_arr[:, 3], min_curvature=rows_arr[:, 4],
        max_curvature=rows_arr[:, 5], entropy=rows_arr[:, 6],
        snapshots=np.array(snaps),
        terminal_reason=reason, n_steps=stats.accepted, stats=stats)


def area_derivative_check(u: SupportFunction, alpha, dt=1e-5) -> float:
    """Relative residual of dA/dt = -integral kappa^(alpha-1) over one step."""
    grid = u.grid
    a0 = area(u)

    vals = u.values.copy()
    stats = FlowStats()
    flow_advance(vals, 0.0, dt / 8.0, dt / 2.0, alpha, "unnormalized",
                 1e-11, 1e-14, 0.0, stats)
    w_mid = deriv2(vals) + vals
    flow_advance(vals, dt / 2.0, dt / 8.0, dt, alpha, "unnormalized",
                 1e-11, 1e-14, 0.0, stats)
    a1 = 0.5 * grid.dtheta * float(np.sum(vals * (deriv2(vals) + vals)))

    lhs = (a1 - a0) / dt
    rhs_exact = -grid.dtheta * float(np.sum(w_mid ** (1.0 - alpha)))
    return abs(lhs - rhs_exact) / abs(rhs_exact)


@dataclass(frozen=True)
class AreaLawFit:
    exponent: float
    a_hat: float
    rms: float
    t_extinction: float


def area_law_fit(trace: FlowTrace, min_rows=20) -> AreaLawFit:
    """Fit A = (a_hat * (T - t))^p over the last decade before extinction.

    T is chosen to minimize the least-squares rms of log A against
    log(T - t); the asymptotic law has p = 2/(1 + alpha).
    """
    from scipy.optimize import minimize_scalar
    t = trace.times
    a = trace.area
    if len(t) < min_rows:
        raise InsufficientData(f"need at least {min_rows} rows, got {len(t)}")
    t_last, a_last = t[-1], a[-1]
    # crude extinction horizon from the circle law, generous bracket
    hint = a_last ** ((1.0 + trace.alpha) / 2.0)

    def fit_for(t_ext):
        dt_ext = t_ext - t
        mask = dt_ext <= 10.0 * (t_ext - t_last)
        if mask.sum() < min_rows:
            mask = np.zeros(len(t), dtype=bool)
            mask[-min_rows:] = True
        x = np.log(dt_ext[mask])
        y = np.log(a[mask])
        coef = np.polyfit(x, y, 1)
        resid = y - np.polyval(coef, x)
        return float(np.sqrt(np.mean(resid**2))), coef

    res = minimize_scalar(lambda T: fit_for(T)[0],
                          bounds=(t_last + 1e-3 * hint, t_last + 50.0 * hint),
                          method="bounded",
                          options={"xatol": 1e-14})
    t_ext = float(res.x)
    rms, coef = fit_for(t_ext)
    p, c = float(coef[0]), float(coef[1])
    return AreaLawFit(exponent=p, a_hat=math.exp(c / p), rms=rms, t_extinction=t_ext)


def entropy_monotonicity_check(trace: FlowTrace) -> float:
    """Largest increase of the logged entropy between consecutive samples."""
    ent = trace.entropy
    good = ~np.isnan(ent)
    if good.sum() < 2:
        raise InsufficientData("trace has no logged entropy column")
    diffs = np.diff(ent[good])
    return float(np.max(diffs))


def trace_to_csv(trace: FlowTrace) -> str:
    return csv_table(
        ("time", "area", "length", "iso_ratio", "min_curv", "max_curv", "entropy"),
        (trace.times, trace.area, trace.length, trace.iso_ratio,
         trace.min_curvature, trace.max_curvature, trace.entropy))
