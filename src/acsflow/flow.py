"""Time integration of the support-function flow u_t = -(u_thth + u)^(-alpha).

Three gauges of the same motion:
  unnormalized     u_t   = -kappa^alpha
  normalized_tau   u_tau = -kappa^alpha + u      (exponential rescaling)
  normalized_area  u_tau = -kappa^alpha / m + u,  m = mean(kappa^(alpha-1)) pi / A
                                                 (enclosed area A kept)

One marcher, flow_advance: extrapolated linearly implicit Euler
(Deuflhard, SIAM Rev. 27, 1985; Hairer & Wanner, Solving ODEs II, IV.9), of
order 6. A step of size h runs, from u, chains of j substeps of size h/j for
j = 1, 2, 3, 4, 5 and 7; a substep from the state u + d adds
(h/j) W^-1 f(u + d) to d, with W = I - (h/j) c P (d_thth + 1),
c = alpha max w^(-1-alpha) (divided by m in the area gauge)
the largest coefficient of the true Jacobian alpha w^(-1-alpha) (d_thth + 1),
and P dropping Fourier modes 0 and 1, so W is diagonal in Fourier space with
entries >= 1. The linearly implicit Euler step is a W-method: for any such
fixed approximate Jacobian the increment T_j of chain j has an error
expansion in powers of h/j, so the step is set by accuracy, not by the
explicit stability limit of the stiffest mode. Aitken-Neville extrapolation
in 1/j to 0 combines the six increments into the order-6 step T_66; each of
its levels adds a difference of increments over n_i / n_i-k - 1, so the
rounding of an increment is not amplified. T_66 - T_65, the step minus the
order-5 value of the tableau, is the error estimate. The substeps run in
Fourier space: a substep state, increment or RHS value is the spectral state
of geometry, [rfft(v - mean v), mean v], the mean a trailing column that W
leaves alone. The RHS forms w = u_thth + u by one irfft, as
geometry.radius_of_curvature does, takes the convexity test and the speed
w^(-alpha) at the nodes, and returns f by one rfft of the speed; a W solve
is one multiply by 1/(1 + (h/j) c max(m^2 - 1, 0)) over the wavenumbers m,
with no FFT.

The chains share k1 = f(u), which also supplies c and the near-extinction
guard dt <= 0.2 * min(u_thth + u)^(1 + alpha). The i-th substeps of the
chains still running (those with j > i) are the rows of one RHS call: 5, 4,
3, 2, 1 and 1 rows for i = 1 to 6. Rows of the batched FFTs, sums and minima
are bitwise equal to the single-row calls, so batching changes no output. An
accepted step thus evaluates the RHS at 17 states in 7 calls and makes 16
FFT calls: one rfft forms the spectrum of u (u stays the state of record),
each RHS call makes one irfft and one rfft, and one batched irfft returns the
error estimate and the step to the nodes; a rejected step reuses k1. The
error estimate is bounded node by node by atol + rtol |u_s|. Here
u_s = u - s.e(theta) is the support function about the Steiner point
s = (1/pi) integral u e(theta), that is u without its Fourier mode 1. The
flow commutes with translations and u_s does not see them, so the tolerance
does not depend on where the origin is. The Steiner point lies inside every
convex body, so u_s > 0 and rtol bounds the error at every node; |u| of a
body off the origin nears 0 at some nodes, where a bound relative to |u|
would shrink to atol and set the step. h changes only by factors on a fixed
lattice of quarter octaves, 2^(j/4), floored from the controller's proposal
0.9 err^(-1/6), so rounding in the error estimate seldom moves h. rhs
evaluates the same right-hand side for callers outside the marcher.

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
of the right-hand side; each g costs one irfft, which also returns f to the
nodes. A step with samples in it first forms f(u_1), which the next step
reuses as its k1, and g_1. The interpolant is of order 5 in h, its error
O(h^6), as large as the order-6 step's own, so it is bounded: at the
fraction s of the step the error is estimated node by node as
|top| min(1, |top| / |c|) s^3 (1 - s)^3. Here
top = 6 (u_1 - u_0) - 3 h (f_0 + f_1) + h^2 (g_1 - g_0) / 2 is the quintic's
s^5 coefficient, its correction over the quartic Hermite interpolant, and
c = h^2 g_0 / 2 - 3 (u_1 - u_0) + h (2 f_0 + f_1) is the quartic's
correction c s^2 (1 - s)^2 over the cubic one; |top| / |c| estimates the
ratio of successive corrections, so the product estimates the next one,
which the quintic leaves out (the quartic difference |top| s^3 (1 - s)^2
alone overstates the error about tenfold). A step whose estimate exceeds
atol + rtol |u_s| at one of its samples is rejected and shortened like any
other. Against samples landed on at rtol 1e-14, a tau-gauge run of
seed:3,1e-3 at alpha 1/8 (n 512, t_end 2, samples every 0.01; 20 steps
instead of 204) is off by at most 2.1e-12 (1.1e-15 when landing, which takes
the reference's own 204 steps), and an area-gauge random body (n 256, same
sampling; 423 steps instead of 529) by 1.2e-12 (1.2e-12 when landing).
"""

import bisect
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._fmt import csv_table
from .errors import BadConfig, InsufficientData, NonConvex
from .geometry import (CONVEXITY_RTOL, AngularGrid, SupportFunction,
                       _about_steiner_point, _area_weights, _curvature_radii,
                       _nodal, _spectrum, _strictly_convex, _symbols, area,
                       radius_of_curvature, require_convex)

_MODES = ("unnormalized", "normalized_tau", "normalized_area")

CFL_COEFF = 0.2
# size of the first step the controller tries; it adapts from there
FIRST_DT = 1e-4
# absolute floor of a run's error tolerance atol + rtol |u_s|
ATOL = 1e-15

# Substep counts of the chains of linearly implicit Euler steps whose
# increments the extrapolation combines, as a column of the chains' rows; at
# substep i the chains with j > i run on, rows _LIVE[i - 1] onwards.
_SEQ = (1, 2, 3, 4, 5, 7)
_SEQ_COL = np.array(_SEQ, dtype=float)[:, None]
_LIVE = tuple(bisect.bisect_right(_SEQ, i) for i in range(1, _SEQ[-1]))
# Aitken-Neville divisors n_i / n_i-k - 1 of the extrapolation's level k
_NEVILLE_DEN = tuple(_SEQ_COL[k:] / _SEQ_COL[:-k] - 1.0 for k in range(1, len(_SEQ)))

# Factors by which the controller changes h: quarter octaves 2^(j/4) from
# below its 0.1 floor on a rejection up to its growth cap of 4.
_STEP_RATIOS = tuple(2.0 ** (j / 4) for j in range(-14, 9))
# exponent of the controller: the error estimate and the sample bound are
# both O(h^6)
_EXPONENT = -1.0 / 6.0


@dataclass
class FlowStats:
    """Work counts of the step controller, summed over the calls it is given to.

    Each accepted step is counted under the one cap that set its size:
    the error controller, the extinction guard or the landing on t_limit,
    which is t_end in a run (samples do not end steps, nor does max_steps);
    h_min and h_max are its extremes (None before the first). A step is
    rejected for one reason: a substep state failed the convexity test, the
    error estimate was above tolerance, or the estimated error of the
    continuous extension was above tolerance at a sample inside the step
    (see the module docstring). rhs_evals counts the states at which the
    marcher evaluates the RHS: 17 per accepted step, at most 16 per rejected
    one (k1 is reused), and f(u_1) of each step with samples in it, which
    serves as the next step's k1 once that step is accepted.
    dense_evals counts the J f products of the samples. entropy_evals sums
    the evaluations of the entropy maximizations of a run's samples (0 when
    run does not log the entropy).
    """

    accepted: int = 0
    rejected_error: int = 0  # error estimate above tolerance
    rejected_convexity: int = 0  # a substep state failed the convexity test
    rejected_sample: int = 0  # a sample's estimated error above tolerance
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


def _area_gauge(z, w, speed):
    """(m, Q) of the area gauge at the spectral states z, rows of them, whose
    radii of curvature are w and speeds w^-alpha are speed: Q = sum(u w),
    from z by Parseval, and m = sum(w^(1 - alpha)) / Q, which is
    mean(w^(1 - alpha)) pi / A(u), so that
    dA/dtau = 2 A - (2 pi / m) mean(w^(1 - alpha)) = 0."""
    zv = z.view(float)
    q = np.einsum("...j,...j,j->...", zv, zv, _area_weights(w.shape[-1]))[..., None]
    return np.einsum("...j,...j->...", w, speed)[..., None] / q, q


def _flow_rhs(z, alpha, mode, stats):
    """Flow right-hand side at the spectral state z (see _spectrum); returns
    (f, w), f spectral like z and w = u_thth + u at the nodes.

    z is one state or a stack of states in its rows, each taken on its own.
    f is None when min(w) of some row is not above CONVEXITY_RTOL times
    the row's mean, which every non-finite row fails too.
    """
    cols = z.shape[-1]
    stats.rhs_evals += z.size // cols
    w = _curvature_radii(z, 2 * cols - 4)
    zbar = z[..., -1:].real
    if not _strictly_convex(w, zbar):
        return None, w
    speed = w ** -alpha
    f = _spectrum(speed)
    if mode == "unnormalized":
        return -f, w
    if mode == "normalized_tau":
        return z - f, w
    m, _ = _area_gauge(z, w, speed)
    return z - f / m, w


def _jacobian_product(z, w, v, alpha, mode):
    """(v, J v) at the nodes, for the spectral v (see _spectrum) and J the
    Jacobian of the right-hand side at the spectral state z, whose radii of
    curvature are w; one batched irfft forms v and (d_thth + 1) v."""
    lap, _ = _symbols(w.shape[-1])
    vn, lv = np.fft.irfft(np.stack((v[:-1], lap * v[:-1]))) + v[-1].real
    a = alpha * w ** (-1.0 - alpha)
    if mode == "unnormalized":
        return vn, a * lv
    if mode == "normalized_tau":
        return vn, vn + a * lv
    # the area gauge divides the speed w^-alpha by m = S / Q, with
    # S = sum(w^(1 - alpha)) and Q = sum(u w); as d_thth + 1 is symmetric,
    # dQ = 2 sum(v w)
    speed = w ** -alpha
    m, q = _area_gauge(z, w, speed)
    dm = ((1.0 - alpha) * np.sum(speed * lv) - 2.0 * m * np.sum(vn * w)) / q
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


def _extension_error(h, du, fg0, fg1):
    """Estimated error, node by node and over s^3 (1 - s)^3 at the fraction s,
    of the quintic Hermite interpolant of a step of size h and increment du,
    given (f, g) at its ends (see the module docstring)."""
    (f0, g0), (f1, g1) = fg0, fg1
    hh = 0.5 * h * h
    top = np.abs(6.0 * du - (3.0 * h) * (f0 + f1) + hh * (g1 - g0))
    c = np.abs(hh * g0 - 3.0 * du + h * (2.0 * f0 + f1))
    # |top| min(1, |top| / |c|), and 0 where top is 0
    return top * top / np.maximum(np.maximum(c, top), np.finfo(float).tiny)


def rhs(u: SupportFunction, alpha, mode) -> np.ndarray:
    """Right-hand side of the flow in the given gauge at u, as the marcher forms it."""
    if mode not in _MODES:
        raise BadConfig(f"unknown mode {mode!r}")
    du, w = _flow_rhs(_spectrum(u.values), alpha, mode, FlowStats())
    if du is None:
        raise NonConvex(f"min radius of curvature {np.min(w):.3e} <= tolerance "
                        f"{CONVEXITY_RTOL * np.mean(u.values):.3e}")
    return _nodal(du)


def _chain_increments(z, h, k1, coeff, alpha, mode, stats):
    """Spectral increments T_j, one row per j in _SEQ, of j linearly implicit
    Euler substeps of size h/j from the spectral state z; None on convexity
    loss.

    A substep from z + d adds (h/j) f(z + d) / (1 + (h/j) c max(m^2 - 1, 0)),
    a solve with W = I - (h/j) c P (d_thth + 1), which is 1 on the mean
    column; coeff is c. The chains share k1 = f(z), and the i-th substeps of
    the chains still running are the rows of one RHS call: 16 states in 6
    calls besides k1.
    """
    _, msq = _symbols(2 * z.shape[-1] - 4)
    hj = h / _SEQ_COL
    inv_w = 1.0 / (1.0 + (hj * coeff) * msq)
    d = (hj * k1) * inv_w
    for lo in _LIVE:
        k, _ = _flow_rhs(z + d[lo:], alpha, mode, stats)
        if k is None:
            return None
        d[lo:] += (hj[lo:] * k) * inv_w[lo:]
    return d


def _extrapolate(t):
    """(T_66 - T_65, T_66) from the increments t (rows T_j, j in _SEQ, which
    are overwritten) by the Aitken-Neville tableau in 1/j: level k adds to
    each T_i,k the difference T_i,k - T_i-1,k over n_i / n_i-k - 1."""
    for k, den in enumerate(_NEVILLE_DEN, 1):
        corr = (t[k:] - t[k - 1:-1]) / den
        t[k:] += corr
    return corr[0], t[-1]


def _ratio_floor(x):
    """The largest of _STEP_RATIOS not above x, for x >= _STEP_RATIOS[0]."""
    return _STEP_RATIOS[bisect.bisect_right(_STEP_RATIOS, x) - 1]


def flow_advance(u, t, h, t_limit, alpha, mode, rtol, atol, stop_min_radius,
                 stats, max_steps=math.inf, sample_times=(), sample_every=None,
                 record=None):
    """Advance the flow state u in place until t_limit or a stop, recording
    the rows of the run on the way.

    Each step extrapolates the chains of 1, 2, 3, 4, 5 and 7 linearly
    implicit Euler substeps (see the module docstring) to an order-6 step,
    and estimates its error by T_66 - T_65; the step is also capped by the
    near-extinction guard CFL_COEFF * min_roc^(1 + alpha). The substeps run
    as rows of batched RHS calls in Fourier space, so an accepted step
    evaluates the RHS at 17 states in 7 calls and makes 16 FFT calls. After
    each step the controller's factor 0.9 err^(-1/6) is floored onto
    _STEP_RATIOS, quarter octaves from below 0.1 to 4. A step is rejected
    when a substep state fails the convexity test, when the error estimate
    is above tolerance or not finite, or when the estimated error of its
    continuous extension is above tolerance at a sample inside it. The
    tolerance at each node is atol + rtol |u_s|, with u_s the support
    function about the Steiner point of the step's start (see the module
    docstring); it is positive for a convex body wherever the origin is, so
    rtol bounds the error at every node. Counts go to stats (a FlowStats).

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
    i_s = 0  # index of the next sample time
    t_row = t  # time of the last row; the caller records the start

    def put(t_r, v):
        nonlocal t_row
        t_row = t_r
        if record is not None:
            record(t_r, v)

    def stop(status, t_u, h_u):
        """The return (status, t_u, h_u) once u at time t_u is recorded."""
        if t_row != t_u:
            put(t_u, u)
        return status, t_u, h_u

    if t >= t_limit:
        return "reached_end", t, h
    # the spectrum z of u and k1 = f(u), spectral; fg holds f(u) and J f(u)
    # at the nodes once a sample needs them
    z = _spectrum(u)
    k1, w = _flow_rhs(z, alpha, mode, stats)
    fg = None
    while True:
        if k1 is None:
            return "non_convex", t, h
        if sample_every and n_acc % sample_every == 0 and t_row != t:
            put(t, u)
        wmin = w.min()
        if wmin < stop_min_radius:
            return stop("min_radius", t, h)
        # W's coefficient, the guard and the error scale of u
        coeff = alpha * (w ** (-alpha - 1.0)).max()
        if mode == "normalized_area":
            coeff = coeff / _area_gauge(z, w, w ** -alpha)[0].item()
        hguard = CFL_COEFF * wmin ** (1.0 + alpha)
        escale = atol + rtol * np.abs(_about_steiner_point(u))
        while True:
            cap = "error"
            if hguard < h:
                h, cap = hguard, "guard"
            # the landing step is clamped for output only; the controller
            # keeps proposing from the unclamped step
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
            # the error and the step return to the nodes in one batched irfft
            err, du = _nodal(np.stack(_extrapolate(chains)))
            enorm = (np.abs(err) / escale).max()
            if not np.isfinite(enorm):
                enorm = 10.0
            if enorm > 1.0:
                stats.rejected_error += 1
                h = h_step * _ratio_floor(max(0.9 * enorm ** _EXPONENT, 0.1))
                continue

            t_next = t_limit if landing else t + h_step
            j_s = bisect.bisect_right(sample_times, t_next, lo=i_s)
            if j_s == i_s:
                break
            # samples inside the step: f(u_1), the next step's k1, and
            # g_1 = J f(u_1) complete the quintic Hermite interpolant, whose
            # estimated error is bounded at each sample
            if fg is None:
                fg = _jacobian_product(z, w, k1, alpha, mode)
                stats.dense_evals += 1
            u1 = u + du
            z1 = _spectrum(u1)
            f1, w1 = _flow_rhs(z1, alpha, mode, stats)
            if f1 is None:
                u[:] = u1
                stats.count_step("landing" if landing else cap, h_step)
                return "non_convex", t_next, h
            fg1 = _jacobian_product(z1, w1, f1, alpha, mode)
            stats.dense_evals += 1
            s = (np.array(sample_times[i_s:j_s]) - t) / h_step
            est = _extension_error(h_step, du, fg, fg1)
            ratio = (est / escale).max() * ((s * (1.0 - s)) ** 3).max()
            if ratio <= 1.0:
                break
            stats.rejected_sample += 1
            h = h_step * _ratio_floor(max(0.9 * ratio ** _EXPONENT, 0.1))

        n_acc += 1
        stats.count_step("landing" if landing else cap, h_step)
        if j_s == i_s:
            u += du
            k1 = None
        else:
            rows = _hermite(s, h_step, u, u1, fg[0], fg1[0], fg[1], fg1[1])
            u[:] = u1
            for t_s, row in zip(sample_times[i_s:j_s], rows):
                put(t_s, u if t_s == t_next else row)
            i_s = j_s
            z, k1, w, fg = z1, f1, w1, fg1
        t = t_next
        if landing:
            return stop("reached_end", t, h)
        # factors from one lattice: rounding in the error estimate then
        # seldom changes the step sequence
        fac = 4.0 if enorm < 1e-8 else _ratio_floor(min(0.9 * enorm ** _EXPONENT, 4.0))
        h = h_step * fac
        if n_acc >= max_steps:
            return stop("max_steps", t, h)
        if k1 is None:
            z = _spectrum(u)
            k1, w = _flow_rhs(z, alpha, mode, stats)
            fg = None


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
        w = radius_of_curvature(values)
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
    w_mid = radius_of_curvature(vals)
    flow_advance(vals, dt / 2.0, dt / 8.0, dt, alpha, "unnormalized",
                 1e-11, 1e-14, 0.0, stats)
    a1 = 0.5 * grid.dtheta * float(np.sum(vals * radius_of_curvature(vals)))

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
