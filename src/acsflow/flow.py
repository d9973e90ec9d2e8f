"""Time integration of the support-function flow u_t = -(u_thth + u)^(-alpha).

Three gauges of the same motion:
  unnormalized     u_t   = -kappa^alpha
  normalized_tau   u_tau = -kappa^alpha + u      (exponential rescaling)
  normalized_area  u_tau = -kappa^alpha / m + u,  m = mean(kappa^(alpha-1)) pi / A
                                                 (enclosed area A kept)

One marcher, flow_advance: extrapolated linearly implicit Euler
(Deuflhard, SIAM Rev. 27, 1985; Hairer & Wanner, Solving ODEs II, IV.9), of
order 7. A step of size h runs, from u, chains of j substeps of size h/j for
j = 1, 2, 3, 4, 6, 8 and 10; a substep from the state u + d adds
(h/j) W^-1 f(u + d) to d, with W = I - (h/j) c P (d_thth + 1), c a
constant of the step (below) and P dropping Fourier modes 0 and 1, so W is
diagonal in Fourier space with entries >= 1. The linearly implicit Euler
step is a W-method: for any such fixed approximate Jacobian the increment
T_j of chain j has an error expansion in powers of h/j (Steihaug &
Wolfbrandt, Math. Comp. 33, 1979; Hairer & Wanner, Solving ODEs II, IV.7),
so the step is set by accuracy, not by the explicit stability limit of the
stiffest mode, and c may be chosen for the step count. The true Jacobian is
a (d_thth + 1), with a = alpha w^(-1-alpha) at each node (divided by m in
the area gauge). A substep multiplies a stiff mode of local coefficient a
by R(inf) = 1 - a/c, so c = max(a) damps every mode, but on the flat sides
of a non-round body, where a is many times smaller, R is near 1: W is far
stiffer there than the flow, and the error estimate keeps h short. c is set
at each step's start by one rule:
  c = max(a)          where min(a) >= 0.9 max(a),
  c = (3/4) max(a)    otherwise (FlowStats.w_damped counts these steps).
3/4 is the smallest factor that still damps the stiffest node's modes by a
factor of 3 (R >= -1/3), and it cuts W's overshoot at every other node by a
quarter. On the three `relax` bodies of the benchmark's `flows` (area
gauge, alpha 1/2, n 256, tau 2, samples every 0.01) the factors 1, 0.85,
3/4 and 0.65 take 221/118/122, 187/101/103, 164/88/90 and 142/79/80 steps
with no rejection, and their samples stay within 4e-13 of those at 1. At
0.6 (R = -2/3) the runs take 146/84/89 steps and 21/10/15 sample
rejections, and the samples move by up to 8e-12; 3/4 keeps a margin from
that edge. The 10% split keeps near-round bodies on c = max(a): there every
node's coefficient is already within 10% of c, so damping has little to
gain, and their step sequences stay as they were (the circle, the neutral
seed and the roll-equivariance body, whose min(a)/max(a) are 1, above 0.95
and 0.915). Aitken-Neville extrapolation
in 1/j to 0 combines the seven increments into the order-7 step T_77; each of
its levels adds a difference of increments over n_i / n_i-k - 1, so the
rounding of an increment is not amplified. The sequence keeps the
extrapolation well conditioned: its weights sum to 186 in absolute value,
where the harmonic 1, ..., 7 would sum to 1007. T_77 - T_76, the step minus
the order-6 value of the tableau, is the error estimate. The substeps run in
Fourier space: a substep state, increment or RHS value is the spectral state
of geometry, [rfft(v - mean v), mean v], the mean a trailing column that W
leaves alone. The RHS forms w = u_thth + u by one irfft, as
geometry.radius_of_curvature does, takes the convexity test and the speed
w^(-alpha) at the nodes, and returns f by one rfft of the speed; a W solve
is one multiply by 1/(1 + (h/j) c max(m^2 - 1, 0)) over the wavenumbers m,
with no FFT.

The chains share k1 = f(u), which also supplies c; no other limit caps the
step, as none is needed where nothing goes extinct (a tau-gauge run started
at the (0.04, k3, n 1200) shrinker, whose min radius of curvature is 4.0e-6,
reaches tau 1 in 1,660 steps, where a cap of 0.2 min(w)^(1 + alpha) let it
cover tau 0.0097 in 20,000). The i-th substeps of the chains still running
(those with j > i) are the rows of one RHS call: 6, 5, 4, 3, 3, 2, 2, 1 and
1 rows for i = 1 to 9. Rows of the batched FFTs, sums and minima are bitwise
equal to the single-row calls, so batching changes no output. A step that
passes the error test forms its end state u_1, its spectrum and f(u_1), the
next step's k1, before it is accepted; an accepted step thus evaluates the
RHS at 28 states in 10 calls and makes 22 FFT calls: each RHS call makes one
irfft and one rfft, one batched irfft returns the error estimate and the
step to the nodes, and one rfft forms the spectrum of u_1 (the nodal state
stays the state of record). Every state the RHS sees takes the convexity
test, and one rule serves them all: a step with a substep state or a u_1
that fails it is rejected and retried at h/4, so a march that keeps failing
shortens h until it underflows. A rejected step reuses k1. The error
estimate is bounded node by node by atol + rtol |u_s|. Here
u_s = u - s.e(theta) is the support function about the Steiner point
s = (1/pi) integral u e(theta), that is u without its Fourier mode 1. The
flow commutes with translations and u_s does not see them, so the tolerance
does not depend on where the origin is. The Steiner point lies inside every
convex body, so u_s > 0 and rtol bounds the error at every node; |u| of a
body off the origin nears 0 at some nodes, where a bound relative to |u|
would shrink to atol and set the step. h changes only by factors on a fixed
lattice of quarter octaves, 2^(j/4), floored from the controller's proposal,
so rounding in the error estimate seldom moves h. After a rejection the
proposal is 0.9 err^(-1/7). After an accepted step it is the smaller of that
and Gustafsson's predictive factor (ACM TOMS 20, 1994),
0.9 err^(-1/7) (h / h_prev) (err_prev / err)^(1/7), from the last accepted
step the error set; where the error constant grows, as near extinction, the
prediction stops the steps from alternating between accepted and rejected.
Growth is capped at 4, and a step whose estimate is below 1e-8 grows by 4
with no prediction. rhs evaluates the same right-hand side for callers
outside the marcher.

run makes one flow_advance call. The marcher hands it, in time order, the
samples at fixed times or, without them, every accepted state; run keeps
every sample_every-th of those, and then the state where the march stopped,
unless it is the last row already. The march stops at t_end ("reached_end"),
after max_steps steps ("max_steps"), at the minimum-radius floor
("min_radius"), at a start that fails the convexity test ("non_convex") or
on step underflow ("step_underflow"), and returns which; every state it
records or stops at after the start has passed the convexity test, and the
work counts go to FlowTrace.stats. run then forms the diagnostic columns of
the rows in batches, with one batched entropy maximization per batch.

Samples at fixed times do not end steps; only t_end does. A sample inside an
accepted step from u_0 to u_1 comes from the step's continuous extension
(Hairer & Ostermann, Numer. Math. 58, 1990), built from the chains the step
has run, so a step with samples in it keeps the increments of its substeps.
The extension is the polynomial P(s) in the fraction s of the step with
P(0) = u_0, P'(0) = h f(u_0), P(1) = u_1 and, for k = 1 to 5,
P^(k)(1) = h^k r_k: r_k is the Aitken-Neville extrapolation in 1/j to 0 of
the k-th backward differences, over (h/j)^k, of the last k + 1 substep
states of the chains with j >= k, formed from the substep increments
(differences of states carry the rounding of the sums); r_1 extrapolates
j/h times each chain's last increment, as SEULEX's dense output does
(Hairer & Wanner, Solving ODEs II, IV.9). Each r_k is then O(h^(8 - k)) off
the true derivative, and P is of order 7, as the step is. The end slope is
not h f(u_1): that carries the node rounding of u_1 times the stiffest rate
of f, and every level of P would share it, so the error estimate below
could not see it (with h f(u_1), and steps up to h 0.99, the n 1024 tau run
below is 1.07e-12 off). P is linear in the kept increments with weights that
depend on s alone (_extension_tables), so each 16 of a step's samples and
probes cost one small matrix product and one batched irfft, and a step's
extension needs little memory beyond its samples' rows. Its error is
bounded: P_1 and P_2 extrapolate each derivative over one and two chains
fewer and leave out the top one and two conditions, so they are of orders 6
and 5. With d1 and d2 the largest |P - P_1| and |P_1 - P_2| of each node
over the step's samples and s = 1/4, 1/2 and 3/4, the error over the step is
estimated as d1 (d1 / d2)^(1/2): the levels' errors shrink by about d1 / d2
from one to the next, and the root hedges that ratio. Where d1 > d2 the
levels do not yet shrink, and the error can exceed d1 (on u' = 3u at h 0.4
d1 is 0.79 of the error, and the factor lifts the estimate to 1.19 times
it). Taken at each sample alone, the estimate reads far below the error
where P - P_1 changes sign (on u' = -u with h 0.4, 3.1e-5 of it at s 0.57).
Of the estimates either side of it, d1 alone overstates the error and costs
steps (an alpha 1/2 circle sampled every 0.05 to t 0.4 takes 18 steps and 12
sample rejections, against 17 and 11), and d1^2 / d2 understates it (the
same circle's samples then drift 1.1e-13 off the exact law, against
2.8e-14). A step whose estimate exceeds atol + rtol |u_s| at
one of its nodes is rejected and shortened like any other. W damps the top
Fourier modes of the increments, so the extension's rounding does not grow
with n. Against samples landed on at rtol 1e-14, a tau-gauge run of
seed:3,1e-3 at alpha 1/8 (t_end 2, samples every 0.01) is off by at most
1.2e-13 at n 512 and 1.6e-13 at n 1024, in 9 steps up to h 0.99 with no
sample rejection at both n (the reference takes 204), and an area-gauge
random body (n 256, same sampling) by 7.2e-13, in 172 steps (502 for the
reference).
"""

import bisect
import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._fmt import csv_table
from .entropy import entropy_rows
from .errors import BadConfig, NonConvex
from .geometry import (AngularGrid, SupportFunction, _about_steiner_point,
                       _area_weights, _curvature_radii, _nodal, _spectrum,
                       _strictly_convex, _symbols, radius_of_curvature,
                       require_convex)

_MODES = ("unnormalized", "normalized_tau", "normalized_area")

# size of the first step the controller tries; it adapts from there
FIRST_DT = 1e-4
# absolute floor of a run's error tolerance atol + rtol |u_s|
ATOL = 1e-15

# Substep counts of the chains of linearly implicit Euler steps whose
# increments the extrapolation combines, as a column of the chains' rows; at
# substep i the chains with j > i run on, rows _LIVE[i - 1] onwards.
_SEQ = (1, 2, 3, 4, 6, 8, 10)
_SEQ_COL = np.array(_SEQ, dtype=float)[:, None]
_LIVE = tuple(bisect.bisect_right(_SEQ, i) for i in range(1, _SEQ[-1]))
# A step with samples inside keeps the increment of each substep of each
# chain, packed by substep: those of substep i, from the chains with j >= i,
# are rows _KEPT[i - 1] onwards, the first from chain row _FIRST[i - 1]; 34
# in all.
_FIRST = (0,) + _LIVE
_KEPT = tuple(np.cumsum([0] + [len(_SEQ) - lo for lo in _FIRST]).tolist())
# Aitken-Neville divisors n_i / n_i-k - 1 of the extrapolation's level k
_NEVILLE_DEN = tuple(_SEQ_COL[k:] / _SEQ_COL[:-k] - 1.0 for k in range(1, len(_SEQ)))
# the continuous extension matches the derivatives of orders 2 to _DENSE_TOP
# at the step's end; its two lower levels, which bound its error, stop one
# and two orders below
_DENSE_TOP = 5
# fractions 1 - s of a step, s = 1/4, 1/2 and 3/4, at which its extension's
# error is probed besides the samples
_PROBES = np.array([0.75, 0.5, 0.25])
# fractions of a step at which its extension is formed in one batch, so that
# its temporaries do not grow with the samples the step holds
_EXTENSION_ROWS = 16

# rows of a run's trace whose diagnostics are formed in one batch
_DIAGNOSTIC_ROWS = 32

# W's coefficient c is max(a), a = alpha w^(-1 - alpha) at the step's start,
# while min(a) >= _W_SPREAD max(a), and _W_DAMPED max(a) otherwise (see the
# module docstring)
_W_SPREAD = 0.9
_W_DAMPED = 0.75

# Factors by which the controller changes h: quarter octaves 2^(j/4) from
# below its 0.1 floor on a rejection up to its growth cap of 4.
_STEP_RATIOS = tuple(2.0 ** (j / 4) for j in range(-14, 9))
# exponent of the controller: the error estimate is O(h^7)
_EXPONENT = -1.0 / 7.0


@dataclass
class FlowStats:
    """Work counts of the step controller, summed over the calls it is given to.

    Each accepted step is counted under the one cap that set its size: the
    error controller ("error") or the landing on t_limit ("landing"), which
    is t_end in a run (samples do not end steps, nor does max_steps); h_min
    and h_max are its extremes (None before the first). A step is rejected
    for one reason: a substep state or its end state u_1 failed the
    convexity test, the error estimate was above tolerance, or the estimated
    error of the continuous extension of a step with samples inside was
    above tolerance (see the module docstring). rhs_evals counts the states
    at which the marcher evaluates the RHS, however the march ends: 1 for k1
    at the start, 28 per accepted step in 10 calls (27 substep states and
    f(u_1), the next step's k1), 27 per error rejection, 28 per sample
    rejection and at most 28 per convexity rejection (k1 is reused).
    dense_evals counts the continuous extensions formed: one per step with
    samples inside it whose end state passes the error and convexity tests,
    accepted or rejected by the sample bound. w_damped counts the accepted
    steps whose W took 3/4 of the largest coefficient, as a body whose
    coefficients spread by more than 10% does (see the module docstring);
    it is a count only, which the rule does not read. entropy_evals sums the
    evaluations of the entropy maximizations of a run's rows (0 when run
    does not log the entropy).
    """

    accepted: int = 0
    rejected_error: int = 0  # error estimate above tolerance
    rejected_convexity: int = 0  # a substep state or u_1 failed the convexity test
    rejected_sample: int = 0  # a sample's estimated error above tolerance
    rhs_evals: int = 0  # states, so a batched call counts each of its rows
    cap_error: int = 0
    cap_landing: int = 0
    h_min: float | None = None
    h_max: float | None = None
    dense_evals: int = 0
    w_damped: int = 0  # accepted steps whose W took the damped coefficient
    entropy_evals: int = 0

    def count_step(self, cap, h):
        """Count an accepted step of size h.

        cap names the limit that set h: "error" or "landing".
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
    """m of the area gauge at the spectral states z, rows of them, whose
    radii of curvature are w and speeds w^-alpha are speed:
    m = sum(w^(1 - alpha)) / Q with Q = sum(u w), from z by Parseval, which is
    mean(w^(1 - alpha)) pi / A(u), so that
    dA/dtau = 2 A - (2 pi / m) mean(w^(1 - alpha)) = 0."""
    zv = z.view(float)
    q = np.einsum("...j,...j,j->...", zv, zv, _area_weights(w.shape[-1]))[..., None]
    return np.einsum("...j,...j->...", w, speed)[..., None] / q


def _flow_rhs(z, alpha, mode, stats):
    """Flow right-hand side at the spectral state z (see _spectrum); returns
    (f, w), f spectral like z and w = u_thth + u at the nodes.

    z is one state or a stack of states in its rows, each taken on its own.
    f is None when some row fails geometry's convexity test, as every
    non-finite row does.
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
    return z - f / _area_gauge(z, w, speed), w


def rhs(u: SupportFunction, alpha, mode) -> np.ndarray:
    """Right-hand side of the flow in the given gauge at u, as the marcher forms it."""
    if mode not in _MODES:
        raise BadConfig(f"unknown mode {mode!r}")
    require_convex(u.values)
    du, _ = _flow_rhs(_spectrum(u.values), alpha, mode, FlowStats())
    return _nodal(du)


def _chain_increments(z, h, k1, coeff, alpha, mode, stats, states=None):
    """Spectral increments T_j, one row per j in _SEQ, of j linearly implicit
    Euler substeps of size h/j from the spectral state z; None on convexity
    loss.

    A substep from z + d adds (h/j) f(z + d) / (1 + (h/j) c max(m^2 - 1, 0)),
    a solve with W = I - (h/j) c P (d_thth + 1), which is 1 on the mean
    column; coeff is c, the largest coefficient of the flow's Jacobian or
    3/4 of it (see the module docstring). The chains share k1 = f(z), and
    the i-th substeps of the chains still running are the rows of one RHS
    call: 27 states in 9 calls besides k1. states, when given, receives the
    increment of every substep, packed as _KEPT says, in its first
    _KEPT[-1] rows.
    """
    _, msq = _symbols(2 * z.shape[-1] - 4)
    hj = h / _SEQ_COL
    inv_w = 1.0 / (1.0 + (hj * coeff) * msq)
    d = (hj * k1) * inv_w
    if states is not None:
        states[:len(_SEQ)] = d
    for i, lo in enumerate(_LIVE, 1):
        k, _ = _flow_rhs(z + d[lo:], alpha, mode, stats)
        if k is None:
            return None
        step = (hj[lo:] * k) * inv_w[lo:]
        d[lo:] += step
        if states is not None:
            states[_KEPT[i]:_KEPT[i + 1]] = step
    return d


def _extrapolate(t):
    """(T_77 - T_76, T_77) from the increments t (rows T_j, j in _SEQ, which
    are overwritten) by the Aitken-Neville tableau in 1/j: level k adds to
    each T_i,k the difference T_i,k - T_i-1,k over n_i / n_i-k - 1."""
    for k, den in enumerate(_NEVILLE_DEN, 1):
        corr = (t[k:] - t[k - 1:-1]) / den
        t[k:] += corr
    return corr[0], t[-1]


@functools.cache
def _extension_tables():
    """Coefficients, over the powers v^0 .. v^7 of v = 1 - s, of the
    continuous extensions Q_0, Q_0 - Q_1 and Q_1 - Q_2 of a step (see the
    module docstring), as linear maps of its stacked states: the substep
    increments, packed as _KEPT says, then h k1 and the step's increment.
    Built on first use.

    Q_L = P_L - u_0 = sum_k a_k (-v)^k / k! + x v^m - y v^(m + 1), with
    top = _DENSE_TOP - L and m = top + 1, is the Taylor polynomial at the
    step's end of the derivatives a_k there, plus the two terms whose x and
    y set Q(0) = 0 and Q'(0) = h k1. a_0 is the step's increment, and a_k
    for k >= 1 is the Aitken-Neville extrapolation in 1/j to 0 of j^k times
    the k-th backward differences of the last k + 1 substep states of the
    chains with j >= k, leaving out the L shortest; a k-th difference of
    states is the (k-1)-th difference of the last k increments, so a_1
    extrapolates j times each chain's last increment. Read-only, as they are
    shared.
    """
    n_kept = _KEPT[-1]
    k1_col, du_col = n_kept, n_kept + 1
    levels = []
    for level in range(3):
        top = _DENSE_TOP - level
        m = top + 1
        # conditions a_0 .. a_top and h k1 from the states
        cond = np.zeros((top + 2, n_kept + 2))
        cond[0, du_col] = cond[top + 1, k1_col] = 1.0
        for kappa in range(1, top + 1):
            chains = [r for r, j in enumerate(_SEQ) if j >= kappa][level:]
            for r in chains:
                j = _SEQ[r]
                weight = j ** kappa * math.prod(j / (j - _SEQ[q]) for q in chains if q != r)
                for back in range(kappa):
                    i = j - back - 1  # 0-based substep
                    cond[kappa, _KEPT[i] + r - _FIRST[i]] += \
                        weight * (-1) ** back * math.comb(kappa - 1, back)
        # powers of v from the conditions; x and y follow from T(0) and
        # T'(0), the Taylor polynomial at the end and its slope, both taken
        # at the start
        t0 = np.array([(-1.0) ** k / math.factorial(k) for k in range(top + 1)])
        t1 = np.append(0.0, t0[:-1])
        powers = np.zeros((_DENSE_TOP + 3, top + 2))
        powers[:top + 1, :top + 1] = np.diag(t0)
        powers[m, :top + 1] = -t1 - (m + 1) * t0
        powers[m + 1, :top + 1] = t1 + m * t0
        powers[m, top + 1], powers[m + 1, top + 1] = 1.0, -1.0
        levels.append(powers @ cond)
    q0, q1, q2 = levels
    tables = np.stack((q0, q0 - q1, q1 - q2))
    tables.flags.writeable = False
    return tables


def _extension(v, states):
    """Rows Q_0, Q_0 - Q_1 and Q_1 - Q_2 of a step's continuous extension
    (see _extension_tables) at the fractions 1 - v of the step, as stacks of
    rows like the step's stacked states, states (complex, rows along the
    first axis): one matrix product."""
    weights = (v[:, None] ** np.arange(_DENSE_TOP + 3)) @ _extension_tables()
    rows = weights.reshape(-1, weights.shape[-1]) @ states.view(float)
    return rows.view(complex).reshape(weights.shape[:2] + states.shape[1:])


def _extension_estimate(d1, d2):
    """The estimated error of the continuous extension Q_0 over a step, node
    by node, from the differences d1 = Q_0 - Q_1 and d2 = Q_1 - Q_2 of its
    levels at fractions of the step, rows along the first axis: with D1 and
    D2 the largest |d1| and |d2| of each node, D1 (D1 / D2)^(1/2), and 0
    where D1 is 0."""
    d1, d2 = np.abs(d1).max(axis=0), np.abs(d2).max(axis=0)
    return d1 * np.sqrt(d1 / np.maximum(d2, np.finfo(float).tiny))


def _ratio_floor(x):
    """The largest of _STEP_RATIOS not above x, for x >= _STEP_RATIOS[0]."""
    return _STEP_RATIOS[bisect.bisect_right(_STEP_RATIOS, x) - 1]


def flow_advance(u, t, h, t_limit, alpha, mode, rtol, atol, stop_min_radius,
                 stats, max_steps=math.inf, sample_times=None, record=None):
    """Advance the flow state u in place until t_limit or a stop, recording
    the states of the march on the way.

    Each step extrapolates the chains of 1, 2, 3, 4, 6, 8 and 10 linearly
    implicit Euler substeps (see the module docstring) to an order-7 step,
    and estimates its error by T_77 - T_76. The substeps run as rows of
    batched RHS calls in Fourier space, so an accepted step evaluates the RHS
    at 28 states in 10 calls and makes 22 FFT calls. After each step the
    controller's factor, 0.9 err^(-1/7) or, after an accepted step, the
    smaller of that and Gustafsson's prediction, is floored onto
    _STEP_RATIOS, quarter octaves from below 0.1 to 4. A step is rejected
    when a substep state or its end state u_1 fails the convexity test (and
    retried at h/4), when the error estimate is above tolerance or not
    finite, or when the estimated error of its continuous extension is above
    tolerance over a step with samples inside it. The tolerance at each node
    is atol + rtol |u_s|, with u_s the support function about the Steiner
    point of the step's start (see the module docstring); it is positive for
    a convex body wherever the origin is, so rtol bounds the error at every
    node. Counts go to stats (a FlowStats).

    Every step that passes the error and convexity tests forms its end
    state u_1 and f(u_1), the next step's k1, and is accepted the same way:
    with sample_times, ascending times in (t, t_limit), record(t_r, v)
    receives the state at each sample inside the step, from its continuous
    extension (steps do not end on them; see the module docstring), and
    nothing when the list is empty; with sample_times None it receives u_1.
    Nothing of a rejected step is recorded, so every state recorded or
    stopped at after the start has passed the test.

    Returns (status, t, h_next): u is the state at time t, where the march
    stopped; status is "reached_end" (t is t_limit, or the start when that
    is not before t_limit), "max_steps", "min_radius", "non_convex" (u fails
    the convexity test at the start, and t is the start) or
    "step_underflow".
    """
    n_acc = 0
    every_state = sample_times is None
    sample_times = () if every_state else sample_times
    i_s = 0  # index of the next sample time
    if t >= t_limit:
        return "reached_end", t, h
    # the spectrum z of u and k1 = f(u), spectral
    z = _spectrum(u)
    k1, w = _flow_rhs(z, alpha, mode, stats)
    if k1 is None:
        return "non_convex", t, h
    # (h, error) of the last accepted step whose error estimate reached
    # 1e-8, for the predictive controller
    last = None
    # a step with samples inside keeps its substep increments, then h k1
    # and its own increment, for its extension; every such step writes the
    # same entries, so one array serves them all
    states = np.zeros((_KEPT[-1] + 2, z.shape[-1]), dtype=complex)
    while True:
        if w.min() < stop_min_radius:
            return "min_radius", t, h
        # W's coefficient (see the module docstring) and the error scale of u
        a = w ** (-alpha - 1.0)
        a_max = a.max()
        damped = bool(a.min() < _W_SPREAD * a_max)
        coeff = alpha * a_max * (_W_DAMPED if damped else 1.0)
        if mode == "normalized_area":
            coeff = coeff / _area_gauge(z, w, w ** -alpha).item()
        escale = atol + rtol * np.abs(_about_steiner_point(u))
        while True:
            # the landing step is clamped for output only; the controller
            # keeps proposing from the unclamped step
            landing = t + h >= t_limit
            h_step = t_limit - t if landing else h
            if h_step <= 1e-14 * max(1.0, abs(t)):
                if landing:
                    return "reached_end", t_limit, h
                return "step_underflow", t, h_step
            t_next = t_limit if landing else t + h_step
            j_s = bisect.bisect_right(sample_times, t_next, lo=i_s)
            sampled = j_s > i_s
            chains = _chain_increments(z, h_step, k1, coeff, alpha, mode, stats,
                                       states if sampled else None)
            if chains is not None:
                err, dz = _extrapolate(chains)
                # the error and the step return to the nodes in one batched irfft
                err, du = _nodal(np.stack((err, dz)))
                enorm = (np.abs(err) / escale).max()
                if not np.isfinite(enorm):
                    enorm = 10.0
                if enorm > 1.0:
                    stats.rejected_error += 1
                    h = h_step * _ratio_floor(max(0.9 * enorm ** _EXPONENT, 0.1))
                    continue
                u1 = u + du
                z1 = _spectrum(u1)
                f1, w1 = _flow_rhs(z1, alpha, mode, stats)
            if chains is None or f1 is None:
                # a substep state or u_1 failed the convexity test
                stats.rejected_convexity += 1
                h = 0.25 * h_step
                continue
            if not sampled:
                break
            # samples inside the step: the continuous extension, whose
            # estimated error is bounded over the step, formed
            # _EXTENSION_ROWS fractions at a time; of each block the
            # samples' rows of Q_0 are kept, and of d1 and d2 only the node
            # maxima of |d1| and |d2|, which are all the estimate reads
            states[-2:] = h_step * k1, dz
            v = np.append((t_next - np.array(sample_times[i_s:j_s])) / h_step, _PROBES)
            ext = np.empty((j_s - i_s, u.shape[-1]))
            peaks = np.zeros((2, u.shape[-1]))
            for lo in range(0, len(v), _EXTENSION_ROWS):
                levels = _nodal(_extension(v[lo:lo + _EXTENSION_ROWS], states))
                kept = ext[lo:lo + _EXTENSION_ROWS]
                kept[:] = levels[0, :len(kept)]
                np.maximum(peaks, np.abs(levels[1:]).max(axis=1), out=peaks)
            stats.dense_evals += 1
            ratio = (_extension_estimate(peaks[:1], peaks[1:]) / escale).max()
            if ratio <= 1.0:
                break
            stats.rejected_sample += 1
            h = h_step * _ratio_floor(max(0.9 * ratio ** _EXPONENT, 0.1))

        n_acc += 1
        stats.count_step("landing" if landing else "error", h_step)
        stats.w_damped += damped
        if record is not None:
            if sampled:
                ext += u
                for t_s, row in zip(sample_times[i_s:j_s], ext):
                    record(t_s, u1 if t_s == t_next else row)
            elif every_state:
                record(t_next, u1)
        i_s = j_s
        u[:] = u1
        z, k1, w = z1, f1, w1
        t = t_next
        if landing:
            return "reached_end", t, h
        # factors from one lattice: rounding in the error estimate then
        # seldom changes the step sequence
        if enorm < 1e-8:
            fac, last = 4.0, None
        else:
            fac = min(0.9 * enorm ** _EXPONENT, 4.0)
            if last is not None:
                # Gustafsson's prediction from the trend of err / h^7
                h_last, e_last = last
                fac = min(fac, 0.9 * enorm ** _EXPONENT * (h_step / h_last)
                          * (enorm / e_last) ** _EXPONENT)
            fac, last = _ratio_floor(max(fac, 0.1)), (h_step, enorm)
        h = h_step * fac
        if n_acc >= max_steps:
            return "max_steps", t, h


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


# A run's rows and its work counts. run is the one producer; the CLI writes
# the rows to trace.csv and snapshots.npy, and its modes command reads back
# only the times and the snapshots (cli._trace_from_dir).
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
    stats: FlowStats

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
    if config.sample_dt is not None:
        # run lists the sample times up to t_end
        if not (math.isfinite(config.sample_dt) and config.sample_dt > 0.0):
            raise BadConfig(f"sample_dt must be finite and positive, "
                            f"got {config.sample_dt}")
        if not math.isfinite(config.t_end):
            raise BadConfig(f"t_end must be finite to sample by sample_dt, "
                            f"got {config.t_end}")
    if not (math.isfinite(config.rtol) and config.rtol >= 0.0):
        raise BadConfig(f"rtol must be finite and >= 0, got {config.rtol}")
    # a NaN or negative floor never stops the march
    if not config.stop_min_radius >= 0.0:
        raise BadConfig(f"stop_min_radius must be >= 0, got {config.stop_min_radius}")
    if config.max_steps < 1:
        raise BadConfig("max_steps must be >= 1")
    try:
        require_convex(config.initial.values)
    except NonConvex as exc:
        raise BadConfig(f"initial support function is not strictly convex: {exc}")


def run(config: FlowConfig) -> FlowTrace:
    """Integrate the configured flow. The rows are the start, the samples
    at multiples of sample_dt or else every sample_every-th accepted state,
    and the state where the march stopped, unless it is the last row
    already; their diagnostic columns follow from the states, formed in
    batches of _DIAGNOSTIC_ROWS rows."""
    _validate(config)
    grid = config.initial.grid
    u = config.initial.values.copy()
    stats = FlowStats()
    times, snaps = [0.0], [u.copy()]
    sample_times = None
    every = config.sample_every
    if config.sample_dt is not None:
        sample_times = []
        # exact multiples keep the sample spacing uniform to rounding; a
        # final sliver shorter than a quarter interval is absorbed into t_end
        dt = config.sample_dt
        while (len(sample_times) + 1) * dt <= config.t_end - 0.25 * dt:
            sample_times.append((len(sample_times) + 1) * dt)
        every = 1

    seen = itertools.count(1)

    def record(t_now, values):
        if next(seen) % every == 0:
            times.append(t_now)
            snaps.append(values.copy())

    reason, t_stop, _ = flow_advance(
        u, 0.0, FIRST_DT, config.t_end, config.alpha, config.mode, config.rtol,
        ATOL, config.stop_min_radius, stats, config.max_steps, sample_times, record)
    if t_stop != times[-1]:
        times.append(t_stop)
        snaps.append(u.copy())

    snapshots = np.array(snaps)
    snaps.clear()  # the row copies go before the batches need room
    # area, length, min and max curvature and entropy of each row
    cols = np.full((5, len(snapshots)), math.nan)
    for lo in range(0, len(snapshots), _DIAGNOSTIC_ROWS):
        rows = snapshots[lo:lo + _DIAGNOSTIC_ROWS]
        w = radius_of_curvature(rows)
        part = cols[:, lo:lo + _DIAGNOSTIC_ROWS]
        part[0] = 0.5 * grid.dtheta * np.sum(rows * w, axis=-1)
        part[1] = grid.dtheta * np.sum(w, axis=-1)
        part[2] = 1.0 / np.max(w, axis=-1)
        part[3] = 1.0 / np.min(w, axis=-1)
        if config.log_entropy:
            results = entropy_rows(rows, config.alpha)
            part[4] = [r.value for r in results]
            stats.entropy_evals += sum(r.evaluations for r in results)
    area_col, length_col, min_curv, max_curv, entropy_col = cols
    return FlowTrace(
        alpha=config.alpha, mode=config.mode, grid=grid,
        times=np.array(times), area=area_col, length=length_col,
        iso_ratio=area_col / length_col ** 2, min_curvature=min_curv,
        max_curvature=max_curv, entropy=entropy_col, snapshots=snapshots,
        terminal_reason=reason, n_steps=stats.accepted, stats=stats)


def trace_to_csv(trace: FlowTrace) -> str:
    return csv_table(
        ("time", "area", "length", "iso_ratio", "min_curv", "max_curv", "entropy"),
        (trace.times, trace.area, trace.length, trace.iso_ratio,
         trace.min_curvature, trace.max_curvature, trace.entropy))
