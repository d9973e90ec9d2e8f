"""Neutral-mode dynamics of near-circular flows at alpha = 1/(k^2 - 1).

At these powers the circle's linearization has the two-dimensional kernel
spanned by cos(k theta), sin(k theta). Writing v = u - 1 with Fourier
coefficients A_m, B_m, the neutral energy rho = A_k^2 + B_k^2 and the cubic
invariant Q = (A_k^2 - B_k^2) A_2k + 2 A_k B_k B_2k obey closed asymptotic
ODEs whose coefficients collapse, after adiabatic elimination of A_0 and Q,
to the single constant

    d rho / d tau = C(k) rho^2,   C(k) = k^2 (4 - k^2) / 6.

track_modes extracts the coefficients from a run's sample times and rows of
support values into a ModeTrace. It takes a run as those arrays, from
flow.run or read back by the CLI, so it does not depend on the flow module.
Two passes then measure the trace, each on its own window of rows:

- ode_terms, on the rows where rho stays within a factor two of its start,
  gives each asymptotic ODE's measured derivative and model; residuals
  reduces them to one number per ODE, scaled by the power of rho in LINEAR
  or NEUTRAL;
- quasi_steady, on the rows past the transient of the 2k-th mode, measures
  the effective rho-decay constant and the deviations of A_0 and Q from
  their adiabatic values.

report forms the modes command's record and its residuals.json from the two
passes, and records the error of a pass whose window the run lacks.

The constant mode of the exponentially-renormalized gauge is unstable with
rate 1 + alpha, so data initialized off the quasi-steady manifold drifts out
of the asymptotic regime within a few time units; quasi_steady_seed builds
initial data on the manifold (A_0 = rho/(4 alpha), A_2k pinned likewise) for
quantitative runs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._fmt import csv_table
from .errors import AcsflowError, AlphaMismatch, BadConfig, TooLarge
from .geometry import AngularGrid, SupportFunction, _fourier_coefficients
from .shrinker import check_fold

RHO_SMALLNESS = 1e-2
TRANSIENT_RULE = 5.0  # quasi-steady once lambda_2k * tau exceeds this


def alpha_for_fold(k) -> float:
    check_fold(k)
    return 1.0 / (k * k - 1.0)


def _lambda_2k(alpha, k):
    """The decay rate of the 2k-th mode of the circle's linearization."""
    return alpha * (4.0 * k * k - 1.0) - 1.0


@dataclass(frozen=True)
class ModeTrace:
    k: int
    alpha: float
    tau: np.ndarray
    a0: np.ndarray  # constant Fourier mode of v = u - 1
    a: np.ndarray = field(repr=False)  # (rows, m_max), a[:, m-1] is A_m
    b: np.ndarray = field(repr=False)

    @property
    def a_k(self):
        return self.a[:, self.k - 1]

    @property
    def b_k(self):
        return self.b[:, self.k - 1]

    @property
    def a_2k(self):
        return self.a[:, 2 * self.k - 1]

    @property
    def b_2k(self):
        return self.b[:, 2 * self.k - 1]

    @property
    def rho(self):
        return self.a_k**2 + self.b_k**2

    @property
    def q(self):
        return (self.a_k**2 - self.b_k**2) * self.a_2k + 2.0 * self.a_k * self.b_k * self.b_2k


def track_modes(times, rows, alpha, mode, k, m_max=None) -> ModeTrace:
    """Fourier coefficients of v = u - 1 along a renormalized-gauge run, given
    by its sample times, its rows of support values (an array of shape
    (len(times), n), the nodes of an AngularGrid(n)), its alpha and its
    gauge."""
    alpha_k = alpha_for_fold(k)
    if abs(alpha - alpha_k) > 1e-14:
        raise AlphaMismatch(
            f"trace alpha {alpha!r} is not 1/(k^2-1) = {alpha_k!r} for k = {k}")
    if mode != "normalized_tau":
        raise BadConfig(f"mode tracking expects a normalized_tau trace, got {mode!r}")
    if len(rows) != len(times):
        raise BadConfig(f"{len(rows)} rows of support values for {len(times)} sample times")
    dts = np.diff(times)
    if len(dts) < 4:
        raise BadConfig("trace too short to track modes")
    # written to fail on a NaN time as well
    if not (np.all(np.abs(dts - dts[0]) <= 1e-9) and 0.0 < dts[0] <= 0.01 + 1e-12):
        raise BadConfig("mode tracking needs rows evenly spaced at most 0.01 apart, as a "
                        "sample_dt run with t_end a multiple of sample_dt writes them")
    if m_max is None:
        m_max = max(2 * k, 8)
    if m_max < 2 * k:
        raise BadConfig(f"m_max must reach the 2k-th mode, got {m_max} < {2 * k}")
    n = rows.shape[-1]
    if m_max >= n // 2:
        raise BadConfig(f"m_max must lie below n/2 = {n // 2}, got {m_max}")

    a0, a, b = _fourier_coefficients(rows, m_max)
    return ModeTrace(k=int(k), alpha=alpha_k, tau=np.array(times), a0=a0 - 1.0, a=a, b=b)


def cstar(k) -> float:
    """The rho-decay constant k^2 (4 - k^2)/6."""
    check_fold(k)
    return k * k * (4 - k * k) / 6


def _fd4(y, dt):
    """Fourth-order centered derivative; endpoints are left as nan."""
    d = np.full(len(y), np.nan)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dt)
    return d


def _stencil_rows(good, what):
    """Indices of the true rows of good, less the 2 at each end that the
    centered-difference stencil needs; TooLarge, saying what is too short,
    when fewer than 5 remain."""
    good[:2] = False
    good[-2:] = False
    idx = np.nonzero(good)[0]
    if len(idx) < 5:
        raise TooLarge(what)
    return idx


# the power of rho that scales each residual: the terms an ODE neglects are
# one power of sqrt(rho) below it, so each residual shrinks like sqrt(rho)
LINEAR = {"A0": 1.0, "A2k": 1.0, "B2k": 1.0}
NEUTRAL = {"Ak": 1.5, "Bk": 1.5, "rho": 2.0, "Q": 2.0}


def ode_terms(mt: ModeTrace):
    """(idx, terms): the rows with rho within a factor two of its starting
    value, interior to the centered-difference stencil, and for each
    asymptotic ODE its measured derivative and its model on those rows.

    The driven linear ODEs are those of A_0, A_2k, B_2k, the cubic ones those
    of A_k, B_k, rho, Q. The rho derivative is chained from the A_k, B_k
    derivatives, which makes the rho residual identically
    2 A_k res(A_k) + 2 B_k res(B_k)."""
    rho = mt.rho
    if np.max(rho) >= RHO_SMALLNESS:
        raise TooLarge(f"max rho = {np.max(rho):.2e} violates the smallness bound")
    idx = _stencil_rows((rho >= 0.5 * rho[0]) & (rho <= 2.0 * rho[0]),
                        "fewer than 5 usable rows in the rho window")
    al, k, dt = mt.alpha, mt.k, float(mt.tau[1] - mt.tau[0])
    lam2k = _lambda_2k(al, k)
    ak, bk, a2k, b2k, a0, q = mt.a_k, mt.b_k, mt.a_2k, mt.b_2k, mt.a0, mt.q
    one = 1.0 + al
    c4 = one / (4.0 * al)
    cross = one * (1.0 - 4.0 * k * k) / 2.0
    cubic = one * (al + 2.0) / (8.0 * al * al)
    dak, dbk = _fd4(ak, dt), _fd4(bk, dt)
    terms = {
        "A0": (_fd4(a0, dt), one * a0 - c4 * rho),
        "A2k": (_fd4(a2k, dt), -lam2k * a2k - c4 * (ak**2 - bk**2)),
        "B2k": (_fd4(b2k, dt), -lam2k * b2k - 2.0 * c4 * ak * bk),
        "Ak": (dak, one * a0 * ak + cross * (ak * a2k + bk * b2k) - cubic * ak * rho),
        "Bk": (dbk, one * a0 * bk + cross * (-bk * a2k + ak * b2k) - cubic * bk * rho),
        "rho": (2.0 * ak * dak + 2.0 * bk * dbk,
                one * (2.0 * a0 * rho + (1.0 - 4.0 * k * k) * q
                       - (al + 2.0) / (4.0 * al * al) * rho**2)),
        "Q": (_fd4(q, dt),
              -lam2k * q - c4 * rho**2 + 2.0 * one * a0 * q
              + one * (1.0 - 4.0 * k * k) * rho * (a2k**2 + b2k**2)
              - one * (al + 2.0) / (4.0 * al * al) * rho * q),
    }
    return idx, {name: (lhs[idx], model[idx]) for name, (lhs, model) in terms.items()}


def residuals(mt: ModeTrace):
    """(rows used, {name: residual}): the largest |derivative - model| of
    each ODE on ode_terms' rows, over rho to its power in LINEAR or NEUTRAL."""
    idx, terms = ode_terms(mt)
    rho, power = mt.rho[idx], {**LINEAR, **NEUTRAL}
    return len(idx), {name: float(np.max(np.abs((lhs - model) / rho ** power[name])))
                      for name, (lhs, model) in terms.items()}


def quasi_steady(mt: ModeTrace):
    """On the post-transient rows, lambda_2k * tau > 5 interior to the
    stencil: measured_rho_rate, the least-squares slope of rho over the mean
    of rho^2 (regression keeps rounding noise far below a pointwise
    derivative's at small amplitudes), and a0_max_dev and q_max_dev, the
    largest relative deviations of A_0 and Q from their adiabatic values."""
    lam2k = _lambda_2k(mt.alpha, mt.k)
    idx = _stencil_rows(lam2k * mt.tau > TRANSIENT_RULE,
                        "trace too short for the post-transient window")
    al, tau, rho, q = mt.alpha, mt.tau[idx], mt.rho[idx], mt.q[idx]
    a0_target = rho / (4.0 * al)
    q_target = -(al + 1.0) / (4.0 * al * lam2k) * rho**2
    return {
        "measured_rho_rate": float(np.polyfit(tau, rho, 1)[0]) / float(np.mean(rho)) ** 2,
        "a0_max_dev": float(np.max(np.abs(mt.a0[idx] - a0_target) / a0_target)),
        "q_max_dev": float(np.max(np.abs(q - q_target) / np.abs(q_target))),
    }


def report(mt: ModeTrace):
    """(record, residuals.json) of the modes command. The residuals need rho
    below RHO_SMALLNESS and the rate a post-transient window; a report that
    cannot be formed gives its place to the first such error."""
    head = {"k": mt.k, "alpha": mt.alpha, "cstar": cstar(mt.k)}
    record, reports = dict(head, rows=len(mt.tau)), {}
    try:
        rows_used, res = residuals(mt)
        for name, powers in (("linear", LINEAR), ("neutral", NEUTRAL)):
            reports[name] = {"k": mt.k, "alpha": mt.alpha, "rows_used": rows_used,
                             "entries": {e: {"residual": res[e], "scale_power": p}
                                         for e, p in powers.items()}}
        record["residual_rho"] = res["rho"]
    except AcsflowError as exc:
        reports["error"] = str(exc)
    try:
        qs = quasi_steady(mt)
        rate = record["measured_rho_rate"] = qs.pop("measured_rho_rate")
        record["rel_error"] = abs(rate - head["cstar"]) / abs(head["cstar"])
        reports["quasi_steady"] = qs
    except AcsflowError as exc:
        record["measured_rho_rate"] = None
        reports.setdefault("error", str(exc))
    return record, dict(head, measured_rho_rate=record["measured_rho_rate"], reports=reports)


def quasi_steady_seed(grid: AngularGrid, k, eps, phase=0.0) -> SupportFunction:
    """Circle plus a k-fold neutral perturbation seated on the quasi-steady
    manifold (A_0 and the 2k-modes at their adiabatic values), so a forward
    run stays in the asymptotic regime instead of riding the unstable
    constant mode."""
    al = alpha_for_fold(k)
    lam2k = _lambda_2k(al, k)
    ak = eps * math.cos(k * phase)
    bk = eps * math.sin(k * phase)
    rho = eps * eps
    a0 = rho / (4.0 * al)
    a2k = -(al + 1.0) / (4.0 * al * lam2k) * (ak * ak - bk * bk)
    b2k = -(al + 1.0) / (2.0 * al * lam2k) * ak * bk
    th = grid.nodes
    vals = (1.0 + a0 + ak * np.cos(k * th) + bk * np.sin(k * th)
            + a2k * np.cos(2 * k * th) + b2k * np.sin(2 * k * th))
    return SupportFunction(grid, vals)


def mode_trace_to_csv(mt: ModeTrace) -> str:
    header = ["tau", "A0"]
    columns = [mt.tau, mt.a0]
    for m in range(1, mt.a.shape[1] + 1):
        header.extend((f"A{m}", f"B{m}"))
        columns.extend((mt.a[:, m - 1], mt.b[:, m - 1]))
    return csv_table(header + ["rho", "Q"], columns + [mt.rho, mt.q])
