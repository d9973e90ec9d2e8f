"""Neutral-mode dynamics of near-circular flows at alpha = 1/(k^2 - 1).

At these powers the circle's linearization has the two-dimensional kernel
spanned by cos(k theta), sin(k theta). Writing v = u - 1 with Fourier
coefficients A_m, B_m, the neutral energy rho = A_k^2 + B_k^2 and the cubic
invariant Q = (A_k^2 - B_k^2) A_2k + 2 A_k B_k B_2k obey closed asymptotic
ODEs whose coefficients collapse, after adiabatic elimination of A_0 and Q,
to the single constant

    d rho / d tau = C(k) rho^2,   C(k) = k^2 (4 - k^2) / 6.

This module extracts the coefficients from a run's sample times and rows of
support values, forms the residuals of each asymptotic ODE, checks the
quasi-steady relations, and measures the effective rho-decay constant. It
takes a run as those arrays, from flow.run or read back by the CLI, so it
does not depend on the flow module.

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
from .errors import AlphaMismatch, BadConfig, TooLarge
from .geometry import AngularGrid, SupportFunction, _fourier_coefficients
from .shrinker import check_fold

RHO_SMALLNESS = 1e-2
TRANSIENT_RULE = 5.0  # quasi-steady once lambda_2k * tau exceeds this


def alpha_for_fold(k) -> float:
    check_fold(k)
    return 1.0 / (k * k - 1.0)


@dataclass(frozen=True)
class ModeTrace:
    k: int
    alpha: float
    tau: np.ndarray
    a0: np.ndarray  # constant Fourier mode of v = u - 1
    a: np.ndarray = field(repr=False)  # (rows, m_max), a[:, m-1] is A_m
    b: np.ndarray = field(repr=False)

    @property
    def m_max(self):
        return self.a.shape[1]

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

    @property
    def dtau(self):
        return float(self.tau[1] - self.tau[0])

    @property
    def lambda_2k(self):
        return self.alpha * (4.0 * self.k**2 - 1.0) - 1.0


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
    if np.max(np.abs(dts - dts[0])) > 1e-9 or dts[0] > 0.01 + 1e-12:
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


@dataclass(frozen=True)
class ResidualEntry:
    name: str
    lhs: np.ndarray  # measured time derivative on the window
    rhs: np.ndarray  # asymptotic model built from trace data
    scale: np.ndarray  # rho^p normalization
    scale_power: float

    @property
    def normalized(self):
        return (self.lhs - self.rhs) / self.scale

    @property
    def residual(self):
        return float(np.max(np.abs(self.normalized)))


@dataclass(frozen=True)
class ResidualReport:
    k: int
    alpha: float
    window: np.ndarray  # row indices used
    entries: dict

    def residual(self, name):
        return self.entries[name].residual

    def to_json_dict(self):
        return {
            "k": self.k,
            "alpha": self.alpha,
            "rows_used": int(len(self.window)),
            "entries": {
                name: {"residual": e.residual, "scale_power": e.scale_power}
                for name, e in self.entries.items()
            },
        }


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


def _window(mt: ModeTrace):
    """Rows with rho within a factor two of its starting value, interior to
    the centered-difference stencil."""
    rho = mt.rho
    if np.max(rho) >= RHO_SMALLNESS:
        raise TooLarge(f"max rho = {np.max(rho):.2e} violates the smallness bound")
    return _stencil_rows((rho >= 0.5 * rho[0]) & (rho <= 2.0 * rho[0]),
                         "fewer than 5 usable rows in the rho window")


def residual_linear_modes(mt: ModeTrace) -> ResidualReport:
    """Residuals of the driven linear ODEs for A_0, A_2k, B_2k.

    Each is normalized by rho; the neglected terms are one power of
    sqrt(rho) smaller, so the residuals shrink linearly in the mode
    amplitude.
    """
    idx = _window(mt)
    al, k = mt.alpha, mt.k
    dt = mt.dtau
    lam0 = -al - 1.0
    lam2k = mt.lambda_2k
    rho, ak, bk = mt.rho, mt.a_k, mt.b_k
    c4 = (al + 1.0) / (4.0 * al)

    entries = {}
    specs = [
        ("A0", mt.a0, -lam0 * mt.a0 - c4 * rho),
        ("A2k", mt.a_2k, -lam2k * mt.a_2k - c4 * (ak**2 - bk**2)),
        ("B2k", mt.b_2k, -lam2k * mt.b_2k - 2.0 * c4 * ak * bk),
    ]
    for name, series, model in specs:
        lhs = _fd4(series, dt)[idx]
        entries[name] = ResidualEntry(name=name, lhs=lhs, rhs=model[idx],
                                      scale=rho[idx], scale_power=1.0)
    return ResidualReport(k=k, alpha=al, window=idx, entries=entries)


def residual_neutral_modes(mt: ModeTrace) -> ResidualReport:
    """Residuals of the cubic ODEs for A_k, B_k, rho, Q.

    The rho derivative is chained from the A_k, B_k derivatives, which makes
    the rho residual identically 2 A_k res(A_k) + 2 B_k res(B_k).
    """
    idx = _window(mt)
    al, k = mt.alpha, mt.k
    dt = mt.dtau
    lam2k = mt.lambda_2k
    rho, ak, bk = mt.rho, mt.a_k, mt.b_k
    a2k, b2k, a0, q = mt.a_2k, mt.b_2k, mt.a0, mt.q
    one = 1.0 + al
    cross = one * (1.0 - 4.0 * k * k) / 2.0
    cubic = (al + 1.0) * (al + 2.0) / (8.0 * al * al)

    dak = _fd4(ak, dt)
    dbk = _fd4(bk, dt)
    drho = 2.0 * ak * dak + 2.0 * bk * dbk
    dq = _fd4(q, dt)

    model_ak = one * a0 * ak + cross * (ak * a2k + bk * b2k) - cubic * ak * rho
    model_bk = one * a0 * bk + cross * (-bk * a2k + ak * b2k) - cubic * bk * rho
    model_rho = one * (2.0 * a0 * rho + (1.0 - 4.0 * k * k) * q
                       - (al + 2.0) / (4.0 * al * al) * rho**2)
    model_q = (-lam2k * q - (al + 1.0) / (4.0 * al) * rho**2
               + 2.0 * one * a0 * q + one * (1.0 - 4.0 * k * k) * rho * (a2k**2 + b2k**2)
               - (al + 1.0) * (al + 2.0) / (4.0 * al * al) * rho * q)

    entries = {
        "Ak": ResidualEntry("Ak", dak[idx], model_ak[idx], rho[idx] ** 1.5, 1.5),
        "Bk": ResidualEntry("Bk", dbk[idx], model_bk[idx], rho[idx] ** 1.5, 1.5),
        "rho": ResidualEntry("rho", drho[idx], model_rho[idx], rho[idx] ** 2, 2.0),
        "Q": ResidualEntry("Q", dq[idx], model_q[idx], rho[idx] ** 2, 2.0),
    }
    return ResidualReport(k=k, alpha=al, window=idx, entries=entries)


def quasi_steady_window(mt: ModeTrace):
    """Post-transient rows, lambda_2k * tau > 5, interior to the stencil."""
    return _stencil_rows(mt.lambda_2k * mt.tau > TRANSIENT_RULE,
                         "trace too short for the post-transient window")


@dataclass(frozen=True)
class QuasiSteadyReport:
    a0_max_dev: float  # max relative deviation of A_0 from rho/(4 alpha)
    q_max_dev: float  # same for Q against its adiabatic value


def quasi_steady_check(mt: ModeTrace) -> QuasiSteadyReport:
    idx = quasi_steady_window(mt)
    al = mt.alpha
    rho, q = mt.rho[idx], mt.q[idx]
    a0_target = rho / (4.0 * al)
    q_target = -(al + 1.0) / (4.0 * al * mt.lambda_2k) * rho**2
    a0_dev = np.abs(mt.a0[idx] - a0_target) / a0_target
    q_dev = np.abs(q - q_target) / np.abs(q_target)
    return QuasiSteadyReport(a0_max_dev=float(np.max(a0_dev)),
                             q_max_dev=float(np.max(q_dev)))


@dataclass(frozen=True)
class CstarMeasurement:
    measured: float  # regression estimate of d(rho)/dtau / rho^2
    expected: float
    rel_error: float


def measure_cstar(mt: ModeTrace) -> CstarMeasurement:
    """Least-squares slope of rho over the post-transient window, scaled by
    the mean of rho^2. Regression keeps rounding noise far below the
    pointwise-derivative estimate at small amplitudes."""
    idx = quasi_steady_window(mt)
    tau, rho = mt.tau[idx], mt.rho[idx]
    slope = float(np.polyfit(tau, rho, 1)[0])
    measured = slope / float(np.mean(rho)) ** 2
    expected = cstar(mt.k)
    return CstarMeasurement(measured=measured, expected=expected,
                            rel_error=abs(measured - expected) / abs(expected))


def quasi_steady_seed(grid: AngularGrid, k, eps, phase=0.0) -> SupportFunction:
    """Circle plus a k-fold neutral perturbation seated on the quasi-steady
    manifold (A_0 and the 2k-modes at their adiabatic values), so a forward
    run stays in the asymptotic regime instead of riding the unstable
    constant mode."""
    al = alpha_for_fold(k)
    lam2k = al * (4.0 * k * k - 1.0) - 1.0
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
    for m in range(1, mt.m_max + 1):
        header.extend((f"A{m}", f"B{m}"))
        columns.extend((mt.a[:, m - 1], mt.b[:, m - 1]))
    return csv_table(header + ["rho", "Q"], columns + [mt.rho, mt.q])
