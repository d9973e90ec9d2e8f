"""Analysis that only the tests call: fits, checks and closed forms built on
the package that no CLI command runs.

They are the area-law fit and the area-derivative and entropy-monotonicity
checks of a flow; the entropy at a fixed base point; L applied to a vector,
the circle's closed-form spectrum, the energy split of perturbations over
an eigenbasis and the growth rate of an eigenmode along a flow; and
geometric constructors and measures of a body. The package keeps what its
commands run, so these live beside the tests. The error types that only
they raise are AcsflowError subclasses like the package's own.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from acsflow.entropy import BOUNDARY_GUARD, _check_alpha, _translated, _value
from acsflow.errors import AcsflowError, OutOfRange
from acsflow.flow import FlowConfig, FlowStats, FlowTrace, flow_advance, rhs, run
from acsflow.geometry import (AngularGrid, SupportFunction, _basis, area,
                              radius_of_curvature, require_convex)
from acsflow.spectral import ZERO_TOL, SpectralDecomposition, decompose


# -- errors --------------------------------------------------------------------

class GridMismatch(AcsflowError):
    """Two grid-sampled quantities live on different angular grids."""


class PointOutside(AcsflowError):
    """Entropy base point is outside (or too close to the boundary of) the body."""


class WindowEscaped(AcsflowError):
    """Growth-rate fit window left the linear-dominated regime."""


class InsufficientData(AcsflowError):
    """Not enough trace rows for the requested fit."""


# -- geometry ------------------------------------------------------------------

def deriv1(values):
    """Spectral first derivative of periodic nodal data, along the last axis."""
    n = values.shape[-1]
    spec = np.fft.rfft(values) * (1j * np.arange(n // 2 + 1, dtype=float))
    if n % 2 == 0:
        # The Nyquist cosine has no representable sine derivative on this grid.
        spec[..., -1] = 0.0
    return np.fft.irfft(spec, n)


def length(u: SupportFunction) -> float:
    """Boundary length, the integral of the radius of curvature."""
    w = require_convex(u.values)
    return u.grid.dtheta * float(np.sum(w))


def rotate_nodes(u: SupportFunction, shift: int) -> SupportFunction:
    """Rotate the body by shift grid spacings (u'(th) = u(th + shift*dth))."""
    return SupportFunction(u.grid, np.roll(u.values, -shift))


def embed(u: SupportFunction) -> np.ndarray:
    """Boundary points X(theta_i), shape (n, 2)."""
    require_convex(u.values)
    ut = deriv1(u.values)
    c, s = _basis(u.n)
    return np.stack([u.values * c - ut * s, u.values * s + ut * c], axis=1)


def steiner_point(u: SupportFunction) -> np.ndarray:
    """Curvature-weighted boundary centroid; strictly interior for convex bodies.

    The curvature weight kappa ds is dtheta, so this is the mean of the
    boundary points over the uniform angle grid, (1/pi) integral u (cos, sin),
    by the trapezoid rule (2/n) e u for e the cos and sin rows of _basis.
    """
    return (2.0 / u.n) * (_basis(u.n) @ u.values)


def ellipse_support(grid: AngularGrid, a: float, b: float) -> SupportFunction:
    """Origin-centered axis-aligned ellipse with semi-axes (a, b)."""
    th = grid.nodes
    return SupportFunction(grid, np.sqrt((a * np.cos(th)) ** 2 + (b * np.sin(th)) ** 2))


# -- entropy -------------------------------------------------------------------

def entropy_at(u: SupportFunction, z0, alpha) -> float:
    """Entropy of the body with the base point fixed at z0."""
    _check_alpha(alpha)
    area_term = 0.5 * math.log(area(u) / math.pi)
    uz = _translated(u.values[None], np.array([z0], dtype=float))
    if np.min(uz) < BOUNDARY_GUARD:
        raise PointOutside(f"base point {tuple(z0)} is not strictly interior")
    return float(_value(uz[0], alpha)) - area_term


# -- flow ----------------------------------------------------------------------

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


# -- spectral analysis ---------------------------------------------------------

def apply_L(h: SupportFunction, alpha, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (h.grid.n,):
        raise GridMismatch(f"vector of length {v.shape} on a grid of {h.grid.n} nodes")
    g = h.values ** (1.0 + 1.0 / alpha)
    return alpha * g * radius_of_curvature(v) + v


def circle_eigenvalues(alpha, l_max) -> np.ndarray:
    """Closed-form eigenvalues of -L at the unit circle, with multiplicity.

    The constant mode carries -alpha - 1; each angular frequency l >= 1
    contributes the double eigenvalue alpha (l^2 - 1) - 1.
    """
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    lams = [-alpha - 1.0]
    for l in range(1, l_max + 1):
        lam = alpha * (l * l - 1.0) - 1.0
        lams.extend((lam, lam))
    return np.array(lams)


def energy_split(v, decomposition: SpectralDecomposition):
    """Coefficients of v in the retained eigenbasis, its unstable, neutral and
    stable energies, and the energy beyond the basis: the squared weighted
    norm of v minus its projection on the basis. v is one vector or a
    matrix whose columns are vectors; each result then has one entry per column.
    GridMismatch unless v has one row per node of the decomposition's grid.
    """
    dec = decomposition
    if np.shape(v)[0] != dec.h.grid.n:
        raise GridMismatch(f"vectors of shape {np.shape(v)} on a grid of "
                           f"{dec.h.grid.n} nodes")
    dtheta, b, lam = dec.h.grid.dtheta, dec.weights, dec.eigenvalues
    coef = dtheta * (dec.eigenfunctions * b) @ v
    e_minus, e_zero, e_plus = (np.sum(coef[sel] ** 2, axis=0) for sel in (
        lam < -ZERO_TOL, np.abs(lam) <= ZERO_TOL, lam > ZERO_TOL))
    rest = v - dec.eigenfunctions.T @ coef
    remainder = dtheta * (b @ (rest * rest))
    return coef, (e_minus, e_zero, e_plus), remainder


def measure_growth_rate(h: SupportFunction, alpha, j, epsilon, tau_window,
                        decomposition=None) -> float:
    """Fit d/dtau log |(v, phi_j)_h| for the flow started at h + eps phi_j.

    The flow runs at its default tolerances and is sampled every 0.01.

    The fitted rate approximates -lambda_j. For modes with a nonzero
    eigenvalue the run is rejected (WindowEscaped) if the nonlinear residual
    exceeds a tenth of the linear term at mid-window; a neutral mode has no
    linear term to compare against, so no escape check applies.
    """
    dec = decomposition if decomposition is not None else decompose(
        h, alpha, j_max=max(int(j) + 3, 12))
    if dec.h.grid.n != h.grid.n:
        raise GridMismatch("decomposition grid does not match the profile grid")
    phi = dec.eigenfunctions[j]
    lam = dec.eigenvalues[j]
    t0, t1 = tau_window
    u0 = SupportFunction(h.grid, h.values + epsilon * phi)
    trace = run(FlowConfig(alpha=alpha, mode="normalized_tau", initial=u0,
                           t_end=t1, sample_dt=0.01, stop_min_radius=1e-6))
    if trace.terminal_reason != "reached_end":
        raise WindowEscaped(f"flow stopped early: {trace.terminal_reason}")
    sel = np.nonzero((trace.times >= t0 - 1e-12) & (trace.times <= t1 + 1e-12))[0]
    coefs = h.grid.dtheta * ((trace.snapshots[sel] - h.values)
                             @ (phi * dec.weights))
    if np.min(np.abs(coefs)) < 1e-13:
        raise WindowEscaped("mode coefficient fell to rounding level inside the window")

    if abs(lam) > ZERO_TOL:
        mid = sel[len(sel) // 2]
        u_mid = SupportFunction(h.grid, trace.snapshots[mid])
        v_mid = trace.snapshots[mid] - h.values
        linear = apply_L(h, alpha, v_mid)
        nonlin = rhs(u_mid, alpha, "normalized_tau") - linear
        if dec.norm(nonlin) > 0.1 * dec.norm(linear):
            raise WindowEscaped(
                "nonlinearity exceeds 10% of the linear term mid-window")

    taus = trace.times[sel]
    return float(np.polyfit(taus, np.log(np.abs(coefs)), 1)[0])
