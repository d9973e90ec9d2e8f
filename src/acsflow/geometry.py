"""Support-function representation of closed convex plane curves.

A convex body is stored as samples of its support function u(theta) on a
uniform periodic grid. Differentiation is spectral (FFT), quadrature is the
uniform trapezoid rule; both are exact for band-limited data up to rounding.
The radius of curvature is u_thth + u, so strict convexity of the sampled
body means min(u_thth + u) > 0.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._fmt import SNAPSHOT_FMT
from .errors import NonConvex

# min(u_thth + u) > CONVEXITY_RTOL * mean(u) declares strict convexity; the
# guard protects the negative curvature powers used by the flow.
CONVEXITY_RTOL = 1e-8


@dataclass(frozen=True)
class AngularGrid:
    """Uniform grid theta_i = 2*pi*i/n on [0, 2*pi), n even and >= 16."""

    n: int

    def __post_init__(self):
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 16, got {self.n}")

    @property
    def nodes(self):
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def dtheta(self):
        return 2.0 * np.pi / self.n


@dataclass(frozen=True)
class SupportFunction:
    """Nodal values u(theta_i) of a support function on an AngularGrid."""

    grid: AngularGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("support values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return self.grid.n


def _wavenumbers(n):
    return np.arange(n // 2 + 1, dtype=float)


def deriv1(values):
    """Spectral first derivative of periodic nodal data, along the last axis."""
    n = values.shape[-1]
    spec = np.fft.rfft(values)
    m = _wavenumbers(n)
    spec = spec * (1j * m)
    # The Nyquist cosine has no representable sine derivative on this grid.
    spec[..., -1] = 0.0
    return np.fft.irfft(spec, n)


def deriv2(values):
    """Spectral second derivative of periodic nodal data, along the last axis."""
    n = values.shape[-1]
    spec = np.fft.rfft(values)
    m = _wavenumbers(n)
    return np.fft.irfft(spec * (-(m * m)), n)


def radius_of_curvature(u: SupportFunction) -> np.ndarray:
    """Per-node u_thth + u, the radius of curvature in the normal-angle gauge."""
    return deriv2(u.values) + u.values


def _strictly_convex(w, ubar) -> bool:
    """min(w) > CONVEXITY_RTOL * ubar for radii of curvature w; False on NaN.

    For rows of w, ubar is the column of their means and every row must pass.
    """
    return bool((w > CONVEXITY_RTOL * ubar).all())


def require_convex(u: SupportFunction) -> np.ndarray:
    """Radius-of-curvature array of a strictly convex body, else NonConvex."""
    w = radius_of_curvature(u)
    ubar = np.mean(u.values)
    if not _strictly_convex(w, ubar):
        raise NonConvex(f"min radius of curvature {np.min(w):.3e} <= tolerance "
                        f"{CONVEXITY_RTOL * ubar:.3e}")
    return w


def area(u: SupportFunction) -> float:
    """Enclosed area (1/2) integral of u * (u_thth + u)."""
    w = require_convex(u)
    return 0.5 * u.grid.dtheta * float(np.sum(u.values * w))


def length(u: SupportFunction) -> float:
    """Boundary length, the integral of the radius of curvature."""
    w = require_convex(u)
    return u.grid.dtheta * float(np.sum(w))


def translate(u: SupportFunction, z) -> SupportFunction:
    """Support function of the same body with the origin moved to z."""
    zx, zy = float(z[0]), float(z[1])
    th = u.grid.nodes
    return SupportFunction(u.grid, u.values - (zx * np.cos(th) + zy * np.sin(th)))


def rotate_nodes(u: SupportFunction, shift: int) -> SupportFunction:
    """Rotate the body by shift grid spacings (u'(th) = u(th + shift*dth))."""
    return SupportFunction(u.grid, np.roll(u.values, -shift))


def embed(u: SupportFunction) -> np.ndarray:
    """Boundary points X(theta_i), shape (n, 2)."""
    require_convex(u)
    th = u.grid.nodes
    ut = deriv1(u.values)
    c, s = np.cos(th), np.sin(th)
    return np.stack([u.values * c - ut * s, u.values * s + ut * c], axis=1)


def _steiner_point(values, e):
    """(2/n) e u, the trapezoid rule for (1/pi) integral u e(theta), for e
    the (2, n) matrix of cos and sin at the nodes."""
    return (2.0 / values.shape[-1]) * (e @ values)


def steiner_point(u: SupportFunction) -> np.ndarray:
    """Curvature-weighted boundary centroid; strictly interior for convex bodies.

    The curvature weight kappa ds is dtheta, so this is the mean of the
    boundary points over the uniform angle grid, (1/pi) integral u (cos, sin).
    """
    th = u.grid.nodes
    return _steiner_point(u.values, np.stack([np.cos(th), np.sin(th)]))


def _fourier_coefficients(values, m_max):
    """Leading real Fourier coefficients of each row of values (along the last
    axis): values = a0 + sum_m a[m-1] cos(m th) + b[m-1] sin(m th) + higher
    modes, with a_m = (1/pi) integral values cos(m th), for m = 1 .. m_max."""
    n = values.shape[-1]
    if not 0 < m_max < n // 2:
        raise ValueError(f"m_max must be in [1, {n // 2 - 1}], got {m_max}")
    spec = np.fft.rfft(values)
    a0 = spec[..., 0].real / n
    a = 2.0 * spec[..., 1 : m_max + 1].real / n
    b = -2.0 * spec[..., 1 : m_max + 1].imag / n
    return a0, a, b


def circle_support(grid: AngularGrid, radius: float = 1.0, center=(0.0, 0.0)) -> SupportFunction:
    th = grid.nodes
    vals = radius + center[0] * np.cos(th) + center[1] * np.sin(th)
    return SupportFunction(grid, vals)


def ellipse_support(grid: AngularGrid, a: float, b: float) -> SupportFunction:
    """Origin-centered axis-aligned ellipse with semi-axes (a, b)."""
    th = grid.nodes
    return SupportFunction(grid, np.sqrt((a * np.cos(th)) ** 2 + (b * np.sin(th)) ** 2))


def random_convex_support(grid: AngularGrid, rng: np.random.Generator,
                          max_mode: int = 8, amplitude: float = 0.3,
                          min_radius: float = 0.05) -> SupportFunction:
    """Random smooth strictly convex body: damped random Fourier modes on a circle.

    The perturbation is halved until min(u_thth + u) >= min_radius, so every
    returned body passes the convexity check with margin.
    """
    th = grid.nodes
    pert = np.zeros(grid.n)
    for m in range(1, max_mode + 1):
        am, bm = rng.normal(size=2) * amplitude / (1.0 + m * m)
        pert += am * np.cos(m * th) + bm * np.sin(m * th)
    for _ in range(60):
        u = SupportFunction(grid, 1.0 + pert)
        if np.min(radius_of_curvature(u)) >= min_radius:
            return u
        pert *= 0.5
    return SupportFunction(grid, np.ones(grid.n))


# -- serialization ------------------------------------------------------------

def support_to_json(u: SupportFunction) -> dict:
    return {"n": u.grid.n, "values": [float(v) for v in u.values]}


def support_from_json(obj: dict) -> SupportFunction:
    return SupportFunction(AngularGrid(int(obj["n"])), np.asarray(obj["values"], dtype=float))


def support_rows_to_csv(fh, rows) -> None:
    """Write each row of support values to the open file fh as one line of
    comma-separated values at 17 significant digits (an exact round trip),
    with no header."""
    np.savetxt(fh, rows, fmt="%" + SNAPSHOT_FMT, delimiter=",")


def support_rows_from_csv(fname) -> np.ndarray:
    """Matrix of the support values written by support_rows_to_csv, one row per
    line; ValueError on an empty file, a ragged row or a value that is not a
    number."""
    with warnings.catch_warnings():
        # an empty file is the ValueError below, not a warning as well
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        rows = np.loadtxt(fname, delimiter=",", ndmin=2)
    if rows.size == 0:
        raise ValueError("the file is empty")
    return rows
