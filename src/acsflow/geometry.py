"""Support-function representation of closed convex plane curves.

A convex body is stored as samples of its support function u(theta) on a
uniform periodic grid; quadrature is the uniform trapezoid rule, exact for
band-limited data up to rounding. Every object of the lab is built from one
operator, d_thth + 1, kept here in one spectral form: the state
[rfft(v - mean v), mean v] of nodal rows v (_spectrum, inverse _nodal), on
which d_thth + 1 multiplies wavenumber m by 1 - m^2 (_symbols). The radius
of curvature w = u_thth + u, whose minimum is > 0 on a strictly convex body,
is formed from that state by radius_of_curvature and by the flow's marcher
alike. Transforming v - mean(v), not v, keeps the rounding of the rfft of a
constant out of w, so a centred circle's w is exactly constant.
require_convex, on one body or rows of them, is the one convexity test that
raises NonConvex; the marcher, which rejects a step instead, asks
_strictly_convex alone.
_area_weights give sum(u w), (n / pi) times the area, from the state with no
FFT; _basis holds the cos and sin rows behind the Steiner point and
translations.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

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


@functools.cache
def _symbols(n):
    """(1 - m^2, max(m^2 - 1, 0)) over the rfft wavenumbers m of n nodes: the
    symbols of d_thth + 1 and of -P (d_thth + 1), P dropping modes 0 and 1,
    the second with a trailing 0 for the mean column of a spectral state.
    Read-only, as they are shared."""
    m = np.arange(n // 2 + 1, dtype=float)
    lap = 1.0 - m * m
    msq = np.append(np.maximum(m * m - 1.0, 0.0), 0.0)
    lap.flags.writeable = msq.flags.writeable = False
    return lap, msq


@functools.cache
def _area_weights(n):
    """Weights over z.view(float), the real and imaginary parts of a spectral
    state z of u on n nodes (see _spectrum), whose sum of weights z^2 is
    sum(u w), w = (d_thth + 1) u, by Parseval: c_m (1 - m^2) / n on
    wavenumber m, c_m 1 at m = 0 and at Nyquist and 2 elsewhere, and n on
    the mean. Read-only, as they are shared."""
    lap, _ = _symbols(n)
    c = np.full(lap.shape, 2.0)
    c[0] = c[-1] = 1.0
    weights = np.repeat(np.append(c * lap / n, float(n)), 2)
    weights.flags.writeable = False
    return weights


@functools.cache
def _basis(n):
    """The (2, n) rows cos(theta_i) and sin(theta_i) at the nodes of
    AngularGrid(n). Read-only, as it is shared."""
    th = AngularGrid(n).nodes
    e = np.stack([np.cos(th), np.sin(th)])
    e.flags.writeable = False
    return e


def _spectrum(v):
    """The spectral state [rfft(v - mean v), mean v] of nodal rows v."""
    n = v.shape[-1]
    # np.mean(v, axis=-1), without its call overhead
    vbar = v.sum(axis=-1, keepdims=True) / n
    out = np.empty(v.shape[:-1] + (n // 2 + 2,), dtype=complex)
    np.fft.rfft(v - vbar, out=out[..., :-1])
    out[..., -1:] = vbar
    return out


def _nodal(x):
    """Nodal rows of the spectral state x of an AngularGrid's nodes; the
    inverse of _spectrum."""
    return np.fft.irfft(x[..., :-1]) + x[..., -1:].real


def _curvature_radii(z, n):
    """w = u_thth + u at the n nodes, from the spectral state z of u."""
    lap, _ = _symbols(n)
    return np.fft.irfft(lap * z[..., :-1], n) + z[..., -1:].real


def radius_of_curvature(values) -> np.ndarray:
    """Per-node u_thth + u of periodic nodal data, along the last axis: the
    radius of curvature in the normal-angle gauge, (d_thth + 1) u."""
    return _curvature_radii(_spectrum(values), values.shape[-1])


def _strictly_convex(w, ubar) -> bool:
    """min(w) > CONVEXITY_RTOL * ubar for radii of curvature w; False on NaN.

    For rows of w, ubar is the column of their means and every row must pass.
    """
    return bool((w > CONVEXITY_RTOL * ubar).all())


def require_convex(values) -> np.ndarray:
    """Radii of curvature of nodal data, or of its rows along the last axis,
    when each is strictly convex; else NonConvex, which names the first
    failing row of a 2-D input. The one check of the lab that raises it."""
    w = radius_of_curvature(values)
    ubar = np.mean(values, axis=-1, keepdims=True)
    if not _strictly_convex(w, ubar):
        rows, bars = np.atleast_2d(w), np.atleast_2d(ubar)[:, 0]
        i = next(i for i in range(len(rows)) if not _strictly_convex(rows[i], bars[i]))
        where = f"row {i}: " if w.ndim > 1 else ""
        raise NonConvex(f"{where}min radius of curvature {np.min(rows[i]):.3e} <= "
                        f"tolerance {CONVEXITY_RTOL * bars[i]:.3e}")
    return w


def area(u: SupportFunction) -> float:
    """Enclosed area (1/2) integral of u * (u_thth + u)."""
    w = require_convex(u.values)
    return 0.5 * u.grid.dtheta * float(np.sum(u.values * w))


def translate(u: SupportFunction, z) -> SupportFunction:
    """Support function of the same body with the origin moved to z."""
    zx, zy = float(z[0]), float(z[1])
    c, s = _basis(u.n)
    return SupportFunction(u.grid, u.values - (zx * c + zy * s))


def _about_steiner_point(values):
    """u - s.e(theta), the support function u of nodal values about its
    Steiner point s; u without its Fourier mode 1."""
    e = _basis(values.shape[-1])
    return values - ((2.0 / values.shape[-1]) * (e @ values)) @ e


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
    c, s = _basis(grid.n)
    return SupportFunction(grid, radius + center[0] * c + center[1] * s)


def random_convex_support(grid: AngularGrid, rng: "np.random.Generator") -> SupportFunction:
    """Random smooth strictly convex body: damped random Fourier modes on a circle.

    Modes m = 1..8 get normal coefficients of scale 0.3 / (1 + m^2); the
    perturbation is halved until min(u_thth + u) >= 0.05, so every returned
    body passes the convexity check with margin.
    """
    th = grid.nodes
    pert = np.zeros(grid.n)
    for m in range(1, 9):
        am, bm = rng.normal(size=2) * 0.3 / (1.0 + m * m)
        pert += am * np.cos(m * th) + bm * np.sin(m * th)
    for _ in range(60):
        u = SupportFunction(grid, 1.0 + pert)
        if np.min(radius_of_curvature(u.values)) >= 0.05:
            return u
        pert *= 0.5
    return SupportFunction(grid, np.ones(grid.n))


# -- serialization ------------------------------------------------------------

def support_to_json(u: SupportFunction) -> dict:
    return {"n": u.grid.n, "values": [float(v) for v in u.values]}


def support_from_json(obj: dict) -> SupportFunction:
    return SupportFunction(AngularGrid(int(obj["n"])), np.asarray(obj["values"], dtype=float))
