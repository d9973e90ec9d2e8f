"""Linearization of the normalized flow at a contracting profile.

At a profile h the linearized operator is
    L v = alpha h^(1 + 1/alpha) (v_thth + v) + v,
self-adjoint for the inner product weighted by h^(-1-1/alpha). Eigenvalues
always refer to -L, so negative eigenvalues are unstable directions.

The discrete eigenproblem is solved densely after a similarity transform by
sqrt(h^(1+1/alpha)), which keeps the matrix norm as small as the weight
allows. For profiles with a large support ratio the weight spans many orders
of magnitude, so retained eigenpairs are polished by shift-and-invert
Rayleigh-Ritz steps on the equivalent pencil
    -(v_thth + v) = mu h^(-1-1/alpha) v,   mu = (lambda + 1)/alpha,
whose matrices have harmless entries.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import EigenFailed, GridMismatch, OutOfRange, WindowEscaped
from .geometry import SupportFunction, deriv2

ZERO_TOL = 1e-6  # |lambda| at or below this counts as kernel
RESIDUAL_TARGET = 1e-9  # refinement trigger, well under the 1e-8 contract


@dataclass(frozen=True)
class WeightedInnerProduct:
    h: SupportFunction
    alpha: float
    weights: np.ndarray = field(repr=False)  # h^(-1-1/alpha) per node

    @classmethod
    def build(cls, h: SupportFunction, alpha):
        if not 0.0 < alpha < 1.0:
            raise OutOfRange(f"alpha must lie in (0, 1), got {alpha}")
        w = h.values ** (-1.0 - 1.0 / alpha)
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise OutOfRange("profile must be strictly positive")
        return cls(h=h, alpha=alpha, weights=w)

    def inner(self, v, w):
        return self.h.grid.dtheta * float(np.sum(v * w * self.weights))

    def norm(self, v):
        return math.sqrt(max(self.inner(v, v), 0.0))


def apply_L(h: SupportFunction, alpha, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (h.grid.n,):
        raise GridMismatch(f"vector of length {v.shape} on a grid of {h.grid.n} nodes")
    g = h.values ** (1.0 + 1.0 / alpha)
    return alpha * g * (deriv2(v) + v) + v


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


@dataclass
class SpectralDecomposition:
    inner_product: WeightedInnerProduct
    eigenvalues: np.ndarray  # ascending, of -L
    eigenfunctions: np.ndarray  # rows, orthonormal for the weighted product
    residuals: np.ndarray  # per pair, weighted norm of L phi + lambda phi
    morse_index: int
    kernel_dim: int

    @property
    def h(self):
        return self.inner_product.h

    @property
    def alpha(self):
        return self.inner_product.alpha

    def inner(self, v, w):
        return self.inner_product.inner(v, w)

    def norm(self, v):
        return self.inner_product.norm(v)


def _clusters(values, tol):
    """Group indices of nearly equal sorted values."""
    groups = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[groups[-1][0]] <= tol * (1.0 + abs(values[i])):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _orthonormalize(vectors, weights, dtheta):
    """Modified Gram-Schmidt in the weighted inner product (rows)."""
    out = vectors.copy()
    for i in range(out.shape[0]):
        for j in range(i):
            out[i] -= (dtheta * np.sum(out[i] * out[j] * weights)) * out[j]
        nrm = math.sqrt(dtheta * np.sum(out[i] ** 2 * weights))
        out[i] /= nrm
    return out


def _fix_phases(phi, lams, weights, dtheta):
    """Deterministic orientation: rotate near-degenerate pairs so one member
    is even about theta = 0, then make the leading Fourier coefficient of
    every eigenfunction positive in the (a0, a1, b1, a2, b2, ...) scan."""
    n = phi.shape[1]
    rev = np.arange(n)
    rev = (-rev) % n
    for grp in _clusters(lams, 1e-5):
        if len(grp) == 2:
            i, j = grp
            e1 = 0.5 * (phi[i] + phi[i][rev])
            e2 = 0.5 * (phi[j] + phi[j][rev])
            m11, m12, m22 = np.dot(e1, e1), np.dot(e1, e2), np.dot(e2, e2)
            half = 0.5 * (m11 - m22)
            theta = 0.5 * math.atan2(2.0 * m12, 2.0 * half) if (m12 or half) else 0.0
            c, s = math.cos(theta), math.sin(theta)
            even = c * phi[i] + s * phi[j]
            odd = -s * phi[i] + c * phi[j]
            phi[i], phi[j] = even, odd
    phi_fixed = _orthonormalize(phi, weights, dtheta)
    for i in range(phi_fixed.shape[0]):
        spec = np.fft.rfft(phi_fixed[i])
        seq = [spec[0].real / n]
        for m in range(1, n // 2):
            seq.append(2.0 * spec[m].real / n)
            seq.append(-2.0 * spec[m].imag / n)
        arr = np.array(seq)
        big = np.abs(arr) > 1e-8 * np.max(np.abs(arr))
        if big.any() and arr[np.argmax(big)] < 0.0:
            phi_fixed[i] = -phi_fixed[i]
    return phi_fixed


def decompose(h: SupportFunction, alpha, j_max=40, refine=True) -> SpectralDecomposition:
    """Lowest j_max eigenpairs of -L at the profile h."""
    ip = WeightedInnerProduct.build(h, alpha)
    n = h.grid.n
    if j_max < 1 or j_max > n:
        raise ValueError(f"j_max must lie in [1, {n}], got {j_max}")
    from .flow import spectral_d2_matrix

    d2 = spectral_d2_matrix(n)
    g = h.values ** (1.0 + 1.0 / alpha)
    sg = np.sqrt(g)
    op = d2 + np.eye(n)
    sym = -(alpha * (sg[:, None] * op * sg[None, :])) - np.eye(n)
    sym = 0.5 * (sym + sym.T)
    try:
        lams, vecs = scipy.linalg.eigh(sym)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenFailed(f"dense symmetric eigensolver failed: {exc}")
    lams = lams[:j_max]
    # back-transform and normalize for the weighted product
    scale = 1.0 / math.sqrt(h.grid.dtheta)
    phi = (sg[:, None] * vecs[:, :j_max] * scale).T.copy()

    if refine:
        lams, phi = _refine_pairs(lams, phi, ip, op, g)

    phi = _fix_phases(phi, lams, ip.weights, h.grid.dtheta)

    residuals = np.empty(j_max)
    for j in range(j_max):
        residuals[j] = ip.norm(apply_L(h, alpha, phi[j]) + lams[j] * phi[j])

    order = np.argsort(lams, kind="stable")
    lams, phi, residuals = lams[order], phi[order], residuals[order]
    return SpectralDecomposition(
        inner_product=ip, eigenvalues=lams, eigenfunctions=phi,
        residuals=residuals,
        morse_index=int(np.sum(lams < -ZERO_TOL)),
        kernel_dim=int(np.sum(np.abs(lams) <= ZERO_TOL)))


def _refine_pairs(lams, phi, ip, op, g):
    """Shift-and-invert Rayleigh-Ritz polish on the well-scaled pencil.

    Needed when the weight h^(1+1/alpha) spans many orders of magnitude and
    the dense solve above loses absolute accuracy; clusters whose residual
    already meets the target are left untouched.
    """
    h = ip.h
    alpha = ip.alpha
    dtheta = h.grid.dtheta
    a_mat = -op  # -(D2 + I), entries O(n^2)
    w_diag = 1.0 / g
    lams = lams.copy()
    phi = phi.copy()
    for grp in _clusters(lams, 1e-5):
        worst = max(ip.norm(apply_L(h, alpha, phi[j]) + lams[j] * phi[j])
                    / (1.0 + abs(lams[j])) for j in grp)
        if worst <= RESIDUAL_TARGET:
            continue
        idx = np.array(grp)
        mu = (np.mean(lams[idx]) + 1.0) / alpha
        vecs = phi[idx].T.copy()
        for _ in range(2):
            shift = mu + max(1e-5, 1e-8 * abs(mu))
            try:
                lu = scipy.linalg.lu_factor(a_mat - shift * np.diag(w_diag))
                x = scipy.linalg.lu_solve(lu, w_diag[:, None] * vecs)
            except scipy.linalg.LinAlgError:
                break
            # Ritz step on the subspace in the well-scaled pencil
            aa = x.T @ (a_mat @ x)
            ww = x.T @ (w_diag[:, None] * x)
            aa = 0.5 * (aa + aa.T)
            ww = 0.5 * (ww + ww.T)
            try:
                mus, cvecs = scipy.linalg.eigh(aa, ww)
            except scipy.linalg.LinAlgError:
                break
            vecs = x @ cvecs
            vecs /= np.sqrt(dtheta * np.sum(vecs**2 * ip.weights[:, None], axis=0))
            mu = float(np.mean(mus))
            lams[idx] = alpha * mus - 1.0
        phi[idx] = vecs.T
    return lams, phi


@dataclass(frozen=True)
class Projection:
    coefficients: np.ndarray
    norm_unstable: float  # modes with lambda < -ZERO_TOL
    norm_neutral: float
    norm_stable: float
    remainder: float  # energy beyond the retained basis

    @property
    def energies(self):
        return (self.norm_unstable**2, self.norm_neutral**2, self.norm_stable**2)


def project(v: np.ndarray, decomposition: SpectralDecomposition) -> Projection:
    """Coefficients of v in the retained eigenbasis plus split norms."""
    v = np.asarray(v, dtype=float)
    dec = decomposition
    if v.shape != (dec.h.grid.n,):
        raise GridMismatch(f"vector of shape {v.shape} on a grid of {dec.h.grid.n} nodes")
    coef = np.array([dec.inner(v, phi) for phi in dec.eigenfunctions])
    lam = dec.eigenvalues
    total = dec.inner(v, v)
    e_minus = float(np.sum(coef[lam < -ZERO_TOL] ** 2))
    e_zero = float(np.sum(coef[np.abs(lam) <= ZERO_TOL] ** 2))
    e_plus = float(np.sum(coef[lam > ZERO_TOL] ** 2))
    remainder = max(total - e_minus - e_zero - e_plus, 0.0)
    return Projection(coefficients=coef,
                      norm_unstable=math.sqrt(e_minus),
                      norm_neutral=math.sqrt(e_zero),
                      norm_stable=math.sqrt(e_plus),
                      remainder=remainder)


def measure_growth_rate(h: SupportFunction, alpha, j, epsilon, tau_window,
                        decomposition=None, sample_dt=0.01, rtol=1e-10) -> float:
    """Fit d/dtau log |(v, phi_j)_h| for the flow started at h + eps phi_j.

    The fitted rate approximates -lambda_j. For modes with a nonzero
    eigenvalue the run is rejected (WindowEscaped) if the nonlinear residual
    exceeds a tenth of the linear term at mid-window; a neutral mode has no
    linear term to compare against, so no escape check applies.
    """
    from .flow import FlowConfig, rhs, run

    dec = decomposition if decomposition is not None else decompose(
        h, alpha, j_max=max(int(j) + 3, 12))
    if dec.h.grid.n != h.grid.n:
        raise GridMismatch("decomposition grid does not match the profile grid")
    phi = dec.eigenfunctions[j]
    lam = dec.eigenvalues[j]
    t0, t1 = tau_window
    u0 = SupportFunction(h.grid, h.values + epsilon * phi)
    trace = run(FlowConfig(alpha=alpha, mode="normalized_tau", initial=u0,
                           t_end=t1, sample_dt=sample_dt, rtol=rtol,
                           atol=1e-13, stop_min_radius=1e-6))
    if trace.terminal_reason != "reached_end":
        raise WindowEscaped(f"flow stopped early: {trace.terminal_reason}")
    sel = np.nonzero((trace.times >= t0 - 1e-12) & (trace.times <= t1 + 1e-12))[0]
    coefs = np.empty(len(sel))
    for out_i, i in enumerate(sel):
        coefs[out_i] = dec.inner(trace.snapshots[i] - h.values, phi)
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


def spectrum_to_json_dict(decomposition: SpectralDecomposition, profile_tag) -> dict:
    return {
        "alpha": decomposition.alpha,
        "profile": profile_tag,
        "eigenvalues": [float(x) for x in decomposition.eigenvalues],
        "morse_index": decomposition.morse_index,
        "kernel_dim": decomposition.kernel_dim,
    }
