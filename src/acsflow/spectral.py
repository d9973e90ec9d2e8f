"""Linearization of the normalized flow at a contracting profile.

At a profile h the linearized operator is
    L v = alpha h^(1 + 1/alpha) (v_thth + v) + v,
self-adjoint for the inner product weighted by b = h^(-1-1/alpha). Eigenvalues
always refer to -L, so negative eigenvalues are unstable directions.

The eigenpairs are those of the symmetric-definite pencil
    -(v_thth + v) = mu b v,   lambda = alpha mu - 1,
whose stiffness matrix A is the circulant with symbol m^2 - 1, with entries
of size n^2 whatever the profile; only the diagonal mass matrix b spans many
orders of magnitude (6e29 for the k3 profile at alpha 0.01).

The pencil is solved one symmetry sector at a time (Faessler & Stiefel, Group
Theoretical Methods and Their Applications, 1992). When h repeats every
s = n/k nodes, the shift by s commutes with the pencil, and each Bloch class
q (v[j + p s] = exp(2 pi i q p / k) v[j]) is an s x s pencil of its own: A's
block follows from its symbol by one irfft, and the mass stays the diagonal
b[:s]. Classes 0 and k/2 are real; classes q and k - q are solved together
as the real 2s x 2s embedding of their Hermitian block. A profile with no
rotation symmetry is the case k = 1, one block holding the whole pencil.
Each block gets one shift-invert Lanczos solve (ARPACK; Lehoucq, Sorensen &
Yang, 1998) below the lowest mu, which is -1 (the scaling mode), for its
lowest j_max pairs; the merged lowest j_max are then the lowest overall.

The checks run on the vectors returned: lifted back to the n nodes, with
the phase convention applied. The contract is the pencil's normwise
backward error (Tisseur, Linear Algebra Appl. 309, 2000)
    ||A v - mu B v|| / ((||A||_2 + |mu| ||B||_2) ||v||) <= BACKWARD_TOL
for every retained pair, with A v formed by the spectral second derivative.
The weighted residual ||L phi + lambda phi||_h is reported as well; at small
alpha it can be large for a correct pair, because the weight spans many
orders of magnitude. Each pair is labelled with its Bloch class and with its
parity about theta = 0, read off the vector after the phase convention.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EigenFailed, GridMismatch, OutOfRange, WindowEscaped
from .geometry import SupportFunction, _fourier_coefficients, deriv2

ZERO_TOL = 1e-6  # |lambda| at or below this counts as kernel
PARITY_TOL = 1e-6  # max |phi(theta) -+ phi(-theta)| / max |phi| for even (odd)
SHIFT = -1.5  # below every mu: at a profile only the scaling mode has mu < 0, at -1
BACKWARD_TOL = 1e-12


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
    residuals: np.ndarray  # per pair, weighted norm of L phi + lambda phi (reported)
    backward_errors: np.ndarray  # per pair, normwise backward error in the pencil
    morse_index: int
    kernel_dim: int
    rotation_order: int  # k: the solve used h's invariance under rotation by 2 pi / k
    bloch_classes: np.ndarray  # per pair, its Bloch class q in 0..k//2 (k - q is q)
    parities: tuple  # per pair, 'even' or 'odd' about theta = 0, or None

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


def _fix_phases(phi, lams):
    """Deterministic orientation: rotate degenerate pairs, whose eigenvalues
    agree to BACKWARD_TOL relative, so one member is even about theta = 0,
    then make the leading Fourier coefficient of every eigenfunction positive
    in the (a0, a1, b1, a2, b2, ...) scan. The rotation keeps an orthonormal
    pair orthonormal; a pair farther apart is two eigenpairs, which a
    rotation would mix. Works in place."""
    n = phi.shape[1]
    rev = np.arange(n)
    rev = (-rev) % n
    for grp in _clusters(lams, BACKWARD_TOL):
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
    a0, a, b = _fourier_coefficients(phi, n // 2 - 1)
    seq = np.column_stack([a0, np.stack([a, b], axis=-1).reshape(len(phi), -1)])
    big = np.abs(seq) > 1e-8 * np.max(np.abs(seq), axis=1, keepdims=True)
    lead = seq[np.arange(len(seq)), np.argmax(big, axis=1)]
    phi[big.any(axis=1) & (lead < 0.0)] *= -1.0
    return phi


def _rotation_period(values, min_block):
    """Smallest s >= min_block dividing n with values invariant under a shift
    by s nodes; n itself when no smaller s qualifies."""
    n = len(values)
    for s in range(min_block, n):
        if n % s == 0 and np.array_equal(np.roll(values, s), values):
            return s
    return n


def _sector_blocks(n, s):
    """(q, phases, block) for each Bloch class q = 0..k//2 of the circulant
    A = -(d_thth + 1) under the shift by s = n/k nodes.

    A class-q vector is v[j + p s] = zeta^p u[j] with zeta = exp(2 pi i q / k),
    and A acts on u as the Hermitian s x s block H[i, j] = g_q[i - j], where
    g_q[d] = sum_p a[(d - p s) mod n] zeta^p and g_q[d - s] = g_q[d] / zeta for
    the column a of A. phases holds zeta^p for p = 0..k-1. The block is real
    for q = 0 and q = k/2; otherwise it is returned as the real 2s x 2s
    embedding [[Re H, -Im H], [Im H, Re H]] acting on (Re u, Im u), which
    carries class q and its partner k - q with every eigenvalue doubled.
    """
    k = n // s
    m = np.arange(n // 2 + 1, dtype=float)
    a = np.fft.irfft(m * m - 1.0, n)  # A's symbol is m^2 - 1
    g = np.fft.fft(a.reshape(k, s), axis=0)
    d = np.subtract.outer(np.arange(s), np.arange(s))
    for q in range(k // 2 + 1):
        phases = np.exp(2j * np.pi * q * np.arange(k) / k)
        block = g[q][d % s] * np.where(d < 0, phases[-1], 1.0)
        block = 0.5 * (block + block.conj().T)
        if 2 * q % k == 0:
            yield q, phases.real, block.real
        else:
            x, y = block.real, block.imag
            yield q, phases, np.block([[x, -y], [y, x]])


def _parity(phi):
    """'even' or 'odd' about theta = 0 per row of phi, None for neither."""
    rev = (-np.arange(phi.shape[1])) % phi.shape[1]
    even = np.max(np.abs(phi - phi[:, rev]), axis=1)
    odd = np.max(np.abs(phi + phi[:, rev]), axis=1)
    size = PARITY_TOL * np.max(np.abs(phi), axis=1)
    return tuple("even" if e <= t else "odd" if o <= t else None
                 for e, o, t in zip(even, odd, size))


def decompose(h: SupportFunction, alpha, j_max=40) -> SpectralDecomposition:
    """Lowest j_max eigenpairs of -L at the profile h.

    Raises OutOfRange unless 1 <= j_max <= n - 1, and EigenFailed when ARPACK
    does not converge or a pair's backward error exceeds BACKWARD_TOL.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    ip = WeightedInnerProduct.build(h, alpha)
    n = h.grid.n
    if not 1 <= j_max <= n - 1:
        raise OutOfRange(f"j_max must lie in [1, {n - 1}], got {j_max}")
    b = ip.weights
    # blocks of more than j_max nodes, so that each supplies its lowest j_max
    s = _rotation_period(h.values, j_max + 1)
    k = n // s
    mus, vecs, classes = [], [], []
    for q, phases, block in _sector_blocks(n, s):
        dim = len(block)
        mass = scipy.sparse.dia_array((np.tile(b[:s], dim // s), 0), shape=(dim, dim))
        try:
            mu, u = scipy.sparse.linalg.eigsh(
                block, k=min(j_max, dim - 1), M=mass, sigma=SHIFT, which="LM",
                v0=np.ones(dim))
        except scipy.sparse.linalg.ArpackError as exc:
            raise EigenFailed(f"shift-invert Lanczos failed in Bloch class {q}: {exc}")
        if dim > s:
            u = u[:s] + 1j * u[s:]
        # B-orthonormal in the block: the lift has B-norm^2 k (real) or k/2
        lift = (phases[:, None, None] * u).real.reshape(n, -1)
        vecs.append(lift.T / math.sqrt(k * s / dim))
        mus.append(mu)
        classes.append(np.full(len(mu), q))
    mus, vecs, classes = (np.concatenate(x) for x in (mus, vecs, classes))
    order = np.argsort(mus, kind="stable")[:j_max]
    mus, vecs, classes = mus[order], vecs[order], classes[order]

    lams = alpha * mus - 1.0
    phi = _fix_phases(vecs / math.sqrt(h.grid.dtheta), lams)
    # A multiplies Fourier mode m by m^2 - 1, so ||A||_2 = max(1, (n//2)^2 - 1)
    scale = max(1.0, (n // 2) ** 2 - 1.0) + np.abs(mus) * np.max(b)
    resid = -(deriv2(phi) + phi) - mus[:, None] * phi * b
    backward = np.linalg.norm(resid, axis=1) / (scale * np.linalg.norm(phi, axis=1))
    if not np.max(backward) <= BACKWARD_TOL:
        raise EigenFailed(f"eigenpair backward error {np.max(backward):.3g} "
                          f"exceeds {BACKWARD_TOL:g}")
    residuals = np.array([ip.norm(apply_L(h, alpha, p) + lam * p)
                          for lam, p in zip(lams, phi)])
    return SpectralDecomposition(
        inner_product=ip, eigenvalues=lams, eigenfunctions=phi,
        residuals=residuals, backward_errors=backward,
        morse_index=int(np.sum(lams < -ZERO_TOL)),
        kernel_dim=int(np.sum(np.abs(lams) <= ZERO_TOL)),
        rotation_order=k, bloch_classes=classes, parities=_parity(phi))


def energy_split(v, decomposition: SpectralDecomposition):
    """Coefficients of v in the retained eigenbasis, its unstable, neutral and
    stable energies, and the energy beyond the basis. v is one vector or a
    matrix whose columns are vectors; each result then has one entry per column.
    GridMismatch unless v has one row per node of the decomposition's grid.
    """
    dec = decomposition
    if np.shape(v)[0] != dec.h.grid.n:
        raise GridMismatch(f"vectors of shape {np.shape(v)} on a grid of "
                           f"{dec.h.grid.n} nodes")
    dtheta, b, lam = dec.h.grid.dtheta, dec.inner_product.weights, dec.eigenvalues
    coef = dtheta * (dec.eigenfunctions * b) @ v
    e_minus, e_zero, e_plus = (np.sum(coef[sel] ** 2, axis=0) for sel in (
        lam < -ZERO_TOL, np.abs(lam) <= ZERO_TOL, lam > ZERO_TOL))
    remainder = np.maximum(dtheta * (b @ (v * v)) - e_minus - e_zero - e_plus, 0.0)
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
                           t_end=t1, sample_dt=0.01, stop_min_radius=1e-6))
    if trace.terminal_reason != "reached_end":
        raise WindowEscaped(f"flow stopped early: {trace.terminal_reason}")
    sel = np.nonzero((trace.times >= t0 - 1e-12) & (trace.times <= t1 + 1e-12))[0]
    coefs = h.grid.dtheta * ((trace.snapshots[sel] - h.values)
                             @ (phi * dec.inner_product.weights))
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
        "backward_errors": [float(x) for x in decomposition.backward_errors],
        "residuals": [float(x) for x in decomposition.residuals],
        "rotation_order": decomposition.rotation_order,
        "bloch_classes": [int(q) for q in decomposition.bloch_classes],
        "parities": list(decomposition.parities),
    }
