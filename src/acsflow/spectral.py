"""Linearization of the normalized flow at a contracting profile.

At a profile h the linearized operator is
    L v = alpha h^(1 + 1/alpha) (v_thth + v) + v,
self-adjoint for the inner product weighted by b = h^(-1-1/alpha),
SpectralDecomposition.inner. Eigenvalues always refer to -L, so negative
eigenvalues are unstable directions.

The eigenpairs are those of the symmetric-definite pencil
    -(v_thth + v) = mu b v,   lambda = alpha mu - 1,
whose stiffness matrix A is the circulant with symbol m^2 - 1, with entries
of size n^2 whatever the profile; only the diagonal mass matrix b spans many
orders of magnitude (6e29 for the k3 profile at alpha 0.01).

The pencil is solved one symmetry sector at a time (Faessler & Stiefel, Group
Theoretical Methods and Their Applications, 1992). When h repeats every
s = n/k nodes, the shift by s commutes with the pencil, and each Bloch class
q (v[j + p s] = zeta^p v[j], zeta = exp(2 pi i q / k)) is an s x s pencil of
its own: A's block follows from its symbol by one irfft, and the mass stays
the diagonal b[:s]. Classes 0 and k/2 are real; every other class q < k/2
also stands for k - q, and its eigenvectors u lift to the two real
eigenfunctions Re(zeta^p u) and Im(zeta^p u). A profile with no rotation
symmetry is the case k = 1, one class holding the whole pencil.

When h is moreover exactly even about node 0, as every k-fold profile with
its reflection seams on nodes is (shrinker.assemble_profile), the mirror
theta -> -theta commutes with the pencil as well, and the sectors are those
of the dihedral group D_k: a Bloch class times a mirror parity. Each class
block is then taken in a basis of vectors the mirror fixes, each with at
most two entries, at j and s - j, where b[j] = b[s - j]: the mass stays
diagonal and the block becomes real. Classes 0 and k/2 split into an even
and an odd block of order about s/2, and a paired class is one real block
of order s, whose eigenvectors lift to an exactly even Re and an exactly
odd Im. Without the mirror the basis is the identity: the Bloch block as it
is, complex on a paired class.

Each block gets one dense solve (LAPACK ?sygvd or ?sygvx, ?hegvd or ?hegvx
on a complex block; Anderson et al., LAPACK Users' Guide, 1999) of the
definite pencil B u = nu K u with K = A - SHIFT B, which is positive
definite at a profile, where every mu is at least -1 (the scaling mode); the
largest nu = 1 / (mu - SHIFT) are the lowest mu. A block of one parity (or a
real class without the mirror) supplies its lowest min(order, j_max) pairs
and a paired class its lowest ceil(j_max / 2), each lifting to two; the
merged lowest j_max are then the lowest overall.

The checks run on the vectors returned: lifted back to the n nodes, with
the sign convention applied. The contract is the pencil's normwise
backward error (Tisseur, Linear Algebra Appl. 309, 2000)
    ||A v - mu B v|| / ((||A||_2 + |mu| ||B||_2) ||v||) <= BACKWARD_TOL
for every retained pair, with A v formed by geometry's d_thth + 1.
The weighted residual ||L phi + lambda phi||_h is reported as well; at small
alpha it can be large for a correct pair, because the weight spans many
orders of magnitude. Each pair is labelled with the D_k sector that solved
it: its Bloch class, and with the mirror its parity about theta = 0, even
for the Re lift and odd for the Im lift, which that lift has exactly. Without
the mirror no parity sector exists and every parity is None; a degenerate
pair is then returned as the solve gives it, the Re and Im lifts of one
class vector.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EigenFailed, OutOfRange
from .geometry import (SupportFunction, _fourier_coefficients, _symbols,
                       radius_of_curvature)

ZERO_TOL = 1e-6  # |lambda| at or below this counts as kernel
SHIFT = -1.5  # below every mu: at a profile only the scaling mode has mu < 0, at -1
BACKWARD_TOL = 1e-12


@dataclass
class SpectralDecomposition:
    h: SupportFunction
    alpha: float
    weights: np.ndarray = field(repr=False)  # b = h^(-1-1/alpha) per node
    eigenvalues: np.ndarray  # ascending, of -L
    eigenfunctions: np.ndarray  # rows, orthonormal for the weighted product
    residuals: np.ndarray  # per pair, weighted norm of L phi + lambda phi (reported)
    backward_errors: np.ndarray  # per pair, normwise backward error in the pencil
    morse_index: int
    kernel_dim: int
    rotation_order: int  # k: the solve used h's invariance under rotation by 2 pi / k
    bloch_classes: np.ndarray  # per pair, its Bloch class q in 0..k//2 (k - q is q)
    parities: tuple  # per pair, its sector's 'even' or 'odd'; None without the mirror

    def inner(self, v, w):
        """The weighted product dtheta sum(v w b) of nodal rows, under which L
        is self-adjoint."""
        return self.h.grid.dtheta * float(np.sum(v * w * self.weights))

    def norm(self, v):
        return math.sqrt(max(self.inner(v, v), 0.0))


def _fix_signs(phi):
    """Deterministic orientation: make the leading Fourier coefficient of
    every eigenfunction positive in the (a0, a1, b1, a2, b2, ...) scan, so
    that no output depends on the signs LAPACK returns. Works in place."""
    a0, a, b = _fourier_coefficients(phi, phi.shape[1] // 2 - 1)
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


def _sector_pencils(values, b, s):
    """(q, phases, block, mass, lift, parts) for each real symmetric or
    Hermitian pencil (block, diag(mass)) of the D_k or C_k sectors of the
    circulant A = -(d_thth + 1) and the diagonal b, under the shift by
    s = n/k nodes.

    A Bloch class q = 0..k//2 holds the vectors v[j + p s] = zeta^p u[j],
    zeta = exp(2 pi i q / k), on which A acts as the Hermitian s x s block
    H[i, j] = G[i - j], where G[d] = sum_p a[(d - p s) mod n] zeta^p for the
    column a of A and G[d - s] = G[d] / zeta; phases holds zeta^p for
    p = 0..k-1. G is real on the real classes q = 0 and q = k/2; a paired
    class 0 < q < k/2 stands for its partner k - q as well, whose vectors are
    the conjugates.

    When values are exactly even about node 0, the mirror theta -> -theta
    commutes with the pencil and maps a class-q u to zeta conj(u[s - j])
    (u[0] to conj(u[0])). The block is then taken in a basis of vectors that
    the mirror fixes (_mirror_block), in which it is real: the lift of such a
    u has a real part even about theta = 0 and an imaginary part odd. A real
    class splits into two blocks of order about s/2, its even D_k sector of
    real u and its odd sector of imaginary u; a paired class is one real
    block of order s. Without the mirror the basis is the identity and the
    block is H, complex on a paired class.

    lift(y) is u for the block's eigenvectors y (columns), and parts holds
    (part, parity) for the lifts each supplies, the real one, the imaginary
    one or both, with the parity of that lift: "even" for the real part and
    "odd" for the imaginary part with the mirror, None without it.
    """
    n = len(b)
    k = n // s
    lap, _ = _symbols(n)
    a = -np.fft.irfft(lap, n)  # A's symbol is m^2 - 1
    g = np.fft.fft(a.reshape(k, s), axis=0)
    mirror = np.array_equal(values, values[(-np.arange(n)) % n])
    hs = s // 2
    even, odd = (np.real, "even"), (np.imag, "odd")
    for q in range(k // 2 + 1):
        real = 2 * q % k == 0
        phases = np.exp(2j * np.pi * q * np.arange(k) / k)
        gq = g[q].real if real else g[q]
        if real:
            phases = phases.real
        if not mirror:
            d = np.subtract.outer(np.arange(s), np.arange(s))
            block = gq[d % s] * np.where(d < 0, phases[-1], 1.0)
            block = 0.5 * (block + block.conj().T)
            yield (q, phases, block, b[:s], lambda y: y,
                   ((np.real, None),) if real else ((np.real, None), (np.imag, None)))
            continue
        # c^2 = zeta, exact on the real classes
        c = (1.0, 1j)[2 * q // k] if real else np.exp(1j * np.pi * q / k)
        block = _mirror_block(gq, c, s)
        # b[j] = b[s - j]: each column's mass is b at its first entry
        mass = np.concatenate((b[1:hs + 1], b[:(s + 1) // 2]))
        if q == 0:  # the sums and e_0 are real (even), the differences odd
            sectors = ((slice(0, hs + 1), (even,)), (slice(hs + 1, s), (odd,)))
        elif real:  # c = i: e_0 and the differences are real (even), the sums odd
            sectors = ((slice(hs, s), (even,)), (slice(0, hs), (odd,)))
        else:
            sectors = ((slice(0, s), (even, odd)),)
        for sel, parts in sectors:
            yield (q, phases, block[sel, sel], mass[sel],
                   lambda y, sel=sel, c=c: _mirror_lift(y, sel, c, s), parts)


def _mirror_block(gq, c, s):
    """The class-q block H[i, j] = G[i - j] of gq = G[0..s-1] in the
    orthonormal basis of mirror-fixed vectors, a real symmetric matrix:
    c (e_j + e_{s-j}) / sqrt(2) for j = 1..s//2 (c e_{s/2} when j = s/2),
    then e_0, then i c (e_j - e_{s-j}) / sqrt(2) for j = 1..(s-1)//2, with
    c^2 = zeta. Between two pairs the entries are the real or imaginary part
    of the Toeplitz G[j - j'] (G[-d] = conj(G[d])) plus or minus the Hankel
    G[s - j - j']; e_0 meets pair j through conj(c) G[j]."""
    hs, ms = s // 2, (s - 1) // 2
    j = np.arange(1, hs + 1)
    toe = np.concatenate((gq[hs:0:-1].conj(), gq[:hs + 1]))[j[:, None] - j + hs]
    han = gq[s - j[:, None] - j]
    w = np.where(2 * j == s, math.sqrt(0.5), 1.0)  # c e_{s/2} is its own pair
    total = toe + han
    g1 = math.sqrt(2.0) * np.conj(c) * gq[1:hs + 1]
    block = np.empty((s, s))
    block[:hs, :hs] = w[:, None] * total.real * w
    block[:hs, hs + 1:] = -w[:, None] * total.imag[:, :ms]
    block[hs + 1:, hs + 1:] = (toe - han).real[:ms, :ms]
    block[hs, :hs] = w * g1.real
    block[hs, hs] = gq[0].real
    block[hs, hs + 1:] = g1[:ms].imag
    block[:, hs] = block[hs]
    block[hs + 1:, :hs] = block[:hs, hs + 1:].T
    return block


def _mirror_lift(y, sel, c, s):
    """u = V y for the columns sel of _mirror_block's basis V."""
    hs, ms = s // 2, (s - 1) // 2
    full = np.zeros((s, y.shape[1]))
    full[sel] = y
    u = np.zeros((s, y.shape[1]), dtype=complex)
    u[0] = full[hs]
    j = np.arange(1, hs + 1)  # j = s/2, its own partner, is added twice
    pair = (c * np.where(2 * j == s, 0.5, math.sqrt(0.5)))[:, None] * full[:hs]
    u[1:hs + 1] += pair
    u[s - 1:s - hs - 1:-1] += pair
    pair = (1j * c * math.sqrt(0.5)) * full[hs + 1:]
    u[1:ms + 1] += pair
    u[s - 1:s - ms - 1:-1] -= pair
    return u


def decompose(h: SupportFunction, alpha, j_max=40) -> SpectralDecomposition:
    """Lowest j_max eigenpairs of -L at the profile h.

    The pencil is split into the sectors of the rotations that leave h
    unchanged (Bloch classes) and, when h is exactly even about node 0, of
    the mirror as well; each sector's pencil gets one dense solve, and each
    pair it supplies carries that sector's Bloch class and parity. The
    result holds h, alpha and the weights b = h^(-1-1/alpha), and its inner
    is the weighted product for which the eigenfunctions are orthonormal.

    Raises OutOfRange unless 0 < alpha < 1, h > 0 with finite nonzero
    weights b and 1 <= j_max <= n - 1, and EigenFailed when a
    sector's dense solve fails (K = A - SHIFT B is not positive definite
    when h is far from a profile; the message names its Bloch class) or a
    pair's backward error exceeds BACKWARD_TOL.
    """
    import scipy.linalg

    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    # positivity first: the weight of an h <= 0 divides by zero or is NaN
    if not np.all(h.values > 0.0):
        raise OutOfRange("profile must be strictly positive")
    with np.errstate(over="ignore"):
        b = h.values ** (-1.0 - 1.0 / alpha)
    if not np.all(np.isfinite(b) & (b > 0.0)):
        raise OutOfRange(f"profile weights h^(-1-1/alpha) overflow or vanish at alpha {alpha}")
    n = h.grid.n
    if not 1 <= j_max <= n - 1:
        raise OutOfRange(f"j_max must lie in [1, {n - 1}], got {j_max}")
    # blocks of more than j_max nodes, so that each supplies its lowest j_max
    s = _rotation_period(h.values, j_max + 1)
    k = n // s
    mus, vecs, classes, labels = [], [], [], []
    for q, phases, block, mass, lift, parts in _sector_pencils(h.values, b, s):
        # a block of one parity (or real class) supplies up to j_max pairs, a
        # paired class ceil(j_max / 2), each lifting to two
        r = len(mass)
        want = min(r, j_max) if len(parts) == 1 else -(-j_max // 2)
        # every pair (gvd) when a tenth of the block or more is wanted, else
        # the wanted ones (gvx): the faster of the two on each block timed
        driver = (dict(driver="gvd") if 10 * want >= r else
                  dict(driver="gvx", subset_by_index=[r - want, r - 1]))
        mass = np.diag(mass)
        try:
            nu, y = scipy.linalg.eigh(mass, block - SHIFT * mass, **driver)
        except scipy.linalg.LinAlgError as exc:
            raise EigenFailed(f"dense solve failed in Bloch class {q}: {exc}")
        # the largest nu are the lowest mu; y^H K y = 1 makes y^H B y = nu
        nu = nu[:-want - 1:-1]
        y = y[:, :-want - 1:-1] / np.sqrt(nu)
        # each part of the lift has B-norm^2 k / len(parts)
        v = (phases[:, None, None] * lift(y)).reshape(n, -1)
        v = np.stack([part(v) for part, _ in parts], axis=-1).reshape(n, -1)
        vecs.append(v.T / math.sqrt(k / len(parts)))
        mus.append(np.repeat(1.0 / nu + SHIFT, len(parts)))
        classes.append(np.full(want * len(parts), q))
        labels += [parity for _, parity in parts] * want
    mus, vecs, classes = (np.concatenate(x) for x in (mus, vecs, classes))
    order = np.argsort(mus, kind="stable")[:j_max]
    mus, classes = mus[order], classes[order]
    lams = alpha * mus - 1.0
    phi = _fix_signs(vecs[order] / math.sqrt(h.grid.dtheta))
    # A multiplies Fourier mode m by m^2 - 1, so ||A||_2 = max(1, (n//2)^2 - 1)
    scale = max(1.0, (n // 2) ** 2 - 1.0) + np.abs(mus) * np.max(b)
    w_phi = radius_of_curvature(phi)
    resid = -w_phi - mus[:, None] * phi * b
    backward = np.linalg.norm(resid, axis=1) / (scale * np.linalg.norm(phi, axis=1))
    if not np.max(backward) <= BACKWARD_TOL:
        raise EigenFailed(f"eigenpair backward error {np.max(backward):.3g} "
                          f"exceeds {BACKWARD_TOL:g}")
    # ||L phi + lam phi||_h of every pair, with L phi = alpha h^(1 + 1/alpha)
    # (phi_thth + phi) + phi and ||r||_h^2 = dtheta sum(b r^2)
    r = alpha * h.values ** (1.0 + 1.0 / alpha) * w_phi + phi + lams[:, None] * phi
    residuals = np.sqrt(np.maximum(h.grid.dtheta * np.sum(r * r * b, axis=1), 0.0))
    return SpectralDecomposition(
        h=h, alpha=alpha, weights=b, eigenvalues=lams, eigenfunctions=phi,
        residuals=residuals, backward_errors=backward,
        morse_index=int(np.sum(lams < -ZERO_TOL)),
        kernel_dim=int(np.sum(np.abs(lams) <= ZERO_TOL)),
        rotation_order=k, bloch_classes=classes,
        parities=tuple(labels[i] for i in order))


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
