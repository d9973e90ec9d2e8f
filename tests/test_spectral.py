import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from acsflow.errors import EigenFailed, GridMismatch, WindowEscaped
from acsflow.geometry import (AngularGrid, circle_support, deriv1, deriv2,
                              random_convex_support)
from acsflow.shrinker import assemble_profile
from acsflow.spectral import (WeightedInnerProduct, apply_L, circle_eigenvalues,
                              decompose, energy_split, measure_growth_rate,
                              spectrum_to_json_dict)


def _circle(n=256):
    return circle_support(AngularGrid(n))


def test_circle_eigenvalue_formula():
    lams = circle_eigenvalues(1 / 8, 4)
    assert lams[0] == pytest.approx(-9 / 8)
    assert np.allclose(lams[1:3], -1.0)
    assert np.allclose(lams[3:5], -0.625)
    assert np.allclose(lams[5:7], 0.0)
    assert np.allclose(lams[7:9], 0.875)
    # zero modes appear exactly at alpha = 1/(l^2 - 1)
    assert circle_eigenvalues(1 / 15, 4)[7] == pytest.approx(0.0, abs=1e-15)


def test_apply_L_circle_modes():
    h = _circle()
    th = h.grid.nodes
    for alpha in (1 / 8, 0.5):
        for l in (0, 1, 2, 3, 5):
            v = np.cos(l * th)
            lam = alpha * (l * l - 1.0) - 1.0
            assert np.allclose(apply_L(h, alpha, v), -lam * v, atol=1e-10)


def test_apply_L_linearity(rng):
    h = _circle(128)
    v1 = rng.normal(size=128)
    v2 = rng.normal(size=128)
    lhs = apply_L(h, 0.3, 2.0 * v1 - 3.0 * v2)
    rhs = 2.0 * apply_L(h, 0.3, v1) - 3.0 * apply_L(h, 0.3, v2)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_apply_L_grid_mismatch():
    with pytest.raises(GridMismatch):
        apply_L(_circle(128), 0.5, np.ones(64))


def test_kernel_identity_profiles():
    # L h_theta = 0, limited by how well the grid resolves the profile
    for alpha, k, n, tol in [(1 / 24, 3, 768, 1e-6), (1 / 24, 4, 512, 1e-6),
                             (0.12, 3, 252, 1e-9)]:
        p = assemble_profile(alpha, k, n)
        ip = WeightedInnerProduct.build(p.h, alpha)
        ht = deriv1(p.h.values)
        assert ip.norm(apply_L(p.h, alpha, ht)) / ip.norm(ht) < tol


def test_self_adjointness(rng):
    p = assemble_profile(1 / 24, 3, 510)
    ip = WeightedInnerProduct.build(p.h, 1 / 24)
    for _ in range(3):
        v = rng.normal(size=510)
        w = rng.normal(size=510)
        a = ip.inner(apply_L(p.h, 1 / 24, v), w)
        b = ip.inner(v, apply_L(p.h, 1 / 24, w))
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_decompose_circle_matches_formula():
    dec = decompose(_circle(), 1 / 8, j_max=23)
    exact = np.sort(circle_eigenvalues(1 / 8, 11))[:23]
    assert np.max(np.abs(dec.eigenvalues - exact)) < 1e-9
    assert dec.morse_index == 5
    assert dec.kernel_dim == 2


@pytest.mark.parametrize("alpha,morse,kernel", [
    (1 / 15, 7, 2), (0.5, 3, 0), (0.2, 5, 0),
])
def test_decompose_circle_counts(alpha, morse, kernel):
    dec = decompose(_circle(), alpha, j_max=20)
    assert dec.morse_index == morse
    assert dec.kernel_dim == kernel


def test_decompose_orthonormal_and_residuals():
    dec = decompose(_circle(), 1 / 8, j_max=16)
    gram = np.array([[dec.inner(a, b) for b in dec.eigenfunctions]
                     for a in dec.eigenfunctions])
    assert np.max(np.abs(gram - np.eye(16))) < 1e-10
    assert np.all(dec.residuals < 1e-8 * (1 + np.abs(dec.eigenvalues)))


def test_decompose_profiles_morse_kernel():
    p3 = assemble_profile(1 / 24, 3, 510)
    d3 = decompose(p3.h, 1 / 24, j_max=12)
    assert (d3.morse_index, d3.kernel_dim) == (5, 1)
    assert np.all(d3.residuals < 1e-8 * (1 + np.abs(d3.eigenvalues)))
    # translations are exact eigenfunctions with eigenvalue -1
    assert np.allclose(np.sort(d3.eigenvalues)[1:3], -1.0, atol=1e-9)

    p4 = assemble_profile(1 / 24, 4, 512)
    d4 = decompose(p4.h, 1 / 24, j_max=12)
    assert (d4.morse_index, d4.kernel_dim) == (7, 1)


@pytest.mark.parametrize("alpha,k,n", [
    (0.03, 3, 1020), (0.03, 4, 1020), (0.03, 5, 1020),
    (0.02, 3, 1020), (0.02, 5, 1020), (0.02, 6, 1020),
    (0.01, 3, 2040), (0.01, 4, 2040), (0.01, 6, 2040), (0.01, 10, 2040),
])
def test_decompose_small_alpha_profiles(alpha, k, n):
    # at k3 the weight h^(-1-1/alpha) spans 5e14 (alpha 0.02) and 6e29 (alpha 0.01)
    n -= n % (2 * k)  # reflection seams on nodes
    p = assemble_profile(alpha, k, n)
    dec = decompose(p.h, alpha, j_max=2 * k + 2)
    ev = dec.eigenvalues
    assert abs(ev[0] + 1.0 + alpha) <= 1e-9  # scaling: -L h = -(1 + alpha) h
    assert np.sort(np.abs(ev + 1.0))[1] <= 1e-9  # translations cos, sin
    assert np.min(np.abs(ev)) <= 1e-9  # h_theta
    assert (dec.morse_index, dec.kernel_dim) == (2 * k - 1, 1)
    assert np.max(dec.backward_errors) <= 1e-12


def test_sector_labels_at_k3_profile():
    dec = decompose(assemble_profile(1 / 24, 3, 510).h, 1 / 24, j_max=12)
    assert dec.rotation_order == 3
    assert len(dec.bloch_classes) == len(dec.parities) == 12
    ev = dec.eigenvalues
    scaling = int(np.argmin(np.abs(ev + 1.0 + 1 / 24)))
    assert (dec.bloch_classes[scaling], dec.parities[scaling]) == (0, "even")
    translations = np.argsort(np.abs(ev + 1.0))[:2]
    assert dec.bloch_classes[translations].tolist() == [1, 1]
    assert sorted(dec.parities[j] for j in translations) == ["even", "odd"]
    kernel = int(np.argmin(np.abs(ev)))
    assert (dec.bloch_classes[kernel], dec.parities[kernel]) == (0, "odd")


@pytest.mark.parametrize("alpha,build,k", [
    (0.12, lambda: assemble_profile(0.12, 3, 252).h, 3),
    (0.5, lambda: random_convex_support(AngularGrid(256), np.random.default_rng(3)), 1),
], ids=["d3_profile", "asymmetric_body"])
def test_sector_eigenvalues_match_the_dense_pencil(alpha, build, k):
    # reference: the whole n x n pencil -(D2 + 1) v = mu b v, solved densely
    h = build()
    n = h.grid.n
    d2 = deriv2(np.eye(n))
    a = -(0.5 * (d2 + d2.T) + np.eye(n))
    b = h.values ** (-1.0 - 1.0 / alpha)
    mus = scipy.linalg.eigh(a, np.diag(b), eigvals_only=True)[:16]
    dec = decompose(h, alpha, j_max=16)
    assert dec.rotation_order == k
    assert np.max(np.abs(dec.eigenvalues - (alpha * mus - 1.0))) <= 1e-9


def test_returned_pairs_meet_the_backward_error_contract():
    # (0.12, k3, n 252) has two pairs of distinct eigenvalues within 1e-5
    # relative in Bloch class 0 (17.262976/17.263103 and 27.597226/27.597237);
    # each returned pair, not only the solver's vectors, meets the contract
    alpha = 0.12
    h = assemble_profile(alpha, 3, 252).h
    dec = decompose(h, alpha, j_max=40)
    n = h.grid.n
    b = dec.inner_product.weights
    mus = (dec.eigenvalues + 1.0) / alpha
    phi = dec.eigenfunctions
    resid = -(deriv2(phi) + phi) - mus[:, None] * phi * b
    scale = ((n // 2) ** 2 - 1.0 + np.abs(mus) * np.max(b)) * np.linalg.norm(phi, axis=1)
    backward = np.linalg.norm(resid, axis=1) / scale
    assert np.max(backward) <= 1e-12
    assert np.allclose(backward, dec.backward_errors, rtol=0, atol=1e-15)


def test_decompose_raises_when_arpack_does_not_converge(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(EigenFailed):
        decompose(_circle(64), 0.5, j_max=4)


def test_decompose_rejects_a_large_backward_error(monkeypatch):
    eigsh = scipy.sparse.linalg.eigsh

    def shifted(*args, **kwargs):
        mus, vecs = eigsh(*args, **kwargs)
        return mus + 1e-6, vecs  # backward error about 1e-9

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", shifted)
    with pytest.raises(EigenFailed):
        decompose(_circle(64), 0.5, j_max=4)


def test_kernel_eigenfunction_is_h_theta():
    p = assemble_profile(1 / 24, 3, 510)
    dec = decompose(p.h, 1 / 24, j_max=8)
    j = int(np.argmin(np.abs(dec.eigenvalues)))
    ht = deriv1(p.h.values)
    ht = ht / dec.norm(ht)
    phi = dec.eigenfunctions[j]
    err = min(dec.norm(phi - ht), dec.norm(phi + ht))
    assert err < 1e-4


def test_spectrum_stable_under_grid_doubling():
    for build in [lambda n: circle_support(AngularGrid(n)),
                  lambda n: assemble_profile(1 / 24, 4, n).h]:
        lo = decompose(build(256), 1 / 24, j_max=10).eigenvalues
        hi = decompose(build(512), 1 / 24, j_max=10).eigenvalues
        assert np.max(np.abs(lo - hi)) < 1e-8


def test_phase_convention_deterministic():
    dec1 = decompose(_circle(128), 1 / 8, j_max=10)
    dec2 = decompose(_circle(128), 1 / 8, j_max=10)
    assert np.array_equal(dec1.eigenfunctions, dec2.eigenfunctions)
    # one member of each degenerate pair is even about theta = 0
    n = 128
    rev = (-np.arange(n)) % n
    phi = dec1.eigenfunctions
    for i, j in [(1, 2), (3, 4), (5, 6)]:
        even_i = np.max(np.abs(phi[i] - phi[i][rev]))
        even_j = np.max(np.abs(phi[j] - phi[j][rev]))
        assert min(even_i, even_j) < 1e-9


def test_project_basis_vectors(rng):
    dec = decompose(_circle(128), 1 / 8, j_max=10)
    coef, (unstable, _, _), _ = energy_split(dec.eigenfunctions[2], dec)
    e2 = np.zeros(10)
    e2[2] = 1.0
    assert np.allclose(coef, e2, atol=1e-9)
    assert np.sqrt(unstable) == pytest.approx(1.0, abs=1e-9)

    th = AngularGrid(128).nodes
    _, (unstable, neutral, stable), _ = energy_split(np.cos(3 * th), dec)
    assert np.sqrt(neutral) == pytest.approx(np.sqrt(np.pi), rel=1e-9)
    assert np.sqrt(unstable) < 1e-9 and np.sqrt(stable) < 1e-9


def test_project_parseval(rng):
    dec = decompose(_circle(128), 1 / 8, j_max=12)
    v = rng.normal(scale=0.1, size=128)
    coef, _, remainder = energy_split(v, dec)
    total = dec.inner(v, v)
    recovered = float(np.sum(coef**2)) + remainder
    assert recovered == pytest.approx(total, rel=1e-9)


def test_project_grid_mismatch():
    dec = decompose(_circle(128), 1 / 8, j_max=4)
    with pytest.raises(GridMismatch):
        energy_split(np.ones(64), dec)


def _mode_index(dec, l, n):
    th = AngularGrid(n).nodes
    target = np.cos(l * th)
    overlaps = [abs(dec.inner(phi, target)) for phi in dec.eigenfunctions]
    return int(np.argmax(overlaps))


def test_growth_rate_unstable_mode():
    n = 96
    h = _circle(n)
    dec = decompose(h, 1 / 8, j_max=10)
    j = _mode_index(dec, 2, n)
    rate = measure_growth_rate(h, 1 / 8, j, 1e-4, (0.2, 1.6), decomposition=dec)
    assert rate == pytest.approx(0.625, rel=0.01)


def test_growth_rate_stable_mode():
    n = 96
    h = _circle(n)
    dec = decompose(h, 0.5, j_max=12)
    j = _mode_index(dec, 3, n)
    rate = measure_growth_rate(h, 0.5, j, 1e-4, (0.1, 1.1), decomposition=dec)
    assert rate == pytest.approx(-3.0, rel=0.02)


def test_growth_rate_neutral_mode():
    n = 96
    h = _circle(n)
    dec = decompose(h, 1 / 8, j_max=10)
    j = _mode_index(dec, 3, n)
    eps = 1e-3
    rate = measure_growth_rate(h, 1 / 8, j, eps, (0.0, 1.5), decomposition=dec)
    assert abs(rate) < 10 * eps


def test_growth_rate_window_escape():
    n = 96
    h = _circle(n)
    dec = decompose(h, 0.5, j_max=12)
    j = _mode_index(dec, 3, n)
    with pytest.raises(WindowEscaped):
        # amplitude this large makes the quadratic remainder comparable to
        # the linear term early in the window
        measure_growth_rate(h, 0.5, j, 0.2, (0.05, 0.4), decomposition=dec)


@pytest.mark.parametrize("j, lam, rel", [
    (3, -0.588, 1e-5),  # one of the unstable pair: measured 4.5e-7
    (6, 0.084, 1e-3),  # the first stable mode: measured 8.7e-5
], ids=["unstable_pair", "first_stable"])
def test_growth_rate_at_k3_shrinker(j, lam, rel):
    # the flow leaves (or returns to) the k-fold shrinker at the rate its
    # spectrum gives; the errors are the fit's, the same under RK4 and the
    # W-step, so the bounds keep a wide margin over them
    alpha = 0.12
    h = assemble_profile(alpha, 3, 252).h
    dec = decompose(h, alpha, j_max=12)
    assert dec.eigenvalues[j] == pytest.approx(lam, abs=1e-3)
    rate = measure_growth_rate(h, alpha, j, 1e-5, (0.1, 1.0), decomposition=dec)
    assert rate == pytest.approx(-dec.eigenvalues[j], rel=rel)


def test_spectrum_json_shape():
    dec = decompose(_circle(128), 0.5, j_max=6)
    obj = spectrum_to_json_dict(dec, "circle")
    assert obj["profile"] == "circle"
    assert obj["morse_index"] == 3 and obj["kernel_dim"] == 0
    assert len(obj["eigenvalues"]) == 6
    # the sector labels follow every earlier key
    assert list(obj)[-3:] == ["rotation_order", "bloch_classes", "parities"]
    assert len(obj["bloch_classes"]) == len(obj["parities"]) == 6
