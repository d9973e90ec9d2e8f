import math
import tracemalloc

import numpy as np
import pytest

from acsflow import flow, geometry, spectral
from acsflow.entropy import entropy
from acsflow.errors import BadConfig
from acsflow.flow import FlowConfig, rhs, run, trace_to_csv
from acsflow.geometry import (AngularGrid, SupportFunction, area, circle_support,
                              random_convex_support, translate)
from acsflow.modes import quasi_steady_seed
from acsflow.shrinker import assemble_profile

import oracles
from analysis import (InsufficientData, area_derivative_check, area_law_fit,
                      entropy_monotonicity_check, rotate_nodes, steiner_point)


def _perturbed(grid, m, eps):
    return SupportFunction(grid, 1.0 + eps * np.cos(m * grid.nodes))


def test_rhs_circle_values(grid256):
    u = SupportFunction(grid256, np.full(256, 2.0))
    assert np.allclose(rhs(u, 0.5, "unnormalized"), -(2.0**-0.5), atol=1e-13)
    one = circle_support(grid256)
    assert np.allclose(rhs(one, 1.0, "unnormalized"), -1.0, atol=1e-13)
    assert np.allclose(rhs(one, 0.37, "normalized_tau"), 0.0, atol=1e-13)
    assert np.allclose(rhs(one, 0.37, "normalized_area"), 0.0, atol=1e-13)
    two = SupportFunction(grid256, np.full(256, 2.0))
    assert np.allclose(rhs(two, 0.5, "normalized_tau"), 2.0 - 2.0**-0.5, atol=1e-13)


def test_rhs_profile_stationary():
    # the deep-ratio profile needs the finer grid: its near-corner tips
    # amplify any unresolved tail of h through the inverse curvature power
    p = assemble_profile(1 / 24, 3, 768)
    assert np.max(np.abs(rhs(p.h, 1 / 24, "normalized_tau"))) < 1e-6
    p4 = assemble_profile(1 / 24, 4, 512)
    assert np.max(np.abs(rhs(p4.h, 1 / 24, "normalized_tau"))) < 1e-6


def test_rhs_rotation_equivariance(grid256, rng):
    u = random_convex_support(grid256, rng)
    for mode in ("unnormalized", "normalized_tau", "normalized_area"):
        direct = rhs(rotate_nodes(u, 13), 0.4, mode)
        rotated = np.roll(rhs(u, 0.4, mode), -13)
        assert np.allclose(direct, rotated, atol=1e-12)


def test_config_validation(grid256):
    good = circle_support(grid256)
    with pytest.raises(BadConfig):
        run(FlowConfig(alpha=0.5, mode="bogus", initial=good, t_end=1.0))
    with pytest.raises(BadConfig):
        run(FlowConfig(alpha=1.5, mode="unnormalized", initial=good, t_end=1.0))
    with pytest.raises(BadConfig):
        run(FlowConfig(alpha=0.5, mode="unnormalized", initial=good, t_end=-1.0))
    # a negative rtol makes every error estimate pass, a NaN one none
    for rtol in (-1e-12, math.nan, math.inf):
        with pytest.raises(BadConfig):
            run(FlowConfig(alpha=0.5, mode="unnormalized", initial=good, t_end=1.0,
                           rtol=rtol))
    # a NaN or negative stop radius would switch the floor off
    for stop in (math.nan, -1.0):
        with pytest.raises(BadConfig):
            run(FlowConfig(alpha=0.5, mode="unnormalized", initial=good, t_end=10.0,
                           stop_min_radius=stop))
    # sample times are listed up to t_end, so both must be finite; an
    # unsampled run may go on until a stop
    for t_end, sample_dt in ((math.inf, 0.01), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(BadConfig):
            run(FlowConfig(alpha=0.1, mode="normalized_tau", initial=good, t_end=t_end,
                           sample_dt=sample_dt))
    tr = run(FlowConfig(alpha=0.5, mode="unnormalized",
                        initial=circle_support(AngularGrid(64)), t_end=math.inf,
                        sample_every=50))
    assert tr.terminal_reason == "min_radius"
    bad = SupportFunction(grid256, 1 + 0.5 * np.cos(2 * grid256.nodes))
    with pytest.raises(BadConfig):
        run(FlowConfig(alpha=0.5, mode="unnormalized", initial=bad, t_end=1.0))


def test_circle_run_matches_exact_law(grid256):
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=0.4, sample_dt=0.05)
    tr = run(cfg)
    assert tr.terminal_reason == "reached_end"
    # the error bound of the continuous extension shortens some of the
    # steps that hold samples
    assert tr.stats.rejected_sample > 0
    assert tr.stats.w_damped == 0  # a circle keeps W at the largest coefficient
    for i, t in enumerate(tr.times):
        r_exact = oracles.circle_radius_at(0.5, t)
        assert tr.snapshots[i].mean() == pytest.approx(r_exact, abs=5e-12)
        assert tr.area[i] == pytest.approx(np.pi * r_exact**2, rel=1e-10)


def test_circles_stay_circles_all_modes(grid256):
    for mode in ("unnormalized", "normalized_tau", "normalized_area"):
        cfg = FlowConfig(alpha=0.37, mode=mode, initial=circle_support(grid256),
                         t_end=1e-3, sample_every=1, max_steps=2)
        tr = run(cfg)
        dev = tr.snapshots[-1].max() - tr.snapshots[-1].min()
        assert dev < 1e-12


def test_area_mode_conserves_area(grid256):
    u0 = _perturbed(grid256, 2, 0.2)
    u0 = SupportFunction(grid256, u0.values * math.sqrt(np.pi / area(u0)))
    cfg = FlowConfig(alpha=0.5, mode="normalized_area", initial=u0, t_end=4.0,
                     sample_dt=0.5)
    tr = run(cfg)
    # worst drift per unit time, over windows of 0.5
    per_unit = np.abs(np.diff(tr.area)) / np.pi / 0.5
    assert np.max(per_unit) < 1e-8


def test_area_mode_converges_to_circle(grid256):
    u0 = _perturbed(grid256, 2, 0.2)
    u0 = SupportFunction(grid256, u0.values * math.sqrt(np.pi / area(u0)))
    cfg = FlowConfig(alpha=0.5, mode="normalized_area", initial=u0, t_end=6.0,
                     sample_dt=0.5)
    tr = run(cfg)
    assert tr.terminal_reason == "reached_end"
    assert np.max(np.abs(tr.snapshots[-1] - 1.0)) < 2e-2
    assert tr.iso_ratio[-1] == pytest.approx(1 / (4 * np.pi), rel=1e-3)
    # the perturbation amplitude decays monotonically in time
    sup = [np.max(np.abs(s - np.mean(s))) for s in tr.snapshots]
    assert all(a >= b - 1e-12 for a, b in zip(sup, sup[1:]))


@pytest.mark.parametrize("to_pi", [False, True])
def test_area_gauge_keeps_any_area(to_pi):
    # m = mean(w^(1 - alpha)) pi / A keeps the area A of any body; a gauge
    # that pins only area pi repels every other area at rate 2
    u = random_convex_support(AngularGrid(256), np.random.default_rng(7))
    if to_pi:
        u = SupportFunction(u.grid, u.values * math.sqrt(np.pi / area(u)))
    assert (area(u) == pytest.approx(np.pi, rel=1e-14)) == to_pi
    tr = run(FlowConfig(alpha=0.5, mode="normalized_area", initial=u, t_end=8.0,
                        rtol=1e-12))
    assert tr.terminal_reason == "reached_end"
    assert np.max(np.abs(tr.area - tr.area[0])) <= 1e-10


def test_normalized_flow_converges_to_the_k3_shrinker():
    # the paper's central claim: a normalized flow of a D_3-symmetric body
    # relaxes onto h_3, lowering the entropy to E_3, at the rate of the first
    # stable eigenvalue of -L in h_3's symmetry sector (Bloch class 0, even)
    alpha, k, grid = 0.1, 3, AngularGrid(252)
    u = SupportFunction(grid, 1.0 + 0.05 * np.cos(k * grid.nodes))
    u = SupportFunction(grid, u.values * math.sqrt(np.pi / area(u)))
    tr = run(FlowConfig(alpha=alpha, mode="normalized_area", initial=u, t_end=20.0,
                        stop_min_radius=1e-6, rtol=1e-9, sample_dt=0.25,
                        log_entropy=True))
    assert tr.terminal_reason == "reached_end"
    profile = assemble_profile(alpha, k, grid.n)
    assert entropy_monotonicity_check(tr) <= 0.0
    assert abs(tr.entropy[-1] - profile.entropy) <= 1e-6
    # sup distance to h_3 at area pi, least over rotations by whole nodes
    h = profile.h.values * math.sqrt(np.pi / area(profile.h))
    dist = np.array([min(np.max(np.abs(s - np.roll(h, j))) for j in range(grid.n // k))
                     for s in tr.snapshots])
    assert np.all(np.diff(dist) < 0.0) and dist[-1] < 2e-3 * dist[0]
    late = tr.times >= 14.0
    rate = -np.polyfit(tr.times[late], np.log(dist[late]), 1)[0]
    dec = spectral.decompose(profile.h, alpha)
    stable = [lam for lam, q, parity in
              zip(dec.eigenvalues, dec.bloch_classes, dec.parities)
              if q == 0 and parity == "even" and lam > spectral.ZERO_TOL]
    assert abs(rate - stable[0]) <= 1e-2


def test_tau_mode_shrinks_perturbation(grid256):
    # small two-mode perturbation decays in shape before the scale instability
    # of the exponential gauge takes over
    cfg = FlowConfig(alpha=0.5, mode="normalized_tau",
                     initial=_perturbed(grid256, 2, 0.05), t_end=2.0,
                     sample_dt=0.25)
    tr = run(cfg)
    amp0 = np.max(np.abs(tr.snapshots[0] - np.mean(tr.snapshots[0])))
    amp1 = np.max(np.abs(tr.snapshots[-1] - np.mean(tr.snapshots[-1])))
    # mode-2 eigenvalue of the linearization is alpha*3 - 1 = 1/2: e^{-1} decay
    assert amp1 < amp0 * math.exp(-0.5 * 2.0) * 1.2


def test_profile_is_stationary_under_tau_flow():
    p = assemble_profile(0.12, 3, 252)
    cfg = FlowConfig(alpha=0.12, mode="normalized_tau", initial=p.h, t_end=5.0,
                     sample_dt=0.5)
    tr = run(cfg)
    drift = max(np.max(np.abs(tr.snapshots[i] - p.h.values)) for i in range(len(tr)))
    assert drift < 1e-5


def test_comparison_principle(grid256):
    inner = circle_support(grid256, 0.8)
    outer = _perturbed(grid256, 3, 0.1)  # min 0.9 > 0.8
    cfg = dict(alpha=0.5, mode="unnormalized", t_end=0.2, sample_dt=0.05)
    tr_in = run(FlowConfig(initial=inner, **cfg))
    tr_out = run(FlowConfig(initial=outer, **cfg))
    for i in range(len(tr_in)):
        assert np.all(tr_in.snapshots[i] <= tr_out.snapshots[i] + 1e-8)


def test_run_rotation_equivariance(grid256):
    u0 = _perturbed(grid256, 3, 0.1)
    cfg = dict(alpha=0.4, mode="unnormalized", t_end=0.05, sample_dt=0.05)
    direct = run(FlowConfig(initial=rotate_nodes(u0, 19), **cfg)).snapshots[-1]
    rotated = np.roll(run(FlowConfig(initial=u0, **cfg)).snapshots[-1], -19)
    assert np.max(np.abs(direct - rotated)) < 1e-10


@pytest.mark.parametrize("n", [120, 256, 1024])
def test_circle_stays_round_to_the_last_bit(n):
    # D2 acts on u - mean(u): the rounding of its row sums must not make a
    # centred circle's nodes drift apart
    cfg = FlowConfig(alpha=0.5, mode="unnormalized",
                     initial=circle_support(AngularGrid(n)), t_end=1.0,
                     sample_every=50, max_steps=50)
    tr = run(cfg)
    assert tr.n_steps == 50
    assert np.ptp(tr.snapshots[-1]) == 0.0


@pytest.mark.parametrize("n", [120, 256, 1024])
def test_run_roll_equivariance_to_rounding(n):
    grid = AngularGrid(n)
    th = grid.nodes
    u0 = SupportFunction(grid, 1.0 + 2e-3 * np.cos(3 * th) + 1e-3 * np.sin(5 * th))
    cfg = dict(alpha=1 / 8, mode="normalized_tau", t_end=3.0, sample_every=20,
               max_steps=20)
    direct = run(FlowConfig(initial=u0, **cfg))
    rolled = run(FlowConfig(initial=rotate_nodes(u0, -7), **cfg))
    assert direct.n_steps == rolled.n_steps == 20
    diff = np.roll(direct.snapshots[-1], 7) - rolled.snapshots[-1]
    assert np.max(np.abs(diff)) < 1e-15


def test_min_radius_termination(grid256):
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=10.0, sample_every=50)
    tr = run(cfg)
    assert tr.terminal_reason == "min_radius"
    assert tr.min_curvature[-1] >= 1.0 / (2 * 1e-3)
    assert np.all(np.diff(tr.times) > 0)


@pytest.mark.parametrize("every", [1, 7])
def test_stopping_state_is_recorded_once(grid256, every):
    # the run stops at min_radius after 60 steps: a row every `every` steps
    # and one for the state where it stops, each at a later time
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=10.0, sample_every=every)
    tr = run(cfg)
    assert tr.terminal_reason == "min_radius"
    assert np.all(np.diff(tr.times) > 0)
    assert len(tr) == 1 + math.ceil(tr.n_steps / every)


def test_sample_interval_past_t_end_records_only_the_ends():
    # no multiple of sample_dt lies inside (0, t_end - sample_dt / 4]: the
    # run keeps the start and the end state, not every accepted step
    u0 = random_convex_support(AngularGrid(64), np.random.default_rng(1))
    tr = run(FlowConfig(alpha=0.5, mode="normalized_tau", initial=u0,
                        t_end=0.012, sample_dt=0.01))
    assert tr.terminal_reason == "reached_end" and tr.n_steps > 1
    assert tr.times.tolist() == [0.0, 0.012]


def test_extension_memory_stays_near_the_snapshots():
    # 8 steps hold 1,000 samples; the extension is formed 16 fractions at a
    # time, so the traced peak is the snapshots' rows and their array, 8.2 MB
    # each (measured 2.3 times their size, and 6.9 when all of a step's
    # samples were formed at once)
    u0 = quasi_steady_seed(AngularGrid(1024), 3, 1e-3)
    tracemalloc.start()
    try:
        tr = run(FlowConfig(alpha=1 / 8, mode="normalized_tau", initial=u0, t_end=1.0,
                            sample_dt=1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr) == 1001
    assert peak <= 3 * tr.snapshots.nbytes


def test_area_derivative_identity(grid256, rng):
    assert area_derivative_check(circle_support(grid256), 1.0) < 1e-8
    r2 = SupportFunction(grid256, np.full(256, 2.0))
    assert area_derivative_check(r2, 0.5) < 1e-8
    u = random_convex_support(grid256, rng)
    assert area_derivative_check(u, 0.5) < 1e-6


def test_area_derivative_closed_forms(grid256):
    # dA/dt = -integral kappa^(alpha-1): circle alpha=1 gives -2 pi exactly
    one = circle_support(grid256)
    w = np.ones(256)
    assert -grid256.dtheta * np.sum(w ** (1 - 1.0)) == pytest.approx(-2 * np.pi)
    tr = run(FlowConfig(alpha=1.0, mode="unnormalized", initial=one, t_end=0.01,
                        sample_dt=0.01))
    slope = (tr.area[-1] - tr.area[0]) / 0.01
    assert slope == pytest.approx(-2 * np.pi, rel=1e-3)


def test_area_law_circle(grid256):
    # order-7 steps reach the stop radius in about 60 steps, 31 rows here
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=1.0, sample_every=2)
    fit = area_law_fit(run(cfg))
    assert fit.exponent == pytest.approx(4.0 / 3.0, rel=0.01)
    assert fit.t_extinction == pytest.approx(oracles.circle_extinction_time(0.5),
                                             abs=1e-6)


def test_area_law_insufficient(grid256):
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=0.01, sample_dt=0.005)
    with pytest.raises(InsufficientData):
        area_law_fit(run(cfg))


def test_entropy_monotone_short(grid256):
    u0 = _perturbed(grid256, 2, 0.2)
    cfg = FlowConfig(alpha=0.5, mode="normalized_area", initial=u0, t_end=1.0,
                     sample_dt=0.1, log_entropy=True)
    tr = run(cfg)
    assert entropy_monotonicity_check(tr) <= 1e-7
    # strict decrease away from the circle
    assert tr.entropy[1] < tr.entropy[0]


def test_entropy_check_requires_logging(grid256):
    cfg = FlowConfig(alpha=0.5, mode="normalized_area",
                     initial=_perturbed(grid256, 2, 0.1), t_end=0.2, sample_dt=0.1)
    with pytest.raises(InsufficientData):
        entropy_monotonicity_check(run(cfg))


def test_trace_csv_format(grid256):
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=0.02, sample_dt=0.01)
    text = trace_to_csv(run(cfg))
    lines = text.strip().splitlines()
    assert lines[0] == "time,area,length,iso_ratio,min_curv,max_curv,entropy"
    assert lines[1].endswith(",")  # entropy column empty when not logged


def test_max_steps_reason(grid256):
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=0.4, sample_every=5, max_steps=8)
    tr = run(cfg)
    assert tr.terminal_reason == "max_steps"
    assert tr.n_steps == 8


def test_stats_count_twenty_eight_rhs_per_step(grid256):
    # k1 = f(u) at the start serves the step caps and the first substeps of
    # all seven chains; a step that passes the error test has formed its 27
    # substep states and f(u_1), which an accepted step hands on as the next
    # k1, however the run then ends; an error rejection forms no f(u_1)
    for options, reason in (
            (dict(t_end=0.1, sample_dt=0.03), "reached_end"),  # last step holds 0.09
            (dict(t_end=0.1, sample_dt=0.05), "reached_end"),  # last step holds none
            (dict(t_end=0.1), "reached_end"),
            (dict(t_end=0.4, max_steps=8), "max_steps"),
            (dict(t_end=10.0, sample_every=50), "min_radius")):
        cfg = FlowConfig(alpha=0.5, mode="unnormalized",
                         initial=circle_support(grid256), **options)
        tr = run(cfg)
        stats = tr.stats
        assert tr.terminal_reason == reason and stats.accepted > 0
        assert stats.rejected_convexity == 0
        assert stats.rhs_evals == (1 + 28 * (stats.accepted + stats.rejected_sample)
                                   + 27 * stats.rejected_error)


@pytest.mark.parametrize("mode", ["unnormalized", "normalized_tau",
                                  "normalized_area"])
def test_accepted_step_fft_calls(monkeypatch, mode):
    # substeps run in Fourier space: the spectrum of u and k1 at the start,
    # then per step one irfft and one rfft per RHS call (9 substep calls and
    # f(u_1)), one irfft for the error and the step, and the spectrum of u_1
    counts = []
    for name in ("rfft", "irfft"):
        real = getattr(np.fft, name)

        def counted(*args, real=real, **kwargs):
            counts.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    u = 1.0 + 1e-2 * np.cos(3 * AngularGrid(64).nodes)
    stats = flow.FlowStats()
    status, _, _ = flow.flow_advance(u, 0.0, 1e-3, 1.0, 0.5, mode, 1e-8, 1e-11,
                                     1e-3, stats, max_steps=4)
    assert status == "max_steps" and stats.accepted == 4
    assert stats.rejected_error == stats.rejected_convexity == 0
    assert stats.rhs_evals == 1 + 28 * stats.accepted
    assert len(counts) == 3 + 22 * stats.accepted


def test_entropy_evals_sum_over_samples(grid256):
    cfg = dict(alpha=0.5, mode="normalized_area",
               initial=_perturbed(grid256, 2, 0.1), t_end=0.2, sample_dt=0.1)
    tr = run(FlowConfig(log_entropy=True, **cfg))
    expected = sum(entropy(SupportFunction(grid256, row), 0.5).evaluations
                   for row in tr.snapshots)
    assert len(tr) == 3 and tr.stats.entropy_evals == expected > 0
    assert list(tr.stats.to_json_dict())[-1] == "entropy_evals"
    assert run(FlowConfig(**cfg)).stats.entropy_evals == 0


def test_step_is_order_seven():
    # one step of the unnormalized circle, landing at h: the local error of an
    # order-7 step falls by 2^8 = 256 when h halves (by 2^7 = 128 at order 6).
    # At alpha 1 the circle extinguishes at t = 1/2, so these h are long
    # enough for the error to stand above rounding (2.9e-15 at h 0.05)
    errors = []
    for h in (0.2, 0.1, 0.05):
        u = np.ones(64)
        stats = flow.FlowStats()
        status, t, _ = flow.flow_advance(u, 0.0, h, h, 1.0, "unnormalized",
                                         1e-2, 1e-2, 0.0, stats)
        assert status == "reached_end" and t == h and stats.accepted == 1
        errors.append(abs(np.mean(u) - oracles.circle_radius_at(1.0, h)))
    assert errors[0] >= 192 * errors[1]
    assert errors[1] >= 192 * errors[2]


def test_circle_extinction_step_count(grid256):
    # order-7 steps on a quarter-octave lattice of h take 60 steps; with no
    # sample times no step holds a sample, so the sample bound rejects none
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=10.0, sample_every=200)
    tr = run(cfg)
    assert tr.terminal_reason == "min_radius"
    assert tr.n_steps <= 175
    assert tr.stats.rejected_sample == 0


def test_translated_circle_extinction_step_count(grid256):
    # the error is scaled by the support function about the Steiner point,
    # so moving the origin leaves the step sequence as it is, up to rounding
    steps = []
    for centre in ((0.0, 0.0), (0.05, 0.0), (0.2, -0.1)):
        cfg = FlowConfig(alpha=0.5, mode="unnormalized",
                         initial=circle_support(grid256, center=centre),
                         t_end=10.0, sample_every=200)
        tr = run(cfg)
        assert tr.terminal_reason == "min_radius"
        steps.append(tr.n_steps)
    assert max(steps) - min(steps) <= 1
    assert max(steps) <= 175


def test_translated_body_area_gauge_step_count(grid256, rng):
    # the area gauge grows the translation like e^tau and its error counts
    # in full, so the translated run takes a few more steps, not twice as
    # many as with an error scaled by |u|: 1.003 to 1.005 times here, and the
    # same for these bodies scaled to area pi, which take the same steps
    for _ in range(3):
        u = random_convex_support(grid256, rng)
        u = translate(u, steiner_point(u))
        steps = []
        for shift in ((0.0, 0.0), (-0.3, 0.2)):  # the body moves by (0.3, -0.2)
            cfg = FlowConfig(alpha=0.5, mode="normalized_area",
                             initial=translate(u, shift), t_end=2.0,
                             sample_dt=0.5)
            tr = run(cfg)
            assert tr.terminal_reason == "reached_end"
            steps.append(tr.n_steps)
        assert steps[1] <= 1.1 * steps[0]


def test_translated_circle_run_matches_exact_law(grid256):
    cfg = FlowConfig(alpha=0.5, mode="unnormalized",
                     initial=circle_support(grid256, center=(0.2, 0.0)),
                     t_end=0.4, sample_dt=0.05)
    tr = run(cfg)
    assert tr.terminal_reason == "reached_end"
    for i, t in enumerate(tr.times):
        r_exact = oracles.circle_radius_at(0.5, t)
        assert tr.snapshots[i].mean() == pytest.approx(r_exact, abs=5e-12)
        assert tr.area[i] == pytest.approx(np.pi * r_exact**2, rel=1e-10)


def test_error_scale_is_about_the_steiner_point(grid256, rng):
    # the last body has the origin outside it, so u < 0 at some nodes
    for z in ((0.0, 0.0), (0.3, -0.2), (1.5, 0.0)):
        u = translate(random_convex_support(grid256, rng), z)
        u_s = geometry._about_steiner_point(u.values)
        centred = translate(u, steiner_point(u)).values
        assert np.max(np.abs(u_s - centred)) < 1e-14
        assert np.min(u_s) > 0.0
    assert np.min(u.values) < 0.0


@pytest.mark.parametrize("mode", ["unnormalized", "normalized_tau",
                                  "normalized_area"])
def test_batched_w_step_equals_single_rows(grid256, rng, mode):
    # the i-th W-steps (linearly implicit Euler substeps) of the chains
    # still running are the rows of one RHS call; each row equals its chain
    # run alone, substep by substep, with states and increments spectral,
    # 256 // 2 + 2 columns, and so does each substep's increment kept for
    # the continuous extension
    alpha, h = 0.4, 1e-3
    z = geometry._spectrum(random_convex_support(grid256, rng).values)
    k1, w = flow._flow_rhs(z, alpha, mode, flow.FlowStats())
    coeff = alpha * np.max(w ** (-alpha - 1.0))
    _, msq = geometry._symbols(256)

    batched = flow._chain_increments(z, h, k1, coeff, alpha, mode, flow.FlowStats())
    states = np.full((34, 130), np.nan, dtype=complex)
    kept = flow._chain_increments(z, h, k1, coeff, alpha, mode, flow.FlowStats(), states)
    assert batched.shape == (7, 130) and np.array_equal(kept, batched)
    for r, j in enumerate((1, 2, 3, 4, 6, 8, 10)):
        inv_w = 1.0 / (1.0 + ((h / j) * coeff) * msq)
        d = ((h / j) * k1) * inv_w
        steps = [d]
        for _ in range(j - 1):
            k, _ = flow._flow_rhs(z + d, alpha, mode, flow.FlowStats())
            steps.append(((h / j) * k) * inv_w)
            d = d + steps[-1]
        assert np.array_equal(batched[r], d)
        # the increment of substep i + 1 is kept at row _KEPT[i] + r - _FIRST[i]
        rows = [flow._KEPT[i] + r - flow._FIRST[i] for i in range(j)]
        assert np.array_equal(states[rows], steps)
    assert not np.isnan(states).any()  # every kept row is an increment


def _linear_step_states(lam, h):
    """The stacked states of one step of u' = lam u from u = 1, as the marcher
    keeps them for the continuous extension: its chains of linearly implicit
    Euler substeps, W = 1 - (h/j) lam, with the step's ends set exact, so
    the extension's error is its own."""
    states = np.zeros((flow._KEPT[-1] + 2, 1), dtype=complex)
    for r, j in enumerate(flow._SEQ):
        d = 0.0
        for i in range(j):
            step = (h / j) * lam * (1.0 + d) / (1.0 - (h / j) * lam)
            states[flow._KEPT[i] + r - flow._FIRST[i]] = step
            d += step
    states[-2:, 0] = h * lam, math.exp(lam * h) - 1.0
    return states


@pytest.mark.parametrize("lam", [-1.0, 3.0, -8.0])
def test_extension_error_estimate_tracks_the_interpolant(lam):
    # the estimate bounds the extension's largest error over the step, and
    # overstates it by at most 20 (measured 1.19 to 2.38). At lambda 3, h 0.4
    # d1 exceeds d2 and reads 0.79 of the error; the factor (d1 / d2)^(1/2),
    # 1.50 there, lifts the estimate above it
    v = np.linspace(0.01, 0.99, 99)
    for h in (0.4, 0.2):
        q, d1, d2 = flow._extension(v, _linear_step_states(lam, h))[..., 0]
        true = np.max(np.abs(1.0 + q - np.exp(lam * h * (1.0 - v))))
        est = flow._extension_estimate(d1, d2)
        assert true <= est <= 20.0 * true


def test_extension_error_estimate_bounds_a_lone_sample():
    # on u' = -u with h 0.4, d1 = Q_0 - Q_1 changes sign near s 0.57, where
    # an estimate from that sample alone reads 3.1e-5 of the error there;
    # with the marcher's probes at s = 1/4, 1/2 and 3/4 it bounds it
    # (measured 1.7 times the error)
    lam, h, v = -1.0, 0.4, np.array([0.43])
    q, d1, d2 = flow._extension(v, _linear_step_states(lam, h))[..., 0]
    true = abs(1.0 + q[0] - math.exp(lam * h * 0.57))
    assert flow._extension_estimate(d1, d2) < 1e-3 * true
    q, d1, d2 = flow._extension(np.append(v, flow._PROBES),
                                _linear_step_states(lam, h))[..., 0]
    assert true <= flow._extension_estimate(d1, d2) <= 20.0 * true


def test_step_caps_sum_to_accepted():
    # every accepted step is set by the error controller or lands on t_end
    cfg = FlowConfig(alpha=0.5, mode="unnormalized",
                     initial=circle_support(AngularGrid(32)), t_end=0.666,
                     sample_dt=0.1, rtol=1e-4)
    stats = run(cfg).stats
    caps = (stats.cap_error, stats.cap_landing)
    assert min(caps) > 0
    assert sum(caps) == stats.accepted
    assert 0.0 < stats.h_min < stats.h_max


def _landing_reference(u0, alpha, mode):
    """The rows of a run from u0 to t_end 2 that lands on every multiple of
    0.01 at rtol 1e-14, and its FlowStats; the last sliver is absorbed in
    2.0, as run does."""
    times = [i * 0.01 for i in range(1, 200)] + [2.0]
    u, t, h = u0.values.copy(), 0.0, flow.FIRST_DT
    stats = flow.FlowStats()
    reference = [u.copy()]
    for target in times:
        status, t, h = flow.flow_advance(u, t, h, target, alpha, mode, 1e-14,
                                         1e-15, 1e-3, stats)
        assert status == "reached_end" and t == target
        reference.append(u.copy())
    return np.array(reference), stats


@pytest.mark.parametrize("case, bound", [
    ("tau", 2e-11),  # measured 1.2e-13
    ("area", 2e-12),  # measured 7.2e-13
], ids=["tau", "area"])
def test_sampled_states_match_landing_reference(rng, case, bound):
    # samples from the continuous extension of the steps against a run that
    # lands on every sample time at rtol 1e-14
    if case == "tau":
        alpha, mode, u0 = 1 / 8, "normalized_tau", quasi_steady_seed(
            AngularGrid(512), 3, 1e-3)
    else:
        grid = AngularGrid(256)
        u0 = random_convex_support(grid, rng)
        alpha, mode = 0.5, "normalized_area"
        u0 = SupportFunction(grid, u0.values * math.sqrt(np.pi / area(u0)))
    tr = run(FlowConfig(alpha=alpha, mode=mode, initial=u0, t_end=2.0,
                        sample_dt=0.01))
    assert tr.terminal_reason == "reached_end"
    reference, stats = _landing_reference(u0, alpha, mode)
    assert np.array_equal(tr.times, [0.0] + [i * 0.01 for i in range(1, 200)] + [2.0])
    assert np.max(np.abs(tr.snapshots - reference)) < bound
    if case == "tau":
        assert tr.n_steps <= stats.accepted / 10
        assert tr.stats.w_damped == 0
    else:
        # the body's coefficients spread, so W takes 3/4 of the largest:
        # 172 steps, where the largest itself took 226
        assert tr.n_steps <= 180 and tr.stats.w_damped > 0


@pytest.mark.parametrize("n", [512, 1024])
def test_tau_samples_need_no_rejections_at_any_n(n):
    # the neutral case: samples every 0.01 of a tau run near the circle. The
    # extension is built from the substep increments, whose top modes W
    # damps, so its rounding does not grow like n^4, and the steps need not
    # shorten for the samples: 9 steps and no sample rejections at both n,
    # 1.2e-13 (n 512) and 1.6e-13 (n 1024) off the landing reference
    u0 = quasi_steady_seed(AngularGrid(n), 3, 1e-3)
    tr = run(FlowConfig(alpha=1 / 8, mode="normalized_tau", initial=u0, t_end=2.0,
                        sample_dt=0.01))
    assert tr.terminal_reason == "reached_end"
    assert tr.n_steps <= 10 and tr.stats.rejected_sample == 0
    assert tr.stats.w_damped == 0  # min(a) / max(a) 0.98: W is not damped
    reference, _ = _landing_reference(u0, 1 / 8, "normalized_tau")
    assert np.max(np.abs(tr.snapshots - reference)) <= 5e-13


def _advance(u, mode="normalized_tau", t_limit=0.01):
    stats = flow.FlowStats()
    status, t, _ = flow.flow_advance(u, 0.0, 1e-3, t_limit, 0.5, mode,
                                     1e-8, 1e-11, 1e-3, stats)
    return status, t, stats


def test_non_finite_state_is_non_convex():
    u = np.ones(64)
    u[5] = np.nan
    status, t, stats = _advance(u)
    assert status == "non_convex"
    assert t == 0.0 and stats.accepted == 0
    assert np.isnan(u[5]) and np.all(np.delete(u, 5) == 1.0)


@pytest.mark.parametrize("poisoned_call, rejection", [
    # call 1 is k1, and call i + 1 takes substep i of the chains of more
    # than i substeps, the shortest in row 0
    (4, "rejected_error"),  # the last of the 4-chain: T_4 is not finite
    (7, "rejected_convexity"),  # the 7th of the 8-chain: its last state is not finite
])
def test_non_finite_stage_rejects_step(monkeypatch, poisoned_call, rejection):
    real = flow._flow_rhs
    calls = []

    def poisoned(v, *args):
        du, w = real(v, *args)
        calls.append(None)
        if len(calls) == poisoned_call:
            du = du.copy()
            du[0, 3] = np.nan
        return du, w

    monkeypatch.setattr(flow, "_flow_rhs", poisoned)
    u = 1.0 + 1e-2 * np.cos(3 * AngularGrid(64).nodes)
    status, t, stats = _advance(u, mode="unnormalized")
    assert status == "reached_end" and t == 0.01
    assert getattr(stats, rejection) == 1
    assert stats.rejected_error + stats.rejected_convexity == 1
    assert np.all(np.isfinite(u))


def test_non_convex_end_state_retries_the_step(monkeypatch):
    # call 11 is f(u_1) of the first step, which would land on t_limit with
    # no sample inside: u_1 failing the convexity test rejects the step like
    # a failing substep, nothing of it is recorded, and the march goes on
    # from h / 4 to t_limit
    real = flow._flow_rhs
    calls = []

    def failing(v, *args):
        calls.append(None)
        du, w = real(v, *args)
        return (None, w) if len(calls) == 11 else (du, w)

    monkeypatch.setattr(flow, "_flow_rhs", failing)
    u = 1.0 + 1e-2 * np.cos(3 * AngularGrid(64).nodes)
    rows, stats = [], flow.FlowStats()
    status, t, _ = flow.flow_advance(u, 0.0, 1e-3, 1e-3, 0.5, "unnormalized", 1e-8,
                                     1e-11, 1e-3, stats,
                                     record=lambda *row: rows.append(row))
    assert status == "reached_end" and t == 1e-3
    assert stats.rejected_convexity == 1 and stats.rejected_error == 0
    assert rows[0][0] == stats.h_min == 2.5e-4 and rows[-1][0] == 1e-3
    assert len(rows) == stats.accepted == stats.cap_error + stats.cap_landing
    assert stats.rhs_evals == 1 + 28 * (stats.accepted + stats.rejected_convexity)


def test_tau_run_from_a_shrinker_reaches_its_end():
    # a shrinker is stationary in the tau gauge, and its small radii of
    # curvature (min 4.0e-6 at (0.04, k3, n 600)) cap no step: the run
    # reaches tau 0.05 in 64 steps, 1.2e-10 off the profile (a cap of
    # 0.2 min(w)^(1 + alpha), 4.8e-7, would stop it at tau 2.4e-4)
    h = assemble_profile(0.04, 3, 600).h
    tr = run(FlowConfig(alpha=0.04, mode="normalized_tau", initial=h, t_end=0.05,
                        sample_dt=0.01, stop_min_radius=1e-300, max_steps=500))
    assert tr.terminal_reason == "reached_end" and tr.times[-1] == 0.05
    assert np.max(np.abs(tr.snapshots[-1] - h.values)) < 1e-9
