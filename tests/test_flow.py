import math

import numpy as np
import pytest

from acsflow import flow
from acsflow.entropy import entropy
from acsflow.errors import BadConfig, InsufficientData
from acsflow.flow import (FlowConfig, area_derivative_check, area_law_fit,
                          entropy_monotonicity_check, rhs, run, trace_to_csv)
from acsflow.geometry import (AngularGrid, SupportFunction, area, circle_support,
                              random_convex_support, rotate_nodes, steiner_point,
                              translate)
from acsflow.modes import quasi_steady_seed
from acsflow.shrinker import assemble_profile

import oracles


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
    bad = SupportFunction(grid256, 1 + 0.5 * np.cos(2 * grid256.nodes))
    with pytest.raises(BadConfig):
        run(FlowConfig(alpha=0.5, mode="unnormalized", initial=bad, t_end=1.0))


def test_circle_run_matches_exact_law(grid256):
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=0.4, sample_dt=0.05)
    tr = run(cfg)
    assert tr.terminal_reason == "reached_end"
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
    # worst drift across unit windows; the slice is repelling at rate 2, so
    # longer horizons only amplify rounding-level seeds
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
    cfg = dict(alpha=1 / 8, mode="normalized_tau", t_end=1.0, sample_every=20,
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
    # the run stops at min_radius after 343 steps: a row every `every` steps
    # and one for the state where it stops, each at a later time
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=10.0, sample_every=every)
    tr = run(cfg)
    assert tr.terminal_reason == "min_radius"
    assert np.all(np.diff(tr.times) > 0)
    assert len(tr) == 1 + math.ceil(tr.n_steps / every)


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
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=1.0, sample_every=10)
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
                     t_end=0.4, sample_every=5, max_steps=20)
    tr = run(cfg)
    assert tr.terminal_reason == "max_steps"
    assert tr.n_steps == 20


def test_stats_count_twenty_two_rhs_per_step(grid256):
    # k1 = f(u) serves the step caps and the first steps of all three chains
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=0.1, sample_dt=0.05)
    stats = run(cfg).stats
    assert stats.accepted > 0
    assert stats.rejected_error == stats.rejected_convexity == 0
    assert stats.rhs_evals == 22 * stats.accepted


@pytest.mark.parametrize("mode", ["unnormalized", "normalized_tau",
                                  "normalized_area"])
def test_accepted_step_fft_calls(monkeypatch, mode):
    # stages run in Fourier space: the spectrum of u, one irfft and one rfft
    # per RHS call (12 per step), and one irfft for the error and the step
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
    assert len(counts) == 26 * stats.accepted


def test_entropy_evals_sum_over_samples(grid256):
    cfg = dict(alpha=0.5, mode="normalized_area",
               initial=_perturbed(grid256, 2, 0.1), t_end=0.2, sample_dt=0.1)
    tr = run(FlowConfig(log_entropy=True, **cfg))
    expected = sum(entropy(SupportFunction(grid256, row), 0.5).evaluations
                   for row in tr.snapshots)
    assert len(tr) == 3 and tr.stats.entropy_evals == expected > 0
    assert list(tr.stats.to_json_dict())[-1] == "entropy_evals"
    assert run(FlowConfig(**cfg)).stats.entropy_evals == 0


def test_step_is_order_five():
    # one step of the unnormalized circle, landing at h: the local error of an
    # order-5 step falls by 2^6 = 64 when h halves (by 2^5 = 32 at order 4)
    errors = []
    for h in (0.16, 0.08, 0.04):
        u = np.ones(64)
        stats = flow.FlowStats()
        status, t, _ = flow.flow_advance(u, 0.0, h, h, 0.5, "unnormalized",
                                         1e-2, 1e-2, 0.0, stats)
        assert status == "reached_end" and t == h and stats.accepted == 1
        errors.append(abs(np.mean(u) - oracles.circle_radius_at(0.5, h)))
    assert errors[0] >= 48 * errors[1]
    assert errors[1] >= 48 * errors[2]


def test_circle_extinction_step_count(grid256):
    # order-5 steps on a quarter-octave lattice of h take 343 steps
    cfg = FlowConfig(alpha=0.5, mode="unnormalized", initial=circle_support(grid256),
                     t_end=10.0, sample_every=200)
    tr = run(cfg)
    assert tr.terminal_reason == "min_radius"
    assert tr.n_steps <= 1900


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
    assert max(steps) <= 1900


def test_translated_body_area_gauge_step_count(grid256, rng):
    # the area gauge grows the translation like e^tau and its error counts
    # in full, so the translated run takes a few more steps, not twice as
    # many as with an error scaled by |u|: 1.015 to 1.018 times here, and
    # 1.098 to 1.106 times for these bodies scaled to area pi
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
    th = grid256.nodes
    e = np.stack([np.cos(th), np.sin(th)])
    # the last body has the origin outside it, so u < 0 at some nodes
    for z in ((0.0, 0.0), (0.3, -0.2), (1.5, 0.0)):
        u = translate(random_convex_support(grid256, rng), z)
        u_s = flow._about_steiner_point(u.values, e)
        centred = translate(u, steiner_point(u)).values
        assert np.max(np.abs(u_s - centred)) < 1e-14
        assert np.min(u_s) > 0.0
    assert np.min(u.values) < 0.0


@pytest.mark.parametrize("mode", ["unnormalized", "normalized_tau",
                                  "normalized_area"])
def test_batched_w_step_equals_single_rows(grid256, rng, mode):
    # the first steps of the three chains run as three rows of one W-step,
    # and the second steps of the two longer chains as two rows, each from
    # its own d0; states and increments are spectral, 256 // 2 + 2 columns
    alpha, h = 0.4, 1e-3
    z = flow._spectrum(random_convex_support(grid256, rng).values)
    k1, w = flow._flow_rhs(z, alpha, mode, flow.FlowStats())
    coeff = alpha * np.max(w ** (-alpha - 1.0))

    def step(d0, h_col, k):
        return flow._w_step(z, d0, h_col, k, coeff, alpha, mode,
                            flow.FlowStats())

    first = step(0.0, h * flow._CHAIN_STEPS, k1)
    assert first.shape == (3, 130)
    for row, frac in zip(first, (1.0, 1 / 2, 1 / 3)):
        assert np.array_equal(row, step(0.0, h * frac, k1))

    d0 = first[1:]
    k, _ = flow._flow_rhs(z + d0, alpha, mode, flow.FlowStats())
    second = step(d0, h * flow._CHAIN_STEPS[1:], k)
    assert second.shape == (2, 130)
    for i, frac in enumerate((1 / 2, 1 / 3)):
        k_row, _ = flow._flow_rhs(z + d0[i], alpha, mode, flow.FlowStats())
        assert np.array_equal(k[i], k_row)
        assert np.array_equal(second[i], step(d0[i], h * frac, k_row))


def test_step_caps_sum_to_accepted():
    # a loose tolerance lets the extinction guard bind late
    cfg = FlowConfig(alpha=0.5, mode="unnormalized",
                     initial=circle_support(AngularGrid(32)), t_end=0.666,
                     sample_dt=0.1, rtol=1e-4)
    stats = run(cfg).stats
    caps = (stats.cap_error, stats.cap_guard, stats.cap_landing)
    assert min(caps) > 0
    assert sum(caps) == stats.accepted
    assert 0.0 < stats.h_min < stats.h_max


@pytest.mark.parametrize("case, bound", [
    ("tau", 2e-11),  # measured 4.0e-12
    ("area", 2e-12),  # measured 1.1e-12
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

    # the landing times: multiples of 0.01, the last sliver absorbed in 2.0
    times = [0.0] + [i * 0.01 for i in range(1, 200)] + [2.0]
    u, t, h = u0.values.copy(), 0.0, flow.FIRST_DT
    stats = flow.FlowStats()
    reference = [u.copy()]
    for target in times[1:]:
        status, t, h = flow.flow_advance(u, t, h, target, alpha, mode, 1e-14,
                                         1e-15, 1e-3, stats)
        assert status == "reached_end" and t == target
        reference.append(u.copy())

    assert np.array_equal(tr.times, times)
    assert np.max(np.abs(tr.snapshots - np.array(reference))) < bound
    if case == "tau":
        assert tr.n_steps <= stats.accepted / 10


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
    # calls 2 to 4 take the first steps of the chains of one, two and three
    # steps in rows 0, 1 and 2
    (2, "rejected_convexity"),  # k2 of the one-step chain: its k3 stage is not finite
    (4, "rejected_error"),  # k4 of the one-step chain: T_1 is not finite
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
