"""Tests of the benchmark itself.

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps it out of the repository's default test collection; the
smoke runs take about half a minute.
"""

import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), BENCH]

import tracing  # noqa: E402
import workloads  # noqa: E402
from acsflow import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = os.path.join(ROOT, workloads.WORK_ROOT, "selftest")


def _run(workload, trace):
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload):
    plain = _run(workload, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["attempted"] >= 1
    assert plain["metrics"] == {
        m["name"]: {"value": plain["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]}
    for name, metric in plain["metrics"].items():
        assert metric["value"] > 0, name

    traced = _run(workload, 1)
    layer = {name: m["value"] for name, m in traced["metrics"].items()}
    assert [(n, traced["metrics"][n]["unit"]) for n in layer] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]
    # self times of the layers partition the traced commands' wall time
    own = sum(v for n, v in layer.items() if n.endswith(".self_s"))
    assert own == pytest.approx(layer["trace.wall_s"], rel=1e-9)
    assert plain["failed"] == 0 and traced["failed"] == 0
    if workload == "profiles":
        assert layer["flow.steps"] == 0 and layer["flow.run_s"] == 0
        assert layer["shrinker.arc_solves"] > 0 and layer["spectral.calls"] == 2
        assert layer["entropy.calls"] == 0 and layer["modes.rows"] == 0
    else:
        assert workload == "flows"
        assert layer["flow.steps"] > 0 and layer["flow.rows"] > 0
        # 201 samples with entropy on each of neutral and relax
        assert layer["entropy.calls"] == 402 and layer["entropy.evals"] > 0
        assert layer["modes.rows"] == 201 and layer["cli.files_written"] > 201
        assert layer["shrinker.arc_solves"] == 0 and layer["spectral.calls"] == 0


def _cli(argv):
    assert cli.main(argv) == 0


def test_corrupted_spectrum_fails_its_check():
    out = os.path.join(SCRATCH, "spectrum")
    _cli(["spectrum", "--alpha", repr(1 / 24), "--profile", "k3", "--n", "510",
          "--out", out])
    assert workloads._check_spectrum({}, out) == []

    path = os.path.join(out, "spectrum.json")
    with open(path) as fh:
        spec = json.load(fh)
    ev = spec["eigenvalues"]
    i = min(range(len(ev)), key=lambda j: abs(ev[j] + 1 + spec["alpha"]))
    ev[i] += 1e-6  # shift the scaling eigenvalue
    with open(path, "w") as fh:
        json.dump(spec, fh)
    problems = workloads._check_spectrum({}, out)
    assert len(problems) == 1 and "-(1+alpha)" in problems[0]


def test_small_alpha_spectrum_is_still_wrong():
    """The dense solver's known wrong answer at alpha 0.02 fails its check.

    When the solver is fixed this test fails: the spectrum then belongs in
    `profiles`, and the `small_alpha` workload can go.
    """
    alpha, k, n = workloads.SMALL_ALPHA_SPECTRUM
    out = os.path.join(SCRATCH, "small_alpha")
    _cli(["spectrum", "--alpha", repr(alpha), "--profile", f"k{k}", "--n", str(n),
          "--out", out])
    problems = workloads._check_spectrum({}, out)
    assert any("-(1+alpha)" in p for p in problems)
    assert any("kernel" in p for p in problems)


def test_corrupted_profile_fails_its_check():
    out = os.path.join(SCRATCH, "shrinker")
    _cli(["shrinker", "--alpha", repr(1 / 24), "--k", "3", "--n", "510", "--out", out])
    assert workloads._check_profile({}, out) == []

    path = os.path.join(out, "profile.json")
    with open(path) as fh:
        profile = json.load(fh)
    profile["entropy"] *= 1 + 1e-8
    with open(path, "w") as fh:
        json.dump(profile, fh)
    assert any("entropy" in p for p in workloads._check_profile({}, out))


def test_modes_check_rejects_wrong_rate():
    good = {"measured_rho_rate": -7.5 * (1 + 5e-5), "residual_rho": 0.01}
    assert workloads._check_modes(good, None) == []
    assert workloads._check_modes(dict(good, measured_rho_rate=-7.5 * (1 + 2e-4)), None)
    assert workloads._check_modes(dict(good, residual_rho=0.03), None)
    assert workloads._check_modes(dict(good, measured_rho_rate=None), None)


def test_self_times_exclude_children():
    span = tracing.Span
    spans = [span(0, "cli.flow", "cli", 0, None, 0.0, 10.0),
             span(1, "flow.run", "flow", 0, 0, 1.0, 9.0),
             span(2, "entropy.entropy", "entropy", 0, 1, 2.0, 5.0)]
    own = tracing.self_times(spans)
    assert own["cli"] == 2.0 and own["flow"] == 5.0 and own["entropy"] == 3.0
    assert math.fsum(own.values()) == 10.0
