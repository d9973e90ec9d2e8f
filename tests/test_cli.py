import filecmp
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from acsflow import cli, geometry, shrinker, spectral


def _files(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def _tau_flow(out):
    """A short normalized flow at alpha 1/8, n 32, that modes --k 3 accepts."""
    assert cli.main(["flow", "--alpha", "0.125", "--mode", "tau", "--init",
                     "seed:3,0.001", "--n", "32", "--t-end", "0.05",
                     "--sample-dt", "0.01", "--outdir", out]) == 0


def test_flow_rerun_is_byte_identical_and_feeds_modes(tmp_path, capsys):
    argv = ["flow", "--alpha", "0.125", "--mode", "tau", "--init", "seed:3,0.01",
            "--n", "48", "--t-end", "0.1", "--sample-dt", "0.01"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(argv + ["--outdir", a]) == 0
    assert cli.main(argv + ["--outdir", b]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    stats = json.loads(first)["stats"]
    assert stats["accepted"] == json.loads(first)["accepted_steps"] > 0
    assert stats["accepted"] == stats["cap_error"] + stats["cap_landing"]

    names = _files(a)
    assert names == _files(b)
    assert "trace.csv" in names and "meta.json" in names
    assert [f for f in names if f.startswith("snapshots")] == ["snapshots.npy"]
    assert np.load(os.path.join(a, "snapshots.npy")).shape == (11, 48)
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []
    with open(os.path.join(a, "meta.json")) as fh:
        assert json.load(fh)["stats"] == stats

    assert cli.main(["modes", "--trace", a, "--k", "3"]) == 0
    assert os.path.isfile(os.path.join(a, "modes.csv"))


def test_shrinker_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["shrinker", "--alpha", repr(1 / 24), "--k", "3", "--n", "510"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(argv + ["--out", a]) == 0
    assert cli.main(argv + ["--out", b]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second

    names = _files(a)
    assert names == _files(b) == ["meta.json", "profile.json", "segment.csv"]
    assert sorted(os.listdir(a)) == names  # no empty snapshots/ directory
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []
    with open(os.path.join(a, "meta.json")) as fh:
        meta = json.load(fh)
    assert 0.0 <= meta["fint_drift"] < 1e-9
    assert list(meta)[-2:] == ["fint_drift", "arc_solves"]
    assert 1 <= meta["arc_solves"] <= 20
    # JSON floats round-trip exactly
    with open(os.path.join(a, "profile.json")) as fh:
        h = json.load(fh)["h"]
    assert h == shrinker.assemble_profile(1 / 24, 3, 510).h.values.tolist()


def test_spectrum_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["spectrum", "--alpha", "0.02", "--profile", "k3", "--n", "1020"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(argv + ["--out", a]) == 0
    assert cli.main(argv + ["--out", b]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second

    names = _files(a)
    assert names == _files(b) == ["meta.json", "spectrum.json"]
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []
    with open(os.path.join(a, "spectrum.json")) as fh:
        spec = json.load(fh)
    assert len(spec["backward_errors"]) == len(spec["residuals"]) == 40
    assert max(spec["backward_errors"]) <= 1e-12
    # JSON floats round-trip exactly
    profile = shrinker.assemble_profile(0.02, 3, 1020)
    assert spec["eigenvalues"] == spectral.decompose(profile.h, 0.02).eigenvalues.tolist()


def test_entropy_table_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["entropy-table", "--alpha", "0.05"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(argv + ["--out", a]) == 0
    assert cli.main(argv + ["--out", b]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    assert [row[0] for row in json.loads(first)["rows"]] == ["circle", 4, 3]

    names = _files(a)
    assert names == _files(b) == ["entropy_table.json", "meta.json"]
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_modes_rerun_is_byte_identical(tmp_path, capsys):
    # long enough for the 2k mode to settle, so the rho rate is measured too
    trace = str(tmp_path / "trace")
    assert cli.main(["flow", "--alpha", "0.125", "--mode", "tau", "--init",
                     "seed:3,0.001", "--n", "64", "--t-end", "2", "--sample-dt",
                     "0.01", "--outdir", trace]) == 0
    capsys.readouterr()
    argv = ["modes", "--trace", trace, "--k", "3"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(argv + ["--out", a]) == 0
    assert cli.main(argv + ["--out", b]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    assert json.loads(first)["measured_rho_rate"] is not None

    names = _files(a)
    assert names == _files(b) == ["modes.csv", "residuals.json"]
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


_LINEAR = {"k": 3, "alpha": 0.125, "rows_used": None,
           "entries": {name: {"residual": None, "scale_power": 1.0}
                       for name in ("A0", "A2k", "B2k")}}
_NEUTRAL = {"k": 3, "alpha": 0.125, "rows_used": None,
            "entries": {"Ak": {"residual": None, "scale_power": 1.5},
                        "Bk": {"residual": None, "scale_power": 1.5},
                        "rho": {"residual": None, "scale_power": 2.0},
                        "Q": {"residual": None, "scale_power": 2.0}}}


def _layout(value, pinned):
    """Whether value has pinned's keys in pinned's order, and its values
    where pinned holds one other than None."""
    if isinstance(pinned, dict):
        return (isinstance(value, dict) and list(value) == list(pinned)
                and all(_layout(value[key], pinned[key]) for key in pinned))
    return pinned is None or value == pinned


def test_modes_writes_each_report_its_run_allows(tmp_path, capsys):
    # a full run writes every report; one too short for the post-transient
    # window has no rate; one above the smallness bound has no residuals
    cases = {
        "full": ("seed:3,0.001", "2",
                 ["k", "alpha", "cstar", "rows", "residual_rho", "measured_rho_rate",
                  "rel_error"],
                 {"linear": _LINEAR, "neutral": _NEUTRAL,
                  "quasi_steady": {"a0_max_dev": None, "q_max_dev": None}}),
        "short": ("seed:3,0.001", "0.5",
                  ["k", "alpha", "cstar", "rows", "residual_rho", "measured_rho_rate"],
                  {"linear": _LINEAR, "neutral": _NEUTRAL,
                   "error": "trace too short for the post-transient window"}),
        "large": ("perturb:3,0.11", "0.3",
                  ["k", "alpha", "cstar", "rows", "measured_rho_rate"],
                  {"error": None}),
    }
    for name, (init, t_end, keys, reports) in cases.items():
        trace = str(tmp_path / name)
        assert cli.main(["flow", "--alpha", "0.125", "--mode", "tau", "--init", init,
                         "--n", "64", "--t-end", t_end, "--sample-dt", "0.01",
                         "--outdir", trace]) == 0
        capsys.readouterr()
        assert cli.main(["modes", "--trace", trace, "--k", "3"]) == 0, name
        record = json.loads(capsys.readouterr().out)
        assert list(record) == keys, name
        assert record["cstar"] == -7.5 and record["rows"] == round(100 * float(t_end)) + 1
        assert (record["measured_rho_rate"] is None) == (name != "full"), name
        with open(os.path.join(trace, "residuals.json")) as fh:
            residuals = json.load(fh)
        assert _layout(residuals, {"k": 3, "alpha": 0.125, "cstar": -7.5,
                                   "measured_rho_rate": record["measured_rho_rate"],
                                   "reports": reports}), name
        if "residual_rho" in record:
            neutral = residuals["reports"]["neutral"]
            assert record["residual_rho"] == neutral["entries"]["rho"]["residual"]
            assert neutral["rows_used"] == residuals["reports"]["linear"]["rows_used"]
    assert residuals["reports"]["error"].startswith("max rho = ")
    assert residuals["reports"]["error"].endswith(" violates the smallness bound")


def test_exit_codes(tmp_path, capsys):
    # 2: k = 5 is not below sqrt(1 + 1/alpha) at alpha 0.1, nor is k = 0 >= 3
    assert cli.main(["shrinker", "--alpha", "0.1", "--k", "5"]) == 2
    assert cli.main(["shrinker", "--alpha", "0.1", "--k", "0"]) == 2
    assert cli.main(["spectrum", "--alpha", "0.1", "--profile", "k0"]) == 2
    # 2: a circle on 64 nodes has at most 63 eigenpairs to ask for
    assert cli.main(["spectrum", "--alpha", "0.2", "--profile", "circle",
                     "--n", "64", "--jmax", "100"]) == 2
    # 3: at n 256 the alpha 0.04 profile fails its residual check
    assert cli.main(["spectrum", "--alpha", "0.04", "--profile", "k3",
                     "--n", "256"]) == 3
    flow = ["flow", "--alpha", "0.5", "--mode", "unnorm", "--n", "32", "--t-end", "0.01"]
    # 4: usage errors: a required option missing, an unknown option
    assert cli.main(["shrinker", "--k", "3"]) == 4
    assert cli.main(flow + ["--bogus", "1"]) == 4
    # 4: a config file that does not exist, and a non-convex initial body
    assert cli.main(flow + ["--config", str(tmp_path / "missing.json")]) == 4
    assert cli.main(flow + ["--init", "perturb:2,0.5"]) == 4
    # 4: initial specs that do not parse
    for spec in ("perturb:3", "seed:3,x", "bogus:1"):
        assert cli.main(flow + ["--init", spec]) == 4
    # 4: initial specs whose support values are not finite
    for spec in ("seed:3,nan", "perturb:3,inf", "seed:3,1e200"):
        assert cli.main(flow + ["--init", spec]) == 4
    # 4: tolerances that are negative or not a number
    assert cli.main(flow + ["--rtol=-1e-12"]) == 4
    assert cli.main(flow + ["--rtol", "nan"]) == 4
    # 4: a stop radius that is not a number or is negative
    assert cli.main(flow + ["--stop-min-radius", "nan"]) == 4
    assert cli.main(flow + ["--stop-min-radius=-1"]) == 4
    # 4: sample times up to an endless t_end, or an endless sample interval
    tau = ["flow", "--alpha", "0.1", "--mode", "tau", "--n", "32"]
    assert cli.main(tau + ["--t-end", "inf"]) == 4
    assert cli.main(tau + ["--t-end", "1", "--sample-dt", "inf"]) == 4
    # 4: option values that are not numbers, on the command line or in a config
    spectrum = ["spectrum", "--alpha", "0.2", "--profile", "circle"]
    assert cli.main(spectrum + ["--n", "abc"]) == 4
    assert cli.main(spectrum + ["--jmax", "abc"]) == 4
    # 4: grid sizes that are odd or below 16
    assert cli.main(spectrum + ["--n", "15"]) == 4
    assert cli.main(["shrinker", "--alpha", "0.2", "--k", "circle", "--n", "10"]) == 4
    assert cli.main(flow[:5] + ["--n", "15"] + flow[7:]) == 4
    flow = flow[:5] + flow[7:]  # without --n 32
    for i, cfg in enumerate(({"n": "abc"}, {"n": [64]})):
        config = tmp_path / f"config{i}.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(flow + ["--config", str(config)]) == 4
    # 4: initial support files with a NaN, an odd n, or too few values
    for i, body in enumerate(({"n": 32, "values": [1.0] * 31 + [math.nan]},
                              {"n": 33, "values": [1.0] * 33},
                              {"n": 32, "values": [1.0] * 30})):
        init = tmp_path / f"init{i}.json"
        init.write_text(json.dumps(body))
        assert cli.main(["flow", "--alpha", "0.5", "--mode", "unnorm", "--t-end", "0.01",
                         "--init", f"file:{init}"]) == 4
    assert capsys.readouterr().out == ""
    # 4: modes up to n/2 do not exist on an n 32 trace
    trace = str(tmp_path / "trace")
    _tau_flow(trace)
    assert cli.main(["modes", "--trace", trace, "--k", "3", "--mmax", "15"]) == 0
    capsys.readouterr()
    assert cli.main(["modes", "--trace", trace, "--k", "3", "--mmax", "16"]) == 4
    assert capsys.readouterr().out == ""


def test_config_sets_flags_under_explicit_ones(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"entropy": True, "n": 64, "rtol": 1e-10}))
    out = str(tmp_path / "flow")
    assert cli.main(["flow", "--alpha", "0.5", "--mode", "area", "--n", "48",
                     "--t-end", "0.02", "--sample-dt", "0.01", "--outdir", out,
                     "--config", str(config)]) == 0
    with open(os.path.join(out, "meta.json")) as fh:
        meta = json.load(fh)
    assert meta["log_entropy"] is True and meta["n"] == 48  # --n wins over the file
    assert meta["rtol"] == 1e-10
    with open(os.path.join(out, "trace.csv")) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    column = header.index("entropy")
    assert len(rows) == 3 and all(row[column] != "" for row in rows)
    # a flag false in the file is off unless the command line sets it
    config.write_text(json.dumps({"entropy": False}))
    for flag in ([], ["--entropy"]):
        assert cli.main(["flow", "--alpha", "0.5", "--mode", "area", "--n", "32",
                         "--t-end", "0.01", "--outdir", out, "--config", str(config)]
                        + flag) == 0
        with open(os.path.join(out, "meta.json")) as fh:
            assert json.load(fh)["log_entropy"] is bool(flag)


def test_config_supplies_required_options(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 0.5}))
    flow = ["flow", "--mode", "unnorm", "--n", "32", "--t-end", "0.01"]
    assert cli.main(flow + ["--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.5
    # the command line still wins over the file
    assert cli.main(flow + ["--alpha", "0.25", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.25
    # an option in neither is still missing
    config.write_text(json.dumps({"n": 64}))
    assert cli.main(flow + ["--config", str(config)]) == 4
    assert "--alpha" in capsys.readouterr().err


def test_config_rejects_unknown_keys_and_non_bool_flags(tmp_path, capsys):
    flow = ["flow", "--alpha", "0.5", "--mode", "unnorm", "--n", "32", "--t-end", "0.01"]
    # keys that name no option of flow (abbreviations, config and help
    # included), a flag with a non-bool value, or a value of no option type
    for i, cfg in enumerate(({"entropyy": True}, {"entropy": "false"},
                             {"_defaults": {}}, {"func": None}, {"dt": 1e-4},
                             {"max-dt": 0.1}, {"gnuplot": True}, {"entr": True},
                             {"config": "x"}, {"bogus": False}, {"help": True},
                             {"alpha=0.3": True})):
        config = tmp_path / f"config{i}.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(flow + ["--config", str(config)]) == 4
    assert capsys.readouterr().out == ""


def test_a_config_array_and_a_bad_profile_tag_are_usage_errors(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps([{"alpha": 0.5}]))
    assert cli.main(["flow", "--mode", "unnorm", "--t-end", "0.01",
                     "--config", str(config)]) == 4
    assert capsys.readouterr() == ("", "error: config file must hold a JSON object\n")
    assert cli.main(["spectrum", "--alpha", "0.2", "--profile", "x3"]) == 4
    assert capsys.readouterr() == ("", "error: acsflow spectrum: argument --profile: "
                                       "expected 'circle' or 'k<int>', got 'x3'\n")
    assert cli.main(["shrinker", "--alpha", "0.1", "--k", "x"]) == 4
    assert capsys.readouterr() == ("", "error: acsflow shrinker: argument --k: "
                                       "expected 'circle' or an integer, got 'x'\n")


def test_shrinker_circle_writes_no_segment(tmp_path, capsys):
    # segment.csv holds the shooting arc, which only a k-fold profile has
    out = str(tmp_path / "circle")
    assert cli.main(["shrinker", "--alpha", "0.2", "--k", "circle", "--n", "64",
                     "--out", out]) == 0
    assert _files(out) == ["meta.json", "profile.json"]
    out = str(tmp_path / "k3")
    assert cli.main(["shrinker", "--alpha", "0.1", "--k", "3", "--n", "126",
                     "--out", out]) == 0
    assert _files(out) == ["meta.json", "profile.json", "segment.csv"]


def test_flow_file_init_records_its_grid(tmp_path, capsys):
    init = tmp_path / "circle.json"
    init.write_text(json.dumps(geometry.support_to_json(
        geometry.circle_support(geometry.AngularGrid(64)))))
    out = str(tmp_path / "flow")
    assert cli.main(["flow", "--alpha", "0.5", "--mode", "unnorm", "--init",
                     f"file:{init}", "--t-end", "0.01", "--outdir", out]) == 0
    with open(os.path.join(out, "meta.json")) as fh:
        meta = json.load(fh)
    assert meta["n"] == 64  # not the --n default, 256
    assert np.load(os.path.join(out, "snapshots.npy")).shape == (meta["rows"], 64)


def test_flow_meta_records_an_unused_sample_every_as_null(tmp_path, capsys):
    # run keeps every sample when it samples by sample_dt, as in tau mode by default
    tau = ["flow", "--alpha", "0.5", "--mode", "tau", "--n", "32", "--t-end", "0.1"]
    unnorm = ["flow", "--alpha", "0.5", "--mode", "unnorm", "--n", "32", "--t-end", "0.01"]
    cases = {"tau1": (tau + ["--sample-every", "1"], None),
             "tau5": (tau + ["--sample-every", "5"], None),
             "unnorm_dt": (unnorm + ["--sample-every", "5", "--sample-dt", "0.002"], None),
             "unnorm5": (unnorm + ["--sample-every", "5"], 5)}
    for name, (argv, every) in cases.items():
        assert cli.main(argv + ["--outdir", str(tmp_path / name)]) == 0
        with open(tmp_path / name / "meta.json") as fh:
            assert json.load(fh)["sample_every"] == every, name
    tau1, tau5 = (np.load(tmp_path / name / "snapshots.npy") for name in ("tau1", "tau5"))
    assert tau1.shape == (11, 32) and np.array_equal(tau1, tau5)


def test_snapshots_read_back_bit_for_bit(tmp_path, monkeypatch, capsys):
    # the trace cmd_flow wrote, as flow.run returned it
    traces, run = [], cli.flow.run

    def recording_run(config):
        traces.append(run(config))
        traces[-1].snapshots[1] *= 1e-300  # every bit survives far from unit size too
        return traces[-1]

    monkeypatch.setattr(cli.flow, "run", recording_run)
    out = str(tmp_path / "trace")
    _tau_flow(out)
    alpha, mode, times, rows = cli._trace_from_dir(out)
    assert (alpha, mode) == (0.125, "normalized_tau")
    assert np.allclose(times, traces[0].times, rtol=1e-12, atol=0)  # 12 digits in trace.csv
    assert rows.shape == traces[0].snapshots.shape == (6, 32)
    assert np.array_equal(rows, traces[0].snapshots)


def test_modes_rejects_bad_snapshots(tmp_path, capsys):
    trace = str(tmp_path / "trace")
    _tau_flow(trace)
    capsys.readouterr()
    path = os.path.join(trace, "snapshots.npy")
    rows = np.load(path)
    with open(path, "rb") as fh:
        data = fh.read()
    nan_row = rows.copy()
    nan_row[2, 5] = math.nan
    text, archive = io.StringIO(), io.BytesIO()
    np.savetxt(text, rows, fmt="%.17g", delimiter=",")  # the former snapshots.csv
    np.savez(archive, rows)
    bad = {
        "row missing": rows[:-1],
        "row too wide": np.hstack([rows, rows[:, :1]]),
        "1-D": rows.ravel(),
        "3-D": rows[None],
        "non-finite": nan_row,
        "int64": rows.astype(np.int64),
        "object": rows.astype(object),
        "truncated": data[:-40],
        "text": text.getvalue().encode(),
        "npz archive": archive.getvalue(),
    }
    for name, held in bad.items():
        if isinstance(held, bytes):
            with open(path, "wb") as fh:
                fh.write(held)
        else:
            np.save(path, held, allow_pickle=True)
        assert cli.main(["modes", "--trace", trace, "--k", "3"]) == 4, name
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and path in err, name
    os.remove(path)
    assert cli.main(["modes", "--trace", trace, "--k", "3"]) == 4
    assert capsys.readouterr().err.endswith("it has no snapshots.npy\n")
    np.save(path, rows)
    assert cli.main(["modes", "--trace", trace, "--k", "3"]) == 0


def test_modes_names_the_missing_files(tmp_path, capsys):
    # a directory from before snapshots.npy, with its rows in snapshots.csv
    trace = str(tmp_path / "trace")
    _tau_flow(trace)
    capsys.readouterr()
    snap_path = os.path.join(trace, "snapshots.npy")
    np.savetxt(os.path.join(trace, "snapshots.csv"), np.load(snap_path),
               fmt="%.17g", delimiter=",")
    os.remove(snap_path)
    assert cli.main(["modes", "--trace", trace, "--k", "3"]) == 4
    assert capsys.readouterr() == (
        "", f"error: {trace!r} is not a flow output directory: it has no snapshots.npy\n")
    empty = str(tmp_path / "empty")
    os.mkdir(empty)
    assert cli.main(["modes", "--trace", empty, "--k", "3"]) == 4
    assert capsys.readouterr().err == (
        f"error: {empty!r} is not a flow output directory: "
        "it has no meta.json, trace.csv, snapshots.npy\n")


def test_modes_rejects_bad_meta_and_trace(tmp_path, capsys):
    trace = str(tmp_path / "trace")
    _tau_flow(trace)
    capsys.readouterr()
    meta_path = os.path.join(trace, "meta.json")
    trace_path = os.path.join(trace, "trace.csv")
    with open(meta_path) as fh:
        meta_text = fh.read()
    with open(trace_path) as fh:
        trace_text = fh.read()
    meta = json.loads(meta_text)
    del meta["n"]
    header, first, rest = trace_text.split("\n", 2)
    bad = {
        "meta.json without n": (meta_path, json.dumps(meta)),
        "meta.json not JSON": (meta_path, meta_text[:-10]),
        "trace.csv cell not a number": (trace_path, "\n".join(
            [header, first.replace(",", ",x", 1), rest])),
    }
    for name, (path, text) in bad.items():
        with open(path, "w") as fh:
            fh.write(text)
        assert cli.main(["modes", "--trace", trace, "--k", "3"]) == 4, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: "), name
        with open(meta_path, "w") as fh:
            fh.write(meta_text)
        with open(trace_path, "w") as fh:
            fh.write(trace_text)
    assert cli.main(["modes", "--trace", trace, "--k", "3"]) == 0


def test_modes_rejects_a_blank_time(tmp_path, capsys):
    # a blank trace.csv cell reads as NaN, which no spacing test may let through
    trace = str(tmp_path / "trace")
    _tau_flow(trace)
    capsys.readouterr()
    path = os.path.join(trace, "trace.csv")
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    column = header.split(",").index("time")
    cells = lines[3].split(",")
    cells[column] = ""
    lines[3] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join([header, *lines]) + "\n")
    assert cli.main(["modes", "--trace", trace, "--k", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "evenly spaced at most 0.01 apart" in err


def test_modes_reports_an_empty_snapshots_file(tmp_path, capsys, recwarn):
    trace = str(tmp_path / "trace")
    _tau_flow(trace)
    capsys.readouterr()
    path = os.path.join(trace, "snapshots.npy")
    open(path, "w").close()
    assert cli.main(["modes", "--trace", trace, "--k", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot read {path}: the file is empty\n"
    assert len(recwarn) == 0


def test_an_output_directory_that_cannot_be_made_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    assert cli.main(["entropy-table", "--alpha", "0.05", "--out", out]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot create output directory {out}")


_SMALL_COMMANDS = {
    "--out": [["shrinker", "--alpha", "0.1", "--k", "3", "--n", "192"],
              ["spectrum", "--alpha", "0.2", "--profile", "circle", "--n", "32",
               "--jmax", "5"],
              ["entropy-table", "--alpha", "0.05"]],
    "--outdir": [["flow", "--alpha", "0.125", "--mode", "tau", "--init",
                  "seed:3,0.001", "--n", "32", "--t-end", "0.05", "--sample-dt", "0.01"]],
}


def test_commands_without_an_output_directory_write_nothing(tmp_path, monkeypatch,
                                                             capsys):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for option, commands in _SMALL_COMMANDS.items():
        for argv in commands:
            assert cli.main(argv) == 0
            bare = capsys.readouterr().out
            out = str(tmp_path / argv[0])
            assert cli.main(argv + [option, out]) == 0
            assert capsys.readouterr().out == bare
            assert "meta.json" in os.listdir(out)
    assert os.listdir(cwd) == []


def test_modes_without_out_writes_into_the_trace(tmp_path, capsys):
    trace = str(tmp_path / "trace")
    _tau_flow(trace)
    before = set(os.listdir(trace))
    assert cli.main(["modes", "--trace", trace, "--k", "3"]) == 0
    assert set(os.listdir(trace)) - before == {"modes.csv", "residuals.json"}
    assert len(os.listdir(trace)) == len(before) + 2


def test_an_empty_output_directory_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for option, commands in _SMALL_COMMANDS.items():
        assert cli.main(commands[-1] + [option, ""]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot create output directory ")
    assert os.listdir(tmp_path) == []


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported by the routines that use it, when they are called, and
    # numpy.random (6 to 7 ms under -X importtime) by the callers that pass a
    # Generator
    code = ("import sys, acsflow.cli; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules), "
            "'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]


def test_profiles_leave_scipy_integrate_unloaded():
    # arcs are quadratures of the first integral: no ODE solver is imported
    code = ("import sys; from acsflow.shrinker import assemble_profile, entropy_ordering; "
            "assemble_profile(1 / 24, 3, 510); entropy_ordering(0.03); "
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_decompose_leaves_scipy_sparse_unloaded():
    # each Bloch class is one dense LAPACK solve: no sparse eigensolver is imported
    code = ("import sys; from acsflow.shrinker import assemble_profile; "
            "from acsflow.spectral import decompose; "
            "decompose(assemble_profile(1 / 24, 3, 510).h, 1 / 24, j_max=12); "
            "print('scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_modes_import_leaves_flow_unloaded():
    # modes takes a run as its times and rows, so it needs no flow module
    code = "import sys, acsflow.modes; print('acsflow.flow' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
