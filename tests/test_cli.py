import filecmp
import json
import os

from acsflow import cli


def _files(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


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

    names = _files(a)
    assert names == _files(b)
    assert "trace.csv" in names and "meta.json" in names
    assert len([f for f in names if f.startswith("snapshots")]) == 11
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []
    with open(os.path.join(a, "meta.json")) as fh:
        assert json.load(fh)["stats"] == stats

    assert cli.main(["modes", "--trace", a, "--k", "3"]) == 0
    assert os.path.isfile(os.path.join(a, "modes.csv"))
