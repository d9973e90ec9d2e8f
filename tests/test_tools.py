"""The scripts under tools/, loaded from their paths: same_outputs compares
two benchmark runs' outputs and code_lines counts a package's code lines."""

import copy
import importlib.util
import json
import os

import pytest

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(_TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_outputs = _load("same_outputs")
code_lines = _load("code_lines")

# one pass of two commands, as benchmarks/run.py records them
_PASS = [
    {"argv": ["flow", "--alpha", "0.5"], "rc": 0, "stdout": '{"rows": 2}',
     "files": {"meta.json": "aa11", "trace.csv": "bb22"}},
    {"argv": ["modes", "--k", "3"], "rc": 0, "stdout": '{"k": 3}',
     "files": {"modes.csv": "cc33"}},
]


def test_identical_passes_have_no_difference():
    assert same_outputs.first_difference(_PASS, copy.deepcopy(_PASS)) is None


def test_first_difference_names_what_differs():
    other = copy.deepcopy(_PASS)
    other[1]["stdout"] = '{"k": 4}'
    assert same_outputs.first_difference(_PASS, other) == (
        """command 1 (modes): stdout '{"k": 3}' against '{"k": 4}'""")
    other = copy.deepcopy(_PASS)
    other[0]["files"]["trace.csv"] = "dd44"
    assert same_outputs.first_difference(_PASS, other) == (
        "command 0 (flow): file trace.csv digest bb22 against dd44")
    del other[0]["files"]["trace.csv"]
    assert same_outputs.first_difference(_PASS, other) == (
        "command 0 (flow): file trace.csv digest bb22 against None")
    assert same_outputs.first_difference(_PASS, _PASS[:1]) == "2 commands against 1"


def test_same_outputs_exit_codes(tmp_path, capsys):
    def run_file(name, passes):
        path = tmp_path / name
        path.write_text(json.dumps({"passes": passes}))
        return str(path)

    a = run_file("a.json", [_PASS, []])  # only the first pass is compared
    b = run_file("b.json", [copy.deepcopy(_PASS)])
    changed = copy.deepcopy(_PASS)
    changed[0]["rc"] = 3
    c = run_file("c.json", [changed])
    assert same_outputs.main([a, b]) == 0
    assert capsys.readouterr().out == "same outputs: 2 commands, 3 files\n"
    assert same_outputs.main([a, c]) == 1
    assert capsys.readouterr().out == f"{a} and {c} differ: command 0 (flow): rc 0 against 3\n"
    assert same_outputs.main([a]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Usage:" in captured.err


def test_code_lines_counts_only_code():
    source = '''"""Module docstring,
over two lines."""

# a comment


def f(x):
    """Function docstring."""
    return (x  # trailing comment
            + 1
            + 2)


class C:
    """Class docstring."""
    y = "a string that is not a docstring"
'''
    # def, the three lines of the return, class and y
    assert code_lines.code_lines(source) == 6
    assert code_lines.code_lines("") == 0


def test_code_lines_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\nz = (1,\n     2)\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["a.py", "2"], [os.path.join("sub", "b.py"), "2"], ["total", "4"]]
    with pytest.raises(SystemExit, match="no Python modules"):
        code_lines.main([str(tmp_path / "sub" / "missing")])
