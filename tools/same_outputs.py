"""Check that two benchmark runs produced the same outputs.

A and B are result files of benchmarks/run.py
(.bench_runs/<workload>-seed<N>-trace<T>.json). Their first passes are
compared command by command: the argv, the exit code, the stdout record and
the SHA-256 digest of every file the command wrote. The first difference is
named and the exit code is 1; with none, the exit code is 0.

Usage: python tools/same_outputs.py A.json B.json
"""

import json
import sys


def _first_pass(path):
    with open(path) as fh:
        return json.load(fh)["passes"][0]


def first_difference(a, b):
    """The first difference between two passes' command records, or None."""
    if len(a) != len(b):
        return f"{len(a)} commands against {len(b)}"
    for i, (ra, rb) in enumerate(zip(a, b)):
        for key in ("argv", "rc", "stdout"):
            if ra[key] != rb[key]:
                return f"command {i} ({ra['argv'][0]}): {key} {ra[key]!r} against {rb[key]!r}"
        for name in sorted(set(ra["files"]) | set(rb["files"])):
            da, db = ra["files"].get(name), rb["files"].get(name)
            if da != db:
                return f"command {i} ({ra['argv'][0]}): file {name} digest {da} against {db}"
    return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    a, b = (_first_pass(path) for path in argv)
    diff = first_difference(a, b)
    if diff is not None:
        print(f"{argv[0]} and {argv[1]} differ: {diff}")
        return 1
    print(f"same outputs: {len(a)} commands, "
          f"{sum(len(r['files']) for r in a)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
