"""Command-line experiments with reproducible CSV/JSON outputs.

Subcommands: shrinker, spectrum, flow, modes, entropy-table. Each success
prints exactly one JSON record to stdout; data files land under the output
directory with fixed names (trace.csv, meta.json, snapshots.npy,
spectrum.json, profile.json, segment.csv, modes.csv, residuals.json).
Each cmd_* computes and returns (record, out, files): the record to print,
the output directory (None for none) and each file's content by name. main
is the one place that writes outputs: it makes the directory, writes the
files (_save), stamps meta.json with the command and version, and prints
the record.
Identical invocations produce byte-identical files: JSON is written by
json.dumps, whose floats are the shortest repr that round-trips exactly;
snapshots.npy holds the flow's rows of support values as the float64 array
itself (numpy's .npy format), which modes reads back bit for bit; CSV files
carry 12 significant digits; and nothing carries timestamps.

Each option is declared once, to argparse, which parses the command line and
the keys of a --config file alike (see _parse). Exit codes: 2 for domain
errors (inadmissible alpha/k, mismatched trace), 3 for numerical failures,
4 for bad configuration or missing inputs and for every usage error, of the
command line or of a config key; --help exits 0.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__, flow, geometry, modes, shrinker, spectral
from .errors import AcsflowError, AlphaMismatch, BadConfig, OutOfRange

EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    """Parser of the command line and config files alike, and of each
    subcommand: no abbreviated options, and a usage error is a BadConfig."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise BadConfig(f"{self.prog}: {message}")


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadConfig(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise BadConfig("config file must hold a JSON object")
    return cfg


def _parse(argv):
    """The options of argv and of its --config file, whose keys read as options
    right after the subcommand, so that the command line's win: --key=value
    for a string or a number (_ read as -; the = keeps a negative number a
    value), and --key for true or false. argparse then rejects in the file
    what it rejects on the command line. A required option may come from
    either: the command line alone is parsed without requiring any."""
    parser = _build_parser()
    if not any(arg == "--config" or arg.startswith("--config=") for arg in argv):
        return parser.parse_args(argv)
    args = _build_parser(require=False).parse_args(argv)
    config, options = _load_config(args.config), []
    for key, value in config.items():
        name = key.replace("_", "-")
        if key in ("config", "help") or not name.replace("-", "_").isidentifier() \
                or not isinstance(value, (str, int, float)):
            raise BadConfig(f"config file {args.config}: {key}: {value!r} sets no option")
        options.append(f"--{name}" if isinstance(value, bool) else f"--{name}={value}")
    at = argv.index(args.command) + 1
    try:
        merged = parser.parse_args(argv[:at] + options + argv[at:])
    except BadConfig as exc:
        raise BadConfig(f"config file {args.config}: {exc}") from None
    for attr in (key.replace("-", "_") for key, value in config.items() if value is False):
        setattr(merged, attr, getattr(args, attr))  # as the command line left it
    return merged


def _grid_size(value):
    """An AngularGrid size: an even integer >= 16."""
    try:
        return geometry.AngularGrid(int(value)).n
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fold_arg(value):
    """A fold count: 'circle' or an integer."""
    try:
        return value if value == "circle" else int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'circle' or an integer, got {value!r}")


def _profile_tag(value):
    """'circle' or 'k<int>', as the fold count 'circle' or the int."""
    if value == "circle":
        return value
    try:
        if value.startswith("k"):
            return int(value[1:])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 'circle' or 'k<int>', got {value!r}")


def _fold_tag(k):
    return "circle" if k == "circle" else f"k{int(k)}"


# -- shrinker ------------------------------------------------------------------

def cmd_shrinker(args):
    alpha = args.alpha
    profile = shrinker.assemble_profile(alpha, args.k, args.n)
    n = profile.h.grid.n
    seg = profile.segment
    files = {"profile.json": shrinker.profile_to_json_dict(profile), "meta.json": {
        "alpha": alpha, "k": profile.k, "n": n,
        "residual": profile.residual,
        "fint_drift": None if seg is None else seg.fint_drift,
        "arc_solves": None if seg is None else seg.arc_solves,
    }}
    if seg is not None:
        files["segment.csv"] = shrinker.segment_to_csv(seg)
    record = dict(files["profile.json"], n=n)
    del record["h"]
    return record, args.out, files


# -- spectrum ------------------------------------------------------------------

def cmd_spectrum(args):
    alpha = args.alpha
    profile = shrinker.assemble_profile(alpha, args.profile, args.n)
    dec = spectral.decompose(profile.h, alpha, j_max=args.jmax)
    record = {
        "alpha": alpha,
        "profile": _fold_tag(profile.k),
        "morse_index": dec.morse_index,
        "kernel_dim": dec.kernel_dim,
        "lambda_min": float(dec.eigenvalues[0]),
    }
    return record, args.out, {
        "spectrum.json": spectral.spectrum_to_json_dict(dec, _fold_tag(profile.k)),
        "meta.json": {"alpha": alpha, "profile": _fold_tag(profile.k),
                      "n": profile.h.grid.n, "jmax": args.jmax},
    }


# -- flow ----------------------------------------------------------------------

_MODE_NAMES = {"unnorm": "unnormalized", "tau": "normalized_tau",
               "area": "normalized_area"}


def _initial_from_spec(spec, n):
    grid = geometry.AngularGrid(n)
    if spec == "circle":
        return geometry.circle_support(grid)
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            with open(path) as fh:
                return geometry.support_from_json(json.load(fh))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise BadConfig(f"cannot read initial support from {path}: {exc}")
    kind, colon, params = spec.partition(":")
    if colon and kind in ("perturb", "seed"):
        name = "m" if kind == "perturb" else "k"
        try:
            m_str, eps_str = params.split(",")
            m, eps = int(m_str), float(eps_str)
        except ValueError:
            raise BadConfig(f"expected {kind}:<{name}>,<eps>, got {spec!r}")
        try:  # an eps that overflows gives values that are not finite
            with np.errstate(all="ignore"):
                if kind == "seed":
                    return modes.quasi_steady_seed(grid, m, eps)
                return geometry.SupportFunction(grid, 1.0 + eps * np.cos(m * grid.nodes))
        except ValueError as exc:
            raise BadConfig(f"--init {spec!r}: {exc}")
    raise BadConfig(f"unknown --init {spec!r}")


def cmd_flow(args):
    alpha = args.alpha
    mode = _MODE_NAMES[args.mode]
    initial = _initial_from_spec(args.init, args.n)
    sample_dt = args.sample_dt
    if sample_dt is None and mode != "unnormalized":
        sample_dt = 0.01
    config = flow.FlowConfig(
        alpha=alpha, mode=mode, initial=initial, t_end=args.t_end,
        sample_every=args.sample_every, sample_dt=sample_dt,
        stop_min_radius=args.stop_min_radius, rtol=args.rtol,
        log_entropy=args.entropy)
    trace = flow.run(config)
    # the run's summary, in the record and in meta.json, each with stats last
    summary = {"terminal_reason": trace.terminal_reason, "rows": len(trace),
               "accepted_steps": trace.n_steps}
    stats = dataclasses.asdict(trace.stats)
    record = {
        "alpha": alpha, "mode": mode, **summary,
        "t_final": float(trace.times[-1]),
        "area_final": float(trace.area[-1]),
        "length_final": float(trace.length[-1]),
        "iso_ratio_final": float(trace.iso_ratio[-1]),
        "stats": stats,
    }
    return record, args.outdir, {
        "trace.csv": flow.trace_to_csv(trace),
        "snapshots.npy": trace.snapshots,
        "meta.json": {
            "alpha": alpha, "mode": mode, "n": initial.grid.n, "init": args.init,
            "t_end": args.t_end,
            # null when sampling by sample_dt: run then keeps every sample
            "sample_dt": config.sample_dt,
            "sample_every": args.sample_every if config.sample_dt is None else None,
            "stop_min_radius": config.stop_min_radius,
            "rtol": config.rtol, "log_entropy": config.log_entropy,
            **summary, "stats": stats,
        },
    }


# -- modes ---------------------------------------------------------------------

def _unreadable(path, exc):
    reason = f"no key {exc}" if isinstance(exc, KeyError) else exc
    return BadConfig(f"cannot read {path}: {reason}")


def _trace_from_dir(path):
    """(alpha, mode, times, rows) of a flow output directory: meta.json's
    alpha and mode, trace.csv's time column and the rows of snapshots.npy;
    BadConfig naming the file at fault when one is missing or does not hold
    what flow writes."""
    names = ("meta.json", "trace.csv", "snapshots.npy")
    meta_path, trace_path, snap_path = (os.path.join(path, name) for name in names)
    missing = [name for name in names if not os.path.isfile(os.path.join(path, name))]
    if missing:
        raise BadConfig(f"{path!r} is not a flow output directory: "
                        f"it has no {', '.join(missing)}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)  # JSONDecodeError is a ValueError
        n = geometry.AngularGrid(int(meta["n"])).n
        alpha, mode = float(meta["alpha"]), meta["mode"]
    except (KeyError, TypeError, ValueError) as exc:
        raise _unreadable(meta_path, exc)
    try:
        with open(trace_path) as fh:
            header = fh.readline().strip().split(",")
            cells = [[float(x) if x else math.nan for x in line.strip().split(",")]
                     for line in fh]
        table = np.array(cells).reshape(len(cells), len(header))
        times = dict(zip(header, table.T))["time"]
    except (KeyError, ValueError) as exc:
        raise _unreadable(trace_path, exc)
    try:
        if os.path.getsize(snap_path) == 0:
            raise ValueError("the file is empty")
        # the .npy format alone: np.load would also open a zip archive
        with open(snap_path, "rb") as fh:
            rows = np.lib.format.read_array(fh, allow_pickle=False)
    except ValueError as exc:
        raise _unreadable(snap_path, exc)
    shape = (len(cells), n)
    if rows.dtype != np.float64 or rows.shape != shape:
        raise BadConfig(f"{snap_path} holds {rows.dtype} values of shape {rows.shape}, "
                        f"not float64 of shape {shape}, trace.csv's rows by n")
    if not np.all(np.isfinite(rows)):
        raise BadConfig(f"{snap_path} holds a value that is not finite")
    return alpha, mode, times, rows


def cmd_modes(args):
    k = args.k
    alpha, mode, times, rows = _trace_from_dir(args.trace)
    mtrace = modes.track_modes(times, rows, alpha, mode, k, m_max=max(args.mmax, 2 * k))
    record, residuals = modes.report(mtrace)
    return record, args.trace if args.out is None else args.out, {
        "modes.csv": modes.mode_trace_to_csv(mtrace), "residuals.json": residuals}


# -- entropy table --------------------------------------------------------------

def cmd_entropy_table(args):
    alpha = args.alpha
    record = {"alpha": alpha, "rows": shrinker.entropy_ordering(alpha)}
    return record, args.out, {"entropy_table.json": record, "meta.json": {"alpha": alpha}}


# -- main ------------------------------------------------------------------------

def _build_parser(require=True):
    """The parser of every subcommand; require=False leaves no option
    required."""
    parser = _Parser(
        prog="acsflow",
        description="Numerical experiments for the alpha-curve shortening flow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shrinker", help="construct a contracting profile")
    p.add_argument("--alpha", type=float, required=require)
    p.add_argument("--k", type=_fold_arg, required=require, help="integer >= 3 or 'circle'")
    p.add_argument("--n", type=_grid_size, default=512,
                   help="grid size (default %(default)s)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_shrinker)

    p = sub.add_parser("spectrum", help="eigendecomposition at a profile")
    p.add_argument("--alpha", type=float, required=require)
    p.add_argument("--profile", type=_profile_tag, required=require,
                   help="'circle' or 'k<int>'")
    p.add_argument("--jmax", type=int, default=40,
                   help="number of eigenpairs, from 1 to n - 1 (default %(default)s)")
    p.add_argument("--n", type=_grid_size, default=512,
                   help="grid size (default %(default)s)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("flow", help="time-integrate the flow")
    p.add_argument("--alpha", type=float, required=require)
    p.add_argument("--mode", choices=_MODE_NAMES, required=require)
    p.add_argument("--init", default="circle",
                   help="circle | file:<path> | perturb:<m>,<eps> | seed:<k>,<eps> "
                        "(default %(default)s)")
    p.add_argument("--t-end", type=float, required=require)
    p.add_argument("--entropy", action="store_true", help="log entropy per sample")
    p.add_argument("--outdir", help="output directory")
    p.add_argument("--n", type=_grid_size, default=256,
                   help="grid size (default %(default)s)")
    p.add_argument("--sample-dt", type=float,
                   help="sample at multiples of this time, from an order-7 "
                        "extension of the steps, which do not stop there "
                        "(default: every --sample-every steps in unnorm mode, "
                        "0.01 in tau and area modes)")
    p.add_argument("--sample-every", type=int, default=flow.FlowConfig.sample_every,
                   help="sample after this many accepted steps when --sample-dt "
                        "is not in use (default %(default)s)")
    p.add_argument("--stop-min-radius", type=float,
                   default=flow.FlowConfig.stop_min_radius,
                   help="stop once the least radius of curvature falls below this, "
                        "which must be >= 0 (default %(default)s)")
    p.add_argument("--rtol", type=float, default=flow.FlowConfig.rtol,
                   help="bound on the estimated local error of each order-7 step, "
                        "relative to the support function about the Steiner point "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("modes", help="mode diagnostics of a stored trace")
    p.add_argument("--trace", required=require, help="flow output directory")
    p.add_argument("--k", type=int, required=require)
    p.add_argument("--mmax", type=int, default=8,
                   help="highest mode tracked, at least 2k (default %(default)s)")
    p.add_argument("--out", help="output directory (default: --trace)")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("entropy-table", help="profile entropies in order")
    p.add_argument("--alpha", type=float, required=require)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_entropy_table)

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON file of options, under the command line's")
    return parser


def _save(command, out, files):
    """Write files into the directory out, made if need be: a dict as indented
    JSON, a str as it is and an array as .npy. meta.json's dict is headed by
    the command and the package version."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise BadConfig(f"cannot create output directory {out}: {exc}")
    for name, content in files.items():
        path = os.path.join(out, name)
        if name == "meta.json":
            content = {"command": command, "version": __version__, **content}
        if isinstance(content, np.ndarray):
            np.save(path, content)
        else:
            with open(path, "w") as fh:
                fh.write(content if isinstance(content, str)
                         else json.dumps(content, indent=2) + "\n")


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        record, out, files = args.func(args)
        if out is not None:
            _save(args.command, out, files)
        print(json.dumps(record))
        return 0
    except (OutOfRange, AlphaMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BadConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AcsflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
