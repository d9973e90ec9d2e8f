"""Command-line experiments with reproducible CSV/JSON outputs.

Subcommands: shrinker, spectrum, flow, modes, entropy-table. Each success
prints exactly one JSON record to stdout; data files land under the output
directory with fixed names (trace.csv, meta.json, snapshots.npy,
spectrum.json, profile.json, segment.csv, modes.csv, residuals.json).
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
import json
import math
import os
import sys

import numpy as np

from . import __version__, entropy, flow, geometry, modes, shrinker, spectral
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


def _ensure_outdir(path):
    if path is None:
        return None
    os.makedirs(path, exist_ok=True)
    return path


def _write(path, name, text):
    with open(os.path.join(path, name), "w") as fh:
        fh.write(text)


def _write_json(path, name, obj):
    _write(path, name, json.dumps(obj, indent=2) + "\n")


def _grid_size(value):
    """An AngularGrid size: an even integer >= 16."""
    try:
        return geometry.AngularGrid(int(value)).n
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fold_arg(value):
    """A fold count: 'circle' or an integer."""
    return value if value == "circle" else int(value)


def _profile_tag(value):
    """'circle' or 'k<int>', as the fold count 'circle' or the int."""
    if value == "circle":
        return value
    if not value.startswith("k"):
        raise ValueError(value)
    return int(value[1:])


def _fold_tag(k):
    return "circle" if k == "circle" else f"k{int(k)}"


def _profile(alpha, k, n):
    """The profile of fold count k at alpha on n nodes; for k >= 1, n is
    rounded down to a multiple of 2k (reflection seams on nodes), but to at
    least 16k."""
    if k != "circle" and k > 0:
        n = 2 * k * max(8, n // (2 * k))
    return shrinker.assemble_profile(alpha, k, n)


# -- shrinker ------------------------------------------------------------------

def cmd_shrinker(args):
    alpha = args.alpha
    profile = _profile(alpha, args.k, args.n)
    n = profile.h.grid.n
    record = shrinker.profile_to_json_dict(profile)
    out = _ensure_outdir(args.out)
    if out:
        _write_json(out, "profile.json", record)
        seg = profile.segment
        if seg is not None:
            _write(out, "segment.csv", shrinker.segment_to_csv(seg))
        _write_json(out, "meta.json", {
            "command": "shrinker", "version": __version__,
            "alpha": alpha, "k": profile.k, "n": n,
            "residual": profile.residual,
            "fint_drift": None if seg is None else seg.fint_drift,
            "arc_solves": None if seg is None else seg.arc_solves,
        })
    record["n"] = n
    record.pop("h")
    print(json.dumps(record))
    return 0


# -- spectrum ------------------------------------------------------------------

def cmd_spectrum(args):
    alpha = args.alpha
    profile = _profile(alpha, args.profile, args.n)
    dec = spectral.decompose(profile.h, alpha, j_max=args.jmax)
    record = {
        "alpha": alpha,
        "profile": _fold_tag(profile.k),
        "morse_index": dec.morse_index,
        "kernel_dim": dec.kernel_dim,
        "lambda_min": float(dec.eigenvalues[0]),
    }
    out = _ensure_outdir(args.out)
    if out:
        _write_json(out, "spectrum.json",
                    spectral.spectrum_to_json_dict(dec, _fold_tag(profile.k)))
        _write_json(out, "meta.json", {
            "command": "spectrum", "version": __version__,
            "alpha": alpha, "profile": _fold_tag(profile.k),
            "n": profile.h.grid.n, "jmax": args.jmax,
        })
    print(json.dumps(record))
    return 0


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
    if spec.startswith("perturb:"):
        try:
            m_str, eps_str = spec[8:].split(",")
            m, eps = int(m_str), float(eps_str)
        except ValueError:
            raise BadConfig(f"expected perturb:<m>,<eps>, got {spec!r}")
        th = grid.nodes
        return geometry.SupportFunction(grid, 1.0 + eps * np.cos(m * th))
    if spec.startswith("seed:"):
        try:
            k_str, eps_str = spec[5:].split(",")
            k, eps = int(k_str), float(eps_str)
        except ValueError:
            raise BadConfig(f"expected seed:<k>,<eps>, got {spec!r}")
        return modes.quasi_steady_seed(grid, k, eps)
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
    record = {
        "alpha": alpha, "mode": mode, "terminal_reason": trace.terminal_reason,
        "rows": len(trace), "accepted_steps": trace.n_steps,
        "t_final": float(trace.times[-1]),
        "area_final": float(trace.area[-1]),
        "length_final": float(trace.length[-1]),
        "iso_ratio_final": float(trace.iso_ratio[-1]),
        "stats": trace.stats.to_json_dict(),
    }
    out = _ensure_outdir(args.outdir)
    if out:
        _write(out, "trace.csv", flow.trace_to_csv(trace))
        np.save(os.path.join(out, "snapshots.npy"), trace.snapshots)
        _write_json(out, "meta.json", {
            "command": "flow", "version": __version__,
            "alpha": alpha, "mode": mode, "n": initial.grid.n, "init": args.init,
            "t_end": args.t_end,
            # null when sampling by sample_dt: run then keeps every sample
            "sample_dt": config.sample_dt,
            "sample_every": args.sample_every if config.sample_dt is None else None,
            "stop_min_radius": config.stop_min_radius,
            "rtol": config.rtol, "log_entropy": config.log_entropy,
            "terminal_reason": trace.terminal_reason,
            "rows": len(trace), "accepted_steps": trace.n_steps,
            "stats": trace.stats.to_json_dict(),
        })
    print(json.dumps(record))
    return 0


# -- modes ---------------------------------------------------------------------

def _unreadable(path, exc):
    reason = f"no key {exc}" if isinstance(exc, KeyError) else exc
    return BadConfig(f"cannot read {path}: {reason}")


def _trace_from_dir(path):
    """The FlowTrace of a flow output directory; BadConfig naming the file
    at fault when one is missing or does not hold what flow writes."""
    names = ("meta.json", "trace.csv", "snapshots.npy")
    meta_path, trace_path, snap_path = (os.path.join(path, name) for name in names)
    missing = [name for name in names if not os.path.isfile(os.path.join(path, name))]
    if missing:
        raise BadConfig(f"{path!r} is not a flow output directory: "
                        f"it has no {', '.join(missing)}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)  # JSONDecodeError is a ValueError
        grid = geometry.AngularGrid(int(meta["n"]))
        fields = {"alpha": float(meta["alpha"]), "mode": meta["mode"],
                  "terminal_reason": meta["terminal_reason"],
                  "n_steps": int(meta["accepted_steps"])}
    except (KeyError, TypeError, ValueError) as exc:
        raise _unreadable(meta_path, exc)
    try:
        with open(trace_path) as fh:
            header = fh.readline().strip().split(",")
            rows = [[float(x) if x else math.nan for x in line.strip().split(",")]
                    for line in fh]
        arr = np.array(rows).reshape(len(rows), len(header))
        cols = {name: arr[:, i] for i, name in enumerate(header)}
        fields.update(times=cols["time"], area=cols["area"], length=cols["length"],
                      iso_ratio=cols["iso_ratio"], min_curvature=cols["min_curv"],
                      max_curvature=cols["max_curv"], entropy=cols["entropy"])
    except (KeyError, ValueError) as exc:
        raise _unreadable(trace_path, exc)
    try:
        if os.path.getsize(snap_path) == 0:
            raise ValueError("the file is empty")
        # the .npy format alone: np.load would also open a zip archive
        with open(snap_path, "rb") as fh:
            snaps = np.lib.format.read_array(fh, allow_pickle=False)
    except ValueError as exc:
        raise _unreadable(snap_path, exc)
    shape = (len(rows), grid.n)
    if snaps.dtype != np.float64 or snaps.shape != shape:
        raise BadConfig(f"{snap_path} holds {snaps.dtype} values of shape {snaps.shape}, "
                        f"not float64 of shape {shape}, trace.csv's rows by n")
    if not np.all(np.isfinite(snaps)):
        raise BadConfig(f"{snap_path} holds a value that is not finite")
    return flow.FlowTrace(grid=grid, snapshots=snaps, **fields)


def cmd_modes(args):
    k = args.k
    trace = _trace_from_dir(args.trace)
    m_max = max(args.mmax, 2 * k)
    mtrace = modes.track_modes(trace, k, m_max=m_max)
    rec = {
        "k": k, "alpha": mtrace.alpha,
        "cstar": modes.cstar(k),
        "rows": len(mtrace.tau),
    }
    reports = {}
    try:
        linear = modes.residual_linear_modes(mtrace)
        neutral = modes.residual_neutral_modes(mtrace)
        reports["linear"] = linear.to_json_dict()
        reports["neutral"] = neutral.to_json_dict()
        rec["residual_rho"] = neutral.residual("rho")
    except AcsflowError as exc:
        reports["error"] = str(exc)
    try:
        meas = modes.measure_cstar(mtrace)
        qs = modes.quasi_steady_check(mtrace)
        rec["measured_rho_rate"] = meas.measured
        rec["rel_error"] = meas.rel_error
        reports["quasi_steady"] = {"a0_max_dev": qs.a0_max_dev,
                                   "q_max_dev": qs.q_max_dev}
    except AcsflowError as exc:
        rec["measured_rho_rate"] = None
        reports.setdefault("error", str(exc))
    out = _ensure_outdir(args.out) if args.out else None
    target = out or args.trace
    _write(target, "modes.csv", modes.mode_trace_to_csv(mtrace))
    _write_json(target, "residuals.json", {
        "k": k, "alpha": mtrace.alpha, "cstar": modes.cstar(k),
        "measured_rho_rate": rec.get("measured_rho_rate"),
        "reports": reports,
    })
    print(json.dumps(rec))
    return 0


# -- entropy table --------------------------------------------------------------

def cmd_entropy_table(args):
    alpha = args.alpha
    rows = shrinker.entropy_ordering(alpha)
    record = {"alpha": alpha,
              "rows": [[tag if tag == "circle" else int(tag), float(val)]
                       for tag, val in rows]}
    out = _ensure_outdir(args.out)
    if out:
        _write_json(out, "entropy_table.json", record)
        _write_json(out, "meta.json", {
            "command": "entropy-table", "version": __version__, "alpha": alpha,
        })
    print(json.dumps(record))
    return 0


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
                   help="stop once the least radius of curvature falls below this "
                        "(default %(default)s)")
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


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
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
