"""Command-line experiments with reproducible CSV/JSON outputs.

Subcommands: shrinker, spectrum, flow, modes, entropy-table. Each success
prints exactly one JSON record to stdout; data files land under the output
directory with fixed names (trace.csv, meta.json, snapshots.csv,
spectrum.json, profile.json, segment.csv, modes.csv, residuals.json).
Identical invocations produce byte-identical files: JSON is written by
json.dumps, whose floats are the shortest repr that round-trips exactly;
snapshots.csv carries 17 significant digits and the other CSV files 12; and
nothing carries timestamps.

Exit codes: 2 for domain errors (inadmissible alpha/k, mismatched trace),
3 for numerical failures, 4 for bad configuration or missing inputs.
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


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadConfig(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise BadConfig("config file must hold a JSON object")
    return cfg


def _merge(args, config):
    """Apply config-file values underneath explicitly passed flags.

    Every key must name an option of the subcommand. A store_true flag takes
    only true or false; any other option takes a string or a number, kept as
    the string the command line would have given. An option still at None,
    or a flag still at False, was not passed, so the config file sets it.
    """
    for key, value in config.items():
        attr = key.replace("-", "_")
        if attr in ("func", "command", "config") or attr.startswith("_") \
                or not hasattr(args, attr):
            raise BadConfig(f"config key {key!r} is not an option of {args.command}")
        current = getattr(args, attr)
        if isinstance(current, bool):
            if not isinstance(value, bool):
                raise BadConfig(f"config key {key!r} is a flag and takes true or false, "
                                f"got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise BadConfig(f"config key {key!r} takes a string or a number, got {value!r}")
        else:
            value = str(value)
        if current is None or current is False:
            setattr(args, attr, value)


def _convert(args):
    """Give every option in the subcommand's table its type, or its default
    when it was not passed. A value that does not convert is a BadConfig."""
    for attr, (convert, default) in args._options.items():
        value = getattr(args, attr)
        if value is None:
            setattr(args, attr, default)
            continue
        try:
            setattr(args, attr, convert(value))
        except ValueError as exc:
            raise BadConfig(f"--{attr.replace('_', '-')} {value!r}: {exc}")


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
    n = int(value)
    geometry.AngularGrid(n)  # ValueError unless even and >= 16
    return n


def _fold_arg(value):
    return value if value == "circle" else int(value)


def _fold_tag(k):
    return "circle" if k == "circle" else f"k{int(k)}"


def _profile_grid_n(k, n):
    """The largest multiple of 2k not exceeding n, but at least 16k (reflection
    seams on nodes); n itself for the circle."""
    if k == "circle":
        return n
    per = 2 * k
    return max(per * 8, per * (n // per))


# -- shrinker ------------------------------------------------------------------

def cmd_shrinker(args):
    alpha, k = args.alpha, args.k
    n = _profile_grid_n(k, args.n)
    profile = shrinker.assemble_profile(alpha, k, n)
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

def _profile_for_tag(alpha, tag, n):
    if tag == "circle":
        return shrinker.assemble_profile(alpha, "circle", n)
    if not tag.startswith("k"):
        raise BadConfig(f"profile must be 'circle' or 'k<int>', got {tag!r}")
    try:
        k = int(tag[1:])
    except ValueError:
        raise BadConfig(f"profile must be 'circle' or 'k<int>', got {tag!r}")
    return shrinker.assemble_profile(alpha, k, _profile_grid_n(k, n))


def cmd_spectrum(args):
    alpha = args.alpha
    profile = _profile_for_tag(alpha, args.profile, args.n)
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
    if args.mode not in _MODE_NAMES:
        raise BadConfig(f"--mode must be one of {sorted(_MODE_NAMES)}, got {args.mode!r}")
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
        with open(os.path.join(out, "snapshots.csv"), "w") as fh:
            geometry.support_rows_to_csv(fh, trace.snapshots)
        _write_json(out, "meta.json", {
            "command": "flow", "version": __version__,
            "alpha": alpha, "mode": mode, "n": initial.grid.n, "init": args.init,
            "t_end": args.t_end,
            "sample_dt": config.sample_dt, "sample_every": args.sample_every,
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
    meta_path, trace_path, snap_path = (
        os.path.join(path, name) for name in ("meta.json", "trace.csv", "snapshots.csv"))
    if not all(os.path.isfile(p) for p in (meta_path, trace_path, snap_path)):
        raise BadConfig(f"{path!r} is not a flow output directory")
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
        snaps = geometry.support_rows_from_csv(snap_path)
    except ValueError as exc:
        raise _unreadable(snap_path, exc)
    if snaps.shape != (len(rows), grid.n):
        raise BadConfig(f"{snap_path} holds {snaps.shape[0]} rows of {snaps.shape[1]} "
                        f"values, not the {len(rows)} rows of trace.csv with n = {grid.n}")
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

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="acsflow",
        description="Numerical experiments for the alpha-curve shortening flow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shrinker", help="construct a contracting profile")
    p.add_argument("--alpha", required=True)
    p.add_argument("--k", required=True, help="integer >= 3 or 'circle'")
    p.add_argument("--n", default=None, help="grid size (default 512)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_shrinker, _options={
        "alpha": (float, None), "k": (_fold_arg, None), "n": (_grid_size, 512)})

    p = sub.add_parser("spectrum", help="eigendecomposition at a profile")
    p.add_argument("--alpha", required=True)
    p.add_argument("--profile", required=True, help="'circle' or 'k<int>'")
    p.add_argument("--jmax", default=None,
                   help="number of eigenpairs, from 1 to n - 1 (default 40)")
    p.add_argument("--n", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_spectrum, _options={
        "alpha": (float, None), "jmax": (int, 40), "n": (_grid_size, 512)})

    p = sub.add_parser("flow", help="time-integrate the flow")
    p.add_argument("--alpha", required=True)
    p.add_argument("--mode", required=True, help="unnorm | tau | area")
    p.add_argument("--init", default=None,
                   help="circle | file:<path> | perturb:<m>,<eps> | seed:<k>,<eps>")
    p.add_argument("--t-end", dest="t_end", required=True)
    p.add_argument("--entropy", action="store_true", help="log entropy per sample")
    p.add_argument("--outdir", default=None)
    p.add_argument("--n", default=None)
    p.add_argument("--sample-dt", dest="sample_dt", default=None,
                   help="sample at multiples of this time, from an order-5 "
                        "interpolant of the steps, which do not stop there "
                        "(default: every --sample-every steps in unnorm mode, "
                        "0.01 in tau and area modes)")
    p.add_argument("--sample-every", dest="sample_every", default=None,
                   help="sample after this many accepted steps when --sample-dt "
                        "is not in use (default 1)")
    p.add_argument("--stop-min-radius", dest="stop_min_radius", default=None,
                   help="stop once the least radius of curvature falls below this "
                        "(default 1e-3)")
    p.add_argument("--rtol", default=None,
                   help="bound on the estimated local error of each order-5 step, "
                        "relative to the support function about the Steiner point "
                        "(default 1e-12)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_flow, _options={
        "alpha": (float, None), "init": (str, "circle"), "t_end": (float, None),
        "n": (_grid_size, 256), "sample_dt": (float, None),
        "sample_every": (int, 1), "stop_min_radius": (float, 1e-3),
        "rtol": (float, 1e-12)})

    p = sub.add_parser("modes", help="mode diagnostics of a stored trace")
    p.add_argument("--trace", required=True, help="flow output directory")
    p.add_argument("--k", required=True)
    p.add_argument("--mmax", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_modes, _options={"k": (int, None), "mmax": (int, 8)})

    p = sub.add_parser("entropy-table", help="profile entropies in order")
    p.add_argument("--alpha", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_entropy_table, _options={"alpha": (float, None)})

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(getattr(args, "config", None))
        _merge(args, config)
        _convert(args)
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
