"""The workloads: seeded acsflow CLI command sequences and their checks.

Each build_* function turns a seed into input files and a list of commands.
Every command has a check that compares its outputs with an independent
reference: the closed forms and quadrature oracles in tests/oracles.py, exact
spectral identities, and the tolerances of the matching tier-1 test. A check
returns the list of problems it found; an empty list means the output is
correct.

Paths are relative to the repository root, the benchmark's working
directory, so that the same seed writes byte-identical files wherever the
checkout lives.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracles
from acsflow import geometry

WORK_ROOT = ".bench_runs"

# A CSV cell carries 12 significant digits: relative rounding <= 5e-12.
CSV_ROUNDING = 5e-12
# |lambda| at or below this counts as kernel (spectral.ZERO_TOL).
ZERO_TOL = 1e-6


@dataclass
class Op:
    """One CLI invocation and the check of its outputs."""

    argv: list
    outdir: str
    check: object  # (record, outdir) -> list of problems


@dataclass
class Workload:
    ops: list
    inputs: dict  # the generated inputs, for replay


def _write_support(path, u):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(geometry.support_to_json(u), fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) if r[i] else math.nan for r in body])
            for i, name in enumerate(header)}


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- extinction -----------------------------------------------------------------

EXT_ALPHA = 0.5
EXT_STOP = 1e-3  # the CLI's default --stop-min-radius


def _check_extinction(radius):
    def check(record, outdir):
        problems = []
        if record.get("terminal_reason") != "min_radius":
            problems.append(f"terminal_reason {record.get('terminal_reason')!r}")
        cols = _read_csv(os.path.join(outdir, "trace.csv"))
        t, area = cols["time"], cols["area"]
        r = np.array([oracles.circle_radius_at(EXT_ALPHA, ti, radius) for ti in t])
        # tier-1 area tolerance (1e-10), plus the 12-digit rounding of the
        # time column carried through dA/A = 2 r^(-1-alpha) dt
        tol = 1e-10 + CSV_ROUNDING * (1.0 + 2.0 * t * r ** (-1.0 - EXT_ALPHA))
        err = np.abs(area / (np.pi * r * r) - 1.0)
        bad = np.nonzero(err > tol)[0]
        if len(bad):
            i = bad[0]
            problems.append(f"area at t={t[i]!r} off the circle law by {err[i]:.3g}")
        t_final = record["t_final"]
        if abs(t_final - t[-1]) > CSV_ROUNDING * t_final:
            problems.append("t_final is not the last trace row")
        if abs(record["area_final"] - area[-1]) > CSV_ROUNDING * area[-1]:
            problems.append("area_final is not the last trace row")
        r_final = oracles.circle_radius_at(EXT_ALPHA, t_final, radius)
        if not r_final < EXT_STOP:
            problems.append(f"stopped at exact radius {r_final!r} >= {EXT_STOP}")
        return problems

    return check


def build_extinction(rng, inputs, out, tiny):
    n, every = (32, 20) if tiny else (256, 200)
    radius = float(rng.uniform(0.9, 1.1))
    offset, phase = float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.0, 2 * np.pi))
    center = (offset * math.cos(phase), offset * math.sin(phase))
    init = os.path.join(inputs, "circle.json")
    _write_support(init, geometry.circle_support(geometry.AngularGrid(n), radius, center))
    out = os.path.join(out, "flow")
    argv = ["flow", "--mode", "unnorm", "--alpha", repr(EXT_ALPHA), "--n", str(n),
            "--init", f"file:{init}", "--t-end", "10", "--sample-every", str(every),
            "--outdir", out]
    return Workload([Op(argv, out, _check_extinction(radius))],
                    {"radius": radius, "center": list(center), "init": init})


# -- neutral --------------------------------------------------------------------

NEUTRAL_K = 3


def _check_reached_end(rows):
    def check(record, outdir):
        problems = []
        if record.get("terminal_reason") != "reached_end":
            problems.append(f"terminal_reason {record.get('terminal_reason')!r}")
        if record.get("rows") != rows:
            problems.append(f"{record.get('rows')} rows, expected {rows}")
        return problems

    return check


def _check_modes(record, outdir):
    k = NEUTRAL_K
    expected = k * k * (4 - k * k) / 6.0
    problems = []
    measured = record.get("measured_rho_rate")
    if measured is None or not abs(measured - expected) <= 1e-4 * abs(expected):
        problems.append(f"measured rho rate {measured!r}, expected {expected}")
    residual = record.get("residual_rho")
    if residual is None or not residual < 0.02:
        problems.append(f"residual_rho {residual!r} not below 0.02")
    return problems


def build_neutral(rng, inputs, out, tiny):
    n = 64 if tiny else 512
    eps = float(rng.uniform(0.9e-3, 1.1e-3))
    out = os.path.join(out, "flow")
    alpha = 1.0 / (NEUTRAL_K * NEUTRAL_K - 1)
    flow_argv = ["flow", "--mode", "tau", "--alpha", repr(alpha),
                 "--init", f"seed:{NEUTRAL_K},{eps!r}", "--n", str(n),
                 "--t-end", "2", "--sample-dt", "0.01", "--entropy", "--outdir", out]
    modes_argv = ["modes", "--trace", out, "--k", str(NEUTRAL_K)]
    return Workload([
        Op(flow_argv, out, _check_reached_end(201)),
        Op(modes_argv, out, _check_modes),
    ], {"eps": eps})


# -- profiles -------------------------------------------------------------------

def _check_profile(record, outdir):
    """r and entropy against the quadrature oracle at the profile's u_max."""
    p = _load_json(os.path.join(outdir, "profile.json"))
    alpha, k = p["alpha"], p["k"]
    u_max = float(np.max(p["h"]))
    problems = []
    span = oracles.arc_span(alpha, u_max)
    if not abs(span - math.pi / k) <= 1e-9:
        problems.append(f"arc span off pi/{k} by {span - math.pi / k:.3g}")
    u_min = oracles.arc_u_min(alpha, u_max)
    if not abs(u_max / p["r"] - u_min) <= 1e-11:
        problems.append(f"r off the oracle: u_min error {u_max / p['r'] - u_min:.3g}")
    c = (alpha + 1.0) / (2.0 * (alpha - 1.0))
    entropy = c * math.log(oracles.arc_power_mean(alpha, u_max))
    if not abs(p["entropy"] - entropy) <= 1e-9 * abs(c):
        problems.append(f"entropy off the oracle by {p['entropy'] - entropy:.3g}")
    return problems


def _check_spectrum(record, outdir):
    """-L h = -(1+alpha) h, -L cos = -cos, and h_theta spans part of the kernel."""
    s = _load_json(os.path.join(outdir, "spectrum.json"))
    alpha = s["alpha"]
    ev = np.array(s["eigenvalues"])
    problems = []
    scaling = float(np.min(np.abs(ev + 1.0 + alpha)))
    if not scaling <= 1e-9:
        problems.append(f"no eigenvalue at -(1+alpha); nearest is {scaling:.3g} away")
    pair = np.sort(np.abs(ev + 1.0))[:2]
    if not (len(pair) == 2 and pair[1] <= 1e-9):
        problems.append(f"translation pair at -1 missing; distances {pair.tolist()}")
    zero = float(np.min(np.abs(ev)))
    if not zero <= ZERO_TOL:
        problems.append(f"no kernel eigenvalue; nearest to 0 is {zero:.3g}")
    return problems


def _check_entropy_table(record, outdir):
    table = _load_json(os.path.join(outdir, "entropy_table.json"))
    alpha = table["alpha"]
    k_max = max(k for k in range(3, 64) if k * k < 1.0 + 1.0 / alpha)
    tags = [row[0] for row in table["rows"]]
    values = [row[1] for row in table["rows"]]
    problems = []
    if tags != ["circle"] + list(range(k_max, 2, -1)):
        problems.append(f"rows {tags}, expected circle and k = {k_max}..3")
    if values[0] != 0.0 or not all(a > b for a, b in zip(values, values[1:])):
        problems.append(f"entropies not strictly decreasing from 0: {values}")
    return problems


# (alpha, k, n) of each spectrum of `profiles`.
SPECTRA = ((1.0 / 24, 3, 510), (0.03, 4, 1024))
# A known wrong answer of the dense solver (scaling eigenvalue -1.0184,
# kernel dimension 0). It fails its check on every run, so it has a workload
# of its own, `small_alpha`, outside the benchmark's list: a run that fails
# a check is not a measurement.
SMALL_ALPHA_SPECTRUM = (0.02, 3, 1020)


class _Alphas:
    """Scales each base alpha by a seeded factor in [0.99, 1.01]."""

    def __init__(self, rng):
        self.rng, self.values = rng, []

    def __call__(self, base):
        alpha = base * float(self.rng.uniform(0.99, 1.01))
        self.values.append(alpha)
        return repr(alpha)


def _spectrum_op(out, alpha, k, n):
    d = os.path.join(out, f"spectrum_k{k}_n{n}")
    return Op(["spectrum", "--alpha", alpha, "--profile", f"k{k}", "--n", str(n),
               "--out", d], d, _check_spectrum)


def build_profiles(rng, inputs, out, tiny):
    # below about n 500 the program rejects the alpha 1/24 profile (exit 3)
    size = (lambda n: min(n, 512)) if tiny else (lambda n: n)
    alpha_of = _Alphas(rng)
    d = os.path.join(out, "shrinker")
    ops = [Op(["shrinker", "--alpha", alpha_of(1.0 / 24), "--k", "3",
               "--n", str(size(510)), "--out", d], d, _check_profile)]
    for base, k, n in SPECTRA:
        ops.append(_spectrum_op(out, alpha_of(base), k, size(n)))
    d = os.path.join(out, "entropy_table")
    ops.append(Op(["entropy-table", "--alpha", alpha_of(0.03),
                   "--out", d], d, _check_entropy_table))
    return Workload(ops, {"alphas": alpha_of.values})


def build_small_alpha(rng, inputs, out, tiny):
    base, k, n = SMALL_ALPHA_SPECTRUM
    alpha_of = _Alphas(rng)
    ops = [_spectrum_op(out, alpha_of(base), k, n)]
    return Workload(ops, {"alphas": alpha_of.values})


# -- relax ----------------------------------------------------------------------

def _check_relax(record, outdir):
    problems = _check_reached_end(201)(record, outdir)
    cols = _read_csv(os.path.join(outdir, "trace.csv"))
    # the tier-1 measures: area drift per unit time over windows of 0.5
    # (every 50th row at sample-dt 0.01), and entropy rises of at most 1e-7
    drift = float(np.max(np.abs(np.diff(cols["area"][::50])) / np.pi / 0.5))
    if not drift < 1e-8:
        problems.append(f"area drift {drift:.3g} per unit time")
    rise = float(np.max(np.diff(cols["entropy"])))
    if not rise <= 1e-7:
        problems.append(f"entropy rose by {rise:.3g}")
    return problems


def relax_body(grid, rng):
    """Random asymmetric convex body, translated, with area pi."""
    u = geometry.random_convex_support(grid, rng)
    u = geometry.translate(u, tuple(rng.uniform(-0.3, 0.3, 2)))
    return geometry.SupportFunction(grid, u.values * math.sqrt(math.pi / geometry.area(u)))


def build_relax(rng, inputs, out, tiny):
    n = 64 if tiny else 256
    init = os.path.join(inputs, "body.json")
    _write_support(init, relax_body(geometry.AngularGrid(n), rng))
    out = os.path.join(out, "flow")
    argv = ["flow", "--mode", "area", "--alpha", "0.5", "--n", str(n),
            "--init", f"file:{init}", "--t-end", "2", "--sample-dt", "0.01",
            "--entropy", "--outdir", out]
    return Workload([Op(argv, out, _check_relax)], {"init": init})


# -- flows ----------------------------------------------------------------------

# The three flow workloads also run as one, the benchmark's `flows`: the
# benchmark's runs must fit in a fixed time, and with two workloads instead of
# four each run can measure about 40 s instead of 8 to 16 s. On a host whose
# speed swings for minutes at a time, 10 runs of one of these alone spread by
# up to 0.31 of their median.
FLOWS = ("extinction", "neutral", "relax")


def build_flows(rng, inputs, out, tiny):
    ops, replay = [], {}
    for name in FLOWS:
        part = WORKLOADS[name](rng, os.path.join(inputs, name), os.path.join(out, name), tiny)
        ops += part.ops
        replay[name] = part.inputs
    return Workload(ops, replay)


WORKLOADS = {
    "extinction": build_extinction,
    "neutral": build_neutral,
    "relax": build_relax,
    "flows": build_flows,
    "profiles": build_profiles,
    "small_alpha": build_small_alpha,
}


def out_root(name):
    """The directory under which workload `name` writes all its outputs."""
    return os.path.join(WORK_ROOT, name, "out")


def build(name, seed, tiny=False):
    """The workload `name` for `seed`; writes its input files."""
    inputs = os.path.join(WORK_ROOT, name, "inputs")
    return WORKLOADS[name](np.random.default_rng(seed), inputs, out_root(name), tiny)
