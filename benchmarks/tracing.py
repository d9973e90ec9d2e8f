"""Spans recorded from outside the program, by wrapping module functions.

A wrapper replaces the function's attribute on its module, so calls from
acsflow.cli and calls between functions of the same module both pass through
it. A name that another module bound at import time (``from .spectral import
project`` in acsflow.modes) keeps the unwrapped function; none of the
benchmark's commands reaches such a call.

acsflow.geometry and acsflow._kernels are reached only through the wrapped
layers, so their time counts as self time of the layer that called them. Small
helpers (``check_alpha``, ``cstar``) and the serialisers (``*_to_csv``,
``*_to_json_dict``) are not wrapped: output formatting and file writes count as
self time of the ``cli`` layer.
"""

import functools
import importlib
import time
from dataclasses import dataclass, field

import numpy as np

# Per layer, the public functions that the CLI's commands reach and that do
# the layer's work.
WRAPPED = {
    "flow": ("run",),
    "entropy": ("entropy",),
    "shrinker": ("solve_segment", "segment_for_ratio", "find_r_for_k",
                 "shrinker_entropy", "entropy_ordering", "assemble_profile"),
    "spectral": ("decompose",),
    "modes": ("track_modes", "residual_linear_modes", "residual_neutral_modes",
              "measure_cstar", "quasi_steady_check", "quasi_steady_seed"),
}
LAYERS = ("cli",) + tuple(WRAPPED)


def _fold_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("k")


# Attributes read from a finished call: (args, kwargs, result) -> dict.
# A root find is one solve of Theta(u_max) = pi/k or r(u_max) = r.
_DESCRIBE = {
    "flow.run": lambda a, kw, r: {"steps": r.n_steps, "rows": len(r)},
    "entropy.entropy": lambda a, kw, r: {"evals": r.evaluations},
    "spectral.decompose": lambda a, kw, r: {
        "n": r.h.grid.n, "max_residual": float(np.max(r.residuals))},
    "shrinker.assemble_profile": lambda a, kw, r: {"rootfind": r.k != "circle"},
    "shrinker.shrinker_entropy": lambda a, kw, r: {
        "rootfind": _fold_arg(a, kw) != "circle"},
    "shrinker.segment_for_ratio": lambda a, kw, r: {"rootfind": True},
    "shrinker.find_r_for_k": lambda a, kw, r: {"rootfind": True},
    "modes.track_modes": lambda a, kw, r: {"rows": len(r.tau)},
}


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<function>", or "cli.<subcommand>" for a command
    layer: str
    command: int  # index of the CLI command the span belongs to
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Holds the spans of one traced pass in memory.

    Use as a context manager: entering wraps the functions in WRAPPED,
    leaving restores the originals.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._command = -1
        self._restore = []

    def __enter__(self):
        for layer, names in WRAPPED.items():
            module = importlib.import_module(f"acsflow.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    setattr(module, name, self._wrap(layer, name, fn))
                    self._restore.append((module, name, fn))
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore.clear()
        return False

    def _open(self, name, layer):
        span = Span(id=len(self.spans), name=name, layer=layer,
                    command=self._command,
                    parent=self._stack[-1] if self._stack else None,
                    start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def command(self, subcommand):
        """Open the root span of one CLI invocation; returns its closer."""
        self._command += 1
        span = self._open(f"cli.{subcommand}", "cli")
        return lambda: self._close(span)

    def _wrap(self, layer, name, fn):
        qualified = f"{layer}.{name}"
        describe = _DESCRIBE.get(qualified)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(qualified, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        return traced


def self_times(spans):
    """Seconds per layer not covered by a child span."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] += s.seconds - child[s.id]
    return out


def _pct_us(seconds, q):
    return float(np.percentile(seconds, q)) * 1e6 if seconds else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (counts and seconds)."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def secs(name):
        return [s.seconds for s in by_name.get(name, ())]

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    own = self_times(spans)
    steps = attr_sum("flow.run", "steps")
    arcs = secs("shrinker.solve_segment")
    rootfinds = sum(1 for s in spans if s.attrs.get("rootfind"))
    ent = secs("entropy.entropy")
    decs = by_name.get("spectral.decompose", ())
    return {
        "flow.run_s": sum(secs("flow.run")),
        "flow.self_s": own["flow"],
        "flow.steps": steps,
        "flow.us_per_step": own["flow"] / steps * 1e6 if steps else 0.0,
        "flow.rows": attr_sum("flow.run", "rows"),
        "entropy.calls": len(ent),
        "entropy.s": sum(ent),
        "entropy.self_s": own["entropy"],
        "entropy.evals": attr_sum("entropy.entropy", "evals"),
        "entropy.p50_us": _pct_us(ent, 50),
        "entropy.p95_us": _pct_us(ent, 95),
        "shrinker.self_s": own["shrinker"],
        "shrinker.arc_solves": len(arcs),
        "shrinker.arc_s": sum(arcs),
        "shrinker.arc_p50_us": _pct_us(arcs, 50),
        "shrinker.arc_p90_us": _pct_us(arcs, 90),
        "shrinker.rootfinds": rootfinds,
        "shrinker.arcs_per_rootfind": len(arcs) / rootfinds if rootfinds else 0.0,
        "shrinker.assemble_s": sum(secs("shrinker.assemble_profile")),
        "spectral.self_s": own["spectral"],
        "spectral.calls": len(decs),
        "spectral.decompose_s": sum(s.seconds for s in decs),
        "spectral.max_n": max((s.attrs.get("n", 0) for s in decs), default=0),
        "spectral.max_residual": max(
            (s.attrs.get("max_residual", 0.0) for s in decs), default=0.0),
        "modes.s": sum(s.seconds for s in spans
                       if s.layer == "modes" and (s.parent is None
                                                  or spans[s.parent].layer != "modes")),
        "modes.self_s": own["modes"],
        "modes.rows": attr_sum("modes.track_modes", "rows"),
        "cli.self_s": own["cli"],
    }
