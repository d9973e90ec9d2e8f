"""Benchmark of the acsflow CLI: seeded command sequences run in-process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's commands go through
acsflow.cli.main(argv) one after another (a closed loop with one caller),
and every command's outputs are checked against independent references.
The command sequence runs at least once and is repeated while another pass
fits in S seconds. Each pass starts from an empty output directory, and each
command with the package's caches cleared, as in a fresh CLI process.

--trace 0 prints the end-to-end metrics (medians over the passes):
    wall_s       wall time of the command sequence
    setup_s      median time to import acsflow.cli in 5 fresh interpreters
    peak_rss_mb  peak resident memory of this process
    ok_frac      share of the commands whose outputs passed their checks
--trace 1 runs the sequence untraced and then traced, in pairs, and prints
the per-layer metrics of the traced passes (see tracing.py), the untraced
time of each subcommand (cmd.<name>_s) and the tracing overhead.

Commands also fail when a pass writes other bytes than the first pass, or a
traced pass other bytes than its untraced partner. Everything else (the run
environment, the generated inputs, per-command results, file digests and the
spans) goes to .bench_runs/<workload>-seed<N>-trace<T>.json. The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
SETUP_CODE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
              "import acsflow.cli; print(time.perf_counter() - t)")
SUBCOMMANDS = ("flow", "modes", "shrinker", "spectrum", "entropy-table")


def _import_program():
    """Import acsflow from this checkout's src/, or exit non-zero."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    import acsflow.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(acsflow.cli.__file__))) != SRC:
        sys.exit(f"acsflow was imported from {acsflow.cli.__file__}, not from {SRC}")
    return acsflow.cli


def setup_seconds(samples):
    """Times to import acsflow.cli, each in a fresh interpreter."""
    out = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _clear_caches():
    """Empty every functools cache in the package, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "acsflow" or name.startswith("acsflow."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _file_digests(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                data = fh.read()
            out[os.path.relpath(path, root)] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def run_pass(cli, workload, out_root, tracer=None):
    """Run the workload's commands once; returns one record per command."""
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    seen = {}
    records = []
    for op in workload.ops:
        _clear_caches()
        stdout, stderr = io.StringIO(), io.StringIO()
        close = tracer.command(op.argv[0]) if tracer else None
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(op.argv)
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        cpu = time.process_time() - cpu
        if close:
            close()
        files = {p: d for p, d in _file_digests(out_root).items() if seen.get(p) != d}
        seen.update(files)
        lines = stdout.getvalue().splitlines()
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}: {stderr.getvalue().strip()[-300:]}")
        else:
            try:
                problems = op.check(json.loads(lines[-1]), op.outdir)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        digest = hashlib.sha256(json.dumps(
            [stdout.getvalue(), sorted((p, d[0]) for p, d in files.items())]).encode())
        records.append({
            "argv": op.argv, "rc": rc, "seconds": seconds, "cpu_s": cpu,
            "stdout": lines[-1] if lines else "", "problems": problems,
            "digest": digest.hexdigest(),
            "files": {p: d[0] for p, d in sorted(files.items())},
            "bytes": sum(d[1] for d in files.values()),
        })
    return records


def _mark_mismatches(records, reference, what):
    for rec, ref in zip(records, reference):
        if rec["digest"] != ref["digest"]:
            rec["problems"].append(f"outputs differ from {what}")


def environment(seed, workload):
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numba": importlib.util.find_spec("numba") is not None,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "inputs": workload.inputs,
        "argv": [op.argv for op in workload.ops],
    }
    for name in ("numpy", "scipy"):
        module = importlib.import_module(name)
        env[name] = module.__version__
        env[f"{name}_blas"] = _blas_info(module)
    return env


def _blas_info(module):
    """BLAS build of numpy or scipy, and its thread count (None if unknown)."""
    import ctypes
    import glob

    info = {}
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    info["threads"] = None
    libdir = os.path.dirname(module.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = os.path.basename(path)
                return info
    return info


def _median(values):
    return statistics.median(values) if values else 0.0


def _subcommand_seconds(passes):
    out = {}
    for name in SUBCOMMANDS:
        key = f"cmd.{name.replace('-', '_')}_s"
        out[key] = _median([sum(r["seconds"] for r in p if r["argv"][0] == name)
                            for p in passes])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small grids, for the benchmark's own tests")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    cli = _import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    out_root = workloads.out_root(args.workload)
    setup = [] if args.trace else setup_seconds(1 if args.tiny else SETUP_SAMPLES)

    plain, traced, spans = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain.append(run_pass(cli, workload, out_root))
        _mark_mismatches(plain[-1], plain[0], "the first pass")
        if args.trace:
            with tracing.Tracer() as tracer:
                traced.append(run_pass(cli, workload, out_root, tracer))
            _mark_mismatches(traced[-1], plain[-1], "the untraced pass")
            spans.append(tracer.spans)
        # stop before a further pass would overrun the run length
        now = time.perf_counter()
        if now + (now - pass_start) > start + args.seconds:
            break

    records = [r for p in plain + traced for r in p]
    failed = sum(1 for r in records if r["problems"])
    walls = [sum(r["seconds"] for r in p) for p in plain]
    if args.trace:
        per_pass = []
        for recs, pass_spans, wall in zip(traced, spans, walls):
            m = tracing.layer_metrics(pass_spans)
            m["cli.files_written"] = sum(len(r["files"]) for r in recs)
            m["cli.bytes_written"] = sum(r["bytes"] for r in recs)
            m["trace.wall_s"] = sum(s.seconds for s in pass_spans if s.parent is None)
            m["trace.overhead_s"] = m["trace.wall_s"] - wall
            per_pass.append(m)
        values = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
        values.update(_subcommand_seconds(plain))
    else:
        values = {
            "wall_s": _median(walls),
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (len(records) - failed) / len(records),
        }
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        sys.exit(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    env = environment(args.seed, workload)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    log = os.path.join(workloads.WORK_ROOT,
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(log, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "environment": env, "setup_s": setup,
                   "passes": plain, "traced_passes": traced,
                   "spans": [[vars(s) for s in ss] for ss in spans],
                   "result": result}, fh, indent=1)

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)}  failed {failed}/{len(records)}")
    for r in records:
        for problem in r["problems"]:
            print(f"  FAILED {r['argv'][0]}: {problem}")
    for k, v in values.items():
        print(f"  {k:28s} {v:>14.6g} {units[k]}")
    print(f"  environment: nproc {env['nproc']}, numpy {env['numpy']} "
          f"(BLAS threads {env['numpy_blas'].get('threads')}), scipy {env['scipy']} "
          f"(BLAS threads {env['scipy_blas'].get('threads')}), numba {env['numba']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
