"""sparseflr benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sparse-n2000 --seed 0 --seconds 15 --trace 0

One caller in one process drives the workload in a closed loop (each call
issued after the previous one returns) for ``--seconds``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it is the full report
(sample counts, percentiles, fingerprint, environment), also written to
``.perfbench_out/``. The exit code is 1 when an output check failed and 2
when the checkout holds no ``src/sparseflr`` to benchmark.

The package is imported from this checkout's ``src``, never from an
installed copy, inside the timed set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("sparse-n2000", "dense-n400", "mc-sparse-n100", "cli-sparse-n400")

# Set-up is timed in this process and in SETUP_SAMPLES - 1 fresh child
# processes, one after another; the median is reported.
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "iteration_s": "s",
    "fit_s": "s",
    "peak_rss_mb": "MB",
    "beta_rel_err": "ratio",
    "rmspe_ce": "ratio",
    "rmspe_in": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), help="'all' runs each in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument(
        "--write-reference",
        action="store_true",
        help="rewrite perfbench/reference.json from this tree's reference fits",
    )
    args = p.parse_args(argv)
    if args.workload is None and not args.write_reference:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_workloads():
    """Import the checkout's sparseflr (and numpy) and the workload module."""
    sys.path[:0] = [SRC, HERE]
    import workloads

    loaded = os.path.abspath(sys.modules["sparseflr"].__file__)
    if not loaded.startswith(os.path.join(SRC, "sparseflr") + os.sep):
        raise SystemExit(f"error: sparseflr was imported from {loaded}, not from {SRC}")
    return workloads


def timed_setup(args):
    """Import, generate the inputs, one untimed warm-up call; returns (seconds, ...)."""
    start = time.perf_counter()
    workloads = import_workloads()
    ledger = workloads.Ledger()
    workload = workloads.make(args.workload, smoke=args.smoke)
    work_dir = workloads.work_directory(OUT_DIR)
    state = workload.setup(args.seed, ledger, work_dir)
    return time.perf_counter() - start, workloads, workload, state, ledger, work_dir


def child_setup_seconds(args) -> float:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def steal_seconds():
    """CPU time the hypervisor gave to others, summed over this machine's CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def measure(workload, state, ledger, seconds, tracer=None, first=0):
    """Closed loop for ``seconds`` (at least one iteration); samples by name."""
    samples = defaultdict(list)
    i = 0
    start = time.perf_counter()
    while i == 0 or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.iteration = first + i
        for name, value in workload.iterate(state, ledger, first + i).items():
            samples[name].extend(value if isinstance(value, list) else [value])
        i += 1
    return samples, i


def summary(values) -> dict:
    """Median and sample count, plus the highest percentile of 50/90/99/99.9
    that has at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    # pXX leaves one sample in ``beyond`` above it
    for label, beyond in (("p99.9", 1000), ("p99", 100), ("p90", 10), ("p50", 2)):
        if len(values) >= 10 * beyond:
            ordered = sorted(values)
            out[label] = ordered[math.ceil(len(ordered) * (beyond - 1) / beyond) - 1]
            break
    return out


def git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sparseflr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def blas_threads():
    """OpenBLAS's own thread count, read through its C API when loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
    }


def load_reference(workload: str, smoke: bool):
    if smoke or not os.path.isfile(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload)


def run_reference(workloads, workload, ledger, work_dir, reference) -> dict:
    try:
        return workload.reference(ledger, work_dir, reference)
    except workloads.OutputCheckError as exc:
        ledger.fail("reference", exc)
        return {}


def metric(value, unit):
    ok = isinstance(value, (int, float)) and math.isfinite(value)
    return {"value": value if ok else None, "unit": unit}


def run(args) -> int:
    setup_s, workloads, workload, state, ledger, work_dir = timed_setup(args)
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    try:
        setup_samples = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "loop": "closed, 1 caller, 1 process",
            "environment": environment(),
            "setup_s_samples": setup_samples,
        }
        if args.trace:
            from tracing import Tracer, per_layer_metric_units

            untraced, n_untraced = measure(workload, state, ledger, args.seconds / 3)
            tracer = Tracer()
            with tracer:
                traced, n_traced = measure(
                    workload, state, ledger, 2 * args.seconds / 3, tracer, first=n_untraced
                )
            ref = run_reference(workloads, workload, ledger, work_dir, load_reference(args.workload, args.smoke))
            values = tracer.layer_metrics(n_traced)
            fp = ref.get("fingerprint", {})
            values["fpca.ncomp_x"] = fp.get("ncomp_x")
            values["fpca.ncomp_y"] = fp.get("ncomp_y")
            t_off = statistics.median(untraced["iteration_s"])
            t_on = statistics.median(traced["iteration_s"])
            values.update({
                "trace.untraced_iteration_s": t_off,
                "trace.traced_iteration_s": t_on,
                "trace.overhead_s": t_on - t_off,
            })
            units = per_layer_metric_units()
            metrics = {name: metric(values.get(name), unit) for name, unit in units.items()}
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"spans-{stem}.jsonl.gz")
            tracer.write(spans_path)
            report.update({
                "iterations": {"untraced": n_untraced, "traced": n_traced},
                "spans": len(tracer.spans),
                "spans_file": os.path.relpath(spans_path, ROOT),
            })
        else:
            steal0, start = steal_seconds(), time.perf_counter()
            samples, n_iter = measure(workload, state, ledger, args.seconds)
            steal1, elapsed = steal_seconds(), time.perf_counter() - start
            ref = run_reference(workloads, workload, ledger, work_dir, load_reference(args.workload, args.smoke))
            values = {
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            for name in ("iteration_s", "fit_s"):
                if samples.get(name):
                    values[name] = statistics.median(samples[name])
            for name in ("beta_rel_err", "rmspe_ce", "rmspe_in"):
                values[name] = ref.get(name)
            metrics = {name: metric(values.get(name), unit) for name, unit in END_TO_END_UNITS.items()}
            report.update({
                "iterations": n_iter,
                "timings": {name: summary(v) for name, v in sorted(samples.items()) if v},
                "samples": {name: v for name, v in sorted(samples.items()) if len(v) <= 200},
                # reported, not gated: its run-to-run spread exceeds any allowed bound
                "predict_subjects_per_s": 1.0 / statistics.median(samples["predict_subject_s"])
                if samples.get("predict_subject_s")
                else None,
                # host contention during the loop; it inflates wall times
                "steal_share": (steal1 - steal0) / (elapsed * os.cpu_count())
                if steal0 is not None and steal1 is not None
                else None,
            })
        ref.pop("model", None)
        correct = ledger.failed == 0 and all(m["value"] is not None for m in metrics.values())
        report.update({
            "reference": ref,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "error_rate": ledger.failed / max(ledger.attempted, 1),
            "errors": ledger.errors,
            "metrics": metrics,
        })
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"{stem}-trace{args.trace}.json"), "w") as fh:
            json.dump(report, fh, indent=1)
        print(json.dumps(report))
        print(json.dumps({
            "correct": correct,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": metrics,
        }))
        return 0 if correct else 1
    finally:
        workloads.remove_directory(work_dir)


def run_all(args) -> int:
    """Each workload in its own process, one after another; one result line each."""
    code = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(name, lines[-1] if lines else proc.stderr.strip()[-500:], flush=True)
        code = code or proc.returncode
    return code


def write_reference() -> int:
    """Record each workload's reference model hash and beta as the drift baseline."""
    workloads = import_workloads()
    out = {}
    for name in WORKLOADS:
        ledger = workloads.Ledger()
        work_dir = workloads.work_directory(OUT_DIR)
        try:
            ref = workloads.make(name).reference(ledger, work_dir, None)
        finally:
            workloads.remove_directory(work_dir)
        if ledger.failed or "model" not in ref:
            print(f"error: reference for {name} failed: {ledger.errors}", file=sys.stderr)
            return 1
        out[name] = {
            "model_sha256": ref["fingerprint"]["model_sha256"],
            "beta": ref["model"].beta.tolist(),
        }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"source_sha256": source_sha256(), **out}, fh)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparseflr", "__init__.py")):
        print(f"error: no sparseflr package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup_s, workloads, _, _, _, work_dir = timed_setup(args)
        workloads.remove_directory(work_dir)
        print(repr(setup_s))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
